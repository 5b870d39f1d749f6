//! Calibrated busy-wait delay injection.
//!
//! The emulation injects hardware latencies as short busy-waits measured with
//! [`std::time::Instant`]. Busy-waiting (rather than `thread::sleep`) is the
//! only way to represent sub-microsecond device latencies faithfully: OS
//! sleep granularity is tens of microseconds, two orders of magnitude above
//! an Optane read.
//!
//! A process-global *time scale* multiplies every injected delay. Unit tests
//! set it to `0.0` so the functional behaviour can be exercised at full
//! speed; benchmarks leave it at `1.0`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Global delay multiplier, stored as `f64` bits. Defaults to 1.0.
static TIME_SCALE_BITS: AtomicU64 = AtomicU64::new(0x3FF0_0000_0000_0000); // 1.0f64

/// Serialises tests (within this crate) that mutate the process-global time
/// scale. Timing-sensitive tests lock this and pin the scale they need.
#[cfg(test)]
pub(crate) static SCALE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Sets the global time scale applied to every injected delay.
///
/// `1.0` means delays are injected as configured in the device profiles,
/// `0.0` disables delay injection entirely (useful in unit tests), `10.0`
/// stretches all delays tenfold (useful to magnify timing-dependent effects).
///
/// # Panics
///
/// Panics if `scale` is negative or NaN.
pub fn set_time_scale(scale: f64) {
    assert!(
        scale >= 0.0 && scale.is_finite(),
        "time scale must be finite and non-negative, got {scale}"
    );
    TIME_SCALE_BITS.store(scale.to_bits(), Ordering::Relaxed);
}

/// Returns the current global time scale.
pub fn time_scale() -> f64 {
    f64::from_bits(TIME_SCALE_BITS.load(Ordering::Relaxed))
}

/// Delays above this threshold sleep for their bulk instead of spinning,
/// so long modelled latencies do not monopolise host cores (essential when
/// the simulated cluster has more concurrent delays than the host has
/// CPUs). Below it, busy-waiting is the only mechanism with enough
/// resolution.
pub const SLEEP_THRESHOLD_NS: u64 = 60_000;

/// Slack spun away after a coarse sleep, absorbing OS wakeup jitter.
const SLEEP_SLACK_NS: u64 = 50_000;

/// Waits for approximately `ns` nanoseconds, scaled by the global time
/// scale. Short delays busy-wait; long delays sleep for the bulk and spin
/// the remainder. A scaled delay of zero returns immediately without
/// reading the clock.
pub fn spin_for_ns(ns: u64) {
    let scaled = (ns as f64 * time_scale()) as u64;
    if scaled == 0 {
        return;
    }
    spin_until(Instant::now() + Duration::from_nanos(scaled));
}

/// `ns` nanoseconds scaled by the global time scale, as a [`Duration`].
/// The deferred-completion paths add this to a virtual-time cursor instead
/// of busy-waiting, so one thread can have many modelled delays elapsing
/// concurrently.
pub fn scaled_duration(ns: u64) -> Duration {
    Duration::from_nanos((ns as f64 * time_scale()) as u64)
}

/// Waits until `deadline`: sleeps while far away, spins when close.
pub fn spin_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining.as_nanos() as u64 > SLEEP_THRESHOLD_NS {
            std::thread::sleep(remaining - Duration::from_nanos(SLEEP_SLACK_NS));
        } else {
            break;
        }
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_roundtrip() {
        let _g = SCALE_LOCK.lock().unwrap();
        let old = time_scale();
        set_time_scale(2.5);
        assert_eq!(time_scale(), 2.5);
        set_time_scale(old);
    }

    #[test]
    #[should_panic(expected = "time scale must be finite")]
    fn negative_scale_rejected() {
        set_time_scale(-1.0);
    }

    #[test]
    fn zero_scale_is_instant() {
        let _g = SCALE_LOCK.lock().unwrap();
        let old = time_scale();
        set_time_scale(0.0);
        let t0 = Instant::now();
        spin_for_ns(10_000_000); // would be 10 ms at scale 1
        assert!(t0.elapsed() < Duration::from_millis(5));
        set_time_scale(old);
    }

    #[test]
    fn spin_waits_roughly_right() {
        let _g = SCALE_LOCK.lock().unwrap();
        let old = time_scale();
        set_time_scale(1.0);
        let t0 = Instant::now();
        spin_for_ns(2_000_000); // 2 ms
        let el = t0.elapsed();
        assert!(el >= Duration::from_millis(2), "spun only {el:?}");
        set_time_scale(old);
    }
}
