//! Virtual-time bandwidth limiter.
//!
//! Each device direction (read/write) and each NIC port owns a
//! [`BandwidthLimiter`]. The limiter models the resource as a serial
//! channel: a transfer of `n` bytes occupies the channel for `n / rate`
//! seconds, starting when the channel becomes free. A lone client therefore
//! pays the transfer time of every access (bandwidth shows up in *latency*,
//! as on real DIMMs), and concurrent clients queue behind one another
//! (bandwidth shows up as *saturation*, producing the throughput knees the
//! evaluation looks for). Idle periods do not bank credit.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

use crate::latency::time_scale;

/// A thread-safe serial-channel rate limiter measured in bytes per second.
#[derive(Debug)]
pub struct BandwidthLimiter {
    bytes_per_sec: u64,
    /// When the channel next becomes free.
    next_free: Mutex<Instant>,
}

impl BandwidthLimiter {
    /// Creates a limiter with the given sustained rate. A rate of
    /// `u64::MAX` disables limiting.
    pub fn new(bytes_per_sec: u64) -> Self {
        BandwidthLimiter {
            bytes_per_sec,
            next_free: Mutex::new(Instant::now()),
        }
    }

    /// Occupies the channel for `bytes` worth of transfer time, beginning
    /// no earlier than `start` (a virtual-time cursor possibly in the
    /// future), and returns the instant this transfer's slot completes,
    /// without waiting. Returns `None` when no wait is needed (unlimited
    /// rate, zero bytes, or time scale 0). A transfer modelled as arriving
    /// later does not steal channel time it could not yet occupy; one
    /// flowing through several channels concurrently reserves all of them
    /// and waits for the latest deadline.
    pub fn reserve_at(&self, bytes: u64, start: Instant) -> Option<Instant> {
        if self.bytes_per_sec == u64::MAX || bytes == 0 {
            return None;
        }
        let scale = time_scale();
        if scale == 0.0 {
            return None;
        }
        let dur = Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec as f64 * scale);
        let mut next_free = self.next_free.lock();
        let begin = (*next_free).max(start);
        *next_free = begin + dur;
        Some(*next_free)
    }

    /// When the channel next becomes free.
    #[cfg(test)]
    pub(crate) fn next_free(&self) -> Instant {
        *self.next_free.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{set_time_scale, spin_until, SCALE_LOCK};

    impl BandwidthLimiter {
        /// Reserves from now and busy-waits the slot out.
        fn acquire(&self, bytes: u64) {
            if let Some(deadline) = self.reserve_at(bytes, Instant::now()) {
                spin_until(deadline);
            }
        }
    }

    #[test]
    fn unlimited_never_blocks() {
        let l = BandwidthLimiter::new(u64::MAX);
        let t0 = Instant::now();
        for _ in 0..1000 {
            l.acquire(1 << 30);
        }
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn zero_bytes_never_blocks() {
        let l = BandwidthLimiter::new(1); // 1 B/s: any real acquire would stall
        let t0 = Instant::now();
        for _ in 0..100 {
            l.acquire(0);
        }
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn single_access_pays_transfer_time() {
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        // 100 MB/s: 1 MB takes ~10 ms even from idle.
        let l = BandwidthLimiter::new(100_000_000);
        let t0 = Instant::now();
        l.acquire(1_000_000);
        let el = t0.elapsed();
        assert!(el >= Duration::from_millis(9), "only waited {el:?}");
    }

    #[test]
    fn rate_is_enforced_across_accesses() {
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let l = BandwidthLimiter::new(100_000_000);
        let t0 = Instant::now();
        for _ in 0..16 {
            l.acquire(64 * 1024);
        }
        let el = t0.elapsed();
        // 1 MiB at 100 MB/s ~ 10.5 ms.
        assert!(el >= Duration::from_millis(9), "finished too fast: {el:?}");
    }

    #[test]
    fn idle_time_banks_no_credit() {
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let l = BandwidthLimiter::new(100_000_000);
        std::thread::sleep(Duration::from_millis(20)); // idle
        let t0 = Instant::now();
        l.acquire(1_000_000); // still ~10 ms
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn concurrent_users_serialize() {
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let l = std::sync::Arc::new(BandwidthLimiter::new(100_000_000));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = std::sync::Arc::clone(&l);
                std::thread::spawn(move || l.acquire(500_000)) // 5 ms each
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 x 5 ms serialized ~ 20 ms.
        assert!(t0.elapsed() >= Duration::from_millis(18));
    }
}
