//! Virtual-time rate limiter: the one primitive that meters every modelled
//! rate — bytes through a device channel or a NIC port, a tenant's ops and
//! bytes through the QoS plane. A [`Limiter`] keeps one cursor, the instant
//! everything charged so far is paid off.
//!
//! As a **serial channel** ([`Limiter::reserve_at`]) a transfer of `n`
//! bytes occupies the channel for `n / rate` seconds from when it becomes
//! free. A lone client pays the transfer time of every access (bandwidth
//! shows up in *latency*, as on real DIMMs) and concurrent clients queue
//! (bandwidth shows up as *saturation*, the throughput knees the
//! evaluation looks for). Idle periods do not bank credit.
//!
//! As a **budget** ([`Limiter::with_burst`]) the cursor gains a burst
//! tolerance `τ` (GCRA): a charge admits when `max(cursor, now) + cost/rate
//! − τ ≤ now` and moves the cursor to `max(cursor, now) + cost/rate` — a
//! token bucket with continuous refill capped at the burst, full at
//! creation. The test clamps `cost` to the burst but the cursor moves by
//! the full cost, so a charge larger than the burst admits once the budget
//! is full and pays for itself by delaying what follows.
//!
//! Every span is modelled time, stretched by [`time_scale`] at use.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

use crate::latency::time_scale;

/// A thread-safe virtual-time rate limiter measured in units (bytes or
/// ops) per simulated second.
#[derive(Debug)]
pub struct Limiter {
    /// Units per simulated second; 0 or `u64::MAX` disables limiting.
    rate: u64,
    /// Burst tolerance in units: how much charge the cursor may run ahead
    /// of now and still admit. 0 for a serial channel.
    burst: f64,
    /// When the channel next becomes free: the instant everything charged
    /// so far is paid off.
    next_free: Mutex<Instant>,
}

impl Limiter {
    /// A serial channel with the given sustained rate. A rate of 0 or
    /// `u64::MAX` disables limiting.
    pub fn new(rate: u64) -> Self {
        Limiter {
            rate,
            burst: 0.0,
            next_free: Mutex::new(Instant::now()),
        }
    }

    /// A budget admitting `rate` units per simulated second with a burst
    /// of `max(rate × burst_ratio, 1)` units (so a tiny rate still admits
    /// single units). A fresh budget is full.
    pub fn with_burst(rate: u64, burst_ratio: f64) -> Self {
        Limiter {
            burst: (rate as f64 * burst_ratio.max(0.0)).max(1.0),
            ..Limiter::new(rate)
        }
    }

    fn unlimited(&self) -> bool {
        self.rate == 0 || self.rate == u64::MAX
    }

    /// The scaled wall time `units` occupy at this rate.
    fn span(&self, units: f64) -> Duration {
        Duration::from_secs_f64(units / self.rate as f64 * time_scale())
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
        if self.unlimited() || bytes == 0 {
            return None;
        }
        let scale = time_scale();
        if scale == 0.0 {
            return None;
        }
        let dur = Duration::from_secs_f64(bytes as f64 / self.rate as f64 * scale);
        let mut next_free = self.next_free.lock();
        let begin = (*next_free).max(start);
        *next_free = begin + dur;
        Some(*next_free)
    }

    /// Charges `cost` units at `now` if the budget covers it. `Err(wake)`
    /// names the instant the charge would admit, assuming no competing
    /// charges; nothing is charged. A cost above the burst is tested as
    /// the burst, so it admits once the budget is full. Unlimited budgets
    /// always admit.
    pub fn try_take(&self, cost: u64, now: Instant) -> Result<(), Instant> {
        if self.unlimited() {
            return Ok(());
        }
        let tolerance = self.span(self.burst);
        let mut next_free = self.next_free.lock();
        let base = (*next_free).max(now);
        let due = base + self.span((cost as f64).min(self.burst));
        if due > now + tolerance {
            return Err(due - tolerance);
        }
        *next_free = base + self.span(cost as f64);
        Ok(())
    }

    /// Refunds `cost` units at `now`, undoing a charge a sibling budget
    /// then denied. The budget never fills beyond its burst.
    pub fn give(&self, cost: u64, now: Instant) {
        if self.unlimited() {
            return;
        }
        let refund = self.span(cost as f64);
        let mut next_free = self.next_free.lock();
        *next_free = next_free.checked_sub(refund).map_or(now, |t| t.max(now));
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
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    impl Limiter {
        /// Reserves from now and busy-waits the slot out.
        fn acquire(&self, bytes: u64) {
            if let Some(deadline) = self.reserve_at(bytes, Instant::now()) {
                spin_until(deadline);
            }
        }
    }

    #[test]
    fn unlimited_never_blocks() {
        let l = Limiter::new(u64::MAX);
        let t0 = Instant::now();
        for _ in 0..1000 {
            l.acquire(1 << 30);
        }
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn zero_bytes_never_blocks() {
        let l = Limiter::new(1); // 1 B/s: any real acquire would stall
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
        let l = Limiter::new(100_000_000);
        let t0 = Instant::now();
        l.acquire(1_000_000);
        let el = t0.elapsed();
        assert!(el >= Duration::from_millis(9), "only waited {el:?}");
    }

    #[test]
    fn rate_is_enforced_across_accesses() {
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let l = Limiter::new(100_000_000);
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
        let l = Limiter::new(100_000_000);
        std::thread::sleep(Duration::from_millis(20)); // idle
        let t0 = Instant::now();
        l.acquire(1_000_000); // still ~10 ms
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn concurrent_users_serialize() {
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let l = std::sync::Arc::new(Limiter::new(100_000_000));
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

    #[test]
    fn unlimited_budget_always_admits() {
        for rate in [0, u64::MAX] {
            let b = Limiter::with_burst(rate, 2.0);
            let now = Instant::now();
            for _ in 0..10_000 {
                assert_eq!(b.try_take(1 << 40, now), Ok(()));
            }
        }
    }

    #[test]
    fn burst_cap_never_exceeded() {
        // Property: a fresh budget admits at most burst + refill(elapsed)
        // units, however the charges are sliced.
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let (rate, ratio) = (1_000u64, 1.5);
        let b = Limiter::with_burst(rate, ratio);
        let t0 = Instant::now();
        let mut granted = 0.0;
        for _ in 0..100_000 {
            if b.try_take(1, Instant::now()).is_ok() {
                granted += 1.0;
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let allowed = rate as f64 * ratio + rate as f64 * elapsed + 1.0;
        assert!(
            granted <= allowed,
            "granted {granted} > burst+refill {allowed}"
        );
    }

    #[test]
    fn conservation_under_concurrent_charges() {
        // Property (merge-law style): N threads hammering one budget can
        // never jointly extract more than burst + rate * elapsed.
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let (rate, ratio) = (50_000u64, 1.0);
        let b = Arc::new(Limiter::with_burst(rate, ratio));
        let granted = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let b = Arc::clone(&b);
                let granted = Arc::clone(&granted);
                thread::spawn(move || {
                    for _ in 0..200_000 {
                        if b.try_take(1, Instant::now()).is_ok() {
                            granted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let total = granted.load(Ordering::Relaxed) as f64;
        // +2.0 absorbs float slop at the boundary.
        let allowed = rate as f64 * ratio + rate as f64 * elapsed + 2.0;
        assert!(total <= allowed, "drained {total} > allowed {allowed}");
    }

    #[test]
    fn starvation_freedom_denied_charge_eventually_admits() {
        // Property: once the budget is empty, a denial names a finite wake
        // instant and the charge succeeds shortly after it.
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let b = Limiter::with_burst(10_000, 1.0);
        while b.try_take(1_000, Instant::now()).is_ok() {}
        let now = Instant::now();
        let wake = b.try_take(100, now).expect_err("empty budget admitted");
        assert!(wake > now, "denial woke in the past");
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let now = Instant::now();
            if now >= wake && b.try_take(100, now).is_ok() {
                break;
            }
            assert!(now < deadline, "denied charge never admitted");
            thread::yield_now();
        }
    }

    #[test]
    fn oversize_charge_wakes_when_full() {
        // A cost above the burst is tested as the burst: its wake instant
        // is finite (the budget is full again) and it admits there.
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let b = Limiter::with_burst(1_000, 1.0);
        let t = Instant::now();
        b.try_take(500, t).unwrap();
        let wake = b.try_take(1_000_000_000, t).unwrap_err();
        assert!(wake <= t + Duration::from_secs(2));
        assert_eq!(b.try_take(1_000_000_000, wake), Ok(()));
    }

    #[test]
    fn oversize_charge_on_full_budget_admits_then_pays() {
        // 3000 units against a 1000-unit burst at 1000/s: admitted at
        // once, and the next unit waits out the 2000-unit overdraft.
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let b = Limiter::with_burst(1_000, 1.0);
        let t = Instant::now();
        assert_eq!(b.try_take(3_000, t), Ok(()));
        let wait = b.try_take(1, t).unwrap_err() - t;
        assert!(
            wait >= Duration::from_secs(2) && wait <= Duration::from_millis(2_002),
            "next unit waits {wait:?}, expected ~(3000 - 1000) / 1000 s"
        );
    }

    #[test]
    fn give_refunds_but_never_overfills() {
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        let b = Limiter::with_burst(1_000, 1.0);
        let t = Instant::now();
        b.try_take(500, t).unwrap();
        b.give(500, t);
        b.give(1_000_000_000, t);
        // Full, not more: exactly one burst admits at `t`.
        assert_eq!(b.try_take(1_000, t), Ok(()));
        assert!(b.try_take(1, t).is_err(), "refund overfilled the budget");
    }

    /// The float token bucket the limiter must agree with: continuous
    /// refill capped at the burst, full at creation, admission tested
    /// against `min(cost, burst)` while the full cost is deducted (the
    /// balance may go negative), refunds capped at full.
    struct RefBucket {
        rate: f64,
        burst: f64,
        tokens: f64,
    }

    impl RefBucket {
        /// Tokens still missing before `cost` admits (≤ 0: admits now).
        fn deficit(&self, cost: f64) -> f64 {
            cost.min(self.burst) - self.tokens
        }
    }

    #[test]
    fn decisions_match_float_token_bucket() {
        let _g = SCALE_LOCK.lock().unwrap();
        set_time_scale(1.0);
        // 1 unit = 1 ms exactly, so every span is a whole number of ns.
        let (rate, ratio) = (1_000u64, 0.05);
        let mut rng = StdRng::seed_from_u64(0x6c69_6d69);
        for _ in 0..50 {
            let lim = Limiter::with_burst(rate, ratio);
            let t0 = Instant::now();
            let mut model = RefBucket {
                rate: rate as f64,
                burst: (rate as f64 * ratio).max(1.0),
                tokens: (rate as f64 * ratio).max(1.0),
            };
            let mut at_ns = 0u64;
            for _ in 0..200 {
                let dt: u64 = rng.gen_range(0..30_000_000);
                at_ns += dt;
                model.tokens = (model.tokens + dt as f64 * model.rate / 1e9).min(model.burst);
                let now = t0 + Duration::from_nanos(at_ns);
                let cost: u64 = rng.gen_range(0..80);
                if rng.gen_range(0..5) == 0 {
                    lim.give(cost, now);
                    model.tokens = (model.tokens + cost as f64).min(model.burst);
                    continue;
                }
                let deficit = model.deficit(cost as f64);
                let wait_ns = deficit / model.rate * 1e9;
                let got = lim.try_take(cost, now);
                if wait_ns.abs() < 1.0 {
                    // A boundary tie: either decision is right, but the
                    // model must follow the limiter's.
                    if got.is_ok() {
                        model.tokens -= cost as f64;
                    }
                    continue;
                }
                match got {
                    Ok(()) => {
                        assert!(deficit < 0.0, "limiter admitted, model is short {deficit}");
                        model.tokens -= cost as f64;
                    }
                    Err(wake) => {
                        assert!(deficit > 0.0, "limiter denied, model has {deficit} spare");
                        let off = (wake - now).as_nanos() as f64 - wait_ns;
                        assert!(off.abs() <= 1.0, "wake off the model's by {off} ns");
                    }
                }
            }
        }
    }
}
