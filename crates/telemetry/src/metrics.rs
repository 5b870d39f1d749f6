//! Lock-free metric primitives: counters, gauges, and a log-scale atomic
//! latency histogram with mergeable snapshots.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per power-of-two octave (~3 % resolution); the workload
/// drivers in `gengar-workloads` record into this same histogram.
pub const SUB_BUCKETS: usize = 32;
/// Octaves covered: 1 ns .. ~1099 s.
pub const OCTAVES: usize = 40;
/// Total bucket count of a [`LatencyHistogram`].
pub const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (between harness experiments).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A value that moves up and down (queue depth, ring occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records `v` if it exceeds the current value (high-watermark use).
    #[inline]
    pub fn record_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A fixed-size log-bucketed latency histogram with atomic buckets.
///
/// `record_ns` is wait-free (a handful of relaxed RMWs); `snapshot` reads
/// the buckets without stopping writers, so a snapshot taken concurrently
/// with recording is approximate — each sample is either in or out, never
/// torn across fields in a way that breaks `count >= sum(buckets)`
/// invariants by more than in-flight samples.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("max_ns", &self.max_ns.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .expect("BUCKETS-sized vec");
        LatencyHistogram {
            buckets,
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn index(ns: u64) -> usize {
        let ns = ns.max(1);
        let octave = (63 - ns.leading_zeros()) as usize;
        let base = 1u64 << octave;
        let sub = ((ns - base) as u128 * SUB_BUCKETS as u128 / base as u128) as usize;
        (octave * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)).min(BUCKETS - 1)
    }

    pub(crate) fn bucket_value(idx: usize) -> u64 {
        let octave = idx / SUB_BUCKETS;
        let sub = idx % SUB_BUCKETS;
        let base = 1u64 << octave;
        base + (base as u128 * sub as u128 / SUB_BUCKETS as u128) as u64
    }

    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns.max(1), Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one sample as a [`Duration`].
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Captures a point-in-time copy for percentile extraction and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed) as u128,
            min_ns: self.min_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Resets all buckets and aggregates to empty.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// An owned, mergeable copy of a [`LatencyHistogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u128,
    /// Smallest sample (clamped to >= 1; `u64::MAX` when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Per-bucket sample counts (`BUCKETS` entries).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / self.count as u128) as u64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded sample.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Value at percentile `p` (0.0–100.0), in nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return LatencyHistogram::bucket_value(idx);
            }
        }
        self.max_ns
    }

    /// Median.
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(50.0)
    }

    /// 90th percentile.
    pub fn p90_ns(&self) -> u64 {
        self.percentile_ns(90.0)
    }

    /// 99th percentile.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99.0)
    }

    /// 99.9th percentile.
    pub fn p999_ns(&self) -> u64 {
        self.percentile_ns(99.9)
    }

    /// Merges `other` into `self`. Merging is associative and commutative,
    /// with [`HistogramSnapshot::empty`] as identity, so shards recorded on
    /// different threads/nodes can be combined in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-5);
        assert_eq!(g.get(), -5);
        g.record_max(2);
        assert_eq!(g.get(), 2);
        g.record_max(-7);
        assert_eq!(g.get(), 2);
        g.reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_percentiles_close_to_exact() {
        let h = LatencyHistogram::new();
        for ns in 1..=10_000u64 {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        let p50 = s.p50_ns();
        assert!((4700..=5300).contains(&p50), "p50 = {p50}");
        let p99 = s.p99_ns();
        assert!((9500..=10_400).contains(&p99), "p99 = {p99}");
        let mean = s.mean_ns();
        assert!((4900..=5100).contains(&mean), "mean = {mean}");
        assert_eq!(s.min_ns(), 1);
        assert_eq!(s.max_ns(), 10_000);
    }

    #[test]
    fn histogram_reset_empties() {
        let h = LatencyHistogram::new();
        h.record_ns(5);
        h.reset();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.min_ns(), 0);
        assert_eq!(s.p99_ns(), 0);
    }

    #[test]
    fn snapshot_merge_combines_populations() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..100 {
            a.record_ns(100);
            b.record_ns(10_000);
        }
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.count, 200);
        assert!(sa.p50_ns() <= 110);
        assert!(sa.p99_ns() >= 9_000);
        assert_eq!(sa.min_ns(), 100);
        assert_eq!(sa.max_ns(), 10_000);
    }

    #[test]
    fn zero_sample_lands_in_first_bucket() {
        let h = LatencyHistogram::new();
        h.record_ns(0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.buckets[0], 1);
    }

    #[test]
    fn huge_sample_clamps_to_last_bucket() {
        let h = LatencyHistogram::new();
        h.record_ns(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.buckets[BUCKETS - 1], 1);
    }

    #[test]
    fn concurrent_recording_conserves_count() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_ns(t * 1_000 + i % 997 + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 80_000);
    }
}
