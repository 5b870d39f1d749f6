//! Windowed time-series over the cumulative registry.
//!
//! The registry (PR 1) accumulates forever: counters only grow, histograms
//! only fill. That answers "what happened since launch" but not "is the
//! cluster healthy *right now*". This module adds the live view: a
//! [`WindowSampler`] periodically snapshots the registry and subtracts the
//! previous snapshot, producing a [`Window`] of per-metric deltas — counter
//! increments, point-in-time gauge readings, and delta histograms — which it
//! pushes into a fixed-capacity ring.
//!
//! The hot metric-recording path is untouched: samples still land in the
//! same lock-free counters and histograms, and all window arithmetic runs on
//! the sampling caller's thread against owned snapshots. Readers clone `Arc`s out of
//! the ring (the ring lock is held only for the O(1) clone), so a window
//! handed out is immutable and safe to inspect at leisure.
//!
//! Windows are mergeable: counter deltas and delta histograms add, gauges
//! take the most recent reading, durations sum. Merging `k` consecutive
//! windows yields exactly the delta over the combined span (bucket-wise
//! subtraction is exact), which is what the health plane's multi-window
//! burn-rate math relies on.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::metrics::{HistogramSnapshot, LatencyHistogram};
use crate::registry::{MetricSnapshot, Registry, RegistrySnapshot};

/// One metric's contribution to a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowEntry {
    /// Counter increments during the window.
    Counter(u64),
    /// Gauge reading at window close (gauges are levels, not flows).
    Gauge(i64),
    /// Histogram of samples recorded during the window.
    Histogram(HistogramSnapshot),
}

/// An immutable delta over one sampling interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Monotone sequence number (1 for the first window sampled).
    pub seq: u64,
    /// Wall-clock span the deltas cover.
    pub duration: Duration,
    /// Per-metric deltas keyed `component.metric`, sorted by key.
    pub entries: BTreeMap<String, WindowEntry>,
}

impl Window {
    /// An empty window (the merge identity).
    pub fn empty() -> Self {
        Window {
            seq: 0,
            duration: Duration::ZERO,
            entries: BTreeMap::new(),
        }
    }

    /// Counter delta under `key`, if present and a counter.
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.entries.get(key) {
            Some(WindowEntry::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge reading under `key`, if present and a gauge.
    pub fn gauge(&self, key: &str) -> Option<i64> {
        match self.entries.get(key) {
            Some(WindowEntry::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Delta histogram under `key`, if present and a histogram.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(key) {
            Some(WindowEntry::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Counter delta under `key` as a per-second rate (`None` when the key
    /// is absent or not a counter; a zero-length window reports the raw
    /// delta rather than dividing by zero).
    pub fn rate(&self, key: &str) -> Option<f64> {
        let delta = self.counter(key)?;
        let secs = self.duration.as_secs_f64();
        if secs > 0.0 {
            Some(delta as f64 / secs)
        } else {
            Some(delta as f64)
        }
    }

    /// Percentile of the delta histogram under `key` (`None` when absent).
    pub fn percentile_ns(&self, key: &str, p: f64) -> Option<u64> {
        self.histogram(key).map(|h| h.percentile_ns(p))
    }

    /// Merges `other` into `self`: counters and histograms add, gauges take
    /// the later window's reading, durations sum, `seq` takes the maximum.
    /// Associative and commutative over windows from the same sampler, with
    /// [`Window::empty`] as identity.
    pub fn merge(&mut self, other: &Window) {
        let other_is_later = other.seq >= self.seq;
        for (key, entry) in &other.entries {
            match self.entries.get_mut(key) {
                None => {
                    self.entries.insert(key.clone(), entry.clone());
                }
                Some(mine) => match (mine, entry) {
                    (WindowEntry::Counter(a), WindowEntry::Counter(b)) => *a += b,
                    (WindowEntry::Histogram(a), WindowEntry::Histogram(b)) => a.merge(b),
                    (WindowEntry::Gauge(a), WindowEntry::Gauge(b)) => {
                        if other_is_later {
                            *a = *b;
                        }
                    }
                    // A metric changed kind between windows (registry was
                    // rebuilt): keep the later reading wholesale.
                    (mine, entry) => {
                        if other_is_later {
                            *mine = entry.clone();
                        }
                    }
                },
            }
        }
        self.duration += other.duration;
        self.seq = self.seq.max(other.seq);
    }
}

/// Counter delta, aware of registry resets: a cumulative value that moved
/// backwards means the metric was reset mid-stream, so the current value
/// *is* the delta since then.
fn delta_counter(cur: u64, prev: u64) -> u64 {
    if cur >= prev {
        cur - prev
    } else {
        cur
    }
}

/// Delta between two cumulative histogram snapshots of the same histogram.
/// Bucket-wise subtraction is exact; `min`/`max` are not delta-able, so the
/// window's bounds are recovered from the populated delta buckets.
fn delta_histogram(cur: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistogramSnapshot {
    if cur.count < prev.count {
        // Reset between samples: the current snapshot is the delta.
        return cur.clone();
    }
    let mut out = HistogramSnapshot::empty();
    out.count = cur.count - prev.count;
    out.sum_ns = cur.sum_ns.saturating_sub(prev.sum_ns);
    for (idx, slot) in out.buckets.iter_mut().enumerate() {
        let p = prev.buckets.get(idx).copied().unwrap_or(0);
        let c = cur.buckets.get(idx).copied().unwrap_or(0);
        *slot = c.saturating_sub(p);
    }
    if out.count > 0 {
        if let Some(first) = out.buckets.iter().position(|&c| c > 0) {
            out.min_ns = LatencyHistogram::bucket_value(first);
        }
        if let Some(last) = out.buckets.iter().rposition(|&c| c > 0) {
            // Upper bound of the last populated bucket, but never beyond
            // the cumulative max (which bounds every window's samples).
            out.max_ns = LatencyHistogram::bucket_value(last + 1).min(cur.max_ns);
        }
    }
    out
}

/// Delta of a whole registry snapshot against the previous one.
fn delta_snapshot(
    cur: &RegistrySnapshot,
    prev: &RegistrySnapshot,
) -> BTreeMap<String, WindowEntry> {
    let mut entries = BTreeMap::new();
    for (key, snap) in &cur.entries {
        let entry = match (snap, prev.entries.get(key)) {
            (MetricSnapshot::Counter(c), Some(MetricSnapshot::Counter(p))) => {
                WindowEntry::Counter(delta_counter(*c, *p))
            }
            (MetricSnapshot::Counter(c), _) => WindowEntry::Counter(*c),
            (MetricSnapshot::Gauge(g), _) => WindowEntry::Gauge(*g),
            (MetricSnapshot::Histogram(h), Some(MetricSnapshot::Histogram(p))) => {
                WindowEntry::Histogram(delta_histogram(h, p))
            }
            (MetricSnapshot::Histogram(h), _) => WindowEntry::Histogram(h.clone()),
        };
        entries.insert(key.clone(), entry);
    }
    entries
}

/// A fixed-capacity ring of completed windows, newest last.
#[derive(Debug)]
pub struct WindowRing {
    cap: usize,
    ring: RwLock<VecDeque<Arc<Window>>>,
}

impl WindowRing {
    /// An empty ring retaining up to `capacity` windows.
    pub fn new(capacity: usize) -> Self {
        WindowRing {
            cap: capacity.max(1),
            ring: RwLock::new(VecDeque::new()),
        }
    }

    /// Maximum windows retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Windows currently retained.
    pub fn len(&self) -> usize {
        self.ring.read().expect("window ring lock").len()
    }

    /// Whether no window has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, w: Arc<Window>) {
        let mut ring = self.ring.write().expect("window ring lock");
        if ring.len() >= self.cap {
            ring.pop_front();
        }
        ring.push_back(w);
    }

    /// The most recent window, if any.
    pub fn latest(&self) -> Option<Arc<Window>> {
        self.ring.read().expect("window ring lock").back().cloned()
    }

    /// All retained windows, oldest first.
    pub fn windows(&self) -> Vec<Arc<Window>> {
        self.ring
            .read()
            .expect("window ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// The newest `n` windows merged into one (covering their combined
    /// span), or `None` when the ring is empty.
    pub fn merged(&self, n: usize) -> Option<Window> {
        let ring = self.ring.read().expect("window ring lock");
        if ring.is_empty() || n == 0 {
            return None;
        }
        let skip = ring.len().saturating_sub(n);
        let mut out = Window::empty();
        for w in ring.iter().skip(skip) {
            out.merge(w);
        }
        Some(out)
    }
}

/// Samples a [`Registry`] into a [`WindowRing`].
///
/// Each [`WindowSampler::sample`] call closes one window: it snapshots the
/// registry, subtracts the snapshot taken at the previous call, and pushes
/// the delta into the ring. The health plane calls it from its tick, so
/// windows are sampled in lockstep with evaluation.
#[derive(Debug)]
pub struct WindowSampler {
    registry: Arc<Registry>,
    ring: WindowRing,
    state: Mutex<SamplerState>,
}

#[derive(Debug)]
struct SamplerState {
    prev: RegistrySnapshot,
    opened: Instant,
    seq: u64,
}

impl WindowSampler {
    /// A sampler over `registry` retaining `capacity` windows. The baseline
    /// snapshot is taken now: the first `sample` call covers activity from
    /// this moment.
    pub fn new(registry: Arc<Registry>, capacity: usize) -> Arc<WindowSampler> {
        let prev = registry.snapshot();
        Arc::new(WindowSampler {
            registry,
            ring: WindowRing::new(capacity),
            state: Mutex::new(SamplerState {
                prev,
                opened: Instant::now(),
                seq: 0,
            }),
        })
    }

    /// The ring of completed windows.
    pub fn ring(&self) -> &WindowRing {
        &self.ring
    }

    /// Closes the current window: snapshots the registry, pushes the delta
    /// since the previous call into the ring, and returns it.
    pub fn sample(&self) -> Arc<Window> {
        let cur = self.registry.snapshot();
        let mut state = self.state.lock().expect("sampler lock");
        let now = Instant::now();
        state.seq += 1;
        let window = Arc::new(Window {
            seq: state.seq,
            duration: now.duration_since(state.opened),
            entries: delta_snapshot(&cur, &state.prev),
        });
        state.prev = cur;
        state.opened = now;
        drop(state);
        self.ring.push(Arc::clone(&window));
        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_windows_carry_deltas_not_totals() {
        let r = Arc::new(Registry::new());
        let c = r.counter("client", "reads");
        let sampler = WindowSampler::new(Arc::clone(&r), 8);
        c.add(10);
        let w1 = sampler.sample();
        c.add(5);
        let w2 = sampler.sample();
        assert_eq!(w1.counter("client.reads"), Some(10));
        assert_eq!(w2.counter("client.reads"), Some(5));
        assert_eq!(w2.seq, 2);
    }

    #[test]
    fn gauge_windows_are_point_in_time() {
        let r = Arc::new(Registry::new());
        let g = r.gauge("proxy", "backlog");
        let sampler = WindowSampler::new(Arc::clone(&r), 8);
        g.set(40);
        let w1 = sampler.sample();
        g.set(3);
        let w2 = sampler.sample();
        assert_eq!(w1.gauge("proxy.backlog"), Some(40));
        assert_eq!(w2.gauge("proxy.backlog"), Some(3));
        // Merging keeps the later reading.
        let mut m = (*w1).clone();
        m.merge(&w2);
        assert_eq!(m.gauge("proxy.backlog"), Some(3));
    }

    #[test]
    fn histogram_windows_isolate_their_samples() {
        let r = Arc::new(Registry::new());
        let h = r.histogram("client", "read_ns");
        let sampler = WindowSampler::new(Arc::clone(&r), 8);
        for _ in 0..100 {
            h.record_ns(100);
        }
        let w1 = sampler.sample();
        for _ in 0..100 {
            h.record_ns(1_000_000);
        }
        let w2 = sampler.sample();
        let h1 = w1.histogram("client.read_ns").unwrap();
        let h2 = w2.histogram("client.read_ns").unwrap();
        assert_eq!(h1.count, 100);
        assert_eq!(h2.count, 100);
        // The second window sees only the slow samples.
        assert!(h2.p50_ns() >= 900_000, "p50 = {}", h2.p50_ns());
        assert!(h2.min_ns() >= 900_000, "min = {}", h2.min_ns());
        assert!(h1.max_ns() <= 150, "max = {}", h1.max_ns());
    }

    #[test]
    fn counter_reset_between_samples_yields_fresh_delta() {
        let r = Arc::new(Registry::new());
        let c = r.counter("client", "reads");
        let h = r.histogram("client", "read_ns");
        let sampler = WindowSampler::new(Arc::clone(&r), 8);
        c.add(100);
        for _ in 0..3 {
            h.record_ns(50);
        }
        sampler.sample();
        r.reset();
        c.add(7);
        h.record_ns(60);
        let w = sampler.sample();
        // The cumulative values moved backwards, so the current values ARE
        // the window (reset detection; a reset that re-records at least as
        // many samples as before is indistinguishable from normal growth).
        assert_eq!(w.counter("client.reads"), Some(7));
        assert_eq!(w.histogram("client.read_ns").unwrap().count, 1);
    }

    #[test]
    fn ring_evicts_oldest() {
        let r = Arc::new(Registry::new());
        let c = r.counter("c", "ops");
        let sampler = WindowSampler::new(Arc::clone(&r), 3);
        for _ in 0..5 {
            c.inc();
            sampler.sample();
        }
        let windows = sampler.ring().windows();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].seq, 3);
        assert_eq!(sampler.ring().latest().unwrap().seq, 5);
        assert_eq!(sampler.ring().capacity(), 3);
    }

    #[test]
    fn merged_windows_cover_combined_span() {
        let r = Arc::new(Registry::new());
        let c = r.counter("c", "ops");
        let sampler = WindowSampler::new(Arc::clone(&r), 8);
        for _ in 0..4 {
            c.add(10);
            sampler.sample();
        }
        let merged = sampler.ring().merged(2).unwrap();
        assert_eq!(merged.counter("c.ops"), Some(20));
        let all = sampler.ring().merged(usize::MAX).unwrap();
        assert_eq!(all.counter("c.ops"), Some(40));
        assert!(sampler.ring().merged(0).is_none());
    }

    /// The satellite-mandated conservation test: windows sampled while 8
    /// threads hammer the registry must sum (merge) to exactly the
    /// cumulative totals — no sample double-counted, none lost.
    #[test]
    fn windows_sum_to_cumulative_under_8_thread_load() {
        let r = Arc::new(Registry::new());
        let sampler = WindowSampler::new(Arc::clone(&r), 1024);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("client", "reads");
                    let h = r.histogram("client", "read_ns");
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record_ns(t * 1_000 + i % 997 + 1);
                    }
                })
            })
            .collect();
        // Sample concurrently with the writers, then once more after they
        // finish so the final window picks up the stragglers.
        for _ in 0..50 {
            sampler.sample();
            std::thread::yield_now();
        }
        for t in threads {
            t.join().unwrap();
        }
        sampler.sample();

        let mut total = Window::empty();
        for w in sampler.ring().windows() {
            total.merge(&w);
        }
        let cumulative = r.snapshot();
        assert_eq!(total.counter("client.reads"), Some(80_000));
        let merged_hist = total.histogram("client.read_ns").unwrap();
        let cum_hist = cumulative.histogram("client.read_ns").unwrap();
        assert_eq!(merged_hist.count, cum_hist.count);
        assert_eq!(merged_hist.sum_ns, cum_hist.sum_ns);
        assert_eq!(merged_hist.buckets, cum_hist.buckets);
        assert_eq!(merged_hist.p99_ns(), cum_hist.p99_ns());
    }
}
