//! Hot-data identification from RDMA access semantics.
//!
//! A memory server cannot observe one-sided READ/WRITE verbs — the NIC
//! bypasses its CPU entirely. Gengar therefore recovers access information
//! from the verbs' *semantics at the issuing side*: clients batch the
//! (address, count, read/write) triples their verbs carried and piggyback
//! them on RPC traffic. The server folds these reports into a count-min
//! sketch with per-epoch exponential decay and promotes objects whose
//! estimated frequency crosses the configured threshold.

use std::collections::HashMap;

use gengar_telemetry::{CounterHandle, TelemetryConfig};

use crate::cache::CachePolicy;

/// Count-min sketch width: over-estimates stay within e/4 096 ≈ 0.07 % of
/// the sketch's total (decayed) count, for 64 KiB of counters per server.
const SKETCH_WIDTH: usize = 4096;

/// Count-min sketch depth: four rows make that bound fail for under 2 % of
/// addresses (e⁻⁴).
const SKETCH_DEPTH: usize = 4;

/// Distinct addresses one epoch fold tracks: bounds the fold's sort at
/// 64 Ki entries per epoch. An address first reported past the bound
/// still counts in the sketch and can become a candidate in a later
/// epoch.
const MAX_CANDIDATES: usize = 1 << 16;

/// A count-min sketch over `u64` keys with saturating `u32` counters.
#[derive(Debug)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    counters: Vec<u32>,
    seeds: Vec<u64>,
}

fn mix(mut x: u64, seed: u64) -> u64 {
    // splitmix64 finalizer, seeded.
    x = x.wrapping_add(seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl CountMinSketch {
    /// Creates a sketch with `width` counters in each of `depth` rows.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0, "sketch dimensions must be nonzero");
        CountMinSketch {
            width,
            depth,
            counters: vec![0; width * depth],
            seeds: (0..depth as u64).map(|d| mix(d, 0x5EED)).collect(),
        }
    }

    fn idx(&self, row: usize, key: u64) -> usize {
        row * self.width + (mix(key, self.seeds[row]) as usize % self.width)
    }

    /// Adds `count` occurrences of `key`.
    pub fn add(&mut self, key: u64, count: u32) {
        for row in 0..self.depth {
            let i = self.idx(row, key);
            self.counters[i] = self.counters[i].saturating_add(count);
        }
    }

    /// Estimates the count of `key`. Never under-estimates.
    pub fn estimate(&self, key: u64) -> u32 {
        (0..self.depth)
            .map(|row| self.counters[self.idx(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Halves every counter (exponential decay between epochs).
    pub fn decay(&mut self) {
        for c in &mut self.counters {
            *c >>= 1;
        }
    }

    /// Zeroes the sketch.
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }
}

/// One access-report entry from a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEntry {
    /// Raw global address of the accessed object's payload base.
    pub addr: u64,
    /// Number of accesses in the batch.
    pub count: u32,
    /// Whether any of them were writes.
    pub wrote: bool,
}

/// The server-side hotness monitor.
///
/// `record` is called from RPC handlers as reports arrive; `fold_epoch` is
/// called at each epoch and returns the current promotion candidates
/// (estimated score per address seen since the previous fold).
#[derive(Debug)]
pub struct HotnessMonitor {
    sketch: CountMinSketch,
    /// Addresses seen since the last fold, at most [`MAX_CANDIDATES`].
    seen: HashMap<u64, ()>,
    /// Sample 1-in-N reported entries into the sketch (adds are weighted by
    /// N so scores stay comparable across sampling rates).
    sample_every: u32,
    sample_tick: u64,
    epoch: u64,
    reports: CounterHandle,
    reported_accesses: CounterHandle,
    epoch_folds: CounterHandle,
}

impl HotnessMonitor {
    /// Creates a monitor sampling at `policy`'s rate whose `hotness.*`
    /// metrics follow `telemetry`.
    pub fn with_policy(policy: &CachePolicy, telemetry: TelemetryConfig) -> Self {
        let tel = telemetry.handle();
        HotnessMonitor {
            sketch: CountMinSketch::new(SKETCH_WIDTH, SKETCH_DEPTH),
            seen: HashMap::new(),
            sample_every: policy.sample_every.max(1),
            sample_tick: 0,
            epoch: 0,
            reports: tel.counter("hotness", "reports"),
            reported_accesses: tel.counter("hotness", "reported_accesses"),
            epoch_folds: tel.counter("hotness", "epoch_folds"),
        }
    }

    /// Folds a batch of client-reported accesses.
    pub fn record(&mut self, entries: &[AccessEntry]) {
        self.reports.inc();
        for e in entries {
            self.reported_accesses.add(u64::from(e.count));
            self.sample_tick += 1;
            if self
                .sample_tick
                .is_multiple_of(u64::from(self.sample_every))
            {
                self.sketch
                    .add(e.addr, e.count.saturating_mul(self.sample_every));
            }
            if self.seen.len() < MAX_CANDIDATES || self.seen.contains_key(&e.addr) {
                self.seen.insert(e.addr, ());
            }
        }
    }

    /// Current estimated score of an address.
    pub fn score(&self, addr: u64) -> u32 {
        self.sketch.estimate(addr)
    }

    /// Ends the epoch: returns `(addr, score)` for every address seen since
    /// the last fold, then decays the sketch.
    pub fn fold_epoch(&mut self) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = self
            .seen
            .keys()
            .map(|&a| (a, self.sketch.estimate(a)))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.seen.clear();
        self.sketch.decay();
        self.epoch += 1;
        self.epoch_folds.inc();
        out
    }

    /// Number of completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drops all state (e.g. after recovery).
    pub fn reset(&mut self) {
        self.sketch.clear();
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HotnessMonitor {
        HotnessMonitor::with_policy(&CachePolicy::default(), TelemetryConfig::default())
    }

    #[test]
    fn sketch_never_underestimates() {
        let mut s = CountMinSketch::new(64, 4);
        for k in 0..100u64 {
            s.add(k, (k % 7) as u32 + 1);
        }
        for k in 0..100u64 {
            assert!(s.estimate(k) > (k % 7) as u32, "under-estimate for {k}");
        }
    }

    #[test]
    fn sketch_estimates_heavy_hitters_well() {
        let mut s = CountMinSketch::new(1024, 4);
        s.add(42, 1000);
        for k in 100..200u64 {
            s.add(k, 1);
        }
        let est = s.estimate(42);
        assert!((1000..=1100).contains(&est), "estimate {est}");
    }

    #[test]
    fn decay_halves() {
        let mut s = CountMinSketch::new(16, 2);
        s.add(1, 100);
        s.decay();
        assert!(s.estimate(1) >= 50 && s.estimate(1) <= 51);
        s.clear();
        assert_eq!(s.estimate(1), 0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_width_rejected() {
        CountMinSketch::new(0, 2);
    }

    #[test]
    fn monitor_surfaces_hot_addresses_first() {
        let mut m = monitor();
        m.record(&[
            AccessEntry {
                addr: 10,
                count: 50,
                wrote: false,
            },
            AccessEntry {
                addr: 20,
                count: 2,
                wrote: true,
            },
            AccessEntry {
                addr: 30,
                count: 9,
                wrote: false,
            },
        ]);
        let folded = m.fold_epoch();
        assert_eq!(folded[0].0, 10);
        assert!(folded[0].1 >= 50);
        assert_eq!(folded.len(), 3);
        // Next epoch starts empty; the sketch decays but retains memory.
        assert!(m.fold_epoch().is_empty());
        assert!(m.score(10) >= 12, "decayed twice from >=50");
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn monitor_bounds_candidate_set() {
        let mut m = monitor();
        let entries: Vec<AccessEntry> = (0..MAX_CANDIDATES as u64 + 100)
            .map(|i| AccessEntry {
                addr: i,
                count: 1,
                wrote: false,
            })
            .collect();
        m.record(&entries);
        assert_eq!(m.fold_epoch().len(), MAX_CANDIDATES);
    }

    #[test]
    fn sampled_monitor_weights_adds_to_stay_comparable() {
        let mut exact = monitor();
        let mut sampled = HotnessMonitor::with_policy(
            &CachePolicy {
                sample_every: 4,
                ..CachePolicy::default()
            },
            TelemetryConfig::default(),
        );
        let entries: Vec<AccessEntry> = (0..64)
            .map(|_| AccessEntry {
                addr: 7,
                count: 1,
                wrote: false,
            })
            .collect();
        exact.record(&entries);
        sampled.record(&entries);
        // 64 exact adds of 1 vs 16 sampled adds of 4: same estimate.
        assert_eq!(exact.score(7), 64);
        assert_eq!(sampled.score(7), 64);
        // The sampled monitor still surfaces the address as a candidate.
        assert_eq!(sampled.fold_epoch()[0].0, 7);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = monitor();
        m.record(&[AccessEntry {
            addr: 5,
            count: 10,
            wrote: false,
        }]);
        m.reset();
        assert_eq!(m.score(5), 0);
        assert!(m.fold_epoch().is_empty());
    }
}
