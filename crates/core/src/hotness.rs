//! Hot-data identification from RDMA access semantics.
//!
//! A memory server cannot observe one-sided READ/WRITE verbs — the NIC
//! bypasses its CPU entirely. Gengar therefore recovers access information
//! from the verbs' *semantics at the issuing side*: clients batch the
//! (address, count, read/write) triples their verbs carried and WRITE them,
//! one-sided too, into a per-client report ring in server DRAM
//! (`ReportArea`). The server's epoch folds the rings into a count-min
//! sketch with per-epoch exponential decay, promotes objects whose
//! estimated frequency crosses the configured threshold, and leaves each
//! client the current cache locations of what it reported in a remap
//! mailbox the client READs back. No report costs the server an RPC.

use std::collections::HashMap;

use gengar_telemetry::{CounterHandle, TelemetryConfig};

use crate::cache::CachePolicy;
use crate::layout::checksum;

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

/// Access entries one report slot carries.
pub const MAX_REPORT: usize = 128;

/// Slots in one client's report ring. The epoch is the ring's only reader,
/// so one epoch of a client's reports must fit: at the benchmark's rates
/// (10 ms epochs, `report_every` 128) a client fills ≈ 13 slots per server
/// per epoch, and 32 leaves room for an epoch that runs late. A client
/// that finds the ring full keeps its accesses pending: overflow costs
/// staleness, never a wait.
pub const REPORT_SLOTS: u64 = 32;

/// Remaps one mailbox carries: the distinct addresses a client reports to
/// one server in an epoch at the benchmark's rates (≈ 13 slots of at most
/// 64 distinct addresses each), hottest first.
const MAILBOX_ENTRIES: usize = 1024;

/// Header of a report slot and of a mailbox: `[checksum u64][seq u64][n
/// u64]`. The checksum covers every byte after it, so a torn or
/// never-written slot does not decode.
const SEALED_HEADER: usize = 24;

/// One encoded access entry: `[addr u64][count u32][wrote u8]`.
const ENTRY_BYTES: usize = 13;

/// One encoded remap: `[addr u64][cache_addr u64]`.
const REMAP_BYTES: usize = 16;

/// Bytes of one report slot.
pub(crate) const REPORT_SLOT_BYTES: u64 = (SEALED_HEADER + MAX_REPORT * ENTRY_BYTES) as u64;

/// Bytes of one mailbox.
const MAILBOX_BYTES: u64 = (SEALED_HEADER + MAILBOX_ENTRIES * REMAP_BYTES) as u64;

/// Where one client's report state sits in a server's report region:
/// `[consumed cursor u64][mailbox][ring of REPORT_SLOTS slots]`. The client
/// WRITEs report seq `s` into slot `(s - 1) % REPORT_SLOTS`; the epoch
/// folds slots in seq order, then stores the last folded seq as the
/// consumed cursor and writes the mailbox, sealed with that same seq. The
/// client READs the cursor with the mailbox header right behind it, to
/// learn how much of the ring is free and whether a new mailbox is there.
/// Client and server both take their offsets from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReportArea(u64);

impl ReportArea {
    /// Bytes of one client's area.
    pub(crate) const BYTES: u64 = 8 + MAILBOX_BYTES + REPORT_SLOTS * REPORT_SLOT_BYTES;

    /// The area of client `cid`.
    pub(crate) fn of(cid: u32) -> Self {
        ReportArea(u64::from(cid) * Self::BYTES)
    }

    /// Offset of the consumed cursor, which starts the area.
    pub(crate) fn cursor(self) -> u64 {
        self.0
    }

    /// Offset of the mailbox, right behind the cursor.
    pub(crate) fn mailbox(self) -> u64 {
        self.0 + 8
    }

    /// Offset of the slot report seq `seq` (≥ 1) is written to.
    pub(crate) fn slot(self, seq: u64) -> u64 {
        self.mailbox() + MAILBOX_BYTES + (seq - 1) % REPORT_SLOTS * REPORT_SLOT_BYTES
    }
}

/// `[checksum][seq][n]` then `body`, sealed.
fn seal(seq: u64, n: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = vec![0u8; 8];
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    body(&mut buf);
    let sum = checksum(&buf[8..]);
    buf[..8].copy_from_slice(&sum.to_le_bytes());
    buf
}

/// The seq and the `n` records of `width` bytes a sealed buffer carries;
/// `None` if it is shorter than its header says, claims more than `max`
/// records, or fails its checksum.
fn open(buf: &[u8], max: usize, width: usize) -> Option<(u64, &[u8])> {
    let word = |i: usize| u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    if buf.len() < SEALED_HEADER {
        return None;
    }
    let n = usize::try_from(word(2)).ok().filter(|&n| n <= max)?;
    let end = SEALED_HEADER + n * width;
    (buf.len() >= end && checksum(&buf[8..end]) == word(0))
        .then(|| (word(1), &buf[SEALED_HEADER..end]))
}

/// Encodes report slot `seq` carrying `entries` (at most [`MAX_REPORT`];
/// the rest are left out).
pub fn encode_report(seq: u64, entries: &[AccessEntry]) -> Vec<u8> {
    let entries = &entries[..entries.len().min(MAX_REPORT)];
    seal(seq, entries.len(), |buf| {
        for e in entries {
            buf.extend_from_slice(&e.addr.to_le_bytes());
            buf.extend_from_slice(&e.count.to_le_bytes());
            buf.push(u8::from(e.wrote));
        }
    })
}

/// Decodes a report slot into its seq and entries. `None` for a slot that
/// is short, torn, or was never written.
pub fn decode_report(buf: &[u8]) -> Option<(u64, Vec<AccessEntry>)> {
    let (seq, body) = open(buf, MAX_REPORT, ENTRY_BYTES)?;
    let entries = body.chunks_exact(ENTRY_BYTES).map(|e| AccessEntry {
        addr: u64::from_le_bytes(e[..8].try_into().expect("8 bytes")),
        count: u32::from_le_bytes(e[8..12].try_into().expect("4 bytes")),
        wrote: e[12] != 0,
    });
    Some((seq, entries.collect()))
}

/// Encodes a mailbox sealed with `seq`: `(addr, cache_addr)` pairs, the
/// first `MAILBOX_ENTRIES` of them; a zero `cache_addr` means "not cached".
pub(crate) fn encode_remaps(seq: u64, remaps: &[(u64, u64)]) -> Vec<u8> {
    let remaps = &remaps[..remaps.len().min(MAILBOX_ENTRIES)];
    seal(seq, remaps.len(), |buf| {
        for &(addr, cache_addr) in remaps {
            buf.extend_from_slice(&addr.to_le_bytes());
            buf.extend_from_slice(&cache_addr.to_le_bytes());
        }
    })
}

/// Bytes of a mailbox's header, which a client READs with the cursor.
pub(crate) const MAILBOX_HEADER: u64 = SEALED_HEADER as u64;

/// The seq and encoded length a mailbox header announces, the length
/// capped at [`MAILBOX_BYTES`]. Unchecked: the checksum covers the remaps
/// too, so [`decode_remaps`] on the whole mailbox is the check.
pub(crate) fn mailbox_announced(header: &[u8]) -> (u64, u64) {
    let word = |i: usize| u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    let n = word(2).min(MAILBOX_ENTRIES as u64);
    (word(1), MAILBOX_HEADER + n * REMAP_BYTES as u64)
}

/// Decodes a mailbox into its seq and remaps; `None` if torn.
pub(crate) fn decode_remaps(buf: &[u8]) -> Option<(u64, Vec<(u64, u64)>)> {
    let (seq, body) = open(buf, MAILBOX_ENTRIES, REMAP_BYTES)?;
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let remaps = body
        .chunks_exact(REMAP_BYTES)
        .map(|r| (word(&r[..8]), word(&r[8..])));
    Some((seq, remaps.collect()))
}

/// The server-side hotness monitor.
///
/// `record` is called as the epoch folds each client's report slots;
/// `fold_epoch` is then called and returns the current promotion
/// candidates (estimated score per address seen since the previous fold).
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

    /// Folds a batch of client-reported accesses (the epoch passes one
    /// report slot at a time).
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
    fn report_areas_tile_the_region() {
        let area = ReportArea::of(1);
        assert_eq!(area.cursor(), ReportArea::BYTES);
        assert_eq!(area.cursor() % 8, 0, "the cursor is an aligned word");
        assert_eq!(
            area.slot(3),
            area.slot(3 + REPORT_SLOTS),
            "seqs wrap the ring"
        );
        let last = area.slot(REPORT_SLOTS) + REPORT_SLOT_BYTES;
        assert_eq!(last, ReportArea::of(2).cursor());
        let full = vec![
            AccessEntry {
                addr: u64::MAX,
                count: u32::MAX,
                wrote: true,
            };
            MAX_REPORT + 1
        ];
        assert_eq!(
            encode_report(u64::MAX, &full).len() as u64,
            REPORT_SLOT_BYTES
        );
    }

    #[test]
    fn mailbox_roundtrips_and_rejects_torn_or_unwritten() {
        let remaps = vec![(1, 2), (3, 0)];
        let mut buf = encode_remaps(9, &remaps);
        assert_eq!(mailbox_announced(&buf[..24]), (9, buf.len() as u64));
        assert_eq!(decode_remaps(&buf), Some((9, remaps)));
        buf[30] ^= 1;
        assert_eq!(decode_remaps(&buf), None);
        assert_eq!(decode_remaps(&[0u8; MAILBOX_BYTES as usize]), None);
        let full = encode_remaps(1, &vec![(7, 7); MAILBOX_ENTRIES + 5]);
        assert_eq!(full.len() as u64, MAILBOX_BYTES);
        assert_eq!(decode_remaps(&full).unwrap().1.len(), MAILBOX_ENTRIES);
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
