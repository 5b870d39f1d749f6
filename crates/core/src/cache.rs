//! Server-side DRAM cache of hot objects.
//!
//! Promoted objects get a *slot* in the server's DRAM cache region. A slot
//! holds a [`crate::layout::SlotHeader`] (tag = the object's global address,
//! a seqlock version, a diagnostic checksum, the length), the payload copy,
//! and a trailing tail version. Clients read slots with a single one-sided
//! READ and validate tag + even head version + head==tail (FaRM-style) — a
//! stale, torn or mid-update frame fails validation and the client falls
//! back to NVM, so remap staleness is always safe.
//!
//! # Policy
//!
//! Everything tunable about the cache plane lives in [`CachePolicy`]:
//!
//! * **Admission** ([`AdmissionMode`]) — `TinyLfu` keeps a doorkeeper of
//!   addresses that have already knocked once, so a one-hit-wonder cannot
//!   evict a proven-hot frame; `ScoreOnly` is the legacy compare-scores
//!   behaviour.
//! * **Ghost list** — recently evicted addresses (with the segment they were
//!   evicted from). A ghost hit bypasses the doorkeeper and adaptively
//!   resizes the protected vs. probationary split of the cache, ARC-style.
//! * **Demotion** — evicted-but-warm frames are copied into a server-local
//!   NVM demote area so re-promotion is one local NVM→DRAM copy instead of a
//!   full client miss. Demotion runs in the epoch only, never on the
//!   foreground proxy drain.

use std::collections::{HashMap, HashSet, VecDeque};

use gengar_hybridmem::MemRegion;
use gengar_telemetry::{CounterHandle, TelemetryConfig};
use serde::{Deserialize, Serialize};

use crate::addr::{GlobalAddr, MemClass};
use crate::alloc::FrameAllocator;
use crate::error::GengarError;
use crate::layout::{checksum, decode_slot_header, encode_slot_header, SLOT_HEADER, SLOT_TAIL};

/// How the cache decides whether a candidate may evict a resident frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AdmissionMode {
    /// Legacy behaviour: admit whenever the candidate's score is at least
    /// the victim's. Ties admit, which churns under a flat-score workload.
    ScoreOnly,
    /// TinyLFU-style: a first-time candidate is remembered in a doorkeeper
    /// and rejected; it may evict only on a later attempt, and only with a
    /// score *strictly* above the victim's. Ghost/demote re-entries bypass
    /// the filter entirely (they are proven-warm).
    #[default]
    TinyLfu,
}

/// Everything tunable about one server's cache plane, built builder-style:
///
/// ```
/// use gengar_core::{AdmissionMode, CachePolicy};
/// let policy = CachePolicy::new()
///     .capacity(16 << 20)
///     .admission(AdmissionMode::TinyLfu)
///     .ghost_entries(2048)
///     .demotion(true)
///     .hot_threshold(2);
/// assert!(policy.enabled);
/// ```
///
/// The policy is threaded from [`crate::ServerConfig`] through the server
/// into [`CacheManager`] and the hotness monitor — there are no loose cache
/// knobs anywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct CachePolicy {
    /// Master switch: when `false` the server promotes nothing and mounts
    /// advertise a disabled cache.
    pub enabled: bool,
    /// DRAM cache capacity in bytes (also sizes the NVM demote area).
    pub capacity: u64,
    /// Admission filter.
    pub admission: AdmissionMode,
    /// Ghost-list length in addresses; `0` disables the ghost list (and the
    /// adaptive protected/probation sizing that rides on it).
    pub ghost_entries: usize,
    /// Copy evicted-but-warm frames to a server-local NVM demote area.
    pub demotion: bool,
    /// Epoch-fold score at which an object becomes promotable.
    pub hot_threshold: u32,
    /// Objects larger than this are never cached.
    pub cacheable_max: u64,
    /// Sample 1-in-N reported accesses into the frequency sketch (1 =
    /// exact). Sampled adds are weighted by N so scores stay comparable.
    pub sample_every: u32,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            enabled: true,
            capacity: 32 << 20,
            admission: AdmissionMode::TinyLfu,
            ghost_entries: 1024,
            demotion: false,
            hot_threshold: 4,
            cacheable_max: 64 << 10,
            sample_every: 1,
        }
    }
}

impl CachePolicy {
    /// Default policy: 32 MiB, TinyLFU admission, 1024-entry ghost list,
    /// demotion off.
    pub fn new() -> Self {
        Self::default()
    }

    /// A policy with the cache switched off entirely.
    pub fn disabled() -> Self {
        CachePolicy {
            enabled: false,
            ..Self::default()
        }
    }

    /// Sets the DRAM capacity in bytes.
    #[must_use]
    pub fn capacity(mut self, bytes: u64) -> Self {
        self.capacity = bytes;
        self
    }

    /// Sets the admission filter.
    #[must_use]
    pub fn admission(mut self, mode: AdmissionMode) -> Self {
        self.admission = mode;
        self
    }

    /// Sets the ghost-list length (0 disables it).
    #[must_use]
    pub fn ghost_entries(mut self, entries: usize) -> Self {
        self.ghost_entries = entries;
        self
    }

    /// Enables or disables NVM demotion of evicted-warm frames.
    #[must_use]
    pub fn demotion(mut self, on: bool) -> Self {
        self.demotion = on;
        self
    }

    /// Sets the promotion hotness threshold.
    #[must_use]
    pub fn hot_threshold(mut self, score: u32) -> Self {
        self.hot_threshold = score;
        self
    }

    /// Sets the largest cacheable object size.
    #[must_use]
    pub fn cacheable_max(mut self, bytes: u64) -> Self {
        self.cacheable_max = bytes;
        self
    }
}

/// One cached object.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    slot_off: u64,
    payload_len: u64,
    score: u32,
    /// `true` once the frame has proven itself (remap hit or warm re-entry);
    /// protected frames are evicted only when probation is empty.
    protected: bool,
    /// Logical-clock stamp of the last remap hit (LRU within a segment).
    stamp: u64,
}

/// One frame parked in the NVM demote area.
#[derive(Debug, Clone, Copy)]
struct DemoteEntry {
    off: u64,
    len: u64,
    score: u32,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Objects promoted into the cache (includes re-promotions).
    pub promotions: u64,
    /// Objects evicted for capacity.
    pub evictions: u64,
    /// Objects invalidated by writes/frees.
    pub invalidations: u64,
    /// In-place updates applied by the proxy drain path.
    pub updates: u64,
    /// Candidates accepted by the admission filter (== promotions).
    pub admitted: u64,
    /// Candidates turned away by the admission filter.
    pub rejected: u64,
    /// Promotions whose address was found on the ghost list.
    pub ghost_hits: u64,
    /// Evicted-warm frames copied to the NVM demote area.
    pub demotions: u64,
    /// Promotions served by a local demote-area copy (no NVM object read).
    pub repromotions: u64,
}

/// Global-registry handles under the `cache` component. Per-instance
/// [`CacheStats`] stays authoritative for tests; these feed the harness
/// telemetry export.
#[derive(Debug, Clone, Default)]
struct CacheMetrics {
    hits: CounterHandle,
    misses: CounterHandle,
    promotions: CounterHandle,
    evictions: CounterHandle,
    invalidations: CounterHandle,
    updates: CounterHandle,
    admitted: CounterHandle,
    rejected: CounterHandle,
    ghost_hits: CounterHandle,
    demotions: CounterHandle,
    repromotions: CounterHandle,
}

impl CacheMetrics {
    fn new(config: TelemetryConfig) -> Self {
        let tel = config.handle();
        CacheMetrics {
            hits: tel.counter("cache", "hits"),
            misses: tel.counter("cache", "misses"),
            promotions: tel.counter("cache", "promotions"),
            evictions: tel.counter("cache", "evictions"),
            invalidations: tel.counter("cache", "invalidations"),
            updates: tel.counter("cache", "updates"),
            admitted: tel.counter("cache", "admitted"),
            rejected: tel.counter("cache", "rejected"),
            ghost_hits: tel.counter("cache", "ghost_hits"),
            demotions: tel.counter("cache", "demotions"),
            repromotions: tel.counter("cache", "repromotions"),
        }
    }
}

fn frame_need(payload_len: u64) -> u64 {
    SLOT_HEADER + payload_len + SLOT_TAIL
}

/// Manages the DRAM cache region of one memory server.
///
/// All methods run server-locally (promotion/eviction at each epoch and
/// invalidation for RPCs, both on the server's control loop; updates on the
/// proxy drain threads) under the server's cache mutex; remote clients only
/// ever *read* the region.
#[derive(Debug)]
pub struct CacheManager {
    server_id: u8,
    region: MemRegion,
    alloc: FrameAllocator,
    entries: HashMap<u64, CacheEntry>,
    policy: CachePolicy,
    /// Logical clock for segment-LRU stamps.
    clock: u64,
    /// Bytes currently in the protected segment.
    protected_bytes: u64,
    /// Adaptive byte budget for the protected segment.
    protected_target: u64,
    /// Ghost list: recently evicted address → was it protected when evicted.
    ghost: HashMap<u64, bool>,
    ghost_order: VecDeque<u64>,
    /// TinyLFU doorkeeper: addresses that have already knocked once.
    doorkeeper: HashSet<u64>,
    demote: Option<DemoteArea>,
    stats: CacheStats,
    metrics: CacheMetrics,
}

#[derive(Debug)]
struct DemoteArea {
    region: MemRegion,
    alloc: FrameAllocator,
    entries: HashMap<u64, DemoteEntry>,
    order: VecDeque<u64>,
}

impl CacheManager {
    /// Creates a manager over the server's cache region, governed by
    /// `policy`. `demote` is the server-local NVM demote area (required iff
    /// `policy.demotion`); the DRAM byte budget is `region.len()` — the
    /// demote area is NVM and does not count against it.
    pub fn with_policy(
        server_id: u8,
        region: MemRegion,
        demote: Option<MemRegion>,
        policy: CachePolicy,
        telemetry: TelemetryConfig,
    ) -> Self {
        let capacity = region.len();
        let demote = if policy.demotion {
            demote.map(|r| {
                let cap = r.len();
                DemoteArea {
                    region: r,
                    alloc: FrameAllocator::new(0, cap),
                    entries: HashMap::new(),
                    order: VecDeque::new(),
                }
            })
        } else {
            None
        };
        CacheManager {
            server_id,
            region,
            alloc: FrameAllocator::new(0, capacity),
            entries: HashMap::new(),
            policy,
            clock: 0,
            protected_bytes: 0,
            protected_target: capacity / 2,
            ghost: HashMap::new(),
            ghost_order: VecDeque::new(),
            doorkeeper: HashSet::new(),
            demote,
            stats: CacheStats::default(),
            metrics: CacheMetrics::new(telemetry),
        }
    }

    /// The policy this manager was built with.
    pub fn policy(&self) -> &CachePolicy {
        &self.policy
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of frames parked in the demote area.
    pub fn demoted_len(&self) -> usize {
        self.demote.as_ref().map_or(0, |a| a.entries.len())
    }

    /// Whether `addr` has a copy in the demote area.
    pub fn has_demoted(&self, addr_raw: u64) -> bool {
        self.demote
            .as_ref()
            .is_some_and(|a| a.entries.contains_key(&addr_raw))
    }

    /// Whether the cache has warm memory of `addr` — on the ghost list or in
    /// the demote area. Remembered addresses bypass the hot threshold so a
    /// returning working set re-promotes on its first epoch back.
    pub fn remembers(&self, addr_raw: u64) -> bool {
        self.ghost.contains_key(&addr_raw) || self.has_demoted(addr_raw)
    }

    /// Looks up the cached copy of `addr` (raw payload-base address),
    /// returning the raw global address of its slot frame. A hit refreshes
    /// the frame's LRU stamp and upgrades it into the protected segment.
    pub fn lookup(&mut self, addr_raw: u64) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        let mut upgrade = None;
        let hit = match self.entries.get_mut(&addr_raw) {
            Some(e) => {
                e.stamp = clock;
                if !e.protected {
                    e.protected = true;
                    upgrade = Some(frame_need(e.payload_len));
                }
                Some(GlobalAddr::new(self.server_id, MemClass::DramCache, e.slot_off).raw())
            }
            None => None,
        };
        if let Some(need) = upgrade {
            self.protected_bytes += need;
            self.enforce_protected_target();
        }
        if hit.is_some() {
            self.metrics.hits.inc();
        } else {
            self.metrics.misses.inc();
        }
        hit
    }

    /// Returns whether `addr` is cached.
    pub fn contains(&self, addr_raw: u64) -> bool {
        self.entries.contains_key(&addr_raw)
    }

    /// Promotes an object: copies `payload` into a fresh slot and publishes
    /// it under `addr`. The admission filter decides whether it may evict
    /// resident frames. Returns `false` when rejected or it can never fit.
    ///
    /// # Errors
    ///
    /// Propagates device errors from slot writes.
    pub fn promote(
        &mut self,
        addr: GlobalAddr,
        payload: &[u8],
        score: u32,
    ) -> Result<bool, GengarError> {
        let addr_raw = addr.raw();
        if self.entries.contains_key(&addr_raw) {
            return Ok(true);
        }
        let ghost_hit = self.ghost_take(addr_raw, payload.len() as u64);
        let was_demoted = self.has_demoted(addr_raw);
        let admitted = self.insert_frame(
            addr_raw,
            payload,
            score,
            ghost_hit || was_demoted,
            ghost_hit || was_demoted,
        )?;
        if admitted {
            // The caller hands us a fresh payload; any parked demote copy is
            // now redundant (and possibly stale).
            self.demote_drop(addr_raw);
        }
        Ok(admitted)
    }

    /// Re-promotes `addr` from the demote area: one local NVM→DRAM copy, no
    /// NVM object read. Returns `false` when no demote copy exists (or the
    /// insert failed); the caller then takes the normal promote path.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn repromote(&mut self, addr_raw: u64, score: u32) -> Result<bool, GengarError> {
        let Some(d) = self
            .demote
            .as_ref()
            .and_then(|a| a.entries.get(&addr_raw).copied())
        else {
            return Ok(false);
        };
        if self.entries.contains_key(&addr_raw) {
            self.demote_drop(addr_raw);
            return Ok(true);
        }
        let mut payload = vec![0u8; d.len as usize];
        self.demote
            .as_ref()
            .expect("demote entry implies demote area")
            .region
            .read(d.off, &mut payload)?;
        let ghost_hit = self.ghost_take(addr_raw, d.len);
        let _ = ghost_hit;
        if self.insert_frame(addr_raw, &payload, score.max(d.score), true, true)? {
            self.demote_drop(addr_raw);
            self.stats.repromotions += 1;
            self.metrics.repromotions.inc();
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Allocates a slot (evicting per the admission filter) and publishes
    /// the frame. `bypass_admission` is set for proven-warm re-entries.
    fn insert_frame(
        &mut self,
        addr_raw: u64,
        payload: &[u8],
        score: u32,
        protected: bool,
        bypass_admission: bool,
    ) -> Result<bool, GengarError> {
        let need = frame_need(payload.len() as u64);
        if FrameAllocator::block_size(need).is_none_or(|b| b > self.alloc.capacity()) {
            return Ok(false);
        }
        let slot_off = loop {
            match self.alloc.alloc(need) {
                Ok(off) => break off,
                Err(_) => {
                    let Some((victim, victim_score)) = self.victim() else {
                        return Ok(false);
                    };
                    if !bypass_admission && !self.admission_allows(addr_raw, score, victim_score) {
                        self.stats.rejected += 1;
                        self.metrics.rejected.inc();
                        return Ok(false);
                    }
                    self.evict(victim)?;
                }
            }
        };
        let mut header = [0u8; SLOT_HEADER as usize];
        // Publish with an even version so readers accept it immediately.
        encode_slot_header(
            &mut header,
            addr_raw,
            2,
            checksum(payload),
            payload.len() as u64,
        );
        // Payload and tail version first, header (with the tag) last: a
        // concurrent reader of a recycled slot sees the old tag or the new
        // one, never a mix that passes tag + head/tail validation.
        self.region.write(slot_off + SLOT_HEADER, payload)?;
        self.region.write(
            slot_off + SLOT_HEADER + payload.len() as u64,
            &2u64.to_le_bytes(),
        )?;
        self.region.write(slot_off, &header)?;
        self.clock += 1;
        self.entries.insert(
            addr_raw,
            CacheEntry {
                slot_off,
                payload_len: payload.len() as u64,
                score,
                protected,
                stamp: self.clock,
            },
        );
        if protected {
            self.protected_bytes += need;
            self.enforce_protected_target();
        }
        self.stats.promotions += 1;
        self.metrics.promotions.inc();
        self.stats.admitted += 1;
        self.metrics.admitted.inc();
        Ok(true)
    }

    /// Whether `addr` (score `score`) may evict a frame scored
    /// `victim_score`.
    fn admission_allows(&mut self, addr_raw: u64, score: u32, victim_score: u32) -> bool {
        match self.policy.admission {
            AdmissionMode::ScoreOnly => victim_score <= score,
            AdmissionMode::TinyLfu => {
                let cap = self.policy.ghost_entries.saturating_mul(4).max(1024);
                if self.doorkeeper.len() >= cap {
                    self.doorkeeper.clear();
                }
                if self.doorkeeper.insert(addr_raw) {
                    // First eviction-requiring attempt: remember it, turn it
                    // away. A one-hit-wonder never comes back.
                    false
                } else {
                    score > victim_score
                }
            }
        }
    }

    /// Picks the eviction victim: coldest (then least-recently-hit) frame in
    /// probation, falling back to the protected segment only when probation
    /// is empty.
    fn victim(&self) -> Option<(u64, u32)> {
        let pick = |protected: bool| {
            self.entries
                .iter()
                .filter(|(_, e)| e.protected == protected)
                .min_by_key(|(_, e)| (e.score, e.stamp))
                .map(|(&a, e)| (a, e.score))
        };
        pick(false).or_else(|| pick(true))
    }

    /// Evicts `addr`: parks warm payloads in the demote area, records the
    /// address on the ghost list, then frees the slot.
    fn evict(&mut self, addr_raw: u64) -> Result<(), GengarError> {
        let Some(e) = self.entries.get(&addr_raw).copied() else {
            return Ok(());
        };
        if e.score >= 1 {
            self.demote_store(addr_raw, e)?;
        }
        self.ghost_insert(addr_raw, e.protected);
        self.remove(addr_raw, true)?;
        Ok(())
    }

    /// Removes `addr` from the ghost list; on a hit, adaptively resizes the
    /// protected target (ARC-style: misses to protected-evicted ghosts grow
    /// the protected segment, misses to probation-evicted ghosts shrink it).
    fn ghost_take(&mut self, addr_raw: u64, payload_len: u64) -> bool {
        let Some(from_protected) = self.ghost.remove(&addr_raw) else {
            return false;
        };
        let step = frame_need(payload_len);
        let capacity = self.alloc.capacity();
        let (lo, hi) = (capacity / 8, capacity.saturating_sub(capacity / 8));
        self.protected_target = if from_protected {
            (self.protected_target + step).min(hi)
        } else {
            self.protected_target.saturating_sub(step).max(lo)
        };
        self.stats.ghost_hits += 1;
        self.metrics.ghost_hits.inc();
        true
    }

    fn ghost_insert(&mut self, addr_raw: u64, from_protected: bool) {
        let cap = self.policy.ghost_entries;
        if cap == 0 {
            return;
        }
        if self.ghost.insert(addr_raw, from_protected).is_none() {
            self.ghost_order.push_back(addr_raw);
        }
        while self.ghost.len() > cap || self.ghost_order.len() > cap * 2 {
            let Some(old) = self.ghost_order.pop_front() else {
                break;
            };
            self.ghost.remove(&old);
        }
    }

    /// Demotes probation the least-recently-hit protected frames until the
    /// protected segment fits its adaptive byte target.
    fn enforce_protected_target(&mut self) {
        while self.protected_bytes > self.protected_target {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.protected)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&a, _)| a);
            let Some(a) = victim else { break };
            let e = self.entries.get_mut(&a).expect("victim exists");
            e.protected = false;
            self.protected_bytes = self
                .protected_bytes
                .saturating_sub(frame_need(e.payload_len));
        }
    }

    /// Copies an evicted frame's payload into the NVM demote area (epoch
    /// thread only — the foreground drain never pays for this write).
    fn demote_store(&mut self, addr_raw: u64, e: CacheEntry) -> Result<(), GengarError> {
        if self.demote.is_none() {
            return Ok(());
        }
        let mut payload = vec![0u8; e.payload_len as usize];
        self.region.read(e.slot_off + SLOT_HEADER, &mut payload)?;
        let area = self.demote.as_mut().expect("checked above");
        let need = e.payload_len.max(1);
        if FrameAllocator::block_size(need).is_none_or(|b| b > area.alloc.capacity()) {
            return Ok(());
        }
        let off = loop {
            match area.alloc.alloc(need) {
                Ok(off) => break off,
                Err(_) => {
                    // FIFO-evict the demote area; stale order entries (already
                    // dropped) are skipped.
                    let Some(old) = area.order.pop_front() else {
                        return Ok(());
                    };
                    if let Some(d) = area.entries.remove(&old) {
                        area.alloc.free(d.off)?;
                    }
                }
            }
        };
        area.region.write(off, &payload)?;
        area.entries.insert(
            addr_raw,
            DemoteEntry {
                off,
                len: e.payload_len,
                score: e.score,
            },
        );
        area.order.push_back(addr_raw);
        self.stats.demotions += 1;
        self.metrics.demotions.inc();
        Ok(())
    }

    /// Drops the demote-area copy of `addr`, if any.
    fn demote_drop(&mut self, addr_raw: u64) {
        if let Some(area) = self.demote.as_mut() {
            if let Some(d) = area.entries.remove(&addr_raw) {
                let _ = area.alloc.free(d.off);
            }
        }
    }

    fn remove(&mut self, addr_raw: u64, eviction: bool) -> Result<bool, GengarError> {
        if let Some(e) = self.entries.remove(&addr_raw) {
            if e.protected {
                self.protected_bytes = self
                    .protected_bytes
                    .saturating_sub(frame_need(e.payload_len));
            }
            // Clear the tag so racing clients with stale remap entries fail
            // validation instead of reading a recycled slot.
            self.region.write(e.slot_off, &0u64.to_le_bytes())?;
            self.alloc.free(e.slot_off)?;
            if eviction {
                self.stats.evictions += 1;
                self.metrics.evictions.inc();
            } else {
                self.stats.invalidations += 1;
                self.metrics.invalidations.inc();
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Invalidates the cached copy of `addr`, if any — including any parked
    /// demote copy, which is stale the moment the object changes. Returns
    /// whether a DRAM copy existed.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn invalidate(&mut self, addr_raw: u64) -> Result<bool, GengarError> {
        self.demote_drop(addr_raw);
        self.remove(addr_raw, false)
    }

    /// Applies a write of `data` at byte `rel_off` of the cached object
    /// `addr`, seqlock-style (odd version while mutating, checksum
    /// recomputed, even version after). Used by the proxy drain path to
    /// keep cached copies fresh. Returns whether the object was cached.
    ///
    /// # Errors
    ///
    /// Propagates device errors; out-of-object writes invalidate instead.
    pub fn update_range(
        &mut self,
        addr_raw: u64,
        rel_off: u64,
        data: &[u8],
    ) -> Result<bool, GengarError> {
        let entry = match self.entries.get(&addr_raw) {
            Some(e) => *e,
            None => {
                // A parked demote copy is stale the moment the object is
                // written; drop it rather than update it (the drain path
                // must never pay for a demote-area write).
                self.demote_drop(addr_raw);
                return Ok(false);
            }
        };
        if rel_off + data.len() as u64 > entry.payload_len {
            // A write larger than the cached frame: drop the copy.
            self.remove(addr_raw, false)?;
            return Ok(false);
        }
        let slot = entry.slot_off;
        let mut hdr_buf = [0u8; SLOT_HEADER as usize];
        self.region.read(slot, &mut hdr_buf)?;
        let hdr = decode_slot_header(&hdr_buf);
        // Seqlock update: head version odd, mutate, tail then head to the
        // new even version. The diagnostic checksum is cleared rather than
        // recomputed (readers validate via head/tail versions).
        self.region
            .write(slot + 8, &(hdr.version + 1).to_le_bytes())?;
        self.region.write(slot + SLOT_HEADER + rel_off, data)?;
        self.region.write(slot + 16, &0u64.to_le_bytes())?;
        self.region.write(
            slot + SLOT_HEADER + entry.payload_len,
            &(hdr.version + 2).to_le_bytes(),
        )?;
        self.region
            .write(slot + 8, &(hdr.version + 2).to_le_bytes())?;
        self.stats.updates += 1;
        self.metrics.updates.inc();
        Ok(true)
    }

    /// Refreshes entry scores from an epoch fold.
    pub fn refresh_scores(&mut self, folded: &[(u64, u32)]) {
        for &(addr, score) in folded {
            if let Some(e) = self.entries.get_mut(&addr) {
                e.score = score;
            }
        }
    }

    /// Ages every entry (halves scores) so stale entries become evictable.
    pub fn decay_scores(&mut self) {
        for e in self.entries.values_mut() {
            e.score >>= 1;
        }
        for d in self.demote.iter_mut().flat_map(|a| a.entries.values_mut()) {
            d.score >>= 1;
        }
    }

    /// Drops everything, including ghost/doorkeeper/demote state (used on
    /// recovery: DRAM contents are gone and warm memory is meaningless).
    pub fn clear(&mut self) {
        let addrs: Vec<u64> = self.entries.keys().copied().collect();
        for a in addrs {
            let _ = self.remove(a, false);
        }
        self.ghost.clear();
        self.ghost_order.clear();
        self.doorkeeper.clear();
        if let Some(area) = self.demote.as_mut() {
            for (_, d) in area.entries.drain() {
                let _ = area.alloc.free(d.off);
            }
            area.order.clear();
        }
        self.protected_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind};
    use std::sync::Arc;

    fn region(capacity: u64) -> MemRegion {
        let dev =
            Arc::new(MemDevice::new(0, DeviceProfile::instant(MemKind::Dram), capacity).unwrap());
        MemRegion::whole(dev)
    }

    fn legacy_policy(capacity: u64) -> CachePolicy {
        CachePolicy::new()
            .capacity(capacity)
            .admission(AdmissionMode::ScoreOnly)
            .ghost_entries(0)
    }

    /// Legacy-behaviour manager (score-only admission, no ghost/demote) —
    /// what the deprecated `new`/`with_telemetry` shims produce.
    fn mgr(capacity: u64) -> CacheManager {
        CacheManager::with_policy(
            1,
            region(capacity),
            None,
            legacy_policy(capacity),
            TelemetryConfig::default(),
        )
    }

    fn adaptive_mgr(capacity: u64, ghost: usize, demotion: bool) -> CacheManager {
        let demote = demotion.then(|| region(capacity));
        CacheManager::with_policy(
            1,
            region(capacity),
            demote,
            CachePolicy::new()
                .capacity(capacity)
                .ghost_entries(ghost)
                .demotion(demotion),
            TelemetryConfig::default(),
        )
    }

    fn addr(off: u64) -> GlobalAddr {
        GlobalAddr::new(1, MemClass::Nvm, off)
    }

    #[test]
    fn promote_then_lookup() {
        let mut c = mgr(1 << 16);
        assert!(c.promote(addr(64), b"hot-data", 10).unwrap());
        let slot_raw = c.lookup(addr(64).raw()).unwrap();
        let slot = GlobalAddr::from_raw(slot_raw).unwrap();
        assert_eq!(slot.class(), MemClass::DramCache);
        // The slot frame validates: tag, even head version, matching tail.
        let mut frame = vec![0u8; (SLOT_HEADER + 8 + SLOT_TAIL) as usize];
        c.region.read(slot.offset(), &mut frame).unwrap();
        let h = decode_slot_header(&frame);
        assert_eq!(h.tag, addr(64).raw());
        assert_eq!(h.version % 2, 0);
        assert_eq!(h.len, 8);
        assert_eq!(h.checksum, checksum(b"hot-data"));
        assert_eq!(
            &frame[SLOT_HEADER as usize..(SLOT_HEADER + 8) as usize],
            b"hot-data"
        );
        let tail = u64::from_le_bytes(frame[(SLOT_HEADER + 8) as usize..].try_into().unwrap());
        assert_eq!(tail, h.version);
    }

    #[test]
    fn double_promote_is_idempotent() {
        let mut c = mgr(1 << 16);
        assert!(c.promote(addr(0), b"x", 1).unwrap());
        assert!(c.promote(addr(0), b"x", 1).unwrap());
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().promotions, 1);
    }

    #[test]
    fn invalidate_clears_tag() {
        let mut c = mgr(1 << 16);
        c.promote(addr(0), b"abc", 1).unwrap();
        let slot = GlobalAddr::from_raw(c.lookup(addr(0).raw()).unwrap()).unwrap();
        assert!(c.invalidate(addr(0).raw()).unwrap());
        assert!(c.lookup(addr(0).raw()).is_none());
        let mut tag = [0u8; 8];
        c.region.read(slot.offset(), &mut tag).unwrap();
        assert_eq!(u64::from_le_bytes(tag), 0);
        assert!(!c.invalidate(addr(0).raw()).unwrap());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn eviction_prefers_cold_entries() {
        // Capacity fits two 64-byte slots (32 hdr + payload).
        let mut c = mgr(128);
        assert!(c.promote(addr(0), b"aaaa", 1).unwrap());
        assert!(c.promote(addr(64), b"bbbb", 5).unwrap());
        // A hotter third entry evicts the coldest.
        assert!(c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(c.lookup(addr(0).raw()).is_none(), "cold entry evicted");
        assert!(c.lookup(addr(64).raw()).is_some());
        assert!(c.lookup(addr(128).raw()).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn colder_candidate_does_not_evict_hotter_entries() {
        let mut c = mgr(128);
        assert!(c.promote(addr(0), b"aaaa", 10).unwrap());
        assert!(c.promote(addr(64), b"bbbb", 10).unwrap());
        assert!(!c.promote(addr(128), b"cccc", 1).unwrap());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn oversized_object_rejected_without_eviction() {
        let mut c = mgr(256);
        c.promote(addr(0), b"keep", 1).unwrap();
        let big = vec![0u8; 1024];
        assert!(!c.promote(addr(64), &big, 100).unwrap());
        assert!(c.contains(addr(0).raw()));
    }

    #[test]
    fn update_range_bumps_head_and_tail_versions() {
        let mut c = mgr(1 << 16);
        c.promote(addr(0), b"hello world!", 1).unwrap();
        assert!(c.update_range(addr(0).raw(), 6, b"gengar").unwrap());
        let slot = GlobalAddr::from_raw(c.lookup(addr(0).raw()).unwrap()).unwrap();
        let mut frame = vec![0u8; (SLOT_HEADER + 12 + SLOT_TAIL) as usize];
        c.region.read(slot.offset(), &mut frame).unwrap();
        let h = decode_slot_header(&frame);
        assert_eq!(
            &frame[SLOT_HEADER as usize..(SLOT_HEADER + 12) as usize],
            b"hello gengar"
        );
        assert_eq!(h.version, 4);
        let tail = u64::from_le_bytes(frame[(SLOT_HEADER + 12) as usize..].try_into().unwrap());
        assert_eq!(tail, 4);
        assert_eq!(c.stats().updates, 1);
    }

    #[test]
    fn update_beyond_frame_invalidates() {
        let mut c = mgr(1 << 16);
        c.promote(addr(0), b"tiny", 1).unwrap();
        let long = vec![9u8; 100];
        assert!(!c.update_range(addr(0).raw(), 0, &long).unwrap());
        assert!(!c.contains(addr(0).raw()));
    }

    #[test]
    fn update_of_uncached_is_noop() {
        let mut c = mgr(1 << 16);
        assert!(!c.update_range(addr(0).raw(), 0, b"x").unwrap());
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = mgr(1 << 16);
        c.promote(addr(0), b"a", 1).unwrap();
        c.promote(addr(64), b"b", 1).unwrap();
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn scores_refresh_and_decay() {
        let mut c = mgr(1 << 16);
        c.promote(addr(0), b"a", 8).unwrap();
        c.refresh_scores(&[(addr(0).raw(), 20)]);
        c.decay_scores();
        assert_eq!(c.entries[&addr(0).raw()].score, 10);
    }

    #[test]
    fn policy_builder_round_trips() {
        let p = CachePolicy::new()
            .capacity(123)
            .admission(AdmissionMode::ScoreOnly)
            .ghost_entries(7)
            .demotion(true)
            .hot_threshold(9)
            .cacheable_max(456);
        assert_eq!(p.capacity, 123);
        assert_eq!(p.admission, AdmissionMode::ScoreOnly);
        assert_eq!(p.ghost_entries, 7);
        assert!(p.demotion);
        assert_eq!(p.hot_threshold, 9);
        assert_eq!(p.cacheable_max, 456);
        assert!(!CachePolicy::disabled().enabled);
        assert_eq!(CachePolicy::new(), CachePolicy::default());
    }

    #[test]
    fn doorkeeper_blocks_first_knock_then_admits_hotter() {
        let mut c = adaptive_mgr(128, 64, false);
        assert!(c.promote(addr(0), b"aaaa", 5).unwrap());
        assert!(c.promote(addr(64), b"bbbb", 5).unwrap());
        // First eviction-requiring attempt: remembered, rejected — a
        // one-hit-wonder cannot displace resident frames.
        assert!(!c.promote(addr(128), b"cccc", 9).unwrap());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().rejected, 1);
        // Second knock with a strictly hotter score: admitted.
        assert!(c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(c.contains(addr(128).raw()));
        assert_eq!(c.stats().evictions, 1);
        // An equal-score candidate never wins a tie under TinyLFU.
        assert!(!c.promote(addr(192), b"dddd", 9).unwrap());
        assert!(!c.promote(addr(192), b"dddd", 5).unwrap());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn ghost_hit_bypasses_doorkeeper() {
        let mut c = adaptive_mgr(128, 64, false);
        assert!(c.promote(addr(0), b"aaaa", 2).unwrap());
        assert!(c.promote(addr(64), b"bbbb", 2).unwrap());
        // Evict addr(0): knock twice with a hotter candidate.
        assert!(!c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(!c.contains(addr(0).raw()));
        // addr(0) returns: it is on the ghost list, so it re-enters without
        // a doorkeeper round-trip even at a modest score.
        assert!(c.promote(addr(0), b"aaaa", 1).unwrap());
        assert_eq!(c.stats().ghost_hits, 1);
    }

    #[test]
    fn protected_frames_outlive_probation_under_pressure() {
        // Four-slot cache: hit one frame so it is protected, then pressure.
        let mut c = adaptive_mgr(256, 64, false);
        assert!(c.promote(addr(0), b"aaaa", 3).unwrap());
        assert!(c.lookup(addr(0).raw()).is_some()); // upgrade to protected
        assert!(c.promote(addr(64), b"bbbb", 3).unwrap());
        assert!(c.promote(addr(128), b"cccc", 3).unwrap());
        assert!(c.promote(addr(192), b"dddd", 3).unwrap());
        // Admit a hotter candidate (two knocks): the victim must come from
        // probation even though addr(0) has an equal score.
        assert!(!c.promote(addr(256), b"eeee", 9).unwrap());
        assert!(c.promote(addr(256), b"eeee", 9).unwrap());
        assert!(c.contains(addr(0).raw()), "protected frame survived");
    }

    #[test]
    fn demotion_parks_warm_frames_and_repromotes_locally() {
        let mut c = adaptive_mgr(128, 64, true);
        assert!(c.promote(addr(0), b"warm", 3).unwrap());
        assert!(c.promote(addr(64), b"bbbb", 3).unwrap());
        // Evict addr(0) via a hotter candidate (two knocks).
        assert!(!c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(!c.contains(addr(0).raw()));
        assert!(c.has_demoted(addr(0).raw()));
        assert_eq!(c.stats().demotions, 1);
        // Re-promotion is a local demote→DRAM copy: no payload needed.
        assert!(c.repromote(addr(0).raw(), 4).unwrap());
        assert!(!c.has_demoted(addr(0).raw()));
        assert_eq!(c.stats().repromotions, 1);
        let slot = GlobalAddr::from_raw(c.lookup(addr(0).raw()).unwrap()).unwrap();
        let mut payload = [0u8; 4];
        c.region
            .read(slot.offset() + SLOT_HEADER, &mut payload)
            .unwrap();
        assert_eq!(&payload, b"warm");
    }

    #[test]
    fn writes_drop_stale_demote_copies() {
        let mut c = adaptive_mgr(128, 64, true);
        assert!(c.promote(addr(0), b"warm", 3).unwrap());
        assert!(c.promote(addr(64), b"bbbb", 3).unwrap());
        assert!(!c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(c.has_demoted(addr(0).raw()));
        // A drain write to the (now uncached) object invalidates the parked
        // copy — repromote must refuse rather than resurrect stale bytes.
        assert!(!c.update_range(addr(0).raw(), 0, b"new!").unwrap());
        assert!(!c.has_demoted(addr(0).raw()));
        assert!(!c.repromote(addr(0).raw(), 9).unwrap());
    }

    #[test]
    fn invalidate_also_drops_demote_copy() {
        let mut c = adaptive_mgr(128, 64, true);
        assert!(c.promote(addr(0), b"warm", 3).unwrap());
        assert!(c.promote(addr(64), b"bbbb", 3).unwrap());
        assert!(!c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(c.has_demoted(addr(0).raw()));
        c.invalidate(addr(0).raw()).unwrap();
        assert!(!c.has_demoted(addr(0).raw()));
        assert!(!c.remembers(addr(0).raw()) || c.ghost.contains_key(&addr(0).raw()));
    }

    #[test]
    fn clear_wipes_warm_memory() {
        let mut c = adaptive_mgr(128, 64, true);
        assert!(c.promote(addr(0), b"warm", 3).unwrap());
        assert!(c.promote(addr(64), b"bbbb", 3).unwrap());
        assert!(!c.promote(addr(128), b"cccc", 9).unwrap());
        assert!(c.promote(addr(128), b"cccc", 9).unwrap());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.demoted_len(), 0);
        assert!(!c.remembers(addr(0).raw()));
    }
}
