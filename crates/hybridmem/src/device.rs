//! The simulated memory device.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::bandwidth::Limiter;
use crate::error::HybridMemError;
use crate::latency::{scaled_duration, spin_for_ns, spin_until, time_scale};
use crate::profile::{DeviceProfile, PersistenceMode};
use crate::stats::DeviceStats;
use crate::Result;

/// Identifier of a device within a simulated deployment.
pub type DeviceId = u32;

/// Cache-line size assumed by the flush cost model.
pub const CACHE_LINE: u64 = 64;

/// Word-aligned backing storage accessed through raw pointers.
///
/// Remote (RDMA) accesses are executed by initiator threads directly against
/// the target device, so concurrent overlapping access to the same bytes is
/// possible — exactly as it is on real RDMA hardware, where the NIC DMAs
/// into host memory with no CPU synchronisation. Protocols built above this
/// layer (seqlock versions, single-writer rings) are responsible for making
/// such races benign, again mirroring real deployments.
struct Backing {
    /// Kept alive for the lifetime of the device; `ptr` points into it.
    _words: Box<[u64]>,
    ptr: *mut u8,
    capacity: u64,
}

// SAFETY: `Backing` hands out raw-pointer access guarded by bounds checks.
// Concurrent access is part of the emulation's contract (see type docs).
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Backing {
    fn new(capacity: u64) -> Self {
        let words = vec![0u64; capacity.div_ceil(8) as usize].into_boxed_slice();
        let ptr = words.as_ptr() as *mut u8;
        Backing {
            _words: words,
            ptr,
            capacity,
        }
    }
}

/// A byte-addressable simulated memory device (one DRAM or NVM DIMM set).
///
/// All accesses are bounds-checked, charged against the device's latency and
/// bandwidth model, and counted in [`DeviceStats`]. Word atomics
/// ([`MemDevice::cas_u64`] and friends) are truly atomic across threads; they
/// are the substrate for RDMA CAS/FAA and for Gengar's lock tables.
pub struct MemDevice {
    id: DeviceId,
    profile: DeviceProfile,
    backing: Backing,
    read_bw: Limiter,
    write_bw: Limiter,
    stats: DeviceStats,
    /// Durable image for crash simulation; `None` until enabled.
    durable: Mutex<Option<Box<[u8]>>>,
    /// The profile charges nothing: no latency, no bandwidth limit.
    free: bool,
    /// Start instant handed to an untimed op, which charges nothing from
    /// any start; saves the blocking forms a clock read.
    created: Instant,
}

impl std::fmt::Debug for MemDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDevice")
            .field("id", &self.id)
            .field("profile", &self.profile.name)
            .field("kind", &self.profile.kind)
            .field("capacity", &self.backing.capacity)
            .finish()
    }
}

impl MemDevice {
    /// Creates a device with `capacity` bytes, zero-initialised.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::InvalidCapacity`] if `capacity` is zero.
    pub fn new(id: DeviceId, profile: DeviceProfile, capacity: u64) -> Result<Self> {
        if capacity == 0 || capacity > (1 << 48) {
            return Err(HybridMemError::InvalidCapacity { capacity });
        }
        let free = [
            profile.read_latency_ns,
            profile.write_latency_ns,
            profile.flush_latency_ns,
            profile.flush_line_ns,
        ] == [0; 4]
            && profile.read_bw_bytes_per_sec == u64::MAX
            && profile.write_bw_bytes_per_sec == u64::MAX;
        Ok(MemDevice {
            id,
            free,
            created: Instant::now(),
            read_bw: Limiter::new(profile.read_bw_bytes_per_sec),
            write_bw: Limiter::new(profile.write_bw_bytes_per_sec),
            profile,
            backing: Backing::new(capacity),
            stats: DeviceStats::new(),
            durable: Mutex::new(None),
        })
    }

    /// Creates a device whose [`DeviceStats`] also feed the global
    /// telemetry registry under `device.{role}_*` (see
    /// [`DeviceStats::registered`]).
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::InvalidCapacity`] if `capacity` is zero.
    pub fn with_telemetry(
        id: DeviceId,
        profile: DeviceProfile,
        capacity: u64,
        role: &str,
        telemetry: gengar_telemetry::TelemetryConfig,
    ) -> Result<Self> {
        let mut dev = Self::new(id, profile, capacity)?;
        dev.stats = DeviceStats::registered(role, telemetry);
        Ok(dev)
    }

    /// The device identifier.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The timing/persistence profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.backing.capacity
    }

    /// Access counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn check(&self, offset: u64, len: u64) -> Result<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.backing.capacity)
        {
            return Err(HybridMemError::OutOfBounds {
                offset,
                len,
                capacity: self.backing.capacity,
            });
        }
        Ok(())
    }

    fn check_aligned(&self, offset: u64) -> Result<()> {
        self.check(offset, 8)?;
        if !offset.is_multiple_of(8) {
            return Err(HybridMemError::Misaligned { offset });
        }
        Ok(())
    }

    /// Whether this device charges an op nothing: a profile with no
    /// latencies and no bandwidth limits, or time scale 0.
    fn untimed(&self) -> bool {
        self.free || time_scale() == 0.0
    }

    /// The blocking form of a deferred-timing op: runs `op` from now and
    /// waits out the completion instant it returns. When `untimed`, `op`
    /// is charged nothing from any start, so the clock is neither read nor
    /// waited on — an untimed access costs only its copy.
    fn wait_out(&self, untimed: bool, op: impl FnOnce(Instant) -> Result<Instant>) -> Result<()> {
        if untimed {
            op(self.created)?;
        } else {
            spin_until(op(Instant::now())?);
        }
        Ok(())
    }

    /// Reads `dst.len()` bytes starting at `offset`: [`MemDevice::read_at`]
    /// from now, then one wait for its modelled completion.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the range exceeds capacity.
    pub fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        self.wait_out(self.untimed(), |at| self.read_at(offset, dst, at))
    }

    /// Deferred-timing read: the bytes are copied out now, the modelled
    /// cost (latency, then the read channel) is charged from the
    /// virtual-time `start` cursor, and the completion instant is returned
    /// instead of busy-waited.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the range exceeds capacity.
    pub fn read_at(&self, offset: u64, dst: &mut [u8], start: Instant) -> Result<Instant> {
        self.check(offset, dst.len() as u64)?;
        let after_lat = start + scaled_duration(self.profile.read_latency_ns);
        let end = self
            .read_bw
            .reserve_at(dst.len() as u64, after_lat)
            .unwrap_or(after_lat);
        // SAFETY: bounds checked above; racing remote writers are part of
        // the emulation contract (see `Backing`).
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.backing.ptr.add(offset as usize),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
        self.stats.record_read(dst.len() as u64);
        Ok(end)
    }

    /// Copies `dst.len()` bytes out at `offset` as a CPU load from local
    /// memory: bounds-checked, with no modelled cost and no count. For
    /// memory that only its owner's CPU accesses this way (a client's
    /// scratch buffer), whose cost is the copy itself.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the range exceeds capacity.
    pub fn copy_out(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        self.check(offset, dst.len() as u64)?;
        // SAFETY: bounds checked above; see `Backing` for the race model.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.backing.ptr.add(offset as usize),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
        Ok(())
    }

    /// Copies `src` in at `offset` as a CPU store to local memory: the
    /// counterpart of [`MemDevice::copy_out`], durable at once on an ADR
    /// device under crash simulation, as [`MemDevice::write`] is.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the range exceeds capacity.
    pub fn copy_in(&self, offset: u64, src: &[u8]) -> Result<()> {
        self.check(offset, src.len() as u64)?;
        // SAFETY: bounds checked above; see `Backing` for the race model.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.backing.ptr.add(offset as usize),
                src.len(),
            );
        }
        if self.profile.persistence == PersistenceMode::Adr {
            if let Some(image) = self.durable.lock().as_mut() {
                image[offset as usize..offset as usize + src.len()].copy_from_slice(src);
            }
        }
        Ok(())
    }

    /// Writes `src` starting at `offset`: [`MemDevice::write_at`] from
    /// now, then one wait for its modelled completion.
    ///
    /// On a [`PersistenceMode::Adr`] device with crash simulation enabled the
    /// bytes become durable immediately; on a [`PersistenceMode::Flush`]
    /// device they stay volatile until [`MemDevice::flush`].
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the range exceeds capacity.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<()> {
        self.wait_out(self.untimed(), |at| self.write_at(offset, src, at))
    }

    /// Deferred-timing write: the bytes land (and, on an ADR device,
    /// become durable) immediately, but instead of busy-waiting the
    /// modelled cost the method charges it against the virtual-time
    /// `start` cursor and returns the instant the write would complete.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_at(&self, offset: u64, src: &[u8], start: Instant) -> Result<Instant> {
        self.check(offset, src.len() as u64)?;
        let end = self.write_cost_at(src.len() as u64, start);
        // SAFETY: bounds checked above; see `Backing` for the race model.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.backing.ptr.add(offset as usize),
                src.len(),
            );
        }
        if self.profile.persistence == PersistenceMode::Adr {
            if let Some(image) = self.durable.lock().as_mut() {
                image[offset as usize..offset as usize + src.len()].copy_from_slice(src);
            }
        }
        self.stats.record_write(src.len() as u64);
        Ok(end)
    }

    /// Fills `[offset, offset+len)` with `byte`.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the range exceeds capacity.
    pub fn fill(&self, offset: u64, len: u64, byte: u8) -> Result<()> {
        self.check(offset, len)?;
        // SAFETY: bounds checked above.
        unsafe {
            std::ptr::write_bytes(self.backing.ptr.add(offset as usize), byte, len as usize);
        }
        if self.profile.persistence == PersistenceMode::Adr {
            if let Some(image) = self.durable.lock().as_mut() {
                image[offset as usize..(offset + len) as usize].fill(byte);
            }
        }
        self.stats.record_write(len);
        self.wait_out(self.untimed(), |at| Ok(self.write_cost_at(len, at)))
    }

    /// The one write cost model: write latency from `start`, then `len`
    /// bytes on the write channel. Returns the modelled completion.
    fn write_cost_at(&self, len: u64, start: Instant) -> Instant {
        let after_lat = start + scaled_duration(self.profile.write_latency_ns);
        self.write_bw
            .reserve_at(len, after_lat)
            .unwrap_or(after_lat)
    }

    /// Copies `len` bytes from `src` (at `src_offset`) into this device at
    /// `dst_offset` with a single memcpy, charging read costs on `src` and
    /// write costs on `self`: [`MemDevice::copy_from_at`] from now, then one
    /// wait. This is the DMA path used by the simulated NIC: it avoids
    /// staging through an intermediate buffer.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if either range exceeds its
    /// device's capacity.
    pub fn copy_from(
        &self,
        dst_offset: u64,
        src: &MemDevice,
        src_offset: u64,
        len: u64,
    ) -> Result<()> {
        let untimed = self.untimed() && src.untimed();
        self.wait_out(untimed, |at| {
            self.copy_from_at(dst_offset, src, src_offset, len, at)
        })
    }

    /// Deferred-timing variant of [`MemDevice::copy_from`]: the memcpy
    /// happens now, the modelled DMA cost is charged from the virtual-time
    /// `start` cursor, and the completion instant is returned instead of
    /// busy-waited.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if either range exceeds its
    /// device's capacity.
    pub fn copy_from_at(
        &self,
        dst_offset: u64,
        src: &MemDevice,
        src_offset: u64,
        len: u64,
        start: Instant,
    ) -> Result<Instant> {
        self.check(dst_offset, len)?;
        src.check(src_offset, len)?;
        let after_lat =
            start + scaled_duration(src.profile.read_latency_ns + self.profile.write_latency_ns);
        // The DMA engine streams: the source-read and destination-write
        // channels are occupied concurrently, so the transfer ends at the
        // slower channel's deadline, not their sum.
        let src_done = src.read_bw.reserve_at(len, after_lat);
        let dst_done = self.write_bw.reserve_at(len, after_lat);
        let end = src_done.max(dst_done).unwrap_or(after_lat);
        // SAFETY: both ranges bounds-checked; devices are distinct
        // allocations (and a same-device overlapping copy is still sound
        // with `copy`, which allows overlap).
        unsafe {
            std::ptr::copy(
                src.backing.ptr.add(src_offset as usize),
                self.backing.ptr.add(dst_offset as usize),
                len as usize,
            );
        }
        if self.profile.persistence == PersistenceMode::Adr {
            if let Some(image) = self.durable.lock().as_mut() {
                // SAFETY: dst range bounds-checked; image has capacity bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        self.backing.ptr.add(dst_offset as usize),
                        image.as_mut_ptr().add(dst_offset as usize),
                        len as usize,
                    );
                }
            }
        }
        src.stats.record_read(len);
        self.stats.record_write(len);
        Ok(end)
    }

    /// Returns an atomic view of the 8-byte word at `offset`.
    fn word(&self, offset: u64) -> Result<&AtomicU64> {
        self.check_aligned(offset)?;
        // SAFETY: offset is 8-aligned relative to a u64-aligned allocation
        // and in bounds; AtomicU64 has the same layout as u64.
        Ok(unsafe { &*(self.backing.ptr.add(offset as usize) as *const AtomicU64) })
    }

    /// Atomically loads the u64 at 8-byte-aligned `offset` (Acquire).
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::Misaligned`] or
    /// [`HybridMemError::OutOfBounds`].
    pub fn load_u64(&self, offset: u64) -> Result<u64> {
        let w = self.word(offset)?;
        spin_for_ns(self.profile.read_latency_ns);
        self.stats.record_atomic();
        Ok(w.load(Ordering::Acquire))
    }

    /// Atomically stores `value` at 8-byte-aligned `offset` (Release):
    /// [`MemDevice::store_u64_at`] from now, then one wait.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::Misaligned`] or
    /// [`HybridMemError::OutOfBounds`].
    pub fn store_u64(&self, offset: u64, value: u64) -> Result<()> {
        self.wait_out(self.untimed(), |at| self.store_u64_at(offset, value, at))
    }

    /// Deferred-timing variant of [`MemDevice::store_u64`]: the store
    /// lands now, the modelled cost is charged from `start`, and the
    /// completion instant is returned.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::Misaligned`] or
    /// [`HybridMemError::OutOfBounds`].
    pub fn store_u64_at(&self, offset: u64, value: u64, start: Instant) -> Result<Instant> {
        let w = self.word(offset)?;
        w.store(value, Ordering::Release);
        self.stats.record_atomic();
        if self.profile.persistence == PersistenceMode::Adr {
            if let Some(image) = self.durable.lock().as_mut() {
                image[offset as usize..offset as usize + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
        Ok(start + scaled_duration(self.profile.write_latency_ns))
    }

    /// Atomic compare-and-swap on the u64 at `offset`:
    /// [`MemDevice::cas_u64_at`] from now, then one wait. Returns the value
    /// observed before the operation (equal to `expected` iff it succeeded).
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::Misaligned`] or
    /// [`HybridMemError::OutOfBounds`].
    pub fn cas_u64(&self, offset: u64, expected: u64, new: u64) -> Result<u64> {
        let mut observed = 0;
        self.wait_out(self.untimed(), |at| {
            let (seen, end) = self.cas_u64_at(offset, expected, new, at)?;
            observed = seen;
            Ok(end)
        })?;
        Ok(observed)
    }

    /// Deferred-timing variant of [`MemDevice::cas_u64`]: the atomic
    /// applies now, the modelled cost is charged from `start`, and the
    /// completion instant is returned alongside the observed value.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::Misaligned`] or
    /// [`HybridMemError::OutOfBounds`].
    pub fn cas_u64_at(
        &self,
        offset: u64,
        expected: u64,
        new: u64,
        start: Instant,
    ) -> Result<(u64, Instant)> {
        let w = self.word(offset)?;
        let end = start
            + scaled_duration(
                self.profile
                    .read_latency_ns
                    .max(self.profile.write_latency_ns),
            );
        self.stats.record_atomic();
        let observed = match w.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(prev) => prev,
            Err(prev) => prev,
        };
        if observed == expected && self.profile.persistence == PersistenceMode::Adr {
            if let Some(image) = self.durable.lock().as_mut() {
                image[offset as usize..offset as usize + 8].copy_from_slice(&new.to_le_bytes());
            }
        }
        Ok((observed, end))
    }

    /// Atomic fetch-and-add on the u64 at `offset`:
    /// [`MemDevice::faa_u64_at`] from now, then one wait. Returns the prior
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::Misaligned`] or
    /// [`HybridMemError::OutOfBounds`].
    pub fn faa_u64(&self, offset: u64, delta: u64) -> Result<u64> {
        let mut prev = 0;
        self.wait_out(self.untimed(), |at| {
            let (before, end) = self.faa_u64_at(offset, delta, at)?;
            prev = before;
            Ok(end)
        })?;
        Ok(prev)
    }

    /// Deferred-timing variant of [`MemDevice::faa_u64`]; see
    /// [`MemDevice::cas_u64_at`].
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::Misaligned`] or
    /// [`HybridMemError::OutOfBounds`].
    pub fn faa_u64_at(&self, offset: u64, delta: u64, start: Instant) -> Result<(u64, Instant)> {
        let w = self.word(offset)?;
        let end = start
            + scaled_duration(
                self.profile
                    .read_latency_ns
                    .max(self.profile.write_latency_ns),
            );
        self.stats.record_atomic();
        let prev = w.fetch_add(delta, Ordering::AcqRel);
        if self.profile.persistence == PersistenceMode::Adr {
            if let Some(image) = self.durable.lock().as_mut() {
                image[offset as usize..offset as usize + 8]
                    .copy_from_slice(&prev.wrapping_add(delta).to_le_bytes());
            }
        }
        Ok((prev, end))
    }

    /// Flushes `[offset, offset+len)` to the persistence domain:
    /// [`MemDevice::flush_at`] of that one range from now, then one wait.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the range exceeds capacity.
    pub fn flush(&self, offset: u64, len: u64) -> Result<()> {
        self.wait_out(self.untimed(), |at| self.flush_at(&[(offset, len)], at))
    }

    /// Deferred-timing flush of every `(offset, len)` range in `ranges` as
    /// one fenced batch: the ranges persist now, and the modelled cost —
    /// one [`DeviceProfile::flush_latency_ns`] fence for the call plus
    /// [`DeviceProfile::flush_line_ns`] per cache line of each range (the
    /// flushed data already paid write bandwidth when it was stored) — is
    /// charged from `start`; the completion instant is returned. Counts as
    /// one flush. On a volatile or ADR device this is a no-op apart from the
    /// latency. With crash simulation enabled on a
    /// [`PersistenceMode::Flush`] device the ranges are copied into the
    /// durable image.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if any range exceeds
    /// capacity; nothing is flushed then.
    pub fn flush_at(&self, ranges: &[(u64, u64)], start: Instant) -> Result<Instant> {
        self.flush_shifted_at(0, ranges, start)
    }

    /// [`MemDevice::flush_at`] of `ranges` shifted by `base` (a region's
    /// window), so a region flushes without translating into a copy.
    pub(crate) fn flush_shifted_at(
        &self,
        base: u64,
        ranges: &[(u64, u64)],
        start: Instant,
    ) -> Result<Instant> {
        let mut lines = 0u64;
        for &(offset, len) in ranges {
            self.check(base + offset, len)?;
            lines += len.div_ceil(CACHE_LINE).max(1);
        }
        self.stats.record_flush();
        if self.profile.persistence == PersistenceMode::Flush {
            if let Some(image) = self.durable.lock().as_mut() {
                for &(offset, len) in ranges {
                    let at = (base + offset) as usize;
                    // SAFETY: bounds checked above.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            self.backing.ptr.add(at),
                            image.as_mut_ptr().add(at),
                            len as usize,
                        );
                    }
                }
            }
        }
        Ok(start
            + scaled_duration(
                self.profile
                    .flush_latency_ns
                    .saturating_add(self.profile.flush_line_ns.saturating_mul(lines)),
            ))
    }

    /// Enables crash simulation: from this point on the device tracks a
    /// durable image (initialised from current contents) that [`crash`]
    /// restores.
    ///
    /// [`crash`]: MemDevice::crash
    pub fn enable_crash_sim(&self) {
        let mut durable = self.durable.lock();
        if durable.is_none() {
            let mut image = vec![0u8; self.backing.capacity as usize].into_boxed_slice();
            // SAFETY: image has exactly `capacity` bytes.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.backing.ptr,
                    image.as_mut_ptr(),
                    self.backing.capacity as usize,
                );
            }
            *durable = Some(image);
        }
    }

    /// Simulates a power failure.
    ///
    /// A volatile device loses all contents (zeroed). A persistent device
    /// reverts to its durable image: every store that was not flushed (or
    /// not ADR-covered) disappears.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::CrashSimDisabled`] on a persistent device
    /// where [`MemDevice::enable_crash_sim`] was never called (a volatile
    /// device can always crash: it just zeroes).
    pub fn crash(&self) -> Result<()> {
        match self.profile.persistence {
            PersistenceMode::Volatile => {
                // SAFETY: in-bounds fill of the whole device.
                unsafe {
                    std::ptr::write_bytes(self.backing.ptr, 0, self.backing.capacity as usize);
                }
                Ok(())
            }
            PersistenceMode::Flush | PersistenceMode::Adr => {
                let durable = self.durable.lock();
                let image = durable.as_ref().ok_or(HybridMemError::CrashSimDisabled)?;
                // SAFETY: image has exactly `capacity` bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        image.as_ptr(),
                        self.backing.ptr,
                        self.backing.capacity as usize,
                    );
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MemKind;
    use std::sync::Arc;
    use std::time::Duration;

    fn dev(kind: MemKind) -> MemDevice {
        MemDevice::new(1, DeviceProfile::instant(kind), 4096).unwrap()
    }

    #[test]
    fn zero_capacity_rejected() {
        let err = MemDevice::new(0, DeviceProfile::instant(MemKind::Dram), 0).unwrap_err();
        assert_eq!(err, HybridMemError::InvalidCapacity { capacity: 0 });
    }

    #[test]
    fn write_read_roundtrip() {
        let d = dev(MemKind::Dram);
        d.write(100, b"gengar").unwrap();
        let mut buf = [0u8; 6];
        d.read(100, &mut buf).unwrap();
        assert_eq!(&buf, b"gengar");
    }

    #[test]
    fn fresh_device_is_zeroed() {
        let d = dev(MemKind::Nvm);
        let mut buf = [0xFFu8; 64];
        d.read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let d = dev(MemKind::Dram);
        let mut buf = [0u8; 16];
        let err = d.read(4090, &mut buf).unwrap_err();
        assert!(matches!(err, HybridMemError::OutOfBounds { .. }));
    }

    #[test]
    fn offset_overflow_rejected() {
        let d = dev(MemKind::Dram);
        let err = d.write(u64::MAX - 2, b"abcd").unwrap_err();
        assert!(matches!(err, HybridMemError::OutOfBounds { .. }));
    }

    #[test]
    fn fill_sets_bytes() {
        let d = dev(MemKind::Dram);
        d.fill(10, 20, 0xAB).unwrap();
        let mut buf = [0u8; 22];
        d.read(9, &mut buf).unwrap();
        assert_eq!(buf[0], 0);
        assert!(buf[1..21].iter().all(|&b| b == 0xAB));
        assert_eq!(buf[21], 0);
    }

    #[test]
    fn atomics_roundtrip() {
        let d = dev(MemKind::Dram);
        d.store_u64(64, 42).unwrap();
        assert_eq!(d.load_u64(64).unwrap(), 42);
        assert_eq!(d.cas_u64(64, 42, 43).unwrap(), 42);
        assert_eq!(d.load_u64(64).unwrap(), 43);
        // Failed CAS returns observed value, does not store.
        assert_eq!(d.cas_u64(64, 999, 7).unwrap(), 43);
        assert_eq!(d.load_u64(64).unwrap(), 43);
        assert_eq!(d.faa_u64(64, 10).unwrap(), 43);
        assert_eq!(d.load_u64(64).unwrap(), 53);
    }

    #[test]
    fn misaligned_atomic_rejected() {
        let d = dev(MemKind::Dram);
        assert_eq!(
            d.load_u64(3).unwrap_err(),
            HybridMemError::Misaligned { offset: 3 }
        );
    }

    #[test]
    fn concurrent_faa_is_atomic() {
        let d = Arc::new(dev(MemKind::Dram));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        d.faa_u64(0, 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(d.load_u64(0).unwrap(), 8000);
    }

    #[test]
    fn crash_zeroes_volatile_device() {
        let d = dev(MemKind::Dram);
        d.write(0, b"data").unwrap();
        d.crash().unwrap();
        let mut buf = [0xFFu8; 4];
        d.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    #[test]
    fn crash_reverts_unflushed_nvm_writes() {
        let d = dev(MemKind::Nvm);
        d.enable_crash_sim();
        d.write(0, b"durable!").unwrap();
        d.flush(0, 8).unwrap();
        d.write(0, b"volatile").unwrap(); // never flushed
        d.crash().unwrap();
        let mut buf = [0u8; 8];
        d.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"durable!");
    }

    #[test]
    fn crash_without_sim_on_nvm_fails() {
        let d = dev(MemKind::Nvm);
        assert_eq!(d.crash().unwrap_err(), HybridMemError::CrashSimDisabled);
    }

    #[test]
    fn adr_device_survives_crash_without_flush() {
        let mut p = DeviceProfile::instant(MemKind::Dram);
        p.persistence = PersistenceMode::Adr;
        let d = MemDevice::new(7, p, 4096).unwrap();
        d.enable_crash_sim();
        d.write(16, b"staged").unwrap();
        d.crash().unwrap();
        let mut buf = [0u8; 6];
        d.read(16, &mut buf).unwrap();
        assert_eq!(&buf, b"staged");
    }

    #[test]
    fn adr_atomics_survive_crash() {
        let mut p = DeviceProfile::instant(MemKind::Dram);
        p.persistence = PersistenceMode::Adr;
        let d = MemDevice::new(7, p, 4096).unwrap();
        d.enable_crash_sim();
        d.store_u64(8, 11).unwrap();
        d.faa_u64(8, 4).unwrap();
        d.cas_u64(8, 15, 99).unwrap();
        d.crash().unwrap();
        assert_eq!(d.load_u64(8).unwrap(), 99);
    }

    /// An NVM-like profile with round numbers: 1 B/ns channels, so every
    /// modelled cost is an exact count of nanoseconds.
    fn timed() -> MemDevice {
        let mut p = DeviceProfile::instant(MemKind::Nvm);
        p.read_latency_ns = 300;
        p.write_latency_ns = 100;
        p.flush_latency_ns = 250;
        p.flush_line_ns = 8;
        p.read_bw_bytes_per_sec = 1_000_000_000;
        p.write_bw_bytes_per_sec = 1_000_000_000;
        MemDevice::new(2, p, 1 << 16).unwrap()
    }

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    /// `read_at` from `start` leaves the read channel busy until exactly
    /// `start + latency + transfer`, queues a second read behind the
    /// first, and the blocking `read` leaves the channel where its own
    /// start would: between the call and the return, one cost after it
    /// began.
    #[test]
    fn read_at_advances_the_read_channel_like_read() {
        let _g = crate::latency::SCALE_LOCK.lock().unwrap();
        crate::latency::set_time_scale(1.0);
        let xfer = Duration::from_secs_f64(4096.0 / 1e9);
        let d = timed();
        let mut buf = vec![0u8; 4096];
        let start = Instant::now() + ns(1_000_000);
        let end = d.read_at(0, &mut buf, start).unwrap();
        assert_eq!(end, start + ns(300) + xfer);
        assert_eq!(d.read_bw.next_free(), end);
        let second = d.read_at(0, &mut buf, start).unwrap();
        assert_eq!(second, end + xfer, "a second read queues on the channel");

        let d = timed();
        let before = Instant::now();
        d.read(0, &mut buf).unwrap();
        let after = Instant::now();
        let free = d.read_bw.next_free();
        assert!(free >= before + ns(300) + xfer && free <= after);
        assert!(after - before >= ns(300) + xfer);
    }

    /// `store_u64_at` charges one write latency from `start` and touches
    /// no channel; the blocking `store_u64` waits that long. Both land the
    /// value at once.
    #[test]
    fn store_u64_at_charges_what_store_u64_waits() {
        let _g = crate::latency::SCALE_LOCK.lock().unwrap();
        crate::latency::set_time_scale(1.0);
        let d = timed();
        let free = d.write_bw.next_free();
        let start = Instant::now() + ns(1_000_000);
        assert_eq!(d.store_u64_at(8, 7, start).unwrap(), start + ns(100));
        assert_eq!(d.load_u64(8).unwrap(), 7);
        assert_eq!(d.write_bw.next_free(), free);
        let before = Instant::now();
        d.store_u64(8, 9).unwrap();
        assert!(before.elapsed() >= ns(100));
        assert_eq!(d.load_u64(8).unwrap(), 9);
        assert_eq!(d.write_bw.next_free(), free);
    }

    /// One multi-range `flush_at` is one fence plus every range's lines,
    /// counted as one flush; it persists every range. Flushing the same
    /// ranges one call each pays one fence per call, as blocking `flush`
    /// does.
    #[test]
    fn multi_range_flush_charges_one_fence() {
        let _g = crate::latency::SCALE_LOCK.lock().unwrap();
        crate::latency::set_time_scale(1.0);
        let d = timed();
        d.enable_crash_sim();
        d.write_at(0, &[1u8; 64], Instant::now()).unwrap();
        d.write_at(4096, &[2u8; 130], Instant::now()).unwrap();
        d.write_at(8192, &[3u8; 8], Instant::now()).unwrap();
        let start = Instant::now();
        let ranges = [(0, 64), (4096, 130)];
        let end = d.flush_at(&ranges, start).unwrap();
        assert_eq!(end, start + ns(250 + 8 * (1 + 3)));
        assert_eq!(d.stats().snapshot().flushes, 1);
        let one_by_one = ranges
            .iter()
            .fold(start, |at, &r| d.flush_at(&[r], at).unwrap());
        assert_eq!(one_by_one, start + ns(2 * 250 + 8 * (1 + 3)));
        assert_eq!(d.stats().snapshot().flushes, 3);
        let before = Instant::now();
        d.flush(0, 64).unwrap();
        assert!(before.elapsed() >= ns(250 + 8));

        assert!(d.flush_at(&[(0, 8), (1 << 16, 8)], start).is_err());
        d.crash().unwrap();
        let (mut a, mut b, mut c) = ([0u8; 64], [0u8; 130], [0u8; 8]);
        d.read(0, &mut a).unwrap();
        d.read(4096, &mut b).unwrap();
        d.read(8192, &mut c).unwrap();
        assert_eq!((a, b, c), ([1u8; 64], [2u8; 130], [0u8; 8]));
    }

    /// The plain copies charge nothing and count nothing, on a timed
    /// device too, and stay bounds-checked.
    #[test]
    fn plain_copies_are_uncounted_and_bounds_checked() {
        let d = timed();
        d.copy_in(8, b"plain").unwrap();
        let mut buf = [0u8; 5];
        d.copy_out(8, &mut buf).unwrap();
        assert_eq!(&buf, b"plain");
        let s = d.stats().snapshot();
        assert_eq!((s.reads, s.writes), (0, 0));
        assert!(d.copy_out(d.capacity() - 2, &mut buf).is_err());
        assert!(d.copy_in(u64::MAX, &buf).is_err());
    }

    #[test]
    fn stats_count_accesses() {
        let d = dev(MemKind::Nvm);
        d.write(0, &[1, 2, 3]).unwrap();
        let mut b = [0u8; 3];
        d.read(0, &mut b).unwrap();
        d.flush(0, 3).unwrap();
        let s = d.stats().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.write_bytes, 3);
        assert_eq!(s.reads, 1);
        assert_eq!(s.read_bytes, 3);
        assert_eq!(s.flushes, 1);
    }
}
