//! Windows onto devices.

use std::sync::Arc;
use std::time::Instant;

use crate::device::MemDevice;
use crate::error::HybridMemError;
use crate::Result;

/// A contiguous window `[base, base+len)` of a [`MemDevice`].
///
/// Regions are the unit handed to upper layers: an RDMA memory registration
/// covers a region, a Gengar memory server exports its NVM as a region, the
/// proxy staging ring lives in a DRAM region. All accesses use offsets
/// relative to the region base and are re-checked against the window.
#[derive(Debug, Clone)]
pub struct MemRegion {
    device: Arc<MemDevice>,
    base: u64,
    len: u64,
}

impl MemRegion {
    /// Creates a region covering `[base, base+len)` of `device`.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::InvalidRegion`] if the window is empty or
    /// exceeds the device capacity.
    pub fn new(device: Arc<MemDevice>, base: u64, len: u64) -> Result<Self> {
        if len == 0
            || base
                .checked_add(len)
                .is_none_or(|end| end > device.capacity())
        {
            return Err(HybridMemError::InvalidRegion { offset: base, len });
        }
        Ok(MemRegion { device, base, len })
    }

    /// A region covering the entire device.
    pub fn whole(device: Arc<MemDevice>) -> Self {
        let len = device.capacity();
        MemRegion {
            device,
            base: 0,
            len,
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<MemDevice> {
        &self.device
    }

    /// Start offset of the window on the device.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Window length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the window has zero length (never, by construction,
    /// but required by convention alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn translate(&self, offset: u64, len: u64) -> Result<u64> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(HybridMemError::OutOfBounds {
                offset,
                len,
                capacity: self.len,
            });
        }
        Ok(self.base + offset)
    }

    /// Carves a sub-window out of this region.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::InvalidRegion`] if the sub-window does not
    /// fit.
    pub fn subregion(&self, offset: u64, len: u64) -> Result<MemRegion> {
        if len == 0 || offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(HybridMemError::InvalidRegion { offset, len });
        }
        Ok(MemRegion {
            device: Arc::clone(&self.device),
            base: self.base + offset,
            len,
        })
    }

    /// Reads `dst.len()` bytes at region-relative `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the access leaves the
    /// window.
    pub fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        let abs = self.translate(offset, dst.len() as u64)?;
        self.device.read(abs, dst)
    }

    /// Deferred-timing read (see [`MemDevice::read_at`]): bytes are copied
    /// now, the modelled cost is charged from `start`, and the completion
    /// instant is returned.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the access leaves the
    /// window.
    pub fn read_at(&self, offset: u64, dst: &mut [u8], start: Instant) -> Result<Instant> {
        let abs = self.translate(offset, dst.len() as u64)?;
        self.device.read_at(abs, dst, start)
    }

    /// Writes `src` at region-relative `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the access leaves the
    /// window.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<()> {
        let abs = self.translate(offset, src.len() as u64)?;
        self.device.write(abs, src)
    }

    /// Deferred-timing write (see [`MemDevice::write_at`]): data lands
    /// now, the modelled cost is charged from `start`, and the completion
    /// instant is returned.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the access leaves the
    /// window.
    pub fn write_at(&self, offset: u64, src: &[u8], start: Instant) -> Result<Instant> {
        let abs = self.translate(offset, src.len() as u64)?;
        self.device.write_at(abs, src, start)
    }

    /// Fills `[offset, offset+len)` with `byte`.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the access leaves the
    /// window.
    pub fn fill(&self, offset: u64, len: u64, byte: u8) -> Result<()> {
        let abs = self.translate(offset, len)?;
        self.device.fill(abs, len, byte)
    }

    /// Copies `len` bytes from `src` (at region-relative `src_offset`) into
    /// this region at region-relative `dst_offset` with a single memcpy
    /// (the simulated DMA path; see [`MemDevice::copy_from`]).
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if either range leaves its
    /// window.
    pub fn copy_from(
        &self,
        dst_offset: u64,
        src: &MemRegion,
        src_offset: u64,
        len: u64,
    ) -> Result<()> {
        let dst_abs = self.translate(dst_offset, len)?;
        let src_abs = src.translate(src_offset, len)?;
        self.device.copy_from(dst_abs, &src.device, src_abs, len)
    }

    /// Deferred-timing copy (see [`MemDevice::copy_from_at`]): data lands
    /// now, the modelled DMA cost is charged from `start`, and the
    /// completion instant is returned.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if either range leaves its
    /// window.
    pub fn copy_from_at(
        &self,
        dst_offset: u64,
        src: &MemRegion,
        src_offset: u64,
        len: u64,
        start: Instant,
    ) -> Result<Instant> {
        let dst_abs = self.translate(dst_offset, len)?;
        let src_abs = src.translate(src_offset, len)?;
        self.device
            .copy_from_at(dst_abs, &src.device, src_abs, len, start)
    }

    /// Flushes `[offset, offset+len)` to the persistence domain.
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if the range leaves the
    /// window.
    pub fn flush(&self, offset: u64, len: u64) -> Result<()> {
        let abs = self.translate(offset, len)?;
        self.device.flush(abs, len)
    }

    /// Deferred-timing flush of region-relative `(offset, len)` ranges as
    /// one fenced batch (see [`MemDevice::flush_at`]).
    ///
    /// # Errors
    ///
    /// Returns [`HybridMemError::OutOfBounds`] if any range leaves the
    /// window; nothing is flushed then.
    pub fn flush_at(&self, ranges: &[(u64, u64)], start: Instant) -> Result<Instant> {
        for &(offset, len) in ranges {
            self.translate(offset, len)?;
        }
        self.device.flush_ranges_at(self.base, ranges, start)
    }

    /// Atomically loads the u64 at region-relative `offset`.
    ///
    /// # Errors
    ///
    /// Propagates device bounds/alignment errors.
    pub fn load_u64(&self, offset: u64) -> Result<u64> {
        let abs = self.translate(offset, 8)?;
        self.device.load_u64(abs)
    }

    /// Atomically stores the u64 at region-relative `offset`.
    ///
    /// # Errors
    ///
    /// Propagates device bounds/alignment errors.
    pub fn store_u64(&self, offset: u64, value: u64) -> Result<()> {
        let abs = self.translate(offset, 8)?;
        self.device.store_u64(abs, value)
    }

    /// Deferred-timing store at region-relative `offset` (see
    /// [`MemDevice::store_u64_at`]).
    ///
    /// # Errors
    ///
    /// Propagates device bounds/alignment errors.
    pub fn store_u64_at(&self, offset: u64, value: u64, start: Instant) -> Result<Instant> {
        let abs = self.translate(offset, 8)?;
        self.device.store_u64_at(abs, value, start)
    }

    /// Atomic compare-and-swap at region-relative `offset`.
    ///
    /// # Errors
    ///
    /// Propagates device bounds/alignment errors.
    pub fn cas_u64(&self, offset: u64, expected: u64, new: u64) -> Result<u64> {
        let abs = self.translate(offset, 8)?;
        self.device.cas_u64(abs, expected, new)
    }

    /// Deferred-timing compare-and-swap (see [`MemDevice::cas_u64_at`]).
    ///
    /// # Errors
    ///
    /// Propagates device bounds/alignment errors.
    pub fn cas_u64_at(
        &self,
        offset: u64,
        expected: u64,
        new: u64,
        start: Instant,
    ) -> Result<(u64, Instant)> {
        let abs = self.translate(offset, 8)?;
        self.device.cas_u64_at(abs, expected, new, start)
    }

    /// Atomic fetch-and-add at region-relative `offset`.
    ///
    /// # Errors
    ///
    /// Propagates device bounds/alignment errors.
    pub fn faa_u64(&self, offset: u64, delta: u64) -> Result<u64> {
        let abs = self.translate(offset, 8)?;
        self.device.faa_u64(abs, delta)
    }

    /// Deferred-timing fetch-and-add (see [`MemDevice::faa_u64_at`]).
    ///
    /// # Errors
    ///
    /// Propagates device bounds/alignment errors.
    pub fn faa_u64_at(&self, offset: u64, delta: u64, start: Instant) -> Result<(u64, Instant)> {
        let abs = self.translate(offset, 8)?;
        self.device.faa_u64_at(abs, delta, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DeviceProfile, MemKind};

    fn device() -> Arc<MemDevice> {
        Arc::new(MemDevice::new(0, DeviceProfile::instant(MemKind::Dram), 4096).unwrap())
    }

    #[test]
    fn region_offsets_are_relative() {
        let r = MemRegion::new(device(), 1024, 512).unwrap();
        r.write(0, b"abc").unwrap();
        let mut buf = [0u8; 3];
        r.device().read(1024, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn region_bounds_enforced() {
        let r = MemRegion::new(device(), 1024, 512).unwrap();
        assert!(r.write(510, b"abc").is_err());
        assert!(r.read(512, &mut [0u8; 1]).is_err());
    }

    #[test]
    fn invalid_window_rejected() {
        assert!(MemRegion::new(device(), 4000, 200).is_err());
        assert!(MemRegion::new(device(), 0, 0).is_err());
        assert!(MemRegion::new(device(), u64::MAX, 2).is_err());
    }

    #[test]
    fn whole_covers_device() {
        let r = MemRegion::whole(device());
        assert_eq!(r.base(), 0);
        assert_eq!(r.len(), 4096);
        assert!(!r.is_empty());
    }

    #[test]
    fn subregion_nests() {
        let r = MemRegion::new(device(), 1000, 1000).unwrap();
        let s = r.subregion(100, 200).unwrap();
        assert_eq!(s.base(), 1100);
        assert_eq!(s.len(), 200);
        assert!(r.subregion(900, 200).is_err());
        assert!(r.subregion(0, 0).is_err());
    }

    #[test]
    fn region_atomics_translate() {
        let r = MemRegion::new(device(), 512, 512).unwrap();
        r.store_u64(8, 5).unwrap();
        assert_eq!(r.load_u64(8).unwrap(), 5);
        assert_eq!(r.faa_u64(8, 2).unwrap(), 5);
        assert_eq!(r.cas_u64(8, 7, 9).unwrap(), 7);
        assert_eq!(r.device().load_u64(520).unwrap(), 9);
    }

    #[test]
    fn region_flush_and_fill() {
        let r = MemRegion::new(device(), 0, 128).unwrap();
        r.fill(0, 128, 0x7).unwrap();
        r.flush(0, 128).unwrap();
        let mut b = [0u8; 1];
        r.read(127, &mut b).unwrap();
        assert_eq!(b[0], 0x7);
    }
}
