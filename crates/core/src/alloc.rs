//! The one allocator of a server's memory: its NVM object pool, its DRAM
//! cache and its NVM demote area each carve their region with a
//! [`RegionAllocator`].
//!
//! Requests (an object with its [`crate::layout::OBJ_HEADER`], or a cache
//! frame with its header and tail) round to two-level TLSF-style size
//! classes: a power-of-two first level split into eight linear subclasses
//! (granule `2^(k-3)`, never below the 64 B alignment unit), so a block
//! wastes less than one granule, about 12.5 %. A 4 KiB object (4 112 B
//! with its header) takes a 4 608 B block, not the 8 KiB a power-of-two
//! slab would pay. Freed blocks return to an exact-block-size free list;
//! fresh blocks come from a bump pointer. A map of live blocks gives size
//! lookup and catches a double or mismatched free.

use std::collections::HashMap;

use crate::addr::{GlobalAddr, MemClass};
use crate::error::GengarError;

/// Smallest block handed out (one cache line).
pub const MIN_CLASS: u64 = 64;
/// Largest block handed out.
pub const MAX_CLASS: u64 = 16 << 20;

/// Point-in-time allocator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Live allocations.
    pub live: u64,
    /// Bytes handed to live allocations (block sizes, not payload sizes).
    pub live_bytes: u64,
    /// Bytes ever drawn from the bump pointer.
    pub bump_bytes: u64,
    /// Total allocation calls served.
    pub allocs: u64,
    /// Total frees served.
    pub frees: u64,
}

/// Subclass allocator over a `[base, base+capacity)` byte range of one
/// memory region.
#[derive(Debug)]
pub struct RegionAllocator {
    base: u64,
    capacity: u64,
    /// The region's class, named in the [`GengarError::DoubleFree`] a bad
    /// free returns.
    class: MemClass,
    bump: u64,
    /// block size -> free offsets of exactly that block size.
    free_lists: HashMap<u64, Vec<u64>>,
    /// offset -> block size of the live block.
    live: HashMap<u64, u64>,
    stats: AllocStats,
}

impl RegionAllocator {
    /// Creates an allocator over `[base, base+capacity)` of a `class`
    /// region.
    pub fn new(base: u64, capacity: u64, class: MemClass) -> Self {
        RegionAllocator {
            base,
            capacity,
            class,
            bump: base,
            free_lists: HashMap::new(),
            live: HashMap::new(),
            stats: AllocStats::default(),
        }
    }

    /// Total managed bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Rounds `size` to its block size, or `None` if unallocatable.
    pub fn block_size(size: u64) -> Option<u64> {
        if size == 0 || size > MAX_CLASS {
            return None;
        }
        let size = size.max(MIN_CLASS);
        // Granule: 1/8 of the enclosing power of two, but never below the
        // 64-byte alignment unit.
        let k = 63 - size.leading_zeros() as u64;
        let granule = (1u64 << k.saturating_sub(3)).max(MIN_CLASS);
        Some(size.div_ceil(granule) * granule)
    }

    /// Allocates a block of at least `size` bytes, returning its offset
    /// (64-byte aligned).
    ///
    /// # Errors
    ///
    /// [`GengarError::ObjectTooLarge`] beyond the largest class;
    /// [`GengarError::OutOfMemory`] when the region is exhausted.
    pub fn alloc(&mut self, size: u64) -> Result<u64, GengarError> {
        let block = Self::block_size(size).ok_or(GengarError::ObjectTooLarge {
            requested: size,
            max: MAX_CLASS,
        })?;
        let recycled = self.free_lists.get_mut(&block).and_then(Vec::pop);
        let offset = if let Some(off) = recycled {
            off
        } else {
            let end = self
                .bump
                .checked_add(block)
                .ok_or(GengarError::OutOfMemory { requested: size })?;
            if end > self.base + self.capacity {
                return Err(GengarError::OutOfMemory { requested: size });
            }
            let off = self.bump;
            self.bump = end;
            self.stats.bump_bytes += block;
            off
        };
        self.live.insert(offset, block);
        self.stats.live += 1;
        self.stats.live_bytes += block;
        self.stats.allocs += 1;
        Ok(offset)
    }

    /// Frees the block at `offset`, returning its block size.
    ///
    /// # Errors
    ///
    /// [`GengarError::DoubleFree`], naming this region's class, when
    /// `offset` is not a live block (this also catches double frees).
    pub fn free(&mut self, offset: u64) -> Result<u64, GengarError> {
        let block = self.live.remove(&offset).ok_or_else(|| {
            GengarError::DoubleFree(GlobalAddr::new(0, self.class, offset & ((1 << 48) - 1)))
        })?;
        self.free_lists.entry(block).or_default().push(offset);
        self.stats.live -= 1;
        self.stats.live_bytes -= block;
        self.stats.frees += 1;
        Ok(block)
    }

    /// Block size of the live block at `offset`, if any.
    pub fn size_of(&self, offset: u64) -> Option<u64> {
        self.live.get(&offset).copied()
    }

    /// Returns whether `offset` is a live block.
    pub fn is_live(&self, offset: u64) -> bool {
        self.live.contains_key(&offset)
    }

    /// Allocator statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_rounding() {
        assert_eq!(RegionAllocator::block_size(1), Some(64));
        assert_eq!(RegionAllocator::block_size(64), Some(64));
        assert_eq!(RegionAllocator::block_size(65), Some(128));
        assert_eq!(RegionAllocator::block_size(4096), Some(4096));
        assert_eq!(RegionAllocator::block_size(MAX_CLASS), Some(MAX_CLASS));
        assert_eq!(RegionAllocator::block_size(MAX_CLASS + 1), None);
        assert_eq!(RegionAllocator::block_size(0), None);
    }

    #[test]
    fn alloc_returns_aligned_disjoint_blocks() {
        let mut a = RegionAllocator::new(4096, 1 << 20, MemClass::Nvm);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(100).unwrap();
        assert_ne!(x, y);
        assert_eq!(x % 64, 0);
        assert!(x >= 4096);
        assert!(y >= x + 128 || x >= y + 128);
    }

    #[test]
    fn free_recycles_blocks() {
        let mut a = RegionAllocator::new(0, 1 << 20, MemClass::Nvm);
        let x = a.alloc(200).unwrap();
        assert_eq!(a.free(x).unwrap(), 256);
        let y = a.alloc(200).unwrap();
        assert_eq!(x, y, "freed block should be reused");
    }

    #[test]
    fn double_free_detected() {
        let mut a = RegionAllocator::new(0, 1 << 20, MemClass::Nvm);
        let x = a.alloc(64).unwrap();
        a.free(x).unwrap();
        assert!(matches!(a.free(x), Err(GengarError::DoubleFree(_))));
        assert!(matches!(a.free(12345), Err(GengarError::DoubleFree(_))));
    }

    #[test]
    fn exhaustion_reported() {
        let mut a = RegionAllocator::new(0, 256, MemClass::Nvm);
        a.alloc(128).unwrap();
        a.alloc(128).unwrap();
        assert!(matches!(a.alloc(128), Err(GengarError::OutOfMemory { .. })));
    }

    #[test]
    fn too_large_reported() {
        let mut a = RegionAllocator::new(0, 1 << 30, MemClass::Nvm);
        assert!(matches!(
            a.alloc(MAX_CLASS + 1),
            Err(GengarError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn stats_track_lifecycle() {
        let mut a = RegionAllocator::new(0, 1 << 20, MemClass::Nvm);
        let x = a.alloc(64).unwrap();
        let _y = a.alloc(64).unwrap();
        a.free(x).unwrap();
        let s = a.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.live, 1);
        assert_eq!(s.live_bytes, 64);
        assert_eq!(s.bump_bytes, 128);
    }

    #[test]
    fn size_lookup() {
        let mut a = RegionAllocator::new(0, 1 << 20, MemClass::Nvm);
        let x = a.alloc(500).unwrap();
        assert_eq!(a.size_of(x), Some(512));
        assert!(a.is_live(x));
        a.free(x).unwrap();
        assert_eq!(a.size_of(x), None);
        assert!(!a.is_live(x));
    }

    #[test]
    fn frame_rounding_is_subclass_granular() {
        // Exact powers of two stay exact.
        assert_eq!(RegionAllocator::block_size(64), Some(64));
        assert_eq!(RegionAllocator::block_size(16384), Some(16384));
        // Just past a power of two costs one granule, not a doubling: a
        // 16 KiB payload's 16424-byte frame fits in 18 KiB, not 32 KiB.
        assert_eq!(RegionAllocator::block_size(16424), Some(16384 + 2048));
        assert_eq!(RegionAllocator::block_size(104), Some(128));
        // Granule clamps to the 64-byte alignment unit for tiny frames.
        assert_eq!(RegionAllocator::block_size(65), Some(128));
        assert_eq!(RegionAllocator::block_size(1), Some(64));
        assert_eq!(RegionAllocator::block_size(0), None);
        assert_eq!(RegionAllocator::block_size(MAX_CLASS), Some(MAX_CLASS));
        assert_eq!(RegionAllocator::block_size(MAX_CLASS + 1), None);
        // NVM objects with their 16 B header: 1, 4 and 8 KiB payloads.
        assert_eq!(RegionAllocator::block_size(1024 + 16), Some(1152));
        assert_eq!(RegionAllocator::block_size(4096 + 16), Some(4608));
        assert_eq!(RegionAllocator::block_size(8192 + 16), Some(9216));
    }

    #[test]
    fn frame_alloc_packs_denser_than_slab() {
        // 16 KiB payloads (16424-byte frames) in 1 MiB: a power-of-two
        // slab would fit 32, the subclass rule at least 50.
        let mut a = RegionAllocator::new(0, 1 << 20, MemClass::DramCache);
        let mut n = 0;
        while a.alloc(16424).is_ok() {
            n += 1;
        }
        assert!(n >= 50, "only {n} frames packed");
    }

    #[test]
    fn frame_free_recycles_and_detects_double_free() {
        let mut a = RegionAllocator::new(0, 1 << 20, MemClass::DramCache);
        let x = a.alloc(16424).unwrap();
        assert_eq!(a.size_of(x), Some(18432));
        assert_eq!(a.free(x).unwrap(), 18432);
        let y = a.alloc(16424).unwrap();
        assert_eq!(x, y, "freed frame should be reused");
        a.free(y).unwrap();
        assert!(matches!(a.free(y), Err(GengarError::DoubleFree(_))));
        let s = a.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 2);
        assert_eq!(s.live, 0);
        assert_eq!(s.bump_bytes, 18432, "second alloc recycled, no new bump");
    }

    #[test]
    fn double_free_names_the_region_class() {
        for class in [MemClass::Nvm, MemClass::DramCache] {
            let mut a = RegionAllocator::new(0, 1 << 20, class);
            let x = a.alloc(4112).unwrap();
            a.free(x).unwrap();
            match a.free(x) {
                Err(GengarError::DoubleFree(addr)) => {
                    assert_eq!(addr.class(), class);
                    assert_eq!(addr.offset(), x);
                }
                other => panic!("expected DoubleFree, got {other:?}"),
            }
        }
    }
}
