//! The one fast hasher for the issue path's maps.
//!
//! Every key on the issue path is a small integer: an MR key, a queue-pair
//! number, a node id or pair, a server id, a raw global address. SipHash
//! (`std`'s default) spends tens of nanoseconds per lookup defending
//! against adversarial keys no one here can choose. [`FastHasher`] is the
//! multiply-rotate hasher of rustc-hash 2: each word is added and
//! multiplied by one odd constant, and `finish` rotates the product left
//! by 26 bits.
//!
//! The rotation is not optional. Object bases are 4 KiB-aligned, so their
//! low twelve bits are zero, and a multiply only moves entropy *up*: every
//! product of such keys has twelve zero low bits as well. hashbrown picks
//! a bucket from a hash's low bits, so without the final mix every object
//! base lands in one bucket in 4096 and lookups degrade to a linear probe.
//! The rotation brings the best-mixed high bits of the product down.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// rustc-hash 2's multiplier: odd, with its bits spread over both halves.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-rotate hasher for small integer keys (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
        // Length-tag the bytes so `[0]` and `[0, 0]` differ.
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FastHasher`]s.
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A `HashSet` keyed through [`FastHasher`].
pub type FastSet<K> = HashSet<K, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        FastBuild::default().hash_one(key)
    }

    /// Share of distinct values among the low 16 bits of the hashes of
    /// 65 536 consecutive 4 KiB-aligned object bases above `base`.
    fn low_bits_spread(base: u64) -> f64 {
        let mut seen = vec![false; 1 << 16];
        for k in 0..1u64 << 16 {
            seen[(hash(base + k * 4096) & 0xffff) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count() as f64 / (1 << 16) as f64
    }

    /// Bases that set the server byte (bits 56–63) and the memory-class
    /// byte (bits 48–55) of a raw global address. A random function keeps
    /// about 63 % of the low-16-bit values distinct over this many keys;
    /// a multiply without the final rotation keeps 16 of 65 536.
    #[test]
    fn aligned_bases_spread_over_the_low_bits() {
        for (server, class) in [(0u64, 0u64), (0, 1), (3, 0), (3, 1), (255, 2)] {
            let base = server << 56 | class << 48 | 0x40_0000;
            let spread = low_bits_spread(base);
            assert!(
                spread >= 0.5,
                "server {server} class {class}: {:.2} % distinct",
                spread * 100.0
            );
        }
    }

    #[test]
    fn maps_and_sets_work_over_every_key_shape() {
        let mut m: FastMap<(u32, u32), u8> = FastMap::default();
        m.insert((1, 2), 7);
        m.insert((2, 1), 9);
        assert_eq!(m.get(&(1, 2)), Some(&7));
        assert_eq!(m.get(&(2, 1)), Some(&9));
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(4096));
        assert!(!s.insert(4096));
        assert_ne!(
            FastBuild::default().hash_one(&[0u8][..]),
            FastBuild::default().hash_one(&[0u8, 0][..])
        );
    }
}
