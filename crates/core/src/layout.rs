//! On-media layouts: object headers in NVM, cache-slot frames in DRAM,
//! staged-write records in the proxy rings — plus the checksum that guards
//! them against torn RDMA reads.

/// Size of the per-object header preceding every payload in NVM:
/// `[lock/version word u64][payload_len u64]`.
pub const OBJ_HEADER: u64 = 16;

/// Offset of the lock/version word within the header.
pub const OBJ_WORD_OFF: u64 = 16; // subtract from payload base

/// Cache-slot frame preceding the cached payload in server DRAM:
/// `[tag u64][version u64][checksum u64][len u64]`. The payload is followed
/// by an 8-byte *tail version* ([`SLOT_TAIL`]): readers accept a frame only
/// when the head and tail versions match and are even (FaRM-style), which
/// detects torn one-sided reads without a read-side checksum pass. The
/// checksum word is written at promotion for diagnostics; in-place updates
/// clear it.
pub const SLOT_HEADER: u64 = 32;

/// Size of the cache-slot tail version trailing the payload.
pub const SLOT_TAIL: u64 = 8;

/// Staged-record header in a proxy ring slot:
/// `[seq u64][addr u64][len u64][checksum u64][trace u64][tenant u32][epoch u32]`.
/// The trace word carries the originating op's trace id across the
/// client→proxy→drain handoff, so the server's asynchronous NVM drain can
/// open a span in the same causal trace (0 = untraced record). The tenant
/// word carries the compact QoS tenant tag so the drain can account
/// durable bytes to the tenant after the client-visible ack (0 = no
/// tenant / QoS off). The epoch word carries the replica epoch of the
/// mirror lane the record was staged under (0 = unreplicated): a backup
/// ring id can be reused across mirror tenures, and promotion replay must
/// not apply a stale tenure's leftover records, so the backup only accepts
/// records stamped with the ring's current epoch.
pub const RECORD_HEADER: u64 = 48;

/// FNV-1a 64-bit hash, used as the torn-read/torn-record checksum.
///
/// RDMA reads larger than 8 bytes are not atomic with respect to concurrent
/// writes; real systems (FaRM, Pilaf) guard against torn data with per-line
/// versions or checksums. Gengar's cache slots and staged records embed this
/// checksum so readers/recovery can reject partially-updated frames.
pub fn checksum(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    // FNV-1a over 8-byte words (plus a byte-wise tail): same mixing
    // quality for torn-read detection at an eighth of the cost, which
    // matters because readers checksum every cached payload.
    let mut h = OFFSET ^ (data.len() as u64).wrapping_mul(PRIME);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Helpers for the object lock/version word.
///
/// Bit 0 is the writer-lock bit; bits 1..64 hold the version. Writers
/// acquire the word with RDMA CAS, bump the version on release.
pub mod lockword {
    /// Initial word: version 0, unlocked.
    pub const INIT: u64 = 0;

    /// Returns the word with the lock bit set.
    pub fn locked(word: u64) -> u64 {
        word | 1
    }

    /// Returns whether the lock bit is set.
    pub fn is_locked(word: u64) -> bool {
        word & 1 == 1
    }

    /// Version component of the word.
    pub fn version(word: u64) -> u64 {
        word >> 1
    }

    /// Unlocked word carrying `version`.
    pub fn with_version(version: u64) -> u64 {
        version << 1
    }

    /// The word a releasing writer publishes: version bumped, lock clear.
    pub fn release(locked_word: u64) -> u64 {
        with_version(version(locked_word) + 1)
    }

    /// The unlocked word a lock CAS should expect after observing `word`
    /// (by READ, or as the value a lost CAS returned): `word` itself if
    /// it is free, else what its holder will release it to.
    pub(crate) fn next_unlocked(word: u64) -> u64 {
        with_version(version(word) + (word & 1))
    }
}

/// Encodes a cache-slot frame header into `out[0..32]`.
pub fn encode_slot_header(out: &mut [u8], tag: u64, version: u64, cksum: u64, len: u64) {
    out[0..8].copy_from_slice(&tag.to_le_bytes());
    out[8..16].copy_from_slice(&version.to_le_bytes());
    out[16..24].copy_from_slice(&cksum.to_le_bytes());
    out[24..32].copy_from_slice(&len.to_le_bytes());
}

/// A decoded cache-slot frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHeader {
    /// Raw global address of the object this slot caches (0 = invalid).
    pub tag: u64,
    /// Seqlock version (even = stable).
    pub version: u64,
    /// Checksum of the payload bytes.
    pub checksum: u64,
    /// Payload length.
    pub len: u64,
}

/// Decodes a cache-slot frame header from `buf[0..32]`.
pub fn decode_slot_header(buf: &[u8]) -> SlotHeader {
    SlotHeader {
        tag: u64::from_le_bytes(buf[0..8].try_into().expect("32-byte header")),
        version: u64::from_le_bytes(buf[8..16].try_into().expect("32-byte header")),
        checksum: u64::from_le_bytes(buf[16..24].try_into().expect("32-byte header")),
        len: u64::from_le_bytes(buf[24..32].try_into().expect("32-byte header")),
    }
}

/// Encodes a staged-record header into `out[0..48]`.
#[allow(clippy::too_many_arguments)]
pub fn encode_record_header(
    out: &mut [u8],
    seq: u64,
    addr: u64,
    len: u64,
    cksum: u64,
    trace: u64,
    tenant: u32,
    epoch: u32,
) {
    out[0..8].copy_from_slice(&seq.to_le_bytes());
    out[8..16].copy_from_slice(&addr.to_le_bytes());
    out[16..24].copy_from_slice(&len.to_le_bytes());
    out[24..32].copy_from_slice(&cksum.to_le_bytes());
    out[32..40].copy_from_slice(&trace.to_le_bytes());
    out[40..44].copy_from_slice(&tenant.to_le_bytes());
    out[44..48].copy_from_slice(&epoch.to_le_bytes());
}

/// A decoded staged-record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Ring sequence number (starts at 1; 0 marks an empty slot).
    pub seq: u64,
    /// Raw global address of the write's destination.
    pub addr: u64,
    /// Payload length.
    pub len: u64,
    /// Checksum over the payload bytes.
    pub checksum: u64,
    /// Trace id of the originating client op (0 = untraced).
    pub trace: u64,
    /// Compact QoS tenant tag (0 = no tenant / QoS off).
    pub tenant: u32,
    /// Replica epoch of the mirror lane this record was staged under
    /// (0 = unreplicated). Guards a reused backup ring against replaying
    /// a stale tenure's leftover records at promotion.
    pub epoch: u32,
}

/// Decodes a staged-record header from `buf[0..48]`.
pub fn decode_record_header(buf: &[u8]) -> RecordHeader {
    RecordHeader {
        seq: u64::from_le_bytes(buf[0..8].try_into().expect("48-byte header")),
        addr: u64::from_le_bytes(buf[8..16].try_into().expect("48-byte header")),
        len: u64::from_le_bytes(buf[16..24].try_into().expect("48-byte header")),
        checksum: u64::from_le_bytes(buf[24..32].try_into().expect("48-byte header")),
        trace: u64::from_le_bytes(buf[32..40].try_into().expect("48-byte header")),
        tenant: u32::from_le_bytes(buf[40..44].try_into().expect("48-byte header")),
        epoch: u32::from_le_bytes(buf[44..48].try_into().expect("48-byte header")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"gengar");
        assert_eq!(a, checksum(b"gengar"));
        assert_ne!(a, checksum(b"gengaR"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn lockword_protocol() {
        use lockword::*;
        assert!(!is_locked(INIT));
        assert_eq!(version(INIT), 0);
        let l = locked(INIT);
        assert!(is_locked(l));
        assert_eq!(version(l), 0);
        let r = release(l);
        assert!(!is_locked(r));
        assert_eq!(version(r), 1);
        assert_eq!(version(release(locked(r))), 2);
        assert_eq!(with_version(7), 14);
    }

    #[test]
    fn slot_header_roundtrip() {
        let mut buf = [0u8; 32];
        encode_slot_header(&mut buf, 0xAABB, 42, 0xDEAD_BEEF, 4096);
        let h = decode_slot_header(&buf);
        assert_eq!(
            h,
            SlotHeader {
                tag: 0xAABB,
                version: 42,
                checksum: 0xDEAD_BEEF,
                len: 4096
            }
        );
    }

    #[test]
    fn record_header_roundtrip() {
        let mut buf = [0u8; RECORD_HEADER as usize];
        encode_record_header(&mut buf, 9, 0x0100_0000_0000_0040, 128, 77, 0xC0FFEE, 5, 3);
        let h = decode_record_header(&buf);
        assert_eq!(h.seq, 9);
        assert_eq!(h.addr, 0x0100_0000_0000_0040);
        assert_eq!(h.len, 128);
        assert_eq!(h.checksum, 77);
        assert_eq!(h.trace, 0xC0FFEE);
        assert_eq!(h.tenant, 5);
        assert_eq!(h.epoch, 3);
    }
}
