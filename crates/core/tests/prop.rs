//! Property-based tests for Gengar's core data structures and protocols.

use gengar_core::addr::{GlobalAddr, MemClass};
use gengar_core::alloc::{SlabAllocator, MAX_CLASS};
use gengar_core::hotness::{
    decode_report, encode_report, AccessEntry, CountMinSketch, HotnessMonitor, MAX_REPORT,
};
use gengar_core::layout::{
    checksum, decode_record_header, decode_slot_header, encode_record_header, encode_slot_header,
    lockword,
};
use gengar_core::proto::{Request, Response};
use proptest::prelude::*;
use std::collections::HashMap;

fn class_strategy() -> impl Strategy<Value = MemClass> {
    prop_oneof![
        Just(MemClass::Nvm),
        Just(MemClass::DramCache),
        Just(MemClass::Staging),
        Just(MemClass::Control),
    ]
}

proptest! {
    /// GlobalAddr packing is lossless for every server/class/offset.
    #[test]
    fn addr_roundtrips(server in any::<u8>(), class in class_strategy(), offset in 0u64..(1 << 48)) {
        let a = GlobalAddr::new(server, class, offset);
        prop_assert_eq!(a.server(), server);
        prop_assert_eq!(a.class(), class);
        prop_assert_eq!(a.offset(), offset);
        prop_assert_eq!(GlobalAddr::from_raw(a.raw()), Some(a));
    }

    /// Live allocations never overlap and free/realloc preserves that.
    #[test]
    fn allocator_never_overlaps(ops in proptest::collection::vec((1u64..100_000, any::<bool>()), 1..120)) {
        let mut a = SlabAllocator::new(4096, 64 << 20);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (offset, block)
        for (size, free_one) in ops {
            if free_one && !live.is_empty() {
                let (off, _) = live.swap_remove(0);
                a.free(off).unwrap();
            } else {
                let off = a.alloc(size).unwrap();
                let block = SlabAllocator::block_size(size).unwrap();
                prop_assert_eq!(off % 64, 0, "misaligned block");
                prop_assert!(off >= 4096, "escaped the managed base");
                for &(o, b) in &live {
                    prop_assert!(off + block <= o || o + b <= off,
                        "overlap: [{off},{}) vs [{o},{})", off + block, o + b);
                }
                live.push((off, block));
            }
        }
        // Stats agree with the model.
        prop_assert_eq!(a.stats().live, live.len() as u64);
        for (off, _) in live {
            a.free(off).unwrap();
        }
        prop_assert_eq!(a.stats().live, 0);
    }

    /// Block sizes are monotone and cover requests exactly up to MAX_CLASS.
    #[test]
    fn block_size_covers_request(size in 1u64..=MAX_CLASS) {
        let block = SlabAllocator::block_size(size).unwrap();
        prop_assert!(block >= size);
        prop_assert!(block < size * 2 || block == 64);
        prop_assert!(block.is_power_of_two());
    }

    /// The count-min sketch never under-estimates.
    #[test]
    fn sketch_never_underestimates(adds in proptest::collection::vec((0u64..64, 1u32..50), 1..200)) {
        let mut sketch = CountMinSketch::new(128, 4);
        let mut truth: HashMap<u64, u32> = HashMap::new();
        for (key, count) in adds {
            sketch.add(key, count);
            *truth.entry(key).or_insert(0) += count;
        }
        for (key, count) in truth {
            prop_assert!(sketch.estimate(key) >= count);
        }
    }

    /// Monitor fold returns each seen address at least at its true count.
    #[test]
    fn monitor_scores_cover_counts(entries in proptest::collection::vec((0u64..32, 1u32..20), 1..64)) {
        let mut m = HotnessMonitor::with_policy(
            &gengar_core::CachePolicy::new(),
            gengar_telemetry::TelemetryConfig::disabled(),
        );
        let mut truth: HashMap<u64, u32> = HashMap::new();
        let batch: Vec<AccessEntry> = entries
            .iter()
            .map(|&(addr, count)| {
                *truth.entry(addr).or_insert(0) += count;
                AccessEntry { addr, count, wrote: false }
            })
            .collect();
        m.record(&batch);
        let folded: HashMap<u64, u32> = m.fold_epoch().into_iter().collect();
        for (addr, count) in truth {
            prop_assert!(folded[&addr] >= count);
        }
    }

    /// Protocol requests survive an encode/decode roundtrip.
    #[test]
    fn proto_request_roundtrips(size in any::<u64>(), addr in any::<u64>()) {
        let reqs = vec![
            Request::Mount { tenant: "prop-tenant".to_owned() },
            Request::Alloc { size },
            Request::Free { addr },
            Request::FlushRange { addr, len: size },
        ];
        for req in reqs {
            let mut buf = Vec::new();
            req.encode(addr, &mut buf);
            prop_assert_eq!(Request::decode(&buf).unwrap(), req);
        }
    }

    /// A report slot round-trips its seq and entries; a slot cut short or
    /// with any byte flipped (a torn one-sided WRITE) does not decode.
    #[test]
    fn report_slot_roundtrips_and_rejects_torn_or_short(
        seq in any::<u64>(),
        entries in proptest::collection::vec((any::<u64>(), any::<u32>(), any::<bool>()), 0..=MAX_REPORT),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let entries: Vec<AccessEntry> = entries
            .iter()
            .map(|&(addr, count, wrote)| AccessEntry { addr, count, wrote })
            .collect();
        let slot = encode_report(seq, &entries);
        prop_assert_eq!(decode_report(&slot), Some((seq, entries)));
        let cut = pos.index(slot.len());
        prop_assert_eq!(decode_report(&slot[..cut]), None);
        let mut torn = slot.clone();
        torn[cut] ^= flip;
        prop_assert_eq!(decode_report(&torn), None);
    }

    /// Arbitrary bytes never panic the decoders (they error or parse).
    #[test]
    fn proto_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = decode_report(&bytes);
    }

    /// Lock word: lock/release cycles preserve the version arithmetic.
    #[test]
    fn lockword_cycles(cycles in 1u64..1000) {
        let mut word = lockword::INIT;
        for i in 0..cycles {
            prop_assert!(!lockword::is_locked(word));
            prop_assert_eq!(lockword::version(word), i);
            word = lockword::locked(word);
            prop_assert!(lockword::is_locked(word));
            word = lockword::release(word);
        }
        prop_assert_eq!(lockword::version(word), cycles);
    }

    /// Slot and record headers roundtrip any field values.
    #[test]
    fn headers_roundtrip(
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        d in any::<u64>(),
        t in any::<u64>(),
        tenant in any::<u32>(),
        epoch in any::<u32>(),
    ) {
        let mut buf = [0u8; 32];
        encode_slot_header(&mut buf, a, b, c, d);
        let h = decode_slot_header(&buf);
        prop_assert_eq!((h.tag, h.version, h.stamp, h.len), (a, b, c, d));
        let mut buf = [0u8; 48];
        encode_record_header(&mut buf, a, b, c, d, t, tenant, epoch);
        let r = decode_record_header(&buf);
        prop_assert_eq!((r.seq, r.addr, r.len, r.checksum, r.trace, r.tenant, r.epoch), (a, b, c, d, t, tenant, epoch));
    }

    /// The checksum detects any single-byte corruption.
    #[test]
    fn checksum_detects_corruption(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let original = checksum(&data);
        let mut corrupted = data.clone();
        let i = pos.index(corrupted.len());
        corrupted[i] ^= flip;
        prop_assert_ne!(checksum(&corrupted), original);
    }
}
