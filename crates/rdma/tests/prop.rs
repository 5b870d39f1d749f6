//! Property-based tests of the verbs substrate.

use std::sync::Arc;

use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind, MemRegion};
use gengar_rdma::{Access, Endpoint, Fabric, FabricConfig, Payload, QpOptions, RemoteAddr, Sge};
use proptest::prelude::*;

const CAP: u64 = 1 << 16;

struct Bed {
    ep: Endpoint,
    local: Arc<gengar_rdma::MemoryRegion>,
    remote: Arc<gengar_rdma::MemoryRegion>,
    _fabric: Arc<Fabric>,
    _peer: Endpoint,
}

fn bed() -> Bed {
    let fabric = Fabric::new(FabricConfig::instant());
    let a = fabric.add_node();
    let b = fabric.add_node();
    let a_pd = a.alloc_pd();
    let b_pd = b.alloc_pd();
    let a_dev = Arc::new(MemDevice::new(0, DeviceProfile::instant(MemKind::Dram), CAP).unwrap());
    let b_dev = Arc::new(MemDevice::new(1, DeviceProfile::instant(MemKind::Nvm), CAP).unwrap());
    let local = a_pd.reg_mr(MemRegion::whole(a_dev), Access::all()).unwrap();
    let remote = b_pd.reg_mr(MemRegion::whole(b_dev), Access::all()).unwrap();
    let (ep, peer) = Endpoint::pair((&a, &a_pd), (&b, &b_pd), QpOptions::default()).unwrap();
    Bed {
        ep,
        local,
        remote,
        _fabric: fabric,
        _peer: peer,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// WRITE then READ of arbitrary in-bounds ranges returns the data.
    #[test]
    fn remote_write_read_roundtrips(
        offset in 0u64..CAP,
        data in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        let bed = bed();
        let len = data.len() as u64;
        prop_assume!(offset + len <= CAP);
        bed.ep
            .write(Payload::Inline(data.clone()).into_sized(&bed, &data),
                   RemoteAddr::new(bed.remote.rkey(), offset))
            .unwrap();
        bed.ep
            .read(Sge::new(bed.local.lkey(), 0, len), RemoteAddr::new(bed.remote.rkey(), offset))
            .unwrap();
        let mut out = vec![0u8; data.len()];
        bed.local.region().read(0, &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    /// Out-of-bounds remote accesses always fail and never corrupt memory.
    #[test]
    fn out_of_bounds_always_rejected(offset in CAP - 64..CAP + 4096, len in 65u64..8192) {
        let bed = bed();
        prop_assume!(offset + len > CAP);
        let result = bed.ep.read(
            Sge::new(bed.local.lkey(), 0, len.min(CAP)),
            RemoteAddr::new(bed.remote.rkey(), offset),
        );
        prop_assert!(result.is_err());
    }

    /// A random sequence of remote CAS/FAA matches a local u64 model.
    #[test]
    fn atomics_match_model(ops in proptest::collection::vec((0u8..2, any::<u64>()), 1..40)) {
        let bed = bed();
        let mut model = 0u64;
        for (op, v) in ops {
            let sge = Sge::new(bed.local.lkey(), 0, 8);
            let target = RemoteAddr::new(bed.remote.rkey(), 256);
            match op {
                0 => {
                    bed.ep.fetch_add(sge, target, v).unwrap();
                    let mut prev = [0u8; 8];
                    bed.local.region().read(0, &mut prev).unwrap();
                    prop_assert_eq!(u64::from_le_bytes(prev), model);
                    model = model.wrapping_add(v);
                }
                _ => {
                    bed.ep.compare_swap(sge, target, model, v).unwrap();
                    let mut prev = [0u8; 8];
                    bed.local.region().read(0, &mut prev).unwrap();
                    prop_assert_eq!(u64::from_le_bytes(prev), model);
                    model = v;
                }
            }
        }
        prop_assert_eq!(bed.remote.region().load_u64(256).unwrap(), model);
    }

    /// SEND delivers payloads to posted receives in FIFO order.
    #[test]
    fn sends_preserve_order(msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..128), 1..16)) {
        let bed = bed();
        for (i, _) in msgs.iter().enumerate() {
            bed._peer
                .post_recv(Sge::new(bed.remote.lkey(), (i as u64) * 256, 256))
                .unwrap();
        }
        for msg in &msgs {
            bed.ep.send(Payload::Inline(msg.clone()), None).unwrap();
        }
        for (i, msg) in msgs.iter().enumerate() {
            let wc = bed._peer.recv(std::time::Duration::from_secs(2)).unwrap();
            prop_assert_eq!(wc.byte_len as usize, msg.len());
            let mut got = vec![0u8; msg.len()];
            bed.remote.region().read((i as u64) * 256, &mut got).unwrap();
            prop_assert_eq!(&got, msg);
        }
    }
}

/// Helper so inline payloads over the 220-byte inline limit fall back to an
/// SGE.
trait IntoSized {
    fn into_sized(self, bed: &Bed, data: &[u8]) -> Payload;
}

impl IntoSized for Payload {
    fn into_sized(self, bed: &Bed, data: &[u8]) -> Payload {
        match self {
            Payload::Inline(bytes) if bytes.len() > 220 => {
                bed.local.region().write(8192, data).unwrap();
                Payload::Sge(Sge::new(bed.local.lkey(), 8192, data.len() as u64))
            }
            other => other,
        }
    }
}
