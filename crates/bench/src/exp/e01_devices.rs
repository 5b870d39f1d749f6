//! E1 — device and verb characterisation (the paper's testbed table).
//!
//! Reports the raw latencies of the simulated devices (DRAM vs Optane-class
//! NVM, read vs write, small vs bulk) and of the RDMA verbs (READ, WRITE,
//! CAS round trips), the numbers every later experiment builds on.

use std::sync::Arc;

use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind, MemRegion};
use gengar_rdma::{Access, Endpoint, Fabric, FabricConfig, Payload, QpOptions, RemoteAddr, Sge};

use crate::table::{ns, Table};
use crate::{median_ns, Metrics, RunConfig};

fn device_row(table: &mut Table, name: &str, profile: DeviceProfile, iters: u64) {
    let dev = MemDevice::new(0, profile, 1 << 20).expect("device");
    let mut small = [0u8; 64];
    let mut bulk = vec![0u8; 64 << 10];
    let r64 = median_ns(iters, || dev.read(0, &mut small).expect("read"));
    let w64 = median_ns(iters, || dev.write(0, &small).expect("write"));
    let r64k = median_ns(iters / 2, || dev.read(0, &mut bulk).expect("read"));
    let w64k = median_ns(iters / 2, || dev.write(0, &bulk).expect("write"));
    let flush = median_ns(iters, || dev.flush(0, 64).expect("flush"));
    table.row(vec![
        name.to_owned(),
        ns(r64),
        ns(w64),
        ns(r64k),
        ns(w64k),
        ns(flush),
    ]);
}

/// Runs E1.
pub fn run(rc: &RunConfig) -> Metrics {
    let iters = rc.scale.ops(2_000);

    let mut devices = Table::new(
        "E1a: device characterisation",
        &[
            "device",
            "read 64B",
            "write 64B",
            "read 64K",
            "write 64K",
            "flush line",
        ],
    );
    device_row(&mut devices, "dram", DeviceProfile::dram(), iters);
    device_row(&mut devices, "optane-nvm", DeviceProfile::optane(), iters);
    device_row(&mut devices, "adr-dram", DeviceProfile::adr_dram(), iters);
    devices.print();

    // Verb round trips between two nodes, one MR of each kind.
    let fabric = Fabric::new(FabricConfig::infiniband_100g());
    let client = fabric.add_node();
    let server = fabric.add_node();
    let c_pd = client.alloc_pd();
    let s_pd = server.alloc_pd();
    let scratch = Arc::new(
        MemDevice::new(0, DeviceProfile::instant(MemKind::Dram), 1 << 20).expect("scratch"),
    );
    let local = c_pd
        .reg_mr(MemRegion::whole(scratch), Access::all())
        .expect("local mr");

    let mut verbs = Table::new(
        "E1b: verb round trips (100 Gb/s fabric)",
        &[
            "target",
            "READ 64B",
            "READ 4K",
            "WRITE 64B",
            "WRITE 4K",
            "CAS 8B",
        ],
    );
    for (name, profile) in [
        ("remote DRAM", DeviceProfile::dram()),
        ("remote NVM", DeviceProfile::optane()),
    ] {
        let dev = Arc::new(MemDevice::new(1, profile, 1 << 20).expect("device"));
        let mr = s_pd
            .reg_mr(MemRegion::whole(dev), Access::all())
            .expect("mr");
        let (ep, _peer) = Endpoint::pair((&client, &c_pd), (&server, &s_pd), QpOptions::default())
            .expect("endpoints");
        let r64 = median_ns(iters, || {
            ep.read(Sge::new(local.lkey(), 0, 64), RemoteAddr::new(mr.rkey(), 0))
                .expect("read");
        });
        let r4k = median_ns(iters, || {
            ep.read(
                Sge::new(local.lkey(), 0, 4096),
                RemoteAddr::new(mr.rkey(), 0),
            )
            .expect("read");
        });
        let w64 = median_ns(iters, || {
            ep.write(
                Payload::Sge(Sge::new(local.lkey(), 0, 64)),
                RemoteAddr::new(mr.rkey(), 0),
            )
            .expect("write");
        });
        let w4k = median_ns(iters, || {
            ep.write(
                Payload::Sge(Sge::new(local.lkey(), 0, 4096)),
                RemoteAddr::new(mr.rkey(), 0),
            )
            .expect("write");
        });
        let cas = median_ns(iters, || {
            ep.compare_swap(
                Sge::new(local.lkey(), 128, 8),
                RemoteAddr::new(mr.rkey(), 0),
                0,
                0,
            )
            .expect("cas");
        });
        verbs.row(vec![
            name.to_owned(),
            ns(r64),
            ns(r4k),
            ns(w64),
            ns(w4k),
            ns(cas),
        ]);
    }
    verbs.print();
    Metrics::new()
}
