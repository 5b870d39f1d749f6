//! E3 — durable write latency vs size (the proxy mechanism).
//!
//! Client-visible latency of a *durable* write: Gengar's proxy path (one
//! WRITE_WITH_IMM into ADR staging) vs the direct path (RDMA WRITE to NVM +
//! flush RPC) vs the DRAM-only bound. The paper's claim: the proxy removes
//! the NVM write/persist cost from the critical path.

use gengar_core::pool::DshmPool;

use crate::exp::{System, SystemKind};
use crate::table::{ns, Table};
use crate::{median_ns, Metrics, RunConfig};

const SIZES: &[u64] = &[64, 256, 1024, 4096, 16384];

/// Runs E3.
pub fn run(rc: &RunConfig) -> Metrics {
    let iters = rc.scale.ops(800);

    let mut table = Table::new(
        "E3: durable write latency vs size (median)",
        &["size", "gengar(proxy)", "nvm-direct", "dram-only"],
    );
    let mut rows: Vec<Vec<String>> = SIZES.iter().map(|s| vec![format!("{s}B")]).collect();

    for kind in [
        SystemKind::Gengar,
        SystemKind::NvmDirect,
        SystemKind::DramOnly,
    ] {
        let system = System::launch(kind, 1, rc.base_config(), rc);
        let mut pool = system.client();
        for (i, &size) in SIZES.iter().enumerate() {
            let ptr = pool.alloc(0, size).expect("alloc");
            let data = vec![0xA5u8; size as usize];
            let lat = median_ns(iters, || pool.write(ptr, 0, &data).expect("write"));
            rows[i].push(ns(lat));
        }
    }
    for row in rows {
        table.row(row);
    }
    table.print();
    Metrics::new()
}
