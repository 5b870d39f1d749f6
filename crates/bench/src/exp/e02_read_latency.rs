//! E2 — read latency vs object size.
//!
//! Whole-object read latency across sizes for Gengar (after the hot object
//! is promoted and served from server DRAM), the direct-to-NVM baseline and
//! the DRAM-only upper bound. The paper's shape: Gengar tracks the DRAM
//! bound for hot data while NVM-direct diverges as size (bandwidth) grows.

use gengar_core::pool::DshmPool;

use crate::exp::{System, SystemKind};
use crate::table::{ns, Table};
use crate::{median_ns, Metrics, RunConfig};

const SIZES: &[u64] = &[64, 256, 1024, 4096, 16384, 65536];

/// Runs E2.
pub fn run(rc: &RunConfig) -> Metrics {
    let iters = rc.scale.ops(800);

    let mut table = Table::new(
        "E2: whole-object read latency vs size (median)",
        &["size", "gengar(hot)", "nvm-direct", "dram-only"],
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
            let init = vec![0x5Au8; size as usize];
            pool.write(ptr, 0, &init).expect("write");
            let mut buf = vec![0u8; size as usize];
            if kind == SystemKind::Gengar {
                // Warm the hotness monitor so the object is promoted and the
                // remap learned before measuring.
                for _ in 0..300 {
                    pool.read(ptr, 0, &mut buf).expect("read");
                }
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            let lat = median_ns(iters, || pool.read(ptr, 0, &mut buf).expect("read"));
            rows[i].push(ns(lat));
        }
    }
    for row in rows {
        table.row(row);
    }
    table.print();
    Metrics::new()
}
