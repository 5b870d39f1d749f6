//! E6 — sensitivity to the DRAM cache size.
//!
//! Fixes the working set and the skew, sweeps the cache capacity as a
//! fraction of the working set, and reports hit ratio and median read
//! latency. The paper's shape: diminishing returns — a small DRAM fraction
//! captures most of a zipfian's mass.

use gengar_workloads::micro::{closed_loop, setup_objects, OpMix};
use gengar_workloads::Distribution;

use crate::exp::{System, SystemKind};
use crate::table::{ns, Table};
use crate::{Metrics, RunConfig};

const OBJECT_SIZE: u64 = 16384;
const OBJECTS: u64 = 512;

/// Runs E6.
pub fn run(rc: &RunConfig) -> Metrics {
    let ops = rc.scale.ops(8_000);
    let working_set = OBJECTS * OBJECT_SIZE;

    let mut metrics = Metrics::new();
    let mut table = Table::new(
        "E6: cache-size sensitivity (512 x 16 KiB, zipf 0.99)",
        &["cache / working set", "hit ratio", "median read"],
    );

    for pct in [2u64, 4, 8, 16, 32, 64] {
        let mut config = rc.base_config();
        // Promote on first sight: this sweep measures what *capacity*
        // (via admission + eviction) retains, not what the threshold
        // filters out.
        config.cache = config
            .cache
            .capacity((working_set * pct / 100).max(256 << 10))
            .hot_threshold(1);
        let system = System::launch(SystemKind::Gengar, 1, config, rc);
        let mut client = system.gengar_client(rc.base_client_config());
        let objects = setup_objects(&mut client, OBJECTS, OBJECT_SIZE).expect("setup");
        closed_loop(
            &mut client,
            &objects,
            Distribution::Zipfian(0.99),
            OpMix::read_only(),
            ops / 2,
            21,
        )
        .expect("warmup");
        std::thread::sleep(std::time::Duration::from_millis(50));
        let before = client.stats();
        let result = closed_loop(
            &mut client,
            &objects,
            Distribution::Zipfian(0.99),
            OpMix::read_only(),
            ops,
            22,
        )
        .expect("measure");
        let after = client.stats();
        let hits = after.cache_hits - before.cache_hits;
        let total = after.reads - before.reads;
        let ratio = hits as f64 / total as f64;
        metrics.push((format!("pct{pct}.hit_ratio"), ratio));
        table.row(vec![
            format!("{pct}%"),
            format!("{:.1}%", ratio * 100.0),
            ns(result.reads.p50_ns),
        ]);
    }
    table.print();
    metrics
}
