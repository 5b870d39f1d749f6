//! E5 — hot-data identification vs access skew.
//!
//! Sweeps the zipfian skew and reports the fraction of reads served from
//! the server DRAM cache plus the resulting median latency, with the cache
//! on and off. The paper's shape: benefit grows with skew (more of the
//! working set's mass fits in DRAM) and vanishes for uniform access.

use gengar_workloads::micro::{closed_loop, setup_objects, OpMix};
use gengar_workloads::Distribution;

use crate::exp::{System, SystemKind};
use crate::table::{ns, Table};
use crate::{Metrics, RunConfig};

const OBJECT_SIZE: u64 = 16384;
const OBJECTS: u64 = 512;

/// Runs E5.
pub fn run(rc: &RunConfig) -> Metrics {
    let ops = rc.scale.ops(4_000);
    let mut config = rc.base_config();
    // Cache sized to ~12% of the working set so skew matters.
    config.cache = config.cache.capacity(OBJECTS * OBJECT_SIZE / 8);

    let mut metrics = Metrics::new();
    let mut table = Table::new(
        "E5: hot-data caching vs skew (512 x 16 KiB, cache = 1/8 of set)",
        &["distribution", "hit ratio", "lat cache-on", "lat cache-off"],
    );

    let dists: &[(&str, &str, Distribution)] = &[
        ("uniform", "uniform", Distribution::Uniform),
        ("zipf 0.50", "zipf050", Distribution::Zipfian(0.5)),
        ("zipf 0.75", "zipf075", Distribution::Zipfian(0.75)),
        ("zipf 0.90", "zipf090", Distribution::Zipfian(0.9)),
        ("zipf 0.99", "zipf099", Distribution::Zipfian(0.99)),
    ];

    for &(name, slug, dist) in dists {
        let mut row = vec![name.to_owned()];
        for cache_on in [true, false] {
            let mut cfg = config.clone();
            if !cache_on {
                cfg.cache = gengar_core::CachePolicy::disabled();
            }
            let system = System::launch(SystemKind::Gengar, 1, cfg, rc);
            let mut client = system.gengar_client(rc.base_client_config());
            let objects = setup_objects(&mut client, OBJECTS, OBJECT_SIZE).expect("setup");
            // Warm-up: two epochs of skewed traffic.
            closed_loop(&mut client, &objects, dist, OpMix::read_only(), ops / 2, 11)
                .expect("warmup");
            std::thread::sleep(std::time::Duration::from_millis(50));
            let before = client.stats();
            let result = closed_loop(&mut client, &objects, dist, OpMix::read_only(), ops, 12)
                .expect("measure");
            let after = client.stats();
            if cache_on {
                let hits = after.cache_hits - before.cache_hits;
                let total = after.reads - before.reads;
                let ratio = hits as f64 / total as f64;
                metrics.push((format!("{slug}.hit_ratio"), ratio));
                row.push(format!("{:.1}%", ratio * 100.0));
                row.push(ns(result.reads.p50_ns));
            } else {
                row.push(ns(result.reads.p50_ns));
            }
        }
        table.row(row);
    }
    table.print();
    metrics
}
