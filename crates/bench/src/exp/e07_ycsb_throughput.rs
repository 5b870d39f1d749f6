//! E7 — YCSB throughput across systems (the headline table).
//!
//! Workloads A–F over the pool-resident KV store, for Gengar and every
//! baseline. The paper reports up to ~70 % improvement over
//! state-of-the-art DSHM systems on YCSB; the comparable number here is
//! the gengar : nvm-direct ratio on the read-heavy skewed workloads (B, C,
//! D), where hot values are served from server DRAM.
//!
//! Returns `<workload>.{gengar,direct,clientcache,dram}_kops` per YCSB
//! workload (`a`…`f`).

use gengar_workloads::ycsb::{load, run as ycsb_run, WorkloadSpec};

use crate::exp::{System, SystemKind};
use crate::table::Table;
use crate::{Metrics, RunConfig};

const RECORDS: u64 = 2_000;
const VALUE_SIZE: u64 = 4096;

/// Runs E7.
pub fn run(rc: &RunConfig) -> Metrics {
    let ops = rc.scale.ops(4_000);

    let mut table = Table::new(
        &format!("E7: YCSB throughput, kops/s ({RECORDS} x {VALUE_SIZE} B, {ops} ops)"),
        &[
            "workload",
            "gengar",
            "nvm-direct",
            "client-cache",
            "dram-only",
            "gengar/direct",
            "gengar/client-cache",
        ],
    );

    let mut results: Vec<Vec<f64>> = vec![Vec::new(); WorkloadSpec::all().len()];
    for kind in SystemKind::all() {
        let system = System::launch(kind, 2, rc.base_config(), rc);
        let mut pool = system.client();
        let kv = load(&mut pool, RECORDS, VALUE_SIZE, 1).expect("load");
        // Warm pass so caches/hotness settle before the measured runs.
        ycsb_run(&mut pool, &kv, WorkloadSpec::c(), RECORDS, ops / 4, 5).expect("warm");
        std::thread::sleep(std::time::Duration::from_millis(50));
        for (i, spec) in WorkloadSpec::all().into_iter().enumerate() {
            // Best of two runs: background threads on small hosts inject
            // noise that a single sample can't average out.
            let best = (0..2)
                .map(|rep| {
                    ycsb_run(&mut pool, &kv, spec, RECORDS, ops, 7 + rep)
                        .expect("run")
                        .kops_per_sec()
                })
                .fold(0.0f64, f64::max);
            results[i].push(best);
        }
    }
    let mut metrics = Metrics::new();
    for (i, spec) in WorkloadSpec::all().into_iter().enumerate() {
        let r = &results[i];
        let workload = spec.name.to_lowercase();
        for (slug, kops) in ["gengar", "direct", "clientcache", "dram"].iter().zip(r) {
            metrics.push((format!("{workload}.{slug}_kops"), *kops));
        }
        table.row(vec![
            spec.name.to_owned(),
            format!("{:.1}", r[0]),
            format!("{:.1}", r[1]),
            format!("{:.1}", r[2]),
            format!("{:.1}", r[3]),
            format!("{:.2}x", r[0] / r[1].max(1e-9)),
            format!("{:.2}x", r[0] / r[2].max(1e-9)),
        ]);
    }
    table.print();
    metrics
}
