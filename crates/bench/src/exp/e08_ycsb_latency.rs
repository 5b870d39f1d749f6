//! E8 — YCSB operation latency.
//!
//! Per-workload read and update latency (median and p99) for Gengar vs the
//! direct baseline. The paper's shape: Gengar cuts read latency on skewed
//! read-heavy workloads (cache) and write latency everywhere (proxy).
//!
//! Returns `<workload>.<system>.{read,write}_{p50,p99}_ns` for workloads
//! `a`, `b`, `f` and systems `gengar`, `direct`.

use gengar_workloads::ycsb::{load, run as ycsb_run, WorkloadSpec};

use crate::exp::{System, SystemKind};
use crate::table::{ns, Table};
use crate::{Metrics, RunConfig};

const RECORDS: u64 = 2_000;
const VALUE_SIZE: u64 = 4096;

/// Runs E8.
pub fn run(rc: &RunConfig) -> Metrics {
    let ops = rc.scale.ops(4_000);

    let mut table = Table::new(
        "E8: YCSB latency (read p50/p99, update p50/p99)",
        &[
            "workload",
            "sys",
            "read p50",
            "read p99",
            "write p50",
            "write p99",
        ],
    );

    let mut metrics = Metrics::new();
    for (kind, slug) in [
        (SystemKind::Gengar, "gengar"),
        (SystemKind::NvmDirect, "direct"),
    ] {
        let system = System::launch(kind, 2, rc.base_config(), rc);
        let mut pool = system.client();
        let kv = load(&mut pool, RECORDS, VALUE_SIZE, 1).expect("load");
        ycsb_run(&mut pool, &kv, WorkloadSpec::c(), RECORDS, ops / 4, 5).expect("warm");
        std::thread::sleep(std::time::Duration::from_millis(50));
        for spec in [WorkloadSpec::a(), WorkloadSpec::b(), WorkloadSpec::f()] {
            let r = ycsb_run(&mut pool, &kv, spec, RECORDS, ops, 9).expect("run");
            let prefix = format!("{}.{slug}", spec.name.to_lowercase());
            for (name, ns) in [
                ("read_p50", r.read_latency.p50_ns),
                ("read_p99", r.read_latency.p99_ns),
                ("write_p50", r.write_latency.p50_ns),
                ("write_p99", r.write_latency.p99_ns),
            ] {
                metrics.push((format!("{prefix}.{name}_ns"), ns as f64));
            }
            table.row(vec![
                spec.name.to_owned(),
                system.name().to_owned(),
                ns(r.read_latency.p50_ns),
                ns(r.read_latency.p99_ns),
                ns(r.write_latency.p50_ns),
                ns(r.write_latency.p99_ns),
            ]);
        }
    }
    table.print();
    metrics
}
