//! Criterion benchmarks of YCSB workload batches over Gengar and the
//! direct baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gengar_bench::exp::{System, SystemKind};
use gengar_bench::RunConfig;
use gengar_workloads::ycsb::{load, run as ycsb_run, WorkloadSpec};

const RECORDS: u64 = 1_000;
const BATCH: u64 = 200;

fn bench_ycsb(c: &mut Criterion) {
    let rc = RunConfig::default();
    let mut group = c.benchmark_group("ycsb");
    group.throughput(Throughput::Elements(BATCH));
    for kind in [SystemKind::Gengar, SystemKind::NvmDirect] {
        let system = System::launch(kind, 1, rc.base_config(), &rc);
        let mut pool = system.client();
        let kv = load(&mut pool, RECORDS, 1024, 1).unwrap();
        // Warm pass so hotness/promotion settles.
        ycsb_run(&mut pool, &kv, WorkloadSpec::c(), RECORDS, 500, 3).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        for spec in [WorkloadSpec::a(), WorkloadSpec::b(), WorkloadSpec::c()] {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), spec.name),
                &spec,
                |b, spec| {
                    let mut seed = 10;
                    b.iter(|| {
                        seed += 1;
                        ycsb_run(&mut pool, &kv, *spec, RECORDS, BATCH, seed).unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_ycsb
}
criterion_main!(benches);
