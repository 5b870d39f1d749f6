//! Criterion benchmarks of Gengar pool operations against the baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gengar_bench::exp::{System, SystemKind};
use gengar_bench::RunConfig;
use gengar_core::pool::DshmPool;

fn bench_pool_ops(c: &mut Criterion) {
    let rc = RunConfig::default();
    let mut group = c.benchmark_group("pool_ops");
    for kind in [
        SystemKind::Gengar,
        SystemKind::NvmDirect,
        SystemKind::DramOnly,
    ] {
        let system = System::launch(kind, 1, rc.base_config(), &rc);
        let mut pool = system.client();
        for size in [64u64, 4096] {
            let ptr = pool.alloc(0, size).unwrap();
            let data = vec![7u8; size as usize];
            pool.write(ptr, 0, &data).unwrap();
            let mut buf = vec![0u8; size as usize];
            // Warm so Gengar promotes the hot object.
            if kind == SystemKind::Gengar {
                for _ in 0..300 {
                    pool.read(ptr, 0, &mut buf).unwrap();
                }
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            group.throughput(Throughput::Bytes(size));
            group.bench_with_input(
                BenchmarkId::new(format!("read/{}", kind.name()), size),
                &size,
                |b, _| b.iter(|| pool.read(ptr, 0, &mut buf).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("write/{}", kind.name()), size),
                &size,
                |b, _| b.iter(|| pool.write(ptr, 0, &data).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_pool_ops
}
criterion_main!(benches);
