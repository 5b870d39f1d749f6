//! Timing-shape tests: with the calibrated device/fabric models active
//! (time scale 1.0), the relative performance relationships the paper
//! reports must hold. These are the cheap, always-run versions of the
//! full experiments in `crates/bench`.

use std::time::Instant;

use gengar::prelude::*;
use gengar::workloads::micro::{closed_loop, setup_objects, OpMix};
use gengar::workloads::Distribution;
use gengar_bench::exp::SystemKind;
use gengar_bench::RunConfig;

fn calibrated() -> ServerConfig {
    ServerConfig {
        nvm_capacity: 64 << 20,
        cache: CachePolicy::new().capacity(16 << 20).hot_threshold(2),
        epoch: std::time::Duration::from_millis(5),
        ..Default::default()
    }
}

/// A one-server `kind` cluster on the calibrated fabric, and a client of it.
fn comparator(kind: SystemKind) -> (Cluster, GengarClient) {
    let config = kind.server_config(calibrated());
    let cluster = Cluster::launch(1, config, FabricConfig::infiniband_100g()).unwrap();
    let client = cluster
        .client(kind.client_config(&RunConfig::default()))
        .unwrap();
    (cluster, client)
}

/// Median of per-op latencies: robust against the preemption outliers a
/// busy-wait emulation suffers on small machines.
fn median_ns(f: impl FnMut()) -> u64 {
    let mut f = f;
    for _ in 0..20 {
        f(); // warm-up
    }
    let mut samples: Vec<u64> = (0..100)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[test]
fn remote_nvm_reads_are_slower_than_remote_dram_reads() {
    gengar::hybridmem::set_time_scale(1.0);
    // Compare raw device models through the verbs layer.
    let (_nvm_cluster, mut nvm) = comparator(SystemKind::NvmDirect);
    let (_dram_cluster, mut dram) = comparator(SystemKind::DramOnly);

    let nvm_ptr = nvm.alloc(0, 65536).unwrap();
    let dram_ptr = dram.alloc(0, 65536).unwrap();
    let mut buf = vec![0u8; 65536];
    nvm.write(nvm_ptr, 0, &buf).unwrap();
    dram.write(dram_ptr, 0, &buf).unwrap();

    let nvm_read = median_ns(|| nvm.read(nvm_ptr, 0, &mut buf).unwrap());
    let dram_read = median_ns(|| dram.read(dram_ptr, 0, &mut buf).unwrap());
    assert!(
        nvm_read as f64 > dram_read as f64 * 1.2,
        "NVM read {nvm_read} ns should exceed DRAM read {dram_read} ns"
    );
}

#[test]
fn proxy_writes_beat_direct_nvm_writes() {
    gengar::hybridmem::set_time_scale(1.0);
    // Gengar with proxy vs the same pool with direct writes only.
    let proxy_cluster = Cluster::launch(1, calibrated(), FabricConfig::infiniband_100g()).unwrap();
    let mut proxy = proxy_cluster.client(ClientConfig::default()).unwrap();
    let (_direct_cluster, mut direct) = comparator(SystemKind::NvmDirect);

    let p = proxy.alloc(0, 1024).unwrap();
    let d = direct.alloc(0, 1024).unwrap();
    let buf = vec![7u8; 1024];

    let proxied = median_ns(|| {
        proxy.write(p, 0, &buf).unwrap();
    });
    let directed = median_ns(|| {
        direct.write(d, 0, &buf).unwrap();
    });
    // Same 1.2 margin as the NVM-vs-DRAM read shape above: on slow
    // single-core hosts the constant scheduling overhead inflates both
    // sides and compresses the measured ratio toward 1, so the modeled
    // ~1.5x gap is not reliably observable here. The magnitude claims are
    // enforced by the E3/E13 harness gates in scripts/check.sh.
    assert!(
        directed as f64 > proxied as f64 * 1.2,
        "direct NVM write {directed} ns should be well above proxied {proxied} ns"
    );
    assert!(proxy.stats().staged_writes > 0);
    assert!(direct.stats().direct_writes > 0);
}

#[test]
fn caching_pays_off_on_skewed_reads() {
    gengar::hybridmem::set_time_scale(1.0);
    let run_reads = |enable_cache: bool| -> u64 {
        let mut config = calibrated();
        if !enable_cache {
            config.cache = CachePolicy::disabled();
        }
        let cluster = Cluster::launch(1, config, FabricConfig::infiniband_100g()).unwrap();
        let mut client = cluster
            .client(ClientConfig {
                report_every: 16,
                ..Default::default()
            })
            .unwrap();
        // 64 KiB objects: large enough that the NVM-vs-DRAM bandwidth gap
        // (~5 us at these rates) dominates fixed fabric costs and noise.
        let objects = setup_objects(&mut client, 48, 65536).unwrap();
        // Warm-up: let the hotness monitor see the skew and promote.
        closed_loop(
            &mut client,
            &objects,
            Distribution::Zipfian(0.99),
            OpMix::read_only(),
            1_500,
            3,
        )
        .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let r = closed_loop(
            &mut client,
            &objects,
            Distribution::Zipfian(0.99),
            OpMix::read_only(),
            1_500,
            4,
        )
        .unwrap();
        if enable_cache {
            assert!(
                client.stats().cache_hits > 0,
                "cache never engaged: {:?}",
                client.stats()
            );
        }
        r.reads.p50_ns
    };
    let with_cache = run_reads(true);
    let without_cache = run_reads(false);
    assert!(
        without_cache > with_cache,
        "skewed reads with cache ({with_cache} ns) should beat no-cache ({without_cache} ns)"
    );
}

#[test]
fn consistency_mode_costs_but_stays_correct() {
    gengar::hybridmem::set_time_scale(1.0);
    let cluster = Cluster::launch(1, calibrated(), FabricConfig::infiniband_100g()).unwrap();
    let mut none = cluster.client(ClientConfig::default()).unwrap();
    let mut seqlock = cluster
        .client(ClientConfig {
            consistency: Consistency::Seqlock,
            ..Default::default()
        })
        .unwrap();
    let a = none.alloc(0, 1024).unwrap();
    let b = none.alloc(0, 1024).unwrap();
    let buf = vec![1u8; 1024];

    let fast = median_ns(|| none.write(a, 0, &buf).unwrap());
    let safe = median_ns(|| seqlock.write(b, 0, &buf).unwrap());
    assert!(
        safe > fast,
        "seqlock writes ({safe} ns) should cost more than unshared writes ({fast} ns)"
    );
}
