//! YCSB demo: run workloads A–F over Gengar and the direct-to-NVM
//! comparator, printing a side-by-side throughput comparison.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example ycsb_demo
//! ```

use gengar::prelude::*;
use gengar::workloads::ycsb::{load, run, WorkloadSpec};

const RECORDS: u64 = 2_000;
const OPS: u64 = 5_000;
const VALUE_SIZE: u64 = 4096;

fn main() -> Result<(), GengarError> {
    gengar::hybridmem::set_time_scale(1.0);
    let server_config = ServerConfig {
        nvm_capacity: 128 << 20,
        cache: CachePolicy::new().capacity(16 << 20).hot_threshold(2),
        epoch: std::time::Duration::from_millis(10),
        ..ServerConfig::default()
    };

    // Gengar: cache + proxy on.
    let gengar_cluster =
        Cluster::launch(2, server_config.clone(), FabricConfig::infiniband_100g())?;
    let client_config = ClientConfig {
        report_every: 128,
        ..Default::default()
    };
    let mut gengar_client = gengar_cluster.client(client_config.clone())?;
    let gengar_kv = load(&mut gengar_client, RECORDS, VALUE_SIZE, 1)?;
    // Warm pass: let the hotness monitor promote the skewed working set.
    run(
        &mut gengar_client,
        &gengar_kv,
        WorkloadSpec::c(),
        RECORDS,
        OPS / 4,
        5,
    )?;
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Comparator: the same servers with no cache and no proxy — one-sided
    // access to NVM, nothing else.
    let direct_config = ServerConfig {
        cache: CachePolicy::disabled(),
        enable_proxy: false,
        ..server_config
    };
    let base_cluster = Cluster::launch(2, direct_config, FabricConfig::infiniband_100g())?;
    let mut base_client = base_cluster.client(client_config)?;
    let base_kv = load(&mut base_client, RECORDS, VALUE_SIZE, 1)?;

    println!(
        "{RECORDS} records x {VALUE_SIZE} B, {OPS} ops per workload\n\
         workload | gengar kops/s | nvm-direct kops/s | speedup"
    );
    for spec in WorkloadSpec::all() {
        let g = run(&mut gengar_client, &gengar_kv, spec, RECORDS, OPS, 7)?;
        let b = run(&mut base_client, &base_kv, spec, RECORDS, OPS, 7)?;
        println!(
            "{:>8} | {:>13.1} | {:>17.1} | {:>6.2}x",
            spec.name,
            g.kops_per_sec(),
            b.kops_per_sec(),
            g.kops_per_sec() / b.kops_per_sec().max(1e-9),
        );
    }
    let stats = gengar_client.stats();
    println!(
        "\ngengar client: cache_hits={} nvm_reads={} staged={} direct={}",
        stats.cache_hits, stats.nvm_reads, stats.staged_writes, stats.direct_writes
    );
    Ok(())
}
