//! Cross-crate integration tests: the full stack (hybridmem -> rdma ->
//! core -> workloads, and the bench crate's comparators) exercised through
//! the facade crate, on a zero-latency fabric so everything is functional,
//! not timing-dependent.

use std::sync::Arc;

use gengar::prelude::*;
use gengar::workloads::corpus;
use gengar::workloads::mapreduce::{sort, wordcount};
use gengar::workloads::ycsb::{load, run, WorkloadSpec};
use gengar_bench::client_cache::ClientCache;
use gengar_bench::exp::SystemKind;
use gengar_bench::RunConfig;

fn instant_cluster(n: usize) -> Cluster {
    Cluster::launch(n, ServerConfig::small(), FabricConfig::instant()).unwrap()
}

/// A two-server `kind` cluster on the zero-latency fabric.
fn comparator_cluster(kind: SystemKind) -> Cluster {
    let config = kind.server_config(ServerConfig::small());
    Cluster::launch(2, config, FabricConfig::instant()).unwrap()
}

fn comparator_client(cluster: &Cluster, kind: SystemKind) -> Result<GengarClient, GengarError> {
    cluster.client(kind.client_config(&RunConfig::default()))
}

#[test]
fn ycsb_runs_on_gengar_and_every_baseline() {
    let records = 200;
    let ops = 500;

    // Gengar.
    let cluster = instant_cluster(2);
    let mut gengar = cluster.default_client().unwrap();
    let kv = load(&mut gengar, records, 64, 1).unwrap();
    let r = run(&mut gengar, &kv, WorkloadSpec::a(), records, ops, 2).unwrap();
    assert_eq!(r.ops, ops);

    // NvmDirect.
    let cluster = comparator_cluster(SystemKind::NvmDirect);
    let mut base = comparator_client(&cluster, SystemKind::NvmDirect).unwrap();
    let kv = load(&mut base, records, 64, 1).unwrap();
    let r = run(&mut base, &kv, WorkloadSpec::b(), records, ops, 2).unwrap();
    assert_eq!(r.ops, ops);

    // ClientCache.
    let cluster = comparator_cluster(SystemKind::ClientCache);
    let client = comparator_client(&cluster, SystemKind::ClientCache).unwrap();
    let mut cc = ClientCache::new(client, 1 << 20);
    let kv = load(&mut cc, records, 64, 1).unwrap();
    let r = run(&mut cc, &kv, WorkloadSpec::c(), records, ops, 2).unwrap();
    assert_eq!(r.ops, ops);
    assert!(cc.cache_stats().hits > 0, "client cache never hit");

    // DramOnly.
    let cluster = comparator_cluster(SystemKind::DramOnly);
    let mut dram = comparator_client(&cluster, SystemKind::DramOnly).unwrap();
    let kv = load(&mut dram, records, 64, 1).unwrap();
    let r = run(&mut dram, &kv, WorkloadSpec::f(), records, ops, 2).unwrap();
    assert_eq!(r.ops, ops);
}

#[test]
fn mapreduce_agrees_across_systems() {
    let input = corpus::text(5_000, 9);
    let reference = corpus::reference_word_counts(&input);

    let cluster = instant_cluster(2);
    let factory = || cluster.default_client();
    let (gengar_counts, _) = wordcount(&factory, &input, 3, 2).unwrap();
    assert_eq!(gengar_counts, reference);

    let base_cluster = comparator_cluster(SystemKind::NvmDirect);
    let base_factory = || comparator_client(&base_cluster, SystemKind::NvmDirect);
    let (base_counts, _) = wordcount(&base_factory, &input, 3, 2).unwrap();
    assert_eq!(base_counts, reference);
}

#[test]
fn distributed_sort_is_correct_over_gengar() {
    let records = corpus::records(10_000, 5);
    let cluster = instant_cluster(2);
    let factory = || cluster.default_client();
    let (sorted, timings) = sort(&factory, &records, 4, 3).unwrap();
    let mut expect = records.clone();
    expect.sort_unstable();
    assert_eq!(sorted, expect);
    assert!(timings.total().as_nanos() > 0);
}

#[test]
fn concurrent_clients_share_one_kv_store() {
    let cluster = Arc::new(instant_cluster(2));
    let mut owner = cluster.default_client().unwrap();
    let kv = gengar::workloads::KvStore::create(&mut owner, 4_000, 32).unwrap();
    let spec = kv.spec().clone();

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let cluster = Arc::clone(&cluster);
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || {
            let mut pool = cluster.default_client().unwrap();
            let kv = gengar::workloads::KvStore::attach(spec);
            // Disjoint key ranges per writer.
            for k in t * 500..(t + 1) * 500 {
                kv.put(&mut pool, k, &[k as u8; 32]).unwrap();
            }
            pool.drain_all().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let mut out = [0u8; 32];
    for k in 0..2_000u64 {
        assert!(
            kv.get(&mut owner, k, &mut out).unwrap(),
            "key {k} lost in concurrent load"
        );
        assert_eq!(out[0], k as u8);
    }
}

#[test]
fn fault_injection_partition_then_heal() {
    let cluster = instant_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[1u8; 64]).unwrap();
    client.drain_all().unwrap();

    // Partition the client from the server: data-plane ops fail.
    let client_node = client.node().id();
    let server_node = cluster.server(0).unwrap().node().id();
    cluster.fabric().partition(client_node, server_node, true);
    let mut buf = [0u8; 64];
    assert!(client.read(ptr, 0, &mut buf).is_err());

    // Healing the fabric does not resurrect the errored RC QP (real RC
    // semantics) — a fresh client connects fine and sees the data.
    cluster.fabric().partition(client_node, server_node, false);
    let mut fresh = cluster.default_client().unwrap();
    fresh.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 1));
}

#[test]
fn crash_recovery_preserves_kv_contents() {
    let mut config = ServerConfig::small();
    config.crash_sim = true;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    // The validation reader only checks contents: it reports no accesses,
    // so its reads heat nothing across the crash.
    let mut reader = cluster
        .client(ClientConfig {
            report_every: u32::MAX,
            ..Default::default()
        })
        .unwrap();
    let kv = gengar::workloads::KvStore::create(&mut client, 200, 16).unwrap();
    for k in 0..100u64 {
        kv.put(&mut client, k, &[k as u8; 16]).unwrap();
    }
    // Crash with whatever is still staged, then recover.
    cluster.server(0).unwrap().shutdown();
    cluster.server(0).unwrap().crash().unwrap();
    cluster.server(0).unwrap().recover().unwrap();

    let mut out = [0u8; 16];
    for k in 0..100u64 {
        assert!(
            kv.get(&mut reader, k, &mut out).unwrap(),
            "key {k} lost by crash"
        );
        assert_eq!(out, [k as u8; 16]);
    }
}

#[test]
fn prelude_exports_what_programs_need() {
    // Compile-time check that the prelude surface is usable on its own.
    fn takes_pool<P: DshmPool>(_p: &P) {}
    let cluster = instant_cluster(1);
    let client = cluster.client(ClientConfig::default()).unwrap();
    takes_pool(&client);
    let _ = GlobalAddr::new(0, gengar::core::MemClass::Nvm, 0);
    let _ = GlobalPtr::new(GlobalAddr::new(0, gengar::core::MemClass::Nvm, 64), 8);
}
