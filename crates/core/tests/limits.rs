//! Boundary and resource-limit tests: client capacity, scratch sizing,
//! configuration extremes, allocation exhaustion at the pool level.

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, ServerConfig};
use gengar_core::GengarError;
use gengar_rdma::FabricConfig;

#[test]
fn server_rejects_clients_beyond_capacity() {
    let mut config = ServerConfig::small();
    config.max_clients = 2;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let _a = cluster.default_client().unwrap();
    let _b = cluster.default_client().unwrap();
    let err = cluster.default_client().unwrap_err();
    assert!(matches!(err, GengarError::ServerUnavailable(0)));
}

#[test]
fn undersized_scratch_rejected_at_connect() {
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let err = cluster
        .client(ClientConfig {
            scratch_capacity: 32 << 10, // far below rpc + staging + op area
            ..Default::default()
        })
        .unwrap_err();
    assert!(matches!(err, GengarError::ProtocolViolation(_)));
}

#[test]
fn op_area_smaller_than_a_staging_slot_still_stages() {
    // 128 KiB slots against an op area of ~96 KiB: no gather lane fits, so
    // staged windows shrink to one record in the writer's own lane instead
    // of falling off the proxy path.
    let mut config = ServerConfig::small();
    config.staging_ring_capacity = 2 << 20;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let slot_bytes = (2 << 20) / 16;
    let mut client = cluster
        .client(ClientConfig {
            scratch_capacity: gengar_core::rpc::RPC_BUF_BYTES + slot_bytes + 16 + 64 + (96 << 10),
            ..Default::default()
        })
        .unwrap();
    let a = client.alloc(0, 64).unwrap();
    let b = client.alloc(0, 64).unwrap();
    let result = client
        .batch()
        .write(a, 0, &[1u8; 64])
        .write(b, 0, &[2u8; 64])
        .write(a, 0, &[3u8; 64])
        .submit()
        .unwrap();
    assert!(result.all_ok(), "{:?}", result.results());
    assert_eq!(client.stats().staged_writes, 3, "{:?}", client.stats());
    client.drain_all().unwrap();
    let mut buf = [0u8; 64];
    client.read(a, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 3));
    client.read(b, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 2));
}

#[test]
fn pool_exhaustion_is_clean_and_recoverable() {
    let mut config = ServerConfig::small();
    config.nvm_capacity = 1 << 20; // 1 MiB
    config.max_object = 1 << 20;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    // Fill the pool with 64 KiB objects (64 KiB + header rounds to 128 KiB
    // blocks), then exhaust it.
    let mut held = Vec::new();
    loop {
        match client.alloc(0, 64 << 10) {
            Ok(ptr) => held.push(ptr),
            Err(GengarError::OutOfMemory { .. }) => break,
            Err(e) => panic!("unexpected alloc failure: {e}"),
        }
        assert!(held.len() < 64, "pool never filled");
    }
    assert!(!held.is_empty());
    // Freeing makes room again.
    client.free(held.pop().unwrap()).unwrap();
    client.alloc(0, 64 << 10).unwrap();
}

#[test]
fn zero_sized_alloc_rejected() {
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    assert!(matches!(
        client.alloc(0, 0),
        Err(GengarError::ObjectTooLarge { .. })
    ));
}

#[test]
fn single_proxy_thread_config_works() {
    let mut config = ServerConfig::small();
    config.proxy_threads = 1;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    for i in 0..40u8 {
        client.write(ptr, 0, &[i; 64]).unwrap();
    }
    client.drain_all().unwrap();
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 39));
}

#[test]
fn many_proxy_threads_preserve_per_ring_order() {
    let mut config = ServerConfig::small();
    config.proxy_threads = 4;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    // Several clients writing interleaved to their own objects: each
    // ring's records must apply in order regardless of drain-thread count.
    let cluster = std::sync::Arc::new(cluster);
    let mut handles = Vec::new();
    for _ in 0..4 {
        let cluster = std::sync::Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let mut c = cluster.default_client().unwrap();
            let ptr = c.alloc(0, 64).unwrap();
            for i in 0..60u8 {
                c.write(ptr, 0, &[i; 64]).unwrap();
            }
            c.drain_all().unwrap();
            let mut buf = [0u8; 64];
            c.read(ptr, 0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 59), "order violated: {}", buf[0]);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn sub_word_and_unaligned_cas_rejected() {
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    // Offset 3 is not 8-aligned: the device rejects it, surfaced remotely.
    assert!(client.cas_u64(ptr, 3, 0, 1).is_err());
    // Offset 60 leaves only 4 bytes: bounds error client-side.
    assert!(matches!(
        client.cas_u64(ptr, 60, 0, 1),
        Err(GengarError::AccessOutOfBounds { .. })
    ));
}

#[test]
fn max_report_burst_is_chunked() {
    // More distinct addresses than one Report message can carry must be
    // split across messages without losing entries.
    let mut config = ServerConfig::small();
    config.cache = config.cache.hot_threshold(1);
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster
        .client(ClientConfig {
            report_every: 1024,
            ..Default::default()
        })
        .unwrap();
    let ptrs: Vec<_> = (0..300).map(|_| client.alloc(0, 64).unwrap()).collect();
    let mut buf = [0u8; 64];
    for p in &ptrs {
        client.write(*p, 0, &[1u8; 64]).unwrap();
        client.read(*p, 0, &mut buf).unwrap();
    }
    // 600 accesses of 300 distinct addrs -> several chunked reports.
    client.flush_reports().unwrap();
    assert!(client.stats().reports >= 3, "{:?}", client.stats());
}
