//! End-to-end tests of the Gengar pool: cluster bring-up, data-path
//! correctness, hot-data caching, proxy writes, consistency and recovery.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::pool::DshmPool;
use gengar_core::{GengarError, GlobalPtr};
use gengar_hybridmem::DeviceProfile;
use gengar_rdma::FabricConfig;

fn small_cluster(n: usize) -> Cluster {
    Cluster::launch(n, ServerConfig::small(), FabricConfig::instant()).unwrap()
}

#[test]
fn alloc_write_read_roundtrip() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 256).unwrap();
    let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
    client.write(ptr, 0, &data).unwrap();
    let mut out = vec![0u8; 256];
    client.read(ptr, 0, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn sub_range_reads_and_writes() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 128).unwrap();
    client.write(ptr, 0, &[0xAA; 128]).unwrap();
    client.write(ptr, 32, &[0xBB; 16]).unwrap();
    client.drain_all().unwrap();
    let mut out = vec![0u8; 128];
    client.read(ptr, 0, &mut out).unwrap();
    assert!(out[..32].iter().all(|&b| b == 0xAA));
    assert!(out[32..48].iter().all(|&b| b == 0xBB));
    assert!(out[48..].iter().all(|&b| b == 0xAA));
    let mut mid = vec![0u8; 8];
    client.read(ptr, 36, &mut mid).unwrap();
    assert_eq!(mid, [0xBB; 8]);
}

#[test]
fn bounds_are_enforced() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    let mut buf = [0u8; 16];
    assert!(matches!(
        client.read(ptr, 56, &mut buf),
        Err(GengarError::AccessOutOfBounds { .. })
    ));
    assert!(matches!(
        client.write(ptr, 60, &[0u8; 8]),
        Err(GengarError::AccessOutOfBounds { .. })
    ));
}

#[test]
fn alloc_too_large_rejected() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let err = client.alloc(0, 4 << 20).unwrap_err(); // max_object is 1 MiB in small()
    assert!(matches!(err, GengarError::ObjectTooLarge { .. }));
}

#[test]
fn free_then_double_free_fails() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.free(ptr).unwrap();
    assert!(client.free(ptr).is_err());
}

#[test]
fn unknown_server_rejected() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    assert!(matches!(
        client.alloc(9, 64),
        Err(GengarError::UnknownServer(9))
    ));
}

#[test]
fn multiple_servers_hold_disjoint_objects() {
    let cluster = small_cluster(3);
    let mut client = cluster.default_client().unwrap();
    let mut ptrs = Vec::new();
    for s in 0..3u8 {
        let ptr = client.alloc(s, 64).unwrap();
        assert_eq!(ptr.addr.server(), s);
        client.write(ptr, 0, &[s + 1; 64]).unwrap();
        ptrs.push(ptr);
    }
    client.drain_all().unwrap();
    for (s, ptr) in ptrs.iter().enumerate() {
        let mut buf = [0u8; 64];
        client.read(*ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == s as u8 + 1));
    }
}

#[test]
fn writes_are_visible_to_other_clients_after_drain() {
    let cluster = small_cluster(1);
    let mut writer = cluster.default_client().unwrap();
    let mut reader = cluster.default_client().unwrap();
    let ptr = writer.alloc(0, 64).unwrap();
    writer.write(ptr, 0, b"cross-client visibility!").unwrap();
    writer.drain_all().unwrap();
    let mut buf = vec![0u8; 24];
    reader.read(ptr, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"cross-client visibility!");
}

#[test]
fn proxied_writes_give_read_your_writes_immediately() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    // No drain_all: the local store buffer must serve the read.
    client.write(ptr, 0, b"immediately-visible").unwrap();
    let mut buf = vec![0u8; 19];
    client.read(ptr, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"immediately-visible");
    let stats = client.stats();
    assert!(stats.staged_writes >= 1, "expected the proxy path");
    assert!(stats.writeback_hits >= 1, "expected a store-buffer hit");
}

#[test]
fn many_staged_writes_wrap_the_ring() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    // Far more writes than ring slots (16): exercises flow control.
    for i in 0..200u32 {
        let body = [(i % 251) as u8; 64];
        client.write(ptr, 0, &body).unwrap();
    }
    client.drain_all().unwrap();
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 199u8));
    assert!(client.stats().staged_writes == 200);
}

#[test]
fn hot_objects_get_cached_and_served_from_dram() {
    let cluster = small_cluster(1);
    let config = ClientConfig {
        report_every: 8,
        ..ClientConfig::default()
    };
    let mut client = cluster.client(config).unwrap();
    let ptr = client.alloc(0, 512).unwrap();
    client.write(ptr, 0, &[7u8; 512]).unwrap();
    client.drain_all().unwrap();

    // Hammer the object until an epoch promotes it and the client
    // learns the remap from its report mailbox.
    let mut buf = [0u8; 512];
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().cache_hits == 0 {
        client.read(ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        assert!(
            Instant::now() < deadline,
            "object never served from cache; stats: {:?}, cached: {}",
            client.stats(),
            cluster.server(0).unwrap().cached_objects()
        );
    }
    assert!(cluster.server(0).unwrap().cached_objects() >= 1);
    assert!(cluster.server(0).unwrap().cache_stats().promotions >= 1);
}

#[test]
fn cached_copy_stays_fresh_across_proxied_writes() {
    let cluster = small_cluster(1);
    let config = ClientConfig {
        report_every: 8,
        ..ClientConfig::default()
    };
    let mut client = cluster.client(config).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[1u8; 64]).unwrap();
    client.drain_all().unwrap();

    // Promote it.
    let mut buf = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().cache_hits == 0 && Instant::now() < deadline {
        client.read(ptr, 0, &mut buf).unwrap();
    }
    assert!(client.stats().cache_hits > 0, "promotion never happened");

    // Write through the proxy, drain, drop the local store buffer, then a
    // cached read must see the new bytes (drain updates the cache slot).
    client.write(ptr, 0, &[2u8; 64]).unwrap();
    client.drain_all().unwrap();
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 2), "stale cached read: {buf:?}");
}

#[test]
fn direct_writes_invalidate_the_cache() {
    let cluster = small_cluster(1);
    let config = ClientConfig {
        report_every: 8,
        consistency: Consistency::Seqlock, // forces the direct path
        ..ClientConfig::default()
    };
    let mut client = cluster.client(config).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[1u8; 64]).unwrap();

    let mut buf = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().cache_hits == 0 && Instant::now() < deadline {
        client.read(ptr, 0, &mut buf).unwrap();
    }
    assert!(client.stats().cache_hits > 0);

    client.write(ptr, 0, &[9u8; 64]).unwrap();
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 9), "stale read after direct write");
}

#[test]
fn cas_and_faa_work_on_pool_objects() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &0u64.to_le_bytes()).unwrap();
    client.drain_all().unwrap();
    assert_eq!(client.cas_u64(ptr, 0, 0, 5).unwrap(), 0);
    assert_eq!(client.faa_u64(ptr, 0, 3).unwrap(), 5);
    let mut buf = [0u8; 8];
    client.read(ptr, 0, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 8);
}

/// An atomic waits out an older staged write to its object, as a direct
/// write does: the drain would otherwise apply the staged bytes over the
/// atomic's result. Optane-speed NVM and twelve 4 KiB records ahead keep
/// the staged write un-drained when the atomic is issued.
#[test]
fn atomics_land_after_an_older_staged_write() {
    let config = ServerConfig {
        nvm_profile: DeviceProfile::optane(),
        staging_ring_capacity: 256 << 10,
        ..ServerConfig::small()
    };
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    let ahead: Vec<GlobalPtr> = (0..12).map(|_| client.alloc(0, 4096).unwrap()).collect();
    let mut lost = 0;
    for round in 0..20u8 {
        for &p in &ahead {
            client.write(p, 0, &[round; 4096]).unwrap();
        }
        client.write(ptr, 0, &[0; 64]).unwrap();
        assert_eq!(client.faa_u64(ptr, 0, 1).unwrap(), 0, "round {round}");
        client.drain_all().unwrap();
        let mut word = [0u8; 8];
        client.read(ptr, 0, &mut word).unwrap();
        lost += usize::from(u64::from_le_bytes(word) != 1);
    }
    let stats = client.stats();
    assert_eq!(stats.staged_writes, 20 * 13, "{stats:?}");
    assert_eq!(lost, 0, "increments lost to an older staged write");
}

/// The atomics, the lock calls and the lock-word read run as batches of
/// their own kinds: none of them counts as a read or a write.
#[test]
fn atomics_and_lock_calls_are_neither_reads_nor_writes() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    let before = client.stats();
    assert_eq!(client.cas_u64(ptr, 0, 0, 2).unwrap(), 0);
    assert_eq!(client.faa_u64(ptr, 0, 3).unwrap(), 2);
    client.lock(ptr).unwrap();
    let word = client.read_lock_word(ptr).unwrap();
    assert!(gengar_core::layout::lockword::is_locked(word));
    client.unlock(ptr).unwrap();
    let after = client.stats();
    assert_eq!((after.reads, after.writes), (before.reads, before.writes));
}

#[test]
fn locks_serialize_read_modify_write_across_clients() {
    let cluster = Arc::new(small_cluster(1));
    let mut setup = cluster
        .client(ClientConfig {
            consistency: Consistency::Seqlock,
            ..Default::default()
        })
        .unwrap();
    let ptr = setup.alloc(0, 64).unwrap();
    setup.write(ptr, 0, &0u64.to_le_bytes()).unwrap();

    const THREADS: usize = 4;
    const INCS: u64 = 50;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let mut c = cluster
                .client(ClientConfig {
                    consistency: Consistency::Seqlock,
                    ..Default::default()
                })
                .unwrap();
            for _ in 0..INCS {
                c.lock(ptr).unwrap();
                let mut buf = [0u8; 8];
                c.read(ptr, 0, &mut buf).unwrap();
                let v = u64::from_le_bytes(buf);
                c.write(ptr, 0, &(v + 1).to_le_bytes()).unwrap();
                c.unlock(ptr).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut buf = [0u8; 8];
    setup.read(ptr, 0, &mut buf).unwrap();
    assert_eq!(
        u64::from_le_bytes(buf),
        THREADS as u64 * INCS,
        "lost updates under locking"
    );
}

#[test]
fn unlock_without_lock_is_rejected() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    assert!(matches!(
        client.unlock(ptr),
        Err(GengarError::ProtocolViolation(_))
    ));
}

#[test]
fn crash_recovery_replays_staged_writes() {
    let mut config = ServerConfig::small();
    config.crash_sim = true;
    // Freeze the drain path so staged records stay undrained: we stop the
    // server's threads right after the writes land.
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    // Connect the post-crash reader now: connections require live RPC
    // threads, which shutdown() stops.
    let mut reader = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[0x11; 64]).unwrap();
    client.drain_all().unwrap(); // first write fully durable in NVM

    // Stage a second write and crash before/after drain nondeterministically
    // — stop threads first so the record cannot drain.
    cluster.server(0).unwrap().shutdown();
    client.write(ptr, 0, &[0x22; 64]).unwrap(); // staged, durable in ADR

    let server = cluster.server(0).unwrap();
    server.crash().unwrap();
    let replayed = server.recover().unwrap();
    assert!(replayed >= 1, "staged record must replay");

    // A fresh read (remap/cache are gone; read goes to NVM) sees the
    // acknowledged write.
    let mut buf = [0u8; 64];
    reader.read(ptr, 0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 0x22),
        "acknowledged staged write lost: {buf:?}"
    );
}

#[test]
fn recovery_is_idempotent() {
    let mut config = ServerConfig::small();
    config.crash_sim = true;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    let mut reader = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[0x33; 64]).unwrap();
    cluster.server(0).unwrap().shutdown();
    let server = cluster.server(0).unwrap();
    server.crash().unwrap();
    server.recover().unwrap();
    // Second recovery replays nothing (watermark advanced).
    assert_eq!(server.recover().unwrap(), 0);
    let mut buf = [0u8; 64];
    reader.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x33));
}

#[test]
fn ablation_configs_disable_mechanisms() {
    let mut config = ServerConfig::small();
    config.cache = gengar_core::CachePolicy::disabled();
    config.enable_proxy = false;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    for _ in 0..50 {
        client.write(ptr, 0, &[5u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        client.read(ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 5));
    }
    let stats = client.stats();
    assert_eq!(stats.staged_writes, 0, "proxy disabled");
    assert_eq!(stats.cache_hits, 0, "cache disabled");
    assert_eq!(stats.direct_writes, 50);
    assert_eq!(cluster.server(0).unwrap().cached_objects(), 0);
}

#[test]
fn seqlock_reads_do_not_tear_under_concurrent_writers() {
    let cluster = Arc::new(small_cluster(1));
    let mut setup = cluster
        .client(ClientConfig {
            consistency: Consistency::Seqlock,
            ..Default::default()
        })
        .unwrap();
    const LEN: usize = 1024;
    let ptr = setup.alloc(0, LEN as u64).unwrap();
    setup.write(ptr, 0, &[0u8; LEN]).unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = cluster
                .client(ClientConfig {
                    consistency: Consistency::Seqlock,
                    ..Default::default()
                })
                .unwrap();
            let mut v = 0u8;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                v = v.wrapping_add(1);
                c.write(ptr, 0, &[v; LEN]).unwrap();
            }
        })
    };

    let mut reader = cluster
        .client(ClientConfig {
            consistency: Consistency::Seqlock,
            ..Default::default()
        })
        .unwrap();
    let mut buf = vec![0u8; LEN];
    for _ in 0..200 {
        match reader.read(ptr, 0, &mut buf) {
            Ok(()) => {
                let first = buf[0];
                assert!(
                    buf.iter().all(|&b| b == first),
                    "torn read observed: {} vs {}",
                    first,
                    buf.iter().find(|&&b| b != first).unwrap()
                );
            }
            Err(GengarError::ReadContended(_)) => {} // acceptable under load
            Err(e) => panic!("unexpected read error: {e}"),
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn pool_trait_object_compatible_usage() {
    let cluster = small_cluster(1);
    let mut client = cluster.default_client().unwrap();
    fn exercise(pool: &mut dyn DshmPool) -> GlobalPtr {
        let ptr = pool.alloc(0, 32).unwrap();
        pool.write(ptr, 0, b"via trait").unwrap();
        ptr
    }
    let ptr = exercise(&mut client);
    let mut buf = [0u8; 9];
    client.read(ptr, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"via trait");
    assert_eq!(client.servers(), vec![0]);
}
