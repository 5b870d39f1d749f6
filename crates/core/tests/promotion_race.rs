//! Regression tests for the cache-promotion race: the epoch copies
//! an object out of NVM and later publishes the copy as a cache frame, and
//! nothing used to stop the object from changing in between. The device
//! profiles below stretch the windows in which the two sides must not
//! interleave; what each test waits on is a state change, never a sleep.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::{CachePolicy, GengarClient, GengarError, GlobalPtr};
use gengar_rdma::FabricConfig;

/// Reads `ptr` until one read is served from the DRAM cache, asserting
/// every read on the way returns `expect` in every byte.
fn read_until_cache_hit(client: &mut GengarClient, ptr: GlobalPtr, expect: u8, what: &str) {
    let mut buf = vec![0u8; ptr.size as usize];
    let before = client.stats().cache_hits;
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().cache_hits == before {
        client.read(ptr, 0, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == expect),
            "{what}: read {} where {expect} was written and drained",
            buf[0]
        );
        assert!(Instant::now() < deadline, "{what}: never promoted");
    }
}

/// `Consistency::None`: a staged write drained between a promotion's copy
/// and its publish. The drain's cache refresh finds nothing cached and the
/// promotion then publishes the bytes the write replaced — a stale frame
/// that serves every remapped reader until the next write or eviction.
///
/// Forcing the interleaving: NVM reads are slow, so the epoch sits
/// in its object read for `nvm read latency` after it has checked that the
/// object is not cached; bulk DRAM writes are slow, so the one drain thread
/// holds the cache lock for a comparable time while it refreshes a big,
/// already cached object. Each round starts that refresh while the epoch
/// is reading, and queues the racing write right behind it: the
/// copy completes under the refresh, and the racing write is applied by the
/// thread that releases the cache lock, ahead of the control loop it wakes.
#[test]
fn promotion_never_publishes_bytes_a_drained_write_replaced() {
    gengar_hybridmem::set_time_scale(1.0);
    let mut config = ServerConfig::small();
    config.proxy_threads = 1;
    config.epoch = Duration::from_millis(2);
    config.cache = CachePolicy::new()
        .capacity(1 << 20)
        .hot_threshold(1)
        .cacheable_max(16 << 10);
    config.nvm_profile.read_latency_ns = 400_000;
    // 4000 bytes take 500 us; an 8-byte control word takes 1 us.
    config.dram_profile.write_bw_bytes_per_sec = 8_000_000;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let server = cluster.server(0).unwrap();
    let mut writer = cluster
        .client(ClientConfig {
            report_every: u32::MAX,
            ..Default::default()
        })
        .unwrap();
    let mut reader = cluster
        .client(ClientConfig {
            report_every: 2,
            ..Default::default()
        })
        .unwrap();

    let big = writer.alloc(0, 4000).unwrap();
    writer.write(big, 0, &[9u8; 4000]).unwrap();
    writer.drain_all().unwrap();
    read_until_cache_hit(&mut reader, big, 9, "setup");

    let mut buf = [0u8; 64];
    for round in 0..12u8 {
        let ptr = writer.alloc(0, 64).unwrap();
        writer.write(ptr, 0, &[1u8; 64]).unwrap();
        writer.drain_all().unwrap();
        // Heat the object (every second read sends a report), then wait
        // for the epoch that folds the reports: it promotes the object.
        for _ in 0..4 {
            reader.read(ptr, 0, &mut buf).unwrap();
        }
        let folded = server.epochs();
        while server.epochs() == folded {
            std::hint::spin_loop();
        }
        writer.write(big, 0, &[round; 4000]).unwrap();
        writer.write(ptr, 0, &[2u8; 64]).unwrap();
        writer.drain_all().unwrap();
        read_until_cache_hit(&mut reader, ptr, 2, "after drain_all");
    }
}

/// `Consistency::Seqlock`: a writer loops lock → one-sided WRITE + FLUSH →
/// unlock on one hot object, alternating two fill bytes, while a reader
/// hammers it. The first write invalidates the cached copy and the heat
/// re-promotes it; every later one outdates the frame's stamp and the next
/// epoch re-copies it in place. Either way the epoch keeps copying a
/// payload that a WRITE may be half way through. A frame the reader
/// validates must hold one fill byte.
#[test]
fn seqlock_promotion_never_publishes_a_torn_payload() {
    gengar_hybridmem::set_time_scale(1.0);
    const SIZE: usize = 512 << 10;
    let mut config = ServerConfig::small();
    config.epoch = Duration::from_millis(1);
    config.cache = CachePolicy::new()
        .capacity(4 << 20)
        .hot_threshold(1)
        .cacheable_max(1 << 20);
    let cluster = Arc::new(Cluster::launch(1, config, FabricConfig::instant()).unwrap());
    let shared = ClientConfig {
        consistency: Consistency::Seqlock,
        report_every: 4,
        ..Default::default()
    };
    let mut reader = cluster.client(shared.clone()).unwrap();
    let ptr = reader.alloc(0, SIZE as u64).unwrap();
    reader.write(ptr, 0, &vec![0xA5u8; SIZE]).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (cluster, stop) = (Arc::clone(&cluster), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut writer = cluster.client(shared).unwrap();
            let fills = [vec![0x5Au8; SIZE], vec![0xA5u8; SIZE]];
            let mut writes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                writer.write(ptr, 0, &fills[(writes % 2) as usize]).unwrap();
                writes += 1;
            }
            writes
        })
    };

    let mut buf = vec![0u8; SIZE];
    let deadline = Instant::now() + Duration::from_secs(3);
    while Instant::now() < deadline {
        match reader.read(ptr, 0, &mut buf) {
            Ok(()) => {}
            // The writer held the lock through every retry: nothing read.
            Err(GengarError::ReadContended(_)) => continue,
            Err(e) => panic!("read failed: {e:?}"),
        }
        let first = buf[0];
        let torn_at = buf.iter().position(|&b| b != first);
        if let Some(at) = torn_at {
            stop.store(true, Ordering::Relaxed);
            panic!(
                "validated a frame mixing {first:#x} and {:#x} (from byte {at}); {:?}",
                buf[at],
                reader.stats()
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    assert!(writer.join().unwrap() > 0);
}
