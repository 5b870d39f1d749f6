//! End-to-end tests of what rides the reactor's windows: same-object
//! writes under the one-write-per-object window rule, cache-frame reads
//! and the one-doorbell NVM triple under `Consistency::Seqlock`, and reads
//! whose store-buffer entry has drained.
//!
//! Doorbell accounting comes from the process-global metrics registry, so
//! every test here serialises on [`REGISTRY_LOCK`] and asserts exact
//! deltas (other test binaries are separate processes).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::{ClientStats, GengarClient, GlobalPtr};
use gengar_rdma::{FabricConfig, FaultPlane};
use gengar_telemetry::{Registry, TelemetryConfig};

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn registry_guard() -> MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    Registry::global().snapshot().counter(name).unwrap_or(0)
}

fn doorbells_saved() -> u64 {
    counter("rdma.doorbells_saved")
}

/// Reads every object whole in one batch and returns what the batch added
/// to the client's counters and to `rdma.doorbells_saved`.
fn read_all(
    client: &mut GengarClient,
    ptrs: &[GlobalPtr],
    bufs: &mut [[u8; 64]],
) -> (ClientStats, u64) {
    let (before, saved) = (client.stats(), doorbells_saved());
    let items: Vec<(GlobalPtr, u64, &mut [u8])> = ptrs
        .iter()
        .zip(bufs.iter_mut())
        .map(|(p, b)| (*p, 0u64, &mut b[..]))
        .collect();
    let result = client.read_batch(items).unwrap();
    assert!(result.all_ok(), "{:?}", result.results());
    let after = client.stats();
    let delta = ClientStats {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_rejects: after.cache_rejects - before.cache_rejects,
        nvm_reads: after.nvm_reads - before.nvm_reads,
        writeback_hits: after.writeback_hits - before.writeback_hits,
        read_retries: after.read_retries - before.read_retries,
        ..ClientStats::default()
    };
    (delta, doorbells_saved() - saved)
}

/// Three writes to one object never share a window, and the fault plane
/// fails the first window (nothing settled yet) or the second (the first
/// write settled and survives the reconnect in the store buffer): the
/// unresolved writes replay in submission order, every one of them staged.
#[test]
fn same_object_writes_keep_their_order_across_a_failed_window() {
    let _guard = registry_guard();
    for failed_window in [1, 2] {
        let spec = format!("err:imm=1,at={failed_window}");
        let plane = FaultPlane::from_spec(&spec, 5, TelemetryConfig::disabled()).unwrap();
        let mut fabric = FabricConfig::instant();
        fabric.faults = Some(Arc::new(plane));
        let cluster = Cluster::launch(1, ServerConfig::small(), fabric).unwrap();
        let mut client = cluster.client(ClientConfig::default()).unwrap();
        let ptr = client.alloc(0, 64).unwrap();
        let result = client
            .batch()
            .write(ptr, 0, &[1u8; 64])
            .write(ptr, 0, &[2u8; 64])
            .write(ptr, 0, &[3u8; 64])
            .submit()
            .unwrap();
        assert!(result.all_ok(), "{:?}", result.results());
        let stats = client.stats();
        assert_eq!(stats.staged_writes, 3, "{spec}: {stats:?}");
        assert_eq!(stats.direct_writes, 0, "{spec}: {stats:?}");
        assert_eq!(stats.reconnects, 1, "{spec}: the window must have failed");
        client.drain_all().unwrap();
        let mut buf = [0u8; 64];
        client.read(ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3), "{spec}: last write must win");
    }
}

/// Cache frames are self-validating, so a `Consistency::Seqlock` batch of
/// promoted objects rides one read window; a frame another client's write
/// invalidated falls back to the seqlock NVM read, accounted once.
#[test]
fn seqlock_batches_read_cached_frames_through_the_window() {
    const N: usize = 4;
    let _guard = registry_guard();
    let mut config = ServerConfig::small();
    config.cache = config.cache.hot_threshold(2);
    config.epoch = Duration::from_millis(5);
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let seqlock = ClientConfig {
        report_every: 8,
        consistency: Consistency::Seqlock,
        ..Default::default()
    };
    let mut reader = cluster.client(seqlock.clone()).unwrap();
    let mut writer = cluster.client(seqlock).unwrap();
    let ptrs: Vec<GlobalPtr> = (0..N).map(|_| reader.alloc(0, 64).unwrap()).collect();
    for (i, p) in ptrs.iter().enumerate() {
        reader.write(*p, 0, &[i as u8 + 1; 64]).unwrap();
    }

    let mut bufs = [[0u8; 64]; N];
    let mut first = 1u8;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        // Hammer via batches until promotion lands and a whole batch hits.
        loop {
            let (delta, saved) = read_all(&mut reader, &ptrs, &mut bufs);
            if delta.cache_hits == N as u64 {
                assert_eq!(delta.nvm_reads + delta.read_retries, 0, "{delta:?}");
                assert_eq!(saved, N as u64 - 1, "N frames, one doorbell");
                break;
            }
            assert!(Instant::now() < deadline, "never hit: {:?}", reader.stats());
        }
        // Another client's write-through invalidates object 0's frame
        // while the reader still holds its remap entry.
        first = first.wrapping_add(10);
        writer.write(ptrs[0], 0, &[first; 64]).unwrap();
        let (delta, _) = read_all(&mut reader, &ptrs, &mut bufs);
        assert!(bufs[0].iter().all(|&b| b == first), "stale: {:?}", bufs[0]);
        for (i, buf) in bufs.iter().enumerate().skip(1) {
            assert!(buf.iter().all(|&b| b == i as u8 + 1), "object {i}");
        }
        assert_eq!(delta.cache_hits + delta.nvm_reads, N as u64, "{delta:?}");
        assert_eq!(delta.cache_rejects, delta.nvm_reads, "{delta:?}");
        assert_eq!(delta.read_retries, 0, "{delta:?}");
        if delta.cache_rejects == 1 {
            break;
        }
        // The server re-promoted the object between the write and the
        // read (an epoch fold raced in): heat it up and go again.
        assert!(Instant::now() < deadline, "never saw the fallback");
    }
}

/// A read whose store-buffer entry has drained retires the entry and is
/// planned like any other read: one NVM read, on its neighbours' doorbell.
#[test]
fn reads_behind_a_drained_store_buffer_entry_share_the_window() {
    let _guard = registry_guard();
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let quiet = ClientConfig {
        report_every: u32::MAX,
        ..Default::default()
    };
    let mut client = cluster.client(quiet.clone()).unwrap();
    let mut observer = cluster.client(quiet).unwrap();
    let ptrs: Vec<GlobalPtr> = (0..3).map(|_| client.alloc(0, 64).unwrap()).collect();
    for p in &ptrs {
        client.write(*p, 0, &[1u8; 64]).unwrap();
    }
    client.drain_all().unwrap();

    // A half-object write leaves a store-buffer entry that cannot serve a
    // whole-object read, so that read must consult the drained watermark.
    client.write(ptrs[1], 0, &[7u8; 32]).unwrap();
    let mut probe = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe[0] != 7 {
        observer.read(ptrs[1], 0, &mut probe).unwrap();
        assert!(Instant::now() < deadline, "staged write never drained");
    }

    let mut bufs = [[0u8; 64]; 3];
    let (delta, saved) = read_all(&mut client, &ptrs, &mut bufs);
    assert_eq!((delta.nvm_reads, delta.writeback_hits), (3, 0), "{delta:?}");
    assert_eq!(saved, 2, "three reads, one doorbell");
    assert!(bufs[1][..32].iter().all(|&b| b == 7) && bufs[1][32..].iter().all(|&b| b == 1));
    assert!(bufs[0].iter().chain(&bufs[2]).all(|&b| b == 1));
}

/// A non-cached read under `Consistency::Seqlock` is the version/data/
/// version triple under one doorbell: three READ verbs, one round trip.
#[test]
fn seqlock_nvm_read_is_three_reads_under_one_doorbell() {
    let _guard = registry_guard();
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster
        .client(ClientConfig {
            report_every: u32::MAX,
            consistency: Consistency::Seqlock,
            ..Default::default()
        })
        .unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[6u8; 64]).unwrap();

    let before = ["rdma.doorbells", "rdma.read_ops", "rdma.batched_ops"].map(counter);
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    let after = ["rdma.doorbells", "rdma.read_ops", "rdma.batched_ops"].map(counter);
    assert!(buf.iter().all(|&b| b == 6));
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(delta, [1, 3, 3], "doorbells, READ verbs, WRs posted");
    let stats = client.stats();
    assert_eq!((stats.nvm_reads, stats.read_retries), (1, 0), "{stats:?}");
}

/// `read_versioned` is that same triple under `Consistency::None` too, and
/// returns the word it validated against; a client holding a remap entry
/// for the object still reads NVM, not the frame.
#[test]
fn read_versioned_is_three_reads_under_one_doorbell() {
    let _guard = registry_guard();
    let mut config = ServerConfig::small();
    config.cache = config.cache.hot_threshold(1);
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster
        .client(ClientConfig {
            report_every: u32::MAX,
            ..Default::default()
        })
        .unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[5u8; 64]).unwrap();
    client.drain_all().unwrap();

    let word = client.read_lock_word(ptr).unwrap();
    let before = ["rdma.doorbells", "rdma.read_ops", "rdma.batched_ops"].map(counter);
    let mut buf = [0u8; 64];
    assert_eq!(client.read_versioned(ptr, 0, &mut buf).unwrap(), word);
    let after = ["rdma.doorbells", "rdma.read_ops", "rdma.batched_ops"].map(counter);
    assert!(buf.iter().all(|&b| b == 5));
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(delta, [1, 3, 3], "doorbells, READ verbs, WRs posted");

    // A reporting client learns the promoted frame, then reads past it.
    let mut hot = cluster
        .client(ClientConfig {
            report_every: 1,
            ..Default::default()
        })
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while hot.stats().cache_hits == 0 {
        hot.read(ptr, 0, &mut buf).unwrap();
        assert!(Instant::now() < deadline, "never promoted");
    }
    let before = hot.stats();
    assert_eq!(hot.read_versioned(ptr, 0, &mut buf).unwrap(), word);
    let after = hot.stats();
    assert!(hot.remap_entries() > 0 && buf.iter().all(|&b| b == 5));
    assert_eq!(after.cache_hits, before.cache_hits, "{after:?}");
    assert_eq!(after.nvm_reads, before.nvm_reads + 1, "{after:?}");
}
