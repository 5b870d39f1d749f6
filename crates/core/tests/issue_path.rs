//! End-to-end tests of what rides the reactor's windows: same-object
//! writes under the one-write-per-object window rule, cache-frame reads
//! and the one-doorbell NVM triple under `Consistency::Seqlock`, reads
//! whose store-buffer entry has drained, the one-sided hotness reports
//! that follow a batch, the ring-full waits a staged window counts, the
//! `Seqlock` lock CAS that starts from a remembered word, the unlock fenced
//! behind the FLUSH in one doorbell, and what connecting and the scalar
//! lock and atomic calls cost.
//!
//! Doorbell, RPC and wait accounting comes from the process-global metrics
//! registry, so every test here serialises on [`REGISTRY_LOCK`] and asserts
//! exact deltas (other test binaries are separate processes).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::layout::lockword;
use gengar_core::proxy::SLOTS_PER_RING;
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
        reports: after.reports - before.reports,
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

/// A `Consistency::Seqlock` cached read is the frame and the object's lock
/// word, so a batch of promoted objects rides one read window; a frame
/// another client's write outdated falls back to the seqlock NVM read,
/// accounted once.
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
                // A report behind the batch saves one doorbell per slot:
                // its WRITEs ride the cursor READ's.
                let reads = saved - delta.reports;
                assert_eq!(reads, 2 * N as u64 - 1, "N frames and words, one doorbell");
                break;
            }
            assert!(Instant::now() < deadline, "never hit: {:?}", reader.stats());
        }
        // Another client's write-through outdates object 0's frame while
        // the reader still holds its remap entry.
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
        // The server re-copied the object between the write and the read
        // (an epoch fold raced in): heat it up and go again.
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

/// A `Seqlock` write to an object this client wrote before starts at the
/// lock CAS, expecting the word its own unlock published: CAS, then WRITE,
/// FLUSH and the fenced unlock WRITE under one doorbell — two doorbells and
/// no READ.
#[test]
fn seqlock_write_after_own_write_skips_the_lock_word_read() {
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
    // The first write READs the word and, at version 0, flushes by RPC.
    client.write(ptr, 0, &[1u8; 64]).unwrap();

    let names = ["rdma.doorbells", "rdma.read_ops", "rdma.cas_ops"];
    let before = names.map(counter);
    client.write(ptr, 0, &[2u8; 64]).unwrap();
    let after = names.map(counter);
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(delta, [2, 0, 1], "doorbells, READ verbs, CAS verbs");
    let stats = client.stats();
    assert_eq!(stats.lock_retries, 0, "{stats:?}");
    assert_eq!(
        client.read_lock_word(ptr).unwrap(),
        lockword::with_version(2)
    );
}

/// The unlock rides the FLUSH's doorbell behind a fence: under a 2 ms NVM
/// flush, a `Seqlock` write's unlock WRITE completes no earlier than its
/// FLUSH. Bytes land at post time in either order, so only the verbs'
/// completion times tell a fenced unlock from an unfenced one.
#[test]
fn seqlock_unlock_completes_no_earlier_than_its_flush() {
    const FLUSH_NS: u64 = 2_000_000;
    let _guard = registry_guard();
    let mut server = ServerConfig::small();
    server.nvm_profile.flush_latency_ns = FLUSH_NS;
    let cluster = Cluster::launch(1, server, FabricConfig::instant()).unwrap();
    let mut client = cluster
        .client(ClientConfig {
            report_every: u32::MAX,
            consistency: Consistency::Seqlock,
            ..Default::default()
        })
        .unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    // Past version 0, the next write persists by FLUSH.
    client.write(ptr, 0, &[1u8; 64]).unwrap();

    let registry = Registry::global();
    let [writes, flushes] = ["write_ns", "flush_ns"].map(|name| registry.histogram("rdma", name));
    writes.reset();
    flushes.reset();
    client.write(ptr, 0, &[2u8; 64]).unwrap();
    let (writes, flushes) = (writes.snapshot(), flushes.snapshot());
    assert_eq!(
        (writes.count, flushes.count),
        (2, 1),
        "payload, unlock; FLUSH"
    );
    assert!(flushes.min_ns >= FLUSH_NS, "{flushes:?}");
    assert!(
        writes.max_ns >= flushes.max_ns,
        "the unlock completed {} ns before its FLUSH",
        flushes.max_ns - writes.max_ns
    );
}

/// Two writers take turns on one object, so each one's remembered word is
/// one write behind: the lost guess returns the current word and the CAS
/// goes again at once. Every write lands, no lock retry is counted, and
/// the word is at version n after n writes.
#[test]
fn alternating_writers_win_every_lock_without_a_retry() {
    const WRITES: u64 = 40;
    let _guard = registry_guard();
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let config = ClientConfig {
        report_every: u32::MAX,
        consistency: Consistency::Seqlock,
        ..Default::default()
    };
    let mut writers = [
        cluster.client(config.clone()).unwrap(),
        cluster.client(config).unwrap(),
    ];
    let ptr = writers[0].alloc(0, 64).unwrap();
    for n in 0..WRITES {
        let payload = [n as u8; 64];
        writers[(n % 2) as usize].write(ptr, 0, &payload).unwrap();
        let mut buf = [0u8; 64];
        writers[((n + 1) % 2) as usize]
            .read(ptr, 0, &mut buf)
            .unwrap();
        assert_eq!(buf, payload, "write {n}");
    }
    for writer in &writers {
        let stats = writer.stats();
        assert_eq!(stats.lock_retries, 0, "{stats:?}");
        assert_eq!(stats.direct_writes, WRITES / 2, "{stats:?}");
    }
    let word = writers[0].read_lock_word(ptr).unwrap();
    assert_eq!(word, lockword::with_version(WRITES));
}

/// An object freed and allocated again under a writer that remembers its
/// old word is back at version 0: the writer's guess loses, the CAS takes
/// the word the object really has, and the first lock still flushes by
/// RPC — which drops the stamp-0 frame a `None` reader would otherwise
/// serve unchecked.
#[test]
fn a_reallocated_object_takes_the_first_lock_flush_again() {
    let _guard = registry_guard();
    let mut config = ServerConfig::small();
    config.cache = config.cache.hot_threshold(1);
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut writer = cluster
        .client(ClientConfig {
            report_every: u32::MAX,
            consistency: Consistency::Seqlock,
            ..Default::default()
        })
        .unwrap();
    let mut owner = cluster.default_client().unwrap();
    let mut reader = cluster
        .client(ClientConfig {
            report_every: 1,
            ..Default::default()
        })
        .unwrap();
    let ptr = owner.alloc(0, 64).unwrap();
    writer.write(ptr, 0, &[1u8; 64]).unwrap();
    writer.write(ptr, 0, &[2u8; 64]).unwrap();
    owner.free(ptr).unwrap();
    let again = owner.alloc(0, 64).unwrap();
    assert_eq!(again, ptr, "the allocator recycles the freed block");
    owner.write(again, 0, &[3u8; 64]).unwrap();
    owner.drain_all().unwrap();

    // The reader has the version-0 object promoted, its frame stamped 0.
    let mut buf = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    while reader.stats().cache_hits == 0 {
        reader.read(again, 0, &mut buf).unwrap();
        assert!(Instant::now() < deadline, "never promoted");
    }
    assert_eq!(buf, [3u8; 64]);

    let rpcs = counter("server.rpc_requests");
    writer.write(again, 0, &[4u8; 64]).unwrap();
    assert_eq!(
        counter("server.rpc_requests"),
        rpcs + 1,
        "the first-lock flush"
    );
    assert_eq!(writer.stats().lock_retries, 0, "{:?}", writer.stats());
    reader.read(again, 0, &mut buf).unwrap();
    assert_eq!(buf, [4u8; 64], "a frame of the old version served");
    assert_eq!(
        writer.read_lock_word(again).unwrap(),
        lockword::with_version(1)
    );
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

/// Hotness reports are one-sided: a read loop that crosses `report_every`
/// forty times over two servers costs the servers no RPC, while both
/// monitors fold the report slots the client counts as written.
#[test]
fn hotness_reports_cost_the_servers_no_rpc() {
    const ROUNDS: usize = 40;
    let _guard = registry_guard();
    let cluster = Cluster::launch(2, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster
        .client(ClientConfig {
            report_every: 8,
            ..Default::default()
        })
        .unwrap();
    let ptrs: Vec<GlobalPtr> = (0..8).map(|i| client.alloc(i % 2, 64).unwrap()).collect();
    for p in &ptrs {
        client.write(*p, 0, &[4u8; 64]).unwrap();
    }
    client.drain_all().unwrap();

    let (rpcs, folded, reports) = (
        counter("server.rpc_requests"),
        counter("hotness.reports"),
        client.stats().reports,
    );
    let mut buf = [0u8; 64];
    for _ in 0..ROUNDS {
        for p in &ptrs {
            client.read(*p, 0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 4));
        }
    }
    assert!(client.stats().reports > reports, "{:?}", client.stats());
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter("hotness.reports") < folded + 2
        || cluster.servers().iter().any(|s| s.cached_objects() == 0)
    {
        assert!(
            Instant::now() < deadline,
            "the epochs never folded both rings"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(counter("server.rpc_requests"), rpcs, "a report was an RPC");
}

/// A heated object's remap comes back through the report mailbox: reads
/// go on to hit the promoted frame, and no RPC was answered on the way.
#[test]
fn remaps_come_back_through_the_mailbox() {
    let _guard = registry_guard();
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster
        .client(ClientConfig {
            report_every: 4,
            ..Default::default()
        })
        .unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[3u8; 64]).unwrap();
    client.drain_all().unwrap();

    let rpcs = counter("server.rpc_requests");
    let mut buf = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().cache_hits == 0 {
        client.read(ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 3), "{buf:?}");
        assert!(Instant::now() < deadline, "never hit: {:?}", client.stats());
    }
    assert_eq!(client.remap_entries(), 1);
    assert_eq!(
        counter("server.rpc_requests"),
        rpcs,
        "the remap came by RPC"
    );
}

/// `proxy.ring_full_waits` counts real waits only: a write that finds the
/// writer's local view of its ring full, but whose re-read of the drained
/// watermark finds room, waits for nothing and counts nothing.
#[test]
fn a_stale_full_ring_view_is_not_a_ring_full_wait() {
    let _guard = registry_guard();
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let quiet = ClientConfig {
        report_every: u32::MAX,
        ..Default::default()
    };
    let mut client = cluster.client(quiet.clone()).unwrap();
    let mut observer = cluster.client(quiet).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    // One slot per write, and nothing re-reads the watermark in between:
    // the writer's view of its ring ends full.
    let slots = SLOTS_PER_RING as u8;
    for fill in 1..=slots {
        client.write(ptr, 0, &[fill; 64]).unwrap();
    }
    let mut probe = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe[0] != slots {
        observer.read(ptr, 0, &mut probe).unwrap();
        assert!(Instant::now() < deadline, "the ring never drained");
    }

    let waits = counter("proxy.ring_full_waits");
    client.write(ptr, 0, &[0xEE; 64]).unwrap();
    assert_eq!(
        counter("proxy.ring_full_waits"),
        waits,
        "a drained ring was counted full"
    );
    assert_eq!(client.stats().staged_writes, u64::from(slots) + 1);
    client.drain_all().unwrap();
    observer.read(ptr, 0, &mut probe).unwrap();
    assert!(probe.iter().all(|&b| b == 0xEE));
}

/// Connecting costs each server one RPC, the Mount: the staging ring is
/// the one the accept assigned, so no second round trip asks for it.
#[test]
fn connecting_costs_each_server_one_rpc() {
    const SERVERS: usize = 3;
    let _guard = registry_guard();
    let cluster = Cluster::launch(SERVERS, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let rpcs = counter("server.rpc_requests");
    let _client = cluster.default_client().unwrap();
    assert_eq!(counter("server.rpc_requests"), rpcs + SERVERS as u64);
}

/// The atomics, the lock calls and the lock-word read record no sample in
/// the clients' read and write latency histograms.
#[test]
fn atomics_and_lock_calls_record_no_read_or_write_latency() {
    let _guard = registry_guard();
    let samples = |name: &str| {
        Registry::global()
            .snapshot()
            .histogram(name)
            .map_or(0, |h| h.count)
    };
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    let before = (samples("client.read_ns"), samples("client.write_ns"));
    client.cas_u64(ptr, 0, 0, 1).unwrap();
    client.faa_u64(ptr, 0, 1).unwrap();
    client.lock(ptr).unwrap();
    client.read_lock_word(ptr).unwrap();
    client.unlock(ptr).unwrap();
    assert_eq!(
        (samples("client.read_ns"), samples("client.write_ns")),
        before
    );
}
