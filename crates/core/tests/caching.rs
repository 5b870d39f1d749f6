//! End-to-end tests of the hot-data caching machinery: promotion,
//! eviction under pressure, invalidation, stale-remap self-healing,
//! re-promotion, frames that one-sided writes outdate and the epoch
//! re-copies, and the report rings that feed the hotness monitor.

use std::time::{Duration, Instant};

use gengar_core::cache::AdmissionMode;
use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::hotness::REPORT_SLOTS;
use gengar_core::server::MemoryServer;
use gengar_core::GengarError;
use gengar_hybridmem::DeviceProfile;
use gengar_rdma::FabricConfig;

fn cache_cluster() -> Cluster {
    let mut config = ServerConfig::small();
    // Two 64-byte-payload slots' worth of cache (each slot block is 128 B:
    // 32 B header + 64 B payload + 8 B tail rounds to 128).
    config.cache = config.cache.capacity(4096).hot_threshold(2);
    config.epoch = Duration::from_millis(5);
    Cluster::launch(1, config, FabricConfig::instant()).unwrap()
}

fn reporting_client(cluster: &Cluster) -> gengar_core::GengarClient {
    cluster
        .client(ClientConfig {
            report_every: 8,
            ..Default::default()
        })
        .unwrap()
}

/// Hammers `ptr` until the client observes a cache hit (with a deadline).
fn wait_for_hit(client: &mut gengar_core::GengarClient, ptr: gengar_core::GlobalPtr) {
    let mut buf = vec![0u8; ptr.size as usize];
    let before = client.stats().cache_hits;
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().cache_hits == before {
        client.read(ptr, 0, &mut buf).unwrap();
        assert!(
            Instant::now() < deadline,
            "no promotion: {:?}",
            client.stats()
        );
    }
}

#[test]
fn eviction_under_pressure_keeps_hottest() {
    let cluster = cache_cluster();
    let mut client = reporting_client(&cluster);
    // Working set of 16 objects, cache holds ~2. Hammer two of them much
    // harder than the rest.
    let ptrs: Vec<_> = (0..16).map(|_| client.alloc(0, 64).unwrap()).collect();
    for p in &ptrs {
        client.write(*p, 0, &[9u8; 64]).unwrap();
    }
    client.drain_all().unwrap();
    let mut buf = [0u8; 64];
    for round in 0..400 {
        client.read(ptrs[0], 0, &mut buf).unwrap();
        client.read(ptrs[1], 0, &mut buf).unwrap();
        if round % 8 == 0 {
            client.read(ptrs[round % 16], 0, &mut buf).unwrap();
        }
    }
    std::thread::sleep(Duration::from_millis(50));
    // The server never caches more than capacity allows.
    let server = cluster.server(0).unwrap();
    assert!(server.cached_objects() <= 4096 / 128);
    // The two hot objects dominate; reads of them hit.
    wait_for_hit(&mut client, ptrs[0]);
    wait_for_hit(&mut client, ptrs[1]);
}

#[test]
fn stale_remap_self_heals_after_server_side_eviction() {
    let cluster = cache_cluster();
    let mut client = reporting_client(&cluster);
    let hot = client.alloc(0, 64).unwrap();
    client.write(hot, 0, &[1u8; 64]).unwrap();
    client.drain_all().unwrap();
    wait_for_hit(&mut client, hot);
    assert!(client.remap_entries() >= 1);

    // Evict server-side by making other objects hotter while this client
    // still holds its remap entry.
    let mut other = reporting_client(&cluster);
    let fillers: Vec<_> = (0..8).map(|_| other.alloc(0, 64).unwrap()).collect();
    let mut buf = [0u8; 64];
    for p in &fillers {
        other.write(*p, 0, &[2u8; 64]).unwrap();
    }
    other.drain_all().unwrap();
    for _ in 0..600 {
        for p in &fillers {
            other.read(*p, 0, &mut buf).unwrap();
        }
    }
    std::thread::sleep(Duration::from_millis(50));

    // The first client's reads stay correct regardless of remap staleness:
    // tag/version validation rejects recycled slots and falls back to NVM.
    for _ in 0..50 {
        client.read(hot, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1), "stale slot served: {buf:?}");
    }
}

#[test]
fn free_invalidates_cached_copy() {
    let cluster = cache_cluster();
    let mut client = reporting_client(&cluster);
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[5u8; 64]).unwrap();
    client.drain_all().unwrap();
    wait_for_hit(&mut client, ptr);
    client.free(ptr).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        cluster.server(0).unwrap().cached_objects(),
        0,
        "freed object still cached"
    );
}

#[test]
fn repromotion_after_invalidation() {
    let cluster = cache_cluster();
    let mut client = reporting_client(&cluster);
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[1u8; 64]).unwrap();
    client.drain_all().unwrap();
    wait_for_hit(&mut client, ptr);

    // A direct write invalidates the cached copy...
    let mut writer = cluster
        .client(ClientConfig {
            consistency: gengar_core::Consistency::Seqlock,
            ..Default::default()
        })
        .unwrap();
    writer.write(ptr, 0, &[2u8; 64]).unwrap();

    // ...and continued heat re-promotes it with the new contents.
    let mut buf = [0u8; 64];
    let before = client.stats().cache_hits;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.read(ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2), "stale data: {buf:?}");
        if client.stats().cache_hits > before + 5 {
            break;
        }
        assert!(Instant::now() < deadline, "never re-promoted");
    }
}

/// Frames of a version-0 object carry stamp 0, which a `None` reader
/// accepts without fetching the lock word, so the first lock of an object
/// has the server invalidate them by RPC — a `lock` that no write follows
/// included. After `lock` + `unlock` moved the word, a one-sided `Seqlock`
/// write (no RPC) must not leave a `None` reader holding the remap on the
/// old bytes.
#[test]
fn first_lock_invalidates_frames_a_none_reader_trusts_unchecked() {
    let cluster = cache_cluster();
    let mut reader = reporting_client(&cluster);
    let ptr = reader.alloc(0, 64).unwrap();
    reader.write(ptr, 0, &[1u8; 64]).unwrap();
    reader.drain_all().unwrap();
    wait_for_hit(&mut reader, ptr);
    // A silent writer: no report marks its write, so no epoch re-copies
    // the frame behind it.
    let mut writer = cluster
        .client(ClientConfig {
            consistency: Consistency::Seqlock,
            report_every: u32::MAX,
            ..Default::default()
        })
        .unwrap();
    writer.lock(ptr).unwrap();
    writer.unlock(ptr).unwrap();
    assert_eq!(cluster.server(0).unwrap().cache_stats().invalidations, 1);
    writer.write(ptr, 0, &[2u8; 64]).unwrap();
    let mut buf = [0u8; 64];
    for _ in 0..200 {
        reader.read(ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2), "stale frame served: {buf:?}");
    }
    assert_eq!(
        writer.read_lock_word(ptr).unwrap(),
        4,
        "lock, then one write"
    );
}

/// A one-sided `Seqlock` write outdates the object's frame without an RPC;
/// the writer's report marks it written, and the next epoch re-copies the
/// frame into the same slot. The reader keeps its remap entry throughout,
/// never reads the old bytes, and hits again once the frame is current.
#[test]
fn one_sided_writes_are_re_copied_in_place_by_the_next_epoch() {
    let cluster = cache_cluster();
    let server = cluster.server(0).unwrap();
    let seqlock = |report_every| ClientConfig {
        consistency: Consistency::Seqlock,
        report_every,
        ..Default::default()
    };
    let mut reader = cluster.client(seqlock(8)).unwrap();
    let mut writer = cluster.client(seqlock(1)).unwrap();
    let ptr = writer.alloc(0, 64).unwrap();
    writer.write(ptr, 0, &[1u8; 64]).unwrap();
    wait_for_hit(&mut reader, ptr);
    let (cached, remaps) = (server.cache_stats(), reader.remap_entries());

    writer.write(ptr, 0, &[2u8; 64]).unwrap();
    assert_eq!(
        server.cache_stats().invalidations,
        cached.invalidations,
        "a one-sided write invalidates nothing"
    );
    let mut buf = [0u8; 64];
    let hits = reader.stats().cache_hits;
    let deadline = Instant::now() + Duration::from_secs(10);
    while reader.stats().cache_hits < hits + 5 {
        reader.read(ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2), "stale data: {buf:?}");
        assert!(
            Instant::now() < deadline,
            "never re-copied: {:?}",
            reader.stats()
        );
    }
    let now = server.cache_stats();
    assert!(now.refreshes > cached.refreshes, "{now:?}");
    // Same frame, same slot: nothing was dropped or promoted again.
    assert_eq!(
        (now.promotions, now.invalidations, now.evictions),
        (cached.promotions, cached.invalidations, cached.evictions),
        "{now:?}"
    );
    assert_eq!(reader.remap_entries(), remaps);
}

/// A `Seqlock` writer that knows its object's frame refreshes it while it
/// holds the lock, ahead of its unlock: another client's next read is a
/// cache hit on the new bytes. The epoch is 10 s, so none runs between the
/// write and the read to re-copy the frame.
#[test]
fn a_seqlock_write_refreshes_the_frame_for_the_next_reader() {
    let mut config = ServerConfig::small();
    config.cache = config.cache.hot_threshold(1);
    config.epoch = Duration::from_secs(10);
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let server = cluster.server(0).unwrap();
    let seqlock = ClientConfig {
        consistency: Consistency::Seqlock,
        report_every: 1,
        ..Default::default()
    };
    let mut writer = cluster.client(seqlock.clone()).unwrap();
    let mut reader = cluster.client(seqlock).unwrap();
    let ptr = writer.alloc(0, 64).unwrap();
    // The first lock moves the word past version 0 (by the flush RPC).
    writer.write(ptr, 0, &[1u8; 64]).unwrap();
    let mut buf = [0u8; 64];
    reader.read(ptr, 0, &mut buf).unwrap();
    // The first epoch promotes the object; both clients' mailboxes name
    // its frame.
    wait_for_fold(server);
    let epoch = server.epochs();
    let deadline = Instant::now() + Duration::from_secs(5);
    while writer.remap_entries() == 0 || reader.stats().cache_hits == 0 {
        writer.read(ptr, 0, &mut buf).unwrap();
        reader.read(ptr, 0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
        assert!(Instant::now() < deadline, "{:?}", reader.stats());
    }
    for round in 2..8u8 {
        writer.write(ptr, 0, &[round; 64]).unwrap();
        let before = reader.stats();
        reader.read(ptr, 0, &mut buf).unwrap();
        let after = reader.stats();
        assert_eq!(buf, [round; 64], "round {round}");
        assert_eq!(
            (after.cache_hits, after.nvm_reads),
            (before.cache_hits + 1, before.nvm_reads),
            "round {round}: {after:?}"
        );
    }
    assert_eq!(server.epochs(), epoch, "an epoch ran in between");
    assert_eq!(server.cache_stats().refreshes, 0);
}

/// The slot of a writer's frame is recycled to another object of the same
/// size. While a client holds the first object's lock — as a writer does
/// from the check of its frame's tag to its frame WRITEs — no epoch evicts
/// it. Once free, the slot goes to the hotter object; the writer, whose
/// remap still names that slot, then writes under the lock it takes and
/// finds the other object's tag: the other object's readers never see its
/// bytes, although the stamp it would write equals that object's word.
#[test]
fn a_recycled_slot_never_takes_a_writers_bytes() {
    let mut config = ServerConfig::small();
    // The smallest cache (4 KiB) holds one 2 KiB frame; score-only
    // admission evicts at once.
    config.cache = config
        .cache
        .capacity(4096)
        .hot_threshold(1)
        .admission(AdmissionMode::ScoreOnly)
        .ghost_entries(0);
    config.epoch = Duration::from_millis(5);
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let server = cluster.server(0).unwrap();
    let seqlock = |report_every| ClientConfig {
        consistency: Consistency::Seqlock,
        report_every,
        ..Default::default()
    };
    let mut writer = cluster.client(seqlock(1)).unwrap();
    let mut other = cluster.client(seqlock(1)).unwrap();
    let mut holder = cluster.client(seqlock(u32::MAX)).unwrap();
    const SIZE: usize = 2048;
    let (x, y) = (
        writer.alloc(0, 2048).unwrap(),
        other.alloc(0, 2048).unwrap(),
    );
    let mut buf = [0u8; SIZE];
    // x at word 4, cached, its frame known to the writer.
    writer.write(x, 0, &[1u8; SIZE]).unwrap();
    writer.write(x, 0, &[2u8; SIZE]).unwrap();
    wait_for_hit(&mut writer, x);
    assert_eq!(server.cached_objects(), 1);
    // y at word 8: the stamp the writer's next write of x publishes.
    for fill in 3..7u8 {
        other.write(y, 0, &[fill; SIZE]).unwrap();
    }
    // A client holds x's lock (word 5): y, hot, must not take x's slot.
    holder.lock(x).unwrap();
    let cached = server.cache_stats();
    let epoch = server.epochs();
    while server.epochs() < epoch + 20 {
        other.read(y, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 6), "y reads {}", buf[0]);
    }
    let held = server.cache_stats();
    assert_eq!(
        (held.evictions, held.promotions),
        (cached.evictions, cached.promotions),
        "evicted under a held lock"
    );
    // Released at word 6: the next epochs hand the slot to y.
    holder.unlock(x).unwrap();
    wait_for_hit(&mut other, y);
    assert_eq!(server.cached_objects(), 1);
    // The writer's remap still names the slot; its write of x locks at
    // word 6 and would publish stamp 8, y's word.
    assert!(writer.remap_entries() >= 1);
    writer.write(x, 0, &[9u8; SIZE]).unwrap();
    for _ in 0..50 {
        other.read(y, 0, &mut buf).unwrap();
        let fill = buf[0];
        assert!(
            buf.iter().all(|&b| b == 6),
            "y reads {fill}: the writer's bytes"
        );
    }
    writer.read(x, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 9), "x reads {}", buf[0]);
}

/// A free of an object whose stamped frame a client's lock guards is
/// refused until the lock is released: the holder may still be writing
/// into the frame, so its slot must not go to another object yet.
#[test]
fn a_free_waits_for_the_objects_lock() {
    let mut config = ServerConfig::small();
    config.cache = config.cache.hot_threshold(1);
    config.epoch = Duration::from_millis(5);
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let server = cluster.server(0).unwrap();
    let seqlock = || ClientConfig {
        consistency: Consistency::Seqlock,
        report_every: 1,
        ..Default::default()
    };
    let mut owner = cluster.client(seqlock()).unwrap();
    let mut holder = cluster.client(seqlock()).unwrap();
    let x = owner.alloc(0, 64).unwrap();
    owner.write(x, 0, &[1u8; 64]).unwrap();
    wait_for_hit(&mut owner, x);
    holder.lock(x).unwrap();
    let refused = owner.free(x);
    assert!(
        matches!(refused, Err(GengarError::LockContended(a)) if a == x.addr),
        "{refused:?}"
    );
    assert_eq!(server.cached_objects(), 1);
    holder.unlock(x).unwrap();
    owner.free(x).unwrap();
    assert_eq!(server.cached_objects(), 0);
    assert!(owner.free(x).is_err(), "freed twice");
}

#[test]
fn oversized_objects_never_cached() {
    let mut config = ServerConfig::small();
    config.cache = config.cache.cacheable_max(128).hot_threshold(1);
    config.epoch = Duration::from_millis(5);
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = reporting_client(&cluster);
    let big = client.alloc(0, 4096).unwrap();
    client.write(big, 0, &[3u8; 4096]).unwrap();
    client.drain_all().unwrap();
    let mut buf = vec![0u8; 4096];
    for _ in 0..200 {
        client.read(big, 0, &mut buf).unwrap();
    }
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(cluster.server(0).unwrap().cached_objects(), 0);
    assert_eq!(client.stats().cache_hits, 0);
}

#[test]
fn second_client_benefits_from_first_clients_heat() {
    // The key contrast with client-side caching: the server cache serves
    // every client, including ones that never touched the object before.
    let cluster = cache_cluster();
    let mut hotter = reporting_client(&cluster);
    let ptr = hotter.alloc(0, 64).unwrap();
    hotter.write(ptr, 0, &[7u8; 64]).unwrap();
    hotter.drain_all().unwrap();
    wait_for_hit(&mut hotter, ptr);

    // The second client learns the remap from its mailbox once its first
    // reports are folded, and then hits the same server-side copy.
    let mut cold = reporting_client(&cluster);
    let mut buf = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    while cold.stats().cache_hits == 0 {
        cold.read(ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        assert!(Instant::now() < deadline, "second client never hit");
    }
}

/// One server whose epoch folds once a second and promotes every reported
/// address, so a test can act between two folds.
fn slow_epoch_cluster() -> Cluster {
    let mut config = ServerConfig::small();
    config.cache = config.cache.hot_threshold(1);
    config.epoch = Duration::from_secs(1);
    Cluster::launch(1, config, FabricConfig::instant()).unwrap()
}

/// Blocks until `server` completes its next epoch.
fn wait_for_fold(server: &MemoryServer) {
    let epoch = server.epochs();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.epochs() == epoch {
        assert!(Instant::now() < deadline, "no epoch folded");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Blocks until a fold that began after this call has finished. The
/// monitor counts an epoch as it folds, before the epoch promotes, and a
/// fold already under way may have taken the report ring before the
/// caller's last report landed: the count can move twice before a fold
/// that saw the report is over, and moves a third time only after it.
fn wait_for_fold_after(server: &MemoryServer) {
    let epoch = server.epochs();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.epochs() < epoch + 3 {
        assert!(Instant::now() < deadline, "no epoch folded");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A full report ring never holds a client up. With `report_every` 1 and a
/// 1 s epoch, the ring is full after `REPORT_SLOTS` reads; later accesses
/// stay pending without a wait, and once folds have freed the ring every
/// distinct address reaches the monitor (each one is promoted).
#[test]
fn full_report_ring_keeps_accesses_pending_without_a_wait() {
    const OBJECTS: usize = 100;
    let cluster = slow_epoch_cluster();
    let server = cluster.server(0).unwrap();
    let mut loader = cluster
        .client(ClientConfig {
            report_every: u32::MAX,
            ..Default::default()
        })
        .unwrap();
    let ptrs: Vec<_> = (0..OBJECTS).map(|_| loader.alloc(0, 64).unwrap()).collect();
    let mut client = cluster
        .client(ClientConfig {
            report_every: 1,
            ..Default::default()
        })
        .unwrap();

    // Start right after a fold: the whole loop runs inside one epoch.
    wait_for_fold(server);
    let epoch = server.epochs();
    let started = Instant::now();
    let mut buf = [0u8; 64];
    for p in &ptrs {
        client.read(*p, 0, &mut buf).unwrap();
    }
    let took = started.elapsed();
    assert_eq!(
        server.epochs(),
        epoch,
        "the loop outlasted an epoch: {took:?}"
    );
    assert!(
        took < Duration::from_millis(500),
        "a report waited: {took:?}"
    );
    assert_eq!(
        client.stats().reports,
        REPORT_SLOTS,
        "one slot per read until full"
    );

    // The fold frees the ring: the next flush learns so from the cursor,
    // and the one after it writes every address that waited, in one slot.
    wait_for_fold(server);
    client.flush_reports().unwrap();
    client.flush_reports().unwrap();
    assert_eq!(client.stats().reports, REPORT_SLOTS + 1);
    wait_for_fold_after(server);
    assert_eq!(server.cached_objects(), OBJECTS);
}

/// A reused client id starts from a clean report area: after
/// `release_client`, the next accept on the same id folds the new tenure's
/// first report and none of the old tenure's slots.
#[test]
fn reused_client_id_folds_only_the_new_tenures_reports() {
    let cluster = slow_epoch_cluster();
    let server = cluster.server(0).unwrap();
    let reporting = ClientConfig {
        report_every: 1,
        ..Default::default()
    };
    // The first client of a fresh single-server cluster holds id 0.
    let mut old = cluster.client(reporting.clone()).unwrap();
    let (a, b) = (old.alloc(0, 64).unwrap(), old.alloc(0, 64).unwrap());
    let mut buf = [0u8; 64];

    wait_for_fold(server);
    let epoch = server.epochs();
    old.read(a, 0, &mut buf).unwrap();
    old.read(a, 0, &mut buf).unwrap();
    assert_eq!(old.stats().reports, 2, "the old tenure leaves two slots");
    server.release_client(0);
    let mut new = cluster.client(reporting).unwrap();
    new.read(b, 0, &mut buf).unwrap();
    assert_eq!(server.epochs(), epoch, "an epoch folded mid-test");

    wait_for_fold_after(server);
    assert_eq!(
        server.cached_objects(),
        1,
        "the old tenure's slots were folded"
    );
    // The promoted object is the new tenure's: its mailbox hands it over.
    let deadline = Instant::now() + Duration::from_secs(10);
    while new.stats().cache_hits == 0 {
        new.read(b, 0, &mut buf).unwrap();
        assert!(Instant::now() < deadline, "{:?}", new.stats());
    }
}

/// A client's table for one connection records a frame or a remembered
/// lock word for at most `objects::OBJECTS` (65 536) objects; past that a
/// new object gets an entry only to carry a hold or a staged write. Filled
/// past the bound with a cached frame and remembered words, the client
/// still releases every lock it takes, serves and drains every staged
/// write, and reads an object refused a frame from NVM.
#[test]
fn past_the_object_bound_no_hold_or_staged_write_is_forgotten() {
    const OBJECTS: usize = 65_536;
    // Optane-speed NVM and 4 KiB records ahead of each staged write keep
    // it un-drained when it is read back.
    let mut config = ServerConfig::small();
    config.nvm_capacity = 32 << 20;
    config.nvm_profile = DeviceProfile::optane();
    config.staging_ring_capacity = 256 << 10;
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = reporting_client(&cluster);
    let hot = client.alloc(0, 64).unwrap();
    client.write(hot, 0, &[1; 64]).unwrap();
    client.drain_all().unwrap();
    wait_for_hit(&mut client, hot);
    assert_eq!(client.remap_entries(), 1);
    for _ in 0..OBJECTS {
        let filler = client.alloc(0, 8).unwrap();
        client.read_lock_word(filler).unwrap();
    }

    let locked: Vec<_> = (0..64).map(|_| client.alloc(0, 64).unwrap()).collect();
    let staged: Vec<_> = (0..64).map(|_| client.alloc(0, 64).unwrap()).collect();
    let ahead: Vec<_> = (0..12).map(|_| client.alloc(0, 4096).unwrap()).collect();
    for &p in &locked {
        client.lock(p).unwrap();
    }
    let mut buf = [0u8; 64];
    for (i, &p) in staged.iter().enumerate() {
        for &a in &ahead {
            client.write(a, 0, &[0; 4096]).unwrap();
        }
        client.write(p, 0, &[i as u8; 64]).unwrap();
        client.read(p, 0, &mut buf).unwrap();
        assert_eq!(buf, [i as u8; 64], "read-your-writes of staged write {i}");
    }
    for &p in &locked {
        client.unlock(p).unwrap();
    }
    client.drain_all().unwrap();
    let mut other = reporting_client(&cluster);
    for &p in &locked {
        other.lock(p).unwrap();
        other.unlock(p).unwrap();
    }
    for (i, &p) in staged.iter().enumerate() {
        other.read(p, 0, &mut buf).unwrap();
        assert_eq!(buf, [i as u8; 64], "staged write {i} after the drain");
    }
    assert_eq!(other.stats().lock_retries, 0, "{:?}", other.stats());

    // An object heated past the bound: the server caches it (the other
    // client hits its frame), but this client records no frame for it.
    let cold = client.alloc(0, 64).unwrap();
    client.write(cold, 0, &[7; 64]).unwrap();
    client.drain_all().unwrap();
    let hits = client.stats().cache_hits;
    let deadline = Instant::now() + Duration::from_secs(10);
    while other.stats().cache_hits == 0 {
        for _ in 0..8 {
            client.read(cold, 0, &mut buf).unwrap();
            assert_eq!(buf, [7; 64]);
        }
        other.read(cold, 0, &mut buf).unwrap();
        assert!(Instant::now() < deadline, "never promoted");
    }
    for _ in 0..64 {
        client.read(cold, 0, &mut buf).unwrap();
        assert_eq!(buf, [7; 64]);
        client.flush_reports().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(client.stats().cache_hits, hits, "{:?}", client.stats());
    assert_eq!(client.remap_entries(), 1);
}
