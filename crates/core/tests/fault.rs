//! Failure-injection tests: partitions, delays, crashes mid-traffic,
//! corrupt staging records, and recovery edge cases.

use std::sync::Arc;
use std::time::Duration;

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::layout::{encode_record_header, RECORD_HEADER};
use gengar_core::{GengarError, GlobalPtr};
use gengar_rdma::{FabricConfig, FaultPlane};

fn crash_cluster() -> Cluster {
    let mut config = ServerConfig::small();
    config.crash_sim = true;
    Cluster::launch(1, config, FabricConfig::instant()).unwrap()
}

/// A client that gives up quickly: operations against a dead server retry
/// (and re-dial) until this deadline, so tests that assert *failure*
/// through a partition should not sit out the default 2 s budget.
fn fast_fail_config() -> ClientConfig {
    ClientConfig {
        op_deadline: Duration::from_millis(200),
        max_retries: 8,
        ..Default::default()
    }
}

#[test]
fn partition_mid_stream_fails_cleanly() {
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.client(fast_fail_config()).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    let untouched = client.alloc(0, 64).unwrap(); // never in the store buffer
    for _ in 0..10 {
        client.write(ptr, 0, &[1u8; 64]).unwrap();
    }
    cluster.fabric().partition(
        client.node().id(),
        cluster.server(0).unwrap().node().id(),
        true,
    );
    // Both data-plane paths surface transport errors once the retry budget
    // is spent — not hangs or panics. (The exact variant depends on which
    // recovery stage the deadline interrupts.)
    let err = client.write(ptr, 0, &[2u8; 64]).unwrap_err();
    assert!(matches!(err, GengarError::Rdma(_)), "got {err:?}");
    assert!(
        client.stats().retries > 0,
        "failure should have been retried"
    );
    let mut buf = [0u8; 64];
    assert!(client.read(untouched, 0, &mut buf).is_err());
    // Read-your-writes from the local store buffer still works while the
    // link is down — the last acked write remains readable.
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 1));
}

#[test]
fn delayed_link_still_correct() {
    gengar_hybridmem::set_time_scale(1.0);
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    cluster.fabric().set_extra_delay_ns(
        client.node().id(),
        cluster.server(0).unwrap().node().id(),
        200_000, // 200 us each way
    );
    client.write(ptr, 0, b"slow but correct writes!").unwrap();
    client.drain_all().unwrap();
    let mut buf = vec![0u8; 24];
    client.read(ptr, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"slow but correct writes!");
}

#[test]
fn crash_under_concurrent_writers_loses_no_acked_write() {
    let cluster = Arc::new(crash_cluster());
    let mut setup = cluster.default_client().unwrap();
    let reader_cfg = ClientConfig {
        report_every: u32::MAX,
        ..Default::default()
    };
    let mut reader = cluster.client(reader_cfg).unwrap();
    let ptrs: Vec<_> = (0..4).map(|_| setup.alloc(0, 64).unwrap()).collect();

    // Writers hammer their own object; each remembers its last acked value.
    let mut handles = Vec::new();
    for (w, ptr) in ptrs.iter().enumerate() {
        let cluster = Arc::clone(&cluster);
        let ptr = *ptr;
        handles.push(std::thread::spawn(move || {
            let mut c = cluster.default_client().unwrap();
            let mut last = 0u8;
            for i in 1..=50u8 {
                let val = (w as u8) << 6 | (i & 0x3F);
                if c.write(ptr, 0, &[val; 64]).is_ok() {
                    last = val;
                }
            }
            last
        }));
    }
    let acked: Vec<u8> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Power failure + recovery.
    let server = cluster.server(0).unwrap();
    server.shutdown();
    server.crash().unwrap();
    server.recover().unwrap();

    for (ptr, &expected) in ptrs.iter().zip(&acked) {
        let mut buf = [0u8; 64];
        reader.read(*ptr, 0, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == expected),
            "object lost acked write: got {} expected {expected}",
            buf[0]
        );
    }
}

/// A `Seqlock` write to an object past version 0 sends no flush RPC: the
/// RDMA FLUSH under its last WRITE's doorbell persists the range before the
/// write is acknowledged, so the write survives a power failure.
#[test]
fn acknowledged_one_sided_seqlock_write_survives_a_crash() {
    let cluster = crash_cluster();
    let seqlock = ClientConfig {
        consistency: Consistency::Seqlock,
        report_every: u32::MAX,
        ..Default::default()
    };
    let mut writer = cluster.client(seqlock.clone()).unwrap();
    let mut reader = cluster.client(seqlock).unwrap();
    let ptr = writer.alloc(0, 64).unwrap();
    // The first write takes the object off version 0 (and the flush RPC).
    writer.write(ptr, 0, &[1u8; 64]).unwrap();
    writer.write(ptr, 0, &[2u8; 64]).unwrap();

    let server = cluster.server(0).unwrap();
    server.shutdown();
    server.crash().unwrap();
    server.recover().unwrap();
    let mut buf = [0u8; 64];
    reader.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 2), "acked write lost: {buf:?}");
}

#[test]
fn recovery_skips_corrupt_staging_records() {
    let cluster = crash_cluster();
    let mut client = cluster.default_client().unwrap();
    let mut reader = cluster
        .client(ClientConfig {
            report_every: u32::MAX,
            ..Default::default()
        })
        .unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[0x77u8; 64]).unwrap();
    client.drain_all().unwrap();

    let server = cluster.server(0).unwrap();
    server.shutdown();

    // Forge a torn record directly in a staging ring: plausible header,
    // payload that does not match its checksum (as if the client died
    // mid-WRITE). Recovery must ignore it.
    let staging = server.staging_region();
    let mut hdr = [0u8; RECORD_HEADER as usize];
    encode_record_header(&mut hdr, 999, ptr.addr.raw(), 64, 0xBAD_C0DE, 0, 0, 0);
    staging.write(0, &hdr).unwrap();
    staging.write(RECORD_HEADER, &[0xEE; 64]).unwrap();

    server.crash().unwrap();
    let replayed = server.recover().unwrap();
    assert_eq!(replayed, 0, "corrupt record must not replay");
    let mut buf = [0u8; 64];
    reader.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x77), "data regressed: {buf:?}");
}

#[test]
fn recovery_replays_ring_wrap_in_order() {
    let cluster = crash_cluster();
    let mut client = cluster.default_client().unwrap();
    let mut reader = cluster
        .client(ClientConfig {
            report_every: u32::MAX,
            ..Default::default()
        })
        .unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    // More writes than ring slots so the ring wraps several times, then
    // crash with whatever is still staged.
    for i in 1..=60u8 {
        client.write(ptr, 0, &[i; 64]).unwrap();
    }
    let server = cluster.server(0).unwrap();
    server.shutdown();
    server.crash().unwrap();
    server.recover().unwrap();
    let mut buf = [0u8; 64];
    reader.read(ptr, 0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 60),
        "latest acked write must win after wrap replay, got {}",
        buf[0]
    );
}

#[test]
fn restart_resumes_service_for_new_clients() {
    let cluster = crash_cluster();
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[0x42u8; 64]).unwrap();

    let server = cluster.server(0).unwrap();
    server.shutdown();
    server.crash().unwrap();
    server.recover().unwrap();
    server.restart();

    // A fresh client connects to the restarted server and works fully.
    let mut fresh = cluster.default_client().unwrap();
    let mut buf = [0u8; 64];
    fresh.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x42));
    let ptr2 = fresh.alloc(0, 128).unwrap();
    fresh.write(ptr2, 0, &[0x43u8; 128]).unwrap();
    fresh.drain_all().unwrap();
    let mut buf2 = [0u8; 128];
    fresh.read(ptr2, 0, &mut buf2).unwrap();
    assert!(buf2.iter().all(|&b| b == 0x43));
}

#[test]
fn one_server_down_leaves_others_usable() {
    let mut config = ServerConfig::small();
    config.crash_sim = true;
    let cluster = Cluster::launch(2, config, FabricConfig::instant()).unwrap();
    let mut client = cluster.client(fast_fail_config()).unwrap();
    let on_zero = client.alloc(0, 64).unwrap();
    let on_one = client.alloc(1, 64).unwrap();
    client.write(on_zero, 0, &[1u8; 64]).unwrap();
    client.write(on_one, 0, &[2u8; 64]).unwrap();
    client.drain_all().unwrap();

    // Partition server 0 away from the client.
    cluster.fabric().partition(
        client.node().id(),
        cluster.server(0).unwrap().node().id(),
        true,
    );
    let mut buf = [0u8; 64];
    assert!(client.read(on_zero, 0, &mut buf).is_err());
    // Server 1 is untouched.
    client.read(on_one, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 2));
    let ptr = client.alloc(1, 64).unwrap();
    client.write(ptr, 0, &[3u8; 64]).unwrap();
}

#[test]
fn rnr_on_stalled_proxy_is_survivable() {
    // A QP-level sanity check: an unserved proxy ring (no posted recvs
    // because the server never accepted) cannot happen through the public
    // API, but a stalled drain shows up as flow-control waits, not errors.
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    // Saturate the ring far past its 16 slots while draining normally.
    for i in 0..100u32 {
        client.write(ptr, 0, &[(i % 251) as u8; 64]).unwrap();
    }
    client.drain_all().unwrap();
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 99));
}

/// The data WRITE of a `Consistency::Seqlock` write dies with its queue
/// pair while the write holds the object's lock. The replay after the
/// reconnect must still release the lock it took in the failed attempt:
/// the write returns `Ok`, so nobody is left to unlock it.
#[test]
fn retried_seqlock_write_releases_the_lock_it_took() {
    let plane = Arc::new(FaultPlane::new(11));
    let mut fabric = FabricConfig::instant();
    fabric.faults = Some(Arc::clone(&plane));
    let cluster = Cluster::launch(1, ServerConfig::small(), fabric).unwrap();
    let seqlock = ClientConfig {
        consistency: Consistency::Seqlock,
        lock_retries: 50,
        ..Default::default()
    };
    let mut first = cluster.client(seqlock.clone()).unwrap();
    let mut second = cluster.client(seqlock).unwrap();
    let ptr = first.alloc(0, 64).unwrap();
    first.write(ptr, 0, &[1u8; 64]).unwrap();

    // Armed only now: the next plain WRITE on the fabric is the payload of
    // the locked write-through (lock READ and CAS come first, untouched).
    plane.parse("err:verb=write,imm=0,at=1").unwrap();
    first.write(ptr, 0, &[2u8; 64]).unwrap();
    assert_eq!(first.stats().reconnects, 1, "the WRITE must have failed");

    second.lock(ptr).expect("the object was left locked");
    let mut buf = [0u8; 64];
    second.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 2), "replayed write lost: {buf:?}");
    second.unlock(ptr).unwrap();
    // And the first client holds nothing it would skip locking for.
    first.write(ptr, 0, &[3u8; 64]).unwrap();
    second.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 3));
}

/// A `Seqlock` write fails for good while it holds the lock it took:
/// every plain WRITE errors, so its payload never lands and its retry
/// budget runs out. The lock stays with the client, and `lock()` adopts
/// it as the caller's: on an object still at version 0 with exactly one
/// flush RPC (a request and a response SEND), since the failed write may
/// have died before its own; past version 0 with no verb at all. `unlock`
/// then frees the object for another client.
#[test]
fn lock_adopts_the_lock_a_failed_write_left_behind() {
    for past_v0 in [false, true] {
        let plane = Arc::new(FaultPlane::new(19));
        let mut fabric = FabricConfig::instant();
        fabric.faults = Some(Arc::clone(&plane));
        let cluster = Cluster::launch(1, ServerConfig::small(), fabric).unwrap();
        let seqlock = ClientConfig {
            consistency: Consistency::Seqlock,
            lock_retries: 3,
            ..fast_fail_config()
        };
        let mut client = cluster.client(seqlock.clone()).unwrap();
        let mut rival = cluster.client(seqlock).unwrap();
        let ptr = client.alloc(0, 64).unwrap();
        if past_v0 {
            client.write(ptr, 0, &[1u8; 64]).unwrap();
        }

        plane.parse("err:verb=write,imm=0").unwrap();
        assert!(
            client.write(ptr, 0, &[2u8; 64]).is_err(),
            "past_v0={past_v0}"
        );
        plane.clear();

        let before = plane.ops_seen();
        client.lock(ptr).unwrap();
        let sent = plane.ops_seen() - before;
        assert_eq!(sent, if past_v0 { 0 } else { 2 }, "past_v0={past_v0}");
        assert!(
            matches!(rival.lock(ptr), Err(GengarError::LockContended(_))),
            "past_v0={past_v0}: the adopted lock must be held"
        );
        client.unlock(ptr).unwrap();
        rival.lock(ptr).unwrap();
        rival.unlock(ptr).unwrap();
    }
}

/// Every failed attempt of a `Seqlock` write re-dials the server, and each
/// re-dial takes a fresh client id. A `Seqlock` client stages nothing, so
/// its tenures' rings hold no record and their ids go back to the server:
/// the small server's eight ids outlast any number of reconnects, and the
/// lock the failed writes left behind is released over a ninth.
#[test]
fn reconnects_hand_back_the_ids_of_empty_rings() {
    let plane = Arc::new(FaultPlane::new(23));
    let mut fabric = FabricConfig::instant();
    fabric.faults = Some(Arc::clone(&plane));
    let cluster = Cluster::launch(1, ServerConfig::small(), fabric).unwrap();
    let seqlock = ClientConfig {
        consistency: Consistency::Seqlock,
        ..fast_fail_config()
    };
    let mut client = cluster.client(seqlock).unwrap();
    let ptr = client.alloc(0, 64).unwrap();

    plane.parse("err:verb=write,imm=0").unwrap();
    for _ in 0..10 {
        if client.stats().reconnects >= 10 {
            break;
        }
        assert!(client.write(ptr, 0, &[2u8; 64]).is_err());
    }
    plane.clear();
    let reconnects = client.stats().reconnects;
    assert!(reconnects >= 10, "stuck at {reconnects} reconnects");
    client.unlock(ptr).unwrap();
    client.write(ptr, 0, &[3u8; 64]).unwrap();
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    assert_eq!(buf, [3u8; 64]);
}

/// A cluster of one server whose fabric carries `plane`, and a client of
/// it holding one 64-byte object that reads 0.
fn faulted_object(plane: &Arc<FaultPlane>) -> (Cluster, gengar_core::GengarClient, GlobalPtr) {
    let mut fabric = FabricConfig::instant();
    fabric.faults = Some(Arc::clone(plane));
    let cluster = Cluster::launch(1, ServerConfig::small(), fabric).unwrap();
    let mut client = cluster.default_client().unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[0u8; 64]).unwrap();
    client.drain_all().unwrap();
    (cluster, client, ptr)
}

/// The lock CAS dies with its queue pair. `lock` runs on the issue path
/// like a locked write's CAS does, so it reconnects and takes the lock
/// instead of failing.
#[test]
fn lock_survives_a_failed_cas_through_a_reconnect() {
    let plane = Arc::new(FaultPlane::new(13));
    let (cluster, mut client, ptr) = faulted_object(&plane);
    let mut rival = cluster
        .client(ClientConfig {
            lock_retries: 3,
            ..Default::default()
        })
        .unwrap();

    plane.parse("err:verb=cas,at=1").unwrap();
    client
        .lock(ptr)
        .expect("the lock must survive one failed CAS");
    assert_eq!(client.stats().reconnects, 1, "the CAS must have failed");
    assert!(matches!(
        rival.lock(ptr),
        Err(GengarError::LockContended(_))
    ));
    client.unlock(ptr).unwrap();
    rival.lock(ptr).unwrap();
    rival.unlock(ptr).unwrap();
}

/// The flush RPC behind an atomic is lost: dropped on the wire or failed
/// with its queue pair. Either way the SEND fails its queue pair, the op
/// reconnects and only the flush goes out again; the atomic applies once.
#[test]
fn atomics_apply_once_when_their_flush_is_lost() {
    for spec in ["drop:verb=send,at=1", "err:verb=send,at=1"] {
        for cas in [false, true] {
            let plane = Arc::new(FaultPlane::new(17));
            let (_cluster, mut client, ptr) = faulted_object(&plane);
            plane.parse(spec).unwrap();
            let prev = if cas {
                client.cas_u64(ptr, 0, 0, 1).unwrap()
            } else {
                client.faa_u64(ptr, 0, 1).unwrap()
            };
            assert_eq!(prev, 0, "{spec} cas={cas}");
            if spec.starts_with("err") {
                let stats = client.stats();
                assert!(
                    stats.retries >= 1 && stats.reconnects == 1,
                    "{spec}: {stats:?}"
                );
            }
            let mut buf = [0u8; 8];
            client.read(ptr, 0, &mut buf).unwrap();
            assert_eq!(
                u64::from_le_bytes(buf),
                1,
                "{spec} cas={cas}: applied twice"
            );
        }
    }
}

/// A `Seqlock` write loses one verb of its chain: for good (the lock CAS,
/// the payload WRITE, the FLUSH under its doorbell or every unlock WRITE,
/// `at=` the even plain WRITEs once the payload's first WRITE passed), so
/// the write fails within its budget, or once (a FLUSH, an unlock), so a
/// reconnect recovers it. Each case leaves the lock never taken, held and
/// adoptable by the writer, or released with the payload durable — never
/// released without it.
#[test]
fn seqlock_write_never_releases_the_lock_without_its_payload() {
    use gengar_core::layout::lockword;

    let unlocks: Vec<String> = (1..=20).map(|i| (2 * i).to_string()).collect();
    let unlock_spec = format!("drop:verb=write,imm=0,at={}", unlocks.join("/"));
    for spec in [
        "drop:verb=cas",
        "drop:verb=write,imm=0",
        "drop:verb=flush",
        unlock_spec.as_str(),
        "drop:verb=flush,at=1",
        "drop:verb=write,imm=0,at=2",
    ] {
        let plane = Arc::new(FaultPlane::new(29));
        let mut fabric = FabricConfig::instant();
        fabric.faults = Some(Arc::clone(&plane));
        let mut server_config = ServerConfig::small();
        server_config.crash_sim = true;
        let cluster = Cluster::launch(1, server_config, fabric).unwrap();
        let seqlock = ClientConfig {
            consistency: Consistency::Seqlock,
            lock_retries: 3,
            report_every: u32::MAX,
            ..fast_fail_config()
        };
        let mut client = cluster.client(seqlock.clone()).unwrap();
        let mut rival = cluster.client(seqlock.clone()).unwrap();
        let ptr = client.alloc(0, 64).unwrap();
        // Past version 0: the chain persists with the FLUSH verb.
        client.write(ptr, 0, &[1u8; 64]).unwrap();
        let before = rival.read_lock_word(ptr).unwrap();

        plane.parse(spec).unwrap();
        let wrote = client.write(ptr, 0, &[2u8; 64]);
        plane.clear();
        let word = rival.read_lock_word(ptr).unwrap();
        if lockword::is_locked(word) {
            assert!(wrote.is_err(), "{spec}: acknowledged a write still locked");
            client.lock(ptr).expect("the writer adopts its lock");
            assert!(
                matches!(rival.lock(ptr), Err(GengarError::LockContended(_))),
                "{spec}: the adopted lock must be held"
            );
            client.unlock(ptr).unwrap();
        } else if lockword::version(word) == lockword::version(before) {
            assert!(wrote.is_err(), "{spec}: acknowledged a write never locked");
            let mut buf = [0u8; 64];
            rival.read(ptr, 0, &mut buf).unwrap();
            assert_eq!(buf, [1u8; 64], "{spec}: a never-locked write landed");
        } else {
            let server = cluster.server(0).unwrap();
            server.shutdown();
            server.crash().unwrap();
            server.recover().unwrap();
            server.restart();
            let mut reader = cluster.client(seqlock).unwrap();
            let mut buf = [0u8; 64];
            reader.read(ptr, 0, &mut buf).unwrap();
            assert_eq!(buf, [2u8; 64], "{spec}: released without the payload");
        }
    }
}

/// A `Seqlock` write that refreshes its object's frame loses one frame
/// WRITE: the odd head version, the payload with its tail, or the head
/// with the new stamp. The WRITEs behind the lost one flush with the queue
/// pair and the write completes on a retry without the frame, leaving it
/// torn or stale: readers fall back to NVM and read the new bytes, and
/// once the epoch re-copies the frame they hit it again.
#[test]
fn a_dropped_frame_write_never_serves_wrong_bytes() {
    // The second doorbell's WRITEs without an immediate: the payload, then
    // the frame's odd head, payload and tail, head and stamp, then the
    // unlock.
    for at in [2, 3, 4] {
        let plane = Arc::new(FaultPlane::new(37));
        let mut fabric = FabricConfig::instant();
        fabric.faults = Some(Arc::clone(&plane));
        let mut config = ServerConfig::small();
        config.cache = config.cache.hot_threshold(1);
        let cluster = Cluster::launch(1, config, fabric).unwrap();
        let seqlock = ClientConfig {
            consistency: Consistency::Seqlock,
            report_every: 1,
            ..Default::default()
        };
        let mut writer = cluster.client(seqlock.clone()).unwrap();
        let mut reader = cluster.client(seqlock).unwrap();
        let ptr = writer.alloc(0, 64).unwrap();
        writer.write(ptr, 0, &[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while writer.remap_entries() == 0 || reader.stats().cache_hits == 0 {
            writer.write(ptr, 0, &[1u8; 64]).unwrap();
            reader.read(ptr, 0, &mut buf).unwrap();
            assert!(std::time::Instant::now() < deadline, "never promoted");
        }

        plane
            .parse(&format!("drop:verb=write,imm=0,at={at}"))
            .unwrap();
        writer.write(ptr, 0, &[2u8; 64]).unwrap();
        plane.clear();
        assert_eq!(writer.stats().reconnects, 1, "at={at}: nothing was lost");
        let hits = reader.stats().cache_hits;
        reader.read(ptr, 0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64], "at={at}");
        assert_eq!(
            reader.stats().cache_hits,
            hits,
            "at={at}: a torn frame served"
        );
        while reader.stats().cache_hits == hits {
            reader.read(ptr, 0, &mut buf).unwrap();
            assert_eq!(buf, [2u8; 64], "at={at}");
            assert!(std::time::Instant::now() < deadline, "never re-copied");
        }
    }
}

/// A record lost in the middle of a four-record staged window fails the
/// records behind it with the proxy queue pair. The two ahead of it are
/// acknowledged; the reconnect replays them and the retry stages the
/// rest, so every record survives a drain barrier.
#[test]
fn staged_window_loss_keeps_every_acknowledged_record() {
    let plane = Arc::new(FaultPlane::new(31));
    let mut fabric = FabricConfig::instant();
    fabric.faults = Some(Arc::clone(&plane));
    let cluster = Cluster::launch(1, ServerConfig::small(), fabric).unwrap();
    let config = ClientConfig {
        report_every: u32::MAX,
        ..Default::default()
    };
    let mut client = cluster.client(config.clone()).unwrap();
    let ptrs: Vec<GlobalPtr> = (0..4).map(|_| client.alloc(0, 64).unwrap()).collect();

    plane.parse("drop:imm=1,at=3").unwrap();
    let values: Vec<[u8; 64]> = (0..4u8).map(|i| [i + 1; 64]).collect();
    let mut batch = client.batch();
    for (ptr, value) in ptrs.iter().zip(&values) {
        batch = batch.write(*ptr, 0, value);
    }
    assert!(batch.submit().unwrap().all_ok());
    let stats = client.stats();
    assert_eq!(stats.reconnects, 1, "the lost record must fail its QP");
    assert_eq!(stats.staged_writes, 4, "{stats:?}");
    client.drain_all().unwrap();

    let mut reader = cluster.client(config).unwrap();
    for (ptr, value) in ptrs.iter().zip(&values) {
        let mut buf = [0u8; 64];
        reader.read(*ptr, 0, &mut buf).unwrap();
        assert_eq!(&buf, value);
    }
}

/// An RPC request lost on the wire fails its queue pair: `alloc`
/// reconnects and succeeds on the fresh connection.
#[test]
fn lost_rpc_request_reconnects_the_client() {
    let plane = Arc::new(FaultPlane::new(37));
    let (_cluster, mut client, _ptr) = faulted_object(&plane);
    plane.parse("drop:verb=send,at=1").unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    assert_eq!(client.stats().reconnects, 1);
    client.write(ptr, 0, &[4u8; 64]).unwrap();
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    assert_eq!(buf, [4u8; 64]);
}

/// A barrier against a server whose loop is stopped cannot wait
/// forever: the stalled watermark fails it within the operation deadline.
#[test]
fn drain_all_fails_within_its_deadline_on_a_stopped_server() {
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let config = fast_fail_config();
    let deadline = config.op_deadline;
    let mut client = cluster.client(config).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    cluster.server(0).unwrap().shutdown();
    client.write(ptr, 0, &[5u8; 64]).unwrap();
    let t0 = std::time::Instant::now();
    let err = client.drain_all().unwrap_err();
    assert!(matches!(err, GengarError::Rdma(_)), "got {err:?}");
    assert!(
        t0.elapsed() < deadline + Duration::from_secs(1),
        "took {:?}",
        t0.elapsed()
    );
}

#[test]
fn errors_are_displayable_and_classified() {
    // Exercise the error surface produced by fault paths.
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.client(fast_fail_config()).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    cluster.fabric().partition(
        client.node().id(),
        cluster.server(0).unwrap().node().id(),
        true,
    );
    let err = client.write(ptr, 0, &[0u8; 64]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("rdma error"), "unhelpful message: {msg}");
    assert!(std::error::Error::source(&err).is_some());
}

/// A primary's epoch replaces its dead backup with no client traffic to
/// notice the death: killing server 1 of the ring 0 → 1 → 2 → 0 re-points
/// server 0 at server 2 within a second, and server 2's shadow wards 0.
#[test]
fn a_dead_backup_is_replaced_without_traffic() {
    let mut config = ServerConfig::small();
    config.replication.enabled = true;
    let cluster = Cluster::launch(3, config, FabricConfig::instant()).unwrap();
    let primary = cluster.server(0).unwrap();
    assert_eq!(primary.backup_id(), 1);
    let dead = cluster.server(1).unwrap();
    dead.shutdown();
    cluster.fabric().remove_node(dead.node().id());
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    while primary.backup_id() != 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "server 0's backup is still {} a second after its backup died",
            primary.backup_id()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(cluster.server(2).unwrap().shadow_ward(), Some(0));
}

#[test]
fn shutdown_is_idempotent_and_fast() {
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let _client = cluster.default_client().unwrap();
    let t0 = std::time::Instant::now();
    cluster.server(0).unwrap().shutdown();
    cluster.server(0).unwrap().shutdown();
    cluster.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(2));
}

/// Endpoints hold resolved routes to their peers, but no route sits in a
/// QP, so the nodes do not keep each other alive: once a cluster and its
/// clients are dropped, every node of its fabric is freed.
#[test]
fn dropping_a_cluster_and_its_clients_frees_every_node() {
    let cluster = Cluster::launch(2, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.default_client().unwrap();
    for server in 0..2 {
        let ptr = client.alloc(server, 64).unwrap();
        client.write(ptr, 0, &[server; 64]).unwrap();
        client.drain_all().unwrap();
        let mut buf = [0u8; 64];
        client.read(ptr, 0, &mut buf).unwrap();
    }
    let nodes: Vec<_> = cluster
        .servers()
        .iter()
        .map(|s| Arc::downgrade(s.node()))
        .chain([Arc::downgrade(client.node())])
        .collect();
    drop(client);
    drop(cluster);
    assert!(nodes.iter().all(|n| n.upgrade().is_none()));
}

/// A client's routes outlive the fabric they were resolved on only as
/// errors: once its cluster is gone, its next call fails, even a one-sided
/// read of an object it has read before.
#[test]
fn a_client_that_outlives_its_cluster_fails() {
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.client(fast_fail_config()).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[5u8; 64]).unwrap();
    client.drain_all().unwrap();
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    drop(cluster);
    assert!(client.read(ptr, 0, &mut buf).is_err());
    assert!(client.write(ptr, 0, &[6u8; 64]).is_err());
}
