//! Failure-injection tests: partitions, delays, crashes mid-traffic,
//! corrupt staging records, and recovery edge cases.

use std::sync::Arc;
use std::time::Duration;

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::layout::{encode_record_header, RECORD_HEADER};
use gengar_core::GengarError;
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
