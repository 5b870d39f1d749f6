//! End-to-end tests of the vectored `OpBatch` API: mixed batches,
//! per-op results and partial completion, scalar-atomic interleaving, the
//! cached-read window path, multi-server fan-out, and the seqlock and
//! chunk phases (lock overlap, torn-read freedom, contention, oversize).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::{GengarClient, GengarError, GlobalPtr};
use gengar_rdma::FabricConfig;
use gengar_telemetry::{SpanRecord, TraceId, TraceMode, Tracer};

fn small_cluster() -> Cluster {
    Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap()
}

fn client(cluster: &Cluster) -> GengarClient {
    cluster.client(ClientConfig::default()).unwrap()
}

#[test]
fn mixed_batch_round_trips_and_sees_own_writes() {
    let cluster = small_cluster();
    let mut client = client(&cluster);
    let a = client.alloc(0, 64).unwrap();
    let b = client.alloc(0, 64).unwrap();
    let mut got_a = [0u8; 5];
    let mut got_b = [0u8; 5];
    // Reads queued in the same batch as the writes must observe them
    // (writes apply before reads are issued).
    let result = client
        .batch()
        .write(a, 0, b"hello")
        .write(b, 0, b"world")
        .read(a, 0, &mut got_a)
        .read(b, 0, &mut got_b)
        .submit()
        .unwrap();
    assert!(result.all_ok(), "{:?}", result.results());
    assert_eq!(result.len(), 4);
    assert_eq!(&got_a, b"hello");
    assert_eq!(&got_b, b"world");
}

#[test]
fn same_object_writes_apply_in_submission_order() {
    let cluster = small_cluster();
    let mut client = client(&cluster);
    let ptr = client.alloc(0, 64).unwrap();
    let result = client
        .batch()
        .write(ptr, 0, &[1u8; 64])
        .write(ptr, 0, &[2u8; 64])
        .write(ptr, 0, &[3u8; 64])
        .submit()
        .unwrap();
    assert!(result.all_ok());
    client.drain_all().unwrap();
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 3), "last write must win: {buf:?}");
}

#[test]
fn large_batches_match_scalar_reads() {
    let cluster = small_cluster();
    let mut writer = client(&cluster);
    // Far more objects than the window depth, so the planner must flush
    // several chunks per attempt.
    let ptrs: Vec<GlobalPtr> = (0..100).map(|_| writer.alloc(0, 64).unwrap()).collect();
    let payloads: Vec<[u8; 64]> = (0..100u8).map(|i| [i; 64]).collect();
    let items: Vec<(GlobalPtr, u64, &[u8])> = ptrs
        .iter()
        .zip(&payloads)
        .map(|(p, d)| (*p, 0u64, &d[..]))
        .collect();
    let result = writer.write_batch(items).unwrap();
    assert!(result.all_ok());
    writer.drain_all().unwrap();

    let mut bufs = vec![[0u8; 64]; 100];
    let items: Vec<(GlobalPtr, u64, &mut [u8])> = ptrs
        .iter()
        .zip(bufs.iter_mut())
        .map(|(p, b)| (*p, 0u64, &mut b[..]))
        .collect();
    let result = writer.read_batch(items).unwrap();
    assert!(result.all_ok());
    for (i, buf) in bufs.iter().enumerate() {
        assert_eq!(buf, &payloads[i], "object {i} read back wrong");
    }
}

#[test]
fn partial_completion_reports_per_op_errors() {
    let cluster = small_cluster();
    let mut client = client(&cluster);
    let ptr = client.alloc(0, 64).unwrap();
    let mut good = [0u8; 8];
    let mut oob = [0u8; 8];
    let result = client
        .batch()
        .write(ptr, 0, &[7u8; 64])
        .read(ptr, 0, &mut good)
        // Out of bounds: offset + len exceeds the object.
        .read(ptr, 60, &mut oob)
        .submit()
        .unwrap();
    assert_eq!(result.completed(), 2);
    assert!(result.results()[0].is_ok() && result.results()[1].is_ok());
    assert!(matches!(
        result.results()[2],
        Err(GengarError::AccessOutOfBounds { .. })
    ));
    // The good ops stayed applied and the error is addressable.
    assert_eq!(&good, &[7u8; 8]);
    let err = result.into_result().unwrap_err();
    assert_eq!(err.failed_at, 2);
    assert_eq!(err.completed, 2);
    assert!(matches!(*err.cause, GengarError::AccessOutOfBounds { .. }));
    assert!(err.to_string().contains("op 2"));
}

// Atomics in a batch are unrepresentable: `OpBatch` has no
// `cas_u64`/`faa_u64`/`lock`/`unlock` methods, so the old runtime-rejection
// test is now a compile-time guarantee. Scalar atomics still interleave
// correctly with batches:
#[test]
fn scalar_atomics_interleave_with_batches() {
    let cluster = small_cluster();
    let mut client = client(&cluster);
    let ptr = client.alloc(0, 64).unwrap();
    let result = client.batch().write(ptr, 0, &[9u8; 64]).submit().unwrap();
    assert!(result.all_ok());
    client.drain_all().unwrap();
    // The ordering-sensitive atomic goes through the scalar path.
    let old = client
        .cas_u64(ptr, 0, u64::from_le_bytes([9; 8]), 1)
        .unwrap();
    assert_eq!(old, u64::from_le_bytes([9; 8]));
    let mut buf = [0u8; 8];
    client.read(ptr, 0, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 1);
}

#[test]
fn empty_batch_is_ok() {
    let cluster = small_cluster();
    let mut client = client(&cluster);
    let result = client.batch().submit().unwrap();
    assert!(result.is_empty() && result.all_ok());
    assert!(client.read_batch(Vec::new()).unwrap().is_empty());
    assert!(client.write_batch(Vec::new()).unwrap().is_empty());
}

#[test]
fn batch_fans_out_across_servers() {
    let cluster = Cluster::launch(3, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.client(ClientConfig::default()).unwrap();
    let ptrs: Vec<GlobalPtr> = (0..3)
        .flat_map(|s| (0..4).map(move |_| s))
        .map(|s| client.alloc(s, 64).unwrap())
        .collect();
    let payloads: Vec<[u8; 64]> = (0..12u8).map(|i| [i + 1; 64]).collect();
    let items: Vec<(GlobalPtr, u64, &[u8])> = ptrs
        .iter()
        .zip(&payloads)
        .map(|(p, d)| (*p, 0u64, &d[..]))
        .collect();
    assert!(client.write_batch(items).unwrap().all_ok());
    client.drain_all().unwrap();
    let mut bufs = vec![[0u8; 64]; 12];
    let items: Vec<(GlobalPtr, u64, &mut [u8])> = ptrs
        .iter()
        .zip(bufs.iter_mut())
        .map(|(p, b)| (*p, 0u64, &mut b[..]))
        .collect();
    assert!(client.read_batch(items).unwrap().all_ok());
    for (i, buf) in bufs.iter().enumerate() {
        assert_eq!(buf, &payloads[i]);
    }
}

#[test]
fn window_depth_one_disables_pipelining_but_stays_correct() {
    let cluster = small_cluster();
    let mut client = cluster
        .client(ClientConfig {
            window_depth: 1,
            ..Default::default()
        })
        .unwrap();
    let ptrs: Vec<GlobalPtr> = (0..10).map(|_| client.alloc(0, 64).unwrap()).collect();
    let items: Vec<(GlobalPtr, u64, &[u8])> =
        ptrs.iter().map(|p| (*p, 0u64, &b"serial"[..])).collect();
    assert!(client.write_batch(items).unwrap().all_ok());
    client.drain_all().unwrap();
    let mut buf = [0u8; 6];
    for p in &ptrs {
        client.read(*p, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"serial");
    }
}

#[test]
fn batched_reads_use_the_cache_once_hot() {
    let mut config = ServerConfig::small();
    config.cache = config.cache.hot_threshold(2);
    config.epoch = Duration::from_millis(5);
    let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
    let mut client = cluster
        .client(ClientConfig {
            report_every: 8,
            ..Default::default()
        })
        .unwrap();
    let ptrs: Vec<GlobalPtr> = (0..4).map(|_| client.alloc(0, 64).unwrap()).collect();
    for (i, p) in ptrs.iter().enumerate() {
        client.write(*p, 0, &[i as u8 + 1; 64]).unwrap();
    }
    client.drain_all().unwrap();

    // Hammer via batches until promotion lands and batched reads hit.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut bufs = vec![[0u8; 64]; 4];
    loop {
        let items: Vec<(GlobalPtr, u64, &mut [u8])> = ptrs
            .iter()
            .zip(bufs.iter_mut())
            .map(|(p, b)| (*p, 0u64, &mut b[..]))
            .collect();
        assert!(client.read_batch(items).unwrap().all_ok());
        for (i, buf) in bufs.iter().enumerate() {
            assert!(
                buf.iter().all(|&x| x == i as u8 + 1),
                "object {i} torn or stale: {buf:?}"
            );
        }
        if client.stats().cache_hits > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "batched reads never hit the cache: {:?}",
            client.stats()
        );
    }
}

/// One `Consistency::Seqlock` write and one read per server, as one batch.
/// Returns the batch's trace id.
fn seqlock_round(client: &mut GengarClient, ptrs: &[GlobalPtr], fill: u8) -> TraceId {
    let payload = [fill; 64];
    let mut bufs = vec![[0u8; 64]; ptrs.len()];
    let mut batch = client.batch();
    for (ptr, buf) in ptrs.iter().zip(bufs.iter_mut()) {
        batch = batch.write(*ptr, 0, &payload).read(*ptr, 0, buf);
    }
    let result = batch.submit().unwrap();
    assert!(result.all_ok(), "{:?}", result.results());
    for buf in &bufs {
        assert!(buf.iter().all(|&x| x == fill), "read missed the write");
    }
    result.trace_id()
}

/// The doorbells the batch `trace` rang on the issuing thread, by group in
/// order of the groups' first doorbell: each as (start ns, WRs posted).
fn doorbells_by_group(spans: &[SpanRecord], trace: TraceId) -> Vec<Vec<(u64, u64)>> {
    let spans: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == trace.0).collect();
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, *s)).collect();
    let root = spans
        .iter()
        .find(|s| s.parent == 0)
        .expect("the batch's root span");
    let group_of = |doorbell: &SpanRecord| {
        let mut parent = doorbell.parent;
        loop {
            match by_id.get(&parent) {
                Some(s) if s.name == "client.group" => return s.span,
                Some(s) => parent = s.parent,
                None => panic!("doorbell {doorbell:?} outside any group"),
            }
        }
    };
    let mut doorbells: Vec<&SpanRecord> = spans
        .iter()
        .copied()
        .filter(|s| s.name == "rdma.doorbell" && s.tid == root.tid)
        .collect();
    doorbells.sort_by_key(|s| s.start_ns);
    let mut groups: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
    for s in doorbells {
        let group = group_of(s);
        match groups.iter_mut().find(|(g, _)| *g == group) {
            Some((_, rung)) => rung.push((s.start_ns, s.detail)),
            None => groups.push((group, vec![(s.start_ns, s.detail)])),
        }
    }
    groups.into_iter().map(|(_, rung)| rung).collect()
}

/// The per-server groups of a `Seqlock` batch overlap their locks. Each
/// object was written before, so every group's chain starts at the lock
/// CAS with the word the client's own unlock published: CAS, then WRITE,
/// FLUSH and the fenced unlock under one doorbell, then the read's triple.
/// All four CASes are on the wire before any group harvests a completion —
/// each group's second doorbell waits for its CAS's. The order is read
/// from the trace, not timed: only a stall of the issuing thread for a
/// whole 4 ms round trip, between a post and the next poll, could break
/// it. Groups stepped one at a time ring a whole chain before the next
/// group's CAS.
#[test]
fn seqlock_batches_overlap_their_locks_across_servers() {
    const SERVERS: u8 = 4;
    let cluster = Cluster::launch(
        SERVERS as usize,
        ServerConfig::small(),
        FabricConfig::instant(),
    )
    .unwrap();
    let mut client = cluster
        .client(ClientConfig {
            consistency: Consistency::Seqlock,
            report_every: u32::MAX,
            ..Default::default()
        })
        .unwrap();
    let ptrs: Vec<GlobalPtr> = (0..SERVERS).map(|s| client.alloc(s, 64).unwrap()).collect();
    // The first round leaves each object's word known.
    seqlock_round(&mut client, &ptrs, 1);
    let tracer = Tracer::global();
    tracer.set_mode(TraceMode::Full);
    // 2 ms each way keeps every completion out of reach of the pass that
    // posted its verb, and the traced window short: other tests' spans
    // share the tracer's buffer.
    for s in 0..SERVERS {
        cluster.fabric().set_extra_delay_ns(
            client.node().id(),
            cluster.server(s).unwrap().node().id(),
            2_000_000,
        );
    }
    tracer.clear();
    let trace = seqlock_round(&mut client, &ptrs, 2);
    tracer.set_mode(TraceMode::Off);
    let groups = doorbells_by_group(&tracer.snapshot(), trace);
    assert_eq!(groups.len(), usize::from(SERVERS), "{groups:?}");
    for rung in &groups {
        let wrs: Vec<u64> = rung.iter().map(|&(_, n)| n).collect();
        assert_eq!(wrs, [1, 3, 3], "CAS, WRITE+FLUSH+unlock, triple");
    }
    let last_cas = groups.iter().map(|rung| rung[0].0).max().unwrap();
    let first_harvested = groups.iter().map(|rung| rung[1].0).min().unwrap();
    assert!(
        last_cas < first_harvested,
        "a group moved past its CAS before every CAS was on the wire: {groups:?}"
    );
    // Seqlock writes go through the direct (write-through) path.
    let stats = client.stats();
    assert_eq!(stats.direct_writes, 2 * u64::from(SERVERS), "{stats:?}");
    assert_eq!(stats.staged_writes, 0, "{stats:?}");
    assert_eq!(stats.lock_retries + stats.read_retries, 0, "{stats:?}");
}

/// Hotness reports ride behind a batch, never inside it: their doorbells
/// gather in the op areas and poll the send CQs the batch's groups own.
/// Interleaved with seqlock batches that hold flush RPCs open (each round
/// writes objects still at version 0, whose first lock takes the RPC),
/// they must neither stall a flush nor stop being written.
#[test]
fn reports_never_cross_a_flush_in_flight() {
    const SERVERS: u8 = 4;
    let cluster = Cluster::launch(
        SERVERS as usize,
        ServerConfig::small(),
        FabricConfig::instant(),
    )
    .unwrap();
    let mut client = cluster
        .client(ClientConfig {
            consistency: Consistency::Seqlock,
            report_every: 3,
            ..Default::default()
        })
        .unwrap();
    let rounds: Vec<Vec<GlobalPtr>> = (0..200)
        .map(|_| (0..SERVERS).map(|s| client.alloc(s, 64).unwrap()).collect())
        .collect();
    let started = Instant::now();
    for (round, ptrs) in rounds.iter().enumerate() {
        seqlock_round(&mut client, ptrs, round as u8);
    }
    // A response dropped as stale costs the flush its 100 ms patience.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "{:?}",
        started.elapsed()
    );
    assert!(client.stats().reports > 200, "{:?}", client.stats());
}

/// A writer republishes a 16 KiB object of one repeated sequence word while
/// a reader reads it whole on the planned (versioned) path: a validated
/// read is never torn and never older than the last acknowledged write.
#[test]
fn seqlock_reads_are_never_torn_or_stale_under_a_writer() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const WORDS: usize = 2048;
    const WRITES: u64 = 400;
    let cluster = std::sync::Arc::new(small_cluster());
    let seqlock = ClientConfig {
        consistency: Consistency::Seqlock,
        report_every: u32::MAX,
        read_retries: 64,
        ..Default::default()
    };
    let mut reader = cluster.client(seqlock.clone()).unwrap();
    let ptr = reader.alloc(0, (WORDS * 8) as u64).unwrap();
    reader.write(ptr, 0, &[0u8; WORDS * 8]).unwrap();
    let acked = std::sync::Arc::new(AtomicU64::new(0));
    let done = std::sync::Arc::new(AtomicBool::new(false));
    let writer = {
        let (cluster, acked, done) = (cluster.clone(), acked.clone(), done.clone());
        std::thread::spawn(move || {
            let mut writer = cluster.client(seqlock).unwrap();
            for seq in 1..=WRITES {
                let payload: Vec<u8> = seq.to_le_bytes().repeat(WORDS);
                writer.write(ptr, 0, &payload).unwrap();
                acked.store(seq, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
            writer.stats()
        })
    };
    let mut buf = vec![0u8; WORDS * 8];
    let (mut reads, mut contended) = (0u64, 0u64);
    while !done.load(Ordering::SeqCst) {
        let floor = acked.load(Ordering::SeqCst);
        match reader.read(ptr, 0, &mut buf) {
            Ok(()) => {
                let first = u64::from_le_bytes(buf[..8].try_into().unwrap());
                assert!(
                    buf.chunks_exact(8).all(|w| w == &buf[..8]),
                    "torn read around sequence {first}"
                );
                assert!(
                    first >= floor,
                    "read {first} after {floor} was acknowledged"
                );
                reads += 1;
            }
            Err(GengarError::ReadContended(_)) => contended += 1,
            Err(e) => panic!("read failed: {e}"),
        }
    }
    let writer_stats = writer.join().unwrap();
    assert_eq!(writer_stats.direct_writes, WRITES, "{writer_stats:?}");
    assert_eq!(writer_stats.lock_retries, 0, "nobody else locks");
    let stats = reader.stats();
    assert!(
        reads > 0,
        "the reader never got a validated read: {stats:?}"
    );
    // Every retry belongs to a read, and no read takes more than its budget.
    assert!(stats.read_retries <= 64 * (reads + contended), "{stats:?}");
    assert_eq!(stats.nvm_reads, reads, "{stats:?}");
}

#[test]
fn seqlock_read_gives_up_when_the_lock_outlasts_its_retries() {
    let cluster = small_cluster();
    let seqlock = ClientConfig {
        consistency: Consistency::Seqlock,
        read_retries: 5,
        ..Default::default()
    };
    let mut holder = cluster.client(seqlock.clone()).unwrap();
    let mut reader = cluster.client(seqlock).unwrap();
    let ptr = holder.alloc(0, 64).unwrap();
    holder.write(ptr, 0, &[9u8; 64]).unwrap();
    holder.lock(ptr).unwrap();
    let mut buf = [0u8; 64];
    let err = reader.read(ptr, 0, &mut buf).unwrap_err();
    assert!(matches!(err, GengarError::ReadContended(_)), "got {err:?}");
    assert_eq!(reader.stats().read_retries, 5);
    // The holder itself reads plainly under its own lock.
    holder.read(ptr, 0, &mut buf).unwrap();
    holder.unlock(ptr).unwrap();
    reader.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 9));
}

/// Objects larger than the op area go through the chunk phases: the direct
/// write chain's chunk cursor and the read plan that re-posts per chunk,
/// plain under `Consistency::None` and versioned per chunk under `Seqlock`.
#[test]
fn oversize_ops_round_trip_through_the_chunk_phases() {
    const LEN: usize = 300 << 10;
    let cluster = small_cluster();
    // One 4 KiB staging slot (+ watermark pads), two control words and an
    // op area of ~96 KiB: a 300 KiB object is three chunks and a remainder.
    let scratch = gengar_core::rpc::RPC_BUF_BYTES + (4 << 10) + 16 + 64 + (96 << 10);
    let pattern =
        |salt: usize| -> Vec<u8> { (0..LEN).map(|i| ((i * 31 + salt) % 251) as u8).collect() };
    for (consistency, salt) in [(Consistency::None, 1), (Consistency::Seqlock, 2)] {
        let mut client = cluster
            .client(ClientConfig {
                consistency,
                scratch_capacity: scratch,
                ..Default::default()
            })
            .unwrap();
        let ptr = client.alloc(0, LEN as u64).unwrap();
        let small = client.alloc(0, 64).unwrap();
        let data = pattern(salt);
        let (mut big, mut little) = (vec![0u8; LEN], [0u8; 64]);
        // The small neighbours share the batch: they must not be planned
        // into the op area while a chunked op owns it.
        let result = client
            .batch()
            .write(small, 0, &[salt as u8; 64])
            .write(ptr, 0, &data)
            .read(small, 0, &mut little)
            .read(ptr, 0, &mut big)
            .submit()
            .unwrap();
        assert!(result.all_ok(), "{consistency:?}: {:?}", result.results());
        assert!(big == data, "{consistency:?}: chunked read-back differs");
        assert!(little.iter().all(|&x| x == salt as u8));
        // An unaligned interior range crosses a chunk boundary too.
        let mut mid = vec![0u8; 150 << 10];
        client.read(ptr, 12_345, &mut mid).unwrap();
        assert!(mid == data[12_345..12_345 + mid.len()], "{consistency:?}");
        let stats = client.stats();
        assert_eq!(stats.read_retries + stats.lock_retries, 0, "{stats:?}");
    }
}

#[test]
fn out_of_order_cross_server_completions_match_their_ops() {
    // Two servers on a realistic (deferred-completion) fabric, with the
    // link to server 0 given a large extra delay: in one batch, server
    // 1's completions arrive long before server 0's, so the reactor
    // settles the groups in the opposite of their planning order. Every
    // op must still land in its own buffer/slot — distinct fill patterns
    // and an interleaved op order catch any cross-group mismatch.
    let cluster =
        Cluster::launch(2, ServerConfig::small(), FabricConfig::infiniband_100g()).unwrap();
    let mut client = cluster.client(ClientConfig::default()).unwrap();
    let slow: Vec<GlobalPtr> = (0..4).map(|_| client.alloc(0, 256).unwrap()).collect();
    let fast: Vec<GlobalPtr> = (0..4).map(|_| client.alloc(1, 256).unwrap()).collect();
    for (i, ptr) in slow.iter().enumerate() {
        client.write(*ptr, 0, &[0xA0 + i as u8; 256]).unwrap();
    }
    for (i, ptr) in fast.iter().enumerate() {
        client.write(*ptr, 0, &[0xB0 + i as u8; 256]).unwrap();
    }
    client.drain_all().unwrap();
    cluster.fabric().set_extra_delay_ns(
        client.node().id(),
        cluster.server(0).unwrap().node().id(),
        300_000,
    );

    // Interleave slow/fast ops so per-server groups pick non-contiguous
    // batch indices.
    let mut bufs = vec![[0u8; 256]; 8];
    let (head, tail) = bufs.split_at_mut(4);
    let items: Vec<(GlobalPtr, u64, &mut [u8])> = head
        .iter_mut()
        .zip(tail.iter_mut())
        .enumerate()
        .flat_map(|(i, (s, f))| [(slow[i], 0u64, &mut s[..]), (fast[i], 0u64, &mut f[..])])
        .collect();
    let result = client.read_batch(items).unwrap();
    assert!(result.all_ok(), "{:?}", result.results());
    for i in 0..4 {
        assert!(
            bufs[i].iter().all(|&b| b == 0xA0 + i as u8),
            "slow-server op {i} got mismatched data: {:#x}",
            bufs[i][0]
        );
        assert!(
            bufs[i + 4].iter().all(|&b| b == 0xB0 + i as u8),
            "fast-server op {i} got mismatched data: {:#x}",
            bufs[i + 4][0]
        );
    }
}
