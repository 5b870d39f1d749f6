//! One rule table, every entry point: the server's record applier judges
//! a staged record the same way whether it arrives through the live
//! primary drain, the live mirror drain, `recover` (either lane kind) or
//! `Promote`. Records are forged straight into the staging region
//! (`MemoryServer::staging_region`), so the test controls every header
//! field a real client would never get wrong. The live drains see the
//! table one doorbell per record and as one doorbell (one run); the run
//! tests pin what a run costs and that a retired ring drains no more. The
//! loop tests pin what sharing one server loop must not cost: the epoch's
//! cadence, RPC answers and overlap between runs of one harvest.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gengar_core::addr::{GlobalAddr, MemClass};
use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, ServerConfig};
use gengar_core::layout::{checksum, encode_record_header, RECORD_HEADER};
use gengar_core::proto::{MountInfo, Request, Response};
use gengar_core::proxy::RingLayout;
use gengar_core::rpc::{RpcClient, RPC_BUF_BYTES};
use gengar_core::MemoryServer;
use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind, MemRegion};
use gengar_rdma::{
    Access, Endpoint, FabricConfig, MemoryRegion, Payload, ProtectionDomain, RKey, RdmaNode,
    RemoteAddr, SendOp,
};

const LEN: u64 = 64;
/// Where forged records aim, far above anything the allocator hands out.
const TARGETS: u64 = 1 << 20;
const FILL: u8 = 0x5A;

/// A 2-server replicated cluster. Each server drains on its one loop, so
/// a later record on *any* ring is drained after every earlier one.
fn cluster() -> Cluster {
    let mut config = ServerConfig::small();
    config.crash_sim = true;
    config.replication.enabled = true;
    Cluster::launch(2, config, FabricConfig::instant()).unwrap()
}

/// A hand-driven client: the control plane (for `Mount`'s rkeys and
/// `Promote`) and the proxy endpoint of its own ring.
struct RawClient {
    node: Arc<RdmaNode>,
    pd: ProtectionDomain,
    rpc: RpcClient,
    mount: MountInfo,
    cid: u32,
    proxy: Endpoint,
    _data: Endpoint,
}

fn raw_client(cluster: &Cluster, server: &MemoryServer) -> RawClient {
    let node = cluster.fabric().add_node();
    let pd = node.alloc_pd();
    let channel = server.accept(&node, &pd).unwrap();
    let buf = MemDevice::new(9, DeviceProfile::instant(MemKind::Dram), RPC_BUF_BYTES).unwrap();
    let buf = pd
        .reg_mr(MemRegion::whole(Arc::new(buf)), Access::all())
        .unwrap();
    let rpc = RpcClient::new(channel.rpc, buf);
    let tenant = "default".to_owned();
    let Ok(Response::Mount(mount)) = rpc.call(&Request::Mount { tenant }) else {
        panic!("mount failed");
    };
    RawClient {
        node,
        pd,
        rpc,
        mount,
        cid: channel.cid,
        proxy: channel.proxy,
        _data: channel.data,
    }
}

/// The ring under test as the test sees it: where its slots, its image
/// (local NVM or the shadow), and its two watermark words live.
struct Lane {
    server: Arc<MemoryServer>,
    staging_rkey: RKey,
    image: Arc<MemoryRegion>,
    ctl: Arc<MemoryRegion>,
    cid: u32,
    layout: RingLayout,
    /// The server id records on this ring must address.
    home: u8,
    /// The mirror tenure's epoch (0 = primary lane).
    epoch: u32,
}

impl Lane {
    fn new(server: &Arc<MemoryServer>, mount: &MountInfo, cid: u32, home: u8, epoch: u32) -> Lane {
        let image_key = if epoch == 0 {
            mount.nvm_rkey
        } else {
            mount.shadow_rkey
        };
        Lane {
            server: Arc::clone(server),
            staging_rkey: RKey(mount.staging_rkey),
            image: server.node().mr_by_key(image_key).unwrap(),
            ctl: server.node().mr_by_key(mount.ctl_rkey).unwrap(),
            cid,
            layout: mount.ring_layout(),
            home,
            epoch,
        }
    }

    fn slot_off(&self, slot: u32) -> u64 {
        self.cid as u64 * self.layout.ring_bytes() + self.layout.slot_offset(slot)
    }

    fn watermarks(&self) -> (u64, u64) {
        let off = self.cid as u64 * 8;
        (
            self.image.region().load_u64(off).unwrap(),
            self.ctl.region().load_u64(off).unwrap(),
        )
    }

    fn image_bytes(&self, off: u64) -> Vec<u8> {
        let mut buf = vec![0u8; LEN as usize];
        self.image.region().read(off, &mut buf).unwrap();
        buf
    }
}

/// One forged record and, if the applier wrongly accepted it, the image
/// bytes it would have changed.
struct Row {
    rule: &'static str,
    seq: u64,
    addr: u64,
    len: u64,
    checksum: u64,
    epoch: u32,
    canary: Option<u64>,
}

impl Row {
    fn bytes(&self) -> Vec<u8> {
        let mut rec = vec![FILL; (RECORD_HEADER + LEN) as usize];
        encode_record_header(
            &mut rec,
            self.seq,
            self.addr,
            self.len,
            self.checksum,
            0,
            0,
            self.epoch,
        );
        rec
    }
}

fn nvm(server: u8, off: u64) -> u64 {
    GlobalAddr::new(server, MemClass::Nvm, off).raw()
}

/// A record the applier must accept.
fn valid(lane: &Lane, seq: u64, target: u64) -> Row {
    Row {
        rule: "valid",
        seq,
        addr: nvm(lane.home, target),
        len: LEN,
        checksum: checksum(&[FILL; LEN as usize]),
        epoch: lane.epoch,
        canary: None,
    }
}

/// Every way a record can be wrong on this lane, each aimed at its own
/// untouched 64 bytes, with sequence numbers above `first_seq`.
fn bad_rows(lane: &Lane, first_seq: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut add = |rule, edit: &dyn Fn(&mut Row, u64)| {
        let n = rows.len() as u64;
        let target = TARGETS + 256 * (n + 1);
        let mut row = valid(lane, first_seq + n, target);
        row.rule = rule;
        row.canary = Some(target);
        edit(&mut row, target);
        rows.push(row);
    };
    add("bad checksum", &|r, _| r.checksum ^= 1);
    add("len > slot_payload", &|r, _| {
        r.len = lane.layout.slot_payload + 1;
    });
    add("MemClass::Dram address", &|r, t| {
        r.addr = GlobalAddr::new(lane.home, MemClass::DramCache, t).raw();
    });
    add("wrong home server", &|r, t| r.addr = nvm(lane.home + 2, t));
    add("offset + len past the image", &|r, _| {
        r.addr = nvm(lane.home, lane.image.len() - LEN / 2);
        r.canary = None;
    });
    if lane.epoch != 0 {
        add("wrong epoch", &|r, _| r.epoch += 1);
    }
    rows
}

/// What must hold once the entry point has judged `rows` and one valid
/// record `applied` (aimed at `TARGETS`): only that one landed, and both
/// watermark words name it.
fn assert_only_valid_applied(entry: &str, lane: &Lane, rows: &[Row], applied: u64) {
    assert_eq!(
        lane.watermarks(),
        (applied, applied),
        "{entry}: watermark / ctl word moved by a rejected record"
    );
    assert_eq!(lane.image_bytes(TARGETS), [FILL; LEN as usize], "{entry}");
    for row in rows {
        if let Some(canary) = row.canary {
            assert_eq!(
                lane.image_bytes(canary),
                [0u8; LEN as usize],
                "{entry}: record with {} was applied",
                row.rule
            );
        }
    }
}

/// The WRITE_WITH_IMM that stages `row` into `slot` of the lane's ring.
fn stage_op(lane: &Lane, slot: u32, row: &Row) -> SendOp {
    SendOp::Write {
        payload: Payload::Inline(row.bytes()),
        remote: RemoteAddr::new(lane.staging_rkey, lane.slot_off(slot)),
        imm: Some(slot),
    }
}

/// Live drains: ring the ring's doorbell once per record, or once for the
/// whole table (`one_doorbell`: the drain sees it as one run), the valid
/// record first so any wrongly applied record after it would move the
/// watermark past it. `fence` must not return before the server loop has
/// judged everything posted so far.
fn drive_live(
    entry: &str,
    lane: &Lane,
    proxy: &Endpoint,
    fence: &mut dyn FnMut(),
    one_doorbell: bool,
) {
    let mut rows = vec![valid(lane, 10, TARGETS)];
    rows.extend(bad_rows(lane, 20));
    let ops = rows
        .iter()
        .enumerate()
        .map(|(slot, row)| stage_op(lane, slot as u32, row));
    if one_doorbell {
        for done in proxy.execute_many(ops.collect()).unwrap() {
            done.unwrap();
        }
    } else {
        for op in ops {
            proxy.execute(op).unwrap();
        }
    }
    fence();
    assert_only_valid_applied(entry, lane, &rows, 10);
}

/// Replays: seed the ring's watermark with a first replay of one record,
/// then stage the table — plus a record at or below that watermark — and
/// replay again. `replay` returns the number of records it applied.
fn drive_replay(entry: &str, lane: &Lane, replay: &mut dyn FnMut() -> u64) {
    let staging = lane.server.staging_region();
    let seed = valid(lane, 5, TARGETS + 128);
    staging.write(lane.slot_off(15), &seed.bytes()).unwrap();
    assert_eq!(replay(), 1, "{entry}: seed record");
    assert_eq!(lane.watermarks(), (5, 5), "{entry}: seed record");

    let mut rows = bad_rows(lane, 20);
    let mut stale = valid(lane, 3, TARGETS + 256 * 15);
    stale.rule = "seq <= watermark";
    stale.canary = Some(TARGETS + 256 * 15);
    rows.push(stale);
    rows.push(valid(lane, 10, TARGETS));
    for (slot, row) in rows.iter().enumerate() {
        staging
            .write(lane.slot_off(slot as u32), &row.bytes())
            .unwrap();
    }
    assert_eq!(replay(), 1, "{entry}: only the valid record replays");
    assert_only_valid_applied(entry, lane, &rows, 10);
    assert_eq!(replay(), 0, "{entry}: replay is idempotent");
    assert_only_valid_applied(entry, lane, &rows, 10);
}

/// A write through a real client on `server`, drained: on the server's one
/// loop, everything posted to that server before it has been judged.
fn fence_on(cluster: &Cluster, server: u8) -> impl FnMut() {
    let mut client = cluster.client(ClientConfig::default()).unwrap();
    let ptr = client.alloc(server, 64).unwrap();
    move || {
        client.write(ptr, 0, &[1u8; 64]).unwrap();
        client.drain_all().unwrap();
    }
}

#[test]
fn live_primary_drain_applies_the_rule_table() {
    let cluster = cluster();
    let server = cluster.server(0).unwrap();
    let raw = raw_client(&cluster, server);
    let lane = Lane::new(server, &raw.mount, raw.cid, 0, 0);
    let mut fence = fence_on(&cluster, 0);
    drive_live("live primary drain", &lane, &raw.proxy, &mut fence, false);
}

#[test]
fn live_primary_drain_applies_the_rule_table_as_one_run() {
    let cluster = cluster();
    let server = cluster.server(0).unwrap();
    let raw = raw_client(&cluster, server);
    let lane = Lane::new(server, &raw.mount, raw.cid, 0, 0);
    let mut fence = fence_on(&cluster, 0);
    drive_live("live primary run", &lane, &raw.proxy, &mut fence, true);
}

#[test]
fn live_mirror_drain_applies_the_rule_table() {
    let cluster = cluster();
    let backup = cluster.server(1).unwrap();
    let raw = raw_client(&cluster, backup);
    let mirror = backup.accept_mirror(&raw.node, &raw.pd, 0).unwrap();
    let lane = Lane::new(backup, &raw.mount, mirror.cid, 0, mirror.epoch);
    let mut fence = fence_on(&cluster, 1);
    drive_live("live mirror drain", &lane, &mirror.proxy, &mut fence, false);
}

#[test]
fn live_mirror_drain_applies_the_rule_table_as_one_run() {
    let cluster = cluster();
    let backup = cluster.server(1).unwrap();
    let raw = raw_client(&cluster, backup);
    let mirror = backup.accept_mirror(&raw.node, &raw.pd, 0).unwrap();
    let lane = Lane::new(backup, &raw.mount, mirror.cid, 0, mirror.epoch);
    let mut fence = fence_on(&cluster, 1);
    drive_live("live mirror run", &lane, &mirror.proxy, &mut fence, true);
}

#[test]
fn recover_applies_the_rule_table_to_a_primary_ring() {
    let cluster = cluster();
    let server = cluster.server(0).unwrap();
    let raw = raw_client(&cluster, server);
    let lane = Lane::new(server, &raw.mount, raw.cid, 0, 0);
    server.shutdown();
    drive_replay("recover (primary ring)", &lane, &mut || {
        server.crash().unwrap();
        server.recover().unwrap()
    });
}

#[test]
fn recover_applies_the_rule_table_to_a_mirror_ring() {
    let cluster = cluster();
    let backup = cluster.server(1).unwrap();
    let raw = raw_client(&cluster, backup);
    let mirror = backup.accept_mirror(&raw.node, &raw.pd, 0).unwrap();
    let lane = Lane::new(backup, &raw.mount, mirror.cid, 0, mirror.epoch);
    backup.shutdown();
    drive_replay("recover (mirror ring)", &lane, &mut || {
        backup.crash().unwrap();
        backup.recover().unwrap()
    });
}

#[test]
fn promote_applies_the_rule_table() {
    let cluster = cluster();
    let backup = cluster.server(1).unwrap();
    let raw = raw_client(&cluster, backup);
    let mirror = backup.accept_mirror(&raw.node, &raw.pd, 0).unwrap();
    let lane = Lane::new(backup, &raw.mount, mirror.cid, 0, mirror.epoch);
    drive_replay("Promote", &lane, &mut || match raw
        .rpc
        .call(&Request::Promote { primary: 0 })
        .unwrap()
    {
        Response::Promoted { replayed } => replayed,
        other => panic!("promote refused: {other:?}"),
    });
    assert!(backup.has_promoted(0));
}

/// A mirror lane that outlived its ward — the shadow was re-dedicated to
/// another primary by an image install — must not replay into the new
/// ward's image at recovery.
#[test]
fn recover_never_replays_a_stale_lane_into_a_retargeted_shadow() {
    let cluster = cluster();
    let backup = cluster.server(1).unwrap();
    let raw = raw_client(&cluster, backup);
    let mirror = backup.accept_mirror(&raw.node, &raw.pd, 0).unwrap();
    let lane = Lane::new(backup, &raw.mount, mirror.cid, 0, mirror.epoch);
    // An undrained, perfectly valid record of the old ward...
    let staging = backup.staging_region();
    let record = valid(&lane, 7, TARGETS);
    staging.write(lane.slot_off(0), &record.bytes()).unwrap();
    // ...and a shadow that now belongs to ward 7.
    let image = vec![0xC3u8; lane.image.len() as usize];
    backup
        .install_shadow_image(7, backup.shadow_ward(), &image)
        .unwrap();
    assert_eq!(backup.shadow_ward(), Some(7));

    backup.shutdown();
    backup.crash().unwrap();
    assert_eq!(backup.recover().unwrap(), 0, "stale lane replayed");
    assert_eq!(lane.image_bytes(TARGETS), [0xC3u8; LEN as usize]);
    assert_eq!(lane.watermarks().0, 0, "stale lane moved a watermark");
}

/// A run is one group commit: four staged records under one doorbell
/// reach the drain as one harvest (staged while the server loop is
/// stopped) and cost the NVM device two flushes — one covering the four
/// payload ranges, one for the watermark — instead of two per record.
/// The watermark covers the whole run, so recovery replays nothing.
#[test]
fn one_run_costs_one_payload_flush_and_one_watermark_flush() {
    const K: u64 = 4;
    let cluster = cluster();
    let server = cluster.server(0).unwrap();
    let raw = raw_client(&cluster, server);
    let lane = Lane::new(server, &raw.mount, raw.cid, 0, 0);
    let flushes = || lane.image.region().device().stats().snapshot().flushes;

    server.shutdown();
    let rows: Vec<Row> = (0..K)
        .map(|i| valid(&lane, i + 1, TARGETS + 256 * i))
        .collect();
    let ops = rows
        .iter()
        .enumerate()
        .map(|(slot, row)| stage_op(&lane, slot as u32, row));
    for done in raw.proxy.execute_many(ops.collect()).unwrap() {
        done.unwrap();
    }
    let before = flushes();
    server.restart();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while lane.watermarks() != (K, K) {
        assert!(std::time::Instant::now() < deadline, "run never drained");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(
        flushes() - before,
        2,
        "one payload flush + one watermark flush"
    );

    server.shutdown();
    server.crash().unwrap();
    assert_eq!(server.recover().unwrap(), 0, "the watermark covers the run");
    assert_eq!(lane.watermarks(), (K, K));
    for i in 0..K {
        assert_eq!(lane.image_bytes(TARGETS + 256 * i), [FILL; LEN as usize]);
    }
}

/// A reconnecting client asks for its old ring's durable watermark over a
/// new connection and replays everything above it through its new ring.
/// The old ring must drain nothing after that answer: a record still in
/// it, drained later, would overwrite a newer replayed value.
#[test]
fn query_durable_retires_the_old_ring() {
    let cluster = cluster();
    let server = cluster.server(0).unwrap();
    let raw = raw_client(&cluster, server);
    let lane = Lane::new(server, &raw.mount, raw.cid, 0, 0);
    let mut fence = fence_on(&cluster, 0);
    raw.proxy
        .execute(stage_op(&lane, 0, &valid(&lane, 1, TARGETS)))
        .unwrap();
    fence();
    assert_eq!(lane.watermarks(), (1, 1));

    let other = raw_client(&cluster, server);
    let query = || {
        other
            .rpc
            .call(&Request::QueryDurable { client_id: raw.cid })
    };
    let answer = query();
    assert!(
        matches!(answer, Ok(Response::Durable { seq: 1 })),
        "{answer:?}"
    );

    let late = valid(&lane, 2, TARGETS + 256);
    raw.proxy.execute(stage_op(&lane, 1, &late)).unwrap();
    fence();
    assert_eq!(
        lane.image_bytes(TARGETS + 256),
        [0u8; LEN as usize],
        "the retired ring drained a record"
    );
    assert_eq!(lane.watermarks().1, 1);
    // A reconnect that dies after asking asks again: same answer.
    let again = query();
    assert!(
        matches!(again, Ok(Response::Durable { seq: 1 })),
        "{again:?}"
    );

    // The retirement outlives a crash: recovery replays nothing from the
    // old ring, neither the late record nor anything else above the answer.
    server.shutdown();
    server.crash().unwrap();
    assert_eq!(
        server.recover().unwrap(),
        0,
        "recovery replayed a retired ring"
    );
    assert_eq!(
        lane.image_bytes(TARGETS + 256),
        [0u8; LEN as usize],
        "recovery applied the retired ring's late record"
    );
    assert_eq!(lane.image_bytes(TARGETS), [FILL; LEN as usize]);
}

/// Only a ring the server handed out as a primary ring retires: an id not
/// yet issued may become another client's ring, and a mirror ring's
/// watermark lives in the shadow.
#[test]
fn query_durable_refuses_ids_that_are_no_primary_ring() {
    let cluster = cluster();
    let backup = cluster.server(1).unwrap();
    let raw = raw_client(&cluster, backup);
    let mirror = backup.accept_mirror(&raw.node, &raw.pd, 0).unwrap();
    for client_id in [mirror.cid, mirror.cid + 1] {
        let answer = raw.rpc.call(&Request::QueryDurable { client_id });
        assert!(
            matches!(answer, Ok(Response::Err { .. })),
            "id {client_id}: {answer:?}"
        );
    }
}

/// A 1-server cluster whose NVM takes `nvm_ns` per write and per flush, so
/// a run costs the loop milliseconds and whatever arrives meanwhile shares
/// its next harvest.
fn slow_cluster(nvm_ns: u64) -> Cluster {
    gengar_hybridmem::set_time_scale(1.0);
    let mut config = ServerConfig::small();
    config.max_clients = 32;
    config.epoch = Duration::from_millis(2);
    config.nvm_profile.write_latency_ns = nvm_ns;
    config.nvm_profile.flush_latency_ns = nvm_ns;
    Cluster::launch(1, config, FabricConfig::instant()).unwrap()
}

/// A client on server 0 staging writes without pause on its own thread
/// until the returned flag is set; the handle yields how many it wrote.
fn stream(cluster: &Arc<Cluster>) -> (Arc<AtomicBool>, JoinHandle<u64>) {
    let stop = Arc::new(AtomicBool::new(false));
    let (cluster, flag) = (Arc::clone(cluster), Arc::clone(&stop));
    let handle = std::thread::spawn(move || {
        let mut client = cluster.client(ClientConfig::default()).unwrap();
        let ptr = client.alloc(0, 64).unwrap();
        let mut writes = 0u64;
        while !flag.load(Ordering::Relaxed) {
            client.write(ptr, 0, &[writes as u8; 64]).unwrap();
            writes += 1;
        }
        client.drain_all().unwrap();
        writes
    });
    (stop, handle)
}

/// The epoch shares the loop with the drains, and a client that keeps the
/// CQ from ever running dry must not starve it: epochs keep their cadence.
#[test]
fn epochs_keep_their_cadence_while_a_client_streams_staged_writes() {
    let cluster = Arc::new(slow_cluster(20_000));
    let server = cluster.server(0).unwrap();
    let (stop, writer) = stream(&cluster);
    std::thread::sleep(Duration::from_millis(20));
    let before = server.epochs();
    std::thread::sleep(Duration::from_millis(300));
    let epochs = server.epochs() - before;
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().unwrap();
    // A 2 ms epoch gives ≈ 150 in 300 ms; a quarter of that is the floor.
    assert!(epochs >= 37, "{epochs} epochs in 300 ms ({writes} writes)");
    assert!(writes > 100, "the stream wrote {writes}");
}

/// RPCs share the loop with the drains: another client's `alloc`, and a
/// reconnecting client's `QueryDurable`, are answered while one client
/// streams staged writes. The retirement stays final even when the ring's
/// record and the RPC arrive in one harvest: the record is covered by the
/// answer or never applied.
#[test]
fn rpcs_are_answered_while_a_client_streams_staged_writes() {
    let cluster = Arc::new(slow_cluster(50_000));
    let server = cluster.server(0).unwrap();
    let (stop, writer) = stream(&cluster);
    std::thread::sleep(Duration::from_millis(20));
    let mut other = cluster.client(ClientConfig::default()).unwrap();
    let mut fence = fence_on(&cluster, 0);
    let mut answers = Vec::new();
    for round in 0..6 {
        let t0 = Instant::now();
        other.alloc(0, 64).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "alloc took {:?}",
            t0.elapsed()
        );

        let old = raw_client(&cluster, server);
        let lane = Lane::new(server, &old.mount, old.cid, 0, 0);
        let target = TARGETS + 256 * round;
        old.proxy
            .execute(stage_op(&lane, 0, &valid(&lane, 1, target)))
            .unwrap();
        let query = Request::QueryDurable { client_id: old.cid };
        let seq = match old.rpc.call(&query) {
            Ok(Response::Durable { seq }) => seq,
            other => panic!("round {round}: {other:?}"),
        };
        fence();
        let applied = lane.image_bytes(target) == [FILL; LEN as usize];
        assert_eq!(applied, seq == 1, "round {round}: answered {seq}");
        assert_eq!(lane.watermarks().0 & !(1 << 63), seq, "round {round}");
        answers.push(seq);
    }
    stop.store(true, Ordering::Relaxed);
    assert!(writer.join().unwrap() > 0);
    println!("QueryDurable answers: {answers:?}");
}

/// Runs of different rings in one harvest overlap in modelled time: two
/// clients' single-record runs drain in about one run's time, not two.
/// Each harvest is built by staging while the loop is stopped.
#[test]
fn two_rings_runs_in_one_harvest_overlap() {
    let cluster = slow_cluster(2_000_000);
    let server = cluster.server(0).unwrap();
    let raws = [raw_client(&cluster, server), raw_client(&cluster, server)];
    let lanes: Vec<Lane> = raws
        .iter()
        .map(|raw| Lane::new(server, &raw.mount, raw.cid, 0, 0))
        .collect();
    // Stages `seq` on the first `rings` rings as one harvest and times it.
    let harvest = |rings: usize, seq: u64| {
        server.shutdown();
        for (i, (raw, lane)) in raws.iter().zip(&lanes).take(rings).enumerate() {
            let row = valid(lane, seq, TARGETS + 256 * i as u64);
            raw.proxy
                .execute(stage_op(lane, seq as u32 - 1, &row))
                .unwrap();
        }
        let t0 = Instant::now();
        server.restart();
        while lanes.iter().take(rings).any(|l| l.watermarks().1 != seq) {
            assert!(t0.elapsed() < Duration::from_secs(5), "never drained");
            std::hint::spin_loop();
        }
        t0.elapsed()
    };
    let one = harvest(1, 1);
    let two = harvest(2, 2);
    // A run is four 2 ms NVM steps: one ≈ 8 ms, two one after the other
    // ≈ 16 ms.
    assert!(one >= Duration::from_millis(8), "one run took {one:?}");
    assert!(
        two.as_secs_f64() < 1.5 * one.as_secs_f64(),
        "two runs took {two:?}, one took {one:?}"
    );
}
