//! One rule table, every entry point: the server's record applier judges
//! a staged record the same way whether it arrives through the live
//! primary drain, the live mirror drain, `recover` (either lane kind) or
//! `Promote`. Records are forged straight into the staging region
//! (`MemoryServer::staging_region`), so the test controls every header
//! field a real client would never get wrong.

use std::sync::Arc;

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
    RemoteAddr,
};

const LEN: u64 = 64;
/// Where forged records aim, far above anything the allocator hands out.
const TARGETS: u64 = 1 << 20;
const FILL: u8 = 0x5A;

/// A 2-server replicated cluster with one drain thread per server, so a
/// later record on *any* ring is drained after every earlier one.
fn cluster() -> Cluster {
    let mut config = ServerConfig::small();
    config.crash_sim = true;
    config.replication.enabled = true;
    config.proxy_threads = 1;
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

/// Live drains: ring the ring's doorbell once per record, the valid one
/// first so any wrongly applied record after it would move the watermark
/// past it. `fence` must not return before the drain thread has judged
/// everything posted so far.
fn drive_live(entry: &str, lane: &Lane, proxy: &Endpoint, fence: &mut dyn FnMut()) {
    let mut rows = vec![valid(lane, 10, TARGETS)];
    rows.extend(bad_rows(lane, 20));
    for (slot, row) in rows.iter().enumerate() {
        let at = RemoteAddr::new(lane.staging_rkey, lane.slot_off(slot as u32));
        proxy
            .write_with_imm(Payload::Inline(row.bytes()), at, slot as u32)
            .unwrap();
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

/// A write through a real client on `server`, drained: with one drain
/// thread, everything posted to that server before it has been judged.
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
    drive_live("live primary drain", &lane, &raw.proxy, &mut fence);
}

#[test]
fn live_mirror_drain_applies_the_rule_table() {
    let cluster = cluster();
    let backup = cluster.server(1).unwrap();
    let raw = raw_client(&cluster, backup);
    let mirror = backup.accept_mirror(&raw.node, &raw.pd, 0).unwrap();
    let lane = Lane::new(backup, &raw.mount, mirror.cid, 0, mirror.epoch);
    let mut fence = fence_on(&cluster, 1);
    drive_live("live mirror drain", &lane, &mirror.proxy, &mut fence);
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
    backup.install_shadow_image(7, &image).unwrap();
    assert_eq!(backup.shadow_ward(), Some(7));

    backup.shutdown();
    backup.crash().unwrap();
    assert_eq!(backup.recover().unwrap(), 0, "stale lane replayed");
    assert_eq!(lane.image_bytes(TARGETS), [0xC3u8; LEN as usize]);
    assert_eq!(lane.watermarks().0, 0, "stale lane moved a watermark");
}
