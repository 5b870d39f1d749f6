//! The Gengar client library: the "simple programming APIs on viewing
//! remote NVM and DRAM in a global memory space" (abstract).
//!
//! A [`GengarClient`] connects to every memory server in the pool and
//! exposes `alloc` / `free` / `read` / `write` / `cas_u64` / `lock` /
//! `unlock` over [`GlobalPtr`]s. Reads transparently hit the server-side
//! DRAM cache when the object is hot; writes take the proxy fast path when
//! it is enabled and safe. Each client is single-threaded by design (one
//! connection state per thread), mirroring how RDMA applications shard
//! queue pairs across threads.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_hybridmem::latency::{spin_until, SLEEP_THRESHOLD_NS};
use gengar_hybridmem::{DeviceProfile, MemDevice, MemRegion};
use gengar_rdma::{
    Access, Fabric, MemoryRegion, Payload, PendingOps, ProtectionDomain, RKey, RdmaError, RdmaNode,
    RemoteAddr, SendOp, Sge, Wc,
};
use gengar_telemetry::{
    adopt, Counter, CounterHandle, HistogramHandle, SpanId, Telemetry, TelemetryConfig, TraceId,
    TraceSpan,
};

use crate::addr::{GlobalAddr, GlobalPtr, MemClass};
use crate::batch::{BatchOp, BatchResult, OpBatch};
use crate::config::{ClientConfig, Consistency};
use crate::consistency::Backoff;
use crate::error::GengarError;
use crate::hotness::AccessEntry;
use crate::layout::{decode_slot_header, lockword, OBJ_HEADER, SLOT_HEADER, SLOT_TAIL};
use crate::proto::{error_for_code, MountInfo, Request, Response, MAX_REPORT, NO_BACKUP};
use crate::proxy::{MirrorLane, StagedFlight, StagingWriter};
use crate::qos::TenantState;
use crate::retry::{attempt_timeout, classify, Disposition, RetryState};
use crate::rpc::{PendingCall, RpcClient, RPC_BUF_BYTES};
use crate::server::MemoryServer;
use crate::window::OpWindow;

/// Client operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Read operations issued.
    pub reads: u64,
    /// Write operations issued.
    pub writes: u64,
    /// Reads served from the server DRAM cache.
    pub cache_hits: u64,
    /// Reads that had a remap entry but fell back to NVM.
    pub cache_rejects: u64,
    /// Reads served straight from NVM.
    pub nvm_reads: u64,
    /// Reads served from the local write-back buffer.
    pub writeback_hits: u64,
    /// Writes that took the proxy fast path.
    pub staged_writes: u64,
    /// Writes that went directly to NVM (+ flush RPC).
    pub direct_writes: u64,
    /// Lock acquisition retries.
    pub lock_retries: u64,
    /// Consistent-read retries.
    pub read_retries: u64,
    /// Access reports sent.
    pub reports: u64,
    /// Fault-recovery retries (backoff rounds after a transient failure).
    pub retries: u64,
    /// Successful reconnects after a dead connection or refused server.
    pub reconnects: u64,
    /// Successful failovers: a dead server's objects re-mounted on its
    /// replica (promotion + shadow routing).
    pub failovers: u64,
    /// Writes forced onto the direct NVM path because the connection was
    /// degraded (staging repeatedly faulted).
    pub degraded_ops: u64,
}

/// One client statistic: a per-instance counter (authoritative for
/// [`ClientStats`] snapshots, so concurrent clients in one process never
/// share counts) plus the pooled `client.*` registry counter the bench
/// harness exports.
#[derive(Debug, Default)]
struct StatCounter {
    local: Counter,
    global: CounterHandle,
}

impl StatCounter {
    fn new(tel: &Telemetry, metric: &str) -> Self {
        StatCounter {
            local: Counter::new(),
            global: tel.counter("client", metric),
        }
    }

    fn inc(&self) {
        self.local.inc();
        self.global.inc();
    }

    fn get(&self) -> u64 {
        self.local.get()
    }
}

/// The client's metric set: [`ClientStats`] is a snapshot view over these
/// counters, and the two histograms record whole-operation latency.
#[derive(Debug, Default)]
struct ClientMetrics {
    reads: StatCounter,
    writes: StatCounter,
    cache_hits: StatCounter,
    cache_rejects: StatCounter,
    nvm_reads: StatCounter,
    writeback_hits: StatCounter,
    staged_writes: StatCounter,
    direct_writes: StatCounter,
    lock_retries: StatCounter,
    read_retries: StatCounter,
    reports: StatCounter,
    retries: StatCounter,
    reconnects: StatCounter,
    failovers: StatCounter,
    degraded_ops: StatCounter,
    read_ns: HistogramHandle,
    write_ns: HistogramHandle,
}

impl ClientMetrics {
    fn new(config: TelemetryConfig) -> Self {
        let tel = config.handle();
        ClientMetrics {
            reads: StatCounter::new(&tel, "reads"),
            writes: StatCounter::new(&tel, "writes"),
            cache_hits: StatCounter::new(&tel, "cache_hits"),
            cache_rejects: StatCounter::new(&tel, "cache_rejects"),
            nvm_reads: StatCounter::new(&tel, "nvm_reads"),
            writeback_hits: StatCounter::new(&tel, "writeback_hits"),
            staged_writes: StatCounter::new(&tel, "staged_writes"),
            direct_writes: StatCounter::new(&tel, "direct_writes"),
            lock_retries: StatCounter::new(&tel, "lock_retries"),
            read_retries: StatCounter::new(&tel, "read_retries"),
            reports: StatCounter::new(&tel, "reports"),
            retries: StatCounter::new(&tel, "retries"),
            reconnects: StatCounter::new(&tel, "reconnects"),
            failovers: StatCounter::new(&tel, "failovers"),
            degraded_ops: StatCounter::new(&tel, "degraded_ops"),
            read_ns: tel.histogram("client", "read_ns"),
            write_ns: tel.histogram("client", "write_ns"),
        }
    }

    fn snapshot(&self) -> ClientStats {
        ClientStats {
            reads: self.reads.get(),
            writes: self.writes.get(),
            cache_hits: self.cache_hits.get(),
            cache_rejects: self.cache_rejects.get(),
            nvm_reads: self.nvm_reads.get(),
            writeback_hits: self.writeback_hits.get(),
            staged_writes: self.staged_writes.get(),
            direct_writes: self.direct_writes.get(),
            lock_retries: self.lock_retries.get(),
            read_retries: self.read_retries.get(),
            reports: self.reports.get(),
            retries: self.retries.get(),
            reconnects: self.reconnects.get(),
            failovers: self.failovers.get(),
            degraded_ops: self.degraded_ops.get(),
        }
    }
}

#[derive(Debug)]
struct WriteBack {
    seq: u64,
    off: u64,
    data: Vec<u8>,
}

/// One window-eligible staged write in the current batch attempt: its
/// record will be gathered into the scratch lane at `lane` and posted
/// under one doorbell with the rest of the chunk.
#[derive(Debug)]
struct StagedPlan {
    /// Index of the op in the batch.
    idx: usize,
    /// Raw global address of `ptr.addr + offset`.
    target_raw: u64,
    /// Raw object base address (store-buffer key).
    base_raw: u64,
    /// Write offset within the object.
    off: u64,
    /// Scratch offset of this record's gather lane.
    lane: u64,
}

/// What a planned read fetches into its lane.
#[derive(Debug, Clone, Copy)]
enum ReadKind {
    /// The whole cache frame at this slot (FaRM-validated after the fact).
    Cached(GlobalAddr),
    /// Payload bytes straight from NVM.
    Plain,
    /// The seqlock triple `[lock word][payload][lock word]`, three READs
    /// under one doorbell: valid if the words are equal and unlocked.
    Versioned,
}

impl ReadKind {
    /// Work requests one posting of this read costs against the window.
    fn wrs(self) -> usize {
        match self {
            ReadKind::Versioned => 3,
            _ => 1,
        }
    }
}

/// One read of the current batch attempt, re-posted until it resolves:
/// against NVM after a rejected cache frame, from the start after a lost
/// seqlock validation, chunk by chunk when larger than the op area.
#[derive(Debug)]
struct ReadPlan {
    /// Index of the op in the batch.
    idx: usize,
    ptr: GlobalPtr,
    offset: u64,
    /// Bytes the op reads, and how many are already copied out.
    len: u64,
    done: u64,
    /// Scratch offset this read lands at, and the bytes reserved there.
    lane: u64,
    lane_len: u64,
    kind: ReadKind,
    /// Lock word of the first chunk; later chunks must see the same.
    word: u64,
    /// Rejected seqlock validations so far (bounded by `read_retries`).
    tries: u32,
}

impl ReadPlan {
    /// Payload bytes the next posting fetches.
    fn chunk(&self) -> u64 {
        let words = 8 * (self.kind.wrs() as u64 - 1); // the triple's two lock words
        (self.len - self.done).min(self.lane_len - words)
    }
}

/// The verb a [`DirectWrite`] has on the wire or, with no flight open,
/// posts next (past the last `Write` chunk: the flush RPC).
#[derive(Debug, Clone, Copy, Default)]
enum DirectStep {
    ReadWord,
    Cas,
    #[default]
    Write,
    Unlock,
}

/// What a [`DirectWrite`] waits for.
#[derive(Debug)]
enum Flight {
    Verb(PendingOps),
    Rpc(PendingCall),
}

/// A write the staging planner declined, part-way down the direct chain:
/// lock-word READ → lock CAS → WRITE per op-area chunk → flush RPC →
/// unlock WRITE, each a wait other servers' groups overlap. Unlocked
/// writes (`Consistency::None`, caller's lock) run WRITE → flush only.
#[derive(Debug, Default)]
struct DirectWrite {
    /// Position of the op in the group's indices (the walk resumes behind it).
    cursor: usize,
    step: DirectStep,
    flight: Option<Flight>,
    /// Unlocked word the next lock CAS expects.
    expected: u64,
    /// Lost lock CASes so far (bounded by `lock_retries`).
    tries: u32,
    /// Payload bytes already written.
    done: u64,
    /// Why the op fails (lock never won, flush refused); a lock the write
    /// took is released all the same.
    refused: Option<GengarError>,
}

/// Where one per-server group of a batch currently stands in the
/// completion-driven issue engine. Every group walks writes then reads;
/// the wait states hold a posted flight whose completions the event loop
/// harvests as they arrive, so groups on different servers overlap their
/// round trips instead of running back to back.
#[derive(Debug)]
enum GroupPhase {
    /// Planning/issuing writes from `indices[cursor]` onward.
    Writes { cursor: usize },
    /// A staged-write window is planned but the ring lacks room; poll the
    /// drained watermark until it frees up (or stalls past the deadline).
    RingWait {
        resume: usize,
        plans: Vec<StagedPlan>,
        next_poll: Instant,
        sleep_us: u64,
        last_seen: u64,
        stall_deadline: Instant,
    },
    /// A staged-write doorbell flight is on the wire.
    StagedWait {
        resume: usize,
        plans: Vec<StagedPlan>,
        flight: StagedFlight,
    },
    /// A write the staging planner declined is walking the direct chain.
    Direct(Box<DirectWrite>),
    /// Planning/issuing reads from `indices[cursor]` onward.
    Reads { cursor: usize },
    /// A read doorbell flight is on the wire.
    ReadWait {
        resume: usize,
        plans: Vec<ReadPlan>,
        pending: PendingOps,
    },
    /// The last attempt failed transiently; the group parks until the
    /// jittered backoff expires (reconnecting first if the connection
    /// died) while the event loop keeps driving the healthy groups.
    Backoff { resume_at: Instant, reconnect: bool },
    /// The tenant's QoS budget denied the next issue, or a lock CAS or
    /// seqlock validation lost to a writer; the group parks until the
    /// bucket refills or the contention backoff runs out (no retry budget
    /// charged — nothing failed), then re-enters the phase in `next`.
    /// Healthy tenants keep flowing while a throttled one queues here.
    Throttle {
        resume_at: Instant,
        next: Box<GroupPhase>,
    },
    /// A planned staged-write window waiting to re-enter
    /// [`GengarClient::post_staged`]: the throttle park carries the plan
    /// across the wait so the gate is re-charged on wake.
    PostWrites {
        resume: usize,
        plans: Vec<StagedPlan>,
    },
    /// Read plans waiting to (re-)enter [`GengarClient::post_reads`]:
    /// after a throttle park, or because a settled flight left them
    /// unresolved.
    PostReads { resume: usize, plans: Vec<ReadPlan> },
    /// Every op resolved (or the recovery budget died trying).
    Done,
}

/// One per-server group's state in the concurrent batch engine: its op
/// indices, its private recovery budget, and its position in the
/// write/read issue walk. The trace spans keep the group's work filed
/// under its own `client.group` branch even though the event loop
/// interleaves steps of many groups on one thread.
struct GroupRun {
    server: u8,
    indices: Vec<usize>,
    state: RetryState,
    /// Unresolved ops when the current attempt started (progress check).
    pending_at_start: usize,
    phase: GroupPhase,
    /// Staged-occupancy bytes this group currently holds reserved against
    /// the tenant's in-flight cap (released when the flight settles or
    /// the attempt ends, whichever comes first).
    staged_reserved: u64,
    group_span: TraceSpan,
    group_ctx: (TraceId, SpanId),
    attempt_span: TraceSpan,
    attempt_ctx: (TraceId, SpanId),
}

#[derive(Debug)]
struct ServerConn {
    mount: MountInfo,
    rpc: RpcClient,
    data: gengar_rdma::Endpoint,
    staging: Option<StagingWriter>,
    /// The RPC message buffer MR, kept so a reconnect can rebuild the
    /// [`RpcClient`] over the same scratch slots.
    rpc_mr: Arc<MemoryRegion>,
    /// Scratch offset reserved for this connection's staging writer (slot
    /// gather area + watermark landing pad). `None` when the server mounts
    /// without the proxy. Reused verbatim on reconnect: the ring geometry
    /// is a server-config constant.
    staging_scratch_off: Option<u64>,
    /// Consecutive staged-write failures. Reset by any staged success or a
    /// successful reconnect.
    staging_faults: u32,
    /// Degraded mode: staging has faulted `staging_fault_threshold` times
    /// in a row, so writes bypass the proxy and go straight to NVM until
    /// the next successful reconnect.
    degraded: bool,
    /// When the staging writer's mirror lane was shed (mirror WR failure).
    /// Drives the cooldown before a background re-mirror attempt; `None`
    /// while the lane is healthy (or the server mounts unreplicated).
    mirror_down_since: Option<Instant>,
    /// The client id of the *redirected* control/data tenure on the
    /// replica, once this ward failed over. Tracked so each later re-dial
    /// of the (idempotent) failover path hands the previous tenure's id
    /// back instead of leaking a `max_clients` slot per hiccup. `None`
    /// while the connection still points at the original server.
    redirect_cid: Option<u32>,
    /// Outstanding-op window for vectored operations on this connection.
    /// Stateless across submissions, so it survives reconnects unchanged.
    window: OpWindow,
    /// This connection's slice of the shared op area: gather/landing lanes
    /// used by chunked verbs and the batch planner. Private per connection
    /// so concurrent per-server flights never share scratch bytes.
    op_buf: u64,
    op_buf_len: u64,
}

impl ServerConn {
    fn nvm_rkey(&self) -> RKey {
        RKey(self.mount.nvm_rkey)
    }

    fn cache_rkey(&self) -> RKey {
        RKey(self.mount.cache_rkey)
    }
}

/// The product of one mount handshake: everything a [`ServerConn`] swaps
/// out when it (re)connects.
struct Handshake {
    /// Server-assigned client id for this tenure. Kept so the id can be
    /// handed back ([`MemoryServer::release_client`]) if the connection is
    /// abandoned before any write is staged under it.
    cid: u32,
    mount: MountInfo,
    rpc: RpcClient,
    data: gengar_rdma::Endpoint,
    staging: Option<StagingWriter>,
}

/// A single-threaded handle onto the Gengar pool.
#[derive(Debug)]
pub struct GengarClient {
    node: Arc<RdmaNode>,
    #[allow(dead_code)]
    pd: ProtectionDomain,
    mr: Arc<MemoryRegion>,
    conns: Vec<ServerConn>,
    /// Server handles in connection order, kept for reconnects.
    servers: Vec<Arc<MemoryServer>>,
    server_index: HashMap<u8, usize>,
    /// NVM payload-base raw address -> cache-slot raw address.
    remap: HashMap<u64, u64>,
    /// Local store buffer for in-flight proxied writes (read-your-writes).
    write_back: HashMap<u64, WriteBack>,
    /// Locks this client holds: base raw -> (locked word, whether a write
    /// took it for itself — the attempt that finishes the write releases it).
    held: HashMap<u64, (u64, bool)>,
    /// Failed-over wards: dead primary id -> the replica now serving its
    /// objects (through the shadow region at unchanged offsets). The
    /// connection slot for the primary is rewired in place, so this map
    /// only gates the paths that must not treat the slot as the original
    /// machine (hotness reports, reconnects, re-mirroring).
    redirects: HashMap<u8, u8>,
    /// Pending hotness entries per server id.
    pending: HashMap<u8, HashMap<u64, (u32, bool)>>,
    ops_since_report: u32,
    /// Shared scratch control words of the blocking atomics: CAS result
    /// word, header word. The reactor never touches them — its lock words
    /// land in the group's own op lanes ([`ServerConn::op_buf`]).
    op_cas: u64,
    op_hdr: u64,
    /// Counter that amortises drained-watermark refreshes on the
    /// store-buffer read path.
    wb_checks: u32,
    /// Per-operation jitter salt (monotonic; deterministic per client).
    op_salt: u64,
    /// The tenant's shared QoS state when the pool runs with a QoS plane:
    /// the issue gate charges it before every doorbell and staged windows
    /// reserve occupancy against it. `None` = QoS off, zero overhead.
    tenant: Option<Arc<TenantState>>,
    config: ClientConfig,
    metrics: ClientMetrics,
}

impl GengarClient {
    /// Connects a fresh client node to every given server.
    ///
    /// # Errors
    ///
    /// Propagates accept/mount failures.
    pub fn connect(
        fabric: &Arc<Fabric>,
        servers: &[Arc<MemoryServer>],
        config: ClientConfig,
    ) -> Result<GengarClient, GengarError> {
        let node = fabric.add_node();
        let pd = node.alloc_pd();
        // The scratch buffer is client-local DRAM accessed by the CPU; its
        // cost is already paid by the real copies the emulation performs,
        // so the device model charges nothing (remote devices and the
        // fabric still charge on every verb that touches it).
        let scratch_dev = Arc::new(MemDevice::new(
            0,
            DeviceProfile::instant(gengar_hybridmem::MemKind::Dram),
            config.scratch_capacity,
        )?);
        let mr = pd.reg_mr(MemRegion::whole(Arc::clone(&scratch_dev)), Access::all())?;

        let mut bump: u64 = 0;
        let mut conns = Vec::new();
        let mut server_index = HashMap::new();
        for server in servers {
            // Dedicated RPC buffer (its own MR: the RPC slots are
            // MR-relative).
            let rpc_mr = pd.reg_mr(
                MemRegion::new(Arc::clone(&scratch_dev), bump, RPC_BUF_BYTES)?,
                Access::LOCAL_WRITE,
            )?;
            bump += RPC_BUF_BYTES;
            let mut staging_scratch_off = None;
            // The initial dial runs under the same recovery policy as the
            // data operations: a fault-riddled link or a restarting server
            // is retried until the deadline, not surfaced on first loss.
            // The scratch reservation sticks across attempts (the closure
            // is idempotent), so retries don't leak bump space.
            let mut state =
                RetryState::start(&config, u64::from(node.id().0) << 32 | conns.len() as u64);
            let hs = loop {
                let result = Self::handshake(
                    server,
                    &node,
                    &pd,
                    &mr,
                    Arc::clone(&rpc_mr),
                    &mut |need| match staging_scratch_off {
                        Some(off) => off,
                        None => {
                            let off = bump;
                            bump += need;
                            staging_scratch_off = Some(off);
                            off
                        }
                    },
                    &config,
                );
                match result {
                    Ok(hs) => break hs,
                    Err(e) if classify(&e) == Disposition::Fatal => return Err(e),
                    Err(e) => state.charge(e)?,
                }
            };
            server_index.insert(hs.mount.server_id, conns.len());
            conns.push(ServerConn {
                mount: hs.mount,
                rpc: hs.rpc,
                data: hs.data,
                staging: hs.staging,
                rpc_mr,
                staging_scratch_off,
                staging_faults: 0,
                degraded: false,
                mirror_down_since: None,
                redirect_cid: None,
                window: OpWindow::new(config.window_depth, config.telemetry),
                op_buf: 0,
                op_buf_len: 0,
            });
        }

        // Remaining scratch: two shared control words, then the op area
        // split evenly across the connections so concurrent per-server
        // flights gather and land in disjoint lanes.
        let op_cas = bump;
        let op_hdr = bump + 8;
        let op_area = bump + 64;
        let per_conn = config
            .scratch_capacity
            .checked_sub(op_area)
            .map(|area| area / conns.len().max(1) as u64)
            .filter(|&len| len >= (64 << 10) + SLOT_HEADER)
            .ok_or(GengarError::ProtocolViolation(
                "scratch buffer too small for the op area",
            ))?;
        for (i, conn) in conns.iter_mut().enumerate() {
            conn.op_buf = op_area + i as u64 * per_conn;
            conn.op_buf_len = per_conn;
        }

        // Resolve the tenant's QoS handle in-process (the servers share
        // one plane under `Cluster::launch`). The compact tag rides every
        // staged record header so the server drain can account durable
        // bytes to the tenant after the client-visible ack.
        let tenant = servers
            .first()
            .and_then(|s| s.qos_plane())
            .map(|plane| plane.handle(&config.tenant));
        if let Some(state) = &tenant {
            for conn in &mut conns {
                if let Some(st) = conn.staging.as_mut() {
                    st.set_tenant_tag(state.tag());
                }
            }
        }

        let mut client = GengarClient {
            op_salt: u64::from(node.id().0) << 32,
            node,
            pd,
            mr,
            conns,
            servers: servers.to_vec(),
            server_index,
            redirects: HashMap::new(),
            remap: HashMap::new(),
            write_back: HashMap::new(),
            held: HashMap::new(),
            pending: HashMap::new(),
            ops_since_report: 0,
            op_cas,
            op_hdr,
            wb_checks: 0,
            tenant,
            metrics: ClientMetrics::new(config.telemetry),
            config,
        };

        // Replication fan-out: a server whose mount names a backup gets a
        // mirror lane — a second staging ring on the backup that every
        // staged record is shipped to before the client-visible ack.
        for id in client.server_ids() {
            client.establish_mirror(id)?;
        }
        Ok(client)
    }

    /// Dials a mirror lane for `primary`'s staging writer on its assigned
    /// backup and attaches it. A no-op when the primary mounts without
    /// the proxy, advertises no backup, or the backup is a server this
    /// client never mounted (fan-out needs its rkeys).
    fn establish_mirror(&mut self, primary: u8) -> Result<(), GengarError> {
        let idx = *self
            .server_index
            .get(&primary)
            .ok_or(GengarError::UnknownServer(primary))?;
        if self.conns[idx].staging.is_none() {
            return Ok(());
        }
        let backup = self.conns[idx].mount.backup;
        if backup == NO_BACKUP || backup == primary {
            return Ok(());
        }
        let Some(&bidx) = self.server_index.get(&backup) else {
            return Ok(());
        };
        let srv = Arc::clone(&self.servers[bidx]);
        let mut channel = srv.accept_mirror(&self.node, &self.pd, primary)?;
        channel
            .proxy
            .set_op_timeout(attempt_timeout(self.config.op_deadline));
        let lane = MirrorLane {
            ep: channel.proxy,
            staging_rkey: RKey(self.conns[bidx].mount.staging_rkey),
            ctl_rkey: RKey(self.conns[bidx].mount.ctl_rkey),
            ring_offset: channel.ring_offset,
            client_id: channel.cid,
            epoch: channel.epoch,
            floor: 0,
        };
        let conn = &mut self.conns[idx];
        conn.staging
            .as_mut()
            .expect("checked above")
            .set_mirror(lane);
        conn.mirror_down_since = None;
        Ok(())
    }

    /// Runs the accept + Mount (+ OpenStaging) handshake against `server`.
    ///
    /// `alloc_scratch` reserves scratch bytes for the staging writer when
    /// the server mounts with the proxy enabled: `connect` passes a bump
    /// allocator, `reconnect` returns the connection's existing
    /// reservation (the ring geometry is a server-config constant, so the
    /// size never changes across reconnects).
    fn handshake(
        server: &Arc<MemoryServer>,
        node: &Arc<RdmaNode>,
        pd: &ProtectionDomain,
        scratch_mr: &Arc<MemoryRegion>,
        rpc_mr: Arc<MemoryRegion>,
        alloc_scratch: &mut dyn FnMut(u64) -> u64,
        config: &ClientConfig,
    ) -> Result<Handshake, GengarError> {
        let channel = server.accept(node, pd)?;
        let cid = channel.cid;
        // A handshake that dies after accept (e.g. its Mount RPC is lost to
        // a fault) never staged anything under this id, so hand it straight
        // back — otherwise every failed re-dial through a partition would
        // burn a slot of `max_clients` forever.
        Self::finish_handshake(channel, scratch_mr, rpc_mr, alloc_scratch, config)
            .inspect_err(|_| server.release_client(cid))
    }

    /// The post-accept half of [`GengarClient::handshake`]: Mount, optional
    /// OpenStaging, endpoint timeout setup.
    fn finish_handshake(
        mut channel: crate::server::ClientChannel,
        scratch_mr: &Arc<MemoryRegion>,
        rpc_mr: Arc<MemoryRegion>,
        alloc_scratch: &mut dyn FnMut(u64) -> u64,
        config: &ClientConfig,
    ) -> Result<Handshake, GengarError> {
        let cid = channel.cid;
        // Verbs must give up well inside the operation deadline so the
        // retry loop gets several attempts (and a reconnect) per budget.
        let attempt = attempt_timeout(config.op_deadline);
        channel.rpc.set_op_timeout(attempt);
        channel.data.set_op_timeout(attempt);
        channel.proxy.set_op_timeout(attempt);
        let rpc = RpcClient::with_deadline(channel.rpc, rpc_mr, config.op_deadline);

        let mount = match rpc.call(&Request::Mount {
            tenant: config.tenant.clone(),
        })? {
            Response::Mount(m) => m,
            Response::Err { code } => return Err(error_for_code(code, 0)),
            _ => return Err(GengarError::ProtocolViolation("bad mount response")),
        };
        let staging = if mount.enable_proxy {
            let (client_id, ring_offset) = match rpc.call(&Request::OpenStaging)? {
                Response::Staging {
                    client_id,
                    ring_offset,
                } => (client_id, ring_offset),
                Response::Err { code } => return Err(error_for_code(code, 0)),
                _ => return Err(GengarError::ProtocolViolation("bad staging response")),
            };
            let layout = mount.ring_layout();
            // Slot gather area plus two watermark landing pads (primary
            // and mirror drained words).
            let scratch_off = alloc_scratch(layout.slot_bytes() + 16);
            let mut st = StagingWriter::new(
                channel.proxy,
                RKey(mount.staging_rkey),
                RKey(mount.ctl_rkey),
                ring_offset,
                layout,
                client_id,
                Arc::clone(scratch_mr),
                scratch_off,
                config.telemetry,
            );
            st.set_drain_deadline(attempt);
            Some(st)
        } else {
            None
        };
        Ok(Handshake {
            cid,
            mount,
            rpc,
            data: channel.data,
            staging,
        })
    }

    /// This client's fabric node.
    pub fn node(&self) -> &Arc<RdmaNode> {
        &self.node
    }

    /// Operation counters (snapshot view over the client's telemetry
    /// counters).
    pub fn stats(&self) -> ClientStats {
        self.metrics.snapshot()
    }

    /// Server ids this client is connected to, in connection order.
    pub fn server_ids(&self) -> Vec<u8> {
        self.conns.iter().map(|c| c.mount.server_id).collect()
    }

    /// Whether writes to `server` currently bypass the staging ring
    /// because it faulted repeatedly (cleared by the next reconnect).
    ///
    /// # Errors
    ///
    /// [`GengarError::UnknownServer`] for a server this client never
    /// mounted.
    pub fn is_degraded(&self, server: u8) -> Result<bool, GengarError> {
        Ok(self.conn(server)?.degraded)
    }

    /// Fetches `server`'s live health document (the `Inspect` admin RPC):
    /// a versioned JSON snapshot of component health, SLO burn and recent
    /// windowed metrics. Always answered — a server without the health
    /// layer returns a minimal document with `"overall":"unknown"`.
    ///
    /// # Errors
    ///
    /// [`GengarError::UnknownServer`] for a server this client never
    /// mounted; transport failures as [`GengarError::Rdma`].
    pub fn inspect(&mut self, server: u8) -> Result<String, GengarError> {
        let conn = self.conn_mut(server)?;
        match conn.rpc.call(&Request::Inspect)? {
            Response::Inspect { json } => Ok(json),
            Response::Err { code } => Err(error_for_code(code, 0)),
            _ => Err(GengarError::ProtocolViolation("bad inspect response")),
        }
    }

    fn conn(&self, server: u8) -> Result<&ServerConn, GengarError> {
        let idx = *self
            .server_index
            .get(&server)
            .ok_or(GengarError::UnknownServer(server))?;
        Ok(&self.conns[idx])
    }

    fn conn_mut(&mut self, server: u8) -> Result<&mut ServerConn, GengarError> {
        let idx = *self
            .server_index
            .get(&server)
            .ok_or(GengarError::UnknownServer(server))?;
        Ok(&mut self.conns[idx])
    }

    /// Starts the recovery state for one operation.
    fn retry_state(&mut self) -> RetryState {
        self.op_salt = self.op_salt.wrapping_add(1);
        RetryState::start(&self.config, self.op_salt)
    }

    /// The recovery policy, in exactly one place: decides what one failed
    /// attempt against `server` means. `Ok((resume_at, reconnect))` grants
    /// another attempt at `resume_at` (re-dialling the connection first if
    /// `reconnect`); `Err` is the error the operation fails with. The
    /// reactor parks the failed group until `resume_at`
    /// ([`GengarClient::end_attempt`]); blocking callers wait it out
    /// ([`GengarClient::recover`]).
    fn recovery(
        &mut self,
        server: u8,
        err: GengarError,
        state: &mut RetryState,
    ) -> Result<(Instant, bool), GengarError> {
        let recorder = gengar_telemetry::FlightRecorder::global();
        match classify(&err) {
            Disposition::Fatal => {
                // Escalation past retry dumps the flight recorder (one-shot,
                // no-op unless armed) so the spans leading here survive.
                recorder.trigger("client-fatal");
                Err(err)
            }
            Disposition::Retry => {
                self.metrics.retries.inc();
                Ok((state.charge_deferred(err)?, false))
            }
            Disposition::Reconnect => {
                recorder.trigger("client-reconnect");
                self.metrics.retries.inc();
                match state.charge_deferred(err) {
                    Ok(at) => Ok((at, true)),
                    // Reconnect budget exhausted: the server is as good as
                    // gone. One failover to its replica is the last resort
                    // before the error surfaces to the application.
                    Err(last) => self.fail_over_once(server, last, state),
                }
            }
            Disposition::Failover => {
                // The fabric says the machine itself is gone; reconnecting
                // is hopeless, so skip straight to the replica (once).
                recorder.trigger("client-failover");
                self.metrics.retries.inc();
                self.fail_over_once(server, err, state)
            }
        }
    }

    /// Re-mounts `server`'s objects on its replica, at most once per
    /// operation. The immediate resume restarts the attempt over whatever
    /// is unresolved — settled records stay settled.
    fn fail_over_once(
        &mut self,
        server: u8,
        err: GengarError,
        state: &mut RetryState,
    ) -> Result<(Instant, bool), GengarError> {
        if state.escalate() && self.failover(server).is_ok() {
            Ok((Instant::now(), false))
        } else {
            Err(err)
        }
    }

    /// [`GengarClient::recovery`] for the blocking callers (alloc,
    /// atomics, `drain_all`): waits the backoff out and re-dials before
    /// returning for another attempt.
    fn recover(
        &mut self,
        server: u8,
        err: GengarError,
        state: &mut RetryState,
    ) -> Result<(), GengarError> {
        let (resume_at, reconnect) = self.recovery(server, err, state)?;
        std::thread::sleep(resume_at.saturating_duration_since(Instant::now()));
        if reconnect {
            self.redial(server);
        }
        Ok(())
    }

    /// Re-dials `server` ahead of the next attempt. A failed re-dial
    /// (server still down) is not fatal: the next attempt fails fast and
    /// lands back in recovery until the operation budget expires.
    fn redial(&mut self, server: u8) {
        if self.reconnect(server).is_ok() {
            self.metrics.reconnects.inc();
        }
    }

    /// Re-establishes the connection to `server` after its queue pairs
    /// died: re-runs the mount handshake (fresh QPs, fresh rkeys, fresh
    /// staging ring), invalidates every stale local view of that server,
    /// and replays staged writes the old ring had not yet drained.
    fn reconnect(&mut self, server: u8) -> Result<(), GengarError> {
        if self.redirects.contains_key(&server) {
            // The ward lives on its replica now; "reconnect" means
            // re-dialing the replica's control/data plane.
            return self.failover(server);
        }
        let idx = *self
            .server_index
            .get(&server)
            .ok_or(GengarError::UnknownServer(server))?;
        let srv = Arc::clone(&self.servers[idx]);
        let rpc_mr = Arc::clone(&self.conns[idx].rpc_mr);
        let scratch_off = self.conns[idx].staging_scratch_off;
        let old_cid = self.conns[idx].staging.as_ref().map(|st| st.client_id());
        let old_mirror = self.conns[idx]
            .staging
            .as_ref()
            .and_then(|st| st.mirror_client_id())
            .map(|cid| (self.conns[idx].mount.backup, cid));
        let hs = Self::handshake(
            &srv,
            &self.node,
            &self.pd,
            &self.mr,
            rpc_mr,
            // Ring geometry is a server-config constant, so the original
            // scratch reservation fits the new ring exactly.
            &mut |_need| scratch_off.expect("proxy mount implies a scratch reservation"),
            &self.config,
        )?;

        // Ask the new connection how far the old ring durably drained, so
        // only genuinely un-drained staged writes are replayed. Nothing has
        // been staged under the new id yet, so if the query dies the fresh
        // id goes back on the server's free list with the handshake's work
        // abandoned.
        let durable = match old_cid {
            Some(cid) => {
                let answer = hs
                    .rpc
                    .call(&Request::QueryDurable { client_id: cid })
                    .and_then(|resp| match resp {
                        Response::Durable { seq } => Ok(seq),
                        Response::Err { .. } => Ok(0),
                        _ => Err(GengarError::ProtocolViolation("bad durable response")),
                    });
                match answer {
                    Ok(seq) => seq,
                    Err(e) => {
                        srv.release_client(hs.cid);
                        return Err(e);
                    }
                }
            }
            None => 0,
        };

        // Stale views of this server die with the old connection: cached
        // remap entries point at cache frames the restarted server may
        // have re-assigned, and store-buffer entries the old ring made
        // durable are retired.
        self.remap
            .retain(|addr, _| GlobalAddr::from_raw(*addr).map(|a| a.server()) != Some(server));
        self.write_back.retain(|addr, wb| {
            GlobalAddr::from_raw(*addr).map(|a| a.server()) != Some(server) || wb.seq > durable
        });

        let conn = &mut self.conns[idx];
        conn.mount = hs.mount;
        conn.rpc = hs.rpc;
        conn.data = hs.data;
        conn.staging = hs.staging;
        // The fresh ring starts untagged; restamp the tenant tag so
        // post-reconnect staged records keep their drain accounting.
        if let (Some(state), Some(st)) = (self.tenant.as_ref(), conn.staging.as_mut()) {
            st.set_tenant_tag(state.tag());
        }
        conn.staging_faults = 0;
        conn.degraded = false;

        // The old tenure's mirror lane is orphaned: hand its ring id back
        // to the backup and dial a fresh lane, so the replayed records
        // below (and everything after) are mirrored again.
        if let Some((backup, mcid)) = old_mirror {
            if let Some(&bidx) = self.server_index.get(&backup) {
                self.servers[bidx].release_client(mcid);
            }
        }
        let _ = self.establish_mirror(server);

        // Replay the surviving staged writes through the new ring in their
        // original order. Records carry whole values, so at-least-once
        // replay converges to the acknowledged state (exactly-once
        // effect); the store buffer keeps serving read-your-writes until
        // the new ring drains them.
        let mut survivors: Vec<(u64, u64)> = self
            .write_back
            .iter()
            .filter(|(addr, _)| GlobalAddr::from_raw(**addr).map(|a| a.server()) == Some(server))
            .map(|(addr, wb)| (wb.seq, *addr))
            .collect();
        survivors.sort_unstable();
        for (_, base) in survivors {
            let wb = &self.write_back[&base];
            let target = GlobalAddr::from_raw(base)
                .ok_or(GengarError::ProtocolViolation("bad store-buffer address"))?
                .add(wb.off);
            let data = wb.data.clone();
            if let Some(staging) = self.conns[idx].staging.as_mut() {
                let new_seq = staging.stage_write(target.raw(), &data)?;
                self.write_back.get_mut(&base).expect("present").seq = new_seq;
            } else {
                // The server no longer mounts the proxy: anchor the write
                // durably through the direct path instead.
                self.write_through(target, &data)?;
                self.write_back.remove(&base);
            }
        }
        Ok(())
    }

    /// Re-mounts a dead server's objects on its replica: asks the backup
    /// to promote (replay the mirror ring into its shadow image), dials a
    /// fresh control/data plane to the backup, and rewires the dead
    /// server's connection slot so reads, direct writes and atomics
    /// address the promoted shadow region at unchanged offsets. Staged
    /// writes keep flowing through the mirror lane, which becomes the
    /// only lane — the in-flight batch resumes without losing a settled
    /// write. Idempotent: a later call re-dials the replica (used when
    /// the promoted connection itself hiccups).
    fn failover(&mut self, server: u8) -> Result<(), GengarError> {
        let idx = *self
            .server_index
            .get(&server)
            .ok_or(GengarError::UnknownServer(server))?;
        let first = !self.redirects.contains_key(&server);
        let backup = match self.redirects.get(&server) {
            Some(&b) => b,
            None => {
                let b = self.conns[idx].mount.backup;
                if b == NO_BACKUP || b == server {
                    return Err(GengarError::ServerUnavailable(server));
                }
                b
            }
        };
        let bidx = *self
            .server_index
            .get(&backup)
            .ok_or(GengarError::UnknownServer(backup))?;
        if first {
            // The promotion RPC rides the healthy connection to the
            // backup: replay the mirror ring into the shadow image and
            // start serving the ward's addresses from it.
            match self.conns[bidx]
                .rpc
                .call(&Request::Promote { primary: server })?
            {
                Response::Promoted { .. } => {}
                Response::Err { code } => return Err(error_for_code(code, 0)),
                _ => return Err(GengarError::ProtocolViolation("bad promote response")),
            }
        }
        // Fresh control/data plane to the replica for this ward's traffic
        // (the old endpoints died with the primary's machine).
        let srv = Arc::clone(&self.servers[bidx]);
        let mut channel = srv.accept(&self.node, &self.pd)?;
        let cid = channel.cid;
        let attempt = attempt_timeout(self.config.op_deadline);
        channel.rpc.set_op_timeout(attempt);
        channel.data.set_op_timeout(attempt);
        let rpc = RpcClient::with_deadline(
            channel.rpc,
            Arc::clone(&self.conns[idx].rpc_mr),
            self.config.op_deadline,
        );
        let mount = match rpc.call(&Request::Mount {
            tenant: self.config.tenant.clone(),
        }) {
            Ok(Response::Mount(m)) => m,
            Ok(Response::Err { code }) => {
                srv.release_client(channel.cid);
                return Err(error_for_code(code, 0));
            }
            Ok(_) => {
                srv.release_client(channel.cid);
                return Err(GengarError::ProtocolViolation("bad mount response"));
            }
            Err(e) => {
                srv.release_client(channel.cid);
                return Err(e);
            }
        };
        // The previous redirected tenure's control/data id (if any) is
        // dead weight on the replica — nothing is ever staged under it, so
        // it is safe to hand back — and repeated hiccups of a promoted
        // ward must not bleed the replica's `max_clients` slots.
        if let Some(old) = self.conns[idx].redirect_cid.take() {
            srv.release_client(old);
        }
        self.conns[idx].redirect_cid = Some(cid);
        let conn = &mut self.conns[idx];
        // The ward's addresses resolve through the replica's shadow
        // region from here on: same offsets, different rkey. The slot
        // keeps the ward's id so routing by address stays untouched, and
        // advertises no backup of its own (promoted data is re-mirrored
        // by the servers' rebalance plane, not by this client).
        conn.mount = MountInfo {
            server_id: server,
            nvm_rkey: mount.shadow_rkey,
            backup: NO_BACKUP,
            ..mount
        };
        conn.rpc = rpc;
        conn.data = channel.data;
        conn.staging_faults = 0;
        conn.degraded = false;
        match conn.staging.as_mut() {
            Some(st) if st.has_mirror() => st.fail_over_to_mirror()?,
            // No mirror lane survived (or the proxy was off): staged
            // writes cannot continue; the direct path takes over.
            _ => conn.staging = None,
        }
        // Stale views of the dead primary die with it. The store buffer
        // stays: the mirror ring carries its un-drained records, and the
        // watermark it serves retires them as the replica drains.
        self.remap
            .retain(|addr, _| GlobalAddr::from_raw(*addr).map(|a| a.server()) != Some(server));
        self.pending.remove(&server);
        if first {
            self.redirects.insert(server, backup);
            self.metrics.failovers.inc();
            gengar_telemetry::Tracer::global().event("client.failover", u64::from(server));
            gengar_telemetry::FlightRecorder::global().trigger("client-failover");
        }
        Ok(())
    }

    /// Background re-mirror: a mirror WR failure sheds the lane so the
    /// primary's ring never stalls (availability over redundancy), and
    /// this re-dials the ward's *current* backup — re-queried from the
    /// primary, so a rebalanced assignment is picked up — after a short
    /// cooldown. Called from the staged-write paths after each settle.
    ///
    /// Never surfaces an error: the write it rides behind has already
    /// settled on its own lanes, so a failed housekeeping probe must not
    /// turn an acknowledged-durable write into a caller-visible failure —
    /// it only restarts the cooldown.
    fn maybe_remirror(&mut self, server: u8) {
        const REMIRROR_COOLDOWN: Duration = Duration::from_millis(10);
        if self.redirects.contains_key(&server) {
            return;
        }
        let Some(&idx) = self.server_index.get(&server) else {
            return;
        };
        {
            let conn = &mut self.conns[idx];
            let Some(st) = conn.staging.as_mut() else {
                return;
            };
            if st.take_mirror_lost() && conn.mirror_down_since.is_none() {
                conn.mirror_down_since = Some(Instant::now());
            }
            match conn.mirror_down_since {
                Some(at) if at.elapsed() >= REMIRROR_COOLDOWN => {}
                _ => return,
            }
        }
        if self.try_remirror(idx, server).is_err() {
            // Failed probe or re-dial: restart the cooldown instead of
            // hammering the primary/backup on every staged write.
            self.conns[idx].mirror_down_since = Some(Instant::now());
        }
    }

    /// The fallible half of [`GengarClient::maybe_remirror`]: query the
    /// primary for its current backup and dial a fresh mirror lane.
    fn try_remirror(&mut self, idx: usize, server: u8) -> Result<(), GengarError> {
        // Ask the primary who backs it up now: the dead backup may have
        // been replaced by the rebalance plane since the lane was shed.
        let backup = match self.conns[idx].rpc.call(&Request::QueryReplica)? {
            Response::Replica { backup } => backup,
            // The primary refused (e.g. throttled): not a transport fault,
            // leave the cooldown where it is and try again next settle.
            Response::Err { .. } => return Ok(()),
            _ => return Err(GengarError::ProtocolViolation("bad replica response")),
        };
        self.conns[idx].mount.backup = backup;
        if backup == NO_BACKUP {
            // No replacement assigned yet; keep waiting on the cooldown.
            return Err(GengarError::ServerUnavailable(server));
        }
        self.establish_mirror(server)
    }

    fn check_access(ptr: GlobalPtr, offset: u64, len: u64) -> Result<(), GengarError> {
        if ptr.addr.class() != MemClass::Nvm {
            return Err(GengarError::InvalidAddress(ptr.addr));
        }
        if offset.checked_add(len).is_none_or(|end| end > ptr.size) {
            return Err(GengarError::AccessOutOfBounds {
                addr: ptr.addr,
                offset,
                len,
                size: ptr.size,
            });
        }
        Ok(())
    }

    /// Allocates `size` payload bytes on `server`.
    ///
    /// Runs under the standard recovery loop. Allocation is not
    /// idempotent: if a fault eats the *response* the allocation happened
    /// but the retry requests another, leaking the first until the server
    /// restarts. A bounded leak under faults is the documented trade for
    /// never blocking the application.
    ///
    /// # Errors
    ///
    /// [`GengarError::OutOfMemory`] / [`GengarError::ObjectTooLarge`] from
    /// the server; transport failures that outlive the operation deadline
    /// as [`GengarError::Rdma`].
    pub fn alloc(&mut self, server: u8, size: u64) -> Result<GlobalPtr, GengarError> {
        let mut state = self.retry_state();
        loop {
            match self.alloc_attempt(server, size) {
                Ok(ptr) => return Ok(ptr),
                Err(e) => self.recover(server, e, &mut state)?,
            }
        }
    }

    fn alloc_attempt(&mut self, server: u8, size: u64) -> Result<GlobalPtr, GengarError> {
        let conn = self.conn(server)?;
        match conn.rpc.call(&Request::Alloc { size })? {
            Response::Alloc { addr } => {
                let addr = GlobalAddr::from_raw(addr)
                    .ok_or(GengarError::ProtocolViolation("bad alloc address"))?;
                Ok(GlobalPtr::new(addr, size))
            }
            Response::Err { code } => Err(error_for_code(code, size)),
            _ => Err(GengarError::ProtocolViolation("bad alloc response")),
        }
    }

    /// Frees a pool object.
    ///
    /// # Errors
    ///
    /// Server-side rejection (bad address, double free) or transport
    /// failures.
    pub fn free(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        let base = ptr.addr.raw();
        self.remap.remove(&base);
        self.write_back.remove(&base);
        self.held.remove(&base);
        let conn = self.conn(ptr.addr.server())?;
        match conn.rpc.call(&Request::Free { addr: base })? {
            Response::Ok => Ok(()),
            Response::Err { code } => Err(error_for_code(code, 0)),
            _ => Err(GengarError::ProtocolViolation("bad free response")),
        }
    }

    /// One-sided chunked WRITE of `data` to NVM offset `nvm_off` on `server`.
    fn write_remote(&self, server: u8, nvm_off: u64, data: &[u8]) -> Result<(), GengarError> {
        let conn = self.conn(server)?;
        let mut done = 0usize;
        while done < data.len() {
            let chunk = (data.len() - done).min(conn.op_buf_len as usize);
            self.mr
                .region()
                .write(conn.op_buf, &data[done..done + chunk])?;
            conn.data.write(
                Payload::Sge(Sge::new(self.mr.lkey(), conn.op_buf, chunk as u64)),
                RemoteAddr::new(conn.nvm_rkey(), nvm_off + done as u64),
            )?;
            done += chunk;
        }
        Ok(())
    }

    /// The word a READ or an atomic's prior value landed at scratch `off`.
    fn scratch_word(&self, off: u64) -> Result<u64, GengarError> {
        let mut w = [0u8; 8];
        self.mr.region().read(off, &mut w)?;
        Ok(u64::from_le_bytes(w))
    }

    /// Reads `buf.len()` bytes of the object at `ptr.addr + offset`.
    ///
    /// With caching enabled the read is served from the server's DRAM
    /// cache when a validated copy exists; stale or torn cached frames are
    /// detected (tag / seqlock version / checksum) and fall back to NVM.
    ///
    /// Transient transport faults are absorbed: lost requests are retried
    /// with backoff, dead connections are re-established (including a
    /// re-mount and staged-write replay), all inside the configured
    /// per-operation deadline.
    ///
    /// # Errors
    ///
    /// Bounds violations, transport failures that outlive the operation
    /// deadline, or [`GengarError::ReadContended`] if a seqlock read keeps
    /// losing to writers.
    pub fn read(&mut self, ptr: GlobalPtr, offset: u64, buf: &mut [u8]) -> Result<(), GengarError> {
        // A scalar read is a batch of one: same planner, same reactor.
        self.run_batch(vec![BatchOp::Read {
            ptr,
            offset,
            buf,
            word: None,
        }])?
        .into_single()
    }

    /// Step 1 of every read: the local store buffer, which serves
    /// read-your-writes while the staged write may still be in flight.
    /// Returns `true` when it served the read into `buf`; `false` means no
    /// entry covers `ptr` any more (none existed, or it was retired here)
    /// and the read is planned like any other. The drained watermark is
    /// refreshed lazily (one extra 8-byte READ every 16 queries) so
    /// entries retire shortly after the proxy drains them without taxing
    /// every read. Idempotent, so a replayed attempt can re-run it.
    fn serve_from_store_buffer(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<bool, GengarError> {
        let base = ptr.addr.raw();
        let server = ptr.addr.server();
        let Some(wb) = self.write_back.get(&base) else {
            return Ok(false);
        };
        let seq = wb.seq;
        let covers = offset >= wb.off && offset + buf.len() as u64 <= wb.off + wb.data.len() as u64;
        self.wb_checks = self.wb_checks.wrapping_add(1);
        let refresh = self.wb_checks.is_multiple_of(16) || !covers;
        let drained = match self.conn_mut(server)?.staging.as_mut() {
            Some(st) => {
                if st.known_drained() < seq && refresh {
                    st.refresh_drained()?;
                }
                st.known_drained() >= seq
            }
            None => true,
        };
        if !drained && covers {
            let wb = &self.write_back[&base];
            let start = (offset - wb.off) as usize;
            buf.copy_from_slice(&wb.data[start..start + buf.len()]);
            self.metrics.writeback_hits.inc();
            return Ok(true);
        }
        if !drained {
            // Partial overlap with an in-flight write: wait it out.
            if let Some(st) = self.conn_mut(server)?.staging.as_mut() {
                st.wait_drained(seq)?;
            }
        }
        self.write_back.remove(&base);
        Ok(false)
    }

    /// FaRM-style validation of the whole cache frame of `ptr` that a READ
    /// landed at scratch offset `lane`: correct tag and length, even head
    /// version, tail version matching head (rejects torn, stale and
    /// mid-update frames). A valid frame is self-validating under either
    /// consistency mode.
    fn frame_is_valid(region: &MemRegion, lane: u64, ptr: GlobalPtr) -> Result<bool, GengarError> {
        let mut hdr_bytes = [0u8; SLOT_HEADER as usize];
        region.read(lane, &mut hdr_bytes)?;
        let hdr = decode_slot_header(&hdr_bytes);
        let mut tail_bytes = [0u8; 8];
        region.read(lane + SLOT_HEADER + ptr.size, &mut tail_bytes)?;
        Ok(hdr.tag == ptr.addr.raw()
            && hdr.version.is_multiple_of(2)
            && hdr.len == ptr.size
            && u64::from_le_bytes(tail_bytes) == hdr.version)
    }

    /// How the object at `base` is read from NVM. The holder of its writer
    /// lock reads plainly even under `Seqlock`: no other writer can be
    /// active, and the lock bit it set itself would otherwise never clear.
    fn nvm_read_kind(&self, base: u64) -> ReadKind {
        if self.config.consistency == Consistency::None || self.held.contains_key(&base) {
            ReadKind::Plain
        } else {
            ReadKind::Versioned
        }
    }

    /// Writes `data` at `ptr.addr + offset`.
    ///
    /// Routing: under `Consistency::Seqlock` the write locks the object
    /// (unless already held), goes straight to NVM with a flush+invalidate
    /// RPC, and unlocks. Under `Consistency::None` it takes the proxy fast
    /// path when enabled and the payload fits a staging slot.
    ///
    /// Transient transport faults are absorbed like in
    /// [`GengarClient::read`]. A connection whose staging ring keeps
    /// faulting is *degraded*: after `staging_fault_threshold` consecutive
    /// staged-write failures the client routes writes through the direct
    /// NVM path (correct, just slower) until a reconnect heals the ring.
    ///
    /// # Errors
    ///
    /// Bounds violations, lock contention, transport failures that outlive
    /// the operation deadline.
    pub fn write(&mut self, ptr: GlobalPtr, offset: u64, data: &[u8]) -> Result<(), GengarError> {
        // A scalar write is a batch of one: same planner, same reactor.
        self.run_batch(vec![BatchOp::Write { ptr, offset, data }])?
            .into_single()
    }

    /// Write-through: RDMA WRITE of `data` to its NVM home at `target`,
    /// then the flush RPC that anchors it durably.
    fn write_through(&mut self, target: GlobalAddr, data: &[u8]) -> Result<(), GengarError> {
        self.write_remote(target.server(), target.offset(), data)?;
        self.flush_range(target, data.len() as u64)
    }

    /// The flush+invalidate RPC: persists `len` bytes at `target` on the
    /// home server and drops any cached copy of the object there.
    fn flush_range(&mut self, target: GlobalAddr, len: u64) -> Result<(), GengarError> {
        let conn = self.conn(target.server())?;
        let addr = target.raw();
        Self::flush_ack(conn.rpc.call(&Request::FlushRange { addr, len })?, len)
    }

    /// Decodes the answer to a `FlushRange` of `len` bytes.
    fn flush_ack(resp: Response, len: u64) -> Result<(), GengarError> {
        match resp {
            Response::Ok => Ok(()),
            Response::Err { code } => Err(error_for_code(code, len)),
            _ => Err(GengarError::ProtocolViolation("bad flush response")),
        }
    }

    /// Caps the write-back buffer by retiring drained entries.
    fn purge_write_back(&mut self, server: u8) -> Result<(), GengarError> {
        if self.write_back.len() < 1024 {
            return Ok(());
        }
        let drained = match self.conn_mut(server)?.staging.as_mut() {
            Some(st) => st.refresh_drained()?,
            None => return Ok(()),
        };
        self.write_back.retain(|addr, wb| {
            GlobalAddr::from_raw(*addr).map(|a| a.server()) != Some(server) || wb.seq > drained
        });
        Ok(())
    }

    /// Starts a vectored operation batch. Queue reads and writes on the
    /// returned [`OpBatch`] and [`OpBatch::submit`] them as one pipelined
    /// unit; see the [`crate::batch`] module docs for the ordering and
    /// partial-completion contracts.
    pub fn batch(&mut self) -> OpBatch<'_, '_> {
        OpBatch::new(self)
    }

    /// Vectored read: issues every `(ptr, offset, buf)` element as one
    /// pipelined batch (up to `window_depth` outstanding READs per
    /// doorbell) and returns one result per element in order. Equivalent
    /// to an [`OpBatch`] holding only reads.
    ///
    /// # Errors
    ///
    /// Per-element failures land in the [`BatchResult`]; the outer `Err`
    /// is reserved for batch-level misuse and never fires for reads.
    pub fn read_batch(
        &mut self,
        ops: Vec<(GlobalPtr, u64, &mut [u8])>,
    ) -> Result<BatchResult, GengarError> {
        self.run_batch(
            ops.into_iter()
                .map(|(ptr, offset, buf)| BatchOp::Read {
                    ptr,
                    offset,
                    buf,
                    word: None,
                })
                .collect(),
        )
    }

    /// Vectored write: issues every `(ptr, offset, data)` element as one
    /// pipelined batch (staged writes share doorbells up to
    /// `window_depth`) and returns one result per element in order.
    /// Equivalent to an [`OpBatch`] holding only writes.
    ///
    /// # Errors
    ///
    /// Per-element failures land in the [`BatchResult`]; the outer `Err`
    /// is reserved for batch-level misuse and never fires for writes.
    pub fn write_batch(
        &mut self,
        ops: Vec<(GlobalPtr, u64, &[u8])>,
    ) -> Result<BatchResult, GengarError> {
        self.run_batch(
            ops.into_iter()
                .map(|(ptr, offset, data)| BatchOp::Write { ptr, offset, data })
                .collect(),
        )
    }

    /// The issue path: runs a batch of operations to completion under the
    /// per-server recovery loops. Scalar `read`/`write` pass a batch of
    /// one through here.
    pub(crate) fn run_batch(
        &mut self,
        mut ops: Vec<BatchOp<'_>>,
    ) -> Result<BatchResult, GengarError> {
        // One trace per batch, rooted at the client-visible operation. The
        // root's context is installed on this thread, so every layer below
        // (window, staging, fabric, RPC encode) files under the same trace.
        let tracer = gengar_telemetry::Tracer::global();
        let mut root = match ops.as_slice() {
            [BatchOp::Read { .. }] => tracer.root_span("client.read"),
            [BatchOp::Write { .. }] => tracer.root_span("client.write"),
            _ => tracer.root_span("client.batch"),
        };
        root.set_detail(ops.len() as u64);
        let trace = root.trace_id().unwrap_or(gengar_telemetry::TraceId::NONE);
        let started = Instant::now();
        let n = ops.len();
        let mut results: Vec<Option<Result<(), GengarError>>> = (0..n).map(|_| None).collect();
        for (i, op) in ops.iter().enumerate() {
            let (ptr, offset, len, is_read) = match op {
                BatchOp::Read {
                    ptr, offset, buf, ..
                } => (*ptr, *offset, buf.len() as u64, true),
                BatchOp::Write { ptr, offset, data } => (*ptr, *offset, data.len() as u64, false),
            };
            match Self::check_access(ptr, offset, len) {
                Ok(()) => {
                    if is_read {
                        self.metrics.reads.inc();
                    } else {
                        self.metrics.writes.inc();
                    }
                }
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        let validated: Vec<bool> = results.iter().map(|r| r.is_none()).collect();

        // Group the pending ops by server, preserving submission order
        // within each group. The index map keeps grouping linear in the
        // batch size however many servers the batch fans out across. Each
        // group runs under its own recovery budget, so one dead server
        // cannot starve the others.
        let mut groups: Vec<(u8, Vec<usize>)> = Vec::new();
        let mut group_of: HashMap<u8, usize> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if results[i].is_some() {
                continue;
            }
            let server = match op {
                BatchOp::Read { ptr, .. } | BatchOp::Write { ptr, .. } => ptr.addr.server(),
            };
            let gi = *group_of.entry(server).or_insert_with(|| {
                groups.push((server, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push(i);
        }

        // The completion-driven issue engine: every group is put in flight
        // at once and a single event loop steps whichever groups can make
        // progress, harvesting completions as they arrive out of order
        // across servers. A group that is backing off, reconnecting or
        // waiting on a stalled ring parks on its own wake instant and
        // never holds the others up.
        let root_ctx = (trace, root.span_id().unwrap_or(gengar_telemetry::SpanId(0)));
        let mut runs: Vec<GroupRun> = groups
            .into_iter()
            .map(|(server, indices)| {
                let _root = adopt(root_ctx.0, root_ctx.1);
                let group_span = tracer.span("client.group");
                let group_ctx = (
                    group_span.trace_id().unwrap_or(TraceId::NONE),
                    group_span.span_id().unwrap_or(SpanId(0)),
                );
                let mut run = GroupRun {
                    server,
                    indices,
                    state: self.retry_state(),
                    pending_at_start: 0,
                    phase: GroupPhase::Done,
                    staged_reserved: 0,
                    group_span,
                    group_ctx,
                    attempt_span: TraceSpan::disabled(),
                    attempt_ctx: group_ctx,
                };
                self.start_attempt(&mut run, &results);
                run
            })
            .collect();
        loop {
            let mut progressed = false;
            let mut next_wake: Option<Instant> = None;
            let mut all_done = true;
            for run in &mut runs {
                let (stepped, wake) = self.step_group(run, &mut ops, &mut results, Duration::ZERO);
                progressed |= stepped;
                if let Some(at) = wake {
                    next_wake = Some(next_wake.map_or(at, |w| w.min(at)));
                }
                all_done &= matches!(run.phase, GroupPhase::Done);
            }
            if all_done {
                break;
            }
            if progressed {
                continue;
            }
            // Everyone is parked. An RPC response has no modelled arrival (it
            // comes when the server thread has run), so a group awaiting one
            // parks on its response CQ until the earliest other wake — or,
            // with none, its own patience: a short timed wait re-arms the
            // host timer going in and out, which doubled the wake-up latency
            // measured here. Never spin for it: the spinner sits on the core
            // the woken server thread needs. Short parks are spun out.
            let now = Instant::now();
            let park = next_wake.map_or(Duration::MAX, |at| at.saturating_duration_since(now));
            let sleepable = park > Duration::from_nanos(SLEEP_THRESHOLD_NS);
            let awaits_rpc = runs.iter_mut().find(|run| {
                sleepable
                    && matches!(&run.phase, GroupPhase::Direct(w) if matches!(w.flight, Some(Flight::Rpc(_))))
            });
            match awaits_rpc {
                Some(run) => drop(self.step_group(run, &mut ops, &mut results, park)),
                // The earliest wake: a deferred completion, backoff expiry or ring poll.
                None => spin_until(next_wake.unwrap_or(now + Duration::from_micros(10))),
            }
        }
        drop(runs);
        self.report_if_due();

        // Whole-batch latency recorded once per op, mirroring the scalar
        // histograms' sample counts (the span there also covered retries).
        let elapsed = started.elapsed().as_nanos() as u64;
        for (i, op) in ops.iter().enumerate() {
            if !validated[i] {
                continue;
            }
            match op {
                BatchOp::Read { .. } => self.metrics.read_ns.record_ns(elapsed),
                BatchOp::Write { .. } => self.metrics.write_ns.record_ns(elapsed),
            }
        }
        Ok(BatchResult::new(
            results
                .into_iter()
                .map(|r| r.expect("every op resolved"))
                .collect(),
            trace,
        ))
    }

    /// Advances one group as far as it can without blocking: polls open
    /// flights, expires backoffs, issues the next writes/reads. Returns
    /// whether the group made progress and, if it parked, when the event
    /// loop should next wake it (`None` while it awaits an RPC response,
    /// on whose CQ it may sleep for `park` — zero in the sweep over all
    /// groups). Helper passes return their attempt error and only this
    /// dispatcher routes it into [`GengarClient::end_attempt`], so recovery
    /// policy lives in exactly one place ([`GengarClient::recovery`]).
    fn step_group(
        &mut self,
        run: &mut GroupRun,
        ops: &mut [BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
        park: Duration,
    ) -> (bool, Option<Instant>) {
        let mut progressed = false;
        loop {
            let phase = std::mem::replace(&mut run.phase, GroupPhase::Done);
            match phase {
                GroupPhase::Done => return (progressed, None),
                GroupPhase::Backoff {
                    resume_at,
                    reconnect,
                } => {
                    if Instant::now() < resume_at {
                        run.phase = GroupPhase::Backoff {
                            resume_at,
                            reconnect,
                        };
                        return (progressed, Some(resume_at));
                    }
                    progressed = true;
                    let _ctx = adopt(run.group_ctx.0, run.group_ctx.1);
                    if reconnect {
                        self.redial(run.server);
                    }
                    self.start_attempt(run, results);
                }
                GroupPhase::Throttle { resume_at, next } => {
                    if Instant::now() < resume_at {
                        run.phase = GroupPhase::Throttle { resume_at, next };
                        return (progressed, Some(resume_at));
                    }
                    progressed = true;
                    run.phase = *next;
                }
                phase @ (GroupPhase::PostWrites { .. }
                | GroupPhase::PostReads { .. }
                | GroupPhase::Writes { .. }
                | GroupPhase::Reads { .. }) => {
                    progressed = true;
                    let outcome = {
                        let _ctx = adopt(run.attempt_ctx.0, run.attempt_ctx.1);
                        match phase {
                            GroupPhase::PostWrites { resume, plans } => {
                                self.post_staged(run, resume, plans, ops)
                            }
                            GroupPhase::PostReads { resume, plans } => {
                                self.post_reads(run, resume, plans)
                            }
                            GroupPhase::Writes { cursor } => {
                                self.step_writes(run, cursor, ops, results)
                            }
                            GroupPhase::Reads { cursor } => {
                                self.step_reads(run, cursor, ops, results)
                            }
                            _ => unreachable!("matched above"),
                        }
                    };
                    if let Err(e) = outcome {
                        self.end_attempt(run, e, results);
                    }
                }
                GroupPhase::RingWait {
                    resume,
                    plans,
                    next_poll,
                    sleep_us,
                    last_seen,
                    stall_deadline,
                } => {
                    let now = Instant::now();
                    if now < next_poll {
                        run.phase = GroupPhase::RingWait {
                            resume,
                            plans,
                            next_poll,
                            sleep_us,
                            last_seen,
                            stall_deadline,
                        };
                        return (progressed, Some(next_poll));
                    }
                    let refreshed = {
                        let _ctx = adopt(run.attempt_ctx.0, run.attempt_ctx.1);
                        match self.conn_mut(run.server) {
                            Ok(conn) => {
                                let st = conn.staging.as_mut().expect("planned on a staging ring");
                                st.refresh_drained().map(|d| (d, st.ring_room()))
                            }
                            Err(e) => Err(e),
                        }
                    };
                    match refreshed {
                        Err(e) => self.end_attempt(run, e, results),
                        Ok((_, room)) if room >= plans.len() => {
                            progressed = true;
                            let outcome = {
                                let _ctx = adopt(run.attempt_ctx.0, run.attempt_ctx.1);
                                self.begin_staged(run, resume, plans, ops)
                            };
                            if let Err(e) = outcome {
                                self.end_attempt(run, e, results);
                            }
                        }
                        Ok((drained, _)) => {
                            // No room yet. Watermark movement resets the
                            // stall clock; a watermark frozen past the
                            // attempt timeout means the drain thread is
                            // stuck and the attempt times out like any
                            // other lost round trip.
                            if drained <= last_seen && now >= stall_deadline {
                                self.end_attempt(
                                    run,
                                    GengarError::Rdma(RdmaError::Timeout),
                                    results,
                                );
                            } else {
                                let (last_seen, stall_deadline) = if drained > last_seen {
                                    (drained, now + attempt_timeout(self.config.op_deadline))
                                } else {
                                    (last_seen, stall_deadline)
                                };
                                let next_poll = now + Duration::from_micros(sleep_us);
                                run.phase = GroupPhase::RingWait {
                                    resume,
                                    plans,
                                    next_poll,
                                    sleep_us: (sleep_us * 2).min(200),
                                    last_seen,
                                    stall_deadline,
                                };
                                return (progressed, Some(next_poll));
                            }
                        }
                    }
                }
                GroupPhase::StagedWait {
                    resume,
                    plans,
                    mut flight,
                } => {
                    let done = match self.conn_mut(run.server) {
                        Ok(conn) => conn
                            .staging
                            .as_mut()
                            .expect("flight implies a staging ring")
                            .poll_flight(&mut flight),
                        Err(e) => {
                            self.end_attempt(run, e, results);
                            continue;
                        }
                    };
                    if !done {
                        // The flight settles as a unit, so park until the
                        // whole doorbell is expected done — one sleepable
                        // wait, not a busy-spin per staggered completion.
                        let wake = self.conn(run.server).ok().and_then(|conn| {
                            conn.staging
                                .as_ref()
                                .expect("flight implies a staging ring")
                                .flight_done_wake(&flight)
                        });
                        run.phase = GroupPhase::StagedWait {
                            resume,
                            plans,
                            flight,
                        };
                        return (progressed, wake);
                    }
                    progressed = true;
                    let outcome = {
                        let _ctx = adopt(run.attempt_ctx.0, run.attempt_ctx.1);
                        self.settle_staged(run, resume, plans, flight, ops, results)
                    };
                    if let Err(e) = outcome {
                        self.end_attempt(run, e, results);
                    }
                }
                GroupPhase::Direct(w) => {
                    let cursor = w.cursor;
                    let outcome = {
                        let _ctx = adopt(run.attempt_ctx.0, run.attempt_ctx.1);
                        self.step_direct(run, w, ops, results, park)
                    };
                    match outcome {
                        Ok(ControlFlow::Continue(())) => progressed = true,
                        Ok(ControlFlow::Break(wake)) => return (progressed, wake),
                        // A permanent failure is this op's result; a transient
                        // one ends the attempt (recovery replays the unresolved).
                        Err(e) if classify(&e) == Disposition::Fatal => {
                            results[run.indices[cursor]] = Some(Err(e));
                            run.phase = GroupPhase::Writes { cursor: cursor + 1 };
                        }
                        Err(e) => self.end_attempt(run, e, results),
                    }
                }
                GroupPhase::ReadWait {
                    resume,
                    plans,
                    mut pending,
                } => {
                    let done = match self.conn(run.server) {
                        Ok(conn) => conn.data.poll_pending(&mut pending),
                        Err(e) => {
                            self.end_attempt(run, e, results);
                            continue;
                        }
                    };
                    if !done {
                        // Read flights also settle as a unit: sleep until
                        // the whole window is expected harvestable.
                        let wake = self
                            .conn(run.server)
                            .ok()
                            .and_then(|conn| conn.data.pending_done_wake(&pending));
                        run.phase = GroupPhase::ReadWait {
                            resume,
                            plans,
                            pending,
                        };
                        return (progressed, wake);
                    }
                    progressed = true;
                    let outcome = {
                        let _ctx = adopt(run.attempt_ctx.0, run.attempt_ctx.1);
                        self.settle_reads(run, resume, plans, pending.into_results(), ops, results)
                    };
                    if let Err(e) = outcome {
                        self.end_attempt(run, e, results);
                    }
                }
            }
        }
    }

    /// Opens the next attempt for a group: recounts the unresolved ops and
    /// opens the attempt span. A group with nothing left to resolve closes
    /// out instead.
    fn start_attempt(&mut self, run: &mut GroupRun, results: &[Option<Result<(), GengarError>>]) {
        run.pending_at_start = run
            .indices
            .iter()
            .filter(|&&i| results[i].is_none())
            .count();
        if run.pending_at_start == 0 {
            run.attempt_span = TraceSpan::disabled();
            run.group_span = TraceSpan::disabled();
            run.phase = GroupPhase::Done;
            return;
        }
        let _ctx = adopt(run.group_ctx.0, run.group_ctx.1);
        let mut span = gengar_telemetry::Tracer::global().span("client.attempt");
        span.set_detail(run.state.attempts() as u64);
        run.attempt_ctx = (
            span.trace_id().unwrap_or(TraceId::NONE),
            span.span_id().unwrap_or(SpanId(0)),
        );
        run.attempt_span = span;
        run.phase = GroupPhase::Writes { cursor: 0 };
    }

    /// Ends a failed attempt: hands the error to the recovery policy
    /// ([`GengarClient::recovery`], charged against the group's private
    /// budget) and parks the group in backoff, or fails its remaining ops
    /// with the policy's final error. Only this group stalls; the event
    /// loop keeps the others moving.
    fn end_attempt(
        &mut self,
        run: &mut GroupRun,
        err: GengarError,
        results: &mut [Option<Result<(), GengarError>>],
    ) {
        // A failed attempt abandons any in-flight staged window; hand its
        // occupancy reservation back so the tenant's cap cannot leak.
        if run.staged_reserved > 0 {
            if let Some(tenant) = &self.tenant {
                tenant.release_staged(run.staged_reserved);
            }
            run.staged_reserved = 0;
        }
        run.attempt_span = TraceSpan::disabled();
        let _ctx = adopt(run.group_ctx.0, run.group_ctx.1);
        match self.recovery(run.server, err, &mut run.state) {
            Ok((resume_at, reconnect)) => {
                run.phase = GroupPhase::Backoff {
                    resume_at,
                    reconnect,
                }
            }
            Err(last) => Self::fail_group(run, results, last),
        }
    }

    /// Budget exhausted (or fatal): ops that completed stay completed,
    /// the rest carry the final error. Other server groups still run.
    fn fail_group(
        run: &mut GroupRun,
        results: &mut [Option<Result<(), GengarError>>],
        last: GengarError,
    ) {
        for &i in &run.indices {
            if results[i].is_none() {
                results[i] = Some(Err(last.clone()));
            }
        }
        run.attempt_span = TraceSpan::disabled();
        run.group_span = TraceSpan::disabled();
        run.phase = GroupPhase::Done;
    }

    /// Closes a completed attempt pass: everything resolved ends the
    /// group, a pass that resolved nothing fails it (the loop would spin
    /// forever), anything in between starts the next pass over the
    /// stragglers without charging the retry budget.
    fn finish_attempt(
        &mut self,
        run: &mut GroupRun,
        results: &mut [Option<Result<(), GengarError>>],
    ) {
        let pending = run
            .indices
            .iter()
            .filter(|&&i| results[i].is_none())
            .count();
        if pending == 0 {
            run.attempt_span = TraceSpan::disabled();
            run.group_span = TraceSpan::disabled();
            run.phase = GroupPhase::Done;
            return;
        }
        if pending == run.pending_at_start {
            // Defensive: a successful attempt must resolve something.
            Self::fail_group(
                run,
                results,
                GengarError::ProtocolViolation("batch attempt made no progress"),
            );
            return;
        }
        run.attempt_span = TraceSpan::disabled();
        self.start_attempt(run, results);
    }

    /// The write half of an attempt pass, resumable at any op index.
    ///
    /// Under `Consistency::None` on a healthy staging ring every write
    /// that fits a slot is window-eligible — its record is gathered into
    /// a scratch lane and posted with up to `window_depth` others under
    /// one doorbell ([`GengarClient::post_staged`]). A window never holds
    /// two writes to one object: meeting a second one posts the window
    /// and resumes at that op, and a window must settle before the next
    /// posts, so same-object writes land in submission order (and a
    /// failed window replays its unresolved ops, still in order, before
    /// anything later is planned). What the planner cannot stage (seqlock
    /// writes, oversize payloads, degraded connections) walks the direct
    /// chain ([`GengarClient::step_direct`]) one write at a time, with any
    /// planned window posted first as an ordering barrier. Posting parks
    /// the group instead of blocking; the walk resumes at `resume` once
    /// the flight settles.
    fn step_writes(
        &mut self,
        run: &mut GroupRun,
        cursor: usize,
        ops: &mut [BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
    ) -> Result<(), GengarError> {
        let (stage_cap, slot_bytes, max_payload, lanes) = {
            let conn = self.conn(run.server)?;
            match (conn.staging.as_ref(), conn.staging_scratch_off) {
                (Some(st), Some(own_lane))
                    if self.config.consistency == Consistency::None && !conn.degraded =>
                {
                    let layout = st.layout();
                    let fit = (conn.op_buf_len / layout.slot_bytes()) as usize;
                    if fit == 0 {
                        // An op area smaller than one slot still stages: a
                        // window of one gathers in the writer's own lane.
                        (1, layout.slot_bytes(), st.max_payload(), own_lane)
                    } else {
                        let cap = (conn.window.depth() as usize)
                            .min(layout.slots as usize)
                            .min(fit);
                        (cap, layout.slot_bytes(), st.max_payload(), conn.op_buf)
                    }
                }
                _ => (0, 0, 0, conn.op_buf),
            }
        };
        // A tenant with a staged-occupancy cap never plans a window larger
        // than the cap: an oversize window could never reserve, so it
        // would park forever. Oversize single payloads shed to the direct
        // chain.
        let tenant_cap = self
            .tenant
            .as_ref()
            .map(|t| t.spec().staged_bytes_cap)
            .filter(|&cap| cap > 0);
        let mut staged: Vec<StagedPlan> = Vec::new();
        let mut staged_bytes: u64 = 0;
        let mut cursor = cursor;
        while cursor < run.indices.len() {
            let i = run.indices[cursor];
            if results[i].is_some() {
                cursor += 1;
                continue;
            }
            let (ptr, offset, data_len) = match &ops[i] {
                BatchOp::Write { ptr, offset, data } => (*ptr, *offset, data.len() as u64),
                _ => {
                    cursor += 1;
                    continue;
                }
            };
            let base = ptr.addr.raw();
            if stage_cap > 0
                && data_len <= max_payload
                && tenant_cap.is_none_or(|cap| data_len <= cap)
            {
                if staged.iter().any(|p| p.base_raw == base)
                    || tenant_cap.is_some_and(|cap| staged_bytes + data_len > cap)
                {
                    // One write per object and at most the occupancy cap
                    // per window; post what is planned and resume here,
                    // unadvanced.
                    return self.post_staged(run, cursor, staged, ops);
                }
                staged_bytes += data_len;
                staged.push(StagedPlan {
                    idx: i,
                    target_raw: ptr.addr.add(offset).raw(),
                    base_raw: base,
                    off: offset,
                    lane: lanes + staged.len() as u64 * slot_bytes,
                });
                cursor += 1;
                if staged.len() == stage_cap {
                    return self.post_staged(run, cursor, staged, ops);
                }
            } else if !staged.is_empty() {
                // Ordering barrier: planned records must land before this
                // direct write (same-object order; the chain also reuses
                // the scratch lanes). Resume here, unadvanced.
                return self.post_staged(run, cursor, staged, ops);
            } else {
                // Issue gate: a dry tenant bucket parks the group (no
                // retry budget charged) and the walk resumes right here.
                if let Some(tenant) = &self.tenant {
                    if let Err(wake) = tenant.issue_admit(1, data_len) {
                        run.phase = GroupPhase::Throttle {
                            resume_at: wake,
                            next: Box::new(GroupPhase::Writes { cursor }),
                        };
                        return Ok(());
                    }
                }
                return self.begin_direct(run, cursor, ptr, data_len);
            }
        }
        if staged.is_empty() {
            run.phase = GroupPhase::Reads { cursor: 0 };
            Ok(())
        } else {
            // resume == len: the resumed write walk falls straight
            // through to the read pass.
            self.post_staged(run, run.indices.len(), staged, ops)
        }
    }

    /// Opens the direct chain for the write at `cursor`, taking the lock
    /// first unless this client already holds it. Safe to re-run after a
    /// failed attempt: the chain rewrites the same bytes, and a lock that
    /// attempt took is still in `held`.
    fn begin_direct(
        &mut self,
        run: &mut GroupRun,
        cursor: usize,
        ptr: GlobalPtr,
        need: u64,
    ) -> Result<(), GengarError> {
        let base = ptr.addr.raw();
        let mut step = DirectStep::Write;
        if self.config.consistency == Consistency::Seqlock {
            if !self.held.contains_key(&base) {
                step = DirectStep::ReadWord;
            }
        } else {
            let conn = self.conn(run.server)?;
            let fits_slot = conn
                .staging
                .as_ref()
                .is_some_and(|st| need <= st.max_payload());
            if conn.degraded {
                self.metrics.degraded_ops.inc();
            } else if fits_slot {
                // A payload that could never fit the tenant's in-flight
                // cap sheds to the direct path (slower, but it does not
                // wedge waiting on a reservation that cannot succeed).
                if let Some(tenant) = self.tenant.as_ref().filter(|t| !t.staged_fits(need)) {
                    tenant.note_staged_shed();
                }
            }
        }
        // An older staged record for this object may still sit un-drained
        // in the server ring (e.g. the connection degraded between the two
        // writes). Let it land first: the drain thread would otherwise
        // replay the *older* value over this newer direct write.
        if let Some(seq) = self.write_back.get(&base).map(|wb| wb.seq) {
            if let Some(st) = self.conn_mut(run.server)?.staging.as_mut() {
                if st.known_drained() < seq {
                    st.wait_drained(seq)?;
                }
            }
        }
        run.phase = GroupPhase::Direct(Box::new(DirectWrite {
            cursor,
            step,
            ..Default::default()
        }));
        Ok(())
    }

    /// Advances a direct write: harvests the step on the wire, applies its
    /// outcome, posts the next. The lock word, the CAS's prior value and
    /// the release word use the first 8 bytes of the group's op area, the
    /// payload chunks the rest (the group has no other flight open).
    /// `Break` parks the group (`None`: on the RPC response); `Continue`
    /// leaves the next phase in `run.phase`.
    fn step_direct(
        &mut self,
        run: &mut GroupRun,
        mut w: Box<DirectWrite>,
        ops: &[BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
        park: Duration,
    ) -> Result<ControlFlow<Option<Instant>>, GengarError> {
        let i = run.indices[w.cursor];
        let (ptr, offset, data): (GlobalPtr, u64, &[u8]) = match &ops[i] {
            BatchOp::Write { ptr, offset, data } => (*ptr, *offset, data),
            _ => unreachable!("the write walk opened this chain"),
        };
        let base = ptr.addr.raw();
        let word_at = ptr.addr.offset() - OBJ_HEADER;
        let (mr_lkey, region) = (self.mr.lkey(), self.mr.region().clone());
        loop {
            let conn = self.conn(run.server)?;
            let (word_lane, data_lane) = (conn.op_buf, conn.op_buf + 8);
            let chunk = (data.len() as u64 - w.done).min(conn.op_buf_len - 8);
            let nvm = |off: u64| RemoteAddr::new(conn.nvm_rkey(), off);
            let word_sge = Sge::new(mr_lkey, word_lane, 8);
            let write = |from: Sge, to: u64| SendOp::Write {
                payload: Payload::Sge(from),
                remote: nvm(to),
                imm: None,
            };
            match w.flight.take() {
                None => {
                    let op = match w.step {
                        DirectStep::ReadWord => SendOp::Read {
                            local: word_sge,
                            remote: nvm(word_at),
                        },
                        DirectStep::Cas => SendOp::CompareSwap {
                            local: word_sge,
                            remote: nvm(word_at),
                            expected: w.expected,
                            swap: lockword::locked(w.expected),
                        },
                        DirectStep::Write if chunk == 0 => {
                            let addr = ptr.addr.add(offset).raw();
                            let len = data.len() as u64;
                            let call = conn.rpc.begin(&Request::FlushRange { addr, len });
                            w.flight = Some(Flight::Rpc(call));
                            continue;
                        }
                        DirectStep::Write => {
                            let from = w.done as usize;
                            region.write(data_lane, &data[from..from + chunk as usize])?;
                            let to = ptr.addr.offset() + offset + w.done;
                            write(Sge::new(mr_lkey, data_lane, chunk), to)
                        }
                        DirectStep::Unlock => {
                            let (locked, _) = self.held[&base];
                            region.write(word_lane, &lockword::release(locked).to_le_bytes())?;
                            write(word_sge, word_at)
                        }
                    };
                    w.flight = Some(Flight::Verb(conn.data.post_many(vec![op])?));
                }
                Some(Flight::Verb(mut pending)) => {
                    if !conn.data.poll_pending(&mut pending) {
                        let wake = conn.data.pending_done_wake(&pending);
                        w.flight = Some(Flight::Verb(pending));
                        run.phase = GroupPhase::Direct(w);
                        return Ok(ControlFlow::Break(wake));
                    }
                    pending.into_results().pop().expect("one op posted")?;
                    match w.step {
                        DirectStep::ReadWord => {
                            w.expected = lockword::next_unlocked(self.scratch_word(word_lane)?);
                            w.step = DirectStep::Cas;
                        }
                        DirectStep::Cas => {
                            let prev = self.scratch_word(word_lane)?;
                            if prev == w.expected {
                                self.held.insert(base, (lockword::locked(prev), true));
                                w.step = DirectStep::Write;
                                continue;
                            }
                            // Lost: the word the CAS returned is the next
                            // expectation, no second READ.
                            self.metrics.lock_retries.inc();
                            w.tries += 1;
                            w.expected = lockword::next_unlocked(prev);
                            if w.tries >= self.config.lock_retries {
                                w.refused = Some(GengarError::LockContended(ptr.addr));
                                break;
                            }
                            run.phase = GroupPhase::Throttle {
                                resume_at: Instant::now() + Backoff::park_after(w.tries),
                                next: Box::new(GroupPhase::Direct(w)),
                            };
                            return Ok(ControlFlow::Continue(()));
                        }
                        DirectStep::Write => w.done += chunk,
                        DirectStep::Unlock => {
                            self.held.remove(&base);
                            break;
                        }
                    }
                }
                Some(Flight::Rpc(mut call)) => {
                    let Some(resp) = conn.rpc.poll(&mut call, park)? else {
                        w.flight = Some(Flight::Rpc(call));
                        run.phase = GroupPhase::Direct(w);
                        return Ok(ControlFlow::Break(None));
                    };
                    w.refused = Self::flush_ack(resp, data.len() as u64).err();
                    // Release only a lock a write took for itself (this
                    // attempt or a failed earlier one), never the caller's.
                    match self.held.get(&base) {
                        Some((_, true)) => w.step = DirectStep::Unlock,
                        _ => break,
                    }
                }
            }
        }
        run.phase = GroupPhase::Writes {
            cursor: w.cursor + 1,
        };
        if let Some(e) = w.refused {
            results[i] = Some(Err(e));
            return Ok(ControlFlow::Continue(()));
        }
        results[i] = Some(Ok(()));
        self.remap.remove(&base);
        self.write_back.remove(&base);
        self.metrics.direct_writes.inc();
        self.record(run.server, base, true);
        Ok(ControlFlow::Continue(()))
    }

    /// Routes a planned staged-write window: posts it if the ring has
    /// room, otherwise parks the group in `RingWait` to poll the drained
    /// watermark (the blocking `stage_write` sleeps here instead).
    fn post_staged(
        &mut self,
        run: &mut GroupRun,
        resume: usize,
        plans: Vec<StagedPlan>,
        ops: &[BatchOp<'_>],
    ) -> Result<(), GengarError> {
        if let Some(tenant) = &self.tenant {
            let bytes: u64 = plans
                .iter()
                .map(|p| match &ops[p.idx] {
                    BatchOp::Write { data, .. } => data.len() as u64,
                    _ => 0,
                })
                .sum();
            // Occupancy admission first: the planner never builds a
            // window larger than the cap, so a failed reserve means other
            // flights hold the budget — park briefly until they settle
            // and release, re-entering here.
            if !tenant.try_reserve_staged(bytes) {
                run.phase = GroupPhase::Throttle {
                    resume_at: Instant::now() + Duration::from_micros(20),
                    next: Box::new(GroupPhase::PostWrites { resume, plans }),
                };
                return Ok(());
            }
            // Token gate: weighted rate/bandwidth charge. A dry bucket
            // parks until its refill instant, handing the occupancy
            // reservation back (both gates re-run on wake).
            if let Err(wake) = tenant.issue_admit(plans.len() as u64, bytes) {
                tenant.release_staged(bytes);
                run.phase = GroupPhase::Throttle {
                    resume_at: wake,
                    next: Box::new(GroupPhase::PostWrites { resume, plans }),
                };
                return Ok(());
            }
            run.staged_reserved += bytes;
        }
        let full = {
            let conn = self.conn(run.server)?;
            let st = conn.staging.as_ref().expect("planned on a staging ring");
            if st.ring_room() < plans.len() {
                st.note_ring_full();
                Some(st.known_drained())
            } else {
                None
            }
        };
        if let Some(drained) = full {
            let now = Instant::now();
            run.phase = GroupPhase::RingWait {
                resume,
                plans,
                next_poll: now,
                sleep_us: 5,
                last_seen: drained,
                stall_deadline: now + attempt_timeout(self.config.op_deadline),
            };
            return Ok(());
        }
        self.begin_staged(run, resume, plans, ops)
    }

    /// Posts a staged-write window under one doorbell and parks the group
    /// on the open flight. Failures of the post itself (nothing staged)
    /// count toward the connection's degraded tracking.
    fn begin_staged(
        &mut self,
        run: &mut GroupRun,
        resume: usize,
        plans: Vec<StagedPlan>,
        ops: &[BatchOp<'_>],
    ) -> Result<(), GengarError> {
        let items: Vec<(u64, &[u8], u64)> = plans
            .iter()
            .map(|p| {
                let data: &[u8] = match &ops[p.idx] {
                    BatchOp::Write { data, .. } => data,
                    _ => unreachable!("planned from a write"),
                };
                (p.target_raw, data, p.lane)
            })
            .collect();
        let threshold = self.config.staging_fault_threshold;
        let conn = self.conn_mut(run.server)?;
        match conn
            .staging
            .as_mut()
            .expect("planned on a staging ring")
            .stage_batch_begin(&items)
        {
            Ok(flight) => {
                run.phase = GroupPhase::StagedWait {
                    resume,
                    plans,
                    flight,
                };
                Ok(())
            }
            Err(e) => {
                conn.staging_faults += 1;
                if conn.staging_faults >= threshold {
                    conn.degraded = true;
                }
                Err(e)
            }
        }
    }

    /// Retires a completed staged-write flight and settles the per-record
    /// outcomes (store buffer, hotness, degraded tracking). Successfully
    /// staged records resolve their ops even when the function then
    /// returns a transport error for a failed sibling: acknowledged
    /// records are durable and must not be replayed.
    fn settle_staged(
        &mut self,
        run: &mut GroupRun,
        resume: usize,
        plans: Vec<StagedPlan>,
        flight: StagedFlight,
        ops: &[BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
    ) -> Result<(), GengarError> {
        // The flight has settled (acknowledged or failed per record):
        // its staged-occupancy reservation is done either way.
        if run.staged_reserved > 0 {
            if let Some(tenant) = &self.tenant {
                tenant.release_staged(run.staged_reserved);
            }
            run.staged_reserved = 0;
        }
        let outcomes = {
            let conn = self.conn_mut(run.server)?;
            conn.staging
                .as_mut()
                .expect("flight implies a staging ring")
                .stage_batch_finish(flight)
        };
        let threshold = self.config.staging_fault_threshold;
        let mut first_err: Option<GengarError> = None;
        let mut any_ok = false;
        for (p, outcome) in plans.iter().zip(outcomes) {
            match outcome {
                Ok(seq) => {
                    any_ok = true;
                    let data: &[u8] = match &ops[p.idx] {
                        BatchOp::Write { data, .. } => data,
                        _ => unreachable!("planned from a write"),
                    };
                    self.write_back.insert(
                        p.base_raw,
                        WriteBack {
                            seq,
                            off: p.off,
                            data: data.to_vec(),
                        },
                    );
                    self.metrics.staged_writes.inc();
                    results[p.idx] = Some(Ok(()));
                    self.record(run.server, p.base_raw, true);
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        {
            let conn = self.conn_mut(run.server)?;
            if any_ok {
                conn.staging_faults = 0;
            }
            if first_err.is_some() {
                conn.staging_faults += 1;
                if conn.staging_faults >= threshold {
                    conn.degraded = true;
                }
            }
        }
        self.purge_write_back(run.server)?;
        self.maybe_remirror(run.server);
        match first_err {
            Some(e) => Err(e),
            None => {
                run.phase = GroupPhase::Writes { cursor: resume };
                Ok(())
            }
        }
    }

    /// The read half of an attempt pass, resumable at any op index.
    ///
    /// The store buffer is a step, not a path: it either serves the read
    /// locally or retires its entry, and everything it does not serve is
    /// planned — a cache-frame fetch (self-validating, so under either
    /// consistency mode), a plain NVM read, or under
    /// `Consistency::Seqlock` the versioned triple. Plans are packed into
    /// scratch lanes and posted in windows ([`GengarClient::post_reads`]),
    /// parking the group on the flight instead of blocking. A read larger
    /// than the op area takes all of it, alone in its window, and arrives
    /// in chunks. A pass that plans nothing further closes the attempt.
    fn step_reads(
        &mut self,
        run: &mut GroupRun,
        cursor: usize,
        ops: &mut [BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
    ) -> Result<(), GengarError> {
        let (depth, op_buf, op_buf_len) = {
            let conn = self.conn(run.server)?;
            (conn.window.depth() as usize, conn.op_buf, conn.op_buf_len)
        };
        let mut plans: Vec<ReadPlan> = Vec::new();
        let (mut lane_off, mut wrs) = (0u64, 0usize);
        let mut cursor = cursor;
        while cursor < run.indices.len() {
            let i = run.indices[cursor];
            let (ptr, offset, buf, versioned) = match &mut ops[i] {
                BatchOp::Read {
                    ptr,
                    offset,
                    buf,
                    word,
                } if results[i].is_none() => (*ptr, *offset, &mut **buf, word.is_some()),
                _ => {
                    cursor += 1;
                    continue;
                }
            };
            let buf_len = buf.len() as u64;
            let base = ptr.addr.raw();
            if !versioned && self.serve_from_store_buffer(ptr, offset, buf)? {
                results[i] = Some(Ok(()));
                self.record(run.server, base, false);
                cursor += 1;
                continue;
            }
            // Slot frames validate as a whole, so a cached read fetches
            // the full object; engage the cache only when the request
            // covers most of it (small probes into large objects — e.g.
            // index buckets — are cheaper straight from NVM). A versioned
            // read is always the NVM triple.
            let frame = SLOT_HEADER + ptr.size + SLOT_TAIL;
            let mut kind = if versioned {
                ReadKind::Versioned
            } else {
                self.nvm_read_kind(base)
            };
            if !versioned && buf_len * 2 >= ptr.size {
                if let Some(&slot_raw) = self.remap.get(&base) {
                    match GlobalAddr::from_raw(slot_raw) {
                        Some(s) if s.class() == MemClass::DramCache && frame <= op_buf_len => {
                            kind = ReadKind::Cached(s)
                        }
                        _ => {
                            self.remap.remove(&base);
                            self.metrics.cache_rejects.inc();
                        }
                    }
                }
            }
            let need = match kind {
                ReadKind::Cached(_) => frame,
                ReadKind::Plain => buf_len,
                ReadKind::Versioned => buf_len + 16,
            }
            .min(op_buf_len);
            if !plans.is_empty() && (wrs + kind.wrs() > depth || lane_off + need > op_buf_len) {
                return self.post_reads(run, cursor, plans);
            }
            plans.push(ReadPlan {
                idx: i,
                ptr,
                offset,
                len: buf_len,
                done: 0,
                lane: op_buf + lane_off,
                lane_len: need,
                kind,
                word: 0,
                tries: 0,
            });
            lane_off += need;
            wrs += kind.wrs();
            cursor += 1;
        }
        if plans.is_empty() {
            self.finish_attempt(run, results);
            Ok(())
        } else {
            self.post_reads(run, run.indices.len(), plans)
        }
    }

    /// Posts read plans under one doorbell and parks the group on it. Plans
    /// past the window depth (re-plans can triple) wait for the next round.
    fn post_reads(
        &mut self,
        run: &mut GroupRun,
        resume: usize,
        plans: Vec<ReadPlan>,
    ) -> Result<(), GengarError> {
        let mr_lkey = self.mr.lkey();
        let conn = self.conn(run.server)?;
        let (nvm_rkey, cache_rkey) = (conn.nvm_rkey(), conn.cache_rkey());
        let mut sends: Vec<SendOp> = Vec::with_capacity(plans.len());
        let (mut posted, mut bytes) = (0u64, 0u64);
        for p in &plans {
            if !sends.is_empty() && sends.len() + p.kind.wrs() > conn.window.depth() as usize {
                break;
            }
            let mut read = |lane_off: u64, len: u64, rkey: RKey, remote_off: u64| {
                bytes += len;
                sends.push(SendOp::Read {
                    local: Sge::new(mr_lkey, p.lane + lane_off, len),
                    remote: RemoteAddr::new(rkey, remote_off),
                });
            };
            let len = p.chunk();
            let word_at = p.ptr.addr.offset() - OBJ_HEADER;
            let data_at = p.ptr.addr.offset() + p.offset + p.done;
            match p.kind {
                ReadKind::Cached(slot) => read(0, p.lane_len, cache_rkey, slot.offset()),
                ReadKind::Plain => read(0, len, nvm_rkey, data_at),
                // An RC queue pair executes a doorbell's READs in posting
                // order, so the payload is bracketed by the two words.
                ReadKind::Versioned => {
                    read(0, 8, nvm_rkey, word_at);
                    read(8, len, nvm_rkey, data_at);
                    read(8 + len, 8, nvm_rkey, word_at);
                }
            }
            posted += 1;
        }
        // Issue gate: charge the doorbell's ops and wire bytes (cache-frame
        // fetches pull the whole frame); a dry bucket parks the group and
        // re-enters here (`PostReads`) on wake.
        if let Some(tenant) = &self.tenant {
            if let Err(wake) = tenant.issue_admit(posted, bytes) {
                run.phase = GroupPhase::Throttle {
                    resume_at: wake,
                    next: Box::new(GroupPhase::PostReads { resume, plans }),
                };
                return Ok(());
            }
        }
        let pending = conn.window.post(&conn.data, sends)?;
        run.phase = GroupPhase::ReadWait {
            resume,
            plans,
            pending,
        };
        Ok(())
    }

    /// Settles a completed read flight: copies every validated lane out
    /// and resolves per-op outcomes. A rejected cache frame
    /// ([`GengarClient::frame_is_valid`]) re-plans against NVM in the same
    /// lane; a versioned read whose words are locked, differ, or differ
    /// from an earlier chunk's starts over, up to `read_retries` times.
    /// Those, further chunks and unposted plans go round again
    /// ([`GengarClient::post_reads`]); then the walk resumes at `resume`.
    fn settle_reads(
        &mut self,
        run: &mut GroupRun,
        resume: usize,
        plans: Vec<ReadPlan>,
        completions: Vec<Result<Wc, RdmaError>>,
        ops: &mut [BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
    ) -> Result<(), GengarError> {
        let region = self.mr.region().clone();
        let mut completions = completions.into_iter();
        let mut first_err: Option<GengarError> = None;
        let mut again: Vec<ReadPlan> = Vec::new();
        let mut park = Duration::ZERO;
        for mut p in plans {
            let mut mine = completions.by_ref().take(p.kind.wrs());
            let Some(first) = mine.next() else {
                again.push(p);
                continue;
            };
            // Drain the plan's completions even past a failed one, so the
            // next plan's line up.
            if let Some(e) = mine.fold(first.err(), |err, wc| err.or(wc.err())) {
                first_err.get_or_insert(GengarError::Rdma(e));
                continue;
            }
            let (buf, word_out) = match &mut ops[p.idx] {
                BatchOp::Read { buf, word, .. } => (&mut **buf, word),
                _ => unreachable!("planned from a read"),
            };
            let base = p.ptr.addr.raw();
            let len = p.chunk();
            match p.kind {
                ReadKind::Cached(_) if Self::frame_is_valid(&region, p.lane, p.ptr)? => {
                    region.read(p.lane + SLOT_HEADER + p.offset, buf)?;
                    self.metrics.cache_hits.inc();
                }
                ReadKind::Cached(_) => {
                    self.remap.remove(&base);
                    self.metrics.cache_rejects.inc();
                    p.kind = self.nvm_read_kind(base);
                    again.push(p);
                    continue;
                }
                ReadKind::Plain | ReadKind::Versioned => {
                    let mut data_at = p.lane;
                    if let ReadKind::Versioned = p.kind {
                        let before = self.scratch_word(p.lane)?;
                        let stable = !lockword::is_locked(before)
                            && before == self.scratch_word(p.lane + 8 + len)?
                            && (p.done == 0 || before == p.word);
                        if !stable {
                            self.metrics.read_retries.inc();
                            (p.tries, p.done) = (p.tries + 1, 0);
                            if p.tries >= self.config.read_retries {
                                results[p.idx] = Some(Err(GengarError::ReadContended(p.ptr.addr)));
                            } else {
                                park = park.max(Backoff::park_after(p.tries));
                                again.push(p);
                            }
                            continue;
                        }
                        (p.word, data_at) = (before, p.lane + 8);
                    }
                    let from = p.done as usize;
                    region.read(data_at, &mut buf[from..from + len as usize])?;
                    p.done += len;
                    if p.done < p.len {
                        again.push(p);
                        continue;
                    }
                    if let Some(word) = word_out {
                        **word = p.word;
                    }
                    self.metrics.nvm_reads.inc();
                }
            }
            results[p.idx] = Some(Ok(()));
            // Only cache-worthy reads feed the hotness monitor: promoting
            // an object that is probed 16 bytes at a time would waste DRAM
            // on a copy no read path would use.
            if p.len * 2 >= p.ptr.size {
                self.record(run.server, base, false);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // What is unresolved goes round again — after the contention park,
        // if a validation was lost (nothing failed, a writer is at work:
        // no retry budget is charged).
        run.phase = if again.is_empty() {
            GroupPhase::Reads { cursor: resume }
        } else {
            GroupPhase::Throttle {
                resume_at: Instant::now() + park,
                next: Box::new(GroupPhase::PostReads {
                    resume,
                    plans: again,
                }),
            }
        };
        Ok(())
    }

    /// Remote atomic compare-and-swap on an 8-byte-aligned word of the
    /// object. Returns the value observed before the operation.
    ///
    /// # Errors
    ///
    /// Bounds/alignment violations, transport failures that outlive the
    /// operation deadline.
    pub fn cas_u64(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, GengarError> {
        Self::check_access(ptr, offset, 8)?;
        let server = ptr.addr.server();
        let mut state = self.retry_state();
        // The verb is only ever re-posted after a failure that provably
        // preceded execution (the fabric injects faults before the remote
        // word is touched), so a retried CAS cannot double-apply.
        let prev = loop {
            match self.cas_attempt(server, ptr.addr.offset() + offset, expected, new) {
                Ok(v) => break v,
                Err(e) => self.recover(server, e, &mut state)?,
            }
        };
        // The durability anchor is idempotent and retried independently so
        // a flush failure never re-executes the atomic.
        loop {
            match self.finish_atomic(ptr, offset) {
                Ok(()) => return Ok(prev),
                Err(e) => self.recover(server, e, &mut state)?,
            }
        }
    }

    /// CASes the NVM word at `word_off` on `server`; returns the prior value.
    fn cas_attempt(
        &mut self,
        server: u8,
        word_off: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, GengarError> {
        let conn = self.conn(server)?;
        conn.data.compare_swap(
            Sge::new(self.mr.lkey(), self.op_cas, 8),
            RemoteAddr::new(conn.nvm_rkey(), word_off),
            expected,
            new,
        )?;
        self.scratch_word(self.op_cas)
    }

    /// Remote atomics mutate NVM without persistence; anchor durability
    /// with the flush RPC (which also invalidates any cached copy), then
    /// drop stale local views.
    fn finish_atomic(&mut self, ptr: GlobalPtr, offset: u64) -> Result<(), GengarError> {
        let server = ptr.addr.server();
        self.flush_range(ptr.addr.add(offset), 8)?;
        self.remap.remove(&ptr.addr.raw());
        self.write_back.remove(&ptr.addr.raw());
        self.record(server, ptr.addr.raw(), true);
        self.report_if_due();
        Ok(())
    }

    /// Remote atomic fetch-and-add, returning the prior value.
    ///
    /// # Errors
    ///
    /// Bounds/alignment violations, transport failures that outlive the
    /// operation deadline.
    pub fn faa_u64(&mut self, ptr: GlobalPtr, offset: u64, add: u64) -> Result<u64, GengarError> {
        Self::check_access(ptr, offset, 8)?;
        let server = ptr.addr.server();
        let mut state = self.retry_state();
        // Same re-execution discipline as [`GengarClient::cas_u64`]: only
        // provably unexecuted FAAs are re-posted, so the add never lands
        // twice.
        let prev = loop {
            match self.faa_attempt(ptr, offset, add) {
                Ok(v) => break v,
                Err(e) => self.recover(server, e, &mut state)?,
            }
        };
        loop {
            match self.finish_atomic(ptr, offset) {
                Ok(()) => return Ok(prev),
                Err(e) => self.recover(server, e, &mut state)?,
            }
        }
    }

    fn faa_attempt(&mut self, ptr: GlobalPtr, offset: u64, add: u64) -> Result<u64, GengarError> {
        let conn = self.conn(ptr.addr.server())?;
        conn.data.fetch_add(
            Sge::new(self.mr.lkey(), self.op_cas, 8),
            RemoteAddr::new(conn.nvm_rkey(), ptr.addr.offset() + offset),
            add,
        )?;
        self.scratch_word(self.op_cas)
    }

    /// Acquires the object's writer lock via remote CAS, by a write's own
    /// rule: READ the word once, then expect what each lost CAS returned.
    ///
    /// # Errors
    ///
    /// [`GengarError::LockContended`] after `lock_retries` failed attempts.
    pub fn lock(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        Self::check_access(ptr, 0, 0)?;
        let base = ptr.addr.raw();
        if let Some((_, own)) = self.held.get_mut(&base) {
            // A lock a failed write left behind becomes the caller's.
            *own = false;
            return Ok(());
        }
        let word_off = ptr.addr.offset() - OBJ_HEADER;
        let mut expected = lockword::next_unlocked(self.read_lock_word(ptr)?);
        let mut backoff = Backoff::default();
        for _ in 0..self.config.lock_retries {
            let locked = lockword::locked(expected);
            let prev = self.cas_attempt(ptr.addr.server(), word_off, expected, locked)?;
            if prev == expected {
                self.held.insert(base, (locked, false));
                return Ok(());
            }
            self.metrics.lock_retries.inc();
            expected = lockword::next_unlocked(prev);
            backoff.wait();
        }
        Err(GengarError::LockContended(ptr.addr))
    }

    /// Releases a lock held by this client, bumping the object version.
    ///
    /// # Errors
    ///
    /// [`GengarError::ProtocolViolation`] if this client does not hold the
    /// lock.
    pub fn unlock(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        let base = ptr.addr.raw();
        let (locked_word, _) = *self
            .held
            .get(&base)
            .ok_or(GengarError::ProtocolViolation("unlock without lock"))?;
        let release = lockword::release(locked_word);
        let word_off = ptr.addr.offset() - OBJ_HEADER;
        // Forget the lock only once the release write landed; a failed
        // release leaves it in `held` so a retried unlock can release it
        // instead of deadlocking on a lock word nobody remembers owning.
        self.write_remote(ptr.addr.server(), word_off, &release.to_le_bytes())?;
        self.held.remove(&base);
        Ok(())
    }

    /// Reads the object's raw lock/version word (one 8-byte READ). Exposed
    /// for systems layered on Gengar that implement their own validation,
    /// e.g. client-side caches.
    ///
    /// # Errors
    ///
    /// Transport failures as [`GengarError::Rdma`].
    pub fn read_lock_word(&mut self, ptr: GlobalPtr) -> Result<u64, GengarError> {
        Self::check_access(ptr, 0, 0)?;
        let conn = self.conn(ptr.addr.server())?;
        conn.data.read(
            Sge::new(self.mr.lkey(), self.op_hdr, 8),
            RemoteAddr::new(conn.nvm_rkey(), ptr.addr.offset() - OBJ_HEADER),
        )?;
        self.scratch_word(self.op_hdr)
    }

    /// Reads `buf.len()` bytes at `ptr.addr + offset` as one versioned
    /// triple from NVM (lock word, payload, lock word under one doorbell)
    /// and returns the unlocked word the payload was validated against —
    /// what a client-side cache needs to fill an entry. It never reads a
    /// cache frame or this client's store buffer, so flush staged writes to
    /// `ptr` first, and do not hold `ptr`'s lock (the triple would never
    /// validate).
    ///
    /// # Errors
    ///
    /// As [`GengarClient::read`], including [`GengarError::ReadContended`]
    /// after `read_retries` lost validations.
    pub fn read_versioned(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<u64, GengarError> {
        let mut word = 0;
        self.run_batch(vec![BatchOp::Read {
            ptr,
            offset,
            buf,
            word: Some(&mut word),
        }])?
        .into_single()?;
        Ok(word)
    }

    /// Records one access for the piggybacked hotness report.
    fn record(&mut self, server: u8, base_raw: u64, wrote: bool) {
        // A promoted ward serves from the replica's shadow region, which
        // has no cache plane of its own: reporting would make the replica
        // cache the ward's addresses against its *own* NVM. Skip it.
        if self.redirects.contains_key(&server) {
            return;
        }
        let entry = self
            .pending
            .entry(server)
            .or_default()
            .entry(base_raw)
            .or_insert((0, false));
        entry.0 += 1;
        entry.1 |= wrote;
        self.ops_since_report += 1;
    }

    /// Sends the hotness reports once `report_every` accesses are pending:
    /// behind a batch, never inside it (a group may hold a begun flush RPC
    /// on the connection a report would use), and best-effort (the ops it
    /// follows have settled; a dead connection is the next op's to recover).
    fn report_if_due(&mut self) {
        if self.ops_since_report >= self.config.report_every {
            let _ = self.flush_reports();
        }
    }

    /// Sends pending hotness reports now and applies the piggybacked remap
    /// updates. Called automatically every `report_every` accesses.
    ///
    /// # Errors
    ///
    /// Transport failures as [`GengarError::Rdma`].
    pub fn flush_reports(&mut self) -> Result<(), GengarError> {
        /// Remap entries kept at most: a frame for every 512 bytes of one
        /// server's default 32 MiB cache. The cap only bounds the map's
        /// growth; past it, new remaps are skipped, not evicted.
        const REMAP_ENTRIES: usize = 65_536;
        self.ops_since_report = 0;
        let mut queues: Vec<(u8, Vec<AccessEntry>)> = std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(server, entries)| {
                let entries = entries.into_iter();
                let entry = |(addr, (count, wrote))| AccessEntry { addr, count, wrote };
                (server, entries.map(entry).collect())
            })
            .collect();
        // One chunk per server per round, all sent before any response is
        // awaited: the servers' handler wake-ups overlap instead of queueing
        // behind each other inside whichever call crossed the threshold (on
        // a busy host each is a scheduling delay). Every begun call is
        // finished, so no response is left to be taken for a later request's.
        let mut first_err = None;
        while first_err.is_none() && !queues.is_empty() {
            let calls: Vec<_> = queues
                .iter_mut()
                .map(|(server, batch)| {
                    let entries = batch.drain(..batch.len().min(MAX_REPORT)).collect();
                    Ok(self.conn(*server)?.rpc.begin(&Request::Report { entries }))
                })
                .collect();
            for ((server, _), call) in queues.iter().zip(calls) {
                match call.and_then(|c| self.conn(*server)?.rpc.finish(c)) {
                    Ok(Response::Report { remaps }) => {
                        for r in remaps {
                            if r.cache_addr == 0 {
                                self.remap.remove(&r.addr);
                            } else {
                                if self.remap.len() >= REMAP_ENTRIES
                                    && !self.remap.contains_key(&r.addr)
                                {
                                    continue;
                                }
                                self.remap.insert(r.addr, r.cache_addr);
                            }
                        }
                        self.metrics.reports.inc();
                    }
                    Ok(Response::Err { .. }) => self.metrics.reports.inc(),
                    Ok(_) => {
                        let bad = GengarError::ProtocolViolation("bad report response");
                        first_err.get_or_insert(bad);
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            queues.retain(|(_, batch)| !batch.is_empty());
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Blocks until every staged write this client issued has been drained
    /// to NVM (used by tests and durability-sensitive applications).
    ///
    /// Runs under the same recovery loop as the data operations: a stalled
    /// drain (dead server) is bounded by the per-operation deadline, and a
    /// reconnect replays the un-drained writes before waiting again.
    ///
    /// # Errors
    ///
    /// Transport failures that outlive the operation deadline, as
    /// [`GengarError::Rdma`].
    pub fn drain_all(&mut self) -> Result<(), GengarError> {
        for server in self.server_ids() {
            let mut state = self.retry_state();
            loop {
                let result = (|| {
                    let conn = self.conn_mut(server)?;
                    if let Some(st) = conn.staging.as_mut() {
                        let last = st.next_seq().saturating_sub(1);
                        if last > 0 {
                            st.wait_drained(last)?;
                        }
                    }
                    Ok(())
                })();
                match result {
                    Ok(()) => break,
                    Err(e) => self.recover(server, e, &mut state)?,
                }
            }
        }
        self.write_back.clear();
        Ok(())
    }

    /// Number of remap entries currently cached locally.
    pub fn remap_entries(&self) -> usize {
        self.remap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `step_group` moves the phase out and back (`mem::replace`) on every
    /// step of every op, staged writes and plain reads included, so the
    /// phases this module adds box their payloads: the enum must not grow
    /// past what it measured before the direct chain existed.
    #[test]
    fn group_phase_stays_small() {
        assert!(
            std::mem::size_of::<GroupPhase>() <= 168,
            "GroupPhase grew to {} bytes",
            std::mem::size_of::<GroupPhase>()
        );
    }
}
