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

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_hybridmem::latency::{spin_until, SLEEP_THRESHOLD_NS};
use gengar_hybridmem::{DeviceProfile, MemDevice, MemRegion};
use gengar_rdma::{
    Access, Fabric, FastMap, MemoryRegion, Payload, PendingOps, ProtectionDomain, RKey, RdmaError,
    RdmaNode, RemoteAddr, SendOp, Sge,
};
use gengar_telemetry::{
    adopt, Counter, CounterHandle, HistogramHandle, SpanId, Telemetry, TelemetryConfig, TraceId,
    TraceSpan,
};

use crate::addr::{GlobalAddr, GlobalPtr, MemClass};
use crate::batch::{AtomicVerb, BatchOp, BatchResult, OpBatch};
use crate::config::ClientConfig;
use crate::consistency::park_after;
use crate::error::GengarError;
use crate::hotness::{
    decode_remaps, encode_report, mailbox_announced, AccessEntry, ReportArea, MAILBOX_HEADER,
    MAX_REPORT, REPORT_SLOTS, REPORT_SLOT_BYTES,
};
use crate::layout::{decode_slot_header, lockword, OBJ_HEADER, SLOT_HEADER, SLOT_TAIL};
use crate::objects::{Objects, WriteBack};
use crate::plan::{
    self, DirectStep, FrameUpdate, FrameVerdict, Hold, Known, LostCas, Op, Persist, ReadKind,
    Release, Ring, Route, Start, Why,
};
use crate::proto::{err_code, error_for_code, MountInfo, Request, Response, NO_BACKUP};
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
    /// Writes that went directly to NVM (+ FLUSH or flush RPC).
    pub direct_writes: u64,
    /// Lock acquisition retries.
    pub lock_retries: u64,
    /// Consistent-read retries.
    pub read_retries: u64,
    /// Report slots written into the servers' report rings.
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

/// One read of the current batch attempt, re-posted until it resolves:
/// against NVM after a rejected cache frame, from the start after a lost
/// seqlock validation, chunk by chunk when larger than the op area.
#[derive(Debug, Clone, Copy)]
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
        let words = match self.kind {
            ReadKind::Versioned => 16, // the triple's two lock words
            _ => 0,
        };
        (self.len - self.done).min(self.lane_len - words)
    }

    /// Bytes of the cache frame a cached read fetches; the lock word lands
    /// right behind it.
    fn frame_len(&self) -> u64 {
        SLOT_HEADER + self.ptr.size + SLOT_TAIL
    }
}

/// What a [`DirectOp`] waits for.
#[derive(Debug)]
enum Flight {
    Verb(PendingOps),
    Rpc(PendingCall),
}

/// An op part-way down the direct chain, each step a wait other servers'
/// groups overlap. A `Seqlock` write runs lock CAS (behind a lock-word READ
/// when the client remembers no word of the object; with the frame's
/// header READ fenced behind it when it knows the object's frame) → WRITE
/// per op-area chunk → its persist ([`plan::persist`]) → unlock WRITE. Past
/// version 0 the last chunk, the FLUSH, the frame refresh
/// ([`plan::frame_update`]) and the fenced unlock share one doorbell.
/// Where other ops start is [`plan::chain_start`]'s.
#[derive(Debug, Default)]
struct DirectOp {
    /// Position of the op in the group's indices (the walk resumes behind it).
    cursor: usize,
    step: DirectStep,
    flight: Option<Flight>,
    /// Unlocked word the next lock CAS expects.
    expected: u64,
    /// `expected` is a remembered word, not one this attempt saw: a lost
    /// CAS stands in for the READ it skipped ([`plan::lost_cas`]).
    guess: bool,
    /// Lost lock CASes so far (bounded by `lock_retries`).
    tries: u32,
    /// The cache frame whose header the lock CAS's doorbell fetched, and
    /// what the write puts into it once the CAS won.
    frame: Option<GlobalAddr>,
    update: Option<FrameUpdate>,
    /// Payload bytes already written.
    done: u64,
    /// Why the op fails (lock never won, flush refused); a lock a write
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
    /// Polling the ring's drained watermark until it reaches `target`,
    /// then entering `then`: for ring room for a planned window, for a
    /// staged record that a direct write or a partly overlapping read must
    /// not race, and for a drain barrier. The first poll re-reads at once,
    /// later ones back off 5 → 200 µs; a watermark frozen past
    /// `stall_deadline` ends the attempt as a timeout.
    AwaitDrained {
        target: u64,
        then: Box<GroupPhase>,
        next_poll: Instant,
        sleep_us: u64,
        last_seen: u64,
        stall_deadline: Instant,
        /// A ring-room wait not counted yet: it counts as a ring-full wait
        /// if the first re-read still finds no room.
        ring_full: bool,
    },
    /// A staged-write doorbell flight is on the wire.
    StagedWait {
        resume: usize,
        plans: Vec<StagedPlan>,
        flight: StagedFlight,
    },
    /// An op is walking the direct chain.
    Direct(Box<DirectOp>),
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
    /// [`GengarClient::post_staged`]: a throttle park or a ring-room wait
    /// carries the plan across, so the gates are charged on wake.
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
#[derive(Debug)]
struct GroupRun {
    server: u8,
    indices: Vec<usize>,
    /// Emptied plan lists and the send list the walk refills: what a
    /// settled flight hands back, the next planning pass reuses.
    spare_reads: Vec<ReadPlan>,
    spare_staged: Vec<StagedPlan>,
    sends: Vec<SendOp>,
    /// The boxes a direct chain and a parked phase last used.
    spare_direct: Option<Box<DirectOp>>,
    spare_phase: Option<Box<GroupPhase>>,
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

/// A finished group's buffers, emptied, kept for the next call's groups
/// so the issue path allocates none of them once warm.
#[derive(Debug, Default)]
struct GroupBufs {
    indices: Vec<usize>,
    reads: Vec<ReadPlan>,
    staged: Vec<StagedPlan>,
    sends: Vec<SendOp>,
    direct: Option<Box<DirectOp>>,
    phase: Option<Box<GroupPhase>>,
}

impl GroupRun {
    /// A group for `server` over recycled buffers, its spans still off.
    fn new(server: u8, state: RetryState, bufs: GroupBufs) -> Self {
        GroupRun {
            server,
            indices: bufs.indices,
            spare_reads: bufs.reads,
            spare_staged: bufs.staged,
            sends: bufs.sends,
            spare_direct: bufs.direct,
            spare_phase: bufs.phase,
            state,
            pending_at_start: 0,
            phase: GroupPhase::Done,
            staged_reserved: 0,
            group_span: TraceSpan::disabled(),
            group_ctx: (TraceId::NONE, SpanId(0)),
            attempt_span: TraceSpan::disabled(),
            attempt_ctx: (TraceId::NONE, SpanId(0)),
        }
    }

    /// The group's buffers, emptied for the next call.
    fn into_bufs(self) -> GroupBufs {
        let mut bufs = GroupBufs {
            indices: self.indices,
            reads: self.spare_reads,
            staged: self.spare_staged,
            sends: self.sends,
            direct: self.spare_direct,
            phase: self.spare_phase,
        };
        bufs.indices.clear();
        bufs.reads.clear();
        bufs.staged.clear();
        bufs.sends.clear();
        bufs
    }

    /// `phase`, boxed in the box the group parked in last.
    fn boxed(&mut self, phase: GroupPhase) -> Box<GroupPhase> {
        match self.spare_phase.take() {
            Some(mut b) => {
                *b = phase;
                b
            }
            None => Box::new(phase),
        }
    }

    /// The phase in `b`, keeping the box for the next park.
    fn unbox(&mut self, mut b: Box<GroupPhase>) -> GroupPhase {
        let phase = std::mem::replace(&mut *b, GroupPhase::Done);
        self.spare_phase = Some(b);
        phase
    }

    /// `op`, boxed in the box the group's last direct chain used.
    fn boxed_direct(&mut self, op: DirectOp) -> Box<DirectOp> {
        match self.spare_direct.take() {
            Some(mut b) => {
                *b = op;
                b
            }
            None => Box::new(op),
        }
    }
}

/// A call's groups: the first inline, the rest in a list, so a call on one
/// server allocates no list.
#[derive(Debug, Default)]
struct Groups {
    first: Option<GroupRun>,
    rest: Vec<GroupRun>,
}

impl Groups {
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut GroupRun> {
        self.first.iter_mut().chain(self.rest.iter_mut())
    }

    /// `server`'s group, made by `make` if the call has none yet; `servers`
    /// bounds how many groups the call can have.
    fn group(
        &mut self,
        server: u8,
        servers: usize,
        make: impl FnOnce() -> GroupRun,
    ) -> &mut GroupRun {
        match &self.first {
            None => return self.first.insert(make()),
            Some(run) if run.server == server => {
                return self.first.as_mut().expect("matched above")
            }
            Some(_) => {}
        }
        match self.rest.iter().position(|run| run.server == server) {
            Some(k) => &mut self.rest[k],
            None => {
                // Sized for the servers the call can reach: a group is
                // large, and growing the list one group at a time leaves
                // the allocator's fast path.
                self.rest.reserve(servers.saturating_sub(1).max(1));
                self.rest.push(make());
                self.rest.last_mut().expect("just pushed")
            }
        }
    }
}

/// This client's report ring on one server ([`ReportArea`]): the seq the
/// next slot is written with, and the server's consumed cursor as last
/// read. Every tenure (connect, reconnect) starts over, as the server
/// zeroes the id's area on accept.
#[derive(Debug, Clone, Copy)]
struct ReportLane {
    area: ReportArea,
    next: u64,
    consumed: u64,
}

impl ReportLane {
    fn new(cid: u32) -> Self {
        ReportLane {
            area: ReportArea::of(cid),
            next: 1,
            consumed: 0,
        }
    }

    /// Free slots by the last cursor read.
    fn room(&self) -> u64 {
        REPORT_SLOTS.saturating_sub((self.next - 1).saturating_sub(self.consumed))
    }
}

/// One server's report doorbell in flight ([`GengarClient::flush_reports`]).
struct ReportFlight {
    idx: usize,
    ops: PendingOps,
    /// The entries of each slot WRITE, in seq order from the lane's `next`.
    slots: Vec<Vec<AccessEntry>>,
}

/// Cache-line aligned, so where its hot fields fall does not move with the
/// size of the types it embeds: shrinking `Endpoint` by 16 bytes cut
/// `read_skew`'s throughput by a fifth until this alignment restored it.
#[derive(Debug)]
#[repr(align(64))]
struct ServerConn {
    /// The server-assigned client id of this tenure (see [`Handshake`]).
    cid: u32,
    mount: MountInfo,
    reports: ReportLane,
    /// What this client knows of the server's objects, one entry each.
    objects: Objects,
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
    /// Consecutive staged-write failures ([`ServerConn::degraded`]).
    staging_faults: u32,
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
    /// Degraded mode: staging has faulted `threshold` times in a row, so
    /// writes bypass the proxy and go straight to NVM. A staged success, a
    /// failover or a reconnect whose old tenure staged nothing (a degraded
    /// one's next) zeroes the count.
    fn degraded(&self, threshold: u32) -> bool {
        self.staging_faults >= threshold
    }

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
    server_index: FastMap<u8, usize>,
    /// Failed-over wards: dead primary id -> the replica now serving its
    /// objects (through the shadow region at unchanged offsets). The
    /// connection slot for the primary is rewired in place, so this map
    /// only gates the paths that must not treat the slot as the original
    /// machine (hotness reports, reconnects, re-mirroring).
    redirects: FastMap<u8, u8>,
    /// Pending hotness entries per server id.
    pending: FastMap<u8, FastMap<u64, (u32, bool)>>,
    ops_since_report: u32,
    /// Counter that amortises drained-watermark refreshes on the
    /// store-buffer read path.
    wb_checks: u32,
    /// Per-operation jitter salt (monotonic; deterministic per client).
    op_salt: u64,
    /// Buffers of finished groups, handed to the next call's groups.
    spare: Vec<GroupBufs>,
    /// The current call's per-op results; empty between calls, kept for
    /// its capacity.
    results: Vec<Option<Result<(), GengarError>>>,
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
        let mut server_index = FastMap::default();
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
            let salt = u64::from(node.id().0) << 32 | conns.len() as u64;
            let mut state = RetryState::start(&config, salt, Instant::now());
            let hs = loop {
                let result = Self::handshake(
                    server,
                    &node,
                    &pd,
                    &mr,
                    Arc::clone(&rpc_mr),
                    Some(&mut |need| match staging_scratch_off {
                        Some(off) => off,
                        None => {
                            let off = bump;
                            bump += need;
                            staging_scratch_off = Some(off);
                            off
                        }
                    }),
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
                cid: hs.cid,
                mount: hs.mount,
                reports: ReportLane::new(hs.cid),
                objects: Objects::default(),
                rpc: hs.rpc,
                data: hs.data,
                staging: hs.staging,
                rpc_mr,
                staging_scratch_off,
                staging_faults: 0,
                mirror_down_since: None,
                redirect_cid: None,
                window: OpWindow::new(config.window_depth, config.telemetry),
                op_buf: 0,
                op_buf_len: 0,
            });
        }

        // Remaining scratch: the op area, split evenly across the
        // connections so concurrent per-server flights gather and land in
        // disjoint lanes.
        let op_area = bump;
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
            redirects: FastMap::default(),
            pending: FastMap::default(),
            spare: Vec::new(),
            results: Vec::new(),
            ops_since_report: 0,
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
        let idx = self.idx(primary)?;
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
        let channel = srv.accept_mirror(&self.node, &self.pd, primary)?;
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

    /// Runs the accept + Mount handshake against `server`: the RPC client
    /// over `rpc_mr`, and the staging writer over the ring the accept
    /// assigned when the server mounts the proxy.
    ///
    /// `alloc_scratch` reserves scratch bytes for that writer: `connect`
    /// passes a bump allocator, `reconnect` returns the connection's
    /// existing reservation (the ring geometry is a server-config
    /// constant, so the size never changes across reconnects), and
    /// `failover`, which keeps its mirror-lane writer, passes `None`.
    fn handshake(
        server: &Arc<MemoryServer>,
        node: &Arc<RdmaNode>,
        pd: &ProtectionDomain,
        scratch_mr: &Arc<MemoryRegion>,
        rpc_mr: Arc<MemoryRegion>,
        alloc_scratch: Option<&mut dyn FnMut(u64) -> u64>,
        config: &ClientConfig,
    ) -> Result<Handshake, GengarError> {
        let channel = server.accept(node, pd)?;
        let cid = channel.cid;
        let rpc = RpcClient::with_deadline(channel.rpc, rpc_mr, config.op_deadline);
        let mount = rpc
            .call(&Request::Mount {
                tenant: config.tenant.clone(),
            })
            .and_then(|resp| match resp {
                Response::Mount(m) => Ok(m),
                Response::Err { code } => Err(error_for_code(code, 0)),
                _ => Err(GengarError::ProtocolViolation("bad mount response")),
            })
            // A handshake that dies after accept (e.g. its Mount RPC is
            // lost to a fault) never staged anything under this id, so hand
            // it straight back — otherwise every failed re-dial through a
            // partition would burn a slot of `max_clients` forever.
            .inspect_err(|_| server.release_client(cid))?;
        let staging = alloc_scratch.filter(|_| mount.enable_proxy).map(|alloc| {
            let layout = mount.ring_layout();
            // Slot gather area plus two watermark landing pads (primary
            // and mirror drained words).
            let scratch_off = alloc(layout.slot_bytes() + 16);
            StagingWriter::new(
                channel.proxy,
                RKey(mount.staging_rkey),
                RKey(mount.ctl_rkey),
                channel.ring_offset,
                layout,
                cid,
                Arc::clone(scratch_mr),
                scratch_off,
                config.telemetry,
            )
        });
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
    /// because it faulted repeatedly (cleared by the first reconnect made
    /// while degraded, or a failover).
    ///
    /// # Errors
    ///
    /// [`GengarError::UnknownServer`] for a server this client never
    /// mounted.
    pub fn is_degraded(&self, server: u8) -> Result<bool, GengarError> {
        Ok(self
            .conn(server)?
            .degraded(self.config.staging_fault_threshold))
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

    /// The index of `server`'s connection.
    fn idx(&self, server: u8) -> Result<usize, GengarError> {
        let idx = self.server_index.get(&server);
        idx.copied().ok_or(GengarError::UnknownServer(server))
    }

    fn conn(&self, server: u8) -> Result<&ServerConn, GengarError> {
        Ok(&self.conns[self.idx(server)?])
    }

    fn conn_mut(&mut self, server: u8) -> Result<&mut ServerConn, GengarError> {
        let idx = self.idx(server)?;
        Ok(&mut self.conns[idx])
    }

    /// Starts the recovery state for one operation, begun at `now`.
    fn retry_state(&mut self, now: Instant) -> RetryState {
        self.op_salt = self.op_salt.wrapping_add(1);
        RetryState::start(&self.config, self.op_salt, now)
    }

    /// The recovery policy, in exactly one place: decides what one failed
    /// attempt against `server` means. `Ok((resume_at, reconnect))` grants
    /// another attempt at `resume_at` (re-dialling the connection first if
    /// `reconnect`); `Err` is the error the operation fails with. The
    /// reactor parks the failed group until `resume_at`
    /// ([`GengarClient::end_attempt`]); `alloc`, the one blocking caller,
    /// waits it out ([`GengarClient::recover`]).
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

    /// [`GengarClient::recovery`] for `alloc`, a control-plane call that
    /// blocks: waits the backoff out and re-dials before returning for
    /// another attempt.
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
        let idx = self.idx(server)?;
        let srv = Arc::clone(&self.servers[idx]);
        let rpc_mr = Arc::clone(&self.conns[idx].rpc_mr);
        let scratch_off = self.conns[idx].staging_scratch_off;
        let old_cid = self.conns[idx].cid;
        // A ring that ever saw a record retires durably (`QueryDurable`);
        // a tenure without one holds nothing, and its id goes back to the
        // server's free list once the new tenure is up.
        let old_ring = self.conns[idx]
            .staging
            .as_ref()
            .filter(|st| st.has_posted())
            .map(|st| st.client_id());
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
            Some(&mut |_need| scratch_off.expect("proxy mount implies a scratch reservation")),
            &self.config,
        )?;

        // Ask the new connection how far the old ring durably drained, so
        // only genuinely un-drained staged writes are replayed. Nothing has
        // been staged under the new id yet, so if the query dies the fresh
        // id goes back on the server's free list with the handshake's work
        // abandoned.
        let durable = match old_ring {
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

        if old_ring.is_none() {
            srv.release_client(old_cid);
        }
        let conn = &mut self.conns[idx];
        conn.cid = hs.cid;
        conn.mount = hs.mount;
        conn.reports = ReportLane::new(hs.cid);
        conn.rpc = hs.rpc;
        conn.data = hs.data;
        conn.staging = hs.staging;
        // The fresh ring starts untagged; restamp the tenant tag so
        // post-reconnect staged records keep their drain accounting.
        if let (Some(state), Some(st)) = (self.tenant.as_ref(), conn.staging.as_mut()) {
            st.set_tenant_tag(state.tag());
        }
        // A staged failure kills the proxy QP and causes this reconnect:
        // its count survives it. A tenure that staged nothing failed for
        // another reason, and the fresh ring starts with a clean count.
        if old_ring.is_none() {
            conn.staging_faults = 0;
        }

        // The old tenure's mirror lane is orphaned: hand its ring id back
        // to the backup and dial a fresh lane, so the replayed records
        // below (and everything after) are mirrored again.
        if let Some((backup, mcid)) = old_mirror {
            if let Some(&bidx) = self.server_index.get(&backup) {
                self.servers[bidx].release_client(mcid);
            }
        }
        let _ = self.establish_mirror(server);

        // Stale views of this server die with the old connection: frames
        // the restarted server may have re-assigned, the old id's mailbox
        // and the records the old ring made durable. The rest replay
        // through the new ring in their original order. Records carry
        // whole values, so at-least-once replay converges to the
        // acknowledged state (exactly-once effect); the store buffer keeps
        // serving read-your-writes until the new ring drains them.
        let conn = &mut self.conns[idx];
        let mut staging = conn.staging.as_mut();
        conn.objects.reconnected(durable, |base, off, data| {
            // `enable_proxy` is fixed for a server's life, so the new
            // mount has a ring for what the old one staged.
            let st = staging
                .as_mut()
                .ok_or(GengarError::ProtocolViolation("staged writes but no proxy"))?;
            let target = GlobalAddr::from_raw(base)
                .ok_or(GengarError::ProtocolViolation("bad store-buffer address"))?;
            st.stage_write(target.add(off).raw(), data)
        })
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
        let idx = self.idx(server)?;
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
        let bidx = self.idx(backup)?;
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
        let hs = Self::handshake(
            &srv,
            &self.node,
            &self.pd,
            &self.mr,
            Arc::clone(&self.conns[idx].rpc_mr),
            None,
            &self.config,
        )?;
        // The previous redirected tenure's control/data id (if any) is
        // dead weight on the replica — nothing is ever staged under it, so
        // it is safe to hand back — and repeated hiccups of a promoted
        // ward must not bleed the replica's `max_clients` slots.
        if let Some(old) = self.conns[idx].redirect_cid.take() {
            srv.release_client(old);
        }
        self.conns[idx].redirect_cid = Some(hs.cid);
        let conn = &mut self.conns[idx];
        // The ward's addresses resolve through the replica's shadow
        // region from here on: same offsets, different rkey. The slot
        // keeps the ward's id so routing by address stays untouched, and
        // advertises no backup of its own (promoted data is re-mirrored
        // by the servers' rebalance plane, not by this client).
        conn.mount = MountInfo {
            server_id: server,
            nvm_rkey: hs.mount.shadow_rkey,
            backup: NO_BACKUP,
            ..hs.mount
        };
        conn.rpc = hs.rpc;
        conn.data = hs.data;
        conn.staging_faults = 0;
        match conn.staging.as_mut() {
            Some(st) if st.has_mirror() => st.fail_over_to_mirror()?,
            // No mirror lane survived (or the proxy was off): staged
            // writes cannot continue; the direct path takes over.
            _ => conn.staging = None,
        }
        // Stale views of the dead primary die with it. The store buffer
        // stays: the mirror ring carries its un-drained records, and the
        // watermark it serves retires them as the replica drains.
        conn.objects.drop_frames();
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
        let mut state = self.retry_state(Instant::now());
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
    /// failures. [`GengarError::LockContended`] while a client holds the
    /// object's lock and the server caches a frame of it past version 0:
    /// nothing is freed, and the free may be retried once the lock is
    /// released.
    pub fn free(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        let base = ptr.addr.raw();
        let conn = self.conn_mut(ptr.addr.server())?;
        let reply = conn.rpc.call(&Request::Free { addr: base });
        if let Ok(Response::Err {
            code: err_code::LOCKED,
        }) = reply
        {
            return Err(GengarError::LockContended(ptr.addr));
        }
        conn.objects.remove(base);
        match reply? {
            Response::Ok => Ok(()),
            Response::Err { code } => Err(error_for_code(code, 0)),
            _ => Err(GengarError::ProtocolViolation("bad free response")),
        }
    }

    /// The word a READ or an atomic's prior value landed at scratch `off`.
    /// The scratch buffer is this client's own memory, read by the CPU:
    /// every read of it is a plain copy ([`MemRegion::copy_out`]).
    fn scratch_word(&self, off: u64) -> Result<u64, GengarError> {
        let mut w = [0u8; 8];
        self.mr.region().copy_out(off, &mut w)?;
        Ok(u64::from_le_bytes(w))
    }

    /// Reads `buf.len()` bytes of the object at `ptr.addr + offset`.
    ///
    /// With caching enabled the read is served from the server's DRAM
    /// cache when a validated copy exists; stale or torn cached frames are
    /// detected (tag / head and tail version / stamp against the lock word)
    /// and fall back to NVM.
    ///
    /// Transient transport faults are absorbed: a lost request fails its
    /// queue pair like any error completion, and dead connections are
    /// re-established (including a re-mount and staged-write replay) and
    /// retried with backoff, all inside the configured per-operation
    /// deadline.
    ///
    /// # Errors
    ///
    /// Bounds violations, transport failures that outlive the operation
    /// deadline, or [`GengarError::ReadContended`] if a seqlock read keeps
    /// losing to writers.
    pub fn read(&mut self, ptr: GlobalPtr, offset: u64, buf: &mut [u8]) -> Result<(), GengarError> {
        // A scalar read is a batch of one: same planner, same reactor.
        self.run_one(BatchOp::Read {
            ptr,
            offset,
            buf,
            word: None,
        })
    }

    /// Step 1 of every read: the object's store-buffer record `wb`, which
    /// serves read-your-writes while the staged write may still be in
    /// flight. `Continue(true)`: it served the read into `buf`;
    /// `Continue(false)`: the ring drained it, so it retires and the read is
    /// planned like any other; `Break(seq)`: the read partly overlaps
    /// record `seq`, which must drain first. The drained watermark is
    /// refreshed lazily (one extra 8-byte READ every 16 queries) so records
    /// retire shortly after the proxy drains them without taxing every
    /// read. Idempotent, so a replayed attempt can re-run it.
    fn store_buffer(
        staging: Option<&mut StagingWriter>,
        wb: &WriteBack,
        checks: &mut u32,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<ControlFlow<u64, bool>, GengarError> {
        let covers = offset >= wb.off && offset + buf.len() as u64 <= wb.off + wb.data.len() as u64;
        *checks = checks.wrapping_add(1);
        let refresh = checks.is_multiple_of(16) || !covers;
        let drained = match staging {
            Some(st) => {
                if st.known_drained() < wb.seq && refresh {
                    st.refresh_drained()?;
                }
                st.known_drained() >= wb.seq
            }
            None => true,
        };
        Ok(match (drained, covers) {
            (true, _) => ControlFlow::Continue(false),
            (false, true) => {
                let start = (offset - wb.off) as usize;
                buf.copy_from_slice(&wb.data[start..start + buf.len()]);
                ControlFlow::Continue(true)
            }
            // Partial overlap with an in-flight write: wait it out.
            (false, false) => ControlFlow::Break(wb.seq),
        })
    }

    /// Judges the cache frame that read plan `p` landed in its lane, with
    /// the lock word behind it if the plan fetched one
    /// ([`plan::frame_verdict`]).
    fn check_frame(&self, p: &ReadPlan) -> Result<(FrameVerdict, Option<u64>), GengarError> {
        let mut hdr = [0u8; SLOT_HEADER as usize];
        self.mr.region().copy_out(p.lane, &mut hdr)?;
        let tail = self.scratch_word(p.lane + SLOT_HEADER + p.ptr.size)?;
        let word = match p.kind.word() {
            true => Some(self.scratch_word(p.lane + p.frame_len())?),
            false => None,
        };
        let hdr = decode_slot_header(&hdr);
        Ok((plan::frame_verdict(&hdr, p.ptr, tail, word), word))
    }

    /// Writes `data` at `ptr.addr + offset`.
    ///
    /// Under `Consistency::Seqlock` the write locks the object (unless
    /// already held), WRITEs NVM with an RDMA FLUSH under its last doorbell
    /// (the object's first lock flushes by RPC instead, invalidating its
    /// cached frames) and unlocks. Under `Consistency::None` it takes the
    /// proxy fast path when the payload fits a staging slot, else WRITEs
    /// and flushes by RPC. Faults are absorbed like in
    /// [`GengarClient::read`]; after `staging_fault_threshold` consecutive
    /// staged-write failures a connection is *degraded* and writes go
    /// direct until a reconnect made while degraded (which no staged write
    /// caused) hands it a fresh ring.
    ///
    /// # Errors
    ///
    /// Bounds violations, lock contention, transport failures that outlive
    /// the operation deadline.
    pub fn write(&mut self, ptr: GlobalPtr, offset: u64, data: &[u8]) -> Result<(), GengarError> {
        // A scalar write is a batch of one: same planner, same reactor.
        self.run_one(BatchOp::Write { ptr, offset, data })
    }

    /// Decodes the answer to a `FlushRange` of `len` bytes.
    fn flush_ack(resp: Response, len: u64) -> Result<(), GengarError> {
        match resp {
            Response::Ok => Ok(()),
            Response::Err { code } => Err(error_for_code(code, len)),
            _ => Err(GengarError::ProtocolViolation("bad flush response")),
        }
    }

    /// Caps the store buffer: past 1024 records across the client,
    /// `server`'s drained ones retire.
    fn purge_write_back(&mut self, server: u8) -> Result<(), GengarError> {
        if self.conns.iter().map(|c| c.objects.staged()).sum::<usize>() < 1024 {
            return Ok(());
        }
        let conn = self.conn_mut(server)?;
        if let Some(st) = conn.staging.as_mut() {
            conn.objects.retire_staged(st.refresh_drained()?);
        }
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
        let mut ops: Vec<_> = ops
            .into_iter()
            .map(|(ptr, offset, buf)| BatchOp::Read {
                ptr,
                offset,
                buf,
                word: None,
            })
            .collect();
        self.run_batch(&mut ops)
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
        let mut ops: Vec<_> = ops
            .into_iter()
            .map(|(ptr, offset, data)| BatchOp::Write { ptr, offset, data })
            .collect();
        self.run_batch(&mut ops)
    }

    /// Runs a submitted batch ([`GengarClient::run_ops`]) and hands back
    /// its per-op results.
    pub(crate) fn run_batch(
        &mut self,
        ops: &mut [BatchOp<'_>],
    ) -> Result<BatchResult, GengarError> {
        let trace = self.run_ops(ops);
        let results = self.results.drain(..);
        Ok(BatchResult::new(
            results.map(|r| r.expect("every op resolved")).collect(),
            trace,
        ))
    }

    /// A scalar call: a batch of one, whose result needs no list.
    fn run_one(&mut self, op: BatchOp<'_>) -> Result<(), GengarError> {
        self.run_ops(&mut [op]);
        let result = self.results.pop().flatten();
        result.expect("every op resolved")
    }

    /// The issue path: runs a batch of operations to completion under the
    /// per-server recovery loops, leaving one result per op in
    /// `self.results`, and returns the batch's trace. Every scalar
    /// data-plane call passes a batch of one through here (`drain_all`: one
    /// drain per server). The result and group lists are the client's own,
    /// reused call after call.
    fn run_ops(&mut self, ops: &mut [BatchOp<'_>]) -> TraceId {
        // One trace per batch, rooted at the client-visible operation. The
        // root's context is installed on this thread, so every layer below
        // (window, staging, fabric, RPC encode) files under the same trace.
        let tracer = gengar_telemetry::Tracer::global();
        let mut root = tracer.root_span(match &*ops {
            [op] => op.span_name(),
            [BatchOp::Drain { .. }, ..] => "client.drain",
            _ => "client.batch",
        });
        root.set_detail(ops.len() as u64);
        let trace = root.trace_id().unwrap_or(gengar_telemetry::TraceId::NONE);
        let started = Instant::now();
        let mut results = std::mem::take(&mut self.results);
        results.clear();
        let (mut reads, mut writes) = (0, 0);
        for op in ops.iter() {
            let checked = op.range().map_or(Ok(()), |(ptr, offset, len)| {
                Self::check_access(ptr, offset, len)
            });
            match (&checked, op) {
                (Err(_), _) => {}
                (Ok(()), BatchOp::Read { .. }) => {
                    self.metrics.reads.inc();
                    reads += 1;
                }
                (Ok(()), BatchOp::Write { .. }) => {
                    self.metrics.writes.inc();
                    writes += 1;
                }
                (Ok(()), _) => {}
            }
            results.push(checked.err().map(Err));
        }

        // Group the pending ops by server, preserving submission order
        // within each group: a linear scan of the few groups, over buffers
        // earlier calls left behind. Each group runs under its own recovery
        // budget, so one dead server cannot starve the others.
        let mut runs = Groups::default();
        for (i, op) in ops.iter().enumerate() {
            if results[i].is_some() {
                continue;
            }
            let server = op.server();
            let run = runs.group(server, self.conns.len(), || {
                let state = self.retry_state(started);
                let bufs = self.spare.pop().unwrap_or_default();
                GroupRun::new(server, state, bufs)
            });
            run.indices.push(i);
        }

        // The completion-driven issue engine: every group is put in flight
        // at once and a single event loop steps whichever groups can make
        // progress, harvesting completions as they arrive out of order
        // across servers. A group that is backing off, reconnecting or
        // waiting on a stalled ring parks on its own wake instant and
        // never holds the others up.
        let root_ctx = (trace, root.span_id().unwrap_or(gengar_telemetry::SpanId(0)));
        for run in runs.iter_mut() {
            let _root = adopt(root_ctx.0, root_ctx.1);
            run.group_span = tracer.span("client.group");
            run.group_ctx = (
                run.group_span.trace_id().unwrap_or(TraceId::NONE),
                run.group_span.span_id().unwrap_or(SpanId(0)),
            );
            run.attempt_ctx = run.group_ctx;
            self.start_attempt(run, &results);
        }
        loop {
            let mut again = false;
            let mut next_wake: Option<Instant> = None;
            let mut all_done = true;
            for run in runs.iter_mut() {
                let (stepped, wake) = self.step_group(run, ops, &mut results, Duration::ZERO);
                let done = matches!(run.phase, GroupPhase::Done);
                match wake {
                    Some(at) => next_wake = Some(next_wake.map_or(at, |w| w.min(at))),
                    // Parked with no instant to wait for: look again now.
                    None => again |= stepped && !done,
                }
                all_done &= done;
            }
            if all_done {
                break;
            }
            // A group that just posted is not polled again before its
            // earliest ready instant: nothing else it waits on moves.
            if again {
                continue;
            }
            // Everyone is parked. An RPC response has no modelled arrival (it
            // comes when the server thread has run), so a group awaiting one
            // parks on its response CQ until the earliest other wake — or,
            // with none, its own patience: a short timed wait re-arms the
            // host timer going in and out, which doubled the wake-up latency
            // measured here. Never spin for it: the spinner sits on the core
            // the woken server thread needs. Short parks are spun out. The
            // clock is read only where a park length is needed.
            let awaits_rpc = runs.iter_mut().find(|run| {
                matches!(&run.phase, GroupPhase::Direct(w) if matches!(w.flight, Some(Flight::Rpc(_))))
            });
            match (awaits_rpc, next_wake) {
                // The earliest wake: a deferred completion, backoff expiry or ring poll.
                (None, Some(at)) => spin_until(at),
                (run, wake) => {
                    let now = Instant::now();
                    let park = wake.map_or(Duration::MAX, |at| at.saturating_duration_since(now));
                    match run {
                        Some(run) if park > Duration::from_nanos(SLEEP_THRESHOLD_NS) => {
                            self.step_group(run, ops, &mut results, park);
                        }
                        _ => spin_until(wake.unwrap_or(now + Duration::from_micros(10))),
                    }
                }
            }
        }
        let Groups { first, rest } = runs;
        let bufs = first.into_iter().chain(rest).map(GroupRun::into_bufs);
        self.spare.extend(bufs);
        self.report_if_due();

        // Whole-batch latency recorded once per op, mirroring the scalar
        // histograms' sample counts (the span there also covered retries).
        // With telemetry off the clock is not read.
        if self.metrics.read_ns.is_enabled() || self.metrics.write_ns.is_enabled() {
            let elapsed = started.elapsed().as_nanos() as u64;
            for _ in 0..reads {
                self.metrics.read_ns.record_ns(elapsed);
            }
            for _ in 0..writes {
                self.metrics.write_ns.record_ns(elapsed);
            }
        }
        self.results = results;
        trace
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
                    run.phase = run.unbox(next);
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
                GroupPhase::AwaitDrained {
                    target,
                    then,
                    next_poll,
                    sleep_us,
                    last_seen,
                    stall_deadline,
                    ring_full,
                } => {
                    let now = Instant::now();
                    if now < next_poll {
                        run.phase = GroupPhase::AwaitDrained {
                            target,
                            then,
                            next_poll,
                            sleep_us,
                            last_seen,
                            stall_deadline,
                            ring_full,
                        };
                        return (progressed, Some(next_poll));
                    }
                    let refreshed = {
                        let _ctx = adopt(run.attempt_ctx.0, run.attempt_ctx.1);
                        self.conn_mut(run.server)
                            .and_then(|conn| match conn.staging.as_mut() {
                                Some(st) => st.refresh_drained().inspect(|&drained| {
                                    if ring_full && drained < target {
                                        st.note_ring_full();
                                    }
                                }),
                                // No ring left (failed over to the direct
                                // path): nothing is left to drain either.
                                None => Ok(u64::MAX),
                            })
                    };
                    match refreshed {
                        Err(e) => self.end_attempt(run, e, results),
                        Ok(drained) if drained >= target => {
                            progressed = true;
                            run.phase = run.unbox(then);
                        }
                        // A watermark frozen past the attempt timeout means
                        // the drain is stuck: the attempt times out.
                        Ok(drained) if drained <= last_seen && now >= stall_deadline => {
                            self.end_attempt(run, GengarError::Rdma(RdmaError::Timeout), results)
                        }
                        Ok(drained) => {
                            // Watermark movement resets the stall clock.
                            let (last_seen, stall_deadline) = if drained > last_seen {
                                (drained, now + attempt_timeout(self.config.op_deadline))
                            } else {
                                (last_seen, stall_deadline)
                            };
                            let next_poll = now + Duration::from_micros(sleep_us);
                            run.phase = GroupPhase::AwaitDrained {
                                target,
                                then,
                                next_poll,
                                sleep_us: (sleep_us * 2).min(200),
                                last_seen,
                                stall_deadline,
                                ring_full: false,
                            };
                            return (progressed, Some(next_poll));
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
                        self.settle_reads(run, resume, plans, &pending, ops, results)
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

    /// The write half of an attempt pass, resumable at any op index. Each
    /// op goes where [`plan::route`] sends it: staged ops gather into a
    /// window posted under one doorbell ([`GengarClient::post_staged`]),
    /// which must settle before the next posts, so same-object writes land
    /// in submission order; the rest walk the direct chain
    /// ([`GengarClient::step_direct`]) one at a time, any planned window
    /// posted first as an ordering barrier. A drain barrier waits out the
    /// ring ([`GengarClient::step_drain`]). Posting parks the group; the
    /// walk resumes at `resume` once the flight settles.
    fn step_writes(
        &mut self,
        run: &mut GroupRun,
        cursor: usize,
        ops: &mut [BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
    ) -> Result<(), GengarError> {
        // Worked out at the first write: a group of reads walks straight
        // through to the read pass.
        let mut geometry = None;
        let tenant_cap = self
            .tenant
            .as_ref()
            .map_or(0, |t| t.spec().staged_bytes_cap);
        let consistency = self.config.consistency;
        let mut staged = std::mem::take(&mut run.spare_staged);
        let mut staged_bytes: u64 = 0;
        let mut cursor = cursor;
        while cursor < run.indices.len() {
            let i = run.indices[cursor];
            if results[i].is_some() {
                cursor += 1;
                continue;
            }
            let (ptr, offset, data_len) = match &ops[i] {
                BatchOp::Read { .. } => {
                    cursor += 1;
                    continue;
                }
                BatchOp::Drain { .. } => return self.step_drain(run, cursor, results),
                op => op.range().expect("only a drain touches no object"),
            };
            let (ring, window, slot_bytes, lanes) = match geometry {
                Some(g) => g,
                None => *geometry.insert(self.write_geometry(run.server)?),
            };
            let base = ptr.addr.raw();
            let fits_cap = self.tenant.as_ref().is_none_or(|t| t.staged_fits(data_len));
            match plan::route(ops[i].kind(), consistency, ring, data_len, fits_cap) {
                Route::Stage => {
                    let same_object = staged.iter().any(|p| p.base_raw == base);
                    if !plan::joins_staged(same_object, staged_bytes, data_len, tenant_cap) {
                        // Post what is planned and resume here, unadvanced.
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
                    if staged.len() == window {
                        return self.post_staged(run, cursor, staged, ops);
                    }
                }
                // Ordering barrier: planned records must land before this
                // direct write (same-object order; the chain also reuses
                // the scratch lanes). Resume here, unadvanced.
                Route::Direct(_) if !staged.is_empty() => {
                    return self.post_staged(run, cursor, staged, ops)
                }
                Route::Direct(why) => {
                    run.spare_staged = staged;
                    // Issue gate: a dry tenant bucket parks the group (no
                    // retry budget charged) and the walk resumes right here.
                    if let Some(tenant) = &self.tenant {
                        if let Err(wake) = tenant.issue_admit(1, data_len) {
                            let next = run.boxed(GroupPhase::Writes { cursor });
                            run.phase = GroupPhase::Throttle {
                                resume_at: wake,
                                next,
                            };
                            return Ok(());
                        }
                    }
                    return self.begin_direct(run, cursor, ops, results, why);
                }
            }
        }
        if staged.is_empty() {
            run.spare_staged = staged;
            run.phase = GroupPhase::Reads { cursor: 0 };
            Ok(())
        } else {
            // resume == len: the resumed write walk falls straight
            // through to the read pass.
            self.post_staged(run, run.indices.len(), staged, ops)
        }
    }

    /// The write walk's view of `server`'s connection: the ring the router
    /// sees, the staged window's cap, the slot stride and the first lane.
    fn write_geometry(&self, server: u8) -> Result<(Ring, usize, u64, u64), GengarError> {
        let conn = self.conn(server)?;
        let ring = conn.staging.as_ref().zip(conn.staging_scratch_off);
        let (window, slot_bytes, lanes) = ring.map_or((0, 0, conn.op_buf), |(st, own_lane)| {
            let (depth, slots) = (conn.window.depth() as usize, st.layout().slots as usize);
            let slot_bytes = st.layout().slot_bytes();
            let (cap, own) = plan::stage_window(depth, slots, conn.op_buf_len, slot_bytes);
            (cap, slot_bytes, if own { own_lane } else { conn.op_buf })
        });
        let ring = match ring {
            _ if conn.degraded(self.config.staging_fault_threshold) => Ring::Degraded,
            Some((st, _)) => Ring::Healthy {
                slot: st.max_payload(),
            },
            None => Ring::Absent,
        };
        Ok((ring, window, slot_bytes, lanes))
    }

    /// Settles the op at `cursor` of the write walk and moves past it.
    fn settle_op(
        run: &mut GroupRun,
        cursor: usize,
        results: &mut [Option<Result<(), GengarError>>],
        outcome: Result<(), GengarError>,
    ) {
        results[run.indices[cursor]] = Some(outcome);
        run.phase = GroupPhase::Writes { cursor: cursor + 1 };
    }

    /// Parks the group in [`GroupPhase::AwaitDrained`] until its ring's
    /// drained watermark reaches `target`, then enters `then`. `ring_full`
    /// marks a wait for ring room.
    fn await_drained(&self, run: &mut GroupRun, target: u64, then: GroupPhase, ring_full: bool) {
        let then = run.boxed(then);
        let now = Instant::now();
        let last_seen = self
            .conn(run.server)
            .ok()
            .and_then(|conn| conn.staging.as_ref())
            .map_or(0, StagingWriter::known_drained);
        run.phase = GroupPhase::AwaitDrained {
            target,
            then,
            next_poll: now,
            sleep_us: 5,
            last_seen,
            stall_deadline: now + attempt_timeout(self.config.op_deadline),
            ring_full,
        };
    }

    /// A drain barrier: waits until the server's ring has drained every
    /// record staged on it, then retires the server's store-buffer entries.
    fn step_drain(
        &mut self,
        run: &mut GroupRun,
        cursor: usize,
        results: &mut [Option<Result<(), GengarError>>],
    ) -> Result<(), GengarError> {
        let server = run.server;
        let undrained = self.conn(server)?.staging.as_ref().and_then(|st| {
            let last = st.next_seq() - 1;
            (st.known_drained() < last).then_some(last)
        });
        match undrained {
            // The wait re-enters the walk here, to find the ring drained.
            Some(last) => self.await_drained(run, last, GroupPhase::Writes { cursor }, false),
            None => {
                self.conn_mut(server)?.objects.retire_staged(u64::MAX);
                Self::settle_op(run, cursor, results, Ok(()));
            }
        }
        Ok(())
    }

    /// Opens the direct chain for the op at `cursor`, routed there for
    /// `why`, at the step [`plan::chain_start`] picks. Safe to re-run after
    /// a failed attempt: the chain rewrites the same bytes, and a lock that
    /// attempt took is still in the object's entry.
    fn begin_direct(
        &mut self,
        run: &mut GroupRun,
        cursor: usize,
        ops: &[BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
        why: Why,
    ) -> Result<(), GengarError> {
        let op = &ops[run.indices[cursor]];
        let base = op.range().expect("a chain runs on an object").0.addr.raw();
        match (why, &self.tenant) {
            (Why::Degraded, _) => self.metrics.degraded_ops.inc(),
            (Why::OverTenantCap, Some(tenant)) => tenant.note_staged_shed(),
            _ => {}
        }
        let idx = self.idx(run.server)?;
        let conn = &mut self.conns[idx];
        let entry = conn.objects.get(base);
        let (held, known) = entry.map_or((None, None), |st| (st.hold, st.word));
        // An older staged record for this object may still sit un-drained
        // in the server ring (e.g. the connection degraded between the two
        // writes). An op that changes bytes lets it land first: the drain
        // thread would otherwise replay the *older* value over it.
        let undrained = match op {
            BatchOp::Write { .. } | BatchOp::Atomic { .. } => entry
                .and_then(|st| st.staged.as_ref())
                .map(|wb| wb.seq)
                .filter(|&seq| {
                    conn.staging
                        .as_ref()
                        .is_some_and(|st| st.known_drained() < seq)
                }),
            _ => None,
        };
        let (start, hold) = plan::chain_start(op.kind(), self.config.consistency, held, known);
        if let Some(adopted) = hold.filter(|_| hold != held) {
            conn.objects.hold(base, adopted);
        }
        let step = match start {
            Start::Step(step) => step,
            Start::Settle(outcome) => {
                Self::settle_op(run, cursor, results, outcome);
                return Ok(());
            }
        };
        let chain = GroupPhase::Direct(run.boxed_direct(DirectOp {
            cursor,
            step,
            expected: known.unwrap_or(lockword::INIT),
            guess: step == DirectStep::Cas,
            ..Default::default()
        }));
        match undrained {
            Some(seq) => self.await_drained(run, seq, chain, false),
            None => run.phase = chain,
        }
        Ok(())
    }

    /// Advances a direct-chain op: harvests the step on the wire, applies
    /// its outcome, posts the next. The lock word, an atomic's prior value
    /// and the release word use the first 8 bytes of the group's op area,
    /// the payload chunks the rest (the group has no other flight open).
    /// `Break` parks the group (`None`: on the RPC response); `Continue`
    /// leaves the next phase in `run.phase`.
    fn step_direct(
        &mut self,
        run: &mut GroupRun,
        mut w: Box<DirectOp>,
        ops: &mut [BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
        park: Duration,
    ) -> Result<ControlFlow<Option<Instant>>, GengarError> {
        let i = run.indices[w.cursor];
        let (kind, consistency) = (ops[i].kind(), self.config.consistency);
        // An atomic flushes its word and writes no chunk.
        let (ptr, offset, len) = ops[i].range().expect("a chain runs on an object");
        let data: &[u8] = match &ops[i] {
            BatchOp::Write { data, .. } => data,
            _ => &[],
        };
        let base = ptr.addr.raw();
        let word_at = ptr.addr.offset() - OBJ_HEADER;
        let (mr_lkey, region) = (self.mr.lkey(), self.mr.region().clone());
        let idx = self.idx(run.server)?;
        let entry = self.conns[idx].objects.get(base);
        let mut held = entry.and_then(|st| st.hold);
        // A write whose payload and frame lanes (tail, odd version, head)
        // fit one doorbell can refresh the frame its remap names.
        let frame = entry
            .and_then(|st| st.frame)
            .and_then(|f| GlobalAddr::from_raw(f.slot))
            .filter(|slot| slot.class() == MemClass::DramCache)
            .filter(|_| kind == Op::Write && 8 + len + 32 <= self.conns[idx].op_buf_len);
        loop {
            let one_sided = plan::persist(kind, consistency, held) == Persist::Flush;
            let release = plan::releases(kind, consistency, held);
            let conn = &self.conns[idx];
            let (word_lane, data_lane) = (conn.op_buf, conn.op_buf + 8);
            let chunk = (data.len() as u64 - w.done).min(conn.op_buf_len - 8);
            // This step's doorbell finishes the payload and carries the FLUSH
            // (and behind it, fenced, the unlock of a lock the write took).
            let flushes = one_sided && w.done + chunk == data.len() as u64;
            let nvm = |off: u64| RemoteAddr::new(conn.nvm_rkey(), off);
            let dram = |off: u64| RemoteAddr::new(conn.cache_rkey(), off);
            let word_sge = Sge::new(mr_lkey, word_lane, 8);
            let lane = |off: u64, len: u64| Sge::new(mr_lkey, off, len);
            let write_to = |from: Sge, remote: RemoteAddr| SendOp::Write {
                payload: Payload::Sge(from),
                remote,
                imm: None,
            };
            let write = |from: Sge, to: u64| write_to(from, nvm(to));
            // The WRITE of the released lock word, from the word lane.
            let unlock = || -> Result<SendOp, GengarError> {
                let locked = held.expect("an unlock runs under a hold").word;
                region.copy_in(word_lane, &lockword::release(locked).to_le_bytes())?;
                Ok(write(word_sge, word_at))
            };
            match w.flight.take() {
                None => {
                    let op = match w.step {
                        DirectStep::ReadWord => SendOp::Read {
                            local: word_sge,
                            remote: nvm(word_at),
                        },
                        DirectStep::Cas => {
                            let cas = SendOp::CompareSwap {
                                local: word_sge,
                                remote: nvm(word_at),
                                expected: w.expected,
                                swap: lockword::locked(w.expected),
                            };
                            // The header READ starts once the CAS ends, so it
                            // sees the frame as the won lock holds it.
                            w.frame = frame.filter(|_| lockword::version(w.expected) != 0);
                            match w.frame {
                                None => cas,
                                Some(slot) => {
                                    let header = SendOp::Read {
                                        local: lane(data_lane, SLOT_HEADER),
                                        remote: dram(slot.offset()),
                                    };
                                    let posted = conn.data.post_fenced([cas, header])?;
                                    w.flight = Some(Flight::Verb(posted));
                                    continue;
                                }
                            }
                        }
                        DirectStep::Atomic => {
                            let remote = nvm(ptr.addr.offset() + offset);
                            match &ops[i] {
                                BatchOp::Atomic {
                                    verb: AtomicVerb::Cas { expected, new },
                                    ..
                                } => SendOp::CompareSwap {
                                    local: word_sge,
                                    remote,
                                    expected: *expected,
                                    swap: *new,
                                },
                                BatchOp::Atomic {
                                    verb: AtomicVerb::Faa { add },
                                    ..
                                } => SendOp::FetchAdd {
                                    local: word_sge,
                                    remote,
                                    add: *add,
                                },
                                _ => unreachable!("only an atomic posts its verb"),
                            }
                        }
                        DirectStep::Write if chunk == 0 && !one_sided => {
                            let addr = ptr.addr.add(offset).raw();
                            let call = conn.rpc.begin(&Request::FlushRange { addr, len });
                            w.flight = Some(Flight::Rpc(call));
                            continue;
                        }
                        DirectStep::Write => {
                            if chunk > 0 {
                                let from = w.done as usize;
                                region.copy_in(data_lane, &data[from..from + chunk as usize])?;
                                let to = ptr.addr.offset() + offset + w.done;
                                run.sends
                                    .push(write(Sge::new(mr_lkey, data_lane, chunk), to));
                            }
                            if flushes {
                                let remote = nvm(ptr.addr.offset() + offset);
                                run.sends.push(SendOp::Flush { remote, len });
                            }
                            // The frame refresh rides ahead of the fenced
                            // unlock: the tail behind the payload in the data
                            // lane, the odd version and the head after it.
                            if let Some((u, slot)) = w.update.zip(w.frame).filter(|_| flushes) {
                                let (tail, slot) = (data_lane + chunk, slot.offset());
                                region.copy_in(tail, &u.even.to_le_bytes())?;
                                region.copy_in(tail + 8, &u.odd.to_le_bytes())?;
                                region.copy_in(tail + 16, &u.even.to_le_bytes())?;
                                region.copy_in(tail + 24, &u.stamp.to_le_bytes())?;
                                let payload = slot + SLOT_HEADER + offset;
                                run.sends.push(write_to(lane(tail + 8, 8), dram(slot + 8)));
                                run.sends
                                    .push(write_to(lane(data_lane, chunk + 8), dram(payload)));
                                run.sends
                                    .push(write_to(lane(tail + 16, 16), dram(slot + 8)));
                            }
                            let posted = if flushes && release == Release::Fenced {
                                run.sends.push(unlock()?);
                                conn.data.post_fenced(run.sends.drain(..))?
                            } else {
                                conn.data.post_many(run.sends.drain(..))?
                            };
                            w.flight = Some(Flight::Verb(posted));
                            continue;
                        }
                        DirectStep::Unlock => unlock()?,
                    };
                    w.flight = Some(Flight::Verb(conn.data.post_many([op])?));
                }
                Some(Flight::Verb(mut pending)) => {
                    if !conn.data.poll_pending(&mut pending) {
                        let wake = conn.data.pending_done_wake(&pending);
                        w.flight = Some(Flight::Verb(pending));
                        run.phase = GroupPhase::Direct(w);
                        return Ok(ControlFlow::Break(wake));
                    }
                    if let Some(e) = pending.first_error() {
                        return Err(e.into());
                    }
                    match w.step {
                        DirectStep::ReadWord => {
                            let word = self.scratch_word(word_lane)?;
                            if let BatchOp::LockWord { word: out, .. } = &mut ops[i] {
                                **out = word;
                                self.conns[idx].objects.saw_word(base, word, true);
                                break;
                            }
                            w.expected = lockword::next_unlocked(word);
                            w.step = DirectStep::Cas;
                        }
                        DirectStep::Cas => {
                            let prev = self.scratch_word(word_lane)?;
                            if prev == w.expected {
                                // A write's lock is its own, released at the
                                // end of its chain; `lock`'s is the caller's.
                                let own = kind == Op::Write;
                                let hold = Hold {
                                    word: lockword::locked(prev),
                                    own,
                                };
                                self.conns[idx].objects.hold(base, hold);
                                held = Some(hold);
                                if w.frame.is_some() {
                                    let mut header = [0u8; SLOT_HEADER as usize];
                                    region.copy_out(data_lane, &mut header)?;
                                    let h = decode_slot_header(&header);
                                    w.update =
                                        plan::frame_update(Some(&h), ptr, hold.word, offset, len);
                                }
                                // Done, unless the op persists: a write, or
                                // the object's first lock (by RPC).
                                if plan::persist(kind, consistency, held) == Persist::None {
                                    break;
                                }
                                w.step = DirectStep::Write;
                                continue;
                            }
                            // Lost: the word the CAS returned is the next
                            // expectation, no second READ.
                            self.conns[idx].objects.saw_word(base, prev, true);
                            w.expected = lockword::next_unlocked(prev);
                            let limit = self.config.lock_retries;
                            match plan::lost_cas(std::mem::take(&mut w.guess), w.tries, limit) {
                                LostCas::Again => {}
                                LostCas::Park { tries } => {
                                    self.metrics.lock_retries.inc();
                                    w.tries = tries;
                                    let next = run.boxed(GroupPhase::Direct(w));
                                    run.phase = GroupPhase::Throttle {
                                        resume_at: Instant::now() + park_after(tries),
                                        next,
                                    };
                                    return Ok(ControlFlow::Continue(()));
                                }
                                LostCas::GiveUp => {
                                    self.metrics.lock_retries.inc();
                                    w.refused = Some(GengarError::LockContended(ptr.addr));
                                    break;
                                }
                            }
                        }
                        DirectStep::Atomic => {
                            // Kept in the op: a later attempt only flushes.
                            let prev = self.scratch_word(word_lane)?;
                            if let BatchOp::Atomic { prev: out, .. } = &mut ops[i] {
                                **out = Some(prev);
                            }
                            w.step = DirectStep::Write;
                        }
                        DirectStep::Write => {
                            w.done += chunk;
                            if flushes {
                                if release == Release::Fenced {
                                    self.conns[idx].objects.release(base);
                                }
                                break;
                            }
                        }
                        DirectStep::Unlock => {
                            self.conns[idx].objects.release(base);
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
                    w.refused = Self::flush_ack(resp, len).err();
                    // The server dropped the object's frame.
                    self.conns[idx].objects.drop_frame(base);
                    if release == Release::No {
                        break;
                    }
                    w.step = DirectStep::Unlock;
                }
            }
        }
        let outcome = w.refused.take().map_or(Ok(()), Err);
        if outcome.is_ok() && matches!(ops[i], BatchOp::Write { .. } | BatchOp::Atomic { .. }) {
            // The object changed under any staged copy, and under a cached
            // frame (a flush RPC dropped it): current if the write refreshed
            // it under its lock, else outdated until a later write or the
            // epoch refreshes it.
            self.conns[idx].objects.wrote(base, w.update.is_some());
            self.record(run.server, base, true);
            if kind == Op::Write {
                self.metrics.direct_writes.inc();
            }
        }
        Self::settle_op(run, w.cursor, results, outcome);
        run.spare_direct = Some(w);
        Ok(ControlFlow::Continue(()))
    }

    /// Routes a planned staged-write window: a ring without room for it by
    /// the writer's local view parks the group in `AwaitDrained` (whose
    /// first poll re-reads the watermark at once) and re-enters here; then
    /// the tenant's gates are charged and the window posts.
    fn post_staged(
        &mut self,
        run: &mut GroupRun,
        resume: usize,
        plans: Vec<StagedPlan>,
        ops: &[BatchOp<'_>],
    ) -> Result<(), GengarError> {
        let room_at = self
            .conn(run.server)?
            .staging
            .as_ref()
            .expect("planned on a staging ring")
            .drained_for_room(plans.len());
        if let Some(target) = room_at {
            self.await_drained(run, target, GroupPhase::PostWrites { resume, plans }, true);
            return Ok(());
        }
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
                let next = run.boxed(GroupPhase::PostWrites { resume, plans });
                run.phase = GroupPhase::Throttle {
                    resume_at: Instant::now() + Duration::from_micros(20),
                    next,
                };
                return Ok(());
            }
            // Token gate: weighted rate/bandwidth charge. A dry bucket
            // parks until its refill instant, handing the occupancy
            // reservation back (both gates re-run on wake).
            if let Err(wake) = tenant.issue_admit(plans.len() as u64, bytes) {
                tenant.release_staged(bytes);
                let next = run.boxed(GroupPhase::PostWrites { resume, plans });
                run.phase = GroupPhase::Throttle {
                    resume_at: wake,
                    next,
                };
                return Ok(());
            }
            run.staged_reserved += bytes;
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
        let items = plans.iter().map(|p| {
            let data: &[u8] = match &ops[p.idx] {
                BatchOp::Write { data, .. } => data,
                _ => unreachable!("planned from a write"),
            };
            (p.target_raw, data, p.lane)
        });
        let conn = self.conn_mut(run.server)?;
        match conn
            .staging
            .as_mut()
            .expect("planned on a staging ring")
            .stage_batch_begin(items)
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
        let landed = {
            let conn = self.conn_mut(run.server)?;
            conn.staging
                .as_mut()
                .expect("flight implies a staging ring")
                .stage_batch_finish(flight)
        };
        let idx = self.idx(run.server)?;
        let any_ok = landed.count > 0;
        for (i, p) in plans.iter().take(landed.count).enumerate() {
            let data: &[u8] = match &ops[p.idx] {
                BatchOp::Write { data, .. } => data,
                _ => unreachable!("planned from a write"),
            };
            let seq = landed.first + i as u64;
            self.conns[idx].objects.stage(p.base_raw, seq, p.off, data);
            self.metrics.staged_writes.inc();
            results[p.idx] = Some(Ok(()));
            self.record(run.server, p.base_raw, true);
        }
        let first_err = landed.failure;
        let mut plans = plans;
        plans.clear();
        run.spare_staged = plans;
        {
            let conn = &mut self.conns[idx];
            if any_ok {
                conn.staging_faults = 0;
            }
            if first_err.is_some() {
                conn.staging_faults += 1;
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

    /// The read half of an attempt pass, resumable at any op index. The
    /// store buffer serves a read or retires its entry; the rest take the
    /// shape [`plan::read_shape`] picks, packed into scratch lanes and
    /// posted in windows ([`GengarClient::post_reads`]) that park the
    /// group. A pass that plans nothing further closes the attempt.
    fn step_reads(
        &mut self,
        run: &mut GroupRun,
        cursor: usize,
        ops: &mut [BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
    ) -> Result<(), GengarError> {
        let idx = self.idx(run.server)?;
        let (depth, op_buf, op_buf_len) = {
            let conn = &self.conns[idx];
            (conn.window.depth() as usize, conn.op_buf, conn.op_buf_len)
        };
        let mut plans = std::mem::take(&mut run.spare_reads);
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
            let conn = &mut self.conns[idx];
            let entry = conn.objects.get(base);
            let (frame, held) = entry.map_or((None, false), |st| (st.frame, st.hold.is_some()));
            let staged = entry
                .and_then(|st| st.staged.as_deref())
                .filter(|_| !versioned);
            let step = staged.map(|wb| {
                Self::store_buffer(conn.staging.as_mut(), wb, &mut self.wb_checks, offset, buf)
            });
            match step.transpose()? {
                None => {}
                Some(ControlFlow::Continue(true)) => {
                    results[i] = Some(Ok(()));
                    self.metrics.writeback_hits.inc();
                    self.record(run.server, base, false);
                    cursor += 1;
                    continue;
                }
                Some(ControlFlow::Continue(false)) => conn.objects.drained(base),
                // The planned reads go first; the walk comes back here.
                Some(ControlFlow::Break(_)) if !plans.is_empty() => {
                    return self.post_reads(run, cursor, plans)
                }
                Some(ControlFlow::Break(seq)) => {
                    run.spare_reads = plans;
                    self.await_drained(run, seq, GroupPhase::Reads { cursor }, false);
                    return Ok(());
                }
            }
            let known = Known {
                versioned,
                len: buf_len,
                held,
                frame: frame.map(|f| f.slot),
                stale: frame.is_some_and(|f| conn.objects.outdated(f)),
            };
            let c = self.config.consistency;
            let (kind, reject) = plan::read_shape(c, ptr, op_buf_len, known);
            if reject {
                conn.objects.drop_frame(base);
                self.metrics.cache_rejects.inc();
            }
            let need = kind.lane(ptr.size, buf_len, op_buf_len);
            if !plan::joins_reads(wrs, kind.wrs(), depth, lane_off, need, op_buf_len) {
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
            run.spare_reads = plans;
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
        let sends = &mut run.sends;
        let (mut posted, mut bytes) = (0u64, 0u64);
        let depth = conn.window.depth() as usize;
        for p in &plans {
            // The lanes were packed when the reads were planned.
            if !plan::joins_reads(sends.len(), p.kind.wrs(), depth, 0, 0, 0) {
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
                // The word READ behind the frame's executes after it.
                ReadKind::Cached { slot, word } => {
                    read(0, p.frame_len(), cache_rkey, slot.offset());
                    if word {
                        read(p.frame_len(), 8, nvm_rkey, word_at);
                    }
                }
                ReadKind::Stamp => read(p.frame_len(), 8, nvm_rkey, word_at),
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
                sends.clear();
                let next = run.boxed(GroupPhase::PostReads { resume, plans });
                run.phase = GroupPhase::Throttle {
                    resume_at: wake,
                    next,
                };
                return Ok(());
            }
        }
        let pending = conn.window.post(&conn.data, sends.drain(..))?;
        run.phase = GroupPhase::ReadWait {
            resume,
            plans,
            pending,
        };
        Ok(())
    }

    /// Settles a completed read flight: copies every validated lane out
    /// and resolves per-op outcomes. A frame that did not serve re-plans
    /// in the same lane ([`plan::reread`]); a versioned read that did not
    /// validate starts over, up to `read_retries` times. Those, further
    /// chunks and unposted plans go round again; then the walk resumes at
    /// `resume`.
    fn settle_reads(
        &mut self,
        run: &mut GroupRun,
        resume: usize,
        plans: Vec<ReadPlan>,
        completions: &PendingOps,
        ops: &mut [BatchOp<'_>],
        results: &mut [Option<Result<(), GengarError>>],
    ) -> Result<(), GengarError> {
        let region = self.mr.region().clone();
        let idx = self.idx(run.server)?;
        let mut completions = completions.results();
        let mut first_err: Option<GengarError> = None;
        // What goes round again is compacted to the front of `plans`.
        let mut plans = plans;
        let mut again = 0;
        let mut park = Duration::ZERO;
        for k in 0..plans.len() {
            let mut p = plans[k];
            let mut keep = |p: ReadPlan| {
                plans[again] = p;
                again += 1;
            };
            let mut mine = completions.by_ref().take(p.kind.wrs());
            let Some(first) = mine.next() else {
                keep(p);
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
                ReadKind::Cached { .. } | ReadKind::Stamp => {
                    let (verdict, word) = self.check_frame(&p)?;
                    let rejected = matches!(
                        verdict,
                        FrameVerdict::Stale | FrameVerdict::Locked | FrameVerdict::Invalid
                    );
                    // Only a rejected frame or a fetched word changes the
                    // entry, and only a rejected frame's re-read depends
                    // on the hold: a frame that serves costs no lookup.
                    let held = (rejected || word.is_some())
                        && self.conns[idx].objects.judged(base, verdict, word);
                    if rejected {
                        self.metrics.cache_rejects.inc();
                    }
                    match plan::reread(verdict, self.config.consistency, held) {
                        None => {
                            region.copy_out(p.lane + SLOT_HEADER + p.offset, buf)?;
                            self.metrics.cache_hits.inc();
                        }
                        Some(kind) => {
                            p.kind = kind;
                            keep(p);
                            continue;
                        }
                    }
                }
                ReadKind::Plain | ReadKind::Versioned => {
                    let mut data_at = p.lane;
                    if let ReadKind::Versioned = p.kind {
                        let before = self.scratch_word(p.lane)?;
                        let after = self.scratch_word(p.lane + 8 + len)?;
                        let first = (p.done > 0).then_some(p.word);
                        if !plan::triple_stable(before, after, first) {
                            self.metrics.read_retries.inc();
                            (p.tries, p.done) = (p.tries + 1, 0);
                            if p.tries >= self.config.read_retries {
                                results[p.idx] = Some(Err(GengarError::ReadContended(p.ptr.addr)));
                            } else {
                                park = park.max(park_after(p.tries));
                                keep(p);
                            }
                            continue;
                        }
                        (p.word, data_at) = (before, p.lane + 8);
                        self.conns[idx].objects.saw_word(base, before, false);
                    }
                    let from = p.done as usize;
                    region.copy_out(data_at, &mut buf[from..from + len as usize])?;
                    p.done += len;
                    if p.done < p.len {
                        keep(p);
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
        plans.truncate(again);
        run.phase = if plans.is_empty() {
            run.spare_reads = plans;
            GroupPhase::Reads { cursor: resume }
        } else {
            GroupPhase::Throttle {
                resume_at: Instant::now() + park,
                next: run.boxed(GroupPhase::PostReads { resume, plans }),
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
        self.atomic(ptr, offset, AtomicVerb::Cas { expected, new })
    }

    /// Remote atomic fetch-and-add, returning the prior value.
    ///
    /// # Errors
    ///
    /// Bounds/alignment violations, transport failures that outlive the
    /// operation deadline.
    pub fn faa_u64(&mut self, ptr: GlobalPtr, offset: u64, add: u64) -> Result<u64, GengarError> {
        self.atomic(ptr, offset, AtomicVerb::Faa { add })
    }

    /// A remote atomic as a batch of one: the verb, then the flush RPC that
    /// anchors it durably (remote atomics mutate NVM without persistence)
    /// and drops any cached copy. The verb is only re-posted after a
    /// failure that provably preceded its execution (the fabric injects
    /// faults before the remote word is touched); once it completed, a
    /// retry re-sends the idempotent flush alone, so it never applies twice.
    fn atomic(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        verb: AtomicVerb,
    ) -> Result<u64, GengarError> {
        let mut prev = None;
        self.run_one(BatchOp::Atomic {
            ptr,
            offset,
            verb,
            prev: &mut prev,
        })?;
        Ok(prev.expect("a settled atomic has its prior value"))
    }

    /// Acquires the object's writer lock via remote CAS, by a write's own
    /// rule: expect the word this client last saw of the object unlocked
    /// (READ once when it saw none), then what each lost CAS returned.
    ///
    /// # Errors
    ///
    /// [`GengarError::LockContended`] after `lock_retries` failed attempts.
    pub fn lock(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        self.run_one(BatchOp::Lock { ptr })
    }

    /// Releases a lock held by this client, bumping the object version.
    /// The lock is forgotten only once the release landed, so a failed
    /// unlock can be retried.
    ///
    /// # Errors
    ///
    /// [`GengarError::ProtocolViolation`] if this client does not hold the
    /// lock.
    pub fn unlock(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        self.run_one(BatchOp::Unlock { ptr })
    }

    /// Reads the object's raw lock/version word (one 8-byte READ). Exposed
    /// for systems layered on Gengar that implement their own validation,
    /// e.g. client-side caches.
    ///
    /// # Errors
    ///
    /// Transport failures as [`GengarError::Rdma`].
    pub fn read_lock_word(&mut self, ptr: GlobalPtr) -> Result<u64, GengarError> {
        let mut word = 0;
        self.run_one(BatchOp::LockWord {
            ptr,
            word: &mut word,
        })?;
        Ok(word)
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
        self.run_one(BatchOp::Read {
            ptr,
            offset,
            buf,
            word: Some(&mut word),
        })?;
        Ok(word)
    }

    /// Records one access for the next hotness report.
    fn record(&mut self, server: u8, base_raw: u64, wrote: bool) {
        // A promoted ward serves from the replica's shadow region, which
        // has no cache plane of its own: reporting would make the replica
        // cache the ward's addresses against its *own* NVM. Skip it.
        if self.redirects.contains_key(&server) {
            return;
        }
        self.pend(
            server,
            AccessEntry {
                addr: base_raw,
                count: 1,
                wrote,
            },
        );
        self.ops_since_report += 1;
    }

    /// Merges `e` into `server`'s pending entries. At most one full report
    /// ring's worth of distinct addresses waits: past that a new address
    /// is dropped (hotness is a statistic), while the counts of pending
    /// addresses keep merging.
    fn pend(&mut self, server: u8, e: AccessEntry) {
        const PENDING_ENTRIES: usize = REPORT_SLOTS as usize * MAX_REPORT;
        let pending = self.pending.entry(server).or_default();
        if pending.len() >= PENDING_ENTRIES && !pending.contains_key(&e.addr) {
            return;
        }
        let entry = pending.entry(e.addr).or_insert((0, false));
        entry.0 = entry.0.saturating_add(e.count);
        entry.1 |= e.wrote;
    }

    /// Writes the hotness reports once `report_every` accesses are pending:
    /// behind a batch, never inside it (its groups own the op areas a
    /// report gathers in and the completion queues it polls), and
    /// best-effort (the ops it follows have settled; a dead connection is
    /// the next op's to recover).
    fn report_if_due(&mut self) {
        if self.ops_since_report >= self.config.report_every {
            let _ = self.flush_reports();
        }
    }

    /// Writes the pending hotness reports now and applies the remaps that
    /// came back. Per server it rings one doorbell: a WRITE of each slot
    /// the report ring has room for by the last cursor read, then one READ
    /// of the consumed cursor and the remap mailbox's header. A header
    /// announcing a new mailbox costs one more READ, of exactly that
    /// mailbox. Each round posts every server before it awaits any. What
    /// does not fit the ring, or what a throttled tenant may not send yet,
    /// stays pending for the next call; nothing waits for the ring. Called
    /// automatically every `report_every` accesses.
    ///
    /// # Errors
    ///
    /// Transport failures as [`GengarError::Rdma`].
    pub fn flush_reports(&mut self) -> Result<(), GengarError> {
        self.ops_since_report = 0;
        let mut first_err = None;
        let mut flights = Vec::new();
        for idx in 0..self.conns.len() {
            match self.post_report(idx) {
                Ok(flight) => flights.extend(flight),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let mut announced = Vec::new();
        for flight in flights {
            match self.settle_report(flight) {
                Ok(mailbox) => announced.extend(mailbox),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let mut fetches = Vec::new();
        for (idx, len) in announced {
            // A throttled tenant fetches it on a later flush: its seq stays new.
            if self
                .tenant
                .as_ref()
                .is_some_and(|t| t.issue_admit(1, len).is_err())
            {
                continue;
            }
            let conn = &self.conns[idx];
            let read = SendOp::Read {
                local: Sge::new(self.mr.lkey(), conn.op_buf, len),
                remote: RemoteAddr::new(RKey(conn.mount.report_rkey), conn.reports.area.mailbox()),
            };
            match conn.data.post_many(vec![read]) {
                Ok(ops) => fetches.push((idx, ops, len)),
                Err(e) => {
                    first_err.get_or_insert(e.into());
                }
            }
        }
        for (idx, ops, len) in fetches {
            if let Err(e) = self.apply_mailbox(idx, ops, len) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Bytes the cursor READ lands at the start of the op area: the cursor,
    /// then the mailbox header when the server caches.
    fn report_landing(conn: &ServerConn) -> u64 {
        8 + if conn.mount.enable_cache {
            MAILBOX_HEADER
        } else {
            0
        }
    }

    /// Posts connection `idx`'s report doorbell, if anything is pending for
    /// its server and the tenant's issue gate admits it. The op area is
    /// free between batches: the READ lands at its start and the slots are
    /// gathered behind it.
    fn post_report(&mut self, idx: usize) -> Result<Option<ReportFlight>, GengarError> {
        let conn = &self.conns[idx];
        let Some(pending) = self
            .pending
            .get_mut(&conn.mount.server_id)
            .filter(|p| !p.is_empty())
        else {
            return Ok(None);
        };
        let lane = conn.reports;
        let landing = Self::report_landing(conn);
        let gather = conn.op_buf + 8 + MAILBOX_HEADER;
        let fit = (conn.op_buf_len - 8 - MAILBOX_HEADER) / REPORT_SLOT_BYTES;
        let wanted = pending.len().div_ceil(MAX_REPORT) as u64;
        let n = lane.room().min(fit).min(wanted);
        if let Some(tenant) = &self.tenant {
            if tenant
                .issue_admit(n + 1, n * REPORT_SLOT_BYTES + landing)
                .is_err()
            {
                return Ok(None);
            }
        }
        let take = (n as usize * MAX_REPORT).min(pending.len());
        let addrs: Vec<u64> = pending.keys().take(take).copied().collect();
        let entries: Vec<AccessEntry> = addrs
            .into_iter()
            .map(|addr| {
                let (count, wrote) = pending.remove(&addr).expect("key just listed");
                AccessEntry { addr, count, wrote }
            })
            .collect();
        let slots: Vec<Vec<AccessEntry>> = entries.chunks(MAX_REPORT).map(<[_]>::to_vec).collect();
        let rkey = RKey(conn.mount.report_rkey);
        let (lkey, region) = (self.mr.lkey(), self.mr.region());
        let posted = (|| {
            let mut ops = Vec::with_capacity(slots.len() + 1);
            for (i, slot) in slots.iter().enumerate() {
                let seq = lane.next + i as u64;
                let bytes = encode_report(seq, slot);
                let at = gather + i as u64 * REPORT_SLOT_BYTES;
                region.copy_in(at, &bytes)?;
                ops.push(SendOp::Write {
                    payload: Payload::Sge(Sge::new(lkey, at, bytes.len() as u64)),
                    remote: RemoteAddr::new(rkey, lane.area.slot(seq)),
                    imm: None,
                });
            }
            ops.push(SendOp::Read {
                local: Sge::new(lkey, conn.op_buf, landing),
                remote: RemoteAddr::new(rkey, lane.area.cursor()),
            });
            Ok::<_, GengarError>(conn.data.post_many(ops)?)
        })();
        match posted {
            Ok(ops) => Ok(Some(ReportFlight { idx, ops, slots })),
            Err(e) => {
                // Nothing went out: the entries wait for the next flush.
                let server = conn.mount.server_id;
                for e in slots.into_iter().flatten() {
                    self.pend(server, e);
                }
                Err(e)
            }
        }
    }

    /// Waits out a report doorbell and settles it: the slots that landed
    /// advance the lane's seq (the WRITEs behind the first failed one go
    /// back to pending, to be rewritten under the same seqs) and the READ
    /// moves the lane's consumed cursor. Returns the connection and length
    /// of a mailbox whose header announces a new seq.
    fn settle_report(&mut self, flight: ReportFlight) -> Result<Option<(usize, u64)>, GengarError> {
        let idx = flight.idx;
        let mut results = self.conns[idx].data.wait(flight.ops);
        let read = results.pop().expect("the doorbell ends in the cursor READ");
        let landed = results.iter().take_while(|r| r.is_ok()).count();
        let server = self.conns[idx].mount.server_id;
        for e in flight.slots.into_iter().skip(landed).flatten() {
            self.pend(server, e);
        }
        self.conns[idx].reports.next += landed as u64;
        for _ in 0..landed {
            self.metrics.reports.inc();
        }
        if let Some(e) = results.into_iter().find_map(Result::err) {
            return Err(e.into());
        }
        read?;
        let conn = &mut self.conns[idx];
        let mut landing = vec![0u8; Self::report_landing(conn) as usize];
        self.mr.region().copy_out(conn.op_buf, &mut landing)?;
        conn.reports.consumed = u64::from_le_bytes(landing[..8].try_into().expect("8 bytes"));
        if landing.len() == 8 {
            return Ok(None);
        }
        let (seq, len) = mailbox_announced(&landing[8..]);
        Ok((seq > conn.objects.mailbox()).then_some((idx, len)))
    }

    /// Settles the READ of connection `idx`'s mailbox (`len` bytes): a
    /// mailbox whose seq is new sets the remap of every address it names,
    /// a zero location dropping it. A torn one is fetched again on the next
    /// flush, its seq still new.
    fn apply_mailbox(&mut self, idx: usize, ops: PendingOps, len: u64) -> Result<(), GengarError> {
        self.conns[idx]
            .data
            .wait(ops)
            .pop()
            .expect("one READ posted")?;
        let mut mailbox = vec![0u8; len as usize];
        self.mr
            .region()
            .copy_out(self.conns[idx].op_buf, &mut mailbox)?;
        let objects = &mut self.conns[idx].objects;
        // A new mailbox follows an epoch, which re-copied the frames its
        // folded reports marked written: its seq lapses the outdated marks.
        if let Some((seq, remaps)) = decode_remaps(&mailbox).filter(|(s, _)| *s > objects.mailbox())
        {
            objects.set_frames(seq, remaps);
        }
        Ok(())
    }

    /// Waits until every staged write this client issued has been drained
    /// to NVM (used by tests and durability-sensitive applications): one
    /// drain barrier per server, all of them in flight at once.
    ///
    /// Runs under the same recovery loop as the data operations: a stalled
    /// drain (dead server) is bounded by the per-operation deadline, and a
    /// reconnect replays the un-drained writes before waiting again.
    ///
    /// # Errors
    ///
    /// The first server's failure: transport failures that outlive the
    /// operation deadline, as [`GengarError::Rdma`].
    pub fn drain_all(&mut self) -> Result<(), GengarError> {
        let mut drains: Vec<_> = self
            .server_ids()
            .into_iter()
            .map(|server| BatchOp::Drain { server })
            .collect();
        self.run_ops(&mut drains);
        self.results
            .drain(..)
            .try_for_each(|r| r.expect("every op resolved"))
    }

    /// Number of remap entries (cache frames) currently known locally.
    pub fn remap_entries(&self) -> usize {
        self.conns.iter().map(|c| c.objects.frames()).sum()
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
