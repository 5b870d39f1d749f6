//! The fabric: node registry, link model and verb execution engine.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gengar_hybridmem::latency::scaled_duration;
use gengar_hybridmem::Limiter;
use gengar_telemetry::{TelemetryConfig, Tracer};
use parking_lot::RwLock;

use crate::cq::{CompletionQueue, Wc, WcOpcode, WcStatus};
use crate::error::RdmaError;
use crate::fault::{FaultDecision, FaultPlane};
use crate::hash::FastMap;
use crate::metrics::FabricMetrics;
use crate::mr::MemoryRegion;
use crate::node::RdmaNode;
use crate::qp::QueuePair;
use crate::types::{Access, NodeId, RemoteAddr};
use crate::wr::{Payload, SendOp, SendWr, Sge};

/// Occupies both NIC ports for one transfer's bytes starting no earlier
/// than `start` and returns the transfer's completion instant. The same
/// bytes flow through both ports concurrently (cut-through forwarding),
/// so the transfer's latency is the slower channel, not the sum — while
/// each port still stays busy for the full transfer time, so saturation
/// effects are preserved per node.
fn occupy_ports_at(a: &Limiter, b: &Limiter, bytes: u64, start: Instant) -> Instant {
    let da = a.reserve_at(bytes, start);
    let db = b.reserve_at(bytes, start);
    da.max(db).unwrap_or(start)
}

/// Largest inline payload a WQE carries.
const MAX_INLINE: usize = 220;

/// Transport retries an RC initiator makes before it gives a lost request
/// up (`retry_cnt`, 7 being the verbs maximum), each waiting one link
/// round trip.
const TRANSPORT_RETRIES: u64 = 7;

/// Admission verdict from a [`QosPolicy`] for one work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosVerdict {
    /// Let the WR execute.
    Admit,
    /// Lost on the wire, exactly as a [`FaultDecision::Drop`]: nothing
    /// reaches the responder, the WR completes with a transport error
    /// after the modelled retry time and its QP goes to error. A tenant
    /// that blasts past its burst budget pays a reconnect without
    /// occupying the shared NIC channels.
    Drop,
}

/// Per-source admission control consulted by the fabric for every WR that
/// survives fault injection. Implementations key on the posting node
/// (`src`): one client is exactly one fabric node, so a tenant registry
/// can map node ids to budgets without the fabric knowing about
/// tenants. Nodes the policy does not know (servers, unregistered
/// clients) must be admitted.
///
/// This is the *backstop* enforcement point: shaping by delaying WRs here
/// would push the shared FIFO port cursors into the future and tax every
/// bystander, so a well-behaved limiter paces at the issue path and only
/// grossly over-burst traffic ever reaches a `Drop` verdict.
pub trait QosPolicy: Send + Sync + std::fmt::Debug {
    /// Decides whether a `bytes`-long WR posted by `src` may enter the
    /// wire now.
    fn admit(&self, src: NodeId, bytes: u64) -> QosVerdict;
}

/// Timing parameters of the simulated network.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// One-way propagation + switching delay in nanoseconds.
    pub one_way_ns: u64,
    /// Initiator-side NIC processing per operation.
    pub nic_tx_ns: u64,
    /// Responder-side NIC processing per operation.
    pub nic_rx_ns: u64,
    /// NIC port bandwidth per node, bytes per second.
    pub nic_bw_bytes_per_sec: u64,
    /// Extra cost of remote atomics (PCIe round trip on the responder).
    pub atomic_extra_ns: u64,
    /// Whether the verbs layer records telemetry (per-verb counters,
    /// completion latency histograms) into the global registry.
    pub telemetry: TelemetryConfig,
    /// Optional fault-injection plane consulted for every posted verb.
    /// `None` (the default) costs a single branch on the hot path.
    pub faults: Option<Arc<FaultPlane>>,
    /// Optional per-source admission policy (multi-tenant QoS backstop)
    /// consulted for every WR that survives fault injection. `None` (the
    /// default) costs a single branch on the hot path.
    pub qos: Option<Arc<dyn QosPolicy>>,
}

impl FabricConfig {
    /// 100 Gb/s InfiniBand-class fabric: small one-sided READ completes in
    /// roughly 2 µs, matching ConnectX-5 era measurements.
    pub fn infiniband_100g() -> Self {
        FabricConfig {
            one_way_ns: 750,
            nic_tx_ns: 150,
            nic_rx_ns: 150,
            nic_bw_bytes_per_sec: 12_500_000_000,
            atomic_extra_ns: 100,
            telemetry: TelemetryConfig::default(),
            faults: None,
            qos: None,
        }
    }

    /// Zero-delay fabric for functional tests.
    pub fn instant() -> Self {
        FabricConfig {
            one_way_ns: 0,
            nic_tx_ns: 0,
            nic_rx_ns: 0,
            nic_bw_bytes_per_sec: u64::MAX,
            atomic_extra_ns: 0,
            telemetry: TelemetryConfig::default(),
            faults: None,
            qos: None,
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct LinkFault {
    partitioned: bool,
    extra_delay_ns: u64,
}

/// A WR's resolved local side: the inline bytes or the local MR range a
/// SEND or WRITE sends (one-sided DMA copies from the MR directly, with no
/// staging pass), or the local MR range a READ or an atomic lands in.
enum Gathered {
    Bytes(Vec<u8>),
    Mr(Arc<MemoryRegion>, u64, u64),
}

/// One validated WR of a doorbell, ready to execute.
type Prepared = (SendWr, WcOpcode, Option<Gathered>);

thread_local! {
    /// The list a doorbell validates into, kept per posting thread so a
    /// post allocates nothing once the thread has posted its widest list.
    static PREPARED: Cell<Vec<Prepared>> = const { Cell::new(Vec::new()) };
}

impl Gathered {
    fn len(&self) -> u64 {
        match self {
            Gathered::Bytes(b) => b.len() as u64,
            Gathered::Mr(_, _, len) => *len,
        }
    }

    /// The local MR a READ or an atomic lands in, resolved at post time.
    fn landing(&self) -> &MemoryRegion {
        match self {
            Gathered::Mr(mr, ..) => mr,
            Gathered::Bytes(_) => unreachable!("a landing side is always an MR"),
        }
    }

    /// Places the payload into `dst` at `offset` with one copy pass,
    /// charging the modelled device cost from the virtual-time `start`
    /// cursor and returning the completion instant.
    fn place_into_at(
        &self,
        dst: &gengar_hybridmem::MemRegion,
        offset: u64,
        start: Instant,
    ) -> Result<Instant, RdmaError> {
        Ok(match self {
            Gathered::Bytes(b) => dst.write_at(offset, b, start)?,
            Gathered::Mr(mr, src_off, len) => {
                dst.copy_from_at(offset, mr.region(), *src_off, *len, start)?
            }
        })
    }
}

/// The simulated RDMA network connecting [`RdmaNode`]s.
///
/// One-sided verbs are executed by the *initiating* thread directly against
/// the target node's memory (emulating NIC DMA). Execution is
/// *completion-driven*: posting performs the data movement immediately but
/// does not block — the configured latencies and bandwidth reservations
/// accumulate into a virtual-time cursor per doorbell, and each work
/// completion is queued with the instant it becomes harvestable
/// (`CompletionQueue::push_at`). One thread can therefore hold many
/// doorbells in flight across independent targets and genuinely overlap
/// their modelled wire time. Fault injection: links can be partitioned or
/// given extra delay, and requests can be lost; the RC state machine
/// reacts as real hardware does (error completions, QP to error state).
pub struct Fabric {
    config: FabricConfig,
    next_node: AtomicU32,
    nodes: RwLock<FastMap<NodeId, Arc<RdmaNode>>>,
    faults: RwLock<FastMap<(NodeId, NodeId), LinkFault>>,
    /// Set by the first partition or delay ever configured: until then a
    /// post skips the fault table and its lock. Stored (Release) after the
    /// table entry is written; a post that loads it set (Acquire) then
    /// reads the table under its lock.
    any_faults: AtomicBool,
    metrics: FabricMetrics,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("config", &self.config)
            .field("nodes", &self.nodes.read().len())
            .finish()
    }
}

fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new(config: FabricConfig) -> Arc<Self> {
        let metrics = FabricMetrics::new(config.telemetry);
        Arc::new(Fabric {
            config,
            next_node: AtomicU32::new(0),
            nodes: RwLock::new(FastMap::default()),
            faults: RwLock::new(FastMap::default()),
            any_faults: AtomicBool::new(false),
            metrics,
        })
    }

    /// The timing configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Attaches a new node and returns its context.
    pub fn add_node(self: &Arc<Self>) -> Arc<RdmaNode> {
        let id = NodeId(self.next_node.fetch_add(1, Ordering::Relaxed));
        let node = RdmaNode::new(
            id,
            Arc::downgrade(self),
            self.config.nic_bw_bytes_per_sec,
            self.metrics.clone(),
        );
        self.nodes.write().insert(id, Arc::clone(&node));
        node
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> Option<Arc<RdmaNode>> {
        self.nodes.read().get(&id).cloned()
    }

    /// Detaches a node (simulates machine failure). Peers talking to it
    /// observe transport errors.
    pub fn remove_node(&self, id: NodeId) -> Option<Arc<RdmaNode>> {
        self.nodes.write().remove(&id)
    }

    /// Partitions (or heals) the link between `a` and `b`.
    pub fn partition(&self, a: NodeId, b: NodeId, partitioned: bool) {
        self.set_link_fault(a, b, |f| f.partitioned = partitioned);
    }

    /// Adds fixed extra one-way delay on the link between `a` and `b`.
    pub fn set_extra_delay_ns(&self, a: NodeId, b: NodeId, delay_ns: u64) {
        self.set_link_fault(a, b, |f| f.extra_delay_ns = delay_ns);
    }

    /// Edits the fault entry of the link between `a` and `b`.
    fn set_link_fault(&self, a: NodeId, b: NodeId, edit: impl FnOnce(&mut LinkFault)) {
        edit(self.faults.write().entry(link_key(a, b)).or_default());
        self.any_faults.store(true, Ordering::Release);
    }

    fn fault(&self, a: NodeId, b: NodeId) -> LinkFault {
        if !self.any_faults.load(Ordering::Acquire) {
            return LinkFault::default();
        }
        self.faults
            .read()
            .get(&link_key(a, b))
            .copied()
            .unwrap_or_default()
    }

    /// Validates a remote access and returns the target MR.
    fn remote_mr(
        dst: &Arc<RdmaNode>,
        dst_pd: u32,
        raddr: RemoteAddr,
        len: u64,
        need: Access,
    ) -> Result<Arc<MemoryRegion>, WcStatus> {
        let mr = match dst.mr_by_key(raddr.rkey.0) {
            Some(mr) => mr,
            None => return Err(WcStatus::RemoteAccessError),
        };
        if mr.pd_id() != dst_pd
            || !mr.access().contains(need)
            || raddr
                .offset
                .checked_add(len)
                .is_none_or(|end| end > mr.len())
        {
            return Err(WcStatus::RemoteAccessError);
        }
        Ok(mr)
    }

    /// Resolves the local side of a payload/sge, failing fast on
    /// programming errors.
    fn local_mr(src: &Arc<RdmaNode>, qp_pd: u32, sge: Sge) -> Result<Arc<MemoryRegion>, RdmaError> {
        let mr = src
            .mr_by_key(sge.lkey.0)
            .ok_or(RdmaError::UnknownLKey(sge.lkey.0))?;
        if mr.pd_id() != qp_pd {
            return Err(RdmaError::UnknownLKey(sge.lkey.0));
        }
        if sge
            .offset
            .checked_add(sge.len)
            .is_none_or(|end| end > mr.len())
        {
            return Err(RdmaError::LocalAccessOutOfBounds {
                offset: sge.offset,
                len: sge.len,
                mr_len: mr.len(),
            });
        }
        Ok(mr)
    }

    fn gather_payload(
        src: &Arc<RdmaNode>,
        qp: &QueuePair,
        payload: &Payload,
    ) -> Result<Gathered, RdmaError> {
        match payload {
            Payload::Inline(bytes) => {
                if bytes.len() > MAX_INLINE {
                    return Err(RdmaError::InlineTooLarge {
                        len: bytes.len(),
                        max: MAX_INLINE,
                    });
                }
                Ok(Gathered::Bytes(bytes.clone()))
            }
            Payload::Sge(sge) => {
                let mr = Self::local_mr(src, qp.pd_id(), *sge)?;
                Ok(Gathered::Mr(mr, sge.offset, sge.len))
            }
        }
    }

    /// Pushes a work completion of `qp` onto `cq`, harvestable at `ready`,
    /// counting it (or the overflow) in the fabric metrics. Every CQ push
    /// goes through here, so CQs the application constructed directly are
    /// covered too. An overrun loses the completion and fails `qp`, as a
    /// CQ error does on hardware: a posted WR either completes or its QP
    /// is in error. A send CQ that one QP owns does not overrun here
    /// (`execute_batch` refuses a list it has no room for); a receive CQ,
    /// shared by a server's QPs, can.
    fn push_wc_at(&self, qp: &QueuePair, cq: &CompletionQueue, wc: Wc, ready: Instant) {
        if cq.push_at(wc, ready) {
            self.metrics.cq_completions.inc();
        } else {
            self.metrics.cq_overflows.inc();
            qp.fail(WcStatus::WrFlushed);
        }
    }

    /// Queues the sender-side completion for `wr`, harvestable at `ready`.
    /// The QP error transition (for failures) happens immediately at post
    /// time — matching how the initiator NIC sequences later WRs — while
    /// the error *completion* still surfaces at its modelled instant.
    fn complete_at(
        &self,
        qp: &Arc<QueuePair>,
        wr: &SendWr,
        status: WcStatus,
        opcode: WcOpcode,
        byte_len: u64,
        ready: Instant,
    ) {
        if status == WcStatus::Success {
            self.metrics.verb(opcode).bytes.add(byte_len);
        } else {
            self.metrics.error_completions.inc();
            qp.fail(status);
        }
        if wr.signaled || status != WcStatus::Success {
            Tracer::global().fine_event("rdma.cq_completion", wr.wr_id);
            self.push_wc_at(
                qp,
                qp.send_cq(),
                Wc {
                    wr_id: wr.wr_id,
                    status,
                    opcode,
                    byte_len,
                    imm: None,
                    qpn: qp.qpn(),
                },
                ready,
            );
        }
    }

    /// Posts a send-side work request. Called from
    /// [`QueuePair::post_send`]. A single post is a one-element doorbell
    /// batch, so serial and batched paths share one execution engine (and
    /// identical timing for a batch of one).
    pub(crate) fn execute(
        &self,
        src: &Arc<RdmaNode>,
        qp: &Arc<QueuePair>,
        wr: SendWr,
    ) -> Result<(), RdmaError> {
        self.execute_batch(src, qp, [wr]).map(drop)
    }

    /// Posts a list of send-side work requests as one doorbell batch.
    /// Called from [`QueuePair::post_send_list`]. Returns the doorbell
    /// instant without blocking: completions are queued with their
    /// modelled ready instants and harvested from the CQ as simulated time
    /// passes.
    ///
    /// The whole list is validated before anything executes: an `Err`
    /// means no WR touched the wire (the post is atomic). Timing follows
    /// a per-doorbell virtual-time model — the request wave pays
    /// `nic_tx_ns` per WR but propagation and responder processing
    /// (`one_way_ns + nic_rx_ns`) only once per doorbell. Each WR then
    /// runs its own occupancy chain *from the arrival instant*: the NIC
    /// ports and devices it crosses are FIFO serial channels, so WRs
    /// sharing a channel queue behind each other there while different
    /// stages overlap — WR `i+1`'s wire transfer proceeds while WR `i`
    /// is in the device, exactly the pipelining a deep doorbell buys on
    /// real hardware. Bandwidth saturation is still modelled per
    /// operation (every byte is charged to every port it crosses), and
    /// completions that involve the responder pay one more `one_way_ns`
    /// back. Failures follow RC ordering: the failing WR gets an error
    /// completion (moving the QP to the error state) and every later WR
    /// in the list is flushed with `WrFlushed`, ready no earlier than the
    /// error. A request lost on the wire (a fault-plane `drop` or a QoS
    /// `Drop`) is one such failure: nothing reaches the responder, and the
    /// initiator gives up after `TRANSPORT_RETRIES` link round trips
    /// with a `TransportError`. So every posted WR completes, or its QP is
    /// in error.
    ///
    /// Data movement (and ADR durability) happens at post time, slightly
    /// *before* the modelled completion instant — never after — so no
    /// caller can harvest a completion whose bytes have not landed.
    pub(crate) fn execute_batch<I>(
        &self,
        src: &Arc<RdmaNode>,
        qp: &Arc<QueuePair>,
        wrs: I,
    ) -> Result<Instant, RdmaError>
    where
        I: IntoIterator<Item = SendWr>,
        I::IntoIter: ExactSizeIterator,
    {
        let wrs = wrs.into_iter();
        if wrs.len() == 0 {
            return Ok(Instant::now());
        }
        // One-sided verbs run on the initiating thread, so the client's
        // trace context is visible right here: the whole post→doorbell→
        // completion chain nests under the caller's op span without any
        // WR struct changes.
        let tracer = Tracer::global();
        let mut post_span = tracer.span("rdma.post");
        post_span.set_detail(wrs.len() as u64);
        let (dst_id, dst_qpn) = qp.remote().ok_or(RdmaError::NotConnected)?;
        // Any WR of the list may complete (a failed or flushed one even
        // unsignaled), so its send CQ must hold them all before one runs:
        // an overrun would lose the completion of a WR that executed.
        let send_cq = qp.send_cq();
        if send_cq.len() + wrs.len() > send_cq.capacity() {
            return Err(RdmaError::SendQueueFull);
        }

        // Programming errors on the local side fail the whole post before
        // anything is on the wire.
        let mut prepared = PREPARED.take();
        prepared.clear();
        for wr in wrs {
            let sender_opcode = match &wr.op {
                SendOp::Send { .. } => WcOpcode::Send,
                SendOp::Write { .. } => WcOpcode::RdmaWrite,
                SendOp::Read { .. } => WcOpcode::RdmaRead,
                SendOp::CompareSwap { .. } => WcOpcode::CompSwap,
                SendOp::FetchAdd { .. } => WcOpcode::FetchAdd,
                SendOp::Flush { .. } => WcOpcode::Flush,
            };
            let local: Option<Gathered> = match &wr.op {
                SendOp::Send { payload, .. } | SendOp::Write { payload, .. } => {
                    Some(Self::gather_payload(src, qp, payload)?)
                }
                SendOp::Read { local, .. }
                | SendOp::CompareSwap { local, .. }
                | SendOp::FetchAdd { local, .. } => {
                    // Resolve the local landing MR now; data lands later.
                    let mr = Self::local_mr(src, qp.pd_id(), *local)?;
                    Some(Gathered::Mr(mr, local.offset, local.len))
                }
                SendOp::Flush { .. } => None,
            };
            prepared.push((wr, sender_opcode, local));
        }

        // One doorbell for the whole list.
        let n = prepared.len() as u64;
        self.metrics.doorbells.inc();
        self.metrics.batched_ops.add(n);
        self.metrics.doorbells_saved.add(n - 1);
        self.metrics.batch_size.record_ns(n);
        let mut doorbell_span = tracer.span("rdma.doorbell");
        doorbell_span.set_detail(n);

        let cfg = &self.config;
        let fault = self.fault(src.id(), dst_id);
        let target = match self.node(dst_id) {
            Some(d) if !fault.partitioned => d.qp(dst_qpn).map(|q| (d, q)),
            _ => None,
        };

        // The arrival cursor: when this doorbell's request wave reaches
        // the responder. Every WQE pays initiator NIC processing; the
        // wire and responder costs are amortised over the doorbell. Each
        // WR's occupancy chain starts here (fault delays push it back),
        // so WRs pipeline through the shared channels instead of
        // serialising end-to-end.
        let posted = Instant::now();
        let mut cursor = posted;
        if target.is_some() {
            cursor += scaled_duration(
                cfg.nic_tx_ns * n + cfg.one_way_ns + fault.extra_delay_ns + cfg.nic_rx_ns,
            );
        }
        // Outcomes the initiator learns from the responder surface one
        // response hop later than the op finishes there.
        let resp_delay = scaled_duration(cfg.one_way_ns + fault.extra_delay_ns);
        // How long the initiator retransmits a lost request before its
        // error completion: zero on an instant fabric.
        let retry_time =
            scaled_duration(TRANSPORT_RETRIES * 2 * (cfg.one_way_ns + fault.extra_delay_ns));

        for (wr, sender_opcode, local) in prepared.drain(..) {
            let mut wr_span = tracer.fine_span("rdma.wr");
            wr_span.set_detail(wr.wr_id);
            // Past the programming-error checks the verb is on the wire:
            // count it and time it to completion (errors included).
            let verb = self.metrics.verb(sender_opcode);
            verb.ops.inc();
            // A WR behind a failed one never executes: flush it.
            if qp.state() == crate::qp::QpState::Error {
                tracer.event("fault.flushed", wr.wr_id);
                self.complete_at(qp, &wr, WcStatus::WrFlushed, sender_opcode, 0, cursor);
                verb.lat_ns.record_ns((cursor - posted).as_nanos() as u64);
                continue;
            }
            // Fault decisions are drawn per WR in submission order, so a
            // seeded chaos schedule consumes the same RNG stream whether
            // the ops were posted one at a time or as a batch.
            let mut lost = false;
            if let Some(plane) = cfg.faults.as_ref() {
                let with_imm = matches!(&wr.op, SendOp::Write { imm: Some(_), .. });
                match plane.decide(src.id(), dst_id, sender_opcode, with_imm) {
                    FaultDecision::Proceed => {}
                    FaultDecision::Delay(ns) => {
                        tracer.event("fault.delay", ns);
                        cursor += scaled_duration(ns);
                    }
                    FaultDecision::Error(status) => {
                        tracer.event("fault.err", wr.wr_id);
                        self.complete_at(qp, &wr, status, sender_opcode, 0, cursor);
                        verb.lat_ns.record_ns((cursor - posted).as_nanos() as u64);
                        continue;
                    }
                    FaultDecision::Drop => {
                        tracer.event("fault.drop", wr.wr_id);
                        lost = true;
                    }
                }
            }
            // QoS admission runs *after* the fault draw so the seeded
            // fault RNG stream stays identical whether or not a tenant
            // policy is installed (budget state is wall-clock
            // dependent and would otherwise perturb chaos schedules).
            if let Some(qos) = cfg.qos.as_ref().filter(|_| !lost) {
                let bytes = match (&wr.op, &local) {
                    (SendOp::Read { local, .. }, _) => local.len,
                    (SendOp::Flush { .. }, _) => 0,
                    (SendOp::CompareSwap { .. } | SendOp::FetchAdd { .. }, _) => 8, // one word
                    (_, Some(p)) => p.len(),
                    _ => 0,
                };
                if qos.admit(src.id(), bytes) == QosVerdict::Drop {
                    tracer.event("qos.drop", wr.wr_id);
                    self.metrics.qos_dropped.inc();
                    lost = true;
                }
            }
            // A lost request: nothing is placed, no responder state
            // changes and a SEND consumes no receive. The initiator
            // retransmits until its retries run out, then the WR fails
            // the QP; the WRs behind it flush no earlier.
            if lost {
                cursor += retry_time;
                self.complete_at(qp, &wr, WcStatus::TransportError, sender_opcode, 0, cursor);
                verb.lat_ns.record_ns((cursor - posted).as_nanos() as u64);
                continue;
            }
            let pair = match &target {
                Some(pair) => pair,
                None => {
                    // Transport retry exceeded: error completion, QP to
                    // error (the rest of the list flushes above).
                    self.complete_at(qp, &wr, WcStatus::TransportError, sender_opcode, 0, cursor);
                    verb.lat_ns.record_ns((cursor - posted).as_nanos() as u64);
                    continue;
                }
            };
            let end =
                self.execute_one_at(src, qp, &wr, sender_opcode, local, pair, cursor, resp_delay)?;
            verb.lat_ns
                .record_ns((end + resp_delay - posted).as_nanos() as u64);
        }
        PREPARED.set(prepared);
        Ok(posted)
    }

    /// The per-verb body of one WR within a doorbell batch: bandwidth
    /// occupancy, the data movement itself, receive-side delivery and the
    /// sender completion. Request propagation is paid by the caller once
    /// per batch; `local` is the WR's local side as resolved at post time.
    /// Outcomes the responder decides (success and
    /// responder-side errors) ready one `resp_delay` after the op's
    /// chain end. The chain starts at `start` (the doorbell's arrival
    /// instant) — shared-channel serialisation comes from the FIFO
    /// serial channels, not from chaining WRs end-to-end, so a doorbell's
    /// WRs pipeline. Returns the instant this WR's occupancy ends.
    #[allow(clippy::too_many_arguments)]
    fn execute_one_at(
        &self,
        src: &Arc<RdmaNode>,
        qp: &Arc<QueuePair>,
        wr: &SendWr,
        sender_opcode: WcOpcode,
        local: Option<Gathered>,
        target: &(Arc<RdmaNode>, Arc<QueuePair>),
        start: Instant,
        resp_delay: std::time::Duration,
    ) -> Result<Instant, RdmaError> {
        let mut cursor = start;
        let cursor = &mut cursor;
        let (dst, dst_qp) = target;
        let cfg = &self.config;
        match &wr.op {
            SendOp::Write { remote, imm, .. } => {
                let (remote, imm) = (*remote, *imm);
                let data = local.expect("write has payload");
                let len = data.len();
                *cursor = occupy_ports_at(src.nic_bw(), dst.nic_bw(), len, *cursor);
                let mr =
                    match Self::remote_mr(dst, dst_qp.pd_id(), remote, len, Access::REMOTE_WRITE) {
                        Ok(mr) => mr,
                        Err(status) => {
                            self.complete_at(
                                qp,
                                wr,
                                status,
                                sender_opcode,
                                0,
                                *cursor + resp_delay,
                            );
                            return Ok(*cursor);
                        }
                    };
                *cursor = data.place_into_at(mr.region(), remote.offset, *cursor)?;
                if let Some(imm) = imm {
                    // WRITE_WITH_IMM consumes a receive at the target.
                    match dst_qp.take_recv() {
                        Some(recv) => {
                            self.push_wc_at(
                                dst_qp,
                                dst_qp.recv_cq(),
                                Wc {
                                    wr_id: recv.wr_id,
                                    status: WcStatus::Success,
                                    opcode: WcOpcode::RecvRdmaWithImm,
                                    byte_len: len,
                                    imm: Some(imm),
                                    qpn: dst_qp.qpn(),
                                },
                                *cursor,
                            );
                        }
                        None => {
                            self.complete_at(
                                qp,
                                wr,
                                WcStatus::RnrRetryExceeded,
                                sender_opcode,
                                0,
                                *cursor + resp_delay,
                            );
                            return Ok(*cursor);
                        }
                    }
                }
                self.complete_at(
                    qp,
                    wr,
                    WcStatus::Success,
                    sender_opcode,
                    len,
                    *cursor + resp_delay,
                );
                Ok(*cursor)
            }
            SendOp::Read { local: sge, remote } => {
                let (sge, remote) = (*sge, *remote);
                let len = sge.len;
                let mr =
                    match Self::remote_mr(dst, dst_qp.pd_id(), remote, len, Access::REMOTE_READ) {
                        Ok(mr) => mr,
                        Err(status) => {
                            self.complete_at(
                                qp,
                                wr,
                                status,
                                sender_opcode,
                                0,
                                *cursor + resp_delay,
                            );
                            return Ok(*cursor);
                        }
                    };
                *cursor = occupy_ports_at(dst.nic_bw(), src.nic_bw(), len, *cursor);
                // Response data DMAs straight into the local MR.
                let landing = local.as_ref().expect("a READ lands locally").landing();
                *cursor = landing.region().copy_from_at(
                    sge.offset,
                    mr.region(),
                    remote.offset,
                    len,
                    *cursor,
                )?;
                self.complete_at(
                    qp,
                    wr,
                    WcStatus::Success,
                    sender_opcode,
                    len,
                    *cursor + resp_delay,
                );
                Ok(*cursor)
            }
            SendOp::Send { imm, .. } => {
                let imm = *imm;
                let data = local.expect("send has payload");
                let len = data.len();
                *cursor = occupy_ports_at(src.nic_bw(), dst.nic_bw(), len, *cursor);
                let recv = match dst_qp.take_recv() {
                    Some(r) => r,
                    None => {
                        self.complete_at(
                            qp,
                            wr,
                            WcStatus::RnrRetryExceeded,
                            sender_opcode,
                            0,
                            *cursor + resp_delay,
                        );
                        return Ok(*cursor);
                    }
                };
                // Scatter into the posted receive buffer on the target node.
                let scatter = dst.mr_by_key(recv.sge.lkey.0).filter(|mr| {
                    mr.pd_id() == dst_qp.pd_id()
                        && recv
                            .sge
                            .offset
                            .checked_add(len)
                            .is_some_and(|end| end <= mr.len())
                        && len <= recv.sge.len
                });
                let scatter = match scatter {
                    Some(mr) => mr,
                    None => {
                        // Receiver-side length/key error: both sides learn.
                        self.push_wc_at(
                            dst_qp,
                            dst_qp.recv_cq(),
                            Wc {
                                wr_id: recv.wr_id,
                                status: WcStatus::RemoteAccessError,
                                opcode: WcOpcode::Recv,
                                byte_len: 0,
                                imm: None,
                                qpn: dst_qp.qpn(),
                            },
                            *cursor,
                        );
                        dst_qp.fail(WcStatus::RemoteAccessError);
                        self.complete_at(
                            qp,
                            wr,
                            WcStatus::RemoteAccessError,
                            sender_opcode,
                            0,
                            *cursor + resp_delay,
                        );
                        return Ok(*cursor);
                    }
                };
                *cursor = data.place_into_at(scatter.region(), recv.sge.offset, *cursor)?;
                self.push_wc_at(
                    dst_qp,
                    dst_qp.recv_cq(),
                    Wc {
                        wr_id: recv.wr_id,
                        status: WcStatus::Success,
                        opcode: WcOpcode::Recv,
                        byte_len: len,
                        imm,
                        qpn: dst_qp.qpn(),
                    },
                    *cursor,
                );
                self.complete_at(
                    qp,
                    wr,
                    WcStatus::Success,
                    sender_opcode,
                    len,
                    *cursor + resp_delay,
                );
                Ok(*cursor)
            }
            SendOp::CompareSwap {
                local: sge,
                remote,
                expected,
                swap,
            } => {
                let (sge, remote, expected, swap) = (*sge, *remote, *expected, *swap);
                *cursor += scaled_duration(cfg.atomic_extra_ns);
                let mr =
                    match Self::remote_mr(dst, dst_qp.pd_id(), remote, 8, Access::REMOTE_ATOMIC) {
                        Ok(mr) => mr,
                        Err(status) => {
                            self.complete_at(
                                qp,
                                wr,
                                status,
                                sender_opcode,
                                0,
                                *cursor + resp_delay,
                            );
                            return Ok(*cursor);
                        }
                    };
                let prev = match mr
                    .region()
                    .cas_u64_at(remote.offset, expected, swap, *cursor)
                {
                    Ok((prev, end)) => {
                        *cursor = end;
                        prev
                    }
                    Err(_) => {
                        self.complete_at(
                            qp,
                            wr,
                            WcStatus::RemoteAccessError,
                            sender_opcode,
                            0,
                            *cursor + resp_delay,
                        );
                        return Ok(*cursor);
                    }
                };
                let landing = local.as_ref().expect("a CAS lands locally").landing();
                *cursor = landing
                    .region()
                    .write_at(sge.offset, &prev.to_le_bytes(), *cursor)?;
                self.complete_at(
                    qp,
                    wr,
                    WcStatus::Success,
                    sender_opcode,
                    8,
                    *cursor + resp_delay,
                );
                Ok(*cursor)
            }
            SendOp::FetchAdd {
                local: sge,
                remote,
                add,
            } => {
                let (sge, remote, add) = (*sge, *remote, *add);
                *cursor += scaled_duration(cfg.atomic_extra_ns);
                let mr =
                    match Self::remote_mr(dst, dst_qp.pd_id(), remote, 8, Access::REMOTE_ATOMIC) {
                        Ok(mr) => mr,
                        Err(status) => {
                            self.complete_at(
                                qp,
                                wr,
                                status,
                                sender_opcode,
                                0,
                                *cursor + resp_delay,
                            );
                            return Ok(*cursor);
                        }
                    };
                let prev = match mr.region().faa_u64_at(remote.offset, add, *cursor) {
                    Ok((prev, end)) => {
                        *cursor = end;
                        prev
                    }
                    Err(_) => {
                        self.complete_at(
                            qp,
                            wr,
                            WcStatus::RemoteAccessError,
                            sender_opcode,
                            0,
                            *cursor + resp_delay,
                        );
                        return Ok(*cursor);
                    }
                };
                let landing = local.as_ref().expect("an FAA lands locally").landing();
                *cursor = landing
                    .region()
                    .write_at(sge.offset, &prev.to_le_bytes(), *cursor)?;
                self.complete_at(
                    qp,
                    wr,
                    WcStatus::Success,
                    sender_opcode,
                    8,
                    *cursor + resp_delay,
                );
                Ok(*cursor)
            }
            SendOp::Flush { remote, len } => {
                let (remote, len) = (*remote, *len);
                // The responder persists the range behind the MR: one fenced
                // flush on the target device, no bytes on the wire.
                let flushed =
                    Self::remote_mr(dst, dst_qp.pd_id(), remote, len, Access::REMOTE_WRITE)
                        .and_then(|mr| {
                            mr.region()
                                .flush_at(&[(remote.offset, len)], *cursor)
                                .map_err(|_| WcStatus::RemoteAccessError)
                        });
                let status = match flushed {
                    Ok(end) => {
                        *cursor = end;
                        WcStatus::Success
                    }
                    Err(status) => status,
                };
                self.complete_at(qp, wr, status, sender_opcode, 0, *cursor + resp_delay);
                Ok(*cursor)
            }
        }
    }
}
