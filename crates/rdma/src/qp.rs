//! Reliable-connected queue pairs.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::cq::CompletionQueue;
use crate::error::RdmaError;
use crate::metrics::FabricMetrics;
use crate::node::RdmaNode;
use crate::types::{NodeId, Qpn};
use crate::wr::{RecvWr, SendWr};

/// Queue-pair state (condensed RC state machine: the INIT/RTR handshake is
/// folded into `connect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Freshly created; must be connected before use.
    Reset,
    /// Connected and able to post sends/receives.
    ReadyToSend,
    /// A transport or remote error occurred; all further posts fail.
    Error,
}

impl QpState {
    fn name(self) -> &'static str {
        match self {
            QpState::Reset => "RESET",
            QpState::ReadyToSend => "RTS",
            QpState::Error => "ERROR",
        }
    }
}

/// Tunable queue-pair attributes.
#[derive(Debug, Clone)]
pub struct QpOptions {
    /// Maximum number of posted, unconsumed receives.
    pub max_recv: usize,
    /// How long an incoming SEND waits for a receive to be posted before
    /// failing with RNR-retry-exceeded.
    pub rnr_timeout: Duration,
}

impl Default for QpOptions {
    fn default() -> Self {
        QpOptions {
            max_recv: 4096,
            rnr_timeout: Duration::from_millis(500),
        }
    }
}

#[derive(Debug, Default)]
struct RecvQueue {
    queue: VecDeque<RecvWr>,
}

/// A reliable-connected queue pair.
///
/// Work requests are executed synchronously inside [`QueuePair::post_send`]:
/// the posting thread emulates NIC + fabric + target device and the
/// completion is visible on the send CQ when `post_send` returns. This
/// collapses the asynchronous NIC pipeline of real hardware — per-operation
/// latency is modelled faithfully, while single-thread operation pipelining
/// is not (throughput experiments scale by thread count, as the Gengar
/// evaluation does).
#[derive(Debug)]
pub struct QueuePair {
    node: Weak<RdmaNode>,
    qpn: Qpn,
    pd_id: u32,
    opts: QpOptions,
    state: Mutex<QpState>,
    /// The completion status that moved the QP to error, for diagnostics
    /// ([`RdmaError::QpError`]). First writer wins; cleared by `reset`.
    last_error: Mutex<Option<crate::cq::WcStatus>>,
    remote: Mutex<Option<(NodeId, Qpn)>>,
    send_cq: Arc<CompletionQueue>,
    recv_cq: Arc<CompletionQueue>,
    recvs: Mutex<RecvQueue>,
    recv_posted: Condvar,
    metrics: FabricMetrics,
}

impl QueuePair {
    pub(crate) fn new(
        node: Weak<RdmaNode>,
        qpn: Qpn,
        pd_id: u32,
        send_cq: Arc<CompletionQueue>,
        recv_cq: Arc<CompletionQueue>,
        opts: QpOptions,
        metrics: FabricMetrics,
    ) -> Self {
        QueuePair {
            node,
            qpn,
            pd_id,
            opts,
            state: Mutex::new(QpState::Reset),
            last_error: Mutex::new(None),
            remote: Mutex::new(None),
            send_cq,
            recv_cq,
            recvs: Mutex::new(RecvQueue::default()),
            recv_posted: Condvar::new(),
            metrics,
        }
    }

    /// Queue-pair number.
    pub fn qpn(&self) -> Qpn {
        self.qpn
    }

    /// Protection domain this QP belongs to.
    pub fn pd_id(&self) -> u32 {
        self.pd_id
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        *self.state.lock()
    }

    /// The connected peer, if any.
    pub fn remote(&self) -> Option<(NodeId, Qpn)> {
        *self.remote.lock()
    }

    /// Send completion queue.
    pub fn send_cq(&self) -> &Arc<CompletionQueue> {
        &self.send_cq
    }

    /// Receive completion queue.
    pub fn recv_cq(&self) -> &Arc<CompletionQueue> {
        &self.recv_cq
    }

    /// QP attributes.
    pub fn options(&self) -> &QpOptions {
        &self.opts
    }

    /// Connects this QP to a remote peer (folds INIT→RTR→RTS).
    ///
    /// # Errors
    ///
    /// Returns [`RdmaError::InvalidQpState`] unless the QP is in RESET.
    pub fn connect(&self, remote_node: NodeId, remote_qpn: Qpn) -> Result<(), RdmaError> {
        let mut state = self.state.lock();
        if *state != QpState::Reset {
            return Err(RdmaError::InvalidQpState {
                state: state.name(),
                operation: "connect",
            });
        }
        // A node that has been detached from the fabric (machine death via
        // [`crate::Fabric::remove_node`]) can never be reached again:
        // refuse the connect with the definitive error instead of letting
        // every send discover the loss one TransportError at a time.
        // In-flight operations to a dying node still surface as transport
        // errors; only *new* connections get this certificate.
        if let Some(fabric) = self.node.upgrade().and_then(|n| n.fabric()) {
            if fabric.node(remote_node).is_none() {
                return Err(RdmaError::NodeNotFound(remote_node));
            }
        }
        *self.remote.lock() = Some((remote_node, remote_qpn));
        *state = QpState::ReadyToSend;
        Ok(())
    }

    /// Moves the QP to the error state (local fault or fabric decision).
    pub fn set_error(&self) {
        self.fail(crate::cq::WcStatus::WrFlushed);
    }

    /// Moves the QP to the error state, recording `status` as the cause.
    /// The first recorded status wins (later failures are flushes).
    pub fn fail(&self, status: crate::cq::WcStatus) {
        {
            let mut last = self.last_error.lock();
            if last.is_none() {
                *last = Some(status);
            }
        }
        *self.state.lock() = QpState::Error;
        // Wake anyone blocked waiting for receives so they observe the error.
        self.recv_posted.notify_all();
    }

    /// The completion status that moved the QP to error, if any.
    pub fn error_status(&self) -> Option<crate::cq::WcStatus> {
        *self.last_error.lock()
    }

    /// Resets an errored QP back to RESET so it can be reconnected
    /// (equivalent to cycling a real QP through RESET).
    pub fn reset(&self) {
        let mut state = self.state.lock();
        *self.remote.lock() = None;
        self.recvs.lock().queue.clear();
        *self.last_error.lock() = None;
        *state = QpState::Reset;
    }

    /// Posts a receive buffer.
    ///
    /// # Errors
    ///
    /// Returns [`RdmaError::RecvQueueFull`] if `max_recv` receives are
    /// already pending, or [`RdmaError::InvalidQpState`] on an errored QP.
    pub fn post_recv(&self, wr: RecvWr) -> Result<(), RdmaError> {
        let state = *self.state.lock();
        if state == QpState::Error {
            return Err(RdmaError::InvalidQpState {
                state: state.name(),
                operation: "post_recv",
            });
        }
        let mut recvs = self.recvs.lock();
        if recvs.queue.len() >= self.opts.max_recv {
            return Err(RdmaError::RecvQueueFull);
        }
        recvs.queue.push_back(wr);
        drop(recvs);
        self.metrics.recv_posted.inc();
        self.recv_posted.notify_all();
        Ok(())
    }

    /// Number of posted, unconsumed receives.
    pub fn posted_recvs(&self) -> usize {
        self.recvs.lock().queue.len()
    }

    /// Consumes one posted receive, blocking up to the RNR timeout.
    /// Returns `None` if the timeout expires or the QP errors out.
    pub(crate) fn take_recv(&self) -> Option<RecvWr> {
        let deadline = Instant::now() + self.opts.rnr_timeout;
        let mut recvs = self.recvs.lock();
        loop {
            if let Some(wr) = recvs.queue.pop_front() {
                return Some(wr);
            }
            if *self.state.lock() == QpState::Error {
                return None;
            }
            if self
                .recv_posted
                .wait_until(&mut recvs, deadline)
                .timed_out()
            {
                let wr = recvs.queue.pop_front();
                if wr.is_none() {
                    self.metrics.rnr_timeouts.inc();
                }
                return wr;
            }
        }
    }

    /// Posts a send-side work request and executes it to completion.
    ///
    /// On success the completion (if signalled) is already on the send CQ
    /// when this returns. Transport-level failures are reported as error
    /// completions, not as `Err` (see [`RdmaError`]).
    ///
    /// # Errors
    ///
    /// Fails fast with [`RdmaError`] for programming errors: QP not
    /// connected or errored, unknown lkey, sge out of bounds, inline
    /// payload too large.
    pub fn post_send(self: &Arc<Self>, wr: SendWr) -> Result<(), RdmaError> {
        {
            let state = *self.state.lock();
            if state != QpState::ReadyToSend {
                return Err(RdmaError::InvalidQpState {
                    state: state.name(),
                    operation: "post_send",
                });
            }
        }
        let node = self.node.upgrade().ok_or(RdmaError::NotConnected)?;
        let fabric = node.fabric().ok_or(RdmaError::NotConnected)?;
        fabric.execute(&node, self, wr)
    }

    /// Posts a list of send-side work requests with a single doorbell and
    /// executes them to completion, in order.
    ///
    /// The initiator NIC pays its per-WQE processing cost for every entry
    /// but wire propagation and responder processing are amortised over
    /// the list, so a batch of `n` small operations completes in far less
    /// than `n` serial round trips. Completions are delivered per WR on
    /// the send CQ with reliable-connection ordering: if a WR fails, later
    /// WRs in the list are flushed with `WrFlushed`.
    ///
    /// # Errors
    ///
    /// Fails fast with [`RdmaError`] for programming errors in *any* WR
    /// (unknown lkey, sge out of bounds, inline payload too large, QP not
    /// connected or errored); in that case no WR has executed.
    pub fn post_send_list(self: &Arc<Self>, wrs: Vec<SendWr>) -> Result<(), RdmaError> {
        {
            let state = *self.state.lock();
            if state != QpState::ReadyToSend {
                return Err(RdmaError::InvalidQpState {
                    state: state.name(),
                    operation: "post_send_list",
                });
            }
        }
        let node = self.node.upgrade().ok_or(RdmaError::NotConnected)?;
        let fabric = node.fabric().ok_or(RdmaError::NotConnected)?;
        fabric.execute_batch(&node, self, wrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};
    use crate::types::LKey;
    use crate::wr::Sge;

    fn setup() -> (Arc<Fabric>, Arc<RdmaNode>) {
        let fabric = Fabric::new(FabricConfig::instant());
        let node = fabric.add_node();
        (fabric, node)
    }

    fn make_qp(node: &Arc<RdmaNode>) -> Arc<QueuePair> {
        let pd = node.alloc_pd();
        let send_cq = Arc::new(CompletionQueue::new(16));
        let recv_cq = Arc::new(CompletionQueue::new(16));
        node.create_qp(&pd, send_cq, recv_cq, QpOptions::default())
    }

    #[test]
    fn fresh_qp_is_reset() {
        let (_f, node) = setup();
        let qp = make_qp(&node);
        assert_eq!(qp.state(), QpState::Reset);
        assert!(qp.remote().is_none());
    }

    #[test]
    fn connect_transitions_to_rts() {
        let (fabric, node) = setup();
        let peer = fabric.add_node();
        let qp = make_qp(&node);
        qp.connect(peer.id(), Qpn(3)).unwrap();
        assert_eq!(qp.state(), QpState::ReadyToSend);
        assert_eq!(qp.remote(), Some((peer.id(), Qpn(3))));
        // Double connect is rejected.
        assert!(qp.connect(peer.id(), Qpn(3)).is_err());
    }

    #[test]
    fn connect_to_removed_node_reports_node_not_found() {
        let (fabric, node) = setup();
        let peer = fabric.add_node();
        let dead = peer.id();
        fabric.remove_node(dead);
        let qp = make_qp(&node);
        assert_eq!(
            qp.connect(dead, Qpn(3)).unwrap_err(),
            RdmaError::NodeNotFound(dead)
        );
        // The QP is untouched and can still connect to a live peer.
        assert_eq!(qp.state(), QpState::Reset);
        let alive = fabric.add_node();
        qp.connect(alive.id(), Qpn(3)).unwrap();
    }

    #[test]
    fn reset_clears_connection() {
        let (fabric, node) = setup();
        let peer = fabric.add_node();
        let qp = make_qp(&node);
        qp.connect(peer.id(), Qpn(3)).unwrap();
        qp.set_error();
        assert_eq!(qp.state(), QpState::Error);
        qp.reset();
        assert_eq!(qp.state(), QpState::Reset);
        assert!(qp.remote().is_none());
        qp.connect(peer.id(), Qpn(1)).unwrap();
    }

    #[test]
    fn recv_queue_capacity_enforced() {
        let (_f, node) = setup();
        let pd = node.alloc_pd();
        let send_cq = Arc::new(CompletionQueue::new(16));
        let recv_cq = Arc::new(CompletionQueue::new(16));
        let opts = QpOptions {
            max_recv: 2,
            ..Default::default()
        };
        let qp = node.create_qp(&pd, send_cq, recv_cq, opts);
        let sge = Sge::new(LKey(1), 0, 8);
        qp.post_recv(RecvWr::new(1, sge)).unwrap();
        qp.post_recv(RecvWr::new(2, sge)).unwrap();
        assert_eq!(
            qp.post_recv(RecvWr::new(3, sge)).unwrap_err(),
            RdmaError::RecvQueueFull
        );
        assert_eq!(qp.posted_recvs(), 2);
    }

    #[test]
    fn take_recv_times_out() {
        let (_f, node) = setup();
        let pd = node.alloc_pd();
        let send_cq = Arc::new(CompletionQueue::new(16));
        let recv_cq = Arc::new(CompletionQueue::new(16));
        let opts = QpOptions {
            rnr_timeout: Duration::from_millis(10),
            ..Default::default()
        };
        let qp = node.create_qp(&pd, send_cq, recv_cq, opts);
        let t0 = Instant::now();
        assert!(qp.take_recv().is_none());
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn post_send_requires_rts() {
        let (_f, node) = setup();
        let qp = make_qp(&node);
        let wr = SendWr::new(
            1,
            crate::wr::SendOp::Send {
                payload: crate::wr::Payload::Inline(vec![1]),
                imm: None,
            },
        );
        assert!(matches!(
            qp.post_send(wr),
            Err(RdmaError::InvalidQpState { .. })
        ));
    }
}
