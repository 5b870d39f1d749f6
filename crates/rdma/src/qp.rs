//! Reliable-connected queue pairs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::cq::CompletionQueue;
use crate::error::RdmaError;
use crate::fabric::Route;
use crate::metrics::FabricMetrics;
use crate::node::RdmaNode;
use crate::types::{NodeId, Qpn};
use crate::wr::{RecvWr, SendWr};

/// Queue-pair state (condensed RC state machine: the INIT/RTR handshake is
/// folded into `connect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
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

    fn from_u8(v: u8) -> QpState {
        match v {
            0 => QpState::Reset,
            1 => QpState::ReadyToSend,
            _ => QpState::Error,
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
    /// Threads parked in `take_recv`; a post notifies only while this is
    /// non-zero (both sides read and write it under the queue's mutex).
    waiters: usize,
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
    /// A [`QpState`], read by every post without a lock. Connect and reset
    /// change it under `remote`'s mutex.
    state: AtomicU8,
    /// Counts the QP's connects: a route resolved for an earlier one is
    /// stale.
    conn: AtomicU32,
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
            state: AtomicU8::new(QpState::Reset as u8),
            conn: AtomicU32::new(0),
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
        QpState::from_u8(self.state.load(Ordering::Acquire))
    }

    fn set_state(&self, state: QpState) {
        self.state.store(state as u8, Ordering::Release);
    }

    /// The current connection: its number (see [`Route`]) and the peer.
    pub(crate) fn connection(&self) -> Option<(u32, (NodeId, Qpn))> {
        let remote = self.remote.lock();
        remote.map(|peer| (self.conn.load(Ordering::Acquire), peer))
    }

    /// Whether a route resolved for connection `conn` still serves.
    pub(crate) fn is_connection(&self, conn: u32) -> bool {
        self.conn.load(Ordering::Acquire) == conn
    }

    /// Refuses a post unless the QP is ready to send.
    pub(crate) fn check_ready(&self, operation: &'static str) -> Result<(), RdmaError> {
        match self.state() {
            QpState::ReadyToSend => Ok(()),
            state => Err(RdmaError::InvalidQpState {
                state: state.name(),
                operation,
            }),
        }
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

    /// Connects this QP to a remote peer (folds INIT→RTR→RTS).
    ///
    /// # Errors
    ///
    /// Returns [`RdmaError::InvalidQpState`] unless the QP is in RESET.
    pub fn connect(&self, remote_node: NodeId, remote_qpn: Qpn) -> Result<(), RdmaError> {
        let mut remote = self.remote.lock();
        let state = self.state();
        if state != QpState::Reset {
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
        *remote = Some((remote_node, remote_qpn));
        self.conn.fetch_add(1, Ordering::AcqRel);
        self.set_state(QpState::ReadyToSend);
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
        self.set_state(QpState::Error);
        // Wake anyone blocked waiting for receives so they observe the
        // error. Passing through the queue's mutex first orders the wake
        // after any waiter's state check, so none parks past it.
        drop(self.recvs.lock());
        self.recv_posted.notify_all();
    }

    /// The completion status that moved the QP to error, if any.
    pub fn error_status(&self) -> Option<crate::cq::WcStatus> {
        *self.last_error.lock()
    }

    /// Resets an errored QP back to RESET so it can be reconnected
    /// (equivalent to cycling a real QP through RESET).
    pub fn reset(&self) {
        let mut remote = self.remote.lock();
        *remote = None;
        self.recvs.lock().queue.clear();
        *self.last_error.lock() = None;
        self.set_state(QpState::Reset);
    }

    /// Posts a receive buffer.
    ///
    /// # Errors
    ///
    /// Returns [`RdmaError::RecvQueueFull`] if `max_recv` receives are
    /// already pending, or [`RdmaError::InvalidQpState`] on an errored QP.
    pub fn post_recv(&self, wr: RecvWr) -> Result<(), RdmaError> {
        let state = self.state();
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
        let parked = recvs.waiters > 0;
        drop(recvs);
        self.metrics.recv_posted.inc();
        if parked {
            self.recv_posted.notify_all();
        }
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
            if self.state() == QpState::Error {
                return None;
            }
            recvs.waiters += 1;
            let timed_out = self
                .recv_posted
                .wait_until(&mut recvs, deadline)
                .timed_out();
            recvs.waiters -= 1;
            if timed_out {
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
        self.post_list([wr], "post_send").map(drop)
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
    /// connected or errored), and with [`RdmaError::SendQueueFull`] when
    /// the send CQ lacks room for every WR's completion; in either case no
    /// WR has executed.
    pub fn post_send_list(self: &Arc<Self>, wrs: Vec<SendWr>) -> Result<(), RdmaError> {
        self.post_list(wrs, "post_send_list").map(drop)
    }

    /// Posts a list on a route resolved for this one post: the QP-level
    /// verbs, and an endpoint whose QP reconnected since it was built.
    /// Returns the doorbell instant.
    pub(crate) fn post_list<I>(
        self: &Arc<Self>,
        wrs: I,
        operation: &'static str,
    ) -> Result<Instant, RdmaError>
    where
        I: IntoIterator<Item = SendWr>,
        I::IntoIter: ExactSizeIterator,
    {
        self.check_ready(operation)?;
        let node = self.node.upgrade().ok_or(RdmaError::NotConnected)?;
        let route = Route::resolve(&node, self, false)?;
        node.wire().execute_batch(&node, self, &route, wrs)
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

    /// `take_recv` against `post_recv` the way [`crate::cq`]'s
    /// `wait_misses_no_push` runs the CQ: 10 000 receives posted in bursts
    /// with random sub-microsecond gaps, each burst taken whole before the
    /// next, under a 5 s RNR patience a lost wake-up would sleep out.
    #[test]
    fn take_recv_misses_no_post() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const N: u64 = 10_000;
        let (_f, node) = setup();
        let pd = node.alloc_pd();
        let opts = QpOptions {
            max_recv: N as usize,
            rnr_timeout: Duration::from_secs(5),
        };
        let qp = node.create_qp(&pd, node.create_cq(16), node.create_cq(16), opts);
        let taken = Arc::new(AtomicU64::new(0));
        let consumer = {
            let (qp, taken) = (Arc::clone(&qp), Arc::clone(&taken));
            std::thread::spawn(move || {
                for next in 0..N {
                    let wr = qp.take_recv();
                    assert_eq!(wr.map(|wr| wr.wr_id), Some(next), "receive {next}");
                    taken.store(next + 1, Ordering::Release);
                }
            })
        };
        let t0 = Instant::now();
        let sge = Sge::new(LKey(1), 0, 8);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut posted = 0;
        while posted < N {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let burst = (1 + rng % 8).min(N - posted);
            for _ in 0..burst {
                let gap = Instant::now() + Duration::from_nanos(rng % 1000);
                while Instant::now() < gap {
                    std::hint::spin_loop();
                }
                qp.post_recv(RecvWr::new(posted, sge)).unwrap();
                posted += 1;
            }
            while taken.load(Ordering::Acquire) < posted {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "consumer stuck at {} of {posted}",
                    taken.load(Ordering::Acquire)
                );
                std::thread::yield_now();
            }
        }
        consumer.join().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "took {:?}",
            t0.elapsed()
        );
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
