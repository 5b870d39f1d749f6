//! Connection management and the synchronous [`Endpoint`] convenience API.
//!
//! Real deployments exchange QP numbers out of band (TCP, RDMA CM). In the
//! simulation the exchange is a function call: [`Endpoint::pair`] creates
//! two RC queue pairs, wires them together and returns both ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_hybridmem::latency::spin_until;

use crate::cq::{Wc, WcStatus};
use crate::error::RdmaError;
use crate::mr::ProtectionDomain;
use crate::node::RdmaNode;
use crate::qp::{QpOptions, QueuePair};
use crate::types::RemoteAddr;
use crate::wr::{Payload, RecvWr, SendOp, SendWr, Sge};

/// Default patience of the blocking helpers.
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(10);

/// A posted doorbell batch whose completions are still being harvested.
///
/// Returned by [`Endpoint::post_many`]; drive it with
/// [`Endpoint::poll_pending`] (non-blocking) and sleep until
/// [`Endpoint::pending_done_wake`] between passes. One `PendingOps` per
/// batch; a single endpoint can only be driven by one thread, but one
/// thread can hold `PendingOps` for *several endpoints* in flight at once
/// — that is the whole point of the completion-driven issue engine.
#[derive(Debug)]
pub struct PendingOps {
    base: u64,
    out: Vec<Option<Result<Wc, RdmaError>>>,
    pending: usize,
    deadline: Instant,
}

impl PendingOps {
    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Returns `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Returns `true` once every operation has a result.
    pub fn is_done(&self) -> bool {
        self.pending == 0
    }

    /// Consumes the batch and returns one result per operation, in
    /// posting order. Call only after [`PendingOps::is_done`]; operations
    /// still outstanding are reported as [`RdmaError::Timeout`].
    pub fn into_results(self) -> Vec<Result<Wc, RdmaError>> {
        self.out
            .into_iter()
            .map(|s| s.unwrap_or(Err(RdmaError::Timeout)))
            .collect()
    }
}

/// One end of an RC connection, with synchronous one-operation-at-a-time
/// helpers.
///
/// An `Endpoint` owns its queue pair and both completion queues. The
/// blocking helpers (`read`, `write`, `send`, ...) post one work request
/// and wait for its completion; they are designed for one thread driving
/// one endpoint, which is how Gengar clients use their connections.
#[derive(Debug)]
pub struct Endpoint {
    node: Arc<RdmaNode>,
    qp: Arc<QueuePair>,
    next_wr: AtomicU64,
    op_timeout: Duration,
}

impl Endpoint {
    /// Creates a connected pair of endpoints between `a` and `b`.
    ///
    /// Each endpoint's QP lives in the supplied protection domain, so MRs
    /// registered through those PDs are usable with the returned endpoints.
    ///
    /// # Errors
    ///
    /// Propagates queue-pair connection errors (never, in practice, for
    /// freshly created QPs).
    pub fn pair(
        a: (&Arc<RdmaNode>, &ProtectionDomain),
        b: (&Arc<RdmaNode>, &ProtectionDomain),
        opts: QpOptions,
    ) -> Result<(Endpoint, Endpoint), RdmaError> {
        let (a_node, a_pd) = a;
        let (b_node, b_pd) = b;
        let qa = a_node.create_qp(
            a_pd,
            a_node.create_cq(4096),
            a_node.create_cq(4096),
            opts.clone(),
        );
        let qb = b_node.create_qp(b_pd, b_node.create_cq(4096), b_node.create_cq(4096), opts);
        qa.connect(b_node.id(), qb.qpn())?;
        qb.connect(a_node.id(), qa.qpn())?;
        Ok((
            Endpoint::from_qp(Arc::clone(a_node), qa),
            Endpoint::from_qp(Arc::clone(b_node), qb),
        ))
    }

    /// Wraps an already-connected queue pair.
    pub fn from_qp(node: Arc<RdmaNode>, qp: Arc<QueuePair>) -> Endpoint {
        Endpoint {
            node,
            qp,
            next_wr: AtomicU64::new(1),
            op_timeout: DEFAULT_OP_TIMEOUT,
        }
    }

    /// The owning node.
    pub fn node(&self) -> &Arc<RdmaNode> {
        &self.node
    }

    /// The underlying queue pair.
    pub fn qp(&self) -> &Arc<QueuePair> {
        &self.qp
    }

    /// Changes the patience of the blocking helpers.
    pub fn set_op_timeout(&mut self, timeout: Duration) {
        self.op_timeout = timeout;
    }

    /// The patience of the blocking helpers.
    pub fn op_timeout(&self) -> Duration {
        self.op_timeout
    }

    fn next_wr_id(&self) -> u64 {
        self.next_wr.fetch_add(1, Ordering::Relaxed)
    }

    /// Posts `op` and waits for its completion.
    ///
    /// # Errors
    ///
    /// Programming errors surface immediately; transport/remote failures
    /// surface as [`RdmaError::CompletionError`]; patience exhaustion as
    /// [`RdmaError::Timeout`] while the QP is healthy, or
    /// [`RdmaError::QpError`] if the QP died while waiting (e.g. a
    /// different operation's error completion flushed this one).
    pub fn execute(&self, op: SendOp) -> Result<Wc, RdmaError> {
        let mut results = self.execute_many(vec![op])?;
        results.pop().expect("one result for one op")
    }

    /// Posts `ops` as one doorbell batch without waiting for completions.
    ///
    /// The returned [`PendingOps`] tracks the batch; harvest it with
    /// [`Endpoint::poll_pending`]. Post batches on *several* endpoints
    /// first, then poll them all: that is how one thread keeps every
    /// server busy simultaneously.
    ///
    /// # Errors
    ///
    /// Only programming errors that fail the post itself (nothing
    /// executed). Per-operation failures surface through the results.
    pub fn post_many(&self, ops: Vec<SendOp>) -> Result<PendingOps, RdmaError> {
        let n = ops.len();
        let deadline = Instant::now() + self.op_timeout;
        if n > 0 {
            let base = self.next_wr.fetch_add(n as u64, Ordering::Relaxed);
            let wrs: Vec<SendWr> = ops
                .into_iter()
                .enumerate()
                .map(|(i, op)| SendWr::new(base + i as u64, op))
                .collect();
            self.qp.post_send_list(wrs)?;
            Ok(PendingOps {
                base,
                out: vec![None; n],
                pending: n,
                deadline,
            })
        } else {
            Ok(PendingOps {
                base: 0,
                out: Vec::new(),
                pending: 0,
                deadline,
            })
        }
    }

    /// One non-blocking harvest pass over a posted batch. Returns `true`
    /// once every operation has a result (then [`PendingOps::into_results`]
    /// yields them).
    ///
    /// Failure handling mirrors the blocking path: error completions land
    /// in their slot as [`RdmaError::CompletionError`]; when nothing at
    /// all is left in flight on the send CQ the remaining slots fill with
    /// [`RdmaError::QpError`] (connection death) or [`RdmaError::Timeout`]
    /// (operations dropped on the wire — their completions are never
    /// coming, so there is no point waiting out the full patience); the
    /// batch deadline backstops everything else.
    pub fn poll_pending(&self, p: &mut PendingOps) -> bool {
        if p.pending == 0 {
            return true;
        }
        let n = p.out.len();
        loop {
            let drained = self.qp.send_cq().poll(64);
            if drained.is_empty() {
                break;
            }
            for wc in drained {
                // Stale completions from earlier unmatched waits fall
                // outside [base, base + n) and are dropped.
                let slot = match wc.wr_id.checked_sub(p.base) {
                    Some(slot) if (slot as usize) < n => slot as usize,
                    _ => continue,
                };
                if p.out[slot].is_some() {
                    continue;
                }
                p.out[slot] = Some(if wc.status.is_ok() {
                    Ok(wc)
                } else {
                    Err(RdmaError::CompletionError(wc.status))
                });
                p.pending -= 1;
            }
            if p.pending == 0 {
                return true;
            }
        }
        // The fabric queues every completion (even deferred ones) at post
        // time, so an empty send CQ with operations still pending means
        // those completions will never arrive: the op was dropped on the
        // wire, or was never matched before the QP died.
        let timed_out = Instant::now() >= p.deadline;
        if self.qp.send_cq().is_empty() || timed_out {
            let err = if self.qp.state() == crate::qp::QpState::Error {
                RdmaError::QpError(self.qp.error_status().unwrap_or(WcStatus::WrFlushed))
            } else {
                RdmaError::Timeout
            };
            for slot in p.out.iter_mut().filter(|s| s.is_none()) {
                *slot = Some(Err(err.clone()));
            }
            p.pending = 0;
            return true;
        }
        false
    }

    /// When a still-pending batch is expected to be *fully* harvestable:
    /// the later of the send CQ's entries, capped by the batch deadline.
    /// A waiter that cannot act on partial completions (the batch settles
    /// as a unit) sleeps until this — one long, sleepable wait instead of
    /// a sub-sleep-threshold busy-spin per staggered completion, which
    /// matters when the host has fewer cores than the simulated cluster
    /// has channels. Completions that will never arrive (dropped on the
    /// wire) are covered by the fail-fast in [`Endpoint::poll_pending`]
    /// once the CQ drains. `None` once the batch is done.
    pub fn pending_done_wake(&self, p: &PendingOps) -> Option<Instant> {
        if p.pending == 0 {
            return None;
        }
        Some(
            self.qp
                .send_cq()
                .last_ready_at()
                .map_or(p.deadline, |at| at.min(p.deadline)),
        )
    }

    /// Posts `ops` as one doorbell batch and waits for every completion.
    ///
    /// Returns one `Result` per operation, in posting order. Completions
    /// may drain out of order from the CQ; they are matched back to their
    /// slot by wr_id. A batch of one is exactly [`Endpoint::execute`].
    /// The wait sleeps until the CQ's next ready instant rather than
    /// spinning, so heavily time-scaled runs do not burn cores.
    ///
    /// # Errors
    ///
    /// The outer `Err` is reserved for programming errors that fail the
    /// post itself (nothing executed). Per-operation transport failures
    /// land in the inner results: [`RdmaError::CompletionError`] for an
    /// error completion, [`RdmaError::QpError`] for operations flushed by
    /// a connection death, [`RdmaError::Timeout`] for operations whose
    /// completion never arrived (e.g. dropped on the wire).
    pub fn execute_many(&self, ops: Vec<SendOp>) -> Result<Vec<Result<Wc, RdmaError>>, RdmaError> {
        let mut pending = self.post_many(ops)?;
        while !self.poll_pending(&mut pending) {
            if let Some(wake) = self.pending_done_wake(&pending) {
                spin_until(wake);
            }
        }
        Ok(pending.into_results())
    }

    /// One-sided READ of `local.len` bytes from `remote` into `local`.
    ///
    /// # Errors
    ///
    /// See [`Endpoint::execute`].
    pub fn read(&self, local: Sge, remote: RemoteAddr) -> Result<Wc, RdmaError> {
        self.execute(SendOp::Read { local, remote })
    }

    /// One-sided WRITE of `payload` to `remote`.
    ///
    /// # Errors
    ///
    /// See [`Endpoint::execute`].
    pub fn write(&self, payload: Payload, remote: RemoteAddr) -> Result<Wc, RdmaError> {
        self.execute(SendOp::Write {
            payload,
            remote,
            imm: None,
        })
    }

    /// One-sided WRITE_WITH_IMM: places `payload` at `remote` and consumes
    /// a receive at the peer, delivering `imm`.
    ///
    /// # Errors
    ///
    /// See [`Endpoint::execute`].
    pub fn write_with_imm(
        &self,
        payload: Payload,
        remote: RemoteAddr,
        imm: u32,
    ) -> Result<Wc, RdmaError> {
        self.execute(SendOp::Write {
            payload,
            remote,
            imm: Some(imm),
        })
    }

    /// Two-sided SEND.
    ///
    /// # Errors
    ///
    /// See [`Endpoint::execute`].
    pub fn send(&self, payload: Payload, imm: Option<u32>) -> Result<Wc, RdmaError> {
        self.execute(SendOp::Send { payload, imm })
    }

    /// Remote compare-and-swap; the prior value lands in `local` (8 bytes).
    ///
    /// # Errors
    ///
    /// See [`Endpoint::execute`].
    pub fn compare_swap(
        &self,
        local: Sge,
        remote: RemoteAddr,
        expected: u64,
        swap: u64,
    ) -> Result<Wc, RdmaError> {
        self.execute(SendOp::CompareSwap {
            local,
            remote,
            expected,
            swap,
        })
    }

    /// Remote fetch-and-add; the prior value lands in `local` (8 bytes).
    ///
    /// # Errors
    ///
    /// See [`Endpoint::execute`].
    pub fn fetch_add(&self, local: Sge, remote: RemoteAddr, add: u64) -> Result<Wc, RdmaError> {
        self.execute(SendOp::FetchAdd { local, remote, add })
    }

    /// Posts a receive buffer.
    ///
    /// # Errors
    ///
    /// See [`QueuePair::post_recv`].
    pub fn post_recv(&self, sge: Sge) -> Result<u64, RdmaError> {
        let wr_id = self.next_wr_id();
        self.qp.post_recv(RecvWr::new(wr_id, sge))?;
        Ok(wr_id)
    }

    /// Waits for one receive completion.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Timeout`] if nothing arrives in `timeout` and the QP is
    /// healthy; [`RdmaError::QpError`] if the QP is dead (nothing will ever
    /// arrive); [`RdmaError::CompletionError`] if the receive completed
    /// with error.
    pub fn recv(&self, timeout: Duration) -> Result<Wc, RdmaError> {
        let got = self.qp.recv_cq().wait(1, timeout);
        match got.first() {
            Some(wc) if wc.status == WcStatus::Success => Ok(*wc),
            Some(wc) => Err(RdmaError::CompletionError(wc.status)),
            None if self.qp.state() == crate::qp::QpState::Error => Err(RdmaError::QpError(
                self.qp.error_status().unwrap_or(WcStatus::WrFlushed),
            )),
            None => Err(RdmaError::Timeout),
        }
    }
}
