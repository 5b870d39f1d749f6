//! The vectored client API: [`OpBatch`], [`BatchResult`] and
//! [`BatchError`].
//!
//! An `OpBatch` collects independent reads and writes and submits them as
//! one pipelined unit: the client routes every element through the same
//! hotness/cache/proxy/degraded-mode machinery as the scalar calls, but
//! overlaps their network time through the per-connection
//! [`crate::window::OpWindow`]. Every scalar data-plane call — `read`,
//! `write`, `read_versioned`, the atomics, `lock`, `unlock`,
//! `read_lock_word` and `drain_all` — is a batch of one (crate-private
//! `BatchOp`), so all of them enter through one planner and one reactor,
//! and no op shape runs a round trip to completion inside it
//! (`DESIGN.md`, "Concurrent issue reactor").
//!
//! # Partial completion
//!
//! A batch is not a transaction. Each operation succeeds or fails on its
//! own and [`BatchResult`] carries one `Result` per operation in
//! submission order; `submit` returning `Ok` therefore does **not** mean
//! every operation landed. Transient transport faults are absorbed per
//! operation (retry, reconnect, staged-write replay) exactly as in the
//! scalar paths — only the slots that did not complete are replayed, so
//! an operation that reports success executed exactly once. When the
//! retry budget for a server is exhausted, the remaining operations
//! against it fail with the final transport error while operations
//! against other servers still run.
//!
//! # Ordering
//!
//! A batch's operations are split into per-home-server groups, and all
//! groups are in flight **concurrently** (a completion-driven event loop
//! interleaves them — see `DESIGN.md`, "Concurrent issue reactor").
//! Ordering is therefore per group, which is all an application can
//! observe: an object lives on exactly one server, so operations that
//! touch the same data are always in the same group. Within a group,
//! writes are applied before reads are issued, and multiple writes to
//! the same object apply in submission order (a staged window never
//! holds two writes to one object). Reads are unordered among
//! themselves, and no order holds between operations homed on different
//! servers. A read of an object written earlier in the *same* batch
//! observes that write (served from the local store buffer like any
//! read-your-write). No ordering holds between operations of different
//! batches beyond the scalar API's guarantees.
//!
//! # Atomics
//!
//! `lock` / `unlock` / `cas_u64` / `faa_u64` are ordering-sensitive, and
//! the builder offers no way to queue them — a misport from the scalar
//! API fails at compile time instead of silently reordering. Use the
//! scalar [`crate::GengarClient::cas_u64`] /
//! [`crate::GengarClient::faa_u64`] / [`crate::GengarClient::lock`] /
//! [`crate::GengarClient::unlock`] calls. Each runs alone in a batch of
//! one on the same reactor, under the same retry, reconnect and failover
//! handling as a read or write; an atomic whose verb completed keeps its
//! prior value across a failed attempt, so a retry only re-sends the
//! flush and never applies the verb twice. ([`GengarError::AtomicInBatch`]
//! survives solely as a wire-path error code a server can return for a
//! malformed remote batch.)

use std::error::Error;
use std::fmt;

use crate::addr::GlobalPtr;
use crate::client::GengarClient;
use crate::error::GengarError;
use crate::plan::Op;

/// One batch element. [`OpBatch`] queues reads and writes only; the other
/// kinds are built by the scalar calls, each alone in its batch (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) enum BatchOp<'b> {
    /// Read `buf.len()` bytes from `ptr.addr + offset` into `buf`. With a
    /// `word` slot ([`GengarClient::read_versioned`]) the read is always
    /// the NVM triple, and the lock word it validated lands in the slot.
    Read {
        ptr: GlobalPtr,
        offset: u64,
        buf: &'b mut [u8],
        word: Option<&'b mut u64>,
    },
    /// Write `data` at `ptr.addr + offset`.
    Write {
        ptr: GlobalPtr,
        offset: u64,
        data: &'b [u8],
    },
    /// Apply `verb` to the word at `ptr.addr + offset`, then flush it. The
    /// word's prior value lands in `prev` when the verb completes.
    Atomic {
        ptr: GlobalPtr,
        offset: u64,
        verb: AtomicVerb,
        prev: &'b mut Option<u64>,
    },
    /// Take the object's writer lock for the caller.
    Lock { ptr: GlobalPtr },
    /// Release the writer lock the caller holds.
    Unlock { ptr: GlobalPtr },
    /// Read the object's lock word into `word`.
    LockWord { ptr: GlobalPtr, word: &'b mut u64 },
    /// Wait until every record staged on `server` has drained.
    Drain { server: u8 },
}

/// The remote atomic a [`BatchOp::Atomic`] applies.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AtomicVerb {
    Cas { expected: u64, new: u64 },
    Faa { add: u64 },
}

impl BatchOp<'_> {
    /// The server whose group runs the op.
    pub(crate) fn server(&self) -> u8 {
        match self {
            BatchOp::Drain { server } => *server,
            BatchOp::Read { ptr, .. }
            | BatchOp::Write { ptr, .. }
            | BatchOp::Atomic { ptr, .. }
            | BatchOp::Lock { ptr }
            | BatchOp::Unlock { ptr }
            | BatchOp::LockWord { ptr, .. } => ptr.addr.server(),
        }
    }

    /// The object range `(ptr, offset, len)` the op touches, bounds-checked
    /// before it runs (`None` for a drain, which touches no object).
    pub(crate) fn range(&self) -> Option<(GlobalPtr, u64, u64)> {
        match self {
            BatchOp::Read {
                ptr, offset, buf, ..
            } => Some((*ptr, *offset, buf.len() as u64)),
            BatchOp::Write { ptr, offset, data } => Some((*ptr, *offset, data.len() as u64)),
            BatchOp::Atomic { ptr, offset, .. } => Some((*ptr, *offset, 8)),
            BatchOp::Lock { ptr } | BatchOp::Unlock { ptr } | BatchOp::LockWord { ptr, .. } => {
                Some((*ptr, 0, 0))
            }
            BatchOp::Drain { .. } => None,
        }
    }

    /// The op's kind, as [`crate::plan`] sees it.
    pub(crate) fn kind(&self) -> Op {
        match self {
            BatchOp::Read { .. } => Op::Read,
            BatchOp::Write { .. } => Op::Write,
            BatchOp::Atomic { prev, .. } => Op::Atomic {
                applied: prev.is_some(),
            },
            BatchOp::Lock { .. } => Op::Lock,
            BatchOp::Unlock { .. } => Op::Unlock,
            BatchOp::LockWord { .. } => Op::LockWord,
            BatchOp::Drain { .. } => Op::Drain,
        }
    }

    /// The root span a batch of just this op runs under.
    pub(crate) fn span_name(&self) -> &'static str {
        match self {
            BatchOp::Read { .. } => "client.read",
            BatchOp::Write { .. } => "client.write",
            BatchOp::Atomic { .. } => "client.atomic",
            BatchOp::Lock { .. } => "client.lock",
            BatchOp::Unlock { .. } => "client.unlock",
            BatchOp::LockWord { .. } => "client.lock_word",
            BatchOp::Drain { .. } => "client.drain",
        }
    }
}

/// Builder for a vectored operation batch. Created by
/// [`crate::GengarClient::batch`]; consumed by [`OpBatch::submit`].
///
/// ```
/// use gengar_core::cluster::Cluster;
/// use gengar_core::config::{ClientConfig, ServerConfig};
/// use gengar_rdma::FabricConfig;
///
/// # fn main() -> Result<(), gengar_core::GengarError> {
/// let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant())?;
/// let mut client = cluster.client(ClientConfig::default())?;
/// let a = client.alloc(0, 64)?;
/// let b = client.alloc(0, 64)?;
/// let mut buf = [0u8; 5];
/// let result = client
///     .batch()
///     .write(a, 0, b"hello")
///     .write(b, 0, b"world")
///     .read(a, 0, &mut buf)
///     .submit()?;
/// assert!(result.all_ok());
/// assert_eq!(&buf, b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OpBatch<'c, 'b> {
    client: &'c mut GengarClient,
    ops: Vec<BatchOp<'b>>,
}

impl<'c, 'b> OpBatch<'c, 'b> {
    pub(crate) fn new(client: &'c mut GengarClient) -> Self {
        OpBatch {
            client,
            ops: Vec::new(),
        }
    }

    /// Queues a read of `buf.len()` bytes from `ptr.addr + offset`.
    #[must_use]
    pub fn read(mut self, ptr: GlobalPtr, offset: u64, buf: &'b mut [u8]) -> Self {
        self.ops.push(BatchOp::Read {
            ptr,
            offset,
            buf,
            word: None,
        });
        self
    }

    /// Queues a write of `data` at `ptr.addr + offset`.
    #[must_use]
    pub fn write(mut self, ptr: GlobalPtr, offset: u64, data: &'b [u8]) -> Self {
        self.ops.push(BatchOp::Write { ptr, offset, data });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Submits the batch and waits for every operation to complete (or
    /// exhaust its retry budget). See the [module docs](self) for the
    /// partial-completion and ordering contracts.
    ///
    /// # Errors
    ///
    /// The outer `Err` is reserved for future batch-level misuse; today
    /// every queued operation is representable and runs. Per-operation
    /// failures (bounds violations, exhausted retry budgets) land in the
    /// [`BatchResult`].
    pub fn submit(mut self) -> Result<BatchResult, GengarError> {
        self.client.run_batch(&mut self.ops)
    }
}

/// Per-operation outcomes of one submitted batch, in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    results: Vec<Result<(), GengarError>>,
    trace: gengar_telemetry::TraceId,
}

impl BatchResult {
    pub(crate) fn new(
        results: Vec<Result<(), GengarError>>,
        trace: gengar_telemetry::TraceId,
    ) -> Self {
        BatchResult { results, trace }
    }

    /// The causal trace id this batch ran under ([`TraceId::NONE`] when
    /// tracing is off), for correlating results against an exported trace
    /// or a flight-recorder dump.
    ///
    /// [`TraceId::NONE`]: gengar_telemetry::TraceId::NONE
    pub fn trace_id(&self) -> gengar_telemetry::TraceId {
        self.trace
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the batch held no operations.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Per-operation results, in submission order.
    pub fn results(&self) -> &[Result<(), GengarError>] {
        &self.results
    }

    /// Number of operations that completed successfully.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Whether every operation succeeded.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }

    /// Consumes the result into the per-operation `Result`s.
    pub fn into_results(self) -> Vec<Result<(), GengarError>> {
        self.results
    }

    /// Collapses the batch into a single `Result`: `Ok` if every
    /// operation succeeded, otherwise a [`BatchError`] describing the
    /// first failure. Operations that succeeded *stay applied* — see the
    /// partial-completion contract in the [module docs](self).
    ///
    /// # Errors
    ///
    /// [`BatchError`] carrying the index and cause of the first failed
    /// operation plus the count of operations that did land.
    pub fn into_result(self) -> Result<(), BatchError> {
        let completed = self.completed();
        match self
            .results
            .into_iter()
            .enumerate()
            .find_map(|(i, r)| r.err().map(|e| (i, e)))
        {
            None => Ok(()),
            Some((failed_at, cause)) => Err(BatchError {
                completed,
                failed_at,
                cause: Box::new(cause),
            }),
        }
    }
}

/// A batch that did not fully complete: `completed` operations landed
/// (and stay applied), the operation at index `failed_at` is the first
/// that failed, with `cause` saying why. Produced by
/// [`BatchResult::into_result`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// How many operations of the batch completed successfully (not
    /// necessarily a prefix: reads are unordered among themselves).
    pub completed: usize,
    /// Index (submission order) of the first failed operation.
    pub failed_at: usize,
    /// Why it failed.
    pub cause: Box<GengarError>,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch failed at op {} ({} ops completed): {}",
            self.failed_at, self.completed, self.cause
        )
    }
}

impl Error for BatchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(self.cause.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_result_accessors() {
        let ok = BatchResult::new(vec![Ok(()), Ok(())], gengar_telemetry::TraceId::NONE);
        assert!(ok.all_ok());
        assert_eq!(ok.completed(), 2);
        assert_eq!(ok.len(), 2);
        assert!(ok.into_result().is_ok());

        let mixed = BatchResult::new(
            vec![Ok(()), Err(GengarError::ProtocolViolation("boom")), Ok(())],
            gengar_telemetry::TraceId::NONE,
        );
        assert!(!mixed.all_ok());
        assert_eq!(mixed.completed(), 2);
        let err = mixed.into_result().unwrap_err();
        assert_eq!(err.failed_at, 1);
        assert_eq!(err.completed, 2);
        assert_eq!(*err.cause, GengarError::ProtocolViolation("boom"));
        assert!(err.to_string().contains("op 1"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn empty_batch_result_is_ok() {
        let r = BatchResult::new(Vec::new(), gengar_telemetry::TraceId::NONE);
        assert!(r.is_empty() && r.all_ok());
        assert!(r.into_result().is_ok());
    }
}
