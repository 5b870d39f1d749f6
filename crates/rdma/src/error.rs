//! Error type for the verbs layer.

use std::error::Error;
use std::fmt;

use gengar_hybridmem::HybridMemError;

use crate::types::{NodeId, Qpn, RKey};

/// Errors produced by verbs operations.
///
/// Following RC semantics, *transport-level* failures (peer unreachable,
/// remote access violation, receiver-not-ready exhaustion) are reported as
/// error **completions** ([`crate::cq::WcStatus`]), while *programming*
/// errors (posting on a disconnected QP, unknown lkey) fail the post call
/// itself with this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// The queue pair is not in a state that allows the operation.
    InvalidQpState {
        /// The QP's current state name.
        state: &'static str,
        /// The attempted operation.
        operation: &'static str,
    },
    /// The queue pair has no connected remote peer.
    NotConnected,
    /// No node with this id exists on the fabric.
    NodeNotFound(NodeId),
    /// No queue pair with this number exists on the target node.
    QpNotFound(NodeId, Qpn),
    /// The local key does not name a registered memory region on this node.
    UnknownLKey(u32),
    /// The remote key does not name a registered memory region.
    UnknownRKey(RKey),
    /// A local scatter/gather entry fell outside its memory region.
    LocalAccessOutOfBounds {
        /// Offset of the access within the MR.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Length of the MR.
        mr_len: u64,
    },
    /// The payload exceeds the QP's inline limit.
    InlineTooLarge {
        /// Requested inline payload size.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The send CQ has no room for every completion of a posted list;
    /// the list was refused before any of it executed.
    SendQueueFull,
    /// The receive queue is full.
    RecvQueueFull,
    /// An underlying simulated-memory error (bounds, alignment).
    Memory(HybridMemError),
    /// The fabric rejected the connection (e.g. peer already bound).
    ConnectionRefused(&'static str),
    /// A bounded wait ran out while the queue pair was still healthy: a
    /// receive ([`crate::Endpoint::recv`]), or a caller's own patience
    /// built on one. Posted send-side WRs never time out: each completes,
    /// or its queue pair is in error.
    Timeout,
    /// The operation completed with an error status.
    CompletionError(crate::cq::WcStatus),
    /// A blocking helper observed the queue pair in the error state while
    /// waiting; the payload is the completion status that killed the QP.
    /// Retrying on this connection cannot succeed — the QP must be reset
    /// and reconnected.
    QpError(crate::cq::WcStatus),
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::InvalidQpState { state, operation } => {
                write!(f, "queue pair in state {state} cannot {operation}")
            }
            RdmaError::NotConnected => write!(f, "queue pair is not connected"),
            RdmaError::NodeNotFound(n) => write!(f, "no such node on fabric: {n}"),
            RdmaError::QpNotFound(n, q) => write!(f, "no queue pair {q} on {n}"),
            RdmaError::UnknownLKey(k) => write!(f, "unknown local key {k:#x}"),
            RdmaError::UnknownRKey(k) => write!(f, "unknown remote key {k}"),
            RdmaError::LocalAccessOutOfBounds {
                offset,
                len,
                mr_len,
            } => write!(
                f,
                "local sge [{offset}, {offset}+{len}) out of bounds for MR of {mr_len} bytes"
            ),
            RdmaError::InlineTooLarge { len, max } => {
                write!(f, "inline payload of {len} bytes exceeds limit {max}")
            }
            RdmaError::SendQueueFull => write!(f, "send queue full"),
            RdmaError::RecvQueueFull => write!(f, "receive queue full"),
            RdmaError::Memory(e) => write!(f, "memory error: {e}"),
            RdmaError::ConnectionRefused(why) => write!(f, "connection refused: {why}"),
            RdmaError::Timeout => write!(f, "timed out waiting for completion"),
            RdmaError::CompletionError(status) => {
                write!(f, "operation completed with status {status:?}")
            }
            RdmaError::QpError(status) => {
                write!(f, "queue pair is dead (killed by status {status:?})")
            }
        }
    }
}

impl Error for RdmaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RdmaError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HybridMemError> for RdmaError {
    fn from(e: HybridMemError) -> Self {
        RdmaError::Memory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RdmaError::QpNotFound(NodeId(1), Qpn(2));
        assert_eq!(e.to_string(), "no queue pair qp2 on node1");
        let e = RdmaError::Memory(HybridMemError::Misaligned { offset: 3 });
        assert!(e.to_string().contains("not 8-byte aligned"));
    }

    #[test]
    fn memory_error_converts() {
        let m = HybridMemError::CrashSimDisabled;
        let e: RdmaError = m.clone().into();
        assert_eq!(e, RdmaError::Memory(m));
    }

    #[test]
    fn source_chains() {
        let e = RdmaError::Memory(HybridMemError::CrashSimDisabled);
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&RdmaError::NotConnected).is_none());
    }
}
