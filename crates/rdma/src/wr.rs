//! Work requests: the operations posted to a queue pair.

use crate::types::{LKey, RemoteAddr, WrId};

/// A local scatter/gather entry: a window of a locally registered MR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sge {
    /// Local key of the registered memory region.
    pub lkey: LKey,
    /// Byte offset within the MR.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Sge {
    /// Creates a scatter/gather entry.
    pub fn new(lkey: LKey, offset: u64, len: u64) -> Self {
        Sge { lkey, offset, len }
    }
}

/// Payload source for SEND / WRITE work requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Gather from a registered local MR.
    Sge(Sge),
    /// Inline bytes carried in the WQE (no lkey needed); at most 220.
    Inline(Vec<u8>),
}

impl Payload {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Sge(s) => s.len,
            Payload::Inline(b) => b.len() as u64,
        }
    }

    /// Returns `true` for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The verb-specific part of a send-side work request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendOp {
    /// Two-sided SEND; consumes a posted RECV at the peer.
    Send {
        /// Payload to transmit.
        payload: Payload,
        /// Optional 32-bit immediate delivered with the receive completion.
        imm: Option<u32>,
    },
    /// One-sided RDMA WRITE into remote memory.
    Write {
        /// Payload to transmit.
        payload: Payload,
        /// Remote destination.
        remote: RemoteAddr,
        /// If set, additionally consumes a RECV at the peer and delivers
        /// this immediate (RDMA WRITE_WITH_IMM).
        imm: Option<u32>,
    },
    /// One-sided RDMA READ from remote memory into a local MR.
    Read {
        /// Local destination buffer.
        local: Sge,
        /// Remote source.
        remote: RemoteAddr,
    },
    /// Remote compare-and-swap on an 8-byte-aligned u64; the prior value is
    /// written to `local` (8 bytes).
    CompareSwap {
        /// Local 8-byte buffer receiving the prior value.
        local: Sge,
        /// Remote word address.
        remote: RemoteAddr,
        /// Expected value.
        expected: u64,
        /// Replacement value.
        swap: u64,
    },
    /// Remote fetch-and-add on an 8-byte-aligned u64; the prior value is
    /// written to `local` (8 bytes).
    FetchAdd {
        /// Local 8-byte buffer receiving the prior value.
        local: Sge,
        /// Remote word address.
        remote: RemoteAddr,
        /// Addend.
        add: u64,
    },
    /// RDMA FLUSH: makes `len` bytes at `remote` durable at the responder
    /// (the persistence-domain flush of the memory behind the MR). Moves no
    /// payload; needs `REMOTE_WRITE` on the target MR. A doorbell's FLUSH
    /// behind a WRITE persists that WRITE's bytes, since an RC queue pair
    /// executes a doorbell's WRs in posting order.
    Flush {
        /// Start of the range to persist.
        remote: RemoteAddr,
        /// Length of the range in bytes.
        len: u64,
    },
}

impl SendOp {
    /// Short operation name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            SendOp::Send { .. } => "SEND",
            SendOp::Write { .. } => "WRITE",
            SendOp::Read { .. } => "READ",
            SendOp::CompareSwap { .. } => "CAS",
            SendOp::FetchAdd { .. } => "FAA",
            SendOp::Flush { .. } => "FLUSH",
        }
    }
}

/// A send-side work request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendWr {
    /// Caller-chosen id echoed in the completion.
    pub wr_id: WrId,
    /// The operation.
    pub op: SendOp,
    /// Whether a successful completion is reported on the send CQ.
    /// Errors are always reported.
    pub signaled: bool,
    /// The verbs `IBV_SEND_FENCE` flag: the WR starts at the responder no
    /// earlier than the end of every earlier READ, atomic and FLUSH *of its
    /// own doorbell*. On hardware the fence covers the QP's earlier
    /// doorbells too; here it does not, since a caller that needs one of
    /// their outcomes has harvested its completion before it posts.
    /// Earlier WRITEs and SENDs are not waited for; a WR behind a failed
    /// one is flushed, fenced or not.
    pub fence: bool,
}

impl SendWr {
    /// Creates a signalled work request.
    pub fn new(wr_id: WrId, op: SendOp) -> Self {
        SendWr {
            wr_id,
            op,
            signaled: true,
            fence: false,
        }
    }

    /// Creates an unsignalled work request (no success completion).
    pub fn unsignaled(wr_id: WrId, op: SendOp) -> Self {
        SendWr {
            wr_id,
            op,
            signaled: false,
            fence: false,
        }
    }
}

/// A receive-side work request: a buffer for one incoming SEND (or the
/// completion slot for one WRITE_WITH_IMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvWr {
    /// Caller-chosen id echoed in the completion.
    pub wr_id: WrId,
    /// Buffer that an incoming SEND payload is scattered into.
    pub sge: Sge,
}

impl RecvWr {
    /// Creates a receive work request.
    pub fn new(wr_id: WrId, sge: Sge) -> Self {
        RecvWr { wr_id, sge }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RKey;

    #[test]
    fn payload_len() {
        assert_eq!(Payload::Inline(vec![1, 2, 3]).len(), 3);
        assert!(Payload::Inline(Vec::new()).is_empty());
        assert_eq!(Payload::Sge(Sge::new(LKey(1), 0, 64)).len(), 64);
    }

    #[test]
    fn op_names() {
        let remote = RemoteAddr::new(RKey(1), 0);
        let local = Sge::new(LKey(1), 0, 8);
        assert_eq!(SendOp::Read { local, remote }.name(), "READ");
        assert_eq!(
            SendOp::FetchAdd {
                local,
                remote,
                add: 1
            }
            .name(),
            "FAA"
        );
    }

    #[test]
    fn wr_constructors_set_signaled() {
        let op = SendOp::Send {
            payload: Payload::Inline(vec![0]),
            imm: None,
        };
        assert!(SendWr::new(1, op.clone()).signaled);
        assert!(!SendWr::unsignaled(1, op).signaled);
    }

    /// No constructor fences, and the flag shares the word `signaled`
    /// pads out: a WR is its id and op plus one word, as before the flag.
    #[test]
    fn fence_is_off_by_default_and_does_not_grow_a_wr() {
        use std::mem::size_of;
        let op = SendOp::Flush {
            remote: RemoteAddr::new(RKey(1), 0),
            len: 8,
        };
        assert!(!SendWr::new(1, op.clone()).fence && !SendWr::unsignaled(1, op).fence);
        assert_eq!(
            size_of::<SendWr>(),
            size_of::<WrId>() + size_of::<SendOp>() + 8
        );
    }
}
