//! Completion queues and work completions.
//!
//! Completions carry a *ready instant*: the simulated time at which the
//! operation finishes. The fabric executes a verb's data movement at post
//! time but computes its completion deadline from the virtual-time cursor
//! model, pushing the `Wc` with `CompletionQueue::push_at`. Harvesting
//! ([`CompletionQueue::poll`] / [`CompletionQueue::wait`]) only releases
//! entries whose ready instant has passed, so a single thread can hold
//! many operations in flight — across several connections — and observe
//! their completions in simulated-arrival order, exactly like draining a
//! real CQ.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::types::{Qpn, WrId};

/// Status of a work completion (subset of `ibv_wc_status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WcStatus {
    /// Operation completed successfully.
    Success,
    /// The remote side rejected the access (bad rkey, permissions, bounds).
    RemoteAccessError,
    /// Receiver had no posted receive and RNR retries were exhausted.
    RnrRetryExceeded,
    /// The peer was unreachable (partition / node removed); RC gives up
    /// after transport retries.
    TransportError,
    /// The work request was flushed because the QP entered the error state.
    WrFlushed,
}

impl WcStatus {
    /// Returns whether this status is [`WcStatus::Success`].
    pub fn is_ok(self) -> bool {
        self == WcStatus::Success
    }
}

/// Opcode recorded in a work completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WcOpcode {
    /// SEND completed (sender side).
    Send,
    /// RDMA WRITE completed (sender side).
    RdmaWrite,
    /// RDMA READ completed (sender side).
    RdmaRead,
    /// Atomic compare-and-swap completed (sender side).
    CompSwap,
    /// Atomic fetch-and-add completed (sender side).
    FetchAdd,
    /// RDMA FLUSH completed (sender side).
    Flush,
    /// Incoming SEND consumed a receive (receiver side).
    Recv,
    /// Incoming WRITE_WITH_IMM consumed a receive (receiver side).
    RecvRdmaWithImm,
}

/// A work completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wc {
    /// The id of the work request this completion reports on.
    pub wr_id: WrId,
    /// Completion status.
    pub status: WcStatus,
    /// Operation kind.
    pub opcode: WcOpcode,
    /// Bytes transferred (receive: payload length).
    pub byte_len: u64,
    /// Immediate data, if the peer sent any.
    pub imm: Option<u32>,
    /// The queue pair this completion belongs to.
    pub qpn: Qpn,
}

#[derive(Debug, Default)]
struct CqInner {
    /// Entries ordered by ready instant (stable for equal instants, so
    /// same-batch completions keep submission order).
    queue: VecDeque<(Instant, Wc)>,
    overflowed: bool,
}

/// A completion queue.
///
/// Completions are appended by the fabric when operations finish and
/// harvested with [`CompletionQueue::poll`] (non-blocking, like
/// `ibv_poll_cq`) or [`CompletionQueue::wait`] (blocking with timeout,
/// standing in for a completion channel).
#[derive(Debug)]
pub struct CompletionQueue {
    capacity: usize,
    inner: Mutex<CqInner>,
    available: Condvar,
}

impl CompletionQueue {
    /// Creates a CQ that can hold `capacity` unharvested completions.
    pub fn new(capacity: usize) -> Self {
        CompletionQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(CqInner::default()),
            available: Condvar::new(),
        }
    }

    /// Capacity in completions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a completion that is ready immediately. Returns `false`
    /// (and marks the CQ overflowed) if capacity was exceeded — a fatal
    /// condition on real hardware.
    #[cfg(test)]
    pub(crate) fn push(&self, wc: Wc) -> bool {
        self.push_at(wc, Instant::now())
    }

    /// Appends a completion that becomes harvestable at `ready`. Entries
    /// are kept sorted by ready instant; per-batch cursors are close to
    /// monotone, so the insertion scan from the back is O(1) in the
    /// common case.
    pub(crate) fn push_at(&self, wc: Wc, ready: Instant) -> bool {
        let mut inner = self.inner.lock();
        if inner.queue.len() >= self.capacity {
            inner.overflowed = true;
            return false;
        }
        let pos = inner
            .queue
            .iter()
            .rposition(|(at, _)| *at <= ready)
            .map_or(0, |p| p + 1);
        inner.queue.insert(pos, (ready, wc));
        self.available.notify_all();
        true
    }

    /// Returns whether the CQ has ever overflowed.
    pub fn overflowed(&self) -> bool {
        self.inner.lock().overflowed
    }

    /// The ready instant of the *latest* entry (ready or not), if any.
    /// A waiter that can only act once a whole doorbell batch has
    /// completed sleeps until this: one long, sleepable wait instead of
    /// one short (busy-spun) wait per staggered completion.
    pub fn last_ready_at(&self) -> Option<Instant> {
        self.inner.lock().queue.back().map(|(at, _)| *at)
    }

    /// Harvests up to `max` ready completions without blocking. Entries
    /// whose ready instant lies in the future stay queued.
    pub fn poll(&self, max: usize) -> Vec<Wc> {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let ready = inner
            .queue
            .iter()
            .take_while(|(at, _)| *at <= now)
            .count()
            .min(max);
        inner.queue.drain(..ready).map(|(_, wc)| wc).collect()
    }

    /// Blocks until at least one completion is ready (or `timeout`
    /// expires) and harvests up to `max`.
    pub fn wait(&self, max: usize, timeout: Duration) -> Vec<Wc> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            let now = Instant::now();
            let front = inner.queue.front().map(|(at, _)| *at);
            if let Some(at) = front {
                if at <= now {
                    break;
                }
            }
            if now >= deadline {
                return Vec::new();
            }
            // Wake at whichever comes first: the caller's deadline or the
            // front entry becoming ready. A push of an earlier entry
            // notifies the condvar, re-evaluating the wake target.
            let until = front.map_or(deadline, |at| at.min(deadline));
            self.available.wait_until(&mut inner, until);
        }
        let now = Instant::now();
        let ready = inner
            .queue
            .iter()
            .take_while(|(at, _)| *at <= now)
            .count()
            .min(max);
        inner.queue.drain(..ready).map(|(_, wc)| wc).collect()
    }

    /// Number of unharvested completions, including ones whose ready
    /// instant is still in the future.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Returns `true` if no completions are pending at all (counting
    /// not-yet-ready entries; an empty CQ means nothing is in flight).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn wc(id: WrId) -> Wc {
        Wc {
            wr_id: id,
            status: WcStatus::Success,
            opcode: WcOpcode::Send,
            byte_len: 0,
            imm: None,
            qpn: Qpn(1),
        }
    }

    #[test]
    fn poll_drains_in_order() {
        let cq = CompletionQueue::new(8);
        for i in 0..5 {
            assert!(cq.push(wc(i)));
        }
        assert_eq!(cq.len(), 5);
        let got = cq.poll(3);
        assert_eq!(got.iter().map(|w| w.wr_id).collect::<Vec<_>>(), [0, 1, 2]);
        let got = cq.poll(10);
        assert_eq!(got.iter().map(|w| w.wr_id).collect::<Vec<_>>(), [3, 4]);
        assert!(cq.is_empty());
    }

    #[test]
    fn overflow_is_sticky() {
        let cq = CompletionQueue::new(2);
        assert!(cq.push(wc(0)));
        assert!(cq.push(wc(1)));
        assert!(!cq.push(wc(2)));
        assert!(cq.overflowed());
        assert_eq!(cq.len(), 2);
    }

    #[test]
    fn wait_times_out_when_empty() {
        let cq = CompletionQueue::new(2);
        let got = cq.wait(1, Duration::from_millis(20));
        assert!(got.is_empty());
    }

    #[test]
    fn wait_wakes_on_push() {
        let cq = Arc::new(CompletionQueue::new(4));
        let cq2 = Arc::clone(&cq);
        let t = std::thread::spawn(move || cq2.wait(4, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        cq.push(wc(9));
        let got = t.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].wr_id, 9);
    }

    #[test]
    fn status_is_ok() {
        assert!(WcStatus::Success.is_ok());
        assert!(!WcStatus::TransportError.is_ok());
    }

    #[test]
    fn deferred_entry_hidden_until_ready() {
        let cq = CompletionQueue::new(4);
        let ready = Instant::now() + Duration::from_millis(30);
        assert!(cq.push_at(wc(1), ready));
        // Pending but not yet harvestable.
        assert_eq!(cq.len(), 1);
        assert!(!cq.is_empty());
        assert!(cq.poll(4).is_empty());
        // wait() sleeps through the ready instant and releases it.
        let got = cq.wait(4, Duration::from_secs(2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].wr_id, 1);
        assert!(Instant::now() >= ready);
    }

    #[test]
    fn deferred_entries_release_in_ready_order() {
        let cq = CompletionQueue::new(8);
        let now = Instant::now();
        // Pushed out of ready order; queue sorts by ready instant.
        assert!(cq.push_at(wc(2), now + Duration::from_millis(10)));
        assert!(cq.push_at(wc(1), now + Duration::from_millis(2)));
        assert!(cq.push_at(wc(3), now + Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(25));
        let got = cq.poll(8);
        assert_eq!(got.iter().map(|w| w.wr_id).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn wait_honours_timeout_before_ready_instant() {
        let cq = CompletionQueue::new(4);
        assert!(cq.push_at(wc(7), Instant::now() + Duration::from_secs(10)));
        let t0 = Instant::now();
        let got = cq.wait(1, Duration::from_millis(20));
        assert!(got.is_empty());
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(cq.len(), 1, "deferred entry must survive the timeout");
    }
}
