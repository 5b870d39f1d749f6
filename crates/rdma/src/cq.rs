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
//!
//! A push wakes only a thread parked in [`CompletionQueue::wait`]: the
//! waiter count lives under the queue's mutex, so a push that finds no
//! waiter skips the wake-up syscall, and one that does always reaches it.
//! A poll of an empty queue reads one atomic and takes no lock, so a
//! harvester spinning on an idle queue never contends with its poster.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Threads parked in [`CompletionQueue::wait`]; a push notifies only
    /// while this is non-zero.
    waiters: usize,
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
    /// `inner.queue.len()`, stored (Release) under the mutex after every
    /// change and loaded (Acquire) without it. A lock-free reader only
    /// decides whether to take the lock: a stale zero defers a harvest to
    /// the next poll and loses no entry.
    len: AtomicUsize,
    available: Condvar,
}

impl CompletionQueue {
    /// Creates a CQ that can hold `capacity` unharvested completions.
    pub fn new(capacity: usize) -> Self {
        CompletionQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(CqInner::default()),
            len: AtomicUsize::new(0),
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
        self.len.store(inner.queue.len(), Ordering::Release);
        if inner.waiters > 0 {
            self.available.notify_all();
        }
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
        let mut out = Vec::new();
        if !self.is_empty() {
            self.harvest(max, Instant::now(), |wc| out.push(wc));
        }
        out
    }

    /// Hands up to `max` completions ready at `now` to `f`, in ready
    /// order, and returns how many. Allocates nothing; an empty queue
    /// returns at once without taking the lock.
    pub(crate) fn harvest(&self, max: usize, now: Instant, mut f: impl FnMut(Wc)) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut inner = self.inner.lock();
        let mut taken = 0;
        while taken < max && inner.queue.front().is_some_and(|(at, _)| *at <= now) {
            let (_, wc) = inner.queue.pop_front().expect("front checked");
            f(wc);
            taken += 1;
        }
        self.len.store(inner.queue.len(), Ordering::Release);
        taken
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
            inner.waiters += 1;
            self.available.wait_until(&mut inner, until);
            inner.waiters -= 1;
        }
        let now = Instant::now();
        let ready = inner
            .queue
            .iter()
            .take_while(|(at, _)| *at <= now)
            .count()
            .min(max);
        let out = inner.queue.drain(..ready).map(|(_, wc)| wc).collect();
        self.len.store(inner.queue.len(), Ordering::Release);
        out
    }

    /// Number of unharvested completions, including ones whose ready
    /// instant is still in the future.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Returns `true` if no completions are pending at all (counting
    /// not-yet-ready entries; an empty CQ means nothing is in flight).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// The waiter count must never lose a wake-up. A consumer parked in
    /// `wait` with a 5 s patience takes 10 000 completions pushed in
    /// bursts with random sub-microsecond gaps; after each burst the
    /// producer waits until the consumer has everything, so every burst
    /// ends in a push the consumer may have parked before. A lost wake-up
    /// sleeps out the 5 s patience and fails the consumer's assertion.
    #[test]
    fn wait_misses_no_push() {
        const N: u64 = 10_000;
        let cq = Arc::new(CompletionQueue::new(N as usize));
        let taken = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let consumer = {
            let (cq, taken) = (Arc::clone(&cq), Arc::clone(&taken));
            std::thread::spawn(move || {
                let mut next = 0;
                while next < N {
                    let got = cq.wait(64, Duration::from_secs(5));
                    assert!(!got.is_empty(), "wait timed out after {next} completions");
                    for wc in got {
                        assert_eq!(wc.wr_id, next);
                        next += 1;
                    }
                    taken.store(next, Ordering::Release);
                }
            })
        };
        let t0 = Instant::now();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut pushed = 0;
        while pushed < N {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let burst = (1 + rng % 8).min(N - pushed);
            for _ in 0..burst {
                let gap = Instant::now() + Duration::from_nanos(rng % 1000);
                while Instant::now() < gap {
                    std::hint::spin_loop();
                }
                assert!(cq.push_at(wc(pushed), Instant::now()));
                pushed += 1;
            }
            while taken.load(Ordering::Acquire) < pushed {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "consumer stuck at {} of {pushed}",
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
