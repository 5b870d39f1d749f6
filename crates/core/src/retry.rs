//! Client-side fault recovery policy: error classification, exponential
//! backoff with jitter, and per-operation deadlines.
//!
//! Every public `GengarClient` data operation runs as a loop of *attempts*.
//! When an attempt fails, [`classify`] decides what the failure means:
//!
//! * [`Disposition::Retry`] — transient; the connection is still usable.
//!   [`RdmaError::Timeout`]: a verb was posted, no completion arrived in
//!   time, and the queue pair is still in RTS (the request was lost in
//!   flight) — re-posting on the same QP is safe. And
//!   [`GengarError::Throttled`]: the tenant is over its QoS budget and the
//!   bucket refills with time.
//! * [`Disposition::Reconnect`] — the connection is broken. Error
//!   completions move the QP to the Error state, so every later verb on it
//!   is doomed; the client must re-run the mount handshake on fresh queue
//!   pairs before anything can succeed. A server that refuses new
//!   connections ([`GengarError::ServerUnavailable`]) lands here too so
//!   that the client keeps re-dialling until the server restarts or the
//!   deadline expires.
//! * [`Disposition::Failover`] — the *machine* is gone, not just the
//!   connection: [`RdmaError::NodeNotFound`] is the fabric's certificate
//!   that the node was detached ([`gengar_rdma::Fabric::remove_node`]) and
//!   no reconnect can ever reach it again. The client should re-mount the
//!   server's objects on its replica instead of re-dialling. Reconnect-class
//!   failures also *escalate* to failover once the reconnect budget is
//!   exhausted — a server that never comes back is indistinguishable from a
//!   dead one; the classification just gets there faster when the fabric
//!   already knows.
//! * [`Disposition::Fatal`] — retrying cannot help: bounds errors, protocol
//!   violations, allocation failures, contention limits. Surface
//!   immediately.
//!
//! Pacing is tracked per operation by [`RetryState`]: exponential backoff
//! from [`BASE_BACKOFF`] to [`MAX_BACKOFF`], ±50% deterministic jitter to
//! decorrelate clients, the [`ClientConfig::max_retries`] attempt cap, and
//! the [`ClientConfig::op_deadline`] wall-clock budget that bounds the whole
//! loop — an operation never hangs past its deadline, it returns the last
//! underlying error.

use std::time::{Duration, Instant};

use gengar_rdma::RdmaError;

use crate::config::ClientConfig;
use crate::error::GengarError;

/// First backoff sleep after a retryable fault; doubles per retry. Ten
/// times a healthy verb round trip (a few µs on the emulated fabric), so a
/// transient has cleared before the retry; the whole doubling schedule of
/// the default 64 retries sums to about 0.3 s, inside the 2 s deadline.
const BASE_BACKOFF: Duration = Duration::from_micros(50);

/// Ceiling of the doubling, reached at the eighth retry: a longer sleep
/// would only delay noticing a healed link, and the op deadline, not the
/// backoff, is what bounds a retry storm.
const MAX_BACKOFF: Duration = Duration::from_millis(5);

/// Patience for a single posted verb or RPC receive wait: a twentieth of
/// the operation deadline (100 ms at the default 2 s), so several lost
/// completions plus a reconnect fit inside one operation budget, clamped
/// so healthy completions are never misread as losses (5 ms) and a dead
/// connection is found in a fraction of a long budget (500 ms).
pub(crate) fn attempt_timeout(op_deadline: Duration) -> Duration {
    (op_deadline / 20).clamp(Duration::from_millis(5), Duration::from_millis(500))
}

/// What a failed attempt means for the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Transient loss; retry the attempt on the same connection.
    Retry,
    /// The connection is dead (or the server refused us); re-run the mount
    /// handshake before retrying.
    Reconnect,
    /// The server's machine is gone from the fabric; reconnecting is
    /// hopeless. Promote its backup and re-mount the objects there.
    Failover,
    /// Permanent; return the error to the caller unchanged.
    Fatal,
}

/// Classifies an operation failure for the recovery loop.
#[must_use]
pub(crate) fn classify(err: &GengarError) -> Disposition {
    match err {
        GengarError::Rdma(RdmaError::Timeout) => Disposition::Retry,
        // Over-budget tenants should back off and retry on the same
        // connection: the token bucket refills with time, nothing about
        // the connection is broken.
        GengarError::Throttled => Disposition::Retry,
        GengarError::Rdma(
            RdmaError::QpError(_)
            | RdmaError::CompletionError(_)
            | RdmaError::InvalidQpState { .. }
            | RdmaError::NotConnected,
        ) => Disposition::Reconnect,
        GengarError::ServerUnavailable(_) => Disposition::Reconnect,
        // The fabric's certificate that the node itself was detached:
        // `QueuePair::connect` checks the remote node before transitioning,
        // so this surfaces from the reconnect handshake when the machine is
        // dead. No amount of re-dialling will reach it.
        GengarError::Rdma(RdmaError::NodeNotFound(_)) => Disposition::Failover,
        _ => Disposition::Fatal,
    }
}

/// Mutable state of one operation's recovery loop.
#[derive(Debug)]
pub(crate) struct RetryState {
    deadline: Instant,
    /// Attempt cap (number of *recoveries*, not counting the first try).
    max_retries: u32,
    attempt: u32,
    rng: u64,
    escalated: bool,
}

impl RetryState {
    /// Starts one operation's recovery loop under `cfg`'s deadline and
    /// retry cap. `salt` seeds the jitter stream; pass something
    /// client-unique so concurrent clients desynchronise.
    pub(crate) fn start(cfg: &ClientConfig, salt: u64) -> RetryState {
        RetryState {
            deadline: Instant::now() + cfg.op_deadline,
            max_retries: cfg.max_retries,
            attempt: 0,
            rng: salt | 1,
            escalated: false,
        }
    }

    /// Recoveries performed so far.
    pub(crate) fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Time left in the operation budget (zero once expired).
    fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: cheap, deterministic, good enough for jitter.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The backoff that charging attempt `n` would sleep, before jitter.
    fn raw_backoff(attempt: u32) -> Duration {
        BASE_BACKOFF
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(MAX_BACKOFF)
    }

    /// Charges one failed attempt: checks the attempt cap and deadline and
    /// returns the instant the jittered exponential backoff ends. The
    /// concurrent issue engine parks the failed group until then while the
    /// event loop keeps driving everyone else; blocking callers wait it
    /// out ([`RetryState::charge`]).
    ///
    /// # Errors
    ///
    /// Returns `err` unchanged when the budget is exhausted — the caller's
    /// loop simply propagates it.
    pub(crate) fn charge_deferred(&mut self, err: GengarError) -> Result<Instant, GengarError> {
        if self.attempt >= self.max_retries {
            return Err(err);
        }
        let backoff = Self::raw_backoff(self.attempt);
        // ±50% jitter, deterministic per (salt, attempt).
        let jittered =
            backoff / 2 + backoff.mul_f64((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
        let remaining = self.remaining();
        if remaining.is_zero() {
            return Err(err);
        }
        self.attempt += 1;
        gengar_telemetry::Tracer::global().event("retry.backoff", self.attempt as u64);
        Ok(Instant::now() + jittered.min(remaining))
    }

    /// [`RetryState::charge_deferred`] for a caller with nothing else to
    /// drive: sleeps the backoff out before returning.
    ///
    /// # Errors
    ///
    /// Returns `err` unchanged when the budget is exhausted, exactly like
    /// [`RetryState::charge_deferred`].
    pub(crate) fn charge(&mut self, err: GengarError) -> Result<(), GengarError> {
        let resume_at = self.charge_deferred(err)?;
        std::thread::sleep(resume_at.saturating_duration_since(Instant::now()));
        Ok(())
    }

    /// One-shot failover grant for this operation: the first call returns
    /// `true`, every later call `false`. The recovery loop escalates a
    /// dead server to its replica at most once per operation — a second
    /// machine loss inside one op surfaces the error instead of chasing
    /// replicas forever.
    pub(crate) fn escalate(&mut self) -> bool {
        !std::mem::replace(&mut self.escalated, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gengar_rdma::WcStatus;

    #[test]
    fn classification_matches_failure_model() {
        use Disposition::*;
        let cases: Vec<(GengarError, Disposition)> = vec![
            (GengarError::Rdma(RdmaError::Timeout), Retry),
            (GengarError::Throttled, Retry),
            (
                GengarError::Rdma(RdmaError::QpError(WcStatus::RnrRetryExceeded)),
                Reconnect,
            ),
            (
                GengarError::Rdma(RdmaError::CompletionError(WcStatus::TransportError)),
                Reconnect,
            ),
            (GengarError::Rdma(RdmaError::NotConnected), Reconnect),
            (GengarError::ServerUnavailable(3), Reconnect),
            (
                GengarError::Rdma(RdmaError::NodeNotFound(gengar_rdma::NodeId(4))),
                Failover,
            ),
            (
                GengarError::LockContended(crate::addr::GlobalAddr::new(
                    0,
                    crate::addr::MemClass::Nvm,
                    64,
                )),
                Fatal,
            ),
            (GengarError::ProtocolViolation("x"), Fatal),
        ];
        for (err, want) in cases {
            assert_eq!(classify(&err), want, "classify({err:?})");
        }
    }

    /// Every error either side of the RPC boundary maps to exactly one
    /// disposition — the match in [`classify`] is total, so the point of
    /// this test is to pin *which* bucket each variant lands in and force a
    /// conscious decision when a new variant is added. One constructed value
    /// per variant of [`GengarError`], including one per nested
    /// [`RdmaError`] variant.
    #[test]
    fn every_error_variant_has_exactly_one_disposition() {
        use gengar_hybridmem::HybridMemError;
        use gengar_rdma::{NodeId, Qpn, RKey};
        use Disposition::*;

        let addr = crate::addr::GlobalAddr::new(0, crate::addr::MemClass::Nvm, 64);
        let mem = HybridMemError::OutOfBounds {
            offset: 8,
            len: 16,
            capacity: 4,
        };
        let rdma_cases: Vec<(RdmaError, Disposition)> = vec![
            (
                RdmaError::InvalidQpState {
                    state: "Reset",
                    operation: "post_send",
                },
                Reconnect,
            ),
            (RdmaError::NotConnected, Reconnect),
            (RdmaError::NodeNotFound(NodeId(2)), Failover),
            (RdmaError::QpNotFound(NodeId(2), Qpn(7)), Fatal),
            (RdmaError::UnknownLKey(9), Fatal),
            (RdmaError::UnknownRKey(RKey(9)), Fatal),
            (
                RdmaError::LocalAccessOutOfBounds {
                    offset: 1,
                    len: 2,
                    mr_len: 1,
                },
                Fatal,
            ),
            (RdmaError::InlineTooLarge { len: 512, max: 64 }, Fatal),
            (RdmaError::SendQueueFull, Fatal),
            (RdmaError::RecvQueueFull, Fatal),
            (RdmaError::Memory(mem.clone()), Fatal),
            (RdmaError::ConnectionRefused("peer bound"), Fatal),
            (RdmaError::Timeout, Retry),
            (
                RdmaError::CompletionError(WcStatus::RemoteAccessError),
                Reconnect,
            ),
            (RdmaError::QpError(WcStatus::TransportError), Reconnect),
        ];
        let cases: Vec<(GengarError, Disposition)> = vec![
            (GengarError::UnknownServer(1), Fatal),
            (GengarError::OutOfMemory { requested: 1 << 30 }, Fatal),
            (
                GengarError::ObjectTooLarge {
                    requested: 2,
                    max: 1,
                },
                Fatal,
            ),
            (GengarError::InvalidAddress(addr), Fatal),
            (
                GengarError::AccessOutOfBounds {
                    addr,
                    offset: 0,
                    len: 9,
                    size: 8,
                },
                Fatal,
            ),
            (GengarError::DoubleFree(addr), Fatal),
            (GengarError::ProtocolViolation("bad tag"), Fatal),
            (GengarError::LockContended(addr), Fatal),
            (GengarError::ReadContended(addr), Fatal),
            (GengarError::AtomicInBatch("cas_u64"), Fatal),
            (GengarError::Memory(mem), Fatal),
            (GengarError::ServerUnavailable(0), Reconnect),
            (GengarError::Throttled, Retry),
        ];
        for (err, want) in rdma_cases
            .into_iter()
            .map(|(e, d)| (GengarError::Rdma(e), d))
            .chain(cases)
        {
            let got = classify(&err);
            assert_eq!(got, want, "classify({err:?})");
            // "exactly one": the dispositions are mutually exclusive by
            // construction (classify returns a single enum value); assert
            // it is one of the four known buckets so a future variant
            // cannot silently invent a fifth.
            assert!(matches!(got, Retry | Reconnect | Failover | Fatal));
        }
    }

    /// A client configuration with the given retry cap and deadline.
    fn budget(max_retries: u32, op_deadline: Duration) -> ClientConfig {
        ClientConfig {
            max_retries,
            op_deadline,
            ..ClientConfig::default()
        }
    }

    /// Failover on a *Reconnect*-class failure only happens after the
    /// reconnect budget is exhausted: while `charge` keeps granting
    /// attempts, the client re-dials; the escalation point is exactly the
    /// first `Err` return.
    #[test]
    fn failover_waits_for_reconnect_budget_exhaustion() {
        let mut state = RetryState::start(&budget(3, Duration::from_secs(10)), 11);
        let broken = || GengarError::Rdma(RdmaError::QpError(WcStatus::TransportError));
        assert_eq!(classify(&broken()), Disposition::Reconnect);
        let mut granted = 0;
        while state.charge(broken()).is_ok() {
            granted += 1;
        }
        assert_eq!(granted, 3, "budget grants every retry");
        // Only now — with the budget gone — may the client escalate a
        // Reconnect disposition to failover. A NodeNotFound certificate
        // skips the wait entirely.
        assert_eq!(
            classify(&GengarError::Rdma(RdmaError::NodeNotFound(
                gengar_rdma::NodeId(0)
            ))),
            Disposition::Failover
        );
    }

    #[test]
    fn backoff_grows_and_saturates() {
        let seq: Vec<Duration> = (0..10).map(RetryState::raw_backoff).collect();
        assert_eq!(seq[0], BASE_BACKOFF);
        assert_eq!(seq[1], BASE_BACKOFF * 2);
        assert_eq!(seq[6], BASE_BACKOFF * 64);
        assert_eq!(seq[7], MAX_BACKOFF, "saturates at the cap");
        assert_eq!(seq[9], MAX_BACKOFF);
        assert_eq!(RetryState::raw_backoff(u32::MAX), MAX_BACKOFF);
    }

    #[test]
    fn attempt_cap_is_enforced() {
        let mut state = RetryState::start(&budget(2, Duration::from_secs(10)), 7);
        assert!(state.charge(GengarError::Rdma(RdmaError::Timeout)).is_ok());
        assert!(state.charge(GengarError::Rdma(RdmaError::Timeout)).is_ok());
        let err = state
            .charge(GengarError::Rdma(RdmaError::Timeout))
            .unwrap_err();
        assert!(matches!(err, GengarError::Rdma(RdmaError::Timeout)));
        assert_eq!(state.attempts(), 2);
    }

    #[test]
    fn deadline_bounds_the_loop() {
        let mut state = RetryState::start(&budget(u32::MAX, Duration::from_millis(20)), 99);
        let start = Instant::now();
        let mut charges = 0u32;
        while state.charge(GengarError::Rdma(RdmaError::Timeout)).is_ok() {
            charges += 1;
            assert!(charges < 10_000, "deadline never tripped");
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "loop escaped its deadline"
        );
        assert!(charges > 0, "budget allowed no recovery at all");
    }

    #[test]
    fn jitter_is_deterministic_per_salt() {
        let cfg = ClientConfig::default();
        let mut a = RetryState::start(&cfg, 42);
        let mut b = RetryState::start(&cfg, 42);
        let (x, y) = (a.next_u64(), b.next_u64());
        assert_eq!(x, y);
        let mut c = RetryState::start(&cfg, 43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn attempt_timeout_is_a_fraction_of_the_deadline() {
        let deadline = ClientConfig::default().op_deadline;
        assert_eq!(attempt_timeout(deadline), deadline / 20);
        assert_eq!(
            attempt_timeout(Duration::from_millis(10)),
            Duration::from_millis(5)
        );
        assert_eq!(
            attempt_timeout(Duration::from_secs(60)),
            Duration::from_millis(500)
        );
    }
}
