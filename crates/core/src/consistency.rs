//! Multi-user sharing with data-consistency guarantees.
//!
//! Gengar lets several users map the same objects. The consistency design
//! (abstract claim 4) combines three mechanisms, all built on one-sided
//! verbs so the server CPU stays off the data path:
//!
//! 1. **Writer locks** — every object carries a lock/version word
//!    ([`crate::layout::lockword`]) in its NVM header. Writers acquire it
//!    with remote CAS, release it with a version bump.
//! 2. **Seqlock reads** — readers fetch `header ‖ payload ‖ header` under
//!    one doorbell; a changed version or a set lock bit retries. Cached
//!    copies carry their own version + checksum frame.
//! 3. **Write-through for shared objects** — under `Consistency::Seqlock`
//!    writes bypass the proxy ring and go straight to NVM followed by a
//!    flush+invalidate RPC *before* the lock is released, so the next lock
//!    holder reads the committed value. (The proxy fast path remains for
//!    `Consistency::None`, where objects are private to one user.)
//!
//! The lock and read phases live in [`crate::client::GengarClient`]'s
//! reactor; this module provides the retry policy.

use std::time::Duration;

/// Bounded exponential backoff for contended CAS/read loops.
///
/// Spin a few times, then yield with exponentially growing (capped) sleeps.
/// Deterministic (no RNG) so tests are reproducible.
#[derive(Debug, Clone)]
pub struct Backoff {
    attempt: u32,
    spin_limit: u32,
    max_sleep: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new(6, Duration::from_micros(500))
    }
}

impl Backoff {
    /// Creates a policy that spins `spin_limit` times before sleeping, with
    /// sleeps capped at `max_sleep`.
    pub fn new(spin_limit: u32, max_sleep: Duration) -> Self {
        Backoff {
            attempt: 0,
            spin_limit,
            max_sleep,
        }
    }

    /// Number of waits performed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Waits once (spin or sleep) and records the attempt.
    pub fn wait(&mut self) {
        match self.sleep(self.attempt) {
            Duration::ZERO => {
                for _ in 0..(1 << self.attempt.min(10)) {
                    std::hint::spin_loop();
                }
            }
            sleep => std::thread::sleep(sleep),
        }
        self.attempt += 1;
    }

    /// How long wait number `attempt` sleeps: zero while the policy spins.
    fn sleep(&self, attempt: u32) -> Duration {
        match attempt.checked_sub(self.spin_limit) {
            Some(over) => Duration::from_micros(1u64 << over.min(10)).min(self.max_sleep),
            None => Duration::ZERO,
        }
    }

    /// The default policy's schedule for a caller that parks instead of
    /// blocking (the client reactor): how long to stay away after the
    /// `tries`-th lost lock CAS or rejected seqlock read.
    pub(crate) fn park_after(tries: u32) -> Duration {
        Backoff::default().sleep(tries.saturating_sub(1))
    }

    /// Resets the policy after a success.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_counts_attempts() {
        let mut b = Backoff::new(2, Duration::from_micros(10));
        assert_eq!(b.attempts(), 0);
        for _ in 0..5 {
            b.wait();
        }
        assert_eq!(b.attempts(), 5);
        b.reset();
        assert_eq!(b.attempts(), 0);
    }

    #[test]
    fn sleeps_are_capped() {
        let mut b = Backoff::new(0, Duration::from_micros(50));
        // Drive it far past the cap; total time must stay small.
        let t0 = std::time::Instant::now();
        for _ in 0..20 {
            b.wait();
        }
        assert!(t0.elapsed() < Duration::from_millis(100));
    }
}
