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
//! Every phase — the lock-word READ and CAS, the write-through, the
//! unlock WRITE, the seqlock triple — runs on
//! [`crate::client::GengarClient`]'s reactor, the public `lock` / `unlock`
//! included; this module provides the contention schedule they park on.

use std::time::Duration;

/// How long the reactor parks a group after its `tries`-th lost lock CAS
/// or rejected seqlock read: nothing for the first six (the holder is
/// likely about to release), then 1 µs doubling per try, capped at
/// 500 µs. Deterministic (no RNG) so tests are reproducible; no retry
/// budget is charged, because nothing failed.
pub(crate) fn park_after(tries: u32) -> Duration {
    const FREE_TRIES: u32 = 6;
    const MAX_PARK: Duration = Duration::from_micros(500);
    match tries.saturating_sub(1).checked_sub(FREE_TRIES) {
        Some(over) => Duration::from_micros(1 << over.min(10)).min(MAX_PARK),
        None => Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_schedule_is_free_then_doubles_to_a_cap() {
        for tries in 0..=6 {
            assert_eq!(park_after(tries), Duration::ZERO, "try {tries}");
        }
        assert_eq!(park_after(7), Duration::from_micros(1));
        assert_eq!(park_after(8), Duration::from_micros(2));
        assert_eq!(park_after(15), Duration::from_micros(256));
        assert_eq!(park_after(16), Duration::from_micros(500));
        assert_eq!(park_after(u32::MAX), Duration::from_micros(500));
    }
}
