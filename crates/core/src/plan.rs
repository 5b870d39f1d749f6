//! The client's protocol decisions, as pure functions of plain values:
//! where an op goes (staged window or direct chain, and why), where the
//! chain starts, how an op persists and whether it then releases its lock,
//! which shape a read takes, what a fetched cache frame is worth, and what
//! fits one doorbell window. [`crate::client`] gathers the facts and posts
//! the verbs; nothing here touches an endpoint, so the tests build no
//! cluster.

use crate::addr::{GlobalAddr, GlobalPtr, MemClass};
use crate::config::Consistency;
use crate::error::GengarError;
use crate::layout::{lockword, SlotHeader, SLOT_HEADER, SLOT_TAIL};

/// A batch op's kind. An atomic whose verb an earlier attempt `applied`
/// has only its flush left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
    Atomic { applied: bool },
    Lock,
    Unlock,
    LockWord,
    Drain,
}

/// A writer lock this client holds: the locked word, and whether a write
/// took it for itself (its chain releases it) rather than the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hold {
    pub word: u64,
    pub own: bool,
}

/// Where an op goes: into a staged window, or down the direct chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Stage,
    Direct(Why),
}

/// Why an op walks the direct chain: it is no write (only the chain runs
/// atomics and lock ops), a `Seqlock` write, its ring is degraded or
/// absent, or its payload is over the slot or over the tenant's staged cap
/// (it could never reserve, so it sheds instead of waiting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Why {
    Chain,
    Seqlock,
    Degraded,
    NoProxy,
    OverSlot,
    OverTenantCap,
}

/// The staging ring of an op's connection: none (no proxy), one that kept
/// faulting (bypassed until a reconnect), or a healthy one whose slots
/// hold `slot` payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ring {
    Absent,
    Degraded,
    Healthy { slot: u64 },
}

/// Routes an op of `len` payload bytes; `fits_cap`: the payload fits the
/// tenant's staged cap.
pub fn route(op: Op, c: Consistency, ring: Ring, len: u64, fits_cap: bool) -> Route {
    let why = match ring {
        _ if op != Op::Write => Why::Chain,
        _ if c == Consistency::Seqlock => Why::Seqlock,
        Ring::Degraded => Why::Degraded,
        Ring::Absent => Why::NoProxy,
        Ring::Healthy { slot } if len > slot => Why::OverSlot,
        _ if !fits_cap => Why::OverTenantCap,
        _ => return Route::Stage,
    };
    Route::Direct(why)
}

/// Records one staged window holds: the window depth, the ring's slots and
/// the gather lanes an op area of `area` bytes fits bound it. With `true`,
/// the area fits no lane and a window of one gathers in the writer's own.
pub fn stage_window(depth: usize, slots: usize, area: u64, slot_bytes: u64) -> (usize, bool) {
    match (area / slot_bytes) as usize {
        0 => (1, true),
        fit => (depth.min(slots).min(fit), false),
    }
}

/// Whether a staged write of `len` bytes joins a window already planning
/// `bytes`: a window holds one write per object and no more than the
/// tenant's staged cap (0: none). If not, the window posts first.
pub fn joins_staged(same_object: bool, bytes: u64, len: u64, cap: u64) -> bool {
    !same_object && (cap == 0 || bytes + len <= cap)
}

/// Whether a read costing `wrs` WRs and `need` lane bytes joins a window
/// of `n` WRs over `used` bytes, under the window `depth` and an op area
/// of `area` bytes. The first read always does.
pub fn joins_reads(n: usize, wrs: usize, depth: usize, used: u64, need: u64, area: u64) -> bool {
    n == 0 || (n + wrs <= depth && used + need <= area)
}

/// The verb a direct-chain op has on the wire or posts next. `Write` is
/// the payload chunks, then the flush RPC unless the op persists by FLUSH
/// under the last chunk's doorbell ([`persist`]), with a fenced unlock
/// behind it ([`releases`]); an atomic or a `lock` writes no chunk, so its
/// `Write` is the flush RPC alone. `Unlock` is `unlock`, or a write's
/// release after its flush RPC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DirectStep {
    ReadWord,
    Cas,
    Atomic,
    #[default]
    Write,
    Unlock,
}

/// How a chain op begins: at a step, or settled at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Start {
    Step(DirectStep),
    Settle(Result<(), GengarError>),
}

/// Where the chain starts for `op` while this client holds `held` on the
/// object and last saw it unlocked at `known`, and the hold after the
/// start. A `Seqlock` write locks first unless it holds the lock; the lock
/// CAS expects `known` if there is one, else the word is READ first
/// ([`lock_step`]). `lock` locks the same way, or adopts a lock it finds
/// held (one a failed write left behind becomes the caller's), with the
/// flush RPC if that lock is the object's first: the write may have failed
/// before its own. `unlock` with nothing held is refused; an atomic posts
/// its verb, or only its flush once the verb was applied.
///
/// # Panics
///
/// On a read or a drain, which never walk the chain.
pub fn chain_start(
    op: Op,
    c: Consistency,
    held: Option<Hold>,
    known: Option<u64>,
) -> (Start, Option<Hold>) {
    let step = match (op, held) {
        (Op::Write, None) if c == Consistency::Seqlock => lock_step(known),
        (Op::Write | Op::Atomic { applied: true }, _) => DirectStep::Write,
        (Op::Atomic { applied: false }, _) => DirectStep::Atomic,
        (Op::Lock, Some(hold)) => {
            let adopted = Some(Hold { own: false, ..hold });
            let start = match persist(op, c, adopted) {
                Persist::None => Start::Settle(Ok(())),
                _ => Start::Step(DirectStep::Write),
            };
            return (start, adopted);
        }
        (Op::Lock, None) => lock_step(known),
        (Op::LockWord, _) => DirectStep::ReadWord,
        (Op::Unlock, Some(_)) => DirectStep::Unlock,
        (Op::Unlock, None) => {
            let refused = GengarError::ProtocolViolation("unlock without lock");
            return (Start::Settle(Err(refused)), None);
        }
        (Op::Read | Op::Drain, _) => unreachable!("not a chain op"),
    };
    (Start::Step(step), held)
}

/// A lock's first step: the CAS, expecting the unlocked word this client
/// last saw of the object, or the READ that learns the word. The CAS is
/// atomic, so a won guess leaves what READ-then-CAS leaves, and a lost one
/// returns the word the READ would have ([`lost_cas`]).
pub fn lock_step(known: Option<u64>) -> DirectStep {
    match known {
        Some(word) if !lockword::is_locked(word) => DirectStep::Cas,
        _ => DirectStep::ReadWord,
    }
}

/// What follows a lost lock CAS, every branch but `GiveUp` expecting the
/// unlocked word after the one the CAS returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LostCas {
    /// The lost CAS expected a remembered word: it stood in for the READ
    /// it skipped, so the CAS goes again at once, with no retry counted.
    Again,
    /// A lock retry, the `tries`th: the group parks, then CASes again.
    Park { tries: u32 },
    /// The `limit`th lock retry: the op is refused as contended.
    GiveUp,
}

/// The step after a lost lock CAS whose expectation was a remembered word
/// (`guess`) or a READ's, after `tries` retries, with `limit` allowed.
pub fn lost_cas(guess: bool, tries: u32, limit: u32) -> LostCas {
    match tries + 1 {
        _ if guess => LostCas::Again,
        tries if tries >= limit => LostCas::GiveUp,
        tries => LostCas::Park { tries },
    }
}

/// How a chain op makes its change durable: not at all, by an RDMA FLUSH
/// of the written range under the last chunk's doorbell, or by the flush
/// RPC (which also drops the object's cached frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persist {
    None,
    Flush,
    Rpc,
}

/// How `op` persists while this client holds `held` on the object. A
/// write persists one-sided under `Seqlock` once the lock word it holds
/// has left version 0. A frame of a version-0 object carries stamp 0,
/// which `None` readers accept unchecked, so the first lock of an object —
/// a write's or a `lock`'s — has the server invalidate its frames by RPC;
/// after that every frame is stamped and readers see the moved word
/// instead. Atomics (remote atomics mutate NVM without persistence) and
/// `None` writes always flush by RPC.
pub fn persist(op: Op, c: Consistency, held: Option<Hold>) -> Persist {
    let past_v0 = held.map(|h| lockword::version(h.word) != 0);
    match op {
        Op::Write if c == Consistency::Seqlock && past_v0 == Some(true) => Persist::Flush,
        Op::Write | Op::Atomic { .. } => Persist::Rpc,
        Op::Lock if past_v0 == Some(false) => Persist::Rpc,
        _ => Persist::None,
    }
}

/// Whether and where the chain unlocks once the op persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// It does not: the caller's lock stays held, and a `lock` or an
    /// atomic has nothing to release.
    No,
    /// A fenced unlock WRITE at the end of the FLUSH's doorbell: the fence
    /// starts it at the responder only once the FLUSH has finished there.
    Fenced,
    /// Its own doorbell, once the flush RPC answered: an RPC has no fence
    /// to ride.
    AfterRpc,
}

/// Whether and where the chain unlocks once `op` persisted: a write
/// releases a lock it took for itself (this attempt or a failed earlier
/// one), behind the FLUSH if it persists by one ([`persist`]).
pub fn releases(op: Op, c: Consistency, held: Option<Hold>) -> Release {
    if op != Op::Write || !held.is_some_and(|h| h.own) {
        return Release::No;
    }
    match persist(op, c, held) {
        Persist::Flush => Release::Fenced,
        _ => Release::AfterRpc,
    }
}

/// What a planned read fetches into its lane: the whole cache frame at
/// `slot`, with `word` the lock word behind it under the same doorbell
/// (`Seqlock`); the lock word alone behind a frame already in the lane
/// (`Stamp`, a `None` reader's second READ of a stamped frame); payload
/// bytes straight from NVM; or the seqlock triple `[word][payload][word]`,
/// valid if the words are equal and unlocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    Cached { slot: GlobalAddr, word: bool },
    Stamp,
    Plain,
    Versioned,
}

impl ReadKind {
    /// Whether the lane holds the lock word behind a frame.
    pub fn word(self) -> bool {
        matches!(self, ReadKind::Cached { word: true, .. } | ReadKind::Stamp)
    }

    /// Work requests one posting of this read costs against the window.
    pub fn wrs(self) -> usize {
        match self {
            ReadKind::Versioned => 3,
            ReadKind::Cached { word: true, .. } => 2,
            _ => 1,
        }
    }

    /// Lane bytes for `len` bytes of an object of `size` in an op area of
    /// `area` bytes: a frame and the word behind it, the payload, or the
    /// payload between two words. A larger read arrives in chunks.
    pub fn lane(self, size: u64, len: u64, area: u64) -> u64 {
        match self {
            ReadKind::Cached { .. } | ReadKind::Stamp => SLOT_HEADER + size + SLOT_TAIL + 8,
            ReadKind::Plain => len,
            ReadKind::Versioned => len + 16,
        }
        .min(area)
    }
}

/// A read's facts: whether it is versioned, the bytes it reads, whether
/// this client holds the object's lock, the remap entry's slot, and
/// whether a read or its own write found that frame outdated.
#[derive(Debug, Clone, Copy)]
pub struct Known {
    pub versioned: bool,
    pub len: u64,
    pub held: bool,
    pub frame: Option<u64>,
    pub stale: bool,
}

/// How an object is read from NVM. The holder of its writer lock reads
/// plainly even under `Seqlock`: no other writer can be active, and the
/// lock bit it set itself would otherwise never clear.
pub fn nvm_read(c: Consistency, held: bool) -> ReadKind {
    match c {
        Consistency::Seqlock if !held => ReadKind::Versioned,
        _ => ReadKind::Plain,
    }
}

/// The shape of a read of `ptr` in an op area of `area` bytes, and whether its remap entry names no usable frame (the caller
/// drops the entry and counts a reject). A versioned read is always the
/// triple. Frames validate as a whole, so the cache serves only a read
/// covering most of the object (small probes into large ones are cheaper
/// from NVM), and not from a frame a write outdated.
pub fn read_shape(c: Consistency, ptr: GlobalPtr, area: u64, k: Known) -> (ReadKind, bool) {
    let nvm = match k.versioned {
        true => ReadKind::Versioned,
        false => nvm_read(c, k.held),
    };
    let cacheable = !k.versioned && k.len * 2 >= ptr.size && !k.stale;
    match k.frame.filter(|_| cacheable).map(GlobalAddr::from_raw) {
        None => (nvm, false),
        Some(Some(slot))
            if slot.class() == MemClass::DramCache
                && ReadKind::Stamp.lane(ptr.size, k.len, u64::MAX) <= area =>
        {
            let word = c == Consistency::Seqlock;
            (ReadKind::Cached { slot, word }, false)
        }
        Some(_) => (nvm, true),
    }
}

/// What a fetched cache frame is worth: its bytes (`Fresh`); nothing yet,
/// a stamp to compare with the lock word (`Unchecked`); nothing now, as a
/// writer holds the lock taken at the frame's stamp and refreshes the
/// frame before it unlocks (`Locked`); nothing until a writer or the epoch
/// refreshes it, as a write moved the word past its stamp (`Stale`);
/// nothing, torn, recycled or mid-update (`Invalid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameVerdict {
    Fresh,
    Stale,
    Locked,
    Unchecked,
    Invalid,
}

/// Judges a frame of `ptr` by its header `h`, its tail version and the
/// lock word fetched behind it, if one was. FaRM-style first: tag and
/// length, even head version, tail matching head. Then the stamp, the lock
/// word the copy was taken at: words only grow, so a stamp equal to a word
/// fetched after the frame means no write landed since the copy. A zero
/// stamp — a version-0 object — passes without the word: the first lock
/// of an object invalidates its frames by RPC ([`persist`]).
pub fn frame_verdict(h: &SlotHeader, ptr: GlobalPtr, tail: u64, word: Option<u64>) -> FrameVerdict {
    let whole = h.tag == ptr.addr.raw() && h.len == ptr.size && h.version.is_multiple_of(2);
    match word {
        _ if !whole || tail != h.version => FrameVerdict::Invalid,
        None if h.stamp == lockword::INIT => FrameVerdict::Fresh,
        None => FrameVerdict::Unchecked,
        Some(word) if word == h.stamp => FrameVerdict::Fresh,
        Some(word) if word == lockword::locked(h.stamp) => FrameVerdict::Locked,
        Some(_) => FrameVerdict::Stale,
    }
}

/// The read a frame's verdict leaves: none when the frame served, the
/// lock word alone when its stamp is unchecked, else the NVM read.
pub fn reread(verdict: FrameVerdict, c: Consistency, held: bool) -> Option<ReadKind> {
    match verdict {
        FrameVerdict::Fresh => None,
        FrameVerdict::Unchecked => Some(ReadKind::Stamp),
        FrameVerdict::Stale | FrameVerdict::Locked | FrameVerdict::Invalid => {
            Some(nvm_read(c, held))
        }
    }
}

/// What a `Seqlock` write puts into its object's cache frame while it
/// holds the lock, after its payload and FLUSH and ahead of its fenced
/// unlock: the odd head version first, then the payload with the tail
/// `even` behind it, then the head's `even` version and `stamp` last. The
/// stamp is the word the unlock publishes, so readers take the frame once
/// the word is released and not before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameUpdate {
    pub odd: u64,
    pub even: u64,
    pub stamp: u64,
}

/// Whether a `Seqlock` write of `len` bytes at `offset` of `ptr`, holding
/// the locked word `held`, refreshes the frame whose header `h` its lock
/// doorbell fetched behind the CAS (`None`: it knew no frame). The server
/// re-tags, drops and rewrites a stamped frame only while it holds the
/// frame's lock word, and the writer holds it from before the fetch to its
/// unlock, so a header tagged with the object and of its size is the
/// object's frame until then. Never at version 0, or into a stamp-0 frame:
/// the first lock drops those by RPC. The tail follows the payload in one
/// WRITE, so the write must reach the object's end; one that starts past
/// 0 keeps the frame's other bytes, so the frame must be whole and stamped
/// with the word the lock was taken at.
pub fn frame_update(
    h: Option<&SlotHeader>,
    ptr: GlobalPtr,
    held: u64,
    offset: u64,
    len: u64,
) -> Option<FrameUpdate> {
    let h = h?;
    let taken_at = lockword::with_version(lockword::version(held));
    let owned = h.tag == ptr.addr.raw() && h.len == ptr.size && h.stamp != lockword::INIT;
    let keeps_rest = offset == 0 || (h.stamp == taken_at && h.version.is_multiple_of(2));
    if lockword::version(held) == 0 || !owned || offset + len != ptr.size || !keeps_rest {
        return None;
    }
    let even = (h.version | 1) + 1;
    Some(FrameUpdate {
        odd: even - 1,
        even,
        stamp: lockword::release(held),
    })
}

/// Whether a versioned triple validates: its words are equal and unlocked,
/// and a later chunk's match the first chunk's (`first`).
pub fn triple_stable(before: u64, after: u64, first: Option<u64>) -> bool {
    !lockword::is_locked(before) && before == after && first.is_none_or(|w| w == before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SLOT_TAIL;

    const NONE: Consistency = Consistency::None;
    const SEQ: Consistency = Consistency::Seqlock;

    /// The lock states a chain op can meet, in the order of the table's
    /// columns: not held, held at version 0 (taken by a write, by the
    /// caller), held past version 0 (by a write, by the caller).
    const HOLDS: [Option<Hold>; 5] = [
        None,
        Some(Hold { word: 1, own: true }),
        Some(Hold {
            word: 1,
            own: false,
        }),
        Some(Hold { word: 7, own: true }),
        Some(Hold {
            word: 7,
            own: false,
        }),
    ];

    /// What a row expects of one lock state: where the chain starts
    /// (`Ok` / `Refused`: settled at once), how the op then persists, and
    /// whether and where the chain releases the lock.
    type Cell = (&'static str, Persist, Release);

    fn start_name(start: &Start) -> &'static str {
        match start {
            Start::Step(DirectStep::ReadWord) => "ReadWord",
            Start::Step(DirectStep::Cas) => "Cas",
            Start::Step(DirectStep::Atomic) => "Atomic",
            Start::Step(DirectStep::Write) => "Write",
            Start::Step(DirectStep::Unlock) => "Unlock",
            Start::Settle(Ok(())) => "Ok",
            Start::Settle(Err(GengarError::ProtocolViolation(_))) => "Refused",
            Start::Settle(Err(e)) => panic!("unexpected refusal {e:?}"),
        }
    }

    /// Every chain op × consistency mode × lock state: the start, the
    /// persist rule on the hold the start leaves, and the release rule. A
    /// write's own lock is released by a fenced WRITE behind its FLUSH, or
    /// by its own doorbell after the flush RPC.
    #[test]
    fn chain_table() {
        use Persist::{Flush, Rpc};
        use Release::{AfterRpc, Fenced, No};
        let n = Persist::None;
        let write = [
            ("Write", Rpc, No),
            ("Write", Rpc, AfterRpc),
            ("Write", Rpc, No),
        ];
        let rows: [(Op, Consistency, [Cell; 5]); 12] = [
            (
                Op::Write,
                NONE,
                [write[0], write[1], write[2], write[1], write[2]],
            ),
            (
                Op::Write,
                SEQ,
                [
                    ("ReadWord", Rpc, No),
                    ("Write", Rpc, AfterRpc),
                    ("Write", Rpc, No),
                    ("Write", Flush, Fenced),
                    ("Write", Flush, No),
                ],
            ),
            (
                Op::Atomic { applied: false },
                NONE,
                [("Atomic", Rpc, No); 5],
            ),
            (Op::Atomic { applied: false }, SEQ, [("Atomic", Rpc, No); 5]),
            (Op::Atomic { applied: true }, NONE, [("Write", Rpc, No); 5]),
            (Op::Atomic { applied: true }, SEQ, [("Write", Rpc, No); 5]),
            (
                Op::Lock,
                NONE,
                [
                    ("ReadWord", n, No),
                    ("Write", Rpc, No),
                    ("Write", Rpc, No),
                    ("Ok", n, No),
                    ("Ok", n, No),
                ],
            ),
            (
                Op::Lock,
                SEQ,
                [
                    ("ReadWord", n, No),
                    ("Write", Rpc, No),
                    ("Write", Rpc, No),
                    ("Ok", n, No),
                    ("Ok", n, No),
                ],
            ),
            (
                Op::Unlock,
                NONE,
                [
                    ("Refused", n, No),
                    ("Unlock", n, No),
                    ("Unlock", n, No),
                    ("Unlock", n, No),
                    ("Unlock", n, No),
                ],
            ),
            (
                Op::Unlock,
                SEQ,
                [
                    ("Refused", n, No),
                    ("Unlock", n, No),
                    ("Unlock", n, No),
                    ("Unlock", n, No),
                    ("Unlock", n, No),
                ],
            ),
            (Op::LockWord, NONE, [("ReadWord", n, No); 5]),
            (Op::LockWord, SEQ, [("ReadWord", n, No); 5]),
        ];
        for (op, c, cells) in rows {
            for (held, (start, persists, frees)) in HOLDS.into_iter().zip(cells) {
                let row = format!("{op:?} {c:?} {held:?}");
                let (got, after) = chain_start(op, c, held, None);
                assert_eq!(start_name(&got), start, "{row}");
                // `lock` adopts a held lock as the caller's; nothing else
                // changes the hold.
                let adopted = held
                    .filter(|_| op == Op::Lock)
                    .map(|h| Hold { own: false, ..h });
                assert_eq!(after, adopted.or(held), "{row}");
                assert_eq!(persist(op, c, after), persists, "{row}");
                assert_eq!(releases(op, c, after), frees, "{row}");
            }
        }
    }

    /// A remembered unlocked word moves only the lock's start: a `Seqlock`
    /// write or a `lock` that holds nothing CASes at once. With a lock
    /// held, or a word that is locked, every start is the table's.
    #[test]
    fn known_word_starts_the_lock_at_the_cas() {
        let ops = [
            Op::Write,
            Op::Atomic { applied: false },
            Op::Atomic { applied: true },
            Op::Lock,
            Op::Unlock,
            Op::LockWord,
        ];
        let (unlocked, locked) = (lockword::with_version(3), lockword::locked(6));
        for op in ops {
            for c in [NONE, SEQ] {
                for held in HOLDS {
                    let row = format!("{op:?} {c:?} {held:?}");
                    let (start, hold) = chain_start(op, c, held, None);
                    let locks = held.is_none() && (op == Op::Lock || (op == Op::Write && c == SEQ));
                    if locks {
                        assert_eq!(start, Start::Step(DirectStep::ReadWord), "{row}");
                    }
                    let guessed = chain_start(op, c, held, Some(unlocked));
                    let want = match locks {
                        true => Start::Step(DirectStep::Cas),
                        false => start.clone(),
                    };
                    assert_eq!(guessed, (want, hold), "{row}");
                    let stale = chain_start(op, c, held, Some(locked));
                    assert_eq!(stale, (start, hold), "{row}: a locked word");
                }
            }
        }
    }

    /// A lost guess is the READ it skipped: it CASes again at once and
    /// counts nothing. A lost CAS that expected a READ's word counts a
    /// retry and parks, and the `limit`th refuses the op.
    #[test]
    fn lost_cas_table() {
        use LostCas::{Again, GiveUp, Park};
        for (guess, tries, limit, want) in [
            (true, 0, 1, Again),
            (true, 0, 8, Again),
            (true, 7, 8, Again),
            (false, 0, 8, Park { tries: 1 }),
            (false, 6, 8, Park { tries: 7 }),
            (false, 7, 8, GiveUp),
            (false, 0, 1, GiveUp),
        ] {
            let row = format!("guess={guess} tries={tries} limit={limit}");
            assert_eq!(lost_cas(guess, tries, limit), want, "{row}");
        }
        // The next CAS expects the returned word if it is unlocked, else
        // the word its holder releases it to.
        assert_eq!(lockword::next_unlocked(6), 6);
        assert_eq!(lockword::next_unlocked(7), lockword::release(7));
    }

    /// The lock CAS's win: the hold it records decides the rest of the
    /// chain. A write's own lock persists by RPC at version 0, then
    /// releases in its own doorbell, and past it by FLUSH, with the fenced
    /// unlock in the FLUSH's doorbell; a `lock` ends at the CAS past
    /// version 0.
    #[test]
    fn cas_win_persists_by_version() {
        for (word, op, persists, releases_after) in [
            (1, Op::Write, Persist::Rpc, Release::AfterRpc),
            (7, Op::Write, Persist::Flush, Release::Fenced),
            (1, Op::Lock, Persist::Rpc, Release::No),
            (7, Op::Lock, Persist::None, Release::No),
        ] {
            let hold = Some(Hold {
                word,
                own: op == Op::Write,
            });
            assert_eq!(persist(op, SEQ, hold), persists, "{op:?} {word}");
            assert_eq!(releases(op, SEQ, hold), releases_after, "{op:?} {word}");
        }
    }

    #[test]
    fn reads_and_drains_persist_nothing_and_never_stage() {
        for op in [Op::Read, Op::Drain] {
            for c in [NONE, SEQ] {
                for held in HOLDS {
                    assert_eq!(persist(op, c, held), Persist::None);
                    assert_eq!(releases(op, c, held), Release::No);
                }
                let ring = Ring::Healthy { slot: 64 };
                assert_eq!(route(op, c, ring, 8, true), Route::Direct(Why::Chain));
            }
        }
    }

    /// Every op kind, both modes, a healthy ring, then each reason a write
    /// goes direct: degraded, no proxy, oversize, over the tenant cap.
    #[test]
    fn route_table() {
        let all = [
            Op::Read,
            Op::Write,
            Op::Atomic { applied: false },
            Op::Atomic { applied: true },
            Op::Lock,
            Op::Unlock,
            Op::LockWord,
            Op::Drain,
        ];
        for op in all {
            for c in [NONE, SEQ] {
                let want = match (op, c) {
                    (Op::Write, NONE) => Route::Stage,
                    (Op::Write, _) => Route::Direct(Why::Seqlock),
                    _ => Route::Direct(Why::Chain),
                };
                let ring = Ring::Healthy { slot: 64 };
                assert_eq!(route(op, c, ring, 64, true), want, "{op:?} {c:?}");
            }
        }
        let healthy = Ring::Healthy { slot: 64 };
        let w = |ring, len, fits_cap| route(Op::Write, NONE, ring, len, fits_cap);
        assert_eq!(w(Ring::Degraded, 8, true), Route::Direct(Why::Degraded));
        assert_eq!(w(Ring::Absent, 8, true), Route::Direct(Why::NoProxy));
        assert_eq!(w(healthy, 65, true), Route::Direct(Why::OverSlot));
        assert_eq!(w(healthy, 65, false), Route::Direct(Why::OverSlot));
        assert_eq!(w(healthy, 33, false), Route::Direct(Why::OverTenantCap));
        assert_eq!(w(healthy, 64, true), Route::Stage);
        // A `Seqlock` write goes under its lock whatever the ring's state.
        for ring in [Ring::Absent, Ring::Degraded, healthy] {
            let s = route(Op::Write, SEQ, ring, 1 << 20, false);
            assert_eq!(s, Route::Direct(Why::Seqlock));
        }
    }

    #[test]
    fn window_rules() {
        // Bound by the depth, the ring's slots, or the lanes the area fits;
        // an area that fits no lane still stages a window of one.
        assert_eq!(stage_window(16, 64, 1 << 20, 4096), (16, false));
        assert_eq!(stage_window(16, 4, 1 << 20, 4096), (4, false));
        assert_eq!(stage_window(16, 64, 3 * 4096 + 1, 4096), (3, false));
        assert_eq!(stage_window(16, 64, 4095, 4096), (1, true));
        // One write per object, and at most the tenant's cap per window.
        assert!(joins_staged(false, 0, 100, 0));
        assert!(!joins_staged(true, 0, 100, 0));
        assert!(joins_staged(false, 60, 40, 100));
        assert!(!joins_staged(false, 61, 40, 100));
        // The first read joins whatever it costs; later ones fit the depth
        // and the op area.
        assert!(joins_reads(0, 3, 1, 0, 1 << 30, 64));
        assert!(joins_reads(5, 3, 8, 32, 32, 64));
        assert!(!joins_reads(6, 3, 8, 0, 0, 64));
        assert!(!joins_reads(5, 3, 8, 32, 33, 64));
    }

    fn obj(size: u64) -> GlobalPtr {
        GlobalPtr::new(GlobalAddr::new(0, MemClass::Nvm, 4096), size)
    }

    fn known(held: bool, frame: Option<u64>, stale: bool) -> Known {
        let (versioned, len) = (false, 64);
        Known {
            versioned,
            len,
            held,
            frame,
            stale,
        }
    }

    #[test]
    fn read_shape_table() {
        let slot = GlobalAddr::new(0, MemClass::DramCache, 512);
        let frame = Some(slot.raw());
        let area = 1 << 16;
        let (p, v) = (ReadKind::Plain, ReadKind::Versioned);
        let cached = |word| ReadKind::Cached { slot, word };
        for (c, versioned, len, k, want) in [
            // No frame: the NVM read, plain unless `Seqlock` and not held.
            (NONE, false, 64, known(false, None, false), (p, false)),
            (SEQ, false, 64, known(false, None, false), (v, false)),
            (SEQ, false, 64, known(true, None, false), (p, false)),
            // A versioned read is the triple whatever it knows.
            (NONE, true, 64, known(true, frame, false), (v, false)),
            (SEQ, true, 64, known(true, frame, false), (v, false)),
            // A frame serves a read covering most of the object, fetching
            // the word behind it under `Seqlock`.
            (
                NONE,
                false,
                64,
                known(false, frame, false),
                (cached(false), false),
            ),
            (
                SEQ,
                false,
                32,
                known(false, frame, false),
                (cached(true), false),
            ),
            (
                SEQ,
                false,
                32,
                known(true, frame, false),
                (cached(true), false),
            ),
            // A small probe or an outdated frame reads NVM, entry kept.
            (NONE, false, 31, known(false, frame, false), (p, false)),
            (SEQ, false, 64, known(false, frame, true), (v, false)),
        ] {
            let got = read_shape(
                c,
                obj(64),
                area,
                Known {
                    versioned,
                    len,
                    ..k
                },
            );
            assert_eq!(got, want, "{c:?} versioned={versioned} len={len} {k:?}");
        }
        // An entry naming no cache slot, or a frame the op area cannot
        // hold, is rejected.
        let nvm_slot = Some(GlobalAddr::new(0, MemClass::Nvm, 512).raw());
        let bad_class = Some(0xFF << 48);
        for frame in [nvm_slot, bad_class] {
            let got = read_shape(SEQ, obj(64), area, known(false, frame, false));
            assert_eq!(got, (v, true), "{frame:?}");
        }
        let tight = SLOT_HEADER + 64 + SLOT_TAIL + 8;
        let fits = read_shape(NONE, obj(64), tight, known(false, frame, false));
        assert_eq!(fits, (cached(false), false));
        let over = read_shape(NONE, obj(64), tight - 1, known(false, frame, false));
        assert_eq!(over, (p, true));
    }

    #[test]
    fn read_kind_costs() {
        let slot = GlobalAddr::new(0, MemClass::DramCache, 0);
        let frame = SLOT_HEADER + 100 + SLOT_TAIL + 8;
        for (kind, wrs, word, lane) in [
            (ReadKind::Cached { slot, word: true }, 2, true, frame),
            (ReadKind::Cached { slot, word: false }, 1, false, frame),
            (ReadKind::Stamp, 1, true, frame),
            (ReadKind::Plain, 1, false, 60),
            (ReadKind::Versioned, 3, false, 76),
        ] {
            assert_eq!((kind.wrs(), kind.word()), (wrs, word), "{kind:?}");
            assert_eq!(kind.lane(100, 60, 1 << 20), lane, "{kind:?}");
            assert_eq!(kind.lane(100, 60, 10), 10, "{kind:?}: clamped to the area");
        }
    }

    /// FaRM-style frame checks, then the stamp against the fetched word.
    #[test]
    fn frame_verdict_table() {
        let ptr = obj(64);
        let hdr = |tag, version, stamp, len| SlotHeader {
            tag,
            version,
            stamp,
            len,
        };
        let tag = ptr.addr.raw();
        use FrameVerdict::{Fresh, Invalid, Locked, Stale, Unchecked};
        for (h, tail, word, want) in [
            // Whole, stamp 0 (version-0 object): fresh without the word.
            (hdr(tag, 4, 0, 64), 4, None, Fresh),
            // Whole, stamped: needs the word, which must equal the stamp.
            (hdr(tag, 4, 6, 64), 4, None, Unchecked),
            (hdr(tag, 4, 6, 64), 4, Some(6), Fresh),
            (hdr(tag, 4, 6, 64), 4, Some(8), Stale),
            // Locked at the stamp: its holder refreshes the frame. Locked
            // past it: stale whatever the holder does.
            (hdr(tag, 4, 6, 64), 4, Some(7), Locked),
            (hdr(tag, 4, 6, 64), 4, Some(9), Stale),
            (hdr(tag, 4, 0, 64), 4, Some(0), Fresh),
            (hdr(tag, 4, 0, 64), 4, Some(2), Stale),
            // Recycled (other tag), wrong length, mid-update (odd
            // version) and torn (tail behind head): never served.
            (hdr(tag + 64, 4, 0, 64), 4, None, Invalid),
            (hdr(tag, 4, 0, 32), 4, None, Invalid),
            (hdr(tag, 5, 0, 64), 5, Some(0), Invalid),
            (hdr(tag, 6, 6, 64), 4, Some(6), Invalid),
        ] {
            assert_eq!(
                frame_verdict(&h, ptr, tail, word),
                want,
                "{h:?} tail={tail} {word:?}"
            );
        }
        // What each verdict reads next.
        assert_eq!(reread(Fresh, SEQ, false), None);
        assert_eq!(reread(Unchecked, NONE, false), Some(ReadKind::Stamp));
        assert_eq!(reread(Stale, SEQ, false), Some(ReadKind::Versioned));
        assert_eq!(reread(Locked, SEQ, false), Some(ReadKind::Versioned));
        assert_eq!(reread(Invalid, SEQ, true), Some(ReadKind::Plain));
        assert_eq!(reread(Invalid, NONE, false), Some(ReadKind::Plain));
    }

    /// The frame a `Seqlock` write refreshes under its lock: known or not,
    /// the object's or a recycled slot's, the object's first lock, and
    /// writes that do or do not reach its end.
    #[test]
    fn frame_update_table() {
        let ptr = obj(64);
        let tag = ptr.addr.raw();
        let hdr = |tag, version, stamp, len| SlotHeader {
            tag,
            version,
            stamp,
            len,
        };
        // Locked at word 6 (version 3): the unlock publishes 8.
        let (held, stamp) = (lockword::locked(6), 8);
        let update = |odd, even| Some(FrameUpdate { odd, even, stamp });
        for (h, held, offset, len, want) in [
            // The frame the remap named, current: the whole object, or
            // its tail end.
            (Some(hdr(tag, 4, 6, 64)), held, 0, 64, update(5, 6)),
            (Some(hdr(tag, 4, 6, 64)), held, 16, 48, update(5, 6)),
            // No frame known: nothing to refresh.
            (None, held, 0, 64, None),
            // The slot holds another object, or none (a cleared tag).
            (Some(hdr(tag + 64, 4, 6, 64)), held, 0, 64, None),
            (Some(hdr(0, 4, 6, 64)), held, 0, 64, None),
            (Some(hdr(tag, 4, 6, 32)), held, 0, 64, None),
            // Version 0: the first lock drops the frame by RPC instead,
            // and a stamp-0 frame belongs to a version-0 object.
            (Some(hdr(tag, 4, 0, 64)), lockword::locked(0), 0, 64, None),
            (Some(hdr(tag, 4, 0, 64)), held, 0, 64, None),
            // A whole write repairs a stale or torn frame...
            (Some(hdr(tag, 4, 2, 64)), held, 0, 64, update(5, 6)),
            (Some(hdr(tag, 5, 6, 64)), held, 0, 64, update(5, 6)),
            // ...a partial one keeps bytes it must find current, and one
            // that stops short of the end leaves the tail behind.
            (Some(hdr(tag, 4, 2, 64)), held, 16, 48, None),
            (Some(hdr(tag, 5, 6, 64)), held, 16, 48, None),
            (Some(hdr(tag, 4, 6, 64)), held, 0, 48, None),
        ] {
            let row = format!("{h:?} held={held} {offset}+{len}");
            assert_eq!(
                frame_update(h.as_ref(), ptr, held, offset, len),
                want,
                "{row}"
            );
        }
    }

    #[test]
    fn triple_validation() {
        assert!(triple_stable(4, 4, None));
        assert!(triple_stable(4, 4, Some(4)));
        assert!(!triple_stable(5, 5, None), "locked");
        assert!(!triple_stable(4, 6, None), "a write landed in between");
        assert!(
            !triple_stable(6, 6, Some(4)),
            "a write landed between chunks"
        );
    }
}
