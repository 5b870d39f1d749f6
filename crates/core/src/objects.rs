//! What a client knows of each object on one connection, one entry per
//! object base: the cache frame a mailbox named and whether it is outdated,
//! the store-buffer record of a staged write, and the lock it holds or the
//! unlocked word it last saw. A mailbox, a reconnect, a failover, a drain
//! barrier and `free` are each one operation on one connection's table.
//! Nothing here touches an endpoint: the tests build no cluster.

use std::collections::hash_map::Entry;

use gengar_rdma::FastMap;

use crate::layout::lockword;
use crate::plan::{FrameVerdict, Hold};
use crate::proxy::SLOTS_PER_RING;

/// Objects a table records a frame or a word for: a frame per 512 bytes of
/// one server's default 32 MiB cache. Past it a new object gets an entry
/// only for a hold or a record; nothing is evicted, so no held lock and no
/// un-drained write is forgotten.
pub const OBJECTS: usize = 65_536;

/// Drained records a table keeps for the next writes to reuse: a ring's
/// worth, as many as can stage between two drains.
const SPARE_RECORDS: usize = SLOTS_PER_RING as usize;

/// A staged write's record `seq`, kept for read-your-writes until drained.
#[derive(Debug)]
pub struct WriteBack {
    pub seq: u64,
    pub off: u64,
    pub data: Vec<u8>,
}

/// A cache frame's slot, and the seq of the mailbox under which a read or
/// a write found it outdated: by the next mailbox its epoch has re-copied
/// it, if no writer refreshed it first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    pub slot: u64,
    pub outdated_at: Option<u64>,
}

/// One object's entry; the record is boxed, as most entries are frames.
#[derive(Debug, Default)]
pub struct ObjState {
    pub frame: Option<Frame>,
    pub hold: Option<Hold>,
    pub word: Option<u64>,
    pub staged: Option<Box<WriteBack>>,
}

impl ObjState {
    fn is_empty(&self) -> bool {
        self.frame.is_none() && self.hold.is_none() && self.word.is_none() && self.staged.is_none()
    }

    fn outdate(&mut self, mailbox: Option<u64>) {
        if let Some(frame) = self.frame.as_mut() {
            frame.outdated_at = mailbox;
        }
    }
}

/// Whether an edit makes a missing entry: never, within [`OBJECTS`] (for a
/// frame or a word), or always (for a hold or a record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Make {
    Never,
    IfRoom,
    Always,
}

/// One connection's table, the seq of the last mailbox applied (0 at the
/// start of a tenure), the count of records and the drained records kept
/// for reuse, so a warm staged write allocates no record.
#[derive(Debug, Default)]
pub struct Objects {
    map: FastMap<u64, ObjState>,
    mailbox: u64,
    staged: usize,
    /// Boxed: the boxes are what a staged write reuses.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<WriteBack>>,
}

/// Keeps a dropped record for reuse while the spare list has room.
#[allow(clippy::vec_box)]
fn recycle(spare: &mut Vec<Box<WriteBack>>, record: Option<Box<WriteBack>>) {
    if let Some(record) = record.filter(|_| spare.len() < SPARE_RECORDS) {
        spare.push(record);
    }
}

impl Objects {
    pub fn get(&self, base: u64) -> Option<&ObjState> {
        self.map.get(&base)
    }

    pub fn mailbox(&self) -> u64 {
        self.mailbox
    }

    pub fn staged(&self) -> usize {
        self.staged
    }

    pub fn frames(&self) -> usize {
        self.map.values().filter(|st| st.frame.is_some()).count()
    }

    /// Whether `frame` was found outdated since the last mailbox.
    pub fn outdated(&self, frame: Frame) -> bool {
        frame.outdated_at == Some(self.mailbox)
    }

    /// Runs `f` on `base`'s entry, made as `make` allows, with whether it
    /// may carry a frame or a word: within the bound, or if it carries one
    /// already. One lookup, as `f` may empty the entry.
    fn edit<R>(
        &mut self,
        base: u64,
        make: Make,
        f: impl FnOnce(&mut ObjState, bool) -> R,
    ) -> Option<R> {
        let len = self.map.len();
        let (mut e, room) = match self.map.entry(base) {
            Entry::Occupied(e) => {
                let known = e.get().frame.is_some() || e.get().word.is_some();
                (e, known || len <= OBJECTS)
            }
            Entry::Vacant(e) if make == Make::Always || (make == Make::IfRoom && len < OBJECTS) => {
                (e.insert_entry(ObjState::default()), len < OBJECTS)
            }
            Entry::Vacant(_) => return None,
        };
        let had = e.get().staged.is_some();
        let out = f(e.get_mut(), room);
        self.staged = self.staged + usize::from(e.get().staged.is_some()) - usize::from(had);
        if e.get().is_empty() {
            e.remove();
        }
        Some(out)
    }

    /// Applies mailbox `seq`, whose zero slots drop frames; older outdated
    /// marks lapse.
    pub fn set_frames(&mut self, seq: u64, remaps: impl IntoIterator<Item = (u64, u64)>) {
        self.mailbox = seq;
        for (base, slot) in remaps {
            let frame = (slot != 0).then_some(Frame {
                slot,
                outdated_at: None,
            });
            let make = if slot == 0 { Make::Never } else { Make::IfRoom };
            self.edit(base, make, |st, room| st.frame = frame.filter(|_| room));
        }
    }

    pub fn drop_frame(&mut self, base: u64) {
        self.edit(base, Make::Never, |st, _| st.frame = None);
    }

    /// Remembers `word` of `base` if unlocked. Only `insert` makes a word:
    /// a read refreshes one, so a client that never locks keeps none.
    pub fn saw_word(&mut self, base: u64, word: u64, insert: bool) {
        if !lockword::is_locked(word) {
            let make = if insert { Make::IfRoom } else { Make::Never };
            self.edit(base, make, |st, room| {
                if st.word.is_some() || insert && room {
                    st.word = Some(word);
                }
            });
        }
    }

    /// Applies a fetched frame's verdict and the word fetched behind it;
    /// returns whether the lock is held. A frame locked at its stamp stays
    /// usable: its holder refreshes it.
    pub fn judged(&mut self, base: u64, verdict: FrameVerdict, word: Option<u64>) -> bool {
        let (mailbox, word) = (self.mailbox, word.filter(|&w| !lockword::is_locked(w)));
        let held = self.edit(base, Make::Never, |st, _| {
            match verdict {
                FrameVerdict::Stale => st.outdate(Some(mailbox)),
                FrameVerdict::Invalid => st.frame = None,
                FrameVerdict::Fresh | FrameVerdict::Locked | FrameVerdict::Unchecked => {}
            }
            if st.word.is_some() {
                st.word = word.or(st.word);
            }
            st.hold.is_some()
        });
        held == Some(true)
    }

    pub fn hold(&mut self, base: u64, hold: Hold) {
        self.edit(base, Make::Always, |st, _| st.hold = Some(hold));
    }

    /// Forgets the lock, whose release landed, for the word it released to.
    pub fn release(&mut self, base: u64) {
        self.edit(base, Make::Never, |st, room| {
            if let Some(hold) = st.hold.take() {
                st.word = room.then(|| lockword::release(hold.word));
            }
        });
    }

    /// Keeps staged write `seq`, refilling the object's record, or a
    /// drained one, in place.
    pub fn stage(&mut self, base: u64, seq: u64, off: u64, data: &[u8]) {
        let mut spare = self.spare.pop();
        self.edit(base, Make::Always, |st, _| {
            let wb = st.staged.get_or_insert_with(|| {
                spare.take().unwrap_or_else(|| {
                    Box::new(WriteBack {
                        seq,
                        off,
                        data: Vec::new(),
                    })
                })
            });
            (wb.seq, wb.off) = (seq, off);
            wb.data.clear();
            wb.data.extend_from_slice(data);
        });
        recycle(&mut self.spare, spare);
    }

    /// Drops the record, which its ring drained.
    pub fn drained(&mut self, base: u64) {
        let record = self.edit(base, Make::Never, |st, _| st.staged.take());
        recycle(&mut self.spare, record.flatten());
    }

    /// A direct write or an atomic changed the object under its frame and
    /// its record: the frame is outdated, unless the write `refreshed` it
    /// under its lock, which leaves it current.
    pub fn wrote(&mut self, base: u64, refreshed: bool) {
        let mailbox = (!refreshed).then_some(self.mailbox);
        let record = self.edit(base, Make::Never, |st, _| {
            st.outdate(mailbox);
            st.staged.take()
        });
        recycle(&mut self.spare, record.flatten());
    }

    /// Forgets a freed object.
    pub fn remove(&mut self, base: u64) {
        let record = self.map.remove(&base).and_then(|st| st.staged);
        self.staged -= usize::from(record.is_some());
        recycle(&mut self.spare, record);
    }

    /// Runs `clear` on every entry, keeping the records it hands back for
    /// reuse.
    fn sweep(&mut self, mut clear: impl FnMut(&mut ObjState) -> Option<Box<WriteBack>>) {
        let (staged, spare) = (&mut self.staged, &mut self.spare);
        self.map.retain(|_, st| {
            let record = clear(st);
            *staged -= usize::from(record.is_some());
            recycle(spare, record);
            !st.is_empty()
        });
    }

    /// Drops the records up to seq `drained`: all at `u64::MAX`, a drain
    /// barrier.
    pub fn retire_staged(&mut self, drained: u64) {
        self.sweep(|st| match &st.staged {
            Some(wb) if wb.seq <= drained => st.staged.take(),
            _ => None,
        });
    }

    /// Drops every frame: a failover.
    pub fn drop_frames(&mut self) {
        self.sweep(|st| {
            st.frame = None;
            None
        });
    }

    /// A reconnect: the frames go (the restarted server may re-assign
    /// them), the mailbox starts over and the records up to `durable`
    /// retire. The rest are staged again in seq order, through `stage`
    /// (object base, offset and bytes to the new seq).
    pub fn reconnected<E>(
        &mut self,
        durable: u64,
        mut stage: impl FnMut(u64, u64, &[u8]) -> Result<u64, E>,
    ) -> Result<(), E> {
        self.mailbox = 0;
        self.drop_frames();
        self.retire_staged(durable);
        let mut rest: Vec<_> = self
            .map
            .iter_mut()
            .filter_map(|(&base, st)| Some((base, st.staged.as_deref_mut()?)))
            .collect();
        rest.sort_unstable_by_key(|(_, wb)| wb.seq);
        for (base, wb) in rest {
            wb.seq = stage(base, wb.off, &wb.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOLD: Hold = Hold {
        word: 7,
        own: false,
    };

    /// An entry with every field set, at `base`.
    fn full(t: &mut Objects, base: u64) {
        t.set_frames(t.mailbox() + 1, [(base, 0x77)]);
        t.saw_word(base, 4, true);
        t.hold(base, HOLD);
        t.stage(base, 9, 0, &[1, 2, 3]);
    }

    #[test]
    fn dropping_frames_keeps_holds_records_and_words() {
        let mut t = Objects::default();
        full(&mut t, 64);
        t.set_frames(2, [(128, 0x88)]);
        t.drop_frames();
        let st = t.get(64).expect("pinned by the hold and the record");
        assert_eq!(st.frame, None);
        assert_eq!((st.hold, st.word), (Some(HOLD), Some(4)));
        assert_eq!(st.staged.as_ref().map(|wb| wb.seq), Some(9));
        assert!(t.get(128).is_none(), "a frame alone goes with it");
        assert_eq!((t.frames(), t.staged()), (0, 1));
    }

    #[test]
    fn a_new_mailbox_lapses_every_outdated_mark() {
        let mut t = Objects::default();
        t.set_frames(1, [(64, 0x77), (128, 0x88)]);
        t.wrote(64, false);
        assert!(!t.judged(128, FrameVerdict::Stale, None));
        let frame = |t: &Objects, base| t.get(base).and_then(|st| st.frame).unwrap();
        assert!(t.outdated(frame(&t, 64)) && t.outdated(frame(&t, 128)));
        // A mailbox that names neither object still lapses both marks.
        t.set_frames(2, []);
        assert!(!t.outdated(frame(&t, 64)) && !t.outdated(frame(&t, 128)));
        // An invalid frame goes; a zero slot drops the frame.
        t.judged(64, FrameVerdict::Invalid, None);
        t.set_frames(3, [(128, 0)]);
        assert_eq!(t.frames(), 0);
    }

    /// A write that refreshed the frame under its lock leaves it current,
    /// and clears an older outdated mark; a frame found locked at its
    /// stamp stays usable, as its holder refreshes it.
    #[test]
    fn a_refreshed_or_locked_frame_stays_usable() {
        let mut t = Objects::default();
        t.set_frames(1, [(64, 0x77), (128, 0x88)]);
        let frame = |t: &Objects, base| t.get(base).and_then(|st| st.frame).unwrap();
        t.wrote(64, false);
        assert!(t.outdated(frame(&t, 64)));
        t.wrote(64, true);
        assert!(!t.outdated(frame(&t, 64)));
        t.judged(128, FrameVerdict::Locked, Some(lockword::locked(6)));
        assert!(!t.outdated(frame(&t, 128)));
    }

    #[test]
    fn an_emptied_entry_is_removed() {
        let mut t = Objects::default();
        full(&mut t, 64);
        t.drop_frame(64);
        t.wrote(64, false);
        assert_eq!(t.staged(), 0, "a direct write drops the record");
        t.release(64);
        assert_eq!(t.get(64).and_then(|st| st.word), Some(lockword::release(7)));
        t.remove(64);
        assert!(t.get(64).is_none());
        // Each kind of content, alone, then cleared.
        t.stage(64, 1, 0, &[1]);
        t.drained(64);
        t.hold(64, HOLD);
        t.release(64);
        assert_eq!(t.get(64).and_then(|st| st.word), Some(lockword::release(7)));
        t.remove(64);
        t.set_frames(5, [(64, 0x77)]);
        t.judged(64, FrameVerdict::Invalid, Some(6));
        t.stage(128, 1, 0, &[1]);
        t.stage(192, 2, 0, &[1]);
        t.retire_staged(1);
        assert_eq!(t.staged(), 1);
        t.retire_staged(u64::MAX);
        assert_eq!((t.map.len(), t.staged()), (0, 0));
        // A locked word is never remembered, and a read makes no word.
        t.saw_word(64, 5, true);
        t.saw_word(64, 6, false);
        assert_eq!(t.map.len(), 0);
    }

    #[test]
    fn a_reconnect_keeps_the_undrained_records_in_seq_order() {
        let mut t = Objects::default();
        for (base, seq) in [(64, 5), (128, 3), (192, 8), (256, 2)] {
            t.stage(base, seq, 0, &[seq as u8]);
        }
        t.set_frames(4, [(64, 0x77), (320, 0x88)]);
        t.hold(320, HOLD);
        let mut again = Vec::new();
        let next = |base, _, data: &[u8]| {
            again.push((base, data[0]));
            Ok::<_, ()>(10 + again.len() as u64)
        };
        t.reconnected(2, next).unwrap();
        assert_eq!(again, [(128, 3), (64, 5), (192, 8)]);
        assert_eq!((t.mailbox(), t.frames(), t.staged()), (0, 0, 3));
        assert_eq!(t.get(320).and_then(|st| st.hold), Some(HOLD));
        assert_eq!(t.get(64).unwrap().staged.as_ref().unwrap().seq, 12);
    }

    /// Past the bound a frame or a word is not recorded for an object that
    /// has neither, while a hold or a record always is; unpinned, such an
    /// entry goes.
    #[test]
    fn the_bound_refuses_only_frames_and_words() {
        let mut t = Objects::default();
        let base = |i: usize| (i as u64 + 1) * 64;
        t.set_frames(1, (0..OBJECTS / 2).map(|i| (base(i), 0x1000)));
        for i in OBJECTS / 2..OBJECTS {
            t.saw_word(base(i), 0, true);
        }
        assert_eq!(t.map.len(), OBJECTS);
        let past = base(OBJECTS);
        t.set_frames(2, [(past, 0x1000)]);
        t.saw_word(past + 64, 0, true);
        assert_eq!(t.map.len(), OBJECTS);
        // Known objects still refresh within the bound.
        t.saw_word(base(0), 2, true);
        assert_eq!(t.get(base(0)).unwrap().word, Some(2));
        t.set_frames(3, [(base(OBJECTS - 1), 0x2000)]);
        assert_eq!(
            t.get(base(OBJECTS - 1)).unwrap().frame.map(|f| f.slot),
            Some(0x2000)
        );
        // Pins go past it, and unpinned they keep nothing.
        t.hold(past, HOLD);
        t.stage(past + 64, 1, 0, &[1]);
        assert_eq!((t.map.len(), t.staged()), (OBJECTS + 2, 1));
        t.saw_word(past, 2, true);
        t.set_frames(4, [(past + 64, 0x3000), (base(0), 0x3000)]);
        let (held, staged) = (t.get(past).unwrap(), t.get(past + 64).unwrap());
        assert_eq!(
            (held.word, staged.frame),
            (None, None),
            "nothing new past it"
        );
        // What an object knows already stays up to date.
        t.saw_word(base(1), 4, true);
        assert_eq!(t.get(base(0)).unwrap().frame.map(|f| f.slot), Some(0x3000));
        assert_eq!(t.get(base(1)).unwrap().word, Some(4));
        t.release(past);
        t.drained(past + 64);
        assert_eq!(t.map.len(), OBJECTS);
    }

    /// A drained record's box and payload buffer serve the next staged
    /// write, to any object; the spare list holds at most a ring's worth.
    #[test]
    fn a_drained_record_is_reused_by_the_next_stage() {
        let mut t = Objects::default();
        let record = |t: &Objects, base| {
            let wb = t.get(base).unwrap().staged.as_ref().unwrap();
            (&**wb as *const WriteBack, wb.data.as_ptr())
        };
        t.stage(64, 1, 0, &[7; 32]);
        let first = record(&t, 64);
        t.retire_staged(1);
        assert_eq!((t.get(64).map(|_| ()), t.staged()), (None, 0));
        t.stage(128, 2, 8, &[9; 16]);
        assert_eq!(record(&t, 128), first, "the drained record came back");
        let wb = t.get(128).unwrap().staged.as_ref().unwrap();
        assert_eq!((wb.seq, wb.off, &wb.data[..]), (2, 8, &[9u8; 16][..]));
        // `drained`, `wrote` and `remove` hand their records back too.
        t.drained(128);
        t.stage(192, 3, 0, &[1]);
        assert_eq!(record(&t, 192), first);
        t.wrote(192, false);
        t.stage(256, 4, 0, &[1]);
        assert_eq!(record(&t, 256), first);
        t.remove(256);
        assert_eq!((t.spare.len(), t.staged()), (1, 0));
        for seq in 0..2 * SPARE_RECORDS as u64 {
            t.stage((seq + 8) * 64, seq, 0, &[1]);
        }
        t.retire_staged(u64::MAX);
        assert_eq!(t.spare.len(), SPARE_RECORDS);
    }

    /// `read_skew` keeps thousands of frame entries: the entry must not
    /// grow past a frame, a hold, a word and a pointer to the record.
    #[test]
    fn obj_state_stays_small() {
        assert!(
            std::mem::size_of::<ObjState>() <= 64,
            "ObjState grew to {} bytes",
            std::mem::size_of::<ObjState>()
        );
    }
}
