//! Causal tracing: trace/span identifiers, thread-local context
//! propagation, a bounded span buffer that degrades to sampling under
//! pressure, and a flight recorder that dumps recent spans to a Chrome
//! trace JSON file when something goes wrong.
//!
//! Aggregated histograms (see [`crate::metrics`]) answer "how slow are
//! writes on average"; this module answers "where did *this* op spend its
//! time". A client op opens a root span, which installs a `(trace, span)`
//! pair in a thread-local context. Every layer underneath — window
//! submission, doorbell batches, per-WR execution, staging, RPC — opens
//! child spans off that context, so the whole causal chain shares one
//! [`TraceId`]. The context crosses threads explicitly: the RPC protocol
//! carries it in a trace-context field and staged records carry the trace
//! id in their header, so server-side drain spans link back to the
//! originating client op.
//!
//! Overhead policy: with the mode [`TraceMode::Off`] (the default) every
//! instrumentation site reduces to one atomic load. [`TraceMode::Full`]
//! records until the buffer is exhausted. [`TraceMode::Sampled`] records
//! everything while the buffer is under half full, then keeps roots plus
//! one in [`SAMPLE_KEEP`] child spans. Root spans are *never* sampled
//! away: when the main buffer is full they spill into a bounded reserve
//! ring, so the op-level skeleton of a trace always survives.

use std::cell::Cell;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::export::chrome_trace_json;

/// Identifies one causal chain (one client-visible operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null id: "not part of any trace".
    pub const NONE: TraceId = TraceId(0);

    /// Whether this id names a real trace.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: "no parent" (a root span).
    pub const NONE: SpanId = SpanId(0);
}

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing; every site costs one atomic load. The default.
    Off,
    /// Record everything while the buffer is under half full, then keep
    /// root spans plus one in [`SAMPLE_KEEP`] child spans.
    Sampled,
    /// Record everything until the buffer is exhausted (roots still
    /// survive exhaustion via the reserve ring).
    Full,
}

/// One completed span. Timestamps are nanoseconds since the owning
/// tracer's epoch; `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The causal chain this span belongs to.
    pub trace: u64,
    /// This span's id (unique per tracer).
    pub span: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Static site name, e.g. `client.write` or `rdma.doorbell`.
    pub name: &'static str,
    /// Site-specific payload (wr_id, attempt number, byte count, …).
    pub detail: u64,
    /// Small per-thread integer (stable within a process run).
    pub tid: u64,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch. Equals `start_ns` for
    /// instant events.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds (0 for instant events).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span capacity of the global tracer's main buffer.
pub const GLOBAL_SPAN_CAPACITY: usize = 65_536;

/// Root spans preserved once the main buffer is full (newest win).
const ROOT_RESERVE: usize = 1_024;

/// In sampled mode under pressure, one in this many child spans is kept.
pub const SAMPLE_KEEP: u64 = 8;

thread_local! {
    /// Active `(trace, span)` context of this thread; (0, 0) when idle.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Small per-thread id for export (0 = unassigned).
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn thread_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// The calling thread's active `(trace, parent span)` context.
/// `(TraceId::NONE, SpanId::NONE)` when no span is open.
pub fn current_context() -> (TraceId, SpanId) {
    let (t, s) = CONTEXT.with(Cell::get);
    (TraceId(t), SpanId(s))
}

/// Installs `(trace, span)` as the calling thread's context until the
/// guard drops (restoring whatever was active before). This is how a
/// context crosses threads: the receiving side (RPC server loop, drain
/// thread) adopts the ids it was handed and opens child spans normally.
pub fn adopt(trace: TraceId, span: SpanId) -> ContextGuard {
    let prev = CONTEXT.with(|c| c.replace((trace.0, span.0)));
    ContextGuard { prev }
}

/// Restores the previous thread context on drop (see [`adopt`]).
#[derive(Debug)]
pub struct ContextGuard {
    prev: (u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

/// The tracing engine: id allocation, the span buffer, and lifecycle
/// counters. One global instance serves the whole process
/// ([`Tracer::global`]); tests build private instances.
pub struct Tracer {
    mode: AtomicU8,
    epoch: Instant,
    next_id: AtomicU64,
    /// Span storage of `capacity` slots, allocated when recording is first
    /// switched on, so no traced operation pays for it: a tracer that stays
    /// off (every untraced run) never holds it. Slots are claimed by a lock-free `fetch_add` on `cursor`; the
    /// per-slot mutex only serialises the single writer of a claimed slot
    /// against snapshot readers.
    slots: OnceLock<Box<[Mutex<Option<SpanRecord>>]>>,
    capacity: usize,
    cursor: AtomicUsize,
    sample_ctr: AtomicU64,
    /// Root spans that arrived after the main buffer filled (newest win).
    root_reserve: Mutex<VecDeque<SpanRecord>>,
    started: AtomicU64,
    ended: AtomicU64,
    dropped: AtomicU64,
    recorder: OnceLock<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("mode", &self.mode())
            .field("capacity", &self.capacity)
            .field("used", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

impl Tracer {
    /// A tracer with a `capacity`-span main buffer, mode [`TraceMode::Off`].
    pub fn with_capacity(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            mode: AtomicU8::new(0),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            slots: OnceLock::new(),
            capacity: capacity.max(1),
            cursor: AtomicUsize::new(0),
            sample_ctr: AtomicU64::new(0),
            root_reserve: Mutex::new(VecDeque::new()),
            started: AtomicU64::new(0),
            ended: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            recorder: OnceLock::new(),
        })
    }

    /// The process-wide tracer (off until someone calls
    /// [`Tracer::set_mode`]). Its completed spans also feed the global
    /// [`FlightRecorder`] when that is armed.
    pub fn global() -> &'static Arc<Tracer> {
        static GLOBAL: OnceLock<Arc<Tracer>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let t = Tracer::with_capacity(GLOBAL_SPAN_CAPACITY);
            let _ = t.recorder.set(Arc::clone(FlightRecorder::global()));
            t
        })
    }

    /// Feeds this tracer's completed spans to `recorder` (set-once).
    pub fn attach_recorder(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// Current recording mode.
    pub fn mode(&self) -> TraceMode {
        match self.mode.load(Ordering::Relaxed) {
            1 => TraceMode::Sampled,
            2 => TraceMode::Full,
            _ => TraceMode::Off,
        }
    }

    /// Switches the recording mode, allocating the span buffer the first
    /// time it is not [`TraceMode::Off`].
    pub fn set_mode(&self, mode: TraceMode) {
        let v = match mode {
            TraceMode::Off => 0,
            TraceMode::Sampled => 1,
            TraceMode::Full => 2,
        };
        if v != 0 {
            self.slots();
        }
        self.mode.store(v, Ordering::Relaxed);
    }

    /// The main buffer, allocated on first use.
    fn slots(&self) -> &[Mutex<Option<SpanRecord>>] {
        self.slots.get_or_init(|| {
            (0..self.capacity)
                .map(|_| Mutex::new(None))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        })
    }

    /// Whether any recording is active (one atomic load — the hot-path
    /// guard every instrumentation site starts with).
    pub fn enabled(&self) -> bool {
        self.mode.load(Ordering::Relaxed) != 0
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a root span: a fresh trace whose context is installed on this
    /// thread until the span drops.
    pub fn root_span(self: &Arc<Self>, name: &'static str) -> TraceSpan {
        if !self.enabled() {
            return TraceSpan::disabled();
        }
        let trace = self.next_id();
        self.start_span(name, trace, 0, true)
    }

    /// Opens a root span inside the existing trace `trace` (parentless,
    /// but causally linked by the shared trace id — used by the far side
    /// of an async handoff such as the server's NVM drain). Disabled when
    /// `trace` is [`TraceId::NONE`].
    pub fn root_span_in(self: &Arc<Self>, name: &'static str, trace: TraceId) -> TraceSpan {
        if !self.enabled() || !trace.is_some() {
            return TraceSpan::disabled();
        }
        self.start_span(name, trace.0, 0, true)
    }

    /// Opens a child span of the calling thread's current context.
    /// Disabled when tracing is off or no trace is active.
    pub fn span(self: &Arc<Self>, name: &'static str) -> TraceSpan {
        if !self.enabled() {
            return TraceSpan::disabled();
        }
        let (trace, parent) = CONTEXT.with(Cell::get);
        if trace == 0 {
            return TraceSpan::disabled();
        }
        self.start_span(name, trace, parent, false)
    }

    /// Whether a finest-grain child is worth starting right now: Sampled
    /// mode thins per-WR spans and events at the *source* once the buffer
    /// passes half occupancy, skipping even the timestamp cost (the
    /// commit-time child lottery would discard most of them anyway).
    fn fine_enabled(&self) -> bool {
        match self.mode() {
            TraceMode::Off => false,
            TraceMode::Full => true,
            TraceMode::Sampled => self.cursor.load(Ordering::Relaxed) < self.capacity / 2,
        }
    }

    /// Opens a finest-grain child span (per-WR granularity). Identical to
    /// [`Tracer::span`] except that Sampled mode stops creating these
    /// once the buffer is half full — the cheap end of the sampling
    /// policy, keeping hot-path overhead flat under sustained load.
    pub fn fine_span(self: &Arc<Self>, name: &'static str) -> TraceSpan {
        if !self.fine_enabled() {
            return TraceSpan::disabled();
        }
        self.span(name)
    }

    /// Records a finest-grain instant event; thinned at the source like
    /// [`Tracer::fine_span`].
    pub fn fine_event(self: &Arc<Self>, name: &'static str, detail: u64) {
        if self.fine_enabled() {
            self.event(name, detail);
        }
    }

    /// Records an instant event (zero-duration span) under the current
    /// context. No-op when tracing is off or no trace is active.
    pub fn event(self: &Arc<Self>, name: &'static str, detail: u64) {
        if !self.enabled() {
            return;
        }
        let (trace, parent) = CONTEXT.with(Cell::get);
        if trace == 0 {
            return;
        }
        self.started.fetch_add(1, Ordering::Relaxed);
        let now = self.now_ns();
        let rec = SpanRecord {
            trace,
            span: self.next_id(),
            parent,
            name,
            detail,
            tid: thread_tid(),
            start_ns: now,
            end_ns: now,
        };
        self.commit(rec, false);
    }

    fn start_span(
        self: &Arc<Self>,
        name: &'static str,
        trace: u64,
        parent: u64,
        root: bool,
    ) -> TraceSpan {
        self.started.fetch_add(1, Ordering::Relaxed);
        let span = self.next_id();
        let prev = CONTEXT.with(|c| c.replace((trace, span)));
        TraceSpan {
            state: Some(SpanState {
                tracer: Arc::clone(self),
                rec: SpanRecord {
                    trace,
                    span,
                    parent,
                    name,
                    detail: 0,
                    tid: thread_tid(),
                    start_ns: self.now_ns(),
                    end_ns: 0,
                },
                root,
                prev,
            }),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Stores one completed span: main buffer first, the root reserve when
    /// that is full, the drop counter otherwise. Sampling (see
    /// [`TraceMode::Sampled`]) kicks in once the buffer is half full.
    fn commit(&self, rec: SpanRecord, root: bool) {
        if let Some(r) = self.recorder.get() {
            r.observe(&rec);
        }
        let cap = self.capacity;
        if !root
            && self.mode() == TraceMode::Sampled
            && self.cursor.load(Ordering::Relaxed) >= cap / 2
            && !self
                .sample_ctr
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(SAMPLE_KEEP)
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        if idx < cap {
            *self.slots()[idx].lock().unwrap() = Some(rec);
            self.ended.fetch_add(1, Ordering::Relaxed);
        } else if root {
            // The op-level skeleton must survive buffer exhaustion: roots
            // go to a bounded reserve where the newest win.
            let mut reserve = self.root_reserve.lock().unwrap();
            if reserve.len() >= ROOT_RESERVE {
                reserve.pop_front();
            }
            reserve.push_back(rec);
            self.ended.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The main buffer: empty until recording is first switched on.
    fn stored(&self) -> &[Mutex<Option<SpanRecord>>] {
        self.slots.get().map_or(&[], |slots| slots)
    }

    /// Copies out every stored span (main buffer order, then preserved
    /// roots). Open spans are absent until they drop.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let slots = self.stored();
        let used = self.cursor.load(Ordering::Relaxed).min(slots.len());
        let mut out = Vec::with_capacity(used);
        for slot in &slots[..used] {
            if let Some(rec) = slot.lock().unwrap().as_ref() {
                out.push(rec.clone());
            }
        }
        out.extend(self.root_reserve.lock().unwrap().iter().cloned());
        out
    }

    /// Lifecycle counters `(started, ended, dropped)`. Every started span
    /// is eventually counted ended (stored) or dropped (discarded), so
    /// after all spans close, `started == ended + dropped`.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.started.load(Ordering::Relaxed),
            self.ended.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Empties the buffer and zeroes the lifecycle counters. Spans still
    /// open keep working; they commit into the cleared buffer.
    pub fn clear(&self) {
        let slots = self.stored();
        let used = self.cursor.load(Ordering::Relaxed).min(slots.len());
        for slot in &slots[..used] {
            *slot.lock().unwrap() = None;
        }
        self.root_reserve.lock().unwrap().clear();
        self.cursor.store(0, Ordering::Relaxed);
        self.sample_ctr.store(0, Ordering::Relaxed);
        self.started.store(0, Ordering::Relaxed);
        self.ended.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

struct SpanState {
    tracer: Arc<Tracer>,
    rec: SpanRecord,
    root: bool,
    prev: (u64, u64),
}

/// An open span (RAII): installs its `(trace, span)` pair as the thread
/// context on creation, and on drop restores the previous context and
/// commits the record. Not `Send`: the context save/restore is
/// thread-local, so a span must drop on the thread that opened it.
pub struct TraceSpan {
    state: Option<SpanState>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl std::fmt::Debug for TraceSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            Some(s) => f
                .debug_struct("TraceSpan")
                .field("trace", &s.rec.trace)
                .field("span", &s.rec.span)
                .field("name", &s.rec.name)
                .finish(),
            None => f.write_str("TraceSpan(disabled)"),
        }
    }
}

impl TraceSpan {
    /// A span that records nothing and leaves the context untouched.
    pub fn disabled() -> TraceSpan {
        TraceSpan {
            state: None,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Whether this span will produce a record.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// The trace this span belongs to, if recording.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.state.as_ref().map(|s| TraceId(s.rec.trace))
    }

    /// This span's id, if recording.
    pub fn span_id(&self) -> Option<SpanId> {
        self.state.as_ref().map(|s| SpanId(s.rec.span))
    }

    /// Attaches a site-specific detail value (wr_id, attempt, bytes, …).
    pub fn set_detail(&mut self, detail: u64) {
        if let Some(s) = self.state.as_mut() {
            s.rec.detail = detail;
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(mut s) = self.state.take() {
            CONTEXT.with(|c| c.set(s.prev));
            s.rec.end_ns = s.tracer.now_ns();
            s.tracer.commit(s.rec, s.root);
        }
    }
}

/// Flight recorder: a bounded ring of recently completed spans plus a
/// one-shot dump latch. While armed it shadows every span the attached
/// tracer commits; [`FlightRecorder::trigger`] (called when the fault
/// plane injects an error/drop, a retry escalates to reconnect, or a
/// chaos assertion fails) dumps the ring as Chrome trace JSON and
/// disarms, so a storm of faults produces one dump, not thousands.
/// Re-arm to capture the next incident.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<SpanRecord>>,
    cap: usize,
    armed: AtomicBool,
    out_dir: Mutex<PathBuf>,
    last_dump: Mutex<Option<PathBuf>>,
    dump_seq: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("armed", &self.is_armed())
            .field("dumps", &self.dumps())
            .finish()
    }
}

/// Spans retained by the flight-recorder ring.
const FLIGHT_CAPACITY: usize = 4_096;

impl FlightRecorder {
    /// A recorder retaining up to `capacity` spans, disarmed, dumping to
    /// the system temp directory.
    pub fn with_capacity(capacity: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            ring: Mutex::new(VecDeque::new()),
            cap: capacity.max(1),
            armed: AtomicBool::new(false),
            out_dir: Mutex::new(std::env::temp_dir()),
            last_dump: Mutex::new(None),
            dump_seq: AtomicU64::new(0),
        })
    }

    /// The process-wide recorder, fed by [`Tracer::global`].
    pub fn global() -> &'static Arc<FlightRecorder> {
        static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
        GLOBAL.get_or_init(|| FlightRecorder::with_capacity(FLIGHT_CAPACITY))
    }

    /// Arms capture and the dump latch.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Whether the recorder is capturing (and will dump on trigger).
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Directs future dumps into `dir`.
    pub fn set_out_dir(&self, dir: PathBuf) {
        *self.out_dir.lock().unwrap() = dir;
    }

    /// Shadows one completed span (no-op while disarmed).
    pub fn observe(&self, rec: &SpanRecord) {
        if !self.is_armed() {
            return;
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() >= self.cap {
            ring.pop_front();
        }
        ring.push_back(rec.clone());
    }

    /// Fires the dump latch: if armed, writes the ring as Chrome trace
    /// JSON (`gengar-flight-<pid>-<seq>-<reason>.json` in the output
    /// directory), disarms, and returns the path. Returns `None` when
    /// disarmed (already fired, or never armed) or when the write fails.
    pub fn trigger(&self, reason: &str) -> Option<PathBuf> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        if !self.armed.swap(false, Ordering::AcqRel) {
            return None;
        }
        let spans: Vec<SpanRecord> = self.ring.lock().unwrap().iter().cloned().collect();
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = self.out_dir.lock().unwrap().join(format!(
            "gengar-flight-{}-{}-{}.json",
            std::process::id(),
            seq,
            slug
        ));
        match std::fs::write(&path, chrome_trace_json(&spans)) {
            Ok(()) => {
                *self.last_dump.lock().unwrap() = Some(path.clone());
                Some(path)
            }
            Err(e) => {
                eprintln!("flight recorder: dump to {} failed: {e}", path.display());
                None
            }
        }
    }

    /// The most recent dump file, if any.
    pub fn last_dump(&self) -> Option<PathBuf> {
        self.last_dump.lock().unwrap().clone()
    }

    /// Dumps taken so far.
    pub fn dumps(&self) -> u64 {
        self.dump_seq.load(Ordering::Relaxed)
    }

    /// A human-readable summary of the last `n` captured spans (for test
    /// failure output).
    pub fn summary(&self, n: usize) -> String {
        let ring = self.ring.lock().unwrap();
        let skip = ring.len().saturating_sub(n);
        let mut out = format!(
            "flight recorder: last {} of {} spans:\n",
            ring.len() - skip,
            ring.len()
        );
        for rec in ring.iter().skip(skip) {
            out.push_str(&format!(
                "  {:<24} trace={} span={} parent={} detail={} dur={}ns\n",
                rec.name,
                rec.trace,
                rec.span,
                rec.parent,
                rec.detail,
                rec.duration_ns()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn on(mode: TraceMode) -> Arc<Tracer> {
        let t = Tracer::with_capacity(256);
        t.set_mode(mode);
        t
    }

    #[test]
    fn off_mode_records_nothing() {
        let t = Tracer::with_capacity(16);
        let root = t.root_span("client.write");
        assert!(!root.is_recording());
        drop(root);
        t.event("x", 1);
        assert_eq!(t.counts(), (0, 0, 0));
        assert!(t.snapshot().is_empty());
        assert_eq!(current_context(), (TraceId::NONE, SpanId::NONE));
    }

    /// The span buffer comes with the mode, not with the first span: a
    /// traced operation never pays for it.
    #[test]
    fn switching_recording_on_allocates_the_buffer() {
        let t = Tracer::with_capacity(16);
        t.set_mode(TraceMode::Off);
        assert!(t.stored().is_empty());
        t.set_mode(TraceMode::Full);
        assert_eq!(t.stored().len(), 16);
        assert_eq!(t.counts(), (0, 0, 0), "before any span commits");
        for mode in [TraceMode::Sampled, TraceMode::Off] {
            t.set_mode(mode);
            assert_eq!(t.stored().len(), 16, "{mode:?} keeps it");
        }
    }

    #[test]
    fn nested_spans_share_trace_and_link_parents() {
        let t = on(TraceMode::Full);
        let trace;
        {
            let root = t.root_span("client.write");
            trace = root.trace_id().unwrap();
            {
                let child = t.span("rdma.doorbell");
                assert_eq!(child.trace_id(), Some(trace));
                let _grand = t.span("rdma.wr");
                t.event("fault.delay", 7);
            }
            let _sibling = t.span("proxy.stage");
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 5);
        assert!(spans.iter().all(|s| s.trace == trace.0));
        let by_name: HashMap<&str, &SpanRecord> = spans.iter().map(|s| (s.name, s)).collect();
        let root = by_name["client.write"];
        assert_eq!(root.parent, 0);
        assert_eq!(by_name["rdma.doorbell"].parent, root.span);
        assert_eq!(by_name["rdma.wr"].parent, by_name["rdma.doorbell"].span);
        assert_eq!(by_name["fault.delay"].parent, by_name["rdma.wr"].span);
        assert_eq!(by_name["proxy.stage"].parent, root.span);
        // Context fully restored.
        assert_eq!(current_context(), (TraceId::NONE, SpanId::NONE));
    }

    #[test]
    fn parent_links_are_acyclic_and_complete() {
        let t = on(TraceMode::Full);
        for _ in 0..8 {
            let _root = t.root_span("op");
            let _a = t.span("a");
            let _b = t.span("b");
            t.event("e", 0);
        }
        let spans = t.snapshot();
        let ids: HashSet<(u64, u64)> = spans.iter().map(|s| (s.trace, s.span)).collect();
        let parents: HashMap<(u64, u64), u64> = spans
            .iter()
            .map(|s| ((s.trace, s.span), s.parent))
            .collect();
        for s in &spans {
            // Complete: every non-root parent exists in the same trace.
            if s.parent != 0 {
                assert!(ids.contains(&(s.trace, s.parent)), "orphan {s:?}");
            }
            // Acyclic: walking up terminates without revisiting.
            let mut seen = HashSet::new();
            let mut cur = s.span;
            while cur != 0 {
                assert!(seen.insert(cur), "cycle at span {cur}");
                cur = parents.get(&(s.trace, cur)).copied().unwrap_or(0);
            }
        }
    }

    #[test]
    fn full_buffer_never_loses_the_root_span() {
        let t = Tracer::with_capacity(8);
        t.set_mode(TraceMode::Full);
        let root_trace;
        {
            let root = t.root_span("client.write");
            root_trace = root.trace_id().unwrap();
            // Overflow the 8-slot buffer with child spans.
            for _ in 0..64 {
                drop(t.span("child"));
            }
        }
        let spans = t.snapshot();
        let root = spans
            .iter()
            .find(|s| s.name == "client.write")
            .expect("root survived full buffer");
        assert_eq!(root.trace, root_trace.0);
        let (started, ended, dropped) = t.counts();
        assert_eq!(started, 65);
        assert_eq!(started, ended + dropped);
        assert!(dropped > 0, "overflow must have dropped children");
    }

    #[test]
    fn sampled_mode_degrades_children_keeps_roots() {
        let t = Tracer::with_capacity(64);
        t.set_mode(TraceMode::Sampled);
        for _ in 0..64 {
            let _root = t.root_span("op");
            for _ in 0..8 {
                drop(t.span("child"));
            }
        }
        let spans = t.snapshot();
        let roots = spans.iter().filter(|s| s.name == "op").count();
        // Past half-occupancy only 1 in SAMPLE_KEEP children commit, but
        // every root that fit the buffer or the reserve is present.
        let (started, ended, dropped) = t.counts();
        assert_eq!(started, 64 * 9);
        assert_eq!(started, ended + dropped);
        assert!(dropped > 0, "sampling must have dropped children");
        assert_eq!(roots, 64, "no root may be sampled away");
    }

    #[test]
    fn eight_thread_conservation() {
        let t = Tracer::with_capacity(512);
        t.set_mode(TraceMode::Sampled);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let _root = t.root_span("op");
                        let _child = t.span("child");
                        t.event("e", 0);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let (started, ended, dropped) = t.counts();
        assert_eq!(started, 8 * 500 * 3);
        assert_eq!(started, ended + dropped, "span conservation violated");
    }

    #[test]
    fn adopt_restores_previous_context() {
        let t = on(TraceMode::Full);
        let root = t.root_span("op");
        let (trace, span) = (root.trace_id().unwrap(), root.span_id().unwrap());
        {
            let _g = adopt(TraceId(999), SpanId(998));
            assert_eq!(current_context(), (TraceId(999), SpanId(998)));
        }
        assert_eq!(current_context(), (trace, span));
    }

    #[test]
    fn flight_recorder_dumps_once_per_arm() {
        let t = Tracer::with_capacity(64);
        t.set_mode(TraceMode::Full);
        let rec = FlightRecorder::with_capacity(16);
        t.attach_recorder(Arc::clone(&rec));
        let dir = std::env::temp_dir();
        rec.set_out_dir(dir);

        // Disarmed: nothing captured, trigger is a no-op.
        drop(t.root_span("before"));
        assert!(rec.trigger("fault").is_none());

        rec.arm();
        {
            let _root = t.root_span("op");
            drop(t.span("child"));
        }
        let path = rec.trigger("fault").expect("armed trigger dumps");
        assert!(path.exists());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"op\""));
        assert!(!body.contains("\"before\""), "captures only while armed");
        assert_eq!(rec.last_dump(), Some(path.clone()));
        assert_eq!(rec.dumps(), 1);
        // Latched: a second trigger without re-arming is silent.
        assert!(rec.trigger("fault").is_none());
        assert!(rec.summary(8).contains("op"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn clear_resets_buffer_and_counters() {
        let t = on(TraceMode::Full);
        drop(t.root_span("op"));
        assert_eq!(t.snapshot().len(), 1);
        t.clear();
        assert!(t.snapshot().is_empty());
        assert_eq!(t.counts(), (0, 0, 0));
    }
}
