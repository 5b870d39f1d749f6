//! Benchmark-side spans: recorded in memory around each public call into
//! the program and written as Chrome trace JSON when the run ends. Spans
//! inside the program are a later issue (ROADMAP item 2).

use std::time::Instant;

use crate::json::{obj, Json};

/// Op spans kept for the trace file. The latency samples of every op are
/// kept regardless (they feed the metrics); the file holds the set-up,
/// probe and phase spans plus the first ops of the timed phase, which is
/// what a viewer can load.
pub const OP_SPAN_CAP: usize = 50_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique per span: an op's id is its own.
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<SpanRec>,
    next_id: u64,
    op_spans: usize,
    /// Op spans beyond [`OP_SPAN_CAP`], counted instead of kept.
    pub dropped_ops: u64,
}

/// A span that has started; [`SpanLog::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    start: Instant,
    pub id: u64,
    parent: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            op_spans: 0,
            dropped_ops: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a structural span (phase, set-up step, probe).
    pub fn begin(&mut self, name: &'static str, parent: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            name,
            start: Instant::now(),
            id,
            parent,
        }
    }

    /// Ends `open` now and returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        self.spans.push(SpanRec {
            name: open.name,
            start_ns: self.ns(open.start),
            end_ns: self.ns(end),
            id: open.id,
            parent: open.parent,
        });
        (end - open.start).as_nanos() as u64
    }

    /// Records one op's span from stamps the load loop already took.
    pub fn op(&mut self, name: &'static str, start: Instant, end: Instant, parent: u64) {
        if self.op_spans >= OP_SPAN_CAP {
            self.dropped_ops += 1;
            return;
        }
        self.op_spans += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            id,
            parent,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// The log as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, timestamps in microseconds.
    pub fn chrome_trace(&self, meta: Json) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", s.name.into()),
                    ("cat", "benchmark".into()),
                    ("ph", "X".into()),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", 1u64.into()),
                    ("tid", 1u64.into()),
                    (
                        "args",
                        obj([("id", s.id.into()), ("parent", s.parent.into())]),
                    ),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", "ns".into()),
            ("metadata", meta),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn spans_nest_and_export_as_loadable_trace() {
        let mut log = SpanLog::new();
        let root = log.begin("trial", 0);
        let child = log.begin("cluster.launch", root.id);
        let t0 = Instant::now();
        log.op("client.read", t0, Instant::now(), root.id);
        assert!(log.end(child) < 1_000_000_000);
        log.end(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3, "one id per span");
        let trial = spans.iter().find(|s| s.name == "trial").unwrap();
        for s in spans.iter().filter(|s| s.name != "trial") {
            assert_eq!(s.parent, trial.id);
            assert!(s.start_ns >= trial.start_ns && s.end_ns <= trial.end_ns);
        }
        let doc = parse(&log.chrome_trace(obj([("workload", "x".into())])).encode()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("dur").and_then(Json::as_f64).is_some()));
    }

    #[test]
    fn op_spans_are_capped_and_the_excess_counted() {
        let mut log = SpanLog::new();
        let t = Instant::now();
        for _ in 0..OP_SPAN_CAP + 5 {
            log.op("client.read", t, t, 1);
        }
        assert_eq!(log.spans().len(), OP_SPAN_CAP);
        assert_eq!(log.dropped_ops, 5);
    }
}
