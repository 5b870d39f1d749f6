//! Snapshot export: a hand-rolled JSON serializer (no serde_json in the
//! dependency set), a human-readable `Display` table, and the Chrome
//! trace-event / Perfetto exporter for [`crate::trace`] spans.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use crate::metrics::HistogramSnapshot;
use crate::registry::{MetricSnapshot, RegistrySnapshot};
use crate::trace::SpanRecord;

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The string value following `"key":"` in `doc`, searching from byte
/// `from`. A substring scan, not a parser: it relies on every exporter in
/// the workspace writing one compact document per line with no space
/// after the colon, which is what lets the schema gates and `gengar-top`
/// stay line-scanners. The value ends at the next quote, so it must not
/// contain an escaped one.
pub fn json_field_str<'a>(doc: &'a str, from: usize, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = from + doc.get(from..)?.find(&pat)? + pat.len();
    let end = doc[at..].find('"')?;
    Some(&doc[at..at + end])
}

/// The integer value following `"key":` in `doc`, searching from byte
/// `from` (see [`json_field_str`]; a fractional part is ignored).
pub fn json_field_num(doc: &str, from: usize, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\":");
    let at = from + doc.get(from..)?.find(&pat)? + pat.len();
    let digits: String = doc[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

/// Formats nanoseconds with an adaptive unit for human output.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"mean_ns\":{},\"min_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
        h.count,
        h.mean_ns(),
        h.min_ns(),
        h.p50_ns(),
        h.p90_ns(),
        h.p99_ns(),
        h.p999_ns(),
        h.max_ns()
    )
}

impl RegistrySnapshot {
    /// Serializes the snapshot as a compact JSON object: counters and
    /// gauges as numbers, histograms as objects with count/mean/min,
    /// p50/p90/p99/p999, and max (all nanoseconds). Keys are sorted, so
    /// output is deterministic for a given snapshot.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (key, metric) in &self.entries {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(&json_escape(key));
            out.push_str("\":");
            match metric {
                MetricSnapshot::Counter(v) => out.push_str(&v.to_string()),
                MetricSnapshot::Gauge(v) => out.push_str(&v.to_string()),
                MetricSnapshot::Histogram(h) => out.push_str(&histogram_json(h)),
            }
        }
        out.push('}');
        out
    }
}

impl fmt::Display for RegistrySnapshot {
    /// Renders a fixed-width table, one metric per row, histograms
    /// condensed to count/mean/percentiles.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return writeln!(f, "(no metrics recorded)");
        }
        let width = self
            .entries
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max(16);
        for (key, metric) in &self.entries {
            match metric {
                MetricSnapshot::Counter(v) => writeln!(f, "{key:width$}  {v}")?,
                MetricSnapshot::Gauge(v) => writeln!(f, "{key:width$}  {v}")?,
                MetricSnapshot::Histogram(h) => writeln!(
                    f,
                    "{key:width$}  n={} mean={} p50={} p90={} p99={} p999={} max={}",
                    h.count,
                    fmt_ns(h.mean_ns()),
                    fmt_ns(h.p50_ns()),
                    fmt_ns(h.p90_ns()),
                    fmt_ns(h.p99_ns()),
                    fmt_ns(h.p999_ns()),
                    fmt_ns(h.max_ns())
                )?,
            }
        }
        Ok(())
    }
}

/// Sanitizes a `component.metric` key into a Prometheus metric name:
/// `gengar_` prefix, dots and any other non-alphanumerics to underscores.
fn prometheus_name(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 7);
    out.push_str("gengar_");
    for c in key.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format (v0.0.4):
/// counters and gauges as single samples with a `# TYPE` line, histograms
/// as summaries — `{quantile="..."}` samples plus `_sum` and `_count`.
/// Histogram values stay in nanoseconds (the names already carry the `_ns`
/// suffix the registry's naming scheme mandates). Keys arrive sorted, so
/// the exposition is deterministic for a given snapshot.
pub fn prometheus_text(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (key, metric) in &snap.entries {
        let name = prometheus_name(key);
        match metric {
            MetricSnapshot::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            MetricSnapshot::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
            MetricSnapshot::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} summary\n"));
                for (q, v) in [
                    ("0.5", h.p50_ns()),
                    ("0.9", h.p90_ns()),
                    ("0.99", h.p99_ns()),
                    ("0.999", h.p999_ns()),
                ] {
                    out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
                }
                out.push_str(&format!("{name}_sum {}\n", h.sum_ns));
                out.push_str(&format!("{name}_count {}\n", h.count));
            }
        }
    }
    out
}

/// Serializes completed spans as Chrome trace-event JSON (openable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)). Each span
/// becomes one complete (`"ph":"X"`) event — one per line, so streaming
/// validators can check the schema without a JSON parser — with the
/// causal ids (`trace`/`span`/`parent`) and the site detail in `args`.
/// Timestamps are microseconds since the tracer epoch.
///
/// A span whose parent was sampled away would violate the "every child
/// has a live parent" schema, so orphans are re-parented to 0 (root) at
/// export time: the event keeps its trace id, only the direct link is
/// declared broken.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let live: HashSet<(u64, u64)> = spans.iter().map(|s| (s.trace, s.span)).collect();
    let pid = std::process::id();
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for s in spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let parent = if s.parent != 0 && live.contains(&(s.trace, s.parent)) {
            s.parent
        } else {
            0
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"gengar\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"detail\":{}}}}}",
            json_escape(s.name),
            pid,
            s.tid,
            s.start_ns as f64 / 1000.0,
            s.duration_ns() as f64 / 1000.0,
            s.trace,
            s.span,
            parent,
            s.detail
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Renders a per-op-class critical-path table: traces are grouped by the
/// name of their root span (the op class — `client.write`, `client.read`,
/// …) and every span in those traces is attributed to its site name, so
/// the table shows where each op class spends its time relative to the
/// client-visible root duration. Spans past 100% of root (e.g. the async
/// NVM drain) are exactly the latency the proxy hides.
pub fn critical_path_table(spans: &[SpanRecord]) -> String {
    // Root of a trace: the parentless span with the earliest start (a
    // trace can hold several parentless spans — async far-side work such
    // as the server drain — which then show up as attributed rows).
    let mut roots: HashMap<u64, &SpanRecord> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == 0) {
        roots
            .entry(s.trace)
            .and_modify(|r| {
                if s.start_ns < r.start_ns {
                    *r = s;
                }
            })
            .or_insert(s);
    }
    struct Class {
        traces: u64,
        root_ns: u64,
        sites: BTreeMap<&'static str, (u64, u64)>, // name -> (count, total ns)
    }
    let mut classes: BTreeMap<&'static str, Class> = BTreeMap::new();
    for root in roots.values() {
        let c = classes.entry(root.name).or_insert(Class {
            traces: 0,
            root_ns: 0,
            sites: BTreeMap::new(),
        });
        c.traces += 1;
        c.root_ns += root.duration_ns();
    }
    for s in spans {
        let Some(root) = roots.get(&s.trace) else {
            continue;
        };
        if s.span == root.span {
            continue;
        }
        let c = classes.get_mut(root.name).expect("class exists for root");
        let e = c.sites.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.duration_ns();
    }
    if classes.is_empty() {
        return String::from("(no traces recorded)\n");
    }
    let mut out = String::from("critical path per op class (span time vs. root duration):\n");
    for (name, c) in &classes {
        out.push_str(&format!(
            "{name}: {} traces, mean root {}\n",
            c.traces,
            fmt_ns(c.root_ns / c.traces.max(1))
        ));
        let mut rows: Vec<_> = c.sites.iter().collect();
        rows.sort_by_key(|(_, (_, total))| std::cmp::Reverse(*total));
        for (site, (count, total)) in rows {
            let share = if c.root_ns > 0 {
                *total as f64 * 100.0 / c.root_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {site:<24} n={count:<8} total={:<10} mean={:<10} {share:.1}% of root\n",
                fmt_ns(*total),
                fmt_ns(total / (*count).max(1)),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("rdma", "read_ops").add(12);
        r.gauge("proxy", "ring_occupancy").set(-1);
        let h = r.histogram("client", "read_ns");
        for ns in [100, 200, 300, 400_000] {
            h.record_ns(ns);
        }
        r
    }

    #[test]
    fn field_scanners_find_values_from_an_offset() {
        let doc = r#"{"server":3,"overall":"healthy","drain":{"state":"degraded","signal":-7.5},"qos":{"state":"critical"}}"#;
        assert_eq!(json_field_num(doc, 0, "server"), Some(3));
        assert_eq!(json_field_num(doc, 0, "signal"), Some(-7));
        assert_eq!(json_field_str(doc, 0, "overall"), Some("healthy"));
        assert_eq!(json_field_str(doc, 0, "state"), Some("degraded"));
        let qos = doc.find("\"qos\"").unwrap();
        assert_eq!(json_field_str(doc, qos, "state"), Some("critical"));
        // A string is not a number, an absent key and an offset past the
        // end are both "not found".
        assert_eq!(json_field_num(doc, 0, "overall"), None);
        assert_eq!(json_field_str(doc, 0, "missing"), None);
        assert_eq!(json_field_num(doc, doc.len() + 1, "server"), None);
    }

    #[test]
    fn json_is_deterministic_and_parsable_shape() {
        let json = sample_registry().snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rdma.read_ops\":12"));
        assert!(json.contains("\"proxy.ring_occupancy\":-1"));
        assert!(json.contains("\"client.read_ns\":{\"count\":4"));
        assert!(json.contains("\"p99_ns\":"));
        assert!(json.contains("\"p999_ns\":"));
        // Balanced braces, no trailing commas.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced: {json}"
        );
        assert!(!json.contains(",}"), "trailing comma: {json}");
    }

    #[test]
    fn empty_snapshot_serializes() {
        assert_eq!(Registry::new().snapshot().to_json(), "{}");
    }

    #[test]
    fn display_lists_every_metric() {
        let table = sample_registry().snapshot().to_string();
        assert!(table.contains("rdma.read_ops"));
        assert!(table.contains("proxy.ring_occupancy"));
        assert!(table.contains("client.read_ns"));
        assert!(table.contains("p99="));
    }

    #[test]
    fn prometheus_exposition_covers_every_kind() {
        let text = prometheus_text(&sample_registry().snapshot());
        assert!(text.contains("# TYPE gengar_rdma_read_ops counter\ngengar_rdma_read_ops 12\n"));
        assert!(text.contains(
            "# TYPE gengar_proxy_ring_occupancy gauge\ngengar_proxy_ring_occupancy -1\n"
        ));
        assert!(text.contains("# TYPE gengar_client_read_ns summary\n"));
        assert!(text.contains("gengar_client_read_ns{quantile=\"0.99\"} "));
        assert!(text.contains("gengar_client_read_ns_count 4\n"));
        assert!(text.contains("gengar_client_read_ns_sum 400600\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            assert!(parts.next().unwrap().starts_with("gengar_"), "{line}");
            assert!(parts.next().unwrap().parse::<f64>().is_ok(), "{line}");
            assert!(parts.next().is_none(), "{line}");
        }
        assert_eq!(prometheus_text(&Registry::new().snapshot()), "");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    fn span(
        trace: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            span: id,
            parent,
            name,
            detail: 0,
            tid: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn chrome_trace_schema_one_event_per_line() {
        let spans = vec![
            span(1, 10, 0, "client.write", 0, 10_000),
            span(1, 11, 10, "rdma.doorbell", 1_000, 5_000),
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        let events: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"ph\":\"X\""))
            .collect();
        assert_eq!(events.len(), 2);
        for e in &events {
            assert!(e.contains("\"pid\":"));
            assert!(e.contains("\"tid\":"));
            assert!(e.contains("\"ts\":"));
            assert!(e.contains("\"name\":"));
        }
        assert!(events[1].contains("\"parent\":10"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced: {json}"
        );
    }

    #[test]
    fn chrome_trace_reparents_orphans_to_root() {
        // Parent span 99 was sampled away: the child must not point at a
        // dead id in the export.
        let spans = vec![span(7, 20, 99, "child", 0, 100)];
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"parent\":0"));
        assert!(!json.contains("\"parent\":99"));
    }

    #[test]
    fn chrome_trace_empty_is_valid() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn critical_path_groups_by_root_class() {
        let spans = vec![
            span(1, 10, 0, "client.write", 0, 10_000),
            span(1, 11, 10, "proxy.stage", 0, 4_000),
            span(1, 12, 0, "server.drain", 11_000, 15_000),
            span(2, 20, 0, "client.read", 0, 2_000),
        ];
        let table = critical_path_table(&spans);
        assert!(table.contains("client.write: 1 traces"));
        assert!(table.contains("client.read: 1 traces"));
        assert!(table.contains("proxy.stage"));
        // The async drain is attributed to the write class (the earliest
        // parentless span wins the root role).
        assert!(table.contains("server.drain"));
        assert!(critical_path_table(&[]).contains("no traces"));
    }
}
