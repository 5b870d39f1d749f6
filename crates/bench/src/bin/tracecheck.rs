//! Schema validator for the harness's `--trace-out` output, used by
//! `scripts/check.sh` as the trace-schema gate.
//!
//! ```sh
//! cargo run -p gengar-bench --bin tracecheck -- trace.json
//! ```
//!
//! Validates that the file is the Chrome trace-event JSON the exporter
//! promises: the `displayTimeUnit`/`traceEvents` envelope, one complete
//! event per line (every event carries `pid`, `tid`, `ts`, `ph` and the
//! `trace`/`span`/`parent` args), and a causally closed parent graph —
//! every non-zero `parent` references a span that exists in the same
//! trace. Exits 0 with a one-line summary, or 1 with every violation on
//! stderr. Deliberately a line-scanner, not a JSON parser: the exporter
//! writes one event per line precisely so gates like this one (and grep)
//! stay trivial.

use std::collections::HashSet;
use std::process::ExitCode;

use gengar_telemetry::json_field_num;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: tracecheck <trace.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut errors: Vec<String> = Vec::new();
    let mut lines = text.lines();
    match lines.next() {
        Some(first)
            if first.contains("\"displayTimeUnit\"") && first.contains("\"traceEvents\"") => {}
        other => errors.push(format!(
            "line 1: expected the displayTimeUnit/traceEvents envelope, got {other:?}"
        )),
    }

    // First pass: collect every live (trace, span) pair so the parent
    // check below is order-independent.
    let mut live: HashSet<(i64, i64)> = HashSet::new();
    for line in text.lines() {
        if let (Some(t), Some(s)) = (
            json_field_num(line, 0, "trace"),
            json_field_num(line, 0, "span"),
        ) {
            live.insert((t, s));
        }
    }

    let mut events = 0usize;
    for (idx, raw) in lines.enumerate() {
        let lineno = idx + 2; // 1-based, after the envelope line
        let line = raw.trim_end_matches(',');
        if line == "]}" || line.is_empty() {
            continue;
        }
        events += 1;
        for key in ["pid", "tid"] {
            if json_field_num(line, 0, key).is_none() {
                errors.push(format!("line {lineno}: event missing \"{key}\""));
            }
        }
        if !line.contains("\"ts\":") {
            errors.push(format!("line {lineno}: event missing \"ts\""));
        }
        if !line.contains("\"ph\":\"") {
            errors.push(format!("line {lineno}: event missing \"ph\""));
        }
        match (
            json_field_num(line, 0, "trace"),
            json_field_num(line, 0, "span"),
            json_field_num(line, 0, "parent"),
        ) {
            (Some(trace), Some(_), Some(parent)) => {
                if parent != 0 && !live.contains(&(trace, parent)) {
                    errors.push(format!(
                        "line {lineno}: parent {parent} not live in trace {trace}"
                    ));
                }
            }
            _ => errors.push(format!(
                "line {lineno}: event missing trace/span/parent args"
            )),
        }
    }

    if events == 0 {
        errors.push("no trace events found".to_owned());
    }
    if errors.is_empty() {
        println!("tracecheck: {path}: {events} events, schema and parent links OK");
        ExitCode::SUCCESS
    } else {
        for e in errors.iter().take(20) {
            eprintln!("tracecheck: {e}");
        }
        if errors.len() > 20 {
            eprintln!("tracecheck: ... and {} more", errors.len() - 20);
        }
        eprintln!(
            "tracecheck: {path}: FAILED with {} violations",
            errors.len()
        );
        ExitCode::FAILURE
    }
}
