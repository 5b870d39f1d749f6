//! Schema validator for `Inspect` documents, used by `scripts/check.sh`
//! as the inspect-schema gate.
//!
//! ```sh
//! cargo run -p gengar-bench --bin gengar-top -- --once --json > inspect.jsonl
//! cargo run -p gengar-bench --bin inspectcheck -- inspect.jsonl
//! ```
//!
//! Validates that every line is the versioned document the health plane
//! promises: `"v":1`, a `server` id, an `overall` state from the known
//! enum, every component with a valid `state` and a `signal`, the `slo`
//! array with complete entries, a `windows` array, structural balance,
//! and the wire-size budget. Exits 0 with a one-line summary, or 1 with
//! every violation on stderr. Deliberately a line-scanner, not a JSON
//! parser, mirroring `tracecheck`: the plane serializes one compact
//! document per line precisely so gates like this one stay trivial.

use std::process::ExitCode;

use gengar_core::health::COMPONENTS;
use gengar_core::proto::MAX_INSPECT_JSON;
use gengar_telemetry::json_field_str;

const STATES: [&str; 3] = ["healthy", "degraded", "critical"];

/// Checks one document, appending violations tagged with its line number.
fn check_doc(lineno: usize, doc: &str, errors: &mut Vec<String>) {
    let mut err = |msg: String| errors.push(format!("line {lineno}: {msg}"));

    if doc.len() > MAX_INSPECT_JSON {
        err(format!(
            "document is {} bytes, over the {MAX_INSPECT_JSON}-byte wire budget",
            doc.len()
        ));
    }
    if !doc.contains("\"v\":1") {
        err("missing the \"v\":1 version stamp".to_owned());
    }
    if !doc.contains("\"server\":") {
        err("missing the \"server\" id".to_owned());
    }
    match json_field_str(doc, 0, "overall") {
        Some(s) if STATES.contains(&s) || s == "unknown" => {}
        Some(s) => err(format!("unknown overall state {s:?}")),
        None => err("missing the \"overall\" state".to_owned()),
    }

    // A disabled plane legitimately serves an empty shell; everything
    // beyond the envelope is only required of a live document.
    let live = json_field_str(doc, 0, "overall") != Some("unknown");
    if live {
        for name in COMPONENTS {
            let pat = format!("\"{name}\":{{");
            match doc.find(&pat) {
                Some(at) => {
                    match json_field_str(doc, at, "state") {
                        Some(s) if STATES.contains(&s) => {}
                        Some(s) => err(format!("component {name} in unknown state {s:?}")),
                        None => err(format!("component {name} missing \"state\"")),
                    }
                    let entry_end = doc[at..].find('}').map_or(doc.len(), |e| at + e);
                    if !doc[at..entry_end].contains("\"signal\":") {
                        err(format!("component {name} missing \"signal\""));
                    }
                }
                None => err(format!("missing component {name}")),
            }
        }

        match doc.find("\"slo\":[") {
            Some(at) => {
                let end = doc[at..].find(']').map_or(doc.len(), |e| at + e);
                for key in ["name", "value", "target", "burn", "alerting"] {
                    if !doc[at..end].contains(&format!("\"{key}\":")) {
                        err(format!("slo entries missing \"{key}\""));
                    }
                }
            }
            None => err("missing the \"slo\" array".to_owned()),
        }

        if !doc.contains("\"windows\":[") {
            err("missing the \"windows\" array".to_owned());
        } else if let Some(at) = doc.find("\"windows\":[{") {
            for key in ["seq", "ms", "ops", "read_p99_us", "write_p99_us", "err"] {
                if !doc[at..].contains(&format!("\"{key}\":")) {
                    err(format!("window digests missing \"{key}\""));
                }
            }
        }
    }

    if doc.matches('{').count() != doc.matches('}').count()
        || doc.matches('[').count() != doc.matches(']').count()
    {
        err("structurally unbalanced (truncated?) document".to_owned());
    }
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: inspectcheck <inspect.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("inspectcheck: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut errors: Vec<String> = Vec::new();
    let mut docs = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let doc = line.trim();
        if doc.is_empty() {
            continue;
        }
        docs += 1;
        check_doc(idx + 1, doc, &mut errors);
    }

    if docs == 0 {
        errors.push("no inspect documents found".to_owned());
    }
    if errors.is_empty() {
        println!("inspectcheck: {path}: {docs} documents, schema OK");
        ExitCode::SUCCESS
    } else {
        for e in errors.iter().take(20) {
            eprintln!("inspectcheck: {e}");
        }
        if errors.len() > 20 {
            eprintln!("inspectcheck: ... and {} more", errors.len() - 20);
        }
        eprintln!(
            "inspectcheck: {path}: FAILED with {} violations",
            errors.len()
        );
        ExitCode::FAILURE
    }
}
