//! What the benchmark declares: its metrics with units, directions and
//! bounds, and the `BENCHMARK.json` built from them. The tables here are
//! the single source; the file at the repository root must equal them and
//! every run checks that it does.

use crate::json::{obj, parse, Json};
use crate::spec::WORKLOADS;

/// Seconds one driver run measures (three trials of a third each).
pub const RUN_SECONDS: u64 = 21;

/// Fresh-cluster trials per timed run.
pub const TRIALS: u32 = 3;

pub const HIGHER: &str = "higher";
pub const LOWER: &str = "lower";

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for metrics that carry no bound.
    pub bound: Option<f64>,
}

const fn bounded(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the pool sees, on every workload. A "call" is one public
/// call: `read`, `write`, or `submit` of one batch. Each bound is about
/// three times the widest run-to-run spread measured on this host (README,
/// "Measured baseline"), capped at the contract's 25 %.
pub const END_TO_END: &[Metric] = &[
    bounded("ops_per_s", "1/s", HIGHER, 0.25),
    bounded("call_p50_us", "us", LOWER, 0.20),
    bounded("call_p95_us", "us", LOWER, 0.25),
    bounded("setup_s", "s", LOWER, 0.25),
    bounded("peak_rss_mib", "MiB", LOWER, 0.15),
];

/// Metrics of single layers, named after the crates and modules. A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: &[Metric] = &[
    // Call latency by kind and the failure share, from the telemetry-off
    // half of the traced run; `run` prints the same names for the kinds a
    // workload's op mix produces. They cannot be end-to-end metrics of
    // every workload: a read-only workload has no write latency.
    layer("read_p50_us", "us", LOWER),
    layer("read_p99_us", "us", LOWER),
    layer("read_p999_us", "us", LOWER),
    layer("write_p50_us", "us", LOWER),
    layer("write_p99_us", "us", LOWER),
    layer("write_p999_us", "us", LOWER),
    layer("batch_p50_us", "us", LOWER),
    layer("batch_p99_us", "us", LOWER),
    layer("failed_share", "ratio", LOWER),
    // core.client
    layer("core.client.cache_hit_ratio", "ratio", HIGHER),
    layer("core.client.cache_reject_ratio", "ratio", LOWER),
    layer("core.client.nvm_read_share", "ratio", LOWER),
    layer("core.client.reports_per_kop", "1/kop", LOWER),
    layer("core.client.staged_write_share", "ratio", HIGHER),
    layer("core.client.writeback_hit_ratio", "ratio", HIGHER),
    layer("core.client.retries_per_kop", "1/kop", LOWER),
    layer("core.client.self_us_per_op", "us", LOWER),
    // core.batch / core.window
    layer("core.window.batch_size_p50", "count", HIGHER),
    layer("core.window.occupancy", "count", HIGHER),
    layer("core.batch.overlap_ratio", "ratio", HIGHER),
    // rdma
    layer("rdma.round_trips_per_op", "1/op", LOWER),
    layer("rdma.doorbells_per_op", "1/op", LOWER),
    layer("rdma.doorbells_saved_per_op", "1/op", HIGHER),
    layer("rdma.wire_bytes_per_user_byte", "B/B", LOWER),
    layer("rdma.read_verb_p50_ns", "ns", LOWER),
    layer("rdma.write_verb_p50_ns", "ns", LOWER),
    layer("rdma.cas_verb_p50_ns", "ns", LOWER),
    layer("rdma.send_verb_p50_ns", "ns", LOWER),
    layer("rdma.error_completions", "count", LOWER),
    layer("rdma.rnr_timeouts", "count", LOWER),
    layer("rdma.cq_overflows", "count", LOWER),
    // hybridmem
    layer("hybridmem.nvm_write_bytes_per_user_byte", "B/B", LOWER),
    layer("hybridmem.nvm_read_bytes_per_user_byte", "B/B", LOWER),
    layer("hybridmem.nvm_flushes_per_write", "1/op", LOWER),
    layer("hybridmem.staging_bytes_per_user_byte", "B/B", LOWER),
    layer("hybridmem.dram_cache_read_share", "ratio", HIGHER),
    // core.proxy
    layer("core.proxy.ring_full_waits_per_kop", "1/kop", LOWER),
    layer("core.proxy.drain_p50_ns", "ns", LOWER),
    layer("core.proxy.drain_p99_ns", "ns", LOWER),
    layer("core.proxy.drain_backlog_end", "count", LOWER),
    layer("core.proxy.barrier_ms", "ms", LOWER),
    layer("core.proxy.drained_share", "ratio", HIGHER),
    // core.cache / core.hotness
    layer("core.cache.hit_ratio", "ratio", HIGHER),
    layer("core.cache.promotions", "count", LOWER),
    layer("core.cache.evictions", "count", LOWER),
    layer("core.cache.rejected_share", "ratio", LOWER),
    layer("core.cache.ghost_hits", "count", HIGHER),
    layer("core.cache.invalidations_per_kwrite", "1/kwrite", LOWER),
    layer("core.hotness.epoch_folds", "count", LOWER),
    layer("core.hotness.reported_accesses_per_op", "1/op", HIGHER),
    // core.consistency / core.server
    layer("core.consistency.cas_per_write", "1/op", LOWER),
    layer("core.consistency.lock_retries_per_kop", "1/kop", LOWER),
    layer("core.consistency.read_retries_per_kop", "1/kop", LOWER),
    layer("core.server.rpc_requests_per_kop", "1/kop", LOWER),
    // Set-up spans
    layer("core.cluster.launch_ms", "ms", LOWER),
    layer("core.client.connect_ms", "ms", LOWER),
    layer("core.alloc.alloc_p50_us", "us", LOWER),
    layer("bench.populate_ms", "ms", LOWER),
    layer("bench.warmup_ms", "ms", LOWER),
    // Overheads of measuring
    layer("telemetry.overhead_pct", "%", LOWER),
    layer("workloads.gen_ns_per_op", "ns", LOWER),
    // Layer probes: each layer called alone, once per traced run.
    layer("probe.hybridmem.spin_overshoot_ns", "ns", LOWER),
    layer("probe.hybridmem.nvm_read_4k_ns", "ns", LOWER),
    layer("probe.hybridmem.nvm_write_flush_4k_ns", "ns", LOWER),
    layer("probe.hybridmem.dram_read_4k_ns", "ns", LOWER),
    layer("probe.rdma.read_nvm_4k_ns", "ns", LOWER),
    layer("probe.rdma.write_nvm_4k_ns", "ns", LOWER),
    layer("probe.rdma.cas_ns", "ns", LOWER),
    layer("probe.rdma.send_recv_ns", "ns", LOWER),
    layer("probe.core.cache.lookup_ns", "ns", LOWER),
    layer("probe.core.cache.promote_4k_us", "us", LOWER),
    layer("probe.core.hotness.record_ns_per_entry", "ns", LOWER),
    layer("probe.core.hotness.fold_epoch_us", "us", LOWER),
    layer("probe.telemetry.hist_record_ns", "ns", LOWER),
];

pub fn unit_of(table: &[Metric], name: &str) -> Option<&'static str> {
    table.iter().find(|m| m.name == name).map(|m| m.unit)
}

/// Whether `name` may be a workload or metric name: it starts with a
/// letter or digit and is made of at most 64 letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("name".to_owned(), m.name.into()),
        ("unit".to_owned(), m.unit.into()),
        ("better".to_owned(), m.better.into()),
    ];
    if let Some(bound) = m.bound {
        pairs.push(("bound".to_owned(), bound.into()));
    }
    Json::Obj(pairs)
}

/// The `BENCHMARK.json` these tables declare.
pub fn manifest() -> Json {
    obj([
        (
            "command",
            Json::Arr(vec!["bash".into(), "benchmark/run.sh".into()]),
        ),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

/// Checks the declared names and units against the contract's limits.
///
/// # Errors
///
/// The first name or unit outside the limits, or used twice.
pub fn check_tables() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let workloads = WORKLOADS.iter().map(|w| (w.name, "count"));
    let metrics = END_TO_END.iter().chain(PER_LAYER).map(|m| (m.name, m.unit));
    for (name, unit) in workloads.chain(metrics) {
        if !valid_name(name) {
            return Err(format!("name {name:?} is outside [A-Za-z0-9_.-]{{1,64}}"));
        }
        if !valid_unit(unit) {
            return Err(format!("unit {unit:?} of {name} is not a valid unit"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} is used twice"));
        }
    }
    Ok(())
}

fn names(doc: &Json, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

/// Checks that `text` (the `BENCHMARK.json` of the checkout) declares
/// exactly what this binary emits: no silent extra or missing metric.
///
/// # Errors
///
/// What differs, and how to regenerate the file.
pub fn check_file(text: &str) -> Result<(), String> {
    let want = manifest();
    let have = parse(text).map_err(|e| format!("BENCHMARK.json is not JSON: {e}"))?;
    if have == want {
        return Ok(());
    }
    let mut diff = Vec::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        let (h, w) = (names(&have, section), names(&want, section));
        for n in w.iter().filter(|n| !h.contains(n)) {
            diff.push(format!("{section}: {n} is emitted but not declared"));
        }
        for n in h.iter().filter(|n| !w.contains(n)) {
            diff.push(format!("{section}: {n} is declared but not emitted"));
        }
    }
    if diff.is_empty() {
        diff.push("same names, but a unit, bound, why, command or run_seconds differs".to_owned());
    }
    Err(format!(
        "BENCHMARK.json does not match the benchmark ({}); regenerate it with `benchmark/run.sh manifest > BENCHMARK.json`",
        diff.join("; ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator() {
        for good in [
            "ops_per_s",
            "core.client.self_us_per_op",
            "read-skew",
            "9lives",
            "A.b_c-d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "µs",
            "a%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_validator() {
        for good in ["ms", "1/s", "%", "B/B", "1/kwrite", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "µs", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn tables_meet_the_contract() {
        check_tables().unwrap();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", LOWER));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(manifest().encode_pretty().len() < 64 << 10);
    }

    #[test]
    fn committed_file_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        check_file(text).unwrap();
    }

    #[test]
    fn a_drifted_file_is_refused_with_the_name() {
        let text = manifest()
            .encode_pretty()
            .replace("call_p50_us", "call_p51_us");
        let err = check_file(&text).unwrap_err();
        assert!(
            err.contains("call_p50_us is emitted but not declared"),
            "{err}"
        );
        assert!(
            err.contains("call_p51_us is declared but not emitted"),
            "{err}"
        );
        assert!(check_file("{").is_err());
        let other = manifest()
            .encode_pretty()
            .replace("\"bound\": 0.25", "\"bound\": 0.2");
        assert!(check_file(&other).unwrap_err().contains("differs"));
    }
}
