//! The Gengar benchmark harness.
//!
//! One module per experiment of the evaluation (see `DESIGN.md` for the
//! per-experiment index, `EXPERIMENTS.md` for paper-vs-measured records).
//! Every experiment takes the run's [`RunConfig`], prints the rows/series
//! its figure or table reports and returns its headline numbers as
//! [`Metrics`], so the `harness` binary's snapshots and the [`gate`] table
//! judge the same data. [`EXPERIMENTS`] is the one list of them.
//!
//! Run everything: `cargo run -p gengar-bench --release --bin harness`.
//! Run one experiment: `... --bin harness -- e7`.
//! Quick mode (CI-sized): `... --bin harness -- all --quick`.
//! Evaluate the numeric gates: `... --bin harness -- gate`.

pub mod client_cache;
pub mod exp;
pub mod gate;
pub mod table;

use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_rdma::{FabricConfig, FaultPlane};
use gengar_telemetry::{json_escape, Registry, RegistrySnapshot, TelemetryConfig};

use exp::SystemKind;

/// Seed every harness fault plane is built with, so `--faults` runs are
/// reproducible without a separate seed flag.
pub const FAULT_SEED: u64 = 42;

/// Everything the command line can vary about a run (the `harness`
/// binary's module doc says what each flag is for), built once there or by
/// a [`gate`] row and passed by reference to every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Experiment sizing (`--quick`).
    pub scale: Scale,
    /// Whether launched systems and clients collect telemetry
    /// (`--no-telemetry` clears it to measure overhead).
    pub telemetry: bool,
    /// Outstanding-op window depth of every Gengar client (`--window N`);
    /// 1 disables pipelining.
    pub window: u32,
    /// Aggressor tenants E12 launches against its one victim (`--tenants N`).
    pub tenants: u32,
    /// Whether the QoS plane is armed — with no tenant budgets, so it
    /// measures plane overhead — on every launched system (`--qos`). E12
    /// manages its own per-phase QoS config and ignores this.
    pub qos: bool,
    /// Backups per server (`--replicas N`). The replication plane supports
    /// one (a successor ring), so any non-zero count arms it. E13 manages
    /// its own replicated/unreplicated arms and ignores this.
    pub replicas: u32,
    /// Fault schedule armed on every launched Gengar fabric (`--faults
    /// <spec>`).
    pub faults: Option<String>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: Scale::Full,
            telemetry: true,
            window: 16,
            tenants: 3,
            qos: false,
            replicas: 0,
            faults: None,
        }
    }
}

impl RunConfig {
    /// The [`TelemetryConfig`] threaded through every config below.
    pub fn telemetry_config(&self) -> TelemetryConfig {
        TelemetryConfig {
            enabled: self.telemetry,
        }
    }

    /// The server configuration every experiment starts from.
    pub fn base_config(&self) -> ServerConfig {
        let mut config = ServerConfig {
            nvm_capacity: 128 << 20,
            cache: gengar_core::CachePolicy::new()
                .capacity(16 << 20)
                .hot_threshold(2),
            epoch: Duration::from_millis(10),
            telemetry: self.telemetry_config(),
            ..Default::default()
        };
        config.qos.enabled = self.qos;
        // Single-server systems have no successor to mirror to and stay
        // unreplicated.
        config.replication.enabled = self.replicas > 0;
        config
    }

    /// The client configuration every experiment starts from.
    pub fn base_client_config(&self) -> ClientConfig {
        ClientConfig {
            report_every: 128,
            window_depth: self.window,
            telemetry: self.telemetry_config(),
            ..Default::default()
        }
    }

    /// Client config for shared-object experiments.
    pub fn seqlock_client_config(&self) -> ClientConfig {
        ClientConfig {
            consistency: Consistency::Seqlock,
            ..self.base_client_config()
        }
    }

    /// A fresh fault plane for one launched system, built from the
    /// `--faults` spec with the fixed [`FAULT_SEED`] and this run's
    /// telemetry config (so `fault.*` counters land in each experiment's
    /// telemetry snapshot).
    ///
    /// # Errors
    ///
    /// The parse error for a malformed spec; the harness checks this once
    /// up front, so a typo fails at the CLI, not mid-experiment.
    pub fn fault_plane(&self) -> Result<Option<Arc<FaultPlane>>, String> {
        let Some(spec) = &self.faults else {
            return Ok(None);
        };
        let plane = FaultPlane::from_spec(spec, FAULT_SEED, self.telemetry_config())?;
        Ok(Some(Arc::new(plane)))
    }

    /// The fabric a system of `kind` launches on. The `--faults` schedule
    /// arms Gengar fabrics only: the comparator columns are fault-free
    /// references for the faulted Gengar column beside them.
    pub fn fabric_config(&self, kind: SystemKind) -> FabricConfig {
        let mut fabric = FabricConfig::infiniband_100g();
        fabric.telemetry = self.telemetry_config();
        if kind == SystemKind::Gengar {
            fabric.faults = self.fault_plane().expect("spec validated at the CLI");
        }
        fabric
    }
}

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small iteration counts (seconds per experiment).
    Quick,
    /// Full counts (the numbers recorded in EXPERIMENTS.md).
    Full,
}

impl Scale {
    /// Scales a full-size count down in quick mode.
    pub fn ops(self, full: u64) -> u64 {
        match self {
            Scale::Quick => (full / 8).max(100),
            Scale::Full => full,
        }
    }

    /// The `mode` a snapshot records.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Median of per-op wall-clock latencies for `iters` invocations of `f`
/// (after `iters/5` warm-up calls). Medians resist the preemption outliers
/// busy-wait emulation suffers on small hosts.
pub fn median_ns(iters: u64, mut f: impl FnMut()) -> u64 {
    for _ in 0..(iters / 5).max(5) {
        f();
    }
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The headline results of one experiment run as `(name, value)` in
/// report order (e.g. `"servers4.batched_kops"`). They surface, unrounded,
/// in the harness's `BENCH_<ID>.json` snapshot and are what the [`gate`]
/// rules read.
pub type Metrics = Vec<(String, f64)>;

/// One row of the experiment table.
pub struct Experiment {
    /// The id the CLI, the snapshot file name and the gate table use.
    pub id: &'static str,
    /// Delay stretch the experiment runs under (see E11's module doc);
    /// 1.0 for experiments that report wall-clock time.
    pub time_scale: f64,
    /// The experiment itself.
    pub run: fn(&RunConfig) -> Metrics,
}

/// Every experiment, in order.
pub const EXPERIMENTS: &[Experiment] = {
    use exp::*;
    const fn row(id: &'static str, time_scale: f64, run: fn(&RunConfig) -> Metrics) -> Experiment {
        Experiment {
            id,
            time_scale,
            run,
        }
    }
    &[
        row("e1", 1.0, e01_devices::run),
        row("e2", 1.0, e02_read_latency::run),
        row("e3", 1.0, e03_write_latency::run),
        row("e4", 1.0, e04_throughput::run),
        row("e4p", e04p_pipelining::TIME_SCALE, e04p_pipelining::run),
        row("e5", 1.0, e05_hotness::run),
        row("e6", 1.0, e06_cache_size::run),
        row("e7", 1.0, e07_ycsb_throughput::run),
        row("e8", 1.0, e08_ycsb_latency::run),
        row("e9", 1.0, e09_mapreduce::run),
        row("e10", 1.0, e10_sharing::run),
        row("e11", e11_scalability::TIME_SCALE, e11_scalability::run),
        row("e12", e12_fairness::TIME_SCALE, e12_fairness::run),
        row("e12a", e12a_ablation::TIME_SCALE, e12a_ablation::run),
        row("e13", 1.0, e13_replication::run),
        row("e14", 1.0, e14_phase_change::run),
        row("e15", 1.0, e15_observability::run),
    ]
};

/// Resolves experiment ids against [`EXPERIMENTS`] (`all`, or no id at
/// all, selects every row).
///
/// # Errors
///
/// Names the first unknown id, so a typo is refused before any experiment
/// of the request has run.
pub fn resolve(ids: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    if ids.is_empty() || ids.contains(&"all") {
        return Ok(EXPERIMENTS.iter().collect());
    }
    ids.iter()
        .map(|id| {
            EXPERIMENTS.iter().find(|e| e.id == *id).ok_or_else(|| {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                format!("unknown experiment id: {id} (known: {known:?})")
            })
        })
        .collect()
}

impl Experiment {
    /// The one runner: a clean registry (so the telemetry section
    /// reflects this experiment alone; reset keeps handles valid), the
    /// row's time scale for the duration of the run and 1.0 after it.
    pub fn execute(&self, config: &RunConfig) -> Metrics {
        Registry::global().reset();
        gengar_hybridmem::set_time_scale(self.time_scale);
        let metrics = (self.run)(config);
        gengar_hybridmem::set_time_scale(1.0);
        metrics
    }
}

/// When, at which revision and on which machine a run measured — stamped
/// into every snapshot so `scripts/bench_compare.sh` can tell comparable
/// runs from incomparable ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Seconds since the Unix epoch at the start of the run.
    pub ts_unix: u64,
    /// `git rev-parse --short HEAD` of the workspace this binary was
    /// built from (wherever it runs), with `-dirty` appended when that
    /// checkout has uncommitted changes, or "unknown" in a tarball
    /// checkout.
    pub rev: String,
    /// The machine's hostname, or "unknown".
    pub host: String,
}

impl Provenance {
    /// Resolves the three stamps, best-effort.
    pub fn capture() -> Provenance {
        let ts_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(env!("CARGO_MANIFEST_DIR"))
                .args(args)
                .output()
                .ok()
        };
        let head = git(&["rev-parse", "--short", "HEAD"])
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).into_owned());
        // `git diff --quiet` exits 1 when tracked files differ from HEAD.
        let dirty =
            git(&["diff", "--quiet", "HEAD"]).is_some_and(|out| out.status.code() == Some(1));
        let rev = rev_stamp(head.as_deref(), dirty);
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .ok()
            .map(|s| s.trim().to_owned())
            .or_else(|| std::env::var("HOSTNAME").ok())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        Provenance { ts_unix, rev, host }
    }
}

/// The rev a snapshot is stamped with: the short hash `head` (as git
/// printed it), suffixed `-dirty` when the tree had uncommitted changes,
/// or "unknown" without a hash.
fn rev_stamp(head: Option<&str>, dirty: bool) -> String {
    match head.map(str::trim).filter(|h| !h.is_empty()) {
        Some(head) if dirty => format!("{head}-dirty"),
        Some(head) => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// The file a reporting run of experiment `id` writes its record to,
/// `BENCH_<ID>.json`; `Err` with the reason when `provenance` cannot say
/// which revision measured — a snapshot nobody can place against the
/// history compares against nothing.
///
/// # Errors
///
/// The rev is "unknown".
pub fn snapshot_file(id: &str, provenance: &Provenance) -> Result<String, String> {
    let file = format!("BENCH_{}.json", id.to_uppercase());
    if provenance.rev == "unknown" {
        return Err(format!(
            "not writing {file}: the git revision is unknown (build from a git checkout)"
        ));
    }
    Ok(file)
}

/// The one-line JSON record of one experiment run: what `harness` prints
/// and writes to `BENCH_<ID>.json`. Metric values keep their shortest
/// round-trip precision (a non-finite one is `null`) in a flat `metrics`
/// object — `scripts/bench_compare.sh` extracts it with a `[^}]*` match —
/// and the `telemetry` section, when given, comes last.
pub fn snapshot_record(
    id: &str,
    config: &RunConfig,
    provenance: &Provenance,
    elapsed: Duration,
    metrics: &Metrics,
    telemetry: Option<&RegistrySnapshot>,
) -> String {
    let mut record = format!(
        "{{\"experiment\":\"{}\",\"mode\":\"{}\",\"ts_unix\":{},\"rev\":\"{}\",\"host\":\"{}\",\"tenants\":{},\"qos\":{},\"replicas\":{},",
        json_escape(id),
        config.scale.name(),
        provenance.ts_unix,
        json_escape(&provenance.rev),
        json_escape(&provenance.host),
        config.tenants,
        config.qos,
        config.replicas,
    );
    if let Some(spec) = &config.faults {
        record.push_str(&format!("\"faults\":\"{}\",", json_escape(spec)));
    }
    if !metrics.is_empty() {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value)| {
                if value.is_finite() {
                    format!("\"{}\":{value}", json_escape(name))
                } else {
                    format!("\"{}\":null", json_escape(name))
                }
            })
            .collect();
        record.push_str(&format!("\"metrics\":{{{}}},", body.join(",")));
    }
    record.push_str(&format!("\"elapsed_ms\":{}", elapsed.as_millis()));
    if let Some(snapshot) = telemetry {
        record.push_str(&format!(",\"telemetry\":{}", snapshot.to_json()));
    }
    record.push('}');
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_reaches_every_config_it_builds() {
        let defaults = RunConfig::default();
        assert!(!defaults.base_config().replication.enabled && !defaults.base_config().qos.enabled);
        assert!(defaults.base_config().telemetry.enabled);
        let run = RunConfig {
            telemetry: false,
            window: 4,
            qos: true,
            replicas: 1,
            faults: Some("drop:p=0.01".to_owned()),
            ..defaults
        };
        assert!(run.base_config().replication.enabled && run.base_config().qos.enabled);
        assert_eq!(run.base_client_config().window_depth, 4);
        assert_eq!(run.seqlock_client_config().window_depth, 4);
        assert!(!run.base_config().telemetry.enabled);
        assert!(!run.base_client_config().telemetry.enabled);
        for kind in SystemKind::all() {
            let fabric = run.fabric_config(kind);
            assert!(!fabric.telemetry.enabled);
            assert_eq!(fabric.faults.is_some(), kind == SystemKind::Gengar);
        }
        let typo = RunConfig {
            faults: Some("dorp:p=0.01".to_owned()),
            ..run
        };
        assert!(typo.fault_plane().is_err());
    }

    #[test]
    fn unknown_id_is_refused_before_anything_runs() {
        // `resolve` only looks ids up; nothing has run when it refuses.
        let err = resolve(&["e1", "e99", "e2"]).err().expect("e99 is unknown");
        assert!(err.contains("e99") && err.contains("e15"), "{err}");
        assert_eq!(resolve(&["e4p", "e1"]).unwrap()[0].id, "e4p");
        assert_eq!(resolve(&[]).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(resolve(&["e3", "all"]).unwrap().len(), EXPERIMENTS.len());
    }

    #[test]
    fn runner_restores_the_time_scale_after_a_stretched_experiment() {
        let row = Experiment {
            id: "stretched",
            time_scale: 8.0,
            run: |_| vec![("scale_seen".to_owned(), gengar_hybridmem::time_scale())],
        };
        let metrics = row.execute(&RunConfig::default());
        assert_eq!(metrics, [("scale_seen".to_owned(), 8.0)]);
        assert_eq!(gengar_hybridmem::time_scale(), 1.0);
    }

    /// A record stamped with an unknown revision is never written: the
    /// file name comes back as the refusal's reason instead.
    #[test]
    fn snapshot_file_refuses_an_unknown_rev() {
        let mut provenance = Provenance {
            ts_unix: 7,
            rev: "abc1234".to_owned(),
            host: "box".to_owned(),
        };
        assert_eq!(
            snapshot_file("e10", &provenance).as_deref(),
            Ok("BENCH_E10.json")
        );
        provenance.rev = "unknown".to_owned();
        let why = snapshot_file("e10", &provenance).unwrap_err();
        assert!(
            why.contains("BENCH_E10.json") && why.contains("unknown"),
            "{why}"
        );
    }

    /// A tree with uncommitted changes is stamped as such, so a snapshot
    /// re-taken from a working tree does not pass for its commit.
    #[test]
    fn rev_stamp_marks_a_dirty_tree() {
        assert_eq!(rev_stamp(Some("7e7dd0a\n"), false), "7e7dd0a");
        assert_eq!(rev_stamp(Some("7e7dd0a\n"), true), "7e7dd0a-dirty");
        assert_eq!(rev_stamp(None, true), "unknown");
        assert_eq!(rev_stamp(Some(" \n"), false), "unknown");
    }

    #[test]
    fn snapshot_record_keeps_precision_on_one_flat_line() {
        let metrics = vec![
            ("zipf099.hit_ratio".to_owned(), 0.639),
            ("window16.read_kops".to_owned(), 2543.1),
            ("overhead_pct".to_owned(), f64::NAN),
        ];
        let provenance = Provenance {
            ts_unix: 7,
            rev: "abc1234".to_owned(),
            host: "box".to_owned(),
        };
        let registry = Registry::new();
        registry.histogram("client", "read_ns").record_ns(100);
        let telemetry = registry.snapshot();
        let elapsed = Duration::from_millis(12);
        let config = RunConfig::default();
        let record = snapshot_record(
            "e5",
            &config,
            &provenance,
            elapsed,
            &metrics,
            Some(&telemetry),
        );
        assert!(!record.contains('\n'));
        assert!(record.starts_with("{\"experiment\":\"e5\",\"mode\":\"full\",\"ts_unix\":7,"));
        assert!(record.contains("\"tenants\":3,\"qos\":false,\"replicas\":0,\"metrics\":{"));
        assert!(record.ends_with("}}}"), "telemetry section comes last");
        let at = record.find("\"metrics\":{").unwrap() + "\"metrics\":{".len();
        let span = &record[at..at + record[at..].find('}').unwrap()];
        assert_eq!(
            span,
            "\"zipf099.hit_ratio\":0.639,\"window16.read_kops\":2543.1,\"overhead_pct\":null"
        );

        // No metrics, no telemetry: both sections are omitted.
        let bare = snapshot_record("e1", &config, &provenance, elapsed, &Metrics::new(), None);
        assert!(
            bare.ends_with("\"replicas\":0,\"elapsed_ms\":12}"),
            "{bare}"
        );
    }
}
