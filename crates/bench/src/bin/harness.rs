//! The experiment harness: regenerates every table and figure of the
//! Gengar evaluation.
//!
//! ```sh
//! cargo run -p gengar-bench --release --bin harness            # all, full size
//! cargo run -p gengar-bench --release --bin harness -- e7     # one experiment
//! cargo run -p gengar-bench --release --bin harness -- all --quick
//! cargo run -p gengar-bench --release --bin harness -- e4 --no-telemetry
//! cargo run -p gengar-bench --release --bin harness -- e4 --quick \
//!     --faults 'drop:p=0.01 + delay:ns=20000,p=0.05'
//! cargo run -p gengar-bench --release --bin harness -- gate   # the eleven gates
//! ```
//!
//! After each experiment the harness emits a one-line JSON record with a
//! `telemetry` section — the global registry snapshot (per-verb op counts,
//! cache hit/miss, proxy drain backlog, client latency percentiles, …).
//! `--no-telemetry` disables collection to measure its overhead.
//!
//! The same record (plus the experiment's headline `metrics`, e.g. E11's
//! per-server-count kops, at full precision) is also written to
//! `BENCH_<ID>.json` in the current directory, one file per experiment
//! per run (the previous one rotates to `.prev`), so the perf trajectory
//! stays machine-readable across runs and PRs. A run that cannot tell
//! which git revision it measured (a tarball checkout) prints the record
//! and writes no file.
//!
//! `--faults <spec>` arms a deterministic fault plane (fixed seed) on every
//! Gengar fabric the experiments launch (baselines run fault-free: they
//! have no retry machinery to measure); see `gengar_rdma::FaultPlane` for
//! the spec grammar. The spec is echoed in each JSON record and the
//! plane's `fault.*` counters appear in the telemetry section, so a
//! faulted run is fully self-describing.
//!
//! `--window N` sets the outstanding-op window depth every Gengar client
//! runs with (default 16; 1 disables pipelining). E4P additionally sweeps
//! the depth itself, ignoring this flag for its swept clients.
//!
//! `--tenants N` sets the aggressor-tenant count E12 (fairness) runs with
//! (default 3). `--qos` arms the QoS plane — with no tenant budgets — on
//! every launched Gengar system, measuring plane overhead under any
//! experiment (E12 manages its own per-phase budgets and ignores it).
//! `--replicas N` (default 0) arms primary–backup replication on every
//! launched Gengar system with at least two servers, so any experiment
//! can be re-measured with the mirror fan-out on its write path (E13
//! manages its own replicated/unreplicated arms and ignores it). All
//! three knobs are echoed in every JSON record.
//!
//! `--trace-out <path>` turns on causal tracing for the run and writes
//! every recorded span as Chrome trace-event JSON — load the file in
//! <https://ui.perfetto.dev> or `chrome://tracing` to see client ops,
//! fabric verbs, proxy staging and the async NVM drain causally linked by
//! trace id. A per-op-class critical-path table is printed alongside.
//! `--trace-mode full` disables sampling (default `sampled`: complete
//! traces are kept while the span buffer is roomy, children are thinned
//! 1-in-8 once it passes half occupancy).
//!
//! `gate [name…]` evaluates the numeric gates (all eleven rows of
//! `gengar_bench::gate`, or the named ones) instead of reporting; it exits
//! 1 if any failed and writes no snapshot.

use gengar_bench::{gate, resolve, snapshot_file, snapshot_record, Provenance, RunConfig, Scale};
use gengar_telemetry::{chrome_trace_json, critical_path_table, Registry, TraceMode, Tracer};

/// Prints `msg` and exits with the usage status.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut config = RunConfig::default();
    let mut trace_path: Option<String> = None;
    let mut trace_mode = TraceMode::Sampled;
    let mut selected: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => config.scale = Scale::Quick,
            "--no-telemetry" => config.telemetry = false,
            "--faults" => match it.next() {
                Some(spec) => config.faults = Some(spec),
                None => usage("--faults needs a spec, e.g. --faults 'drop:p=0.01'"),
            },
            "--trace-out" => match it.next() {
                Some(path) => trace_path = Some(path),
                None => usage("--trace-out needs a path, e.g. --trace-out trace.json"),
            },
            "--trace-mode" => match it.next().as_deref() {
                Some("sampled") => trace_mode = TraceMode::Sampled,
                Some("full") => trace_mode = TraceMode::Full,
                _ => usage("--trace-mode needs 'sampled' or 'full'"),
            },
            "--window" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(depth)) if depth >= 1 => config.window = depth,
                _ => usage("--window needs a depth >= 1, e.g. --window 16"),
            },
            "--tenants" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) if n >= 1 => config.tenants = n,
                _ => usage("--tenants needs a count >= 1, e.g. --tenants 3"),
            },
            "--qos" => config.qos = true,
            "--replicas" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) => config.replicas = n,
                _ => usage("--replicas needs a count >= 0, e.g. --replicas 1"),
            },
            flag if flag.starts_with("--") => usage(&format!("unknown flag: {flag}")),
            id => selected.push(id.to_owned()),
        }
    }
    // Parse the spec eagerly so a typo fails here, not mid-experiment.
    if let Err(e) = config.fault_plane() {
        usage(&format!("bad --faults spec: {e}"));
    }
    let selected: Vec<&str> = selected.iter().map(String::as_str).collect();

    if let Some((&"gate", names)) = selected.split_first() {
        match gate::run_gates(names, &config) {
            Ok(true) => return println!("\nall gates passed"),
            Ok(false) => std::process::exit(1),
            Err(e) => usage(&e),
        }
    }

    let experiments = resolve(&selected).unwrap_or_else(|e| usage(&e));
    // Causal tracing is on exactly when there is somewhere to write it.
    if trace_path.is_some() {
        Tracer::global().set_mode(trace_mode);
    }

    let ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
    println!(
        "gengar evaluation harness ({} mode{}{}), experiments: {}",
        config.scale.name(),
        if config.telemetry {
            ""
        } else {
            ", telemetry off"
        },
        match &config.faults {
            Some(s) => format!(", faults: {s}"),
            None => String::new(),
        },
        ids.join(", ")
    );
    let t0 = std::time::Instant::now();
    // Resolved once, identical across the run.
    let provenance = Provenance::capture();
    for experiment in experiments {
        let id = experiment.id;
        let started = std::time::Instant::now();
        let metrics = experiment.execute(&config);
        let elapsed = started.elapsed();
        let telemetry = config.telemetry.then(|| Registry::global().snapshot());
        // The per-run snapshot: headline numbers plus the full telemetry
        // section (latency percentiles and all), machine-readable so the
        // perf trajectory can be compared across runs and PRs.
        let record = snapshot_record(
            id,
            &config,
            &provenance,
            elapsed,
            &metrics,
            telemetry.as_ref(),
        );
        match snapshot_file(id, &provenance) {
            Ok(snap_path) => {
                if config.telemetry {
                    println!("{record}");
                }
                // Keep the previous snapshot as `.prev` so bench_compare.sh
                // can diff this run against the last one without any VCS
                // gymnastics.
                if std::path::Path::new(&snap_path).exists() {
                    let _ = std::fs::rename(&snap_path, format!("{snap_path}.prev"));
                }
                if let Err(e) = std::fs::write(&snap_path, format!("{record}\n")) {
                    eprintln!("failed to write {snap_path}: {e}");
                }
            }
            Err(why) => {
                println!("{record}");
                eprintln!("{why}");
            }
        }
        println!("[{id} done in {elapsed:.1?}]");
    }
    if let Some(path) = trace_path {
        let tracer = Tracer::global();
        let spans = tracer.snapshot();
        let (started, ended, dropped) = tracer.counts();
        match std::fs::write(&path, chrome_trace_json(&spans)) {
            Ok(()) => println!(
                "\ntrace: {} spans written to {path} \
                 (started={started} ended={ended} dropped={dropped}); \
                 open in https://ui.perfetto.dev or chrome://tracing",
                spans.len()
            ),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
        print!("{}", critical_path_table(&spans));
    }
    println!("\nall done in {t0:.1?}", t0 = t0.elapsed());
}
