//! The repo benchmark: four closed-loop pool workloads measured from
//! outside the program. See `README.md` beside this package for the
//! metric tables, the layer → end-to-end predictions and the commands.

mod gen;
mod json;
mod layers;
mod manifest;
mod oracle;
mod probes;
mod quarter;
mod spec;
mod stats;
mod trace;
mod trial;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::{obj, Json};
use manifest::{unit_of, END_TO_END, PER_LAYER, RUN_SECONDS, TRIALS};
use quarter::{undisturbed, Quarter, Windows, WINDOW};
use spec::Spec;
use stats::{median, ratio, us};
use trace::SpanLog;
use trial::{run_trial, Trial};

const USAGE: &str = "usage:
  gengar-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   (the driver's form)
  gengar-benchmark run <workload> [--seed N] [--seconds S]
  gengar-benchmark trace <workload> [--seed N] [--seconds S] [--out DIR]
  gengar-benchmark manifest
workloads: read_skew write_stream batch_mix shared_rw";

#[derive(Debug, PartialEq)]
enum Mode {
    /// The driver's form: one result line, end-to-end metrics only.
    Driver,
    /// Timed run with per-trial values and the by-kind split.
    Run,
    /// Traced run: per-layer metrics and a Chrome trace.
    Trace,
    Manifest,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    /// `trace`, or the driver's `--trace 1`: per-layer metrics and a trace
    /// file instead of the end-to-end metrics.
    traced: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Driver,
        traced: false,
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        out: None,
    };
    let mut rest = argv.iter();
    let mut trace_flag = None;
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            args.mode = Mode::Manifest;
            return Ok(args);
        }
        Some(sub @ ("run" | "trace")) => {
            args.mode = if sub == "run" { Mode::Run } else { Mode::Trace };
            args.traced = args.mode == Mode::Trace;
            rest.next();
            args.workload = rest.next().ok_or("missing workload name")?.clone();
        }
        _ => {}
    }
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" if args.mode == Mode::Driver => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" if args.mode == Mode::Driver => {
                trace_flag = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--out" if args.mode == Mode::Trace => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.mode == Mode::Driver {
        args.traced = trace_flag.ok_or("missing --trace")?;
    }
    if args.workload.is_empty() {
        return Err("missing --workload".to_owned());
    }
    Ok(args)
}

/// Where traces go when no `--out` is given: beside the build output,
/// which is inside the checkout and ignored by git.
fn default_trace_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("gengar-benchmark-trace")
}

/// What every output is stamped with.
struct Stamp {
    rev: String,
    host: String,
    nproc: usize,
    seed: u64,
    seconds: f64,
    /// Fresh-cluster trials the seconds are split over.
    trials: u32,
}

impl Stamp {
    fn new(args: &Args, nproc: usize) -> Self {
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map_or_else(|_| "unknown".to_owned(), |h| h.trim().to_owned());
        Stamp {
            // `run.sh` asks git; the driver's checkout is not a repository.
            rev: std::env::var("GENGAR_BENCH_REV").unwrap_or_else(|_| "unknown".to_owned()),
            host,
            nproc,
            seed: args.seed,
            seconds: args.seconds,
            trials: if args.traced { TRACED_TRIALS } else { TRIALS },
        }
    }

    fn json(&self) -> Json {
        obj([
            ("rev", self.rev.as_str().into()),
            ("host", self.host.as_str().into()),
            ("nproc", (self.nproc as u64).into()),
            ("time_scale", gengar_hybridmem::time_scale().into()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("trials", u64::from(self.trials).into()),
        ])
    }

    fn header(&self) -> String {
        format!(
            "# gengar-benchmark rev={} host={} nproc={} time_scale={} seed={} seconds={} trials={} -- host \
             wall-clock of an emulator (in-process fabric, busy-wait device models, release build), not testbed numbers",
            self.rev,
            self.host,
            self.nproc,
            gengar_hybridmem::time_scale(),
            self.seed,
            self.seconds,
            self.trials
        )
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// A timed run: [`TRIALS`] fresh-cluster trials, telemetry off.
struct TimedRun {
    trials: Vec<Trial>,
    ops_digest: u64,
}

fn timed_run(spec: &Spec, seed: u64, seconds: f64) -> Result<TimedRun, String> {
    let mut ops_digest = gen::DIGEST_START;
    let trials = (0..TRIALS)
        .map(|t| {
            // One sequence alive at a time: the benchmark's own memory
            // must stay small beside the program's in `peak_rss_mib`.
            let seq = gen::generate(spec, seed, t);
            ops_digest = gen::digest(ops_digest, &seq);
            let mut log = SpanLog::new();
            run_trial(
                spec,
                &seq,
                seconds / f64::from(TRIALS),
                false,
                &mut log,
                false,
            )
            .map_err(|e| format!("{}: trial failed: {e}", spec.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TimedRun { trials, ops_digest })
}

/// One reported metric: its value over the run, the same figure for each
/// trial alone, and the number of samples behind it.
struct Reported {
    name: &'static str,
    value: f64,
    samples: u64,
    trials: Vec<f64>,
}

/// The median over trials of a per-trial figure.
fn over_trials(name: &'static str, trials: &[Trial], f: impl Fn(&Trial) -> (f64, u64)) -> Reported {
    let (values, samples): (Vec<f64>, Vec<u64>) = trials.iter().map(f).unzip();
    Reported {
        name,
        value: median(&values),
        samples: samples.iter().sum(),
        trials: values,
    }
}

fn end_to_end(run: &TimedRun) -> Result<Vec<Reported>, String> {
    let windows: Vec<Windows> = run.trials.iter().map(Trial::windows).collect();
    let too_short = || {
        format!(
            "a trial shorter than one {}-ms window measures nothing; raise --seconds",
            WINDOW.as_millis()
        )
    };
    let whole = undisturbed(&windows).ok_or_else(too_short)?;
    let each = windows
        .iter()
        .map(|t| undisturbed(&[*t]).ok_or_else(too_short))
        .collect::<Result<Vec<_>, _>>()?;
    let quarter = |name, f: fn(&Quarter) -> f64| Reported {
        name,
        value: f(&whole),
        samples: whole.calls,
        trials: each.iter().map(f).collect(),
    };
    let rss = peak_rss_mib()?;
    Ok(vec![
        quarter("ops_per_s", |q| q.ops_per_s),
        quarter("call_p50_us", |q| us(q.p50_ns)),
        quarter("call_p95_us", |q| us(q.p95_ns)),
        over_trials("setup_s", &run.trials, |t| (t.setup_s, 1)),
        Reported {
            name: "peak_rss_mib",
            value: rss,
            samples: 1,
            trials: vec![rss],
        },
    ])
}

/// Call latency by kind, for the kinds the workload's op mix produced:
/// whole-trial percentiles, the median trial reported.
fn by_kind(run: &TimedRun) -> Vec<Reported> {
    let names = [
        ("read_p50_us", "read_p99_us"),
        ("write_p50_us", "write_p99_us"),
        ("batch_p50_us", "batch_p99_us"),
    ];
    let mut out = Vec::new();
    for (kind, (p50, p99)) in names.into_iter().enumerate() {
        if run.trials.iter().all(|t| t.by_kind[kind].count == 0) {
            continue;
        }
        out.push(over_trials(p50, &run.trials, |t| {
            (us(t.by_kind[kind].p50_ns), t.by_kind[kind].count)
        }));
        out.push(over_trials(p99, &run.trials, |t| {
            (us(t.by_kind[kind].p99_ns), t.by_kind[kind].count)
        }));
    }
    out.push(over_trials("failed_share", &run.trials, |t| {
        (ratio(t.failed as f64, t.attempted as f64), t.attempted)
    }));
    out
}

fn reported_json(table: &[manifest::Metric], metrics: &[Reported]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let unit = unit_of(table, m.name).expect("reported metrics are declared");
                let trials = m.trials.iter().map(|&v| v.into()).collect();
                (
                    m.name.to_owned(),
                    obj([
                        ("value", m.value.into()),
                        ("unit", unit.into()),
                        ("n", m.samples.into()),
                        ("trials", Json::Arr(trials)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The driver's result line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    obj([
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

fn value_unit(table: &[manifest::Metric], name: &str, value: f64) -> (String, Json) {
    let unit = unit_of(table, name).expect("emitted metrics are declared");
    (
        name.to_owned(),
        obj([("value", value.into()), ("unit", unit.into())]),
    )
}

/// Refuses an emitted metric set that is not exactly the declared one:
/// no silent extra or missing metric.
fn check_emitted(table: &[manifest::Metric], emitted: &[&str]) -> Result<(), String> {
    let missing: Vec<&str> = table
        .iter()
        .map(|m| m.name)
        .filter(|n| !emitted.contains(n))
        .collect();
    let extra: Vec<&&str> = emitted
        .iter()
        .filter(|n| !table.iter().any(|m| m.name == **n))
        .collect();
    if missing.is_empty() && extra.is_empty() && emitted.len() == table.len() {
        Ok(())
    } else {
        Err(format!(
            "emitted metrics differ from the declared ones: missing {missing:?}, undeclared {extra:?}, {} emitted for {} declared",
            emitted.len(),
            table.len()
        ))
    }
}

/// `run` and the driver's `--trace 0`. Returns whether outputs were
/// correct.
fn timed_mode(spec: &Spec, args: &Args, stamp: &Stamp) -> Result<bool, String> {
    let run = timed_run(spec, args.seed, args.seconds)?;
    let e2e = end_to_end(&run)?;
    check_emitted(END_TO_END, &e2e.iter().map(|m| m.name).collect::<Vec<_>>())?;
    let total = |f: fn(&Trial) -> u64| run.trials.iter().map(f).sum::<u64>();
    let (attempted, failed, wrong) = (
        total(|t| t.attempted),
        total(|t| t.failed),
        total(|t| t.wrong),
    );
    let correct = wrong == 0;
    if args.mode == Mode::Driver {
        let metrics = e2e
            .iter()
            .map(|m| value_unit(END_TO_END, m.name, m.value))
            .collect();
        println!("{}", result_line(correct, attempted, failed, metrics));
    } else {
        let doc = obj([
            ("workload", spec.name.into()),
            ("stamp", stamp.json()),
            (
                "ops_digest",
                format!("{:016x}", run.ops_digest).as_str().into(),
            ),
            ("wrong_results", wrong.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", reported_json(END_TO_END, &e2e)),
            ("by_kind", reported_json(PER_LAYER, &by_kind(&run))),
        ]);
        println!("{}", doc.encode());
    }
    Ok(correct)
}

/// A traced run's trials: one with telemetry off, one traced.
const TRACED_TRIALS: u32 = 2;

/// `trace` and the driver's `--trace 1`: one telemetry-off trial and one
/// traced trial of half the seconds each, plus the probes.
fn traced_mode(spec: &Spec, args: &Args, stamp: &Stamp) -> Result<bool, String> {
    let seconds = args.seconds / f64::from(TRACED_TRIALS);
    let fail = |e| format!("{}: trial failed: {e}", spec.name);
    let t0 = Instant::now();
    let seqs = [
        gen::generate(spec, args.seed, 0),
        gen::generate(spec, args.seed, 1),
    ];
    let generated = (seqs[0].timed.len() + seqs[0].warmup.len()) * 2;
    let gen_ns_per_op = t0.elapsed().as_nanos() as f64 / generated as f64;

    let timed =
        run_trial(spec, &seqs[0], seconds, false, &mut SpanLog::new(), false).map_err(fail)?;
    let mut log = SpanLog::new();
    let traced = run_trial(spec, &seqs[1], seconds, true, &mut log, true).map_err(fail)?;
    let probes = probes::run(&mut log)?;
    let layers = layers::per_layer(spec, &timed, &traced, &probes, gen_ns_per_op);
    check_emitted(
        PER_LAYER,
        &layers.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
    )?;

    let wrong = timed.wrong + traced.wrong;
    let drained = layers::drained_share(&traced);
    if drained != 1.0 {
        eprintln!("error: core.proxy.drained_share is {drained} after the barrier, not 1");
    }
    let correct = wrong == 0 && drained == 1.0;

    let dir = args.out.clone().unwrap_or_else(default_trace_dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.trace.json", spec.name));
    let meta = obj([
        ("workload", spec.name.into()),
        ("stamp", stamp.json()),
        ("op_spans_dropped", log.dropped_ops.into()),
    ]);
    std::fs::write(&path, log.chrome_trace(meta).encode())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let (attempted, failed) = (
        timed.attempted + traced.attempted,
        timed.failed + traced.failed,
    );
    let metrics = layers
        .iter()
        .map(|&(name, value)| value_unit(PER_LAYER, name, value))
        .collect();
    if args.mode == Mode::Driver {
        println!("{}", result_line(correct, attempted, failed, metrics));
    } else {
        let doc = obj([
            ("workload", spec.name.into()),
            ("stamp", stamp.json()),
            ("wrong_results", wrong.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("trace_file", path.display().to_string().as_str().into()),
            ("per_layer", Json::Obj(metrics)),
        ]);
        println!("{}", doc.encode_pretty());
    }
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    manifest::check_tables()?;
    if args.mode == Mode::Manifest {
        print!("{}", manifest::manifest().encode_pretty());
        return Ok(true);
    }
    // Guard rails: numbers from a debug build or a single core would be
    // about the build or the scheduler, not the program.
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_owned());
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < 2 {
        return Err(format!(
            "refusing to measure on {nproc} core: the load thread and the servers' threads need two"
        ));
    }
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    manifest::check_file(&declared)?;
    let spec = spec::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    gengar_hybridmem::set_time_scale(1.0);
    let stamp = Stamp::new(&args, nproc);
    println!("{}", stamp.header());
    if args.traced {
        traced_mode(spec, &args, &stamp)
    } else {
        timed_mode(spec, &args, &stamp)
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: outputs were not correct (see wrong_results / drained_share)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_form_parses() {
        let a = parse_args(&argv(
            "--workload read_skew --seed 7 --seconds 15 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.mode, a.workload.as_str(), a.seed),
            (Mode::Driver, "read_skew", 7)
        );
        assert_eq!(a.seconds, 15.0);
        assert!(!a.traced);
        let t = parse_args(&argv(
            "--workload read_skew --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(t.mode, Mode::Driver);
        assert!(t.traced);
    }

    #[test]
    fn subcommands_parse_and_bad_input_is_refused() {
        let r = parse_args(&argv("run batch_mix --seed 3")).unwrap();
        assert_eq!(
            (r.mode, r.workload.as_str(), r.seed),
            (Mode::Run, "batch_mix", 3)
        );
        let t = parse_args(&argv("trace shared_rw --out /tmp/x --seconds 4")).unwrap();
        assert!(t.mode == Mode::Trace && t.traced);
        assert_eq!(t.out, Some(PathBuf::from("/tmp/x")));
        assert_eq!(parse_args(&argv("manifest")).unwrap().mode, Mode::Manifest);
        for bad in [
            "",
            "run",
            "--workload x --seed 1 --seconds 1",
            "--workload x --seed -1 --seconds 1 --trace 0",
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed 1 --seconds 1 --trace 2",
            "run x --trace 1",
            "run x --out d",
            "run x --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn emitted_set_must_equal_the_declared_one() {
        let all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        check_emitted(END_TO_END, &all).unwrap();
        assert!(
            check_emitted(END_TO_END, &all[1..]).is_err(),
            "a missing metric"
        );
        let mut extra = all.clone();
        extra.push("surprise");
        assert!(
            check_emitted(END_TO_END, &extra).is_err(),
            "an extra metric"
        );
    }

    /// The smoke run: all four workloads at 1/100 of their op counts, timed
    /// and traced, with the oracle, the barrier check and every declared
    /// metric present. `run.sh check` runs this in a release build.
    #[test]
    fn smoke_all_four_workloads() {
        gengar_hybridmem::set_time_scale(1.0);
        for full in spec::WORKLOADS {
            let spec = full.scaled(0.01);
            let run = timed_run(&spec, 11, 1.8).unwrap();
            assert_eq!(run.trials.len(), TRIALS as usize);
            let e2e = end_to_end(&run).unwrap();
            check_emitted(END_TO_END, &e2e.iter().map(|m| m.name).collect::<Vec<_>>()).unwrap();
            for m in &e2e {
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{}: {} is {}",
                    spec.name,
                    m.name,
                    m.value
                );
                assert!(m.samples >= 1);
            }
            for t in &run.trials {
                assert_eq!(t.wrong, 0, "{}: the oracle refused a read", spec.name);
                assert_eq!(t.failed, 0, "{}: an op failed", spec.name);
                assert!(t.completed > 0 && t.completed == t.attempted);
            }
            let kinds: Vec<&str> = by_kind(&run).iter().map(|m| m.name).collect();
            assert!(kinds.contains(&"failed_share"));
            assert_eq!(
                kinds.contains(&"batch_p50_us"),
                spec.batch > 1,
                "{}",
                spec.name
            );
            assert_eq!(
                kinds.contains(&"write_p99_us"),
                spec.batch == 1 && spec.write_pct > 0
            );
            let digest = (0..TRIALS).fold(gen::DIGEST_START, |h, t| {
                gen::digest(h, &gen::generate(&spec, 11, t))
            });
            assert_eq!(
                run.ops_digest, digest,
                "{}: the digest covers every trial",
                spec.name
            );

            let seq = gen::generate(&spec, 11, 0);
            let timed = run_trial(&spec, &seq, 0.05, false, &mut SpanLog::new(), false).unwrap();
            let mut log = SpanLog::new();
            let traced = run_trial(&spec, &seq, 0.05, true, &mut log, true).unwrap();
            assert_eq!(traced.wrong, 0);
            assert_eq!(layers::drained_share(&traced), 1.0, "{}", spec.name);
            let probes = probes::run(&mut log).unwrap();
            let layers = layers::per_layer(&spec, &timed, &traced, &probes, 1.0);
            check_emitted(
                PER_LAYER,
                &layers.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            )
            .unwrap();
            assert!(layers
                .iter()
                .all(|(n, v)| v.is_finite() || panic!("{n} is {v}")));
            let names: Vec<&str> = log.spans().iter().map(|s| s.name).collect();
            for want in [
                "trial",
                "setup",
                "cluster.launch",
                "client.connect",
                "client.alloc",
                "timed",
                "client.drain_all",
                "audit",
                "probes",
            ] {
                assert!(names.contains(&want), "{}: no {want} span", spec.name);
            }
            let op = if spec.batch > 1 {
                "batch.submit"
            } else if spec.write_pct == 100 {
                "client.write"
            } else {
                "client.read"
            };
            assert!(names.contains(&op), "{}: no {op} span", spec.name);
            let trace = log.chrome_trace(Json::Null).encode();
            assert!(json::parse(&trace).is_ok(), "the trace must load");
        }
    }
}
