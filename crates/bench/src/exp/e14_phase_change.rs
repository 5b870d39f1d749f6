//! E14 — cache adaptation under phase-change workloads.
//!
//! The hotspot migrates twice: a zipfian window over the first 64 objects
//! (phase A), then the same window shifted to the far half of the key
//! space (phase B), then back to the original window (phase C). Three
//! cache policies run the identical trace:
//!
//! * `legacy` — score-only admission, no ghost list, no demotion (the
//!   pre-adaptive policy).
//! * `adaptive` — TinyLFU admission plus the ghost list's adaptive
//!   protected/probationary sizing.
//! * `demote` — `adaptive` plus the NVM demote tier: frames evicted in
//!   phase B park server-side, so phase C re-promotes with one local
//!   NVM→DRAM copy instead of re-proving heat from scratch.
//!
//! Reported per arm: the steady-state hit ratio at the end of phase A,
//! the adaptation half-life after the migration (ops until the windowed
//! hit ratio recovers to half the steady state), full recovery points for
//! phases B and C, and the demote tier's repromotion count.

use rand::rngs::StdRng;
use rand::SeedableRng;

use gengar_core::{AdmissionMode, CachePolicy, GengarClient};
use gengar_workloads::stats::LatencyHistogram;
use gengar_workloads::zipf::{KeyChooser, Zipfian};

use crate::exp::{System, SystemKind};
use crate::table::Table;
use crate::{Metrics, RunConfig};

const OBJECT_SIZE: u64 = 16384;
const OBJECTS: u64 = 512;
/// Objects carrying the zipfian mass of one phase.
const HOT_WINDOW: u64 = 64;
/// Ops per hit-ratio measurement window.
const WINDOW: u64 = 256;

/// One phase's trace: windowed hit ratios plus the read-latency summary.
struct PhaseTrace {
    hit_ratios: Vec<f64>,
    p50_ns: u64,
}

fn run_phase(
    client: &mut GengarClient,
    objects: &[gengar_core::GlobalPtr],
    hot_base: u64,
    ops: u64,
    seed: u64,
) -> PhaseTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut zipf = Zipfian::new(HOT_WINDOW, 0.99);
    let mut buf = vec![0u8; OBJECT_SIZE as usize];
    let hist = LatencyHistogram::new();
    let mut hit_ratios = Vec::new();
    let mut done = 0u64;
    while done < ops {
        let batch = WINDOW.min(ops - done);
        let before = client.stats();
        for _ in 0..batch {
            let key = (hot_base + zipf.next_key(&mut rng)) % OBJECTS;
            let t = std::time::Instant::now();
            client
                .read(objects[key as usize], 0, &mut buf)
                .expect("read");
            hist.record(t.elapsed());
        }
        let after = client.stats();
        let hits = after.cache_hits - before.cache_hits;
        hit_ratios.push(hits as f64 / batch as f64);
        done += batch;
    }
    PhaseTrace {
        hit_ratios,
        p50_ns: hist.snapshot().p50_ns(),
    }
}

/// Ops until the windowed hit ratio first reaches `target`, or `2 * ops`
/// as a "never recovered" sentinel.
fn ops_to_reach(trace: &PhaseTrace, target: f64, ops: u64) -> u64 {
    trace
        .hit_ratios
        .iter()
        .position(|&r| r >= target)
        .map_or(ops * 2, |idx| (idx as u64 + 1) * WINDOW)
}

/// Runs E14.
pub fn run(rc: &RunConfig) -> Metrics {
    let phase_ops = rc.scale.ops(8_000);

    let mut metrics = Metrics::new();
    let mut table = Table::new(
        "E14: phase-change adaptation (hotspot 64 of 512 x 16 KiB, cache = 1/8 of set)",
        &[
            "policy",
            "steady hit",
            "half-life",
            "recovery",
            "return recovery",
            "repromotions",
        ],
    );

    let policy = CachePolicy::new()
        .capacity(OBJECTS * OBJECT_SIZE / 8)
        .hot_threshold(2)
        .ghost_entries(2048);
    let arms: &[(&str, CachePolicy)] = &[
        (
            "legacy",
            policy.admission(AdmissionMode::ScoreOnly).ghost_entries(0),
        ),
        ("adaptive", policy),
        ("demote", policy.demotion(true)),
    ];

    for &(name, arm_policy) in arms {
        let mut config = rc.base_config();
        config.cache = arm_policy;
        config.epoch = std::time::Duration::from_millis(5);
        let system = System::launch(SystemKind::Gengar, 1, config, rc);
        let mut client_config = rc.base_client_config();
        // Tight report cadence so the windowed hit ratio tracks the
        // server's adaptation, not the report lag.
        client_config.report_every = 64;
        let mut client = system.gengar_client(client_config);
        let objects = gengar_workloads::micro::setup_objects(&mut client, OBJECTS, OBJECT_SIZE)
            .expect("setup");

        let phase_a = run_phase(&mut client, &objects, 0, phase_ops, 141);
        let phase_b = run_phase(&mut client, &objects, OBJECTS / 2, phase_ops, 142);
        let phase_c = run_phase(&mut client, &objects, 0, phase_ops, 143);

        // Steady state: the last quarter of phase A.
        let tail = &phase_a.hit_ratios[phase_a.hit_ratios.len() * 3 / 4..];
        let steady: f64 = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
        let half_life = ops_to_reach(&phase_b, steady * 0.5, phase_ops);
        let recovery = ops_to_reach(&phase_b, steady * 0.9, phase_ops);
        let return_recovery = ops_to_reach(&phase_c, steady * 0.9, phase_ops);
        let repromotions = system
            .cluster()
            .server(0)
            .expect("server 0")
            .cache_stats()
            .repromotions;

        metrics.push((format!("{name}.steady_hit"), steady));
        metrics.push((format!("{name}.half_life_ops"), half_life as f64));
        metrics.push((format!("{name}.recovery_ops"), recovery as f64));
        metrics.push((
            format!("{name}.return_recovery_ops"),
            return_recovery as f64,
        ));
        metrics.push((format!("{name}.repromotions"), repromotions as f64));
        metrics.push((format!("{name}.cold_p50_ns"), phase_b.p50_ns as f64));
        metrics.push((format!("{name}.late_p50_ns"), phase_c.p50_ns as f64));
        table.row(vec![
            name.to_owned(),
            format!("{:.1}%", steady * 100.0),
            format!("{half_life} ops"),
            format!("{recovery} ops"),
            format!("{return_recovery} ops"),
            format!("{repromotions}"),
        ]);
    }
    table.print();
    metrics
}
