//! E12 — multi-tenant fairness: aggressor vs victim under the QoS plane.
//!
//! One memory server, one victim tenant issuing small scalar reads, and
//! `--tenants` aggressor tenants saturating the same server's NVM and NIC
//! channels with closed-loop reader threads. Three phases:
//!
//! 1. **solo** — the victim alone; its p99 is the baseline.
//! 2. **QoS off** — aggressors unconstrained; the victim's tail collapses
//!    (the paper-motivating result: >3x p99 inflation).
//! 3. **QoS on** — each aggressor tenant carries a bytes/s budget; the
//!    issue gate paces them and the victim's p99 returns to ≤ 2x solo
//!    while aggregate aggressor throughput is capped at the configured
//!    limit.
//!
//! Like E11 this runs at a stretched time scale so the simulated channels
//! genuinely overlap; latencies are reported in simulated microseconds and
//! throughput in simulated kops/s, where the configured budgets live too.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gengar_core::config::ClientConfig;
use gengar_core::qos::TenantSpec;
use gengar_workloads::micro::setup_objects;

use crate::exp::{System, SystemKind};
use crate::table::Table;
use crate::{Metrics, RunConfig};

/// Delay stretch (see E11): multi-microsecond NVM reads become sleepable.
pub const TIME_SCALE: f64 = 32.0;
const VICTIM_OBJECT: u64 = 8192;
const VICTIM_OBJECTS: u64 = 32;
const AGGR_OBJECT: u64 = 16384;
const AGGR_OBJECTS: u64 = 32;
/// Closed-loop scalar readers per aggressor tenant. Scalar ops charge the
/// issue gate per op, so with QoS on the pacing quantum — and therefore
/// the one transfer a victim op can still collide with — stays a single
/// read; the QoS-off queue-depth pressure comes from the thread count
/// instead of from deep batched windows.
const AGGR_THREADS: usize = 4;
/// Per-aggressor-tenant bytes/s budget in phase 3 (simulated seconds,
/// like every bucket in the plane). 64 MB/s of 16 KiB reads = 4 kops/s
/// simulated per tenant, shared by its threads.
const AGGR_CAP_BYTES: u64 = 64 << 20;
/// Burst allowance for the fairness run: small, so the measured window is
/// dominated by the refill rate rather than the initial token grant.
const BURST_RATIO: f64 = 0.02;

fn tenant_config(rc: &RunConfig, tenant: String) -> ClientConfig {
    ClientConfig {
        tenant,
        ..rc.base_client_config()
    }
}

/// One phase: launches a fresh system, runs `aggressors` aggressor
/// threads against the victim's sampled reads, and returns the victim's
/// p99 (simulated µs) and the aggregate aggressor throughput (simulated
/// kops/s) over the victim's measured window.
fn run_phase(rc: &RunConfig, aggressors: usize, qos_on: bool, ops: u64) -> (f64, f64) {
    let mut config = rc.base_config();
    // No DRAM cache: the phases measure channel contention, and a cache
    // would absorb the victim's skew-free reads.
    config.cache = gengar_core::CachePolicy::disabled();
    config.qos.enabled = qos_on;
    if qos_on {
        config.qos.burst_ratio = BURST_RATIO;
        config.qos.tenants = (0..aggressors)
            .map(|k| TenantSpec {
                name: format!("aggr{k}"),
                ops_per_sec: 0,
                bytes_per_sec: AGGR_CAP_BYTES,
                staged_bytes_cap: 0,
                weight: 1,
            })
            .collect();
    }
    let system = Arc::new(System::launch(SystemKind::Gengar, 1, config, rc));
    let mut loader = system.client();
    let victim_objs =
        Arc::new(setup_objects(&mut loader, VICTIM_OBJECTS, VICTIM_OBJECT).expect("setup victim"));
    let aggr_objs =
        Arc::new(setup_objects(&mut loader, AGGR_OBJECTS, AGGR_OBJECT).expect("setup aggressors"));

    let stop = Arc::new(AtomicBool::new(false));
    let aggr_ops = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..aggressors * AGGR_THREADS)
        .map(|t| {
            // AGGR_THREADS closed-loop readers share each tenant's budget.
            let k = t / AGGR_THREADS;
            let mut client = system.gengar_client(tenant_config(rc, format!("aggr{k}")));
            let objects = Arc::clone(&aggr_objs);
            let stop = Arc::clone(&stop);
            let done = Arc::clone(&aggr_ops);
            std::thread::spawn(move || {
                let mut rng: u64 = 0xA66E550 ^ ((t as u64) << 32);
                let mut buf = vec![0u8; AGGR_OBJECT as usize];
                while !stop.load(Ordering::Relaxed) {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let i = (rng >> 33) as usize % objects.len();
                    client
                        .read(objects[i], 0, &mut buf)
                        .expect("aggressor read");
                    done.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    let mut victim = system.gengar_client(tenant_config(rc, "victim".to_owned()));
    let mut buf = vec![0u8; VICTIM_OBJECT as usize];
    let mut rng: u64 = 0xE12F;
    // Warm-up: faults the victim's paths in and, with QoS on, lets the
    // aggressors burn their initial token grant so the measured window
    // sees the steady refill rate rather than the burst tail.
    for _ in 0..50 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        let i = (rng >> 33) as usize % victim_objs.len();
        victim.read(victim_objs[i], 0, &mut buf).expect("warmup");
    }
    if aggressors > 0 {
        std::thread::sleep(std::time::Duration::from_millis(250));
    }

    let aggr_before = aggr_ops.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let mut samples: Vec<u64> = Vec::with_capacity(ops as usize);
    for _ in 0..ops {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        let i = (rng >> 33) as usize % victim_objs.len();
        let s0 = Instant::now();
        victim
            .read(victim_objs[i], 0, &mut buf)
            .expect("victim read");
        samples.push(s0.elapsed().as_nanos() as u64);
    }
    let window = t0.elapsed();
    let aggr_in_window = aggr_ops.load(Ordering::Relaxed) - aggr_before;
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("aggressor thread");
    }

    samples.sort_unstable();
    let p99_wall_ns = samples[(samples.len() * 99) / 100];
    let p99_sim_us = p99_wall_ns as f64 / 1e3 / TIME_SCALE;
    let sim_secs = window.as_secs_f64() / TIME_SCALE;
    let aggr_kops = aggr_in_window as f64 / sim_secs / 1e3;
    (p99_sim_us, aggr_kops)
}

/// Runs E12.
pub fn run(rc: &RunConfig) -> Metrics {
    // Like E11, the sample count ignores quick scaling: a p99 over fewer
    // than a few hundred samples is one scheduler hiccup away from any
    // value, and 600 sampled reads still finish in a couple of seconds.
    let ops = 600;
    let aggressors = rc.tenants as usize;
    let cap_kops = aggressors as f64 * AGGR_CAP_BYTES as f64 / AGGR_OBJECT as f64 / 1e3;

    let mut table = Table::new(
        &format!(
            "E12: tenant fairness, 1 victim vs {aggressors} aggressors \
             (reads, time x{TIME_SCALE}, cap {cap_kops:.1} kops/s)"
        ),
        &[
            "phase",
            "victim p99 (simulated us)",
            "aggressors kops/s (simulated)",
        ],
    );
    let (solo_p99, _) = run_phase(rc, 0, false, ops);
    table.row(vec![
        "victim solo".to_owned(),
        format!("{solo_p99:.1}"),
        "-".to_owned(),
    ]);
    let (off_p99, off_kops) = run_phase(rc, aggressors, false, ops);
    table.row(vec![
        "qos off".to_owned(),
        format!("{off_p99:.1} ({:.1}x solo)", off_p99 / solo_p99.max(1e-9)),
        format!("{off_kops:.1}"),
    ]);
    let (on_p99, on_kops) = run_phase(rc, aggressors, true, ops);
    table.row(vec![
        "qos on".to_owned(),
        format!("{on_p99:.1} ({:.1}x solo)", on_p99 / solo_p99.max(1e-9)),
        format!("{on_kops:.1} (cap {cap_kops:.1})"),
    ]);
    table.print();

    vec![
        ("victim_solo_p99_us".to_owned(), solo_p99),
        ("victim_qosoff_p99_us".to_owned(), off_p99),
        ("victim_qoson_p99_us".to_owned(), on_p99),
        ("aggr_qosoff_kops".to_owned(), off_kops),
        ("aggr_qoson_kops".to_owned(), on_kops),
        ("aggr_cap_kops".to_owned(), cap_kops),
    ]
}
