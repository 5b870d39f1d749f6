//! E15 — observability overhead and live inspection.
//!
//! The live health plane (windowed sampler + state machines + SLO
//! tracker) is ticked by the server loops, between their harvests, and
//! must be close to free for the foreground data path. This experiment
//! runs the *same* read-heavy closed loop four times — health plane off,
//! on with a fast tick, on, off — and reports each arm's mean of its two
//! runs, so neither arm gains from running later. The `health-overhead`
//! gate (`harness gate`) holds the on-arm at no worse than 5% under the
//! off-arm.
//!
//! The on-arm also proves the plane is actually alive while being
//! measured: after the loop it calls the `Inspect` RPC and asserts the
//! returned document is versioned, carries every component and at least
//! one non-empty window digest.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_workloads::micro::{closed_loop, setup_objects, OpMix};
use gengar_workloads::Distribution;

use crate::exp::{System, SystemKind};
use crate::table::Table;
use crate::{Metrics, RunConfig};

const OBJECT_SIZE: u64 = 4096;
const OBJECTS: u64 = 128;
const THREADS: usize = 2;

/// One arm of the pair: identical workload, health plane off or on.
/// Returns the measured kops and (on-arm only) the inspect document.
fn run_arm(rc: &RunConfig, health_on: bool, ops: u64) -> (f64, Option<String>) {
    let mut config = rc.base_config();
    config.health.enabled = health_on;
    if health_on {
        // A 10ms tick samples aggressively — two orders of magnitude
        // faster than a production scrape — so the measured overhead is
        // an upper bound on the plane's real cost.
        config.health.tick = Duration::from_millis(10);
    }
    let system = Arc::new(System::launch(SystemKind::Gengar, 1, config, rc));
    let mut loader = system.client();
    let objects = Arc::new(setup_objects(&mut loader, OBJECTS, OBJECT_SIZE).expect("setup"));
    closed_loop(
        &mut loader,
        &objects,
        Distribution::Zipfian(0.99),
        OpMix::read_only(),
        600,
        1,
    )
    .expect("warmup");
    std::thread::sleep(Duration::from_millis(40));

    let t0 = Instant::now();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let system = Arc::clone(&system);
            let objects = Arc::clone(&objects);
            std::thread::spawn(move || {
                let mut pool = system.client();
                closed_loop(
                    &mut pool,
                    &objects,
                    Distribution::Zipfian(0.99),
                    OpMix::read_heavy(),
                    ops,
                    100 + t as u64,
                )
                .expect("loop")
                .ops
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().expect("thread")).sum();
    let kops = total as f64 / t0.elapsed().as_secs_f64() / 1e3;

    let doc = health_on.then(|| {
        let mut client = system.gengar_client(rc.base_client_config());
        client.inspect(0).expect("inspect rpc")
    });
    (kops, doc)
}

/// Runs E15.
pub fn run(rc: &RunConfig) -> Metrics {
    let ops = rc.scale.ops(48_000);

    let (mut kops, mut doc) = ([0.0f64; 2], None);
    for health_on in [false, true, true, false] {
        let (arm_kops, arm_doc) = run_arm(rc, health_on, ops);
        kops[usize::from(health_on)] += arm_kops / 2.0;
        doc = arm_doc.or(doc);
    }
    let [off_kops, on_kops] = kops;
    let doc = doc.expect("on-arm inspect doc");

    // The plane was live while being measured, not just configured.
    assert!(doc.contains("\"v\":1"), "inspect doc unversioned: {doc}");
    for component in gengar_core::health::COMPONENTS {
        assert!(
            doc.contains(&format!("\"{component}\"")),
            "inspect doc missing component {component}: {doc}"
        );
    }
    assert!(
        doc.contains("\"windows\":[{"),
        "inspect doc carries no window digests: {doc}"
    );

    let overhead_pct = (1.0 - on_kops / off_kops.max(f64::MIN_POSITIVE)) * 100.0;
    let mut table = Table::new(
        "E15: health-plane overhead (95/5 r/w, zipfian 0.99, 2 threads, mean of 2 runs)",
        &["arm", "kops/s", "inspect"],
    );
    table.row(vec![
        "health off".to_owned(),
        format!("{off_kops:.1}"),
        "-".to_owned(),
    ]);
    table.row(vec![
        "health on (10ms tick)".to_owned(),
        format!("{on_kops:.1}"),
        format!("{} B doc", doc.len()),
    ]);
    table.print();

    vec![
        ("health_off_kops".to_owned(), off_kops),
        ("health_on_kops".to_owned(), on_kops),
        ("overhead_pct".to_owned(), overhead_pct),
        ("inspect_bytes".to_owned(), doc.len() as f64),
    ]
}
