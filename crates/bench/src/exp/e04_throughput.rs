//! E4 — aggregate throughput vs number of client threads.
//!
//! Closed-loop clients (one pool connection per thread) over a skewed
//! working set, read-heavy and mixed. Gengar's server cache absorbs hot
//! reads in DRAM, so it sustains more clients before the NVM devices
//! saturate than the direct baseline does.

use std::sync::Arc;
use std::time::Instant;

use gengar_workloads::micro::{closed_loop, setup_objects, OpMix};
use gengar_workloads::Distribution;

use crate::exp::{System, SystemKind};
use crate::table::Table;
use crate::{Metrics, RunConfig};

// 32 KiB objects: big enough that the NVM read/write channels saturate
// within a few client threads (the regime the paper's figure shows), while
// staged writes still fit one proxy ring slot.
const OBJECT_SIZE: u64 = 32768;
const OBJECTS: u64 = 256;
const THREADS: &[usize] = &[1, 2, 4];

fn run_threads(system: &Arc<System>, threads: usize, mix: OpMix, ops: u64) -> f64 {
    // One loader allocates; worker threads share the object list.
    let mut loader = system.client();
    let objects = Arc::new(setup_objects(&mut loader, OBJECTS, OBJECT_SIZE).expect("setup"));
    // Warm-up pass so Gengar promotes hot objects before measurement.
    closed_loop(
        &mut loader,
        &objects,
        Distribution::Zipfian(0.99),
        OpMix::read_only(),
        600,
        1,
    )
    .expect("warmup");
    std::thread::sleep(std::time::Duration::from_millis(40));

    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let system = Arc::clone(system);
            let objects = Arc::clone(&objects);
            std::thread::spawn(move || {
                let mut pool = system.client();
                closed_loop(
                    &mut pool,
                    &objects,
                    Distribution::Zipfian(0.99),
                    mix,
                    ops,
                    100 + t as u64,
                )
                .expect("loop")
                .ops
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().expect("thread")).sum();
    total as f64 / t0.elapsed().as_secs_f64() / 1e3
}

/// Runs E4.
pub fn run(rc: &RunConfig) -> Metrics {
    let ops = rc.scale.ops(2_000);

    for (mix_name, mix) in [
        ("95/5 r/w", OpMix::read_heavy()),
        ("50/50 r/w", OpMix::balanced()),
    ] {
        let mut table = Table::new(
            &format!("E4: throughput vs client threads ({mix_name}, zipfian 0.99, kops/s)"),
            &["threads", "gengar", "nvm-direct"],
        );
        let gengar = Arc::new(System::launch(SystemKind::Gengar, 1, rc.base_config(), rc));
        let direct = Arc::new(System::launch(
            SystemKind::NvmDirect,
            1,
            rc.base_config(),
            rc,
        ));
        for &t in THREADS {
            let g = run_threads(&gengar, t, mix, ops);
            let d = run_threads(&direct, t, mix, ops);
            table.row(vec![t.to_string(), format!("{g:.1}"), format!("{d:.1}")]);
        }
        table.print();
    }
    Metrics::new()
}
