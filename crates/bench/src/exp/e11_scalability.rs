//! E11 — scalability with the number of memory servers.
//!
//! A fixed client load over objects spread across the pool, against 1–8
//! servers. More servers mean more independent device and NIC channels, so
//! aggregate throughput grows until the clients saturate.
//!
//! This experiment runs at a *stretched time scale*: modelled delays are
//! multiplied so they are large enough to sleep through (freeing host
//! cores), which lets the simulated channels operate in parallel even when
//! the host has fewer cores than the cluster has nodes. Reported numbers
//! are in simulated kops/s at that scale; the shape across server counts
//! is what the figure shows.

use std::sync::Arc;
use std::time::Instant;

use gengar_core::GlobalPtr;
use gengar_workloads::micro::{closed_loop, setup_objects, OpMix};
use gengar_workloads::Distribution;

use crate::exp::{System, SystemKind};
use crate::table::Table;
use crate::{Metrics, RunConfig};

const THREADS: usize = 8;
/// 8 KiB keeps the workload latency-bound rather than device-bound: at
/// 32 KiB the Optane read channels saturate near the scalar rate and the
/// figure would measure DIMM bandwidth, not how well the issue path
/// overlaps round trips across servers.
const OBJECT_SIZE: u64 = 8192;
const OBJECTS: u64 = 128;
/// Delay stretch: multi-microsecond NVM reads become sleepable waits.
pub const TIME_SCALE: f64 = 32.0;

/// Runs E11.
pub fn run(rc: &RunConfig) -> Metrics {
    // Quick-sized runs (100 ops/thread) give a ~15 ms timed window — one
    // scheduler hiccup on a small host swings the figure 3x. 400 ops per
    // thread still finishes in ~2 s, so E11 ignores quick scaling.
    let ops = 400;

    let window = rc.window;
    let mut metrics = Metrics::new();
    let mut table = Table::new(
        &format!(
            "E11: throughput vs memory servers ({THREADS} client threads, reads, time x{TIME_SCALE})"
        ),
        &[
            "servers",
            "gengar kops/s (simulated)",
            &format!("batched w={window} kops/s (simulated)"),
        ],
    );
    for &servers in &[1usize, 2, 4, 8] {
        let mut config = rc.base_config();
        // Keep the total pool size constant as servers vary, and disable
        // the cache so the figure isolates how raw NVM/NIC channel
        // capacity scales with the server count.
        config.nvm_capacity = (256 << 20) / servers as u64;
        config.cache = gengar_core::CachePolicy::disabled();
        let system = Arc::new(System::launch(SystemKind::Gengar, servers, config, rc));
        let mut loader = system.client();
        let objects = Arc::new(setup_objects(&mut loader, OBJECTS, OBJECT_SIZE).expect("setup"));

        // Dial every client before the clock starts: the figure measures
        // steady-state issue throughput, not connection setup.
        let pools: Vec<_> = (0..THREADS).map(|_| system.client()).collect();
        let t0 = Instant::now();
        let handles: Vec<_> = pools
            .into_iter()
            .enumerate()
            .map(|(t, mut pool)| {
                let objects = Arc::clone(&objects);
                std::thread::spawn(move || {
                    closed_loop(
                        &mut pool,
                        &objects,
                        Distribution::Uniform,
                        OpMix::read_only(),
                        ops,
                        300 + t as u64,
                    )
                    .expect("loop")
                    .ops
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().expect("thread")).sum();
        // Convert wall-clock back to simulated time.
        let simulated_secs = t0.elapsed().as_secs_f64() / TIME_SCALE;
        let scalar_kops = total as f64 / simulated_secs / 1e3;

        // Same load through the vectored API: batches of random objects
        // span every server, so the client's per-server windows overlap
        // round trips across the whole pool.
        let clients: Vec<_> = (0..THREADS)
            .map(|_| system.gengar_client(rc.base_client_config()))
            .collect();
        let t0 = Instant::now();
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut client)| {
                let objects = Arc::clone(&objects);
                std::thread::spawn(move || {
                    let mut rng: u64 = 0xE11B ^ ((t as u64) << 32);
                    let mut bufs = vec![0u8; OBJECT_SIZE as usize * 16];
                    let mut done = 0u64;
                    while done < ops {
                        let n = 16usize.min((ops - done) as usize);
                        let idx: Vec<usize> = (0..n)
                            .map(|_| {
                                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                                (rng >> 33) as usize % objects.len()
                            })
                            .collect();
                        let items: Vec<(GlobalPtr, u64, &mut [u8])> = idx
                            .iter()
                            .zip(bufs.chunks_exact_mut(OBJECT_SIZE as usize))
                            .map(|(&i, b)| (objects[i], 0u64, b))
                            .collect();
                        assert!(
                            client.read_batch(items).expect("batch").all_ok(),
                            "batched read failed"
                        );
                        done += n as u64;
                    }
                    done
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().expect("thread")).sum();
        let simulated_secs = t0.elapsed().as_secs_f64() / TIME_SCALE;
        let batched_kops = total as f64 / simulated_secs / 1e3;

        table.row(vec![
            servers.to_string(),
            format!("{scalar_kops:.1}"),
            format!("{batched_kops:.1}"),
        ]);
        metrics.push((format!("servers{servers}.scalar_kops"), scalar_kops));
        metrics.push((format!("servers{servers}.batched_kops"), batched_kops));
    }
    table.print();
    metrics
}
