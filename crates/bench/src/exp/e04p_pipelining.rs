//! E4P — pipelined I/O: throughput vs outstanding-op window depth.
//!
//! A single closed-loop client issues random 512 B reads and staged
//! writes through the vectored `read_batch`/`write_batch` API while the
//! window depth sweeps 1..32. Depth 1 is the serial baseline (every op
//! pays the full request/response round trip); deeper windows post up to
//! `depth` work requests under one doorbell and overlap their wire time,
//! so throughput rises until the NVM/NIC channels saturate. The server
//! cache is disabled: the sweep isolates round-trip amortisation, not
//! promotion effects.
//!
//! The `pipelining` gate (`harness gate`, see `crate::gate`) reads the
//! reported `window<N>.read_kops`: random-read throughput at window 16
//! must be at least twice window 1.

use std::time::Instant;

use gengar_core::config::ClientConfig;
use gengar_core::GlobalPtr;
use gengar_telemetry::Registry;

use crate::exp::{System, SystemKind};
use crate::table::Table;
use crate::{Metrics, RunConfig};

// 512 B objects: small enough that the round trip (not the payload's
// bandwidth cost) dominates a serial op, which is the regime doorbell
// batching is built for.
const OBJECT_SIZE: u64 = 512;
const OBJECTS: u64 = 256;
/// Ops handed to one vectored call; the client chunks them to the window.
const BATCH: usize = 64;
const WINDOWS: &[u32] = &[1, 2, 4, 8, 16, 32];
/// Delay stretch: makes modelled wire time dominate the client's per-op
/// CPU cost, so the sweep measures round-trip amortisation rather than
/// host-side planning overhead (which real NICs do not pay).
pub const TIME_SCALE: f64 = 8.0;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn doorbells_saved() -> u64 {
    Registry::global()
        .snapshot()
        .counter("rdma.doorbells_saved")
        .unwrap_or(0)
}

/// Runs E4P.
pub fn run(rc: &RunConfig) -> Metrics {
    let ops = rc.scale.ops(16_000);
    let mut config = rc.base_config();
    config.cache = gengar_core::CachePolicy::disabled();
    let system = System::launch(SystemKind::Gengar, 1, config, rc);

    let mut loader = system.gengar_client(rc.base_client_config());
    let init = vec![0x5Au8; OBJECT_SIZE as usize];
    let ptrs: Vec<GlobalPtr> = (0..OBJECTS)
        .map(|_| {
            let p = loader.alloc(0, OBJECT_SIZE).expect("alloc");
            loader.write(p, 0, &init).expect("init write");
            p
        })
        .collect();
    loader.drain_all().expect("drain");

    let mut metrics = Metrics::new();
    let mut table = Table::new(
        &format!("E4P: pipelined random 512 B ops vs window depth (1 client, time x{TIME_SCALE})"),
        &[
            "window",
            "read kops/s (simulated)",
            "write kops/s (simulated)",
            "doorbells saved",
        ],
    );
    for &w in WINDOWS {
        let mut client = system.gengar_client(ClientConfig {
            window_depth: w,
            ..rc.base_client_config()
        });
        let saved_before = doorbells_saved();

        // Random reads, fixed seed per depth so every sweep point walks
        // the same object sequence.
        let mut rng = 0xE4B0 ^ u64::from(w);
        let mut bufs = vec![0u8; OBJECT_SIZE as usize * BATCH];
        let mut done = 0u64;
        let t0 = Instant::now();
        while done < ops {
            let n = BATCH.min((ops - done) as usize);
            let idx: Vec<usize> = (0..n)
                .map(|_| (splitmix64(&mut rng) % OBJECTS) as usize)
                .collect();
            let items: Vec<(GlobalPtr, u64, &mut [u8])> = idx
                .iter()
                .zip(bufs.chunks_exact_mut(OBJECT_SIZE as usize))
                .map(|(&i, b)| (ptrs[i], 0u64, b))
                .collect();
            assert!(
                client.read_batch(items).expect("read batch").all_ok(),
                "read batch failed"
            );
            done += n as u64;
        }
        // Convert wall-clock back to simulated time.
        let read_kops = done as f64 / (t0.elapsed().as_secs_f64() / TIME_SCALE) / 1e3;

        // Staged writes through the same window.
        let payload = vec![0xA5u8; OBJECT_SIZE as usize];
        let mut done = 0u64;
        let t0 = Instant::now();
        while done < ops {
            let n = BATCH.min((ops - done) as usize);
            let idx: Vec<usize> = (0..n)
                .map(|_| (splitmix64(&mut rng) % OBJECTS) as usize)
                .collect();
            let items: Vec<(GlobalPtr, u64, &[u8])> =
                idx.iter().map(|&i| (ptrs[i], 0u64, &payload[..])).collect();
            assert!(
                client.write_batch(items).expect("write batch").all_ok(),
                "write batch failed"
            );
            done += n as u64;
        }
        let write_kops = done as f64 / (t0.elapsed().as_secs_f64() / TIME_SCALE) / 1e3;
        client.drain_all().expect("drain");
        let saved = doorbells_saved().saturating_sub(saved_before);

        metrics.push((format!("window{w}.read_kops"), read_kops));
        metrics.push((format!("window{w}.write_kops"), write_kops));
        table.row(vec![
            w.to_string(),
            format!("{read_kops:.1}"),
            format!("{write_kops:.1}"),
            saved.to_string(),
        ]);
    }
    table.print();
    metrics
}
