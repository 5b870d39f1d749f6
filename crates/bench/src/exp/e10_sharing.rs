//! E10 — multi-user sharing and the cost of consistency.
//!
//! Part one: lock-protected read-modify-writes on a single shared object,
//! sweeping the number of sharers; reports aggregate throughput, lock
//! retries, and verifies no update is lost. Part two: the per-operation
//! overhead of `Consistency::Seqlock` vs `Consistency::None` on unshared
//! data.

use std::sync::Arc;
use std::time::Instant;

use gengar_core::config::Consistency;

use crate::exp::{System, SystemKind};
use crate::table::{ns, Table};
use crate::{median_ns, Metrics, RunConfig};

/// Runs E10.
pub fn run(rc: &RunConfig) -> Metrics {
    let incs = rc.scale.ops(400);

    // Part 1: contended shared counter under object locks.
    let mut sharing = Table::new(
        "E10a: lock-protected RMW on one shared object",
        &["sharers", "total kops/s", "lock retries", "final value"],
    );
    for &sharers in &[1usize, 2, 4, 8] {
        let system = Arc::new(System::launch(SystemKind::Gengar, 1, rc.base_config(), rc));
        let mut owner = system.gengar_client(rc.seqlock_client_config());
        let ptr = gengar_core::pool::DshmPool::alloc(&mut owner, 0, 64).expect("alloc");
        gengar_core::pool::DshmPool::write(&mut owner, ptr, 0, &0u64.to_le_bytes()).expect("init");

        let t0 = Instant::now();
        let handles: Vec<_> = (0..sharers)
            .map(|_| {
                let system = Arc::clone(&system);
                let config = rc.seqlock_client_config();
                std::thread::spawn(move || {
                    let mut c = system.gengar_client(config);
                    for _ in 0..incs {
                        c.lock(ptr).expect("lock");
                        let mut buf = [0u8; 8];
                        c.read(ptr, 0, &mut buf).expect("read");
                        let v = u64::from_le_bytes(buf);
                        c.write(ptr, 0, &(v + 1).to_le_bytes()).expect("write");
                        c.unlock(ptr).expect("unlock");
                    }
                    c.stats().lock_retries
                })
            })
            .collect();
        let retries: u64 = handles.into_iter().map(|h| h.join().expect("sharer")).sum();
        let elapsed = t0.elapsed();

        let mut buf = [0u8; 8];
        owner.read(ptr, 0, &mut buf).expect("final read");
        let total = u64::from_le_bytes(buf);
        assert_eq!(total, sharers as u64 * incs, "lost updates!");
        sharing.row(vec![
            sharers.to_string(),
            format!("{:.1}", total as f64 / elapsed.as_secs_f64() / 1e3),
            retries.to_string(),
            total.to_string(),
        ]);
    }
    sharing.print();

    // Part 2: consistency overhead on unshared operations.
    let mut overhead = Table::new(
        "E10b: consistency overhead (single user, 1 KiB ops, median)",
        &["mode", "read", "write"],
    );
    let system = System::launch(SystemKind::Gengar, 1, rc.base_config(), rc);
    let iters = rc.scale.ops(800);
    for consistency in [Consistency::None, Consistency::Seqlock] {
        let mut config = rc.base_client_config();
        config.consistency = consistency;
        let mut c = system.gengar_client(config);
        let ptr = gengar_core::pool::DshmPool::alloc(&mut c, 0, 1024).expect("alloc");
        let data = vec![3u8; 1024];
        gengar_core::pool::DshmPool::write(&mut c, ptr, 0, &data).expect("init");
        let mut buf = vec![0u8; 1024];
        let read = median_ns(iters, || c.read(ptr, 0, &mut buf).expect("read"));
        let write = median_ns(iters, || c.write(ptr, 0, &data).expect("write"));
        overhead.row(vec![format!("{consistency:?}"), ns(read), ns(write)]);
    }
    overhead.print();
    Metrics::new()
}
