//! E10 — multi-user sharing and the cost of consistency.
//!
//! Part one: lock-protected read-modify-writes on a single shared object,
//! sweeping the number of sharers; reports aggregate throughput, lock
//! retries, and verifies no update is lost. Part two: the per-operation
//! overhead of `Consistency::Seqlock` vs `Consistency::None` on unshared
//! data. Part three: the same `Seqlock` op sequence over objects spread
//! across four servers, issued one call at a time and as `OpBatch`es —
//! the reactor overlaps the per-server lock / write / flush / unlock
//! chains, so the batched arm should clearly beat the scalar one.

use std::sync::Arc;
use std::time::Instant;

use gengar_core::config::Consistency;
use gengar_core::GlobalPtr;

use crate::exp::{System, SystemKind};
use crate::table::{ns, Table};
use crate::{median_ns, Metrics, RunConfig};

/// Runs E10.
pub fn run(rc: &RunConfig) -> Metrics {
    let incs = rc.scale.ops(400);
    let mut metrics = Metrics::new();

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
        let kops = total as f64 / elapsed.as_secs_f64() / 1e3;
        metrics.push((format!("sharers{sharers}.kops"), kops));
        metrics.push((format!("sharers{sharers}.lock_retries"), retries as f64));
        sharing.row(vec![
            sharers.to_string(),
            format!("{kops:.1}"),
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
        let mode = format!("{consistency:?}").to_lowercase();
        metrics.push((format!("{mode}.read_ns"), read as f64));
        metrics.push((format!("{mode}.write_ns"), write as f64));
        overhead.row(vec![format!("{consistency:?}"), ns(read), ns(write)]);
    }
    overhead.print();

    seqlock_batch(rc, &mut metrics);
    metrics
}

/// Part 3: one `Seqlock` op sequence (25% writes, 1 KiB objects spread
/// over four servers), scalar and as batches of 16.
fn seqlock_batch(rc: &RunConfig, metrics: &mut Metrics) {
    const SERVERS: usize = 4;
    const OBJECTS: usize = 64;
    const SIZE: usize = 1024;
    const BATCH: usize = 16;
    let system = System::launch(SystemKind::Gengar, SERVERS, rc.base_config(), rc);
    let mut client = system.gengar_client(rc.seqlock_client_config());
    let mut other = system.gengar_client(rc.seqlock_client_config());
    let ptrs: Vec<GlobalPtr> = (0..OBJECTS)
        .map(|i| {
            client
                .alloc((i % SERVERS) as u8, SIZE as u64)
                .expect("alloc")
        })
        .collect();
    for ptr in &ptrs {
        other.write(*ptr, 0, &[0u8; SIZE]).expect("init");
    }
    // (object, fill to write or None to read), the same for both arms.
    let n = (rc.scale.ops(6400) as usize).next_multiple_of(BATCH);
    let mut rng: u64 = 0xE10C;
    let ops: Vec<(usize, Option<u8>)> = (0..n)
        .map(|i| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let draw = (rng >> 33) as usize;
            (
                draw % OBJECTS,
                (draw / OBJECTS).is_multiple_of(4).then_some(i as u8 | 1),
            )
        })
        .collect();
    let mut bufs = vec![0u8; SIZE * BATCH];
    let mut payloads = vec![[0u8; SIZE]; BATCH];

    let t0 = Instant::now();
    for &(obj, fill) in &ops {
        match fill {
            Some(fill) => client.write(ptrs[obj], 0, &[fill; SIZE]).expect("write"),
            None => client.read(ptrs[obj], 0, &mut bufs[..SIZE]).expect("read"),
        }
    }
    let scalar_kops = n as f64 / t0.elapsed().as_secs_f64() / 1e3;

    let t0 = Instant::now();
    for group in ops.chunks_exact(BATCH) {
        for (payload, op) in payloads.iter_mut().zip(group) {
            payload.fill(op.1.unwrap_or(0));
        }
        let mut batch = client.batch();
        let slots = payloads.iter().zip(bufs.chunks_exact_mut(SIZE));
        for (&(obj, fill), (payload, buf)) in group.iter().zip(slots) {
            batch = match fill {
                Some(_) => batch.write(ptrs[obj], 0, payload),
                None => batch.read(ptrs[obj], 0, buf),
            };
        }
        assert!(batch.submit().expect("batch").all_ok(), "batched op failed");
    }
    let batched_kops = n as f64 / t0.elapsed().as_secs_f64() / 1e3;

    // The other user sees every object's last write.
    let mut last = [0u8; OBJECTS];
    for &(obj, fill) in &ops {
        last[obj] = fill.unwrap_or(last[obj]);
    }
    for (ptr, fill) in ptrs.iter().zip(last) {
        other.read(*ptr, 0, &mut bufs[..SIZE]).expect("verify");
        assert!(bufs[..SIZE].iter().all(|&b| b == fill), "lost write");
    }

    let ratio = batched_kops / scalar_kops;
    let mut table = Table::new(
        "E10c: Seqlock ops over 4 servers, scalar vs OpBatch of 16 (25% writes, 1 KiB)",
        &["scalar kops/s", "batched kops/s", "ratio"],
    );
    table.row(vec![
        format!("{scalar_kops:.1}"),
        format!("{batched_kops:.1}"),
        format!("{ratio:.2}"),
    ]);
    table.print();
    metrics.push(("seqlock_batch.scalar_kops".to_owned(), scalar_kops));
    metrics.push(("seqlock_batch.batched_kops".to_owned(), batched_kops));
    metrics.push(("seqlock_batch.ratio".to_owned(), ratio));
}
