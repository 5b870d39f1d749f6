//! E13 — replication tax and failover recovery.
//!
//! Two questions about the primary–backup replication plane. First, the
//! *tax*: a replicated staged write fans one extra WRITE out to the
//! backup's mirror ring under the same doorbell, so its client-visible
//! latency should sit near the unreplicated proxy path — and well under
//! the direct NVM write it replaces — rather than paying a second round
//! trip. Second, *recovery*: when the primary machine drops off the
//! fabric mid write-storm, how long until the client's
//! reconnect-budget-exhaustion escalates into a failover and the first
//! write acknowledges against the promoted replica, with every settled
//! pre-kill write still readable.
//!
//! The `replication` gate (`harness gate`) reads the reported
//! `write1024.*_ns`: replicated median ≤ 2x unreplicated and <
//! nvm-direct; the post-kill read-back must verify every settled write
//! (`settled_verified`).

use std::time::{Duration, Instant};

use gengar_core::config::ClientConfig;
use gengar_core::pool::DshmPool;
use gengar_core::GlobalPtr;

use crate::exp::{System, SystemKind};
use crate::table::{ns, Table};
use crate::{median_ns, Metrics, RunConfig};

const SIZES: &[u64] = &[256, 1024, 4096];
/// Objects the recovery phase writes round-robin; each holds the last
/// acknowledged value for the post-failover read-back.
const RECOVERY_OBJECTS: usize = 8;

/// Runs E13.
pub fn run(rc: &RunConfig) -> Metrics {
    let iters = rc.scale.ops(800);

    // --- Replication tax: durable-write latency, three systems. -------
    let mut table = Table::new(
        "E13: staged-write latency, unreplicated vs replicated vs nvm-direct (median)",
        &["size", "gengar", "gengar+replica", "nvm-direct", "tax"],
    );
    let mut lat = vec![Vec::<u64>::new(); SIZES.len()];
    let mut metrics = Metrics::new();

    // Unreplicated and replicated proxies run on identical two-server
    // clusters (writes land on server 0) so the only delta is the mirror
    // fan-out; --replicas must not leak into the unreplicated arm.
    for replicated in [false, true] {
        let mut config = rc.base_config();
        config.replication.enabled = replicated;
        let system = System::launch(SystemKind::Gengar, 2, config, rc);
        let mut client = system.gengar_client(rc.base_client_config());
        for (i, &size) in SIZES.iter().enumerate() {
            let ptr = client.alloc(0, size).expect("alloc");
            let data = vec![0xA5u8; size as usize];
            lat[i].push(median_ns(iters, || {
                client.write(ptr, 0, &data).expect("write")
            }));
        }
    }
    {
        let system = System::launch(SystemKind::NvmDirect, 1, rc.base_config(), rc);
        let mut pool = system.client();
        for (i, &size) in SIZES.iter().enumerate() {
            let ptr = pool.alloc(0, size).expect("alloc");
            let data = vec![0xA5u8; size as usize];
            lat[i].push(median_ns(iters, || {
                pool.write(ptr, 0, &data).expect("write")
            }));
        }
    }
    for (i, &size) in SIZES.iter().enumerate() {
        let (plain, mirrored, direct) = (lat[i][0], lat[i][1], lat[i][2]);
        let tax = mirrored as f64 / plain.max(1) as f64;
        metrics.push((format!("write{size}.unreplicated_ns"), plain as f64));
        metrics.push((format!("write{size}.replicated_ns"), mirrored as f64));
        metrics.push((format!("write{size}.nvmdirect_ns"), direct as f64));
        table.row(vec![
            format!("{size}B"),
            ns(plain),
            ns(mirrored),
            ns(direct),
            format!("{tax:.2}x"),
        ]);
    }
    table.print();

    // --- Recovery: kill the primary under load. ------------------------
    let mut config = rc.base_config();
    config.replication.enabled = true;
    let system = System::launch(SystemKind::Gengar, 2, config, rc);
    let mut client = system.gengar_client(ClientConfig {
        // A short reconnect budget bounds the blackout: the escalation to
        // failover is what this phase measures, not backoff patience.
        max_retries: 6,
        op_deadline: Duration::from_secs(1),
        ..rc.base_client_config()
    });
    let ptrs: Vec<GlobalPtr> = (0..RECOVERY_OBJECTS)
        .map(|_| client.alloc(0, 64).expect("alloc"))
        .collect();
    let mut settled = [0u8; RECOVERY_OBJECTS];
    let pre_kill = rc.scale.ops(400);
    for op in 0..pre_kill {
        let i = (op % RECOVERY_OBJECTS as u64) as usize;
        let val = 1 + (op % 250) as u8;
        client
            .write(ptrs[i], 0, &[val; 64])
            .expect("pre-kill write");
        settled[i] = val;
    }

    let primary = system.cluster().server(0).expect("server 0");
    primary.shutdown();
    system.cluster().fabric().remove_node(primary.node().id());
    let killed_at = Instant::now();

    // Hammer until the first acknowledgement lands on the promoted
    // replica; every failed attempt in between is the blackout.
    let mut blackout_failed = 0u64;
    let recovery = loop {
        let val = 251 + (blackout_failed % 4) as u8;
        match client.write(ptrs[0], 0, &[val; 64]) {
            Ok(()) => {
                settled[0] = val;
                break killed_at.elapsed();
            }
            Err(_) => blackout_failed += 1,
        }
        assert!(
            killed_at.elapsed() < Duration::from_secs(30),
            "failover never completed: no write succeeded for 30s after the kill"
        );
    };

    // Read back through the replica: every settled write survived.
    client.drain_all().expect("drain");
    let mut verified = 0usize;
    for (i, ptr) in ptrs.iter().enumerate() {
        let mut buf = [0u8; 64];
        client.read(*ptr, 0, &mut buf).expect("post-failover read");
        assert!(
            buf.iter().all(|&b| b == settled[i]),
            "object {i} lost its settled write across failover: \
             read {} expected {}",
            buf[0],
            settled[i]
        );
        verified += 1;
    }
    let recovery_ms = recovery.as_secs_f64() * 1e3;
    metrics.push(("recovery_ms".to_owned(), recovery_ms));
    metrics.push(("blackout_failed_ops".to_owned(), blackout_failed as f64));
    metrics.push(("settled_verified".to_owned(), verified as f64));
    metrics.push(("failovers".to_owned(), client.stats().failovers as f64));

    let mut table = Table::new(
        "E13: kill-primary recovery (wall-clock)",
        &[
            "recovery",
            "failed ops in blackout",
            "settled writes verified",
        ],
    );
    table.row(vec![
        format!("{recovery_ms:.1} ms"),
        blackout_failed.to_string(),
        format!("{verified}/{RECOVERY_OBJECTS}"),
    ]);
    table.print();
    metrics
}
