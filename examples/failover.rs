//! Crash and recovery: stage writes, power-fail the server, replay the
//! ADR staging rings, and show that every acknowledged write survived.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use gengar::prelude::*;

fn main() -> Result<(), GengarError> {
    gengar::hybridmem::set_time_scale(1.0);
    let server_config = ServerConfig {
        nvm_capacity: 32 << 20,
        crash_sim: true, // track durable images
        ..ServerConfig::default()
    };
    let cluster = Cluster::launch(1, server_config, FabricConfig::infiniband_100g())?;

    let mut client = cluster.client(ClientConfig::default())?;
    // A validation reader that never needs the control plane (it must
    // outlive the crash; shutdown drops every RPC connection).
    let mut reader = cluster.client(ClientConfig {
        report_every: u32::MAX,
        ..Default::default()
    })?;

    // Write a ledger of objects through the proxy. Every write is durable
    // (staged in ADR DRAM) the moment write() returns — even if the proxy
    // has not yet drained it to NVM.
    let ptrs: Vec<GlobalPtr> = (0..8)
        .map(|_| client.alloc(0, 256))
        .collect::<Result<_, _>>()?;
    for (i, ptr) in ptrs.iter().enumerate().take(6) {
        client.write(*ptr, 0, &[i as u8 + 1; 256])?;
    }

    // Freeze the proxy (stop the server's background threads), then issue
    // two more writes: they are acknowledged and durable — the staging
    // ring is in the ADR domain — but cannot drain to NVM before the
    // crash. Recovery must replay them.
    let server = cluster.server(0).expect("server 0");
    server.shutdown();
    for (i, ptr) in ptrs.iter().enumerate().skip(6) {
        client.write(*ptr, 0, &[i as u8 + 1; 256])?;
    }
    println!(
        "acknowledged {} writes ({} staged via the proxy), 2 still undrained",
        ptrs.len(),
        client.stats().staged_writes
    );

    // Power failure: NVM reverts to its last flushed state, the DRAM cache
    // and control words vanish, but the ADR staging rings survive.
    server.crash()?;
    println!("server crashed (NVM rolled back to last flush, DRAM lost)");

    // Recovery scans the rings and replays, in sequence order, every
    // record newer than the per-ring durable watermark.
    let replayed = server.recover()?;
    println!("recovery replayed {replayed} staged record(s)");
    server.restart();

    // Every acknowledged write is intact.
    for (i, ptr) in ptrs.iter().enumerate() {
        let mut buf = [0u8; 256];
        reader.read(*ptr, 0, &mut buf)?;
        assert!(
            buf.iter().all(|&b| b == i as u8 + 1),
            "object {i} lost data after crash!"
        );
    }
    println!("all {} acknowledged writes survived the crash", ptrs.len());

    // The restarted server accepts new clients and serves normally.
    let mut fresh = cluster.client(ClientConfig::default())?;
    let ptr = fresh.alloc(0, 64)?;
    fresh.write(ptr, 0, b"life after recovery")?;
    let mut buf = vec![0u8; 19];
    fresh.read(ptr, 0, &mut buf)?;
    assert_eq!(&buf, b"life after recovery");
    println!("restarted server serving new clients — done");
    Ok(())
}
