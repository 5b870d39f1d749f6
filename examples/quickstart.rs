//! Quickstart: stand up a two-server pool, allocate objects, read and
//! write them, and peek at the mechanisms working underneath.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gengar::prelude::*;

fn main() -> Result<(), GengarError> {
    // Slow the simulated hardware down to its calibrated speeds (tests use
    // scale 0.0; benchmarks and examples run at 1.0).
    gengar::hybridmem::set_time_scale(1.0);

    // A pool of two memory servers, each exporting Optane-profile NVM plus
    // a DRAM cache, connected by a 100 Gb/s-class simulated fabric.
    let server_config = ServerConfig {
        nvm_capacity: 64 << 20,
        cache: CachePolicy::new().capacity(8 << 20),
        ..ServerConfig::default()
    };
    let cluster = Cluster::launch(2, server_config, FabricConfig::infiniband_100g())?;
    let mut client = cluster.client(ClientConfig::default())?;
    println!("pool up: servers {:?}", client.server_ids());

    // Allocate one object on each server: the pool is one address space.
    let a = client.alloc(0, 4096)?;
    let b = client.alloc(1, 4096)?;
    println!("allocated {a} and {b}");

    // Writes take the proxy fast path (staged in the server's ADR DRAM,
    // drained to NVM in the background) — durable when write() returns.
    let payload = vec![0x42u8; 4096];
    client.write(a, 0, &payload)?;
    client.write(b, 0, &payload)?;

    // Reads are one-sided RDMA READs straight from remote memory.
    let mut buf = vec![0u8; 4096];
    client.read(a, 0, &mut buf)?;
    assert_eq!(buf, payload);
    println!("read back {} bytes from {a}", buf.len());

    // Independent ops pipeline through an OpBatch: up to window_depth
    // (ClientConfig, default 16) work requests post under one doorbell
    // and overlap their round trips. Writes apply before reads, so the
    // batch reads its own writes; every op gets its own Result.
    let update = vec![0x7Eu8; 4096];
    let (mut from_a, mut from_b) = (vec![0u8; 4096], vec![0u8; 4096]);
    let outcome = client
        .batch()
        .write(a, 0, &update)
        .write(b, 0, &update)
        .read(a, 0, &mut from_a)
        .read(b, 0, &mut from_b)
        .submit()?;
    assert!(outcome.all_ok());
    assert_eq!(from_a, update);
    println!("batched 2 writes + 2 reads, {} ops ok", outcome.completed());

    // Hammer one object so the hotness monitor promotes it into the
    // server's DRAM cache; the remap comes back in this client's mailbox.
    for _ in 0..2_000 {
        client.read(a, 0, &mut buf)?;
    }
    let stats = client.stats();
    println!(
        "after 2000 hot reads: cache_hits={} nvm_reads={} staged_writes={}",
        stats.cache_hits, stats.nvm_reads, stats.staged_writes
    );
    println!(
        "server 0 cached {} object(s); cache stats: {:?}",
        cluster.server(0).expect("server 0").cached_objects(),
        cluster.server(0).expect("server 0").cache_stats()
    );

    client.free(a)?;
    client.free(b)?;
    println!("done");
    Ok(())
}
