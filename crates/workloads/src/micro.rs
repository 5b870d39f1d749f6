//! Microbenchmark drivers: latency sweeps and closed-loop throughput.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gengar_core::error::GengarError;
use gengar_core::pool::DshmPool;
use gengar_core::GlobalPtr;

use crate::stats::{LatencyHistogram, Summary};
use crate::zipf::{AnyChooser, Distribution, KeyChooser};

/// Read/write mix of a closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of reads in `[0, 1]`.
    pub read_fraction: f64,
}

impl OpMix {
    /// All reads.
    pub fn read_only() -> Self {
        OpMix { read_fraction: 1.0 }
    }

    /// All writes.
    pub fn write_only() -> Self {
        OpMix { read_fraction: 0.0 }
    }

    /// 95 % reads.
    pub fn read_heavy() -> Self {
        OpMix {
            read_fraction: 0.95,
        }
    }

    /// 50/50.
    pub fn balanced() -> Self {
        OpMix { read_fraction: 0.5 }
    }
}

/// Allocates `count` objects of `size` bytes, initialised with a pattern,
/// spread round-robin across servers.
///
/// # Errors
///
/// Pool/transport failures.
pub fn setup_objects<P: DshmPool>(
    pool: &mut P,
    count: u64,
    size: u64,
) -> Result<Vec<GlobalPtr>, GengarError> {
    let servers = pool.servers();
    let init = vec![0x5Au8; size as usize];
    let mut ptrs = Vec::with_capacity(count as usize);
    for i in 0..count {
        let server = servers[i as usize % servers.len()];
        let ptr = pool.alloc(server, size)?;
        pool.write(ptr, 0, &init)?;
        ptrs.push(ptr);
    }
    Ok(ptrs)
}

/// Result of one closed loop.
#[derive(Debug, Clone)]
pub struct LoopResult {
    /// Operations issued.
    pub ops: u64,
    /// Wall-clock nanoseconds.
    pub elapsed_ns: u64,
    /// Read latencies.
    pub reads: Summary,
    /// Write latencies.
    pub writes: Summary,
}

impl LoopResult {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

/// Runs `ops` operations against pre-allocated objects: each op picks an
/// object via `dist`, then reads or writes the whole object per `mix`.
///
/// # Errors
///
/// Pool/transport failures.
pub fn closed_loop<P: DshmPool>(
    pool: &mut P,
    objects: &[GlobalPtr],
    dist: Distribution,
    mix: OpMix,
    ops: u64,
    seed: u64,
) -> Result<LoopResult, GengarError> {
    assert!(!objects.is_empty(), "need objects to operate on");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chooser = AnyChooser::new(dist, objects.len() as u64);
    let size = objects[0].size as usize;
    let mut buf = vec![0u8; size];
    let reads = LatencyHistogram::new();
    let writes = LatencyHistogram::new();

    let start = Instant::now();
    for i in 0..ops {
        let ptr = objects[chooser.next_key(&mut rng) as usize];
        if rng.gen::<f64>() < mix.read_fraction {
            let t = Instant::now();
            pool.read(ptr, 0, &mut buf)?;
            reads.record(t.elapsed());
        } else {
            buf.fill((i % 251) as u8);
            let t = Instant::now();
            pool.write(ptr, 0, &buf)?;
            writes.record(t.elapsed());
        }
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    Ok(LoopResult {
        ops,
        elapsed_ns,
        reads: Summary::from(&reads.snapshot()),
        writes: Summary::from(&writes.snapshot()),
    })
}

/// Latency of whole-object reads and writes at each size in `sizes`,
/// over a single object per size (the E2/E3 latency sweeps).
///
/// # Errors
///
/// Pool/transport failures.
pub fn latency_sweep<P: DshmPool>(
    pool: &mut P,
    sizes: &[u64],
    iters: u64,
    seed: u64,
) -> Result<Vec<(u64, Summary, Summary)>, GengarError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(sizes.len());
    let servers = pool.servers();
    for (i, &size) in sizes.iter().enumerate() {
        let server = servers[i % servers.len()];
        let ptr = pool.alloc(server, size)?;
        let mut buf = vec![0u8; size as usize];
        rng.fill(buf.as_mut_slice());
        pool.write(ptr, 0, &buf)?;
        let reads = LatencyHistogram::new();
        let writes = LatencyHistogram::new();
        for _ in 0..iters {
            let t = Instant::now();
            pool.read(ptr, 0, &mut buf)?;
            reads.record(t.elapsed());
            let t = Instant::now();
            pool.write(ptr, 0, &buf)?;
            writes.record(t.elapsed());
        }
        out.push((
            size,
            Summary::from(&reads.snapshot()),
            Summary::from(&writes.snapshot()),
        ));
        pool.free(ptr)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gengar_core::cluster::Cluster;
    use gengar_core::config::ServerConfig;
    use gengar_rdma::FabricConfig;

    fn pool() -> (Cluster, gengar_core::GengarClient) {
        let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
        let client = cluster.default_client().unwrap();
        (cluster, client)
    }

    #[test]
    fn closed_loop_counts_ops() {
        let (_c, mut p) = pool();
        let objects = setup_objects(&mut p, 16, 64).unwrap();
        let r = closed_loop(
            &mut p,
            &objects,
            Distribution::Zipfian(0.99),
            OpMix::balanced(),
            200,
            1,
        )
        .unwrap();
        assert_eq!(r.ops, 200);
        assert_eq!(r.reads.count + r.writes.count, 200);
        assert!(r.ops_per_sec() > 0.0);
    }

    #[test]
    fn read_only_mix_never_writes() {
        let (_c, mut p) = pool();
        let objects = setup_objects(&mut p, 4, 64).unwrap();
        let r = closed_loop(
            &mut p,
            &objects,
            Distribution::Uniform,
            OpMix::read_only(),
            100,
            1,
        )
        .unwrap();
        assert_eq!(r.writes.count, 0);
        assert_eq!(r.reads.count, 100);
    }

    #[test]
    fn latency_sweep_covers_sizes() {
        let (_c, mut p) = pool();
        let sizes = [64u64, 1024, 16384];
        let rows = latency_sweep(&mut p, &sizes, 10, 1).unwrap();
        assert_eq!(rows.len(), 3);
        for (size, reads, writes) in rows {
            assert!(sizes.contains(&size));
            assert_eq!(reads.count, 10);
            assert_eq!(writes.count, 10);
        }
    }
}
