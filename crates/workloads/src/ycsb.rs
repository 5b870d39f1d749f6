//! YCSB core workloads A–F over a [`DshmPool`]-backed KV store.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gengar_core::error::GengarError;
use gengar_core::pool::DshmPool;

use crate::kv::KvStore;
use crate::stats::{LatencyHistogram, Summary};
use crate::zipf::{AnyChooser, Distribution, KeyChooser};

/// Operation mix of one YCSB workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Short name ("A".."F").
    pub name: &'static str,
    /// Fraction of reads.
    pub read: f64,
    /// Fraction of updates.
    pub update: f64,
    /// Fraction of inserts.
    pub insert: f64,
    /// Fraction of scans.
    pub scan: f64,
    /// Fraction of read-modify-writes.
    pub rmw: f64,
    /// Key popularity distribution.
    pub distribution: Distribution,
}

impl WorkloadSpec {
    /// YCSB-A: 50/50 read/update, zipfian.
    pub fn a() -> Self {
        WorkloadSpec {
            name: "A",
            read: 0.5,
            update: 0.5,
            insert: 0.0,
            scan: 0.0,
            rmw: 0.0,
            distribution: Distribution::ScrambledZipfian(0.99),
        }
    }

    /// YCSB-B: 95/5 read/update, zipfian.
    pub fn b() -> Self {
        WorkloadSpec {
            name: "B",
            read: 0.95,
            update: 0.05,
            insert: 0.0,
            scan: 0.0,
            rmw: 0.0,
            distribution: Distribution::ScrambledZipfian(0.99),
        }
    }

    /// YCSB-C: read-only, zipfian.
    pub fn c() -> Self {
        WorkloadSpec {
            name: "C",
            read: 1.0,
            update: 0.0,
            insert: 0.0,
            scan: 0.0,
            rmw: 0.0,
            distribution: Distribution::ScrambledZipfian(0.99),
        }
    }

    /// YCSB-D: 95/5 read/insert, latest.
    pub fn d() -> Self {
        WorkloadSpec {
            name: "D",
            read: 0.95,
            update: 0.0,
            insert: 0.05,
            scan: 0.0,
            rmw: 0.0,
            distribution: Distribution::Latest(0.99),
        }
    }

    /// YCSB-E: 95/5 scan/insert, zipfian (scans emulated over the integer
    /// key space).
    pub fn e() -> Self {
        WorkloadSpec {
            name: "E",
            read: 0.0,
            update: 0.0,
            insert: 0.05,
            scan: 0.95,
            rmw: 0.0,
            distribution: Distribution::ScrambledZipfian(0.99),
        }
    }

    /// YCSB-F: 50/50 read/read-modify-write, zipfian.
    pub fn f() -> Self {
        WorkloadSpec {
            name: "F",
            read: 0.5,
            update: 0.0,
            insert: 0.0,
            scan: 0.0,
            rmw: 0.5,
            distribution: Distribution::ScrambledZipfian(0.99),
        }
    }

    /// All six core workloads.
    pub fn all() -> Vec<WorkloadSpec> {
        vec![
            Self::a(),
            Self::b(),
            Self::c(),
            Self::d(),
            Self::e(),
            Self::f(),
        ]
    }
}

/// Result of one YCSB run.
#[derive(Debug, Clone)]
pub struct YcsbResult {
    /// Workload name.
    pub workload: &'static str,
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock duration of the run phase, nanoseconds.
    pub elapsed_ns: u64,
    /// Read-latency summary.
    pub read_latency: Summary,
    /// Update/insert/RMW latency summary.
    pub write_latency: Summary,
}

impl YcsbResult {
    /// Throughput in operations per second.
    pub fn kops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.ops as f64 / (self.elapsed_ns as f64 / 1e9) / 1e3
        }
    }
}

/// Loads `records` keys with `value_size`-byte values into a fresh store.
///
/// # Errors
///
/// Pool/transport failures.
pub fn load<P: DshmPool>(
    pool: &mut P,
    records: u64,
    value_size: u64,
    seed: u64,
) -> Result<KvStore, GengarError> {
    let kv = KvStore::create(pool, records * 2, value_size)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut value = vec![0u8; value_size as usize];
    for key in 0..records {
        rng.fill(value.as_mut_slice());
        kv.put(pool, key, &value)?;
    }
    Ok(kv)
}

/// Runs `ops` operations of `spec` against a loaded store.
///
/// # Errors
///
/// Pool/transport failures.
pub fn run<P: DshmPool>(
    pool: &mut P,
    kv: &KvStore,
    spec: WorkloadSpec,
    records: u64,
    ops: u64,
    seed: u64,
) -> Result<YcsbResult, GengarError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chooser = AnyChooser::new(spec.distribution, records);
    let mut next_insert = records;
    let value_size = kv.value_size();
    let mut value = vec![0u8; value_size as usize];
    let mut out = vec![0u8; value_size as usize];
    let mut scan_out = Vec::new();
    let read_hist = LatencyHistogram::new();
    let write_hist = LatencyHistogram::new();

    let start = Instant::now();
    for _ in 0..ops {
        let op: f64 = rng.gen();
        let key = chooser.next_key(&mut rng) % next_insert;
        if op < spec.read {
            let t = Instant::now();
            kv.get(pool, key, &mut out)?;
            read_hist.record(t.elapsed());
        } else if op < spec.read + spec.update {
            rng.fill(value.as_mut_slice());
            let t = Instant::now();
            kv.put(pool, key, &value)?;
            write_hist.record(t.elapsed());
        } else if op < spec.read + spec.update + spec.insert {
            rng.fill(value.as_mut_slice());
            let t = Instant::now();
            kv.put(pool, next_insert, &value)?;
            write_hist.record(t.elapsed());
            next_insert += 1;
            if let AnyChooser::Latest(l) = &mut chooser {
                l.grow(next_insert);
            }
        } else if op < spec.read + spec.update + spec.insert + spec.scan {
            let len = rng.gen_range(1..=20);
            let t = Instant::now();
            kv.scan(pool, key, len, &mut scan_out)?;
            read_hist.record(t.elapsed());
        } else {
            // Read-modify-write.
            let t = Instant::now();
            kv.get(pool, key, &mut out)?;
            out.iter_mut().for_each(|b| *b = b.wrapping_add(1));
            kv.put(pool, key, &out)?;
            write_hist.record(t.elapsed());
        }
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    Ok(YcsbResult {
        workload: spec.name,
        ops,
        elapsed_ns,
        read_latency: Summary::from(&read_hist.snapshot()),
        write_latency: Summary::from(&write_hist.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gengar_core::cluster::Cluster;
    use gengar_core::config::ServerConfig;
    use gengar_rdma::FabricConfig;

    #[test]
    fn specs_sum_to_one() {
        for spec in WorkloadSpec::all() {
            let total = spec.read + spec.update + spec.insert + spec.scan + spec.rmw;
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", spec.name);
        }
    }

    #[test]
    fn all_workloads_run_end_to_end() {
        let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
        let mut pool = cluster.default_client().unwrap();
        let kv = load(&mut pool, 100, 32, 1).unwrap();
        for spec in WorkloadSpec::all() {
            let result = run(&mut pool, &kv, spec, 100, 300, 2).unwrap();
            assert_eq!(result.ops, 300);
            assert!(result.kops_per_sec() > 0.0);
            let total_latencies = result.read_latency.count + result.write_latency.count;
            assert!(total_latencies > 0, "{}: no latencies", spec.name);
        }
    }

    #[test]
    fn reads_after_load_hit_loaded_values() {
        let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
        let mut pool = cluster.default_client().unwrap();
        let kv = load(&mut pool, 50, 16, 3).unwrap();
        let mut out = [0u8; 16];
        let mut hits = 0;
        for key in 0..50 {
            if kv.get(&mut pool, key, &mut out).unwrap() {
                hits += 1;
            }
        }
        assert_eq!(hits, 50);
    }
}
