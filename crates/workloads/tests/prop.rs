//! Property-based tests for the workload generators and the KV store.

use std::collections::HashMap;

use gengar_core::cluster::Cluster;
use gengar_core::config::ServerConfig;
use gengar_rdma::FabricConfig;
use gengar_workloads::stats::{LatencyHistogram, Summary};
use gengar_workloads::zipf::{AnyChooser, Distribution, KeyChooser};
use gengar_workloads::KvStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Every chooser stays within its key space for arbitrary (n, seed).
    #[test]
    fn choosers_stay_in_range(n in 1u64..5000, seed in any::<u64>(), theta in 0.01f64..0.999) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dist in [
            Distribution::Uniform,
            Distribution::Zipfian(theta),
            Distribution::ScrambledZipfian(theta),
            Distribution::Latest(theta),
        ] {
            let mut c = AnyChooser::new(dist, n);
            for _ in 0..200 {
                prop_assert!(c.next_key(&mut rng) < n);
            }
        }
    }

    /// A summary's percentiles are ordered and bracketed by its exact
    /// extremes.
    #[test]
    fn summary_percentiles_bracketed(samples in proptest::collection::vec(1u64..10_000_000, 1..300)) {
        let h = LatencyHistogram::new();
        for &s in &samples {
            h.record_ns(s);
        }
        let s = Summary::from(&h.snapshot());
        prop_assert!(s.p50_ns <= s.p99_ns);
        // Log-bucketing error is < ~4%.
        prop_assert!(s.p99_ns <= s.max_ns + s.max_ns / 16 + 1);
        prop_assert!(s.p50_ns + s.p50_ns / 16 + 1 >= s.min_ns);
        prop_assert_eq!(s.min_ns, *samples.iter().min().unwrap());
        prop_assert_eq!(s.max_ns, *samples.iter().max().unwrap());
        prop_assert_eq!(s.count, samples.len() as u64);
    }

    /// Summarising merged per-thread shards equals summarising the union.
    #[test]
    fn summary_of_merge_is_summary_of_union(
        a in proptest::collection::vec(1u64..1_000_000, 1..100),
        b in proptest::collection::vec(1u64..1_000_000, 1..100),
    ) {
        let (ha, hb, hu) = (LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new());
        for &s in &a {
            ha.record_ns(s);
            hu.record_ns(s);
        }
        for &s in &b {
            hb.record_ns(s);
            hu.record_ns(s);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(Summary::from(&merged), Summary::from(&hu.snapshot()));
    }
}

proptest! {
    // Pool-backed model test: fewer cases, each spins up a cluster.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The KV store agrees with a HashMap model under arbitrary put/get
    /// sequences (fixed value size, keys in a small space to force both
    /// updates and misses).
    #[test]
    fn kv_matches_hashmap_model(ops in proptest::collection::vec((0u64..64, any::<u8>(), any::<bool>()), 1..60)) {
        let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
        let mut pool = cluster.default_client().unwrap();
        let kv = KvStore::create(&mut pool, 128, 16).unwrap();
        let mut model: HashMap<u64, [u8; 16]> = HashMap::new();
        let mut out = [0u8; 16];
        for (key, byte, is_put) in ops {
            if is_put {
                let value = [byte; 16];
                kv.put(&mut pool, key, &value).unwrap();
                model.insert(key, value);
            } else {
                let found = kv.get(&mut pool, key, &mut out).unwrap();
                match model.get(&key) {
                    Some(expected) => {
                        prop_assert!(found, "key {key} missing");
                        prop_assert_eq!(&out, expected);
                    }
                    None => prop_assert!(!found, "phantom key {key}"),
                }
            }
        }
    }
}
