//! The four workloads. Names are fixed: later issues cite them.

/// Shape of one workload. All four share the load shape: closed loop, one
/// load thread, at most two connections (the host has two cores and every
/// server already runs drain and epoch threads).
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub servers: usize,
    pub objects: u32,
    pub object_bytes: usize,
    /// Zipfian skew of the key choice; `None` draws keys uniformly.
    pub zipf_theta: Option<f64>,
    pub write_pct: u8,
    /// Whether the DRAM cache may hold the objects. At these op rates the
    /// hotness monitor (threshold 2) promotes even uniformly drawn keys, so
    /// the workloads that are meant to bypass the cache cap
    /// `cacheable_max` below their object size.
    pub cacheable: bool,
    /// Ops per `OpBatch`; 1 drives the scalar `read`/`write` calls.
    pub batch: usize,
    /// A writer client and a reader client under `Consistency::Seqlock`,
    /// driven alternately from the one load thread.
    pub shared: bool,
    /// Ops run after populate and before the clock (counted into set-up).
    pub warmup_ops: usize,
    /// Length of the pre-generated timed sequence, sized above what one
    /// 7 s trial completes here; replayed from the start if it runs out.
    pub timed_ops: usize,
}

impl Spec {
    /// The same workload with its op counts multiplied by `factor` (the
    /// smoke run uses 1/100), kept whole batches.
    #[cfg(test)]
    pub fn scaled(&self, factor: f64) -> Spec {
        let scale = |n: usize| {
            let n = ((n as f64 * factor) as usize).max(self.batch);
            n - n % self.batch
        };
        Spec {
            warmup_ops: scale(self.warmup_ops),
            timed_ops: scale(self.timed_ops),
            ..self.clone()
        }
    }
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "read_skew",
        why: "Zipfian scalar reads over 2x the DRAM cache: hotness, promotion, remap and validated cache reads do the work; the proxy is idle",
        servers: 2,
        objects: 16_384,
        object_bytes: 4096,
        zipf_theta: Some(0.99),
        write_pct: 0,
        cacheable: true,
        batch: 1,
        shared: false,
        warmup_ops: 160_000,
        timed_ops: 1_500_000,
    },
    Spec {
        name: "write_stream",
        why: "uniform scalar durable writes then a drain barrier: staging ring, drain threads and the NVM write channel do the work; the cache does none",
        servers: 2,
        objects: 4096,
        object_bytes: 1024,
        zipf_theta: None,
        write_pct: 100,
        cacheable: false,
        batch: 1,
        shared: false,
        warmup_ops: 20_000,
        timed_ops: 1_600_000,
    },
    Spec {
        name: "batch_mix",
        why: "OpBatch of 16 distinct uniform keys, half reads, over 4 servers: planner, doorbell batching and cross-server overlap do the work; the cache is bypassed",
        servers: 4,
        objects: 4096,
        object_bytes: 8192,
        zipf_theta: None,
        write_pct: 50,
        cacheable: false,
        batch: 16,
        shared: false,
        warmup_ops: 1_600,
        timed_ops: 1_200_000,
    },
    Spec {
        name: "shared_rw",
        why: "a writer and a reader client share 64 cached objects under Seqlock, 25% writes: lock CAS, write-through, invalidation and validated reads work; the proxy is bypassed",
        servers: 2,
        objects: 64,
        object_bytes: 1024,
        zipf_theta: Some(0.99),
        write_pct: 25,
        cacheable: true,
        batch: 1,
        shared: true,
        warmup_ops: 20_000,
        timed_ops: 600_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_keeps_whole_batches() {
        for spec in WORKLOADS {
            let s = spec.scaled(0.01);
            assert!(s.timed_ops >= s.batch && s.timed_ops % s.batch == 0);
            assert!(s.warmup_ops % s.batch == 0);
            assert!(s.timed_ops <= spec.timed_ops / 50);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }
}
