//! Per-layer metrics of a traced run. Counts come from the public
//! accessors (`stats`, `cache_stats`) and from registry-snapshot deltas
//! taken around the timed phase; times come from the benchmark's own
//! spans. What each metric should move is tabulated in `README.md`.

use gengar_telemetry::{HistogramSnapshot, RegistrySnapshot};

use crate::manifest::PER_LAYER;
use crate::spec::Spec;
use crate::stats::{ratio, us};
use crate::trial::Trial;

/// Change of the registry between two snapshots.
struct Delta<'a> {
    from: &'a RegistrySnapshot,
    to: &'a RegistrySnapshot,
}

impl Delta<'_> {
    fn counter(&self, key: &str) -> f64 {
        let at = |s: &RegistrySnapshot| s.counter(key).unwrap_or(0);
        at(self.to).saturating_sub(at(self.from)) as f64
    }

    fn sum(&self, keys: &[&str]) -> f64 {
        keys.iter().map(|k| self.counter(k)).sum()
    }

    /// The samples a histogram gained between the snapshots.
    fn hist(&self, key: &str) -> HistogramSnapshot {
        let Some(to) = self.to.histogram(key) else {
            return HistogramSnapshot::empty();
        };
        let mut delta = to.clone();
        if let Some(from) = self.from.histogram(key) {
            delta.count -= from.count;
            delta.sum_ns -= from.sum_ns;
            for (d, f) in delta.buckets.iter_mut().zip(&from.buckets) {
                *d -= f;
            }
        }
        delta
    }
}

const VERB_NS: [&str; 5] = [
    "rdma.read_ns",
    "rdma.write_ns",
    "rdma.cas_ns",
    "rdma.faa_ns",
    "rdma.send_ns",
];

/// Every per-layer metric of one traced invocation: `timed` is its
/// telemetry-off trial, `traced` its telemetry-on trial (which must carry
/// registry marks).
pub fn per_layer(
    spec: &Spec,
    timed: &Trial,
    traced: &Trial,
    probes: &[(&'static str, f64)],
    gen_ns_per_op: f64,
) -> Vec<(&'static str, f64)> {
    let marks = traced
        .registry
        .as_ref()
        .expect("a traced trial carries registry marks");
    let d = Delta {
        from: &marks.timed_start,
        to: &marks.end,
    };
    let c = &traced.client;
    let (reads, writes) = (c.reads as f64, c.writes as f64);
    let ops = traced.attempted as f64;
    let kops = ops / 1e3;
    let object = spec.object_bytes as f64;
    let (read_bytes, write_bytes) = (reads * object, writes * object);
    let call_ns = traced.by_kind.iter().map(|k| k.sum_ns as f64).sum::<f64>();
    let verb_ns: f64 = VERB_NS.iter().map(|k| d.hist(k).sum_ns as f64).sum();
    let ops_per_s = |t: &Trial| ratio(t.completed as f64, t.timed_s);

    let mut v = Vec::with_capacity(PER_LAYER.len());
    let mut set = |name: &'static str, value: f64| v.push((name, value));

    let [read, write, batch] = timed.by_kind;
    set("read_p50_us", us(read.p50_ns));
    set("read_p99_us", us(read.p99_ns));
    set("read_p999_us", us(read.p999_ns));
    set("write_p50_us", us(write.p50_ns));
    set("write_p99_us", us(write.p99_ns));
    set("write_p999_us", us(write.p999_ns));
    set("batch_p50_us", us(batch.p50_ns));
    set("batch_p99_us", us(batch.p99_ns));
    set(
        "failed_share",
        ratio(timed.failed as f64, timed.attempted as f64),
    );

    set(
        "core.client.cache_hit_ratio",
        ratio(c.cache_hits as f64, reads),
    );
    set(
        "core.client.cache_reject_ratio",
        ratio(c.cache_rejects as f64, reads),
    );
    set(
        "core.client.nvm_read_share",
        ratio(c.nvm_reads as f64, reads),
    );
    set("core.client.reports_per_kop", ratio(c.reports as f64, kops));
    set(
        "core.client.staged_write_share",
        ratio(c.staged_writes as f64, writes),
    );
    set(
        "core.client.writeback_hit_ratio",
        ratio(c.writeback_hits as f64, reads),
    );
    set("core.client.retries_per_kop", ratio(c.retries as f64, kops));
    // Call time no verb covers: client software, server handlers, waits.
    // Verbs of one batch overlap, so the subtraction only means something
    // for scalar calls.
    let self_us = if spec.batch == 1 {
        ratio(call_ns - verb_ns, ops) / 1e3
    } else {
        0.0
    };
    set("core.client.self_us_per_op", self_us);

    set(
        "core.window.batch_size_p50",
        d.hist("window.batch_size").percentile_ns(50.0) as f64,
    );
    set(
        "core.window.occupancy",
        marks.end.gauge("window.occupancy").unwrap_or(0) as f64,
    );
    set("core.batch.overlap_ratio", ratio(verb_ns, call_ns));

    let one_sided = d.sum(&[
        "rdma.read_ops",
        "rdma.write_ops",
        "rdma.cas_ops",
        "rdma.faa_ops",
    ]);
    // A SEND and the SEND that answers it are one round trip.
    set(
        "rdma.round_trips_per_op",
        ratio(one_sided + d.counter("rdma.send_ops") / 2.0, ops),
    );
    set(
        "rdma.doorbells_per_op",
        ratio(d.counter("rdma.doorbells"), ops),
    );
    set(
        "rdma.doorbells_saved_per_op",
        ratio(d.counter("rdma.doorbells_saved"), ops),
    );
    let wire = d.sum(&[
        "rdma.read_bytes",
        "rdma.write_bytes",
        "rdma.cas_bytes",
        "rdma.faa_bytes",
        "rdma.send_bytes",
    ]);
    set(
        "rdma.wire_bytes_per_user_byte",
        ratio(wire, read_bytes + write_bytes),
    );
    set(
        "rdma.read_verb_p50_ns",
        d.hist("rdma.read_ns").percentile_ns(50.0) as f64,
    );
    set(
        "rdma.write_verb_p50_ns",
        d.hist("rdma.write_ns").percentile_ns(50.0) as f64,
    );
    set(
        "rdma.cas_verb_p50_ns",
        d.hist("rdma.cas_ns").percentile_ns(50.0) as f64,
    );
    set(
        "rdma.send_verb_p50_ns",
        d.hist("rdma.send_ns").percentile_ns(50.0) as f64,
    );
    set(
        "rdma.error_completions",
        d.counter("rdma.error_completions"),
    );
    set("rdma.rnr_timeouts", d.counter("rdma.rnr_timeouts"));
    set("rdma.cq_overflows", d.counter("rdma.cq_overflows"));

    let nvm_read = d.counter("device.nvm_read_bytes");
    let cache_read = d.counter("device.dram_cache_read_bytes");
    set(
        "hybridmem.nvm_write_bytes_per_user_byte",
        ratio(d.counter("device.nvm_write_bytes"), write_bytes),
    );
    set(
        "hybridmem.nvm_read_bytes_per_user_byte",
        ratio(nvm_read, read_bytes),
    );
    set(
        "hybridmem.nvm_flushes_per_write",
        ratio(d.counter("device.nvm_flushes"), writes),
    );
    set(
        "hybridmem.staging_bytes_per_user_byte",
        ratio(d.counter("device.staging_write_bytes"), write_bytes),
    );
    set(
        "hybridmem.dram_cache_read_share",
        ratio(cache_read, cache_read + nvm_read),
    );

    let drain = d.hist("proxy.drain_ns");
    set(
        "core.proxy.ring_full_waits_per_kop",
        ratio(d.counter("proxy.ring_full_waits"), kops),
    );
    set("core.proxy.drain_p50_ns", drain.percentile_ns(50.0) as f64);
    set("core.proxy.drain_p99_ns", drain.percentile_ns(99.0) as f64);
    set(
        "core.proxy.drain_backlog_end",
        marks.end.gauge("proxy.drain_backlog").unwrap_or(0) as f64,
    );
    set("core.proxy.barrier_ms", traced.barrier_ms);
    set("core.proxy.drained_share", drained_share(traced));

    let (hits, misses) = (d.counter("cache.hits"), d.counter("cache.misses"));
    let cache = &traced.cache;
    set("core.cache.hit_ratio", ratio(hits, hits + misses));
    set("core.cache.promotions", cache.promotions as f64);
    set("core.cache.evictions", cache.evictions as f64);
    set(
        "core.cache.rejected_share",
        ratio(
            cache.rejected as f64,
            (cache.admitted + cache.rejected) as f64,
        ),
    );
    set("core.cache.ghost_hits", cache.ghost_hits as f64);
    set(
        "core.cache.invalidations_per_kwrite",
        ratio(cache.invalidations as f64, writes / 1e3),
    );
    set("core.hotness.epoch_folds", d.counter("hotness.epoch_folds"));
    set(
        "core.hotness.reported_accesses_per_op",
        ratio(d.counter("hotness.reported_accesses"), ops),
    );

    set(
        "core.consistency.cas_per_write",
        ratio(d.counter("rdma.cas_ops"), writes),
    );
    set(
        "core.consistency.lock_retries_per_kop",
        ratio(c.lock_retries as f64, kops),
    );
    set(
        "core.consistency.read_retries_per_kop",
        ratio(c.read_retries as f64, kops),
    );
    set(
        "core.server.rpc_requests_per_kop",
        ratio(d.counter("server.rpc_requests"), kops),
    );

    set("core.cluster.launch_ms", traced.launch_ms);
    set("core.client.connect_ms", traced.connect_ms);
    set("core.alloc.alloc_p50_us", us(traced.alloc_p50_ns));
    set("bench.populate_ms", traced.populate_ms);
    set("bench.warmup_ms", traced.warmup_ms);

    set(
        "telemetry.overhead_pct",
        ratio(ops_per_s(timed) - ops_per_s(traced), ops_per_s(timed)) * 100.0,
    );
    set("workloads.gen_ns_per_op", gen_ns_per_op);
    for &(name, value) in probes {
        set(name, value);
    }
    v
}

/// Records drained ÷ records staged over the whole traced trial, read
/// after the barrier: 1 when every acknowledged write reached NVM (and
/// when nothing was staged at all).
pub fn drained_share(traced: &Trial) -> f64 {
    let marks = traced
        .registry
        .as_ref()
        .expect("a traced trial carries registry marks");
    let whole = Delta {
        from: &marks.trial_start,
        to: &marks.end,
    };
    let staged = whole.counter("proxy.staged_records");
    if staged == 0.0 {
        1.0
    } else {
        whole.counter("proxy.drained_records") / staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gengar_telemetry::Registry;

    #[test]
    fn delta_subtracts_counters_and_histogram_samples() {
        let reg = Registry::new();
        reg.counter("x", "ops").add(5);
        for _ in 0..100 {
            reg.histogram("x", "lat_ns").record_ns(1_000);
        }
        let from = reg.snapshot();
        reg.counter("x", "ops").add(7);
        for _ in 0..10 {
            reg.histogram("x", "lat_ns").record_ns(1_000_000);
        }
        let to = reg.snapshot();
        let d = Delta {
            from: &from,
            to: &to,
        };
        assert_eq!(d.counter("x.ops"), 7.0);
        assert_eq!(d.counter("x.absent"), 0.0);
        let h = d.hist("x.lat_ns");
        assert_eq!(h.count, 10);
        // Only the later, slower samples remain: the median is theirs.
        assert!(h.percentile_ns(50.0) > 500_000, "{}", h.percentile_ns(50.0));
        assert!(d.hist("x.absent").is_empty());
    }
}
