//! One trial of one workload: a fresh cluster, set-up, the timed closed
//! loop, the durability barrier, and the counts taken around it. Only
//! public APIs of the program are called.

use std::time::{Duration, Instant};

use gengar_core::{
    CachePolicy, CacheStats, ClientConfig, ClientStats, Cluster, Consistency, GengarClient,
    GengarError, GlobalPtr, ServerConfig,
};
use gengar_rdma::FabricConfig;
use gengar_telemetry::{Registry, RegistrySnapshot, TelemetryConfig};

use crate::gen::{initial_fill, Op, Sequence};
use crate::oracle::{fill_payload, Shadow};
use crate::quarter::{Window, Windows, WINDOW};
use crate::spec::Spec;
use crate::stats::percentile;
use crate::trace::SpanLog;

/// Registry snapshots around the phases of a traced trial.
#[derive(Debug)]
pub struct RegistryMarks {
    pub trial_start: RegistrySnapshot,
    pub timed_start: RegistrySnapshot,
    /// After the barrier.
    pub end: RegistrySnapshot,
}

/// The kinds of public call the load loop makes; they index
/// [`Trial::by_kind`].
pub const READ: usize = 0;
pub const WRITE: usize = 1;
pub const BATCH: usize = 2;
const SPAN_NAMES: [&str; 3] = ["client.read", "client.write", "batch.submit"];

/// A call sample is its latency in the low 30 bits (capped at ~1.07 s)
/// with its kind above them: one vector holds every call in time order.
const KIND_SHIFT: u32 = 30;
const NS_MASK: u32 = (1 << KIND_SHIFT) - 1;

/// Whole-phase latency of the calls of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Latency {
    pub count: u64,
    pub sum_ns: u64,
    pub p50_ns: u32,
    pub p99_ns: u32,
    pub p999_ns: u32,
}

impl Latency {
    fn of(mut samples: Vec<u32>) -> Self {
        samples.sort_unstable();
        Latency {
            count: samples.len() as u64,
            sum_ns: samples.iter().map(|&ns| u64::from(ns)).sum(),
            p50_ns: percentile(&samples, 50.0),
            p99_ns: percentile(&samples, 99.0),
            p999_ns: percentile(&samples, 99.9),
        }
    }
}

/// Everything one trial measured.
#[derive(Debug)]
pub struct Trial {
    pub setup_s: f64,
    /// Timed loop plus the barrier.
    pub timed_s: f64,
    /// Ops of the timed phase that returned `Ok`.
    pub completed: u64,
    /// Ops of the timed phase, whatever they returned.
    pub attempted: u64,
    /// Ops of either phase that returned `Err`; counted, never unwrapped.
    pub failed: u64,
    /// Reads of either phase whose bytes the oracle refused.
    pub wrong: u64,
    /// The whole windows of the timed phase, in time order, and the
    /// time-ordered call latencies they index.
    pub windows: Vec<Window>,
    pub call_ns: Vec<u32>,
    /// Timed-phase latency by call kind: `[READ]`, `[WRITE]`, `[BATCH]`.
    pub by_kind: [Latency; 3],
    pub alloc_p50_ns: u32,
    pub launch_ms: f64,
    pub connect_ms: f64,
    pub populate_ms: f64,
    pub warmup_ms: f64,
    pub barrier_ms: f64,
    /// Timed-phase deltas of the public counters, summed over clients and
    /// servers.
    pub client: ClientStats,
    pub cache: CacheStats,
    pub registry: Option<RegistryMarks>,
}

impl Trial {
    /// The windows of the timed phase with the samples they index.
    pub fn windows(&self) -> Windows<'_> {
        Windows {
            windows: &self.windows,
            call_ns: &self.call_ns,
        }
    }
}

/// The base configuration of every workload (ISSUE 11): 256 MiB NVM and a
/// 16 MiB cache per server, 10 ms epochs, QoS, replication and health off.
fn server_config(spec: &Spec, telemetry: TelemetryConfig) -> ServerConfig {
    let mut cache = CachePolicy::new().capacity(16 << 20).hot_threshold(2);
    if !spec.cacheable {
        cache = cache.cacheable_max(spec.object_bytes as u64 - 1);
    }
    ServerConfig {
        nvm_capacity: 256 << 20,
        cache,
        epoch: Duration::from_millis(10),
        telemetry,
        ..Default::default()
    }
}

fn client_config(spec: &Spec, telemetry: TelemetryConfig) -> ClientConfig {
    ClientConfig {
        consistency: if spec.shared {
            Consistency::Seqlock
        } else {
            Consistency::None
        },
        report_every: 128,
        window_depth: 16,
        telemetry,
        ..Default::default()
    }
}

macro_rules! fold_fields {
    ($acc:expr, $from:expr, $op:tt, [$($field:ident),+]) => {
        $( $acc.$field $op $from.$field; )+
    };
}

fn client_totals(clients: &[GengarClient]) -> ClientStats {
    let mut sum = ClientStats::default();
    for c in clients {
        let s = c.stats();
        fold_fields!(sum, s, +=, [
            reads, writes, cache_hits, cache_rejects, nvm_reads, writeback_hits,
            staged_writes, direct_writes, lock_retries, read_retries, reports, retries
        ]);
    }
    sum
}

fn cache_totals(cluster: &Cluster) -> CacheStats {
    let mut sum = CacheStats::default();
    for server in cluster.servers() {
        let s = server.cache_stats();
        fold_fields!(sum, s, +=, [
            promotions, evictions, invalidations, admitted, rejected, ghost_hits
        ]);
    }
    sum
}

fn ns_u32(d: Duration) -> u32 {
    d.as_nanos().min(u128::from(NS_MASK)) as u32
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Every call in time order: kind and latency (see [`KIND_SHIFT`]).
    calls: Vec<u32>,
    /// Where each window of the timed phase ended.
    marks: Vec<Mark>,
}

/// The tally's position at a window boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    calls: usize,
    completed: u64,
}

impl Tally {
    fn mark(&self, at: Instant) -> Mark {
        Mark {
            at,
            calls: self.calls.len(),
            completed: self.attempted - self.failed,
        }
    }

    /// Forgets the samples taken so far (warm-up), makes room for
    /// `expected` more without growing mid-run, and starts the windows at
    /// `start`; the counts stay.
    fn start_timing(&mut self, start: Instant, expected: usize) {
        self.calls.clear();
        self.calls.reserve(expected);
        self.marks = vec![self.mark(start)];
    }

    fn latency(&self, kind: usize) -> Latency {
        let of_kind = self
            .calls
            .iter()
            .filter(|&&c| (c >> KIND_SHIFT) as usize == kind);
        Latency::of(of_kind.map(|&c| c & NS_MASK).collect())
    }

    fn windows(&self) -> Vec<Window> {
        self.marks
            .windows(2)
            .map(|w| Window {
                secs: (w[1].at - w[0].at).as_secs_f64(),
                completed: w[1].completed - w[0].completed,
                calls: w[0].calls..w[1].calls,
            })
            .collect()
    }
}

/// When a phase of the load loop ends.
enum Stop {
    /// After the given ops, once each (warm-up).
    Once,
    /// At the first call that ends past this instant (timed phase); the
    /// ops are replayed from the start if they run out first.
    At(Instant),
}

/// The load generator: one thread, closed loop.
struct Load<'a> {
    spec: &'a Spec,
    /// `[0]` writes; the last reads (the same client unless `shared`).
    clients: Vec<GengarClient>,
    /// Allocates, populates and audits, and never sends an access report:
    /// populate must not heat objects, and the audit must read NVM, not a
    /// cache frame it was remapped to. Idle while the clock runs.
    admin: GengarClient,
    ptrs: Vec<GlobalPtr>,
    shadow: Shadow,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    tally: Tally,
}

impl Load<'_> {
    fn run(&mut self, ops: &[Op], stop: Stop, mut spans: Option<(&mut SpanLog, u64)>) {
        let batch = self.spec.batch;
        let mut next = 0;
        loop {
            if next >= ops.len() {
                match stop {
                    Stop::Once => return,
                    Stop::At(_) => next = 0,
                }
            }
            let group = &ops[next..next + batch];
            next += batch;
            let (kind, start, end) = if batch == 1 {
                self.scalar(group[0])
            } else {
                self.batched(group)
            };
            self.tally
                .calls
                .push((kind as u32) << KIND_SHIFT | ns_u32(end - start));
            if let Some((log, parent)) = spans.as_mut() {
                log.op(SPAN_NAMES[kind], start, end, *parent);
            }
            if let Stop::At(deadline) = stop {
                let window_end = self.tally.marks.last().expect("timing started").at + WINDOW;
                if end >= window_end {
                    let mark = self.tally.mark(end);
                    self.tally.marks.push(mark);
                }
                if end >= deadline {
                    return;
                }
            }
        }
    }

    fn scalar(&mut self, op: Op) -> (usize, Instant, Instant) {
        let ptr = self.ptrs[op.key as usize];
        self.tally.attempted += 1;
        if op.write {
            fill_payload(&mut self.wbuf, op.key, op.fill);
            let start = Instant::now();
            let result = self.clients[0].write(ptr, 0, &self.wbuf);
            let end = Instant::now();
            self.wrote(op, result.is_ok());
            (WRITE, start, end)
        } else {
            let reader = self.clients.len() - 1;
            let start = Instant::now();
            let result = self.clients[reader].read(ptr, 0, &mut self.rbuf);
            let end = Instant::now();
            match result {
                Ok(()) if self.shadow.matches(op.key, &self.rbuf) => {}
                Ok(()) => self.tally.wrong += 1,
                Err(_) => self.tally.failed += 1,
            }
            (READ, start, end)
        }
    }

    fn batched(&mut self, group: &[Op]) -> (usize, Instant, Instant) {
        let size = self.spec.object_bytes;
        for (op, buf) in group.iter().zip(self.wbuf.chunks_exact_mut(size)) {
            if op.write {
                fill_payload(buf, op.key, op.fill);
            }
        }
        self.tally.attempted += group.len() as u64;
        let start = Instant::now();
        let mut batch = self.clients[0].batch();
        let slots = self
            .wbuf
            .chunks_exact(size)
            .zip(self.rbuf.chunks_exact_mut(size));
        for (op, (wslot, rslot)) in group.iter().zip(slots) {
            let ptr = self.ptrs[op.key as usize];
            batch = if op.write {
                batch.write(ptr, 0, wslot)
            } else {
                batch.read(ptr, 0, rslot)
            };
        }
        let outcome = batch.submit();
        let end = Instant::now();
        let results = match outcome {
            Ok(r) => r.into_results(),
            Err(e) => vec![Err(e); group.len()],
        };
        for (i, (op, result)) in group.iter().zip(results).enumerate() {
            if op.write {
                self.wrote(*op, result.is_ok());
            } else if result.is_err() {
                self.tally.failed += 1;
            } else if !self
                .shadow
                .matches(op.key, &self.rbuf[i * size..(i + 1) * size])
            {
                self.tally.wrong += 1;
            }
        }
        (BATCH, start, end)
    }

    fn wrote(&mut self, op: Op, ok: bool) {
        if ok {
            self.shadow.acknowledged(op.key, op.fill);
        } else {
            self.tally.failed += 1;
            self.shadow.write_failed(op.key);
        }
    }

    fn drain_all(&mut self) -> Result<(), GengarError> {
        self.clients
            .iter_mut()
            .try_for_each(GengarClient::drain_all)
    }

    /// Reads every object back from NVM after the barrier: each must hold
    /// its last acknowledged write. A read that fails cannot vouch for
    /// the object, so it counts as wrong too.
    fn audit(&mut self) {
        let size = self.spec.object_bytes;
        for (key, &ptr) in self.ptrs.iter().enumerate() {
            let read = self.admin.read(ptr, 0, &mut self.rbuf[..size]);
            if read.is_err() || !self.shadow.matches(key as u32, &self.rbuf[..size]) {
                self.tally.wrong += 1;
            }
        }
    }
}

/// Runs one trial of `spec` on the inputs `seq`, timing the closed loop
/// for `seconds`. Structural spans always go to `log`; per-op spans only
/// when `trace_ops`.
///
/// # Errors
///
/// A failure of set-up or of the barrier. Failures of single ops in the
/// load loop are counted instead.
pub fn run_trial(
    spec: &Spec,
    seq: &Sequence,
    seconds: f64,
    telemetry: bool,
    log: &mut SpanLog,
    trace_ops: bool,
) -> Result<Trial, GengarError> {
    let tel = if telemetry {
        TelemetryConfig::enabled()
    } else {
        TelemetryConfig::disabled()
    };
    let snapshot = || telemetry.then(|| Registry::global().snapshot());
    let ms = |ns: u64| ns as f64 / 1e6;
    let trial_start = snapshot();
    let root = log.begin("trial", 0);
    let setup = log.begin("setup", root.id);
    let setup_t0 = Instant::now();

    let span = log.begin("cluster.launch", setup.id);
    let fabric = FabricConfig {
        telemetry: tel,
        ..FabricConfig::infiniband_100g()
    };
    let cluster = Cluster::launch(spec.servers, server_config(spec, tel), fabric)?;
    let launch_ms = ms(log.end(span));

    let span = log.begin("client.connect", setup.id);
    let clients = (0..if spec.shared { 2 } else { 1 })
        .map(|_| cluster.client(client_config(spec, tel)))
        .collect::<Result<Vec<_>, _>>()?;
    let admin = cluster.client(ClientConfig {
        report_every: u32::MAX,
        ..client_config(spec, tel)
    })?;
    let connect_ms = ms(log.end(span));

    let mut load = Load {
        spec,
        clients,
        admin,
        ptrs: Vec::with_capacity(spec.objects as usize),
        shadow: Shadow::populated(spec.objects),
        wbuf: vec![0; spec.object_bytes * spec.batch],
        rbuf: vec![0; spec.object_bytes * spec.batch],
        tally: Tally::default(),
    };

    let span = log.begin("alloc", setup.id);
    let mut alloc_ns = Vec::with_capacity(spec.objects as usize);
    for key in 0..spec.objects {
        let server = (key as usize % spec.servers) as u8;
        let t0 = Instant::now();
        let ptr = load.admin.alloc(server, spec.object_bytes as u64)?;
        let t1 = Instant::now();
        alloc_ns.push(ns_u32(t1 - t0));
        if trace_ops {
            log.op("client.alloc", t0, t1, span.id);
        }
        load.ptrs.push(ptr);
    }
    log.end(span);

    let span = log.begin("populate", setup.id);
    for key in 0..spec.objects {
        fill_payload(&mut load.wbuf[..spec.object_bytes], key, initial_fill(key));
        let ptr = load.ptrs[key as usize];
        load.admin.write(ptr, 0, &load.wbuf[..spec.object_bytes])?;
    }
    load.admin.drain_all()?;
    let populate_ms = ms(log.end(span));

    let span = log.begin("warmup", setup.id);
    load.run(&seq.warmup, Stop::Once, None);
    load.drain_all()?;
    let warmup_ms = ms(log.end(span));
    let before = (load.tally.attempted, load.tally.failed);
    log.end(setup);
    let setup_s = setup_t0.elapsed().as_secs_f64();

    let client_before = client_totals(&load.clients);
    let cache_before = cache_totals(&cluster);
    let timed_start = snapshot();

    let timed = log.begin("timed", root.id);
    let t0 = Instant::now();
    load.tally.start_timing(t0, seq.timed.len() / spec.batch);
    let spans = trace_ops.then_some((&mut *log, timed.id));
    load.run(
        &seq.timed,
        Stop::At(t0 + Duration::from_secs_f64(seconds)),
        spans,
    );
    let barrier = log.begin("client.drain_all", timed.id);
    load.drain_all()?;
    let barrier_ms = ms(log.end(barrier));
    let timed_s = t0.elapsed().as_secs_f64();
    log.end(timed);

    // Counts are closed before the audit, whose reads are not the
    // workload's.
    let end = snapshot();
    let mut client = client_totals(&load.clients);
    fold_fields!(client, client_before, -=, [
        reads, writes, cache_hits, cache_rejects, nvm_reads, writeback_hits,
        staged_writes, direct_writes, lock_retries, read_retries, reports, retries
    ]);
    let mut cache = cache_totals(&cluster);
    fold_fields!(cache, cache_before, -=, [
        promotions, evictions, invalidations, admitted, rejected, ghost_hits
    ]);
    let span = log.begin("audit", root.id);
    load.audit();
    log.end(span);
    drop(load.clients);
    drop(load.admin);
    drop(cluster);
    log.end(root);

    let windows = load.tally.windows();
    let by_kind = [READ, WRITE, BATCH].map(|kind| load.tally.latency(kind));
    let Tally {
        attempted,
        failed,
        wrong,
        calls: mut call_ns,
        ..
    } = load.tally;
    for call in &mut call_ns {
        *call &= NS_MASK;
    }
    alloc_ns.sort_unstable();
    let attempted = attempted - before.0;
    Ok(Trial {
        setup_s,
        timed_s,
        completed: attempted - (failed - before.1),
        attempted,
        failed,
        wrong,
        windows,
        call_ns,
        by_kind,
        alloc_p50_ns: percentile(&alloc_ns, 50.0),
        launch_ms,
        connect_ms,
        populate_ms,
        warmup_ms,
        barrier_ms,
        client,
        cache,
        registry: trial_start
            .zip(timed_start)
            .zip(end)
            .map(|((trial_start, timed_start), end)| RegistryMarks {
                trial_start,
                timed_start,
                end,
            }),
    })
}
