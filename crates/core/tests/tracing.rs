//! End-to-end causal-tracing tests: trace ids must survive retries and
//! reconnects, the async NVM drain must link back to the client op that
//! staged the record, the flight recorder must dump on injected faults,
//! and the scalar and batch issue paths must report identical telemetry.
//!
//! The tracer and the metrics registry are process-global, so every test
//! here serialises on [`TRACER_LOCK`] and resets tracer state up front
//! (other test binaries are separate processes and cannot interfere).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_rdma::{FabricConfig, FaultPlane};
use gengar_telemetry::{
    FlightRecorder, Registry, SpanRecord, TelemetryConfig, TraceId, TraceMode, Tracer,
};

static TRACER_LOCK: Mutex<()> = Mutex::new(());

/// Takes the global-tracer lock (riding through poisoning: a failed test
/// must not cascade) and puts the tracer into `mode` with a clean buffer.
fn tracer_guard(mode: TraceMode) -> MutexGuard<'static, ()> {
    let guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tracer = Tracer::global();
    tracer.set_mode(mode);
    tracer.clear();
    guard
}

/// Hotness reports off so the only traffic is what the test issues.
fn quiet_client_config() -> ClientConfig {
    ClientConfig {
        report_every: u32::MAX,
        ..Default::default()
    }
}

/// Spans grouped by trace id (untraced spans excluded).
fn by_trace(spans: &[SpanRecord]) -> HashMap<u64, Vec<&SpanRecord>> {
    let mut map: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans.iter().filter(|s| s.trace != 0) {
        map.entry(s.trace).or_default().push(s);
    }
    map
}

/// Every parent link in `spans` must resolve inside the same trace (or be
/// 0 for a root), and walking parents must terminate — no cycles.
fn assert_links_closed_and_acyclic(spans: &[SpanRecord]) {
    let live: HashSet<(u64, u64)> = spans.iter().map(|s| (s.trace, s.span)).collect();
    let parent_of: HashMap<(u64, u64), u64> = spans
        .iter()
        .map(|s| ((s.trace, s.span), s.parent))
        .collect();
    for s in spans {
        assert!(
            s.parent == 0 || live.contains(&(s.trace, s.parent)),
            "span {} ({}) has dangling parent {} in trace {}",
            s.span,
            s.name,
            s.parent,
            s.trace
        );
        let mut cur = s.parent;
        let mut hops = 0;
        while cur != 0 {
            cur = *parent_of.get(&(s.trace, cur)).unwrap_or(&0);
            hops += 1;
            assert!(hops <= spans.len(), "parent cycle through span {}", s.span);
        }
    }
}

/// Retried and reconnected operations keep their trace id: every attempt
/// of one batch lands under the one root span, the `BatchResult` exposes
/// that id, and the first injected fault auto-dumps the flight recorder.
#[test]
fn trace_id_survives_retry_and_reconnect() {
    let _guard = tracer_guard(TraceMode::Full);
    let recorder = FlightRecorder::global();
    recorder.set_out_dir(std::env::temp_dir());
    let dumps_before = recorder.dumps();
    recorder.arm();

    // Drops force timeout->retry; transport error completions force the
    // reconnect path. Probabilities are low enough that ops succeed within
    // their budget, high enough that both paths certainly fire.
    let plane = Arc::new(
        FaultPlane::from_spec("drop:p=0.08 + err:p=0.03", 11, TelemetryConfig::disabled()).unwrap(),
    );
    let mut fabric = FabricConfig::instant();
    fabric.faults = Some(Arc::clone(&plane));
    let cluster = Cluster::launch(1, ServerConfig::small(), fabric).unwrap();
    let config = ClientConfig {
        op_deadline: Duration::from_millis(500),
        max_retries: 16,
        ..quiet_client_config()
    };
    let mut client = cluster.client(config).unwrap();
    let ptrs: Vec<_> = (0..4).map(|_| client.alloc(0, 64).unwrap()).collect();

    let mut ok_traces: Vec<u64> = Vec::new();
    for round in 0..120u32 {
        let a = ptrs[(round % 4) as usize];
        let b = ptrs[((round + 1) % 4) as usize];
        let val = [round as u8; 64];
        let result = client
            .batch()
            .write(a, 0, &val)
            .write(b, 0, &val)
            .submit()
            .unwrap();
        if result.all_ok() {
            let trace = result.trace_id();
            assert_ne!(trace, TraceId::NONE, "tracing is on: ids must be minted");
            ok_traces.push(trace.0);
        }
    }
    plane.disarm();
    let stats = client.stats();
    assert!(stats.retries > 0, "fault soup exercised no retries");
    assert!(stats.reconnects > 0, "fault soup exercised no reconnects");
    assert!(!ok_traces.is_empty(), "no batch survived the fault soup");

    let spans = Tracer::global().snapshot();
    let traces = by_trace(&spans);
    let mut saw_retried_trace = false;
    for trace in &ok_traces {
        let spans = traces
            .get(trace)
            .unwrap_or_else(|| panic!("trace {trace} returned by BatchResult has no spans"));
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.name.starts_with("client."))
            .collect();
        assert_eq!(
            roots.len(),
            1,
            "trace {trace}: one client root expected, got {roots:?}"
        );
        let attempts = spans.iter().filter(|s| s.name == "client.attempt").count();
        assert!(attempts >= 1, "trace {trace}: no attempt span");
        if attempts >= 2 {
            saw_retried_trace = true; // the retry kept the original id
        }
    }
    assert!(
        saw_retried_trace,
        "no successful batch was retried; spans cannot show id survival"
    );

    // The very first injected fault fired the armed flight recorder.
    assert!(recorder.dumps() > dumps_before, "no flight-recorder dump");
    let dump = recorder.last_dump().expect("dump path");
    let text = std::fs::read_to_string(&dump).expect("dump file readable");
    assert!(text.contains("traceEvents"), "dump is not a Chrome trace");
    std::fs::remove_file(&dump).ok();
}

/// One staged write produces a causally complete trace: the client root,
/// its fabric verbs and proxy staging underneath, and an async
/// `server.drain` span in the *same trace* that starts only after the
/// client-visible completion — exactly the latency the proxy hides.
#[test]
fn staged_write_trace_links_client_to_async_drain() {
    let _guard = tracer_guard(TraceMode::Full);
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let mut client = cluster.client(quiet_client_config()).unwrap();
    let ptrs: Vec<_> = (0..4).map(|_| client.alloc(0, 64).unwrap()).collect();
    for i in 0..200u32 {
        client
            .write(ptrs[(i % 4) as usize], 0, &[i as u8; 64])
            .unwrap();
    }
    client.drain_all().unwrap();
    assert!(
        client.stats().staged_writes > 0,
        "writes must take the proxy path"
    );

    let spans = Tracer::global().snapshot();
    assert_links_closed_and_acyclic(&spans);
    let traces = by_trace(&spans);

    // At least one write trace must show the full causal chain with the
    // drain strictly after the client-visible completion. (Exists- not
    // forall-quantified: the drain thread can race ahead of the ack for
    // records it picks up mid-stage.)
    let mut complete_chains = 0usize;
    for spans in traces.values() {
        let Some(root) = spans
            .iter()
            .find(|s| s.parent == 0 && s.name == "client.write")
        else {
            continue;
        };
        let staged = spans.iter().any(|s| s.name.starts_with("proxy.stage"));
        let posted = spans.iter().any(|s| s.name == "rdma.post");
        let doorbell = spans.iter().any(|s| s.name == "rdma.doorbell");
        let drained_after = spans
            .iter()
            .any(|s| s.name == "server.drain" && s.start_ns >= root.end_ns);
        if staged && posted && doorbell && drained_after {
            complete_chains += 1;
        }
    }
    assert!(
        complete_chains > 0,
        "no staged write produced the full client->fabric->proxy->drain chain"
    );
}

/// Satellite check for the unified issue path: a workload pushed through
/// the scalar API and the identical workload pushed through `OpBatch`
/// must report the *same* per-client counters and the same number of
/// whole-op latency samples — batch slots are not second-class citizens.
/// Holds under both consistency modes: `Seqlock` ops block inside the
/// reactor (locked write-through, validated NVM reads) but are counted
/// exactly like the windowed `None` ops.
#[test]
fn scalar_and_batch_paths_report_identical_telemetry() {
    let _guard = tracer_guard(TraceMode::Off);
    for consistency in [Consistency::None, Consistency::Seqlock] {
        assert_telemetry_parity(consistency);
    }
}

fn assert_telemetry_parity(consistency: Consistency) {
    let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
    let config = ClientConfig {
        consistency,
        ..quiet_client_config()
    };

    let registry = Registry::global();
    let hist_count = |key: &str| registry.snapshot().histogram(key).map_or(0, |h| h.count);

    // Scalar phase: 24 writes then 24 reads, one op per call.
    let mut scalar = cluster.client(config.clone()).unwrap();
    let ptrs: Vec<_> = (0..4).map(|_| scalar.alloc(0, 64).unwrap()).collect();
    let (w0, r0) = (hist_count("client.write_ns"), hist_count("client.read_ns"));
    for i in 0..24u32 {
        scalar
            .write(ptrs[(i % 4) as usize], 0, &[i as u8; 64])
            .unwrap();
    }
    let mut buf = [0u8; 64];
    for i in 0..24u32 {
        scalar.read(ptrs[(i % 4) as usize], 0, &mut buf).unwrap();
    }
    let (w1, r1) = (hist_count("client.write_ns"), hist_count("client.read_ns"));

    // Batch phase: the same 48 ops in batches of 4 against fresh objects.
    let mut batched = cluster.client(config).unwrap();
    let bptrs: Vec<_> = (0..4).map(|_| batched.alloc(0, 64).unwrap()).collect();
    for round in 0..6u32 {
        let vals: Vec<[u8; 64]> = (0..4).map(|i| [(round * 4 + i) as u8; 64]).collect();
        let items: Vec<_> = bptrs
            .iter()
            .zip(&vals)
            .map(|(&p, v)| (p, 0u64, &v[..]))
            .collect();
        assert!(batched.write_batch(items).unwrap().all_ok());
    }
    for _ in 0..6u32 {
        let mut bufs = vec![[0u8; 64]; 4];
        let items: Vec<_> = bptrs
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&p, b)| (p, 0u64, &mut b[..]))
            .collect();
        assert!(batched.read_batch(items).unwrap().all_ok());
    }
    let (w2, r2) = (hist_count("client.write_ns"), hist_count("client.read_ns"));

    // Same per-client counter shape on both paths...
    let (s, b) = (scalar.stats(), batched.stats());
    assert_eq!(s.writes, 24);
    assert_eq!(b.writes, 24, "batch slots must count as writes");
    assert_eq!(s.reads, 24);
    assert_eq!(b.reads, 24, "batch slots must count as reads");
    assert_eq!(
        s.staged_writes + s.direct_writes,
        b.staged_writes + b.direct_writes,
        "every write lands via staging or direct on both paths"
    );
    assert_eq!(
        (s.staged_writes, s.direct_writes),
        if consistency == Consistency::None {
            (24, 0)
        } else {
            (0, 24)
        },
        "{consistency:?} writes took the wrong route"
    );
    assert_eq!(s.degraded_ops, 0);
    assert_eq!(b.degraded_ops, 0);
    assert_eq!(
        s.cache_hits + s.nvm_reads + s.writeback_hits + s.cache_rejects,
        24,
        "scalar reads must all be source-attributed"
    );
    assert_eq!(
        b.cache_hits + b.nvm_reads + b.writeback_hits + b.cache_rejects,
        24,
        "batched reads must all be source-attributed"
    );
    // ...and the same number of whole-op latency samples per op.
    assert_eq!(w1 - w0, 24, "scalar writes record 24 latency samples");
    assert_eq!(w2 - w1, 24, "batched writes record 24 latency samples");
    assert_eq!(r1 - r0, 24, "scalar reads record 24 latency samples");
    assert_eq!(r2 - r1, 24, "batched reads record 24 latency samples");
}
