//! Seeded chaos suite: randomized fault schedules over micro and YCSB-ish
//! workloads, with a shadow model asserting that every acknowledged write
//! is readable once the dust settles.
//!
//! Each test runs once per seed; seeds come from the `CHAOS_SEEDS`
//! environment variable (comma-separated) or a small built-in list.
//! `scripts/chaos.sh` sweeps a fixed set of ten. Every assertion message
//! carries the seed so a failure reproduces with
//! `CHAOS_SEEDS=<seed> cargo test -p gengar-core --test chaos`.

use std::collections::HashSet;
use std::sync::Arc;

use gengar_core::client::GengarClient;
use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::GengarError;
use gengar_rdma::{FabricConfig, FaultPlane};
use gengar_telemetry::{FlightRecorder, TelemetryConfig, TraceMode, Tracer};

/// Arms the flight recorder for this chaos run (sampled tracing feeds it)
/// and installs a panic hook — once per process — that dumps the recorder
/// and prints the last-N trace summary to stderr on any chaos failure, so
/// a red seed ships its own causal evidence.
fn arm_flight_recorder() {
    let tracer = Tracer::global();
    if !tracer.enabled() {
        tracer.set_mode(TraceMode::Sampled);
    }
    let recorder = FlightRecorder::global();
    recorder.set_out_dir(std::env::temp_dir());
    recorder.arm();
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let recorder = FlightRecorder::global();
            match recorder
                .trigger("chaos-assert")
                .or_else(|| recorder.last_dump())
            {
                Some(path) => eprintln!(
                    "chaos failure: flight-recorder trace dumped to {}",
                    path.display()
                ),
                None => eprintln!("chaos failure: no flight-recorder dump available"),
            }
            eprintln!("chaos failure: recent traces:\n{}", recorder.summary(16));
            prev(info);
        }));
    });
}

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().expect("CHAOS_SEEDS: seeds are u64s"))
            .collect(),
        Err(_) => vec![1, 7, 42],
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Crash-simulating server with headroom for reconnect storms.
fn chaos_server_config() -> ServerConfig {
    let mut config = ServerConfig::small();
    config.crash_sim = true;
    config.max_clients = 64;
    config
}

/// Hotness reports are disabled so the only RPCs in flight are the ones
/// the workload issues — keeps the shadow model's view of "what could have
/// landed" exact.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        report_every: u32::MAX,
        ..Default::default()
    }
}

fn chaos_cluster(spec: &str, seed: u64) -> (Cluster, Arc<FaultPlane>) {
    let plane = Arc::new(
        FaultPlane::from_spec(spec, seed, TelemetryConfig::disabled())
            .expect("chaos suite fault spec must parse"),
    );
    let mut fabric = FabricConfig::instant();
    fabric.faults = Some(Arc::clone(&plane));
    let cluster = Cluster::launch(1, chaos_server_config(), fabric).unwrap();
    (cluster, plane)
}

/// Shadow model of one pool object under faults.
///
/// `settled` is the value the object must read back once faults stop and
/// the rings drain — known exactly whenever the *last* write was
/// acknowledged. A failed write leaves the object ambiguous (the attempt
/// provably either landed in full or not at all, never torn), so the
/// object may hold any value in `maybe` until the next acknowledged write.
struct Shadow {
    settled: Option<u8>,
    maybe: HashSet<u8>,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            settled: Some(0),
            maybe: HashSet::from([0]),
        }
    }

    fn acked(&mut self, val: u8) {
        self.settled = Some(val);
        self.maybe = HashSet::from([val]);
    }

    fn failed(&mut self, val: u8) {
        self.settled = None;
        self.maybe.insert(val);
    }

    fn check_final(&self, got: u8, seed: u64, obj: usize) {
        if let Some(want) = self.settled {
            assert_eq!(
                got, want,
                "seed {seed}: object {obj} lost its acknowledged write"
            );
        } else {
            assert!(
                self.maybe.contains(&got),
                "seed {seed}: object {obj} holds {got}, never written ({:?})",
                self.maybe
            );
        }
    }
}

fn read_fill_byte(
    client: &mut GengarClient,
    ptr: gengar_core::addr::GlobalPtr,
) -> Result<u8, GengarError> {
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf)?;
    assert!(
        buf.iter().all(|&b| b == buf[0]),
        "torn 64-byte object: {buf:?}"
    );
    Ok(buf[0])
}

/// Random single-client workload under probabilistic drops, error
/// completions, RNR exhaustion and delays. Operations may fail (the fault
/// schedule can outlast any retry budget) but must never hang, and the
/// shadow model must hold both during the run and after the plane is
/// disarmed.
#[test]
fn chaos_micro_random_faults() {
    arm_flight_recorder();
    for seed in seeds() {
        let (cluster, plane) = chaos_cluster(
            "drop:p=0.02 + err:p=0.01 + rnr:p=0.005 + delay:ns=20000,p=0.05",
            seed,
        );
        let mut client = cluster.client(chaos_client_config()).unwrap();
        let ptrs: Vec<_> = (0..8).map(|_| client.alloc(0, 64).unwrap()).collect();
        let mut shadows: Vec<Shadow> = (0..8).map(|_| Shadow::new()).collect();

        let mut rng = seed ^ 0xC0FFEE;
        for op in 0..400u32 {
            let i = (splitmix64(&mut rng) % 8) as usize;
            if splitmix64(&mut rng).is_multiple_of(4) {
                // Read: failures are acceptable mid-chaos, wrong data is not.
                if let Ok(got) = read_fill_byte(&mut client, ptrs[i]) {
                    assert!(
                        shadows[i].maybe.contains(&got),
                        "seed {seed} op {op}: object {i} read {got}, \
                         which was never written ({:?})",
                        shadows[i].maybe
                    );
                }
            } else {
                let val = (splitmix64(&mut rng) % 251) as u8;
                match client.write(ptrs[i], 0, &[val; 64]) {
                    Ok(()) => shadows[i].acked(val),
                    Err(e) => {
                        assert!(
                            !matches!(
                                e,
                                GengarError::ProtocolViolation(_) | GengarError::InvalidAddress(_)
                            ),
                            "seed {seed} op {op}: fault surfaced as a protocol bug: {e:?}"
                        );
                        shadows[i].failed(val);
                    }
                }
            }
        }

        // Quiesce: no more faults, drain the rings, then every object must
        // satisfy its shadow — acknowledged writes exactly, failed writes
        // as one of the values that could have landed.
        plane.disarm();
        client.drain_all().unwrap();
        for (i, (ptr, shadow)) in ptrs.iter().zip(&shadows).enumerate() {
            let got = read_fill_byte(&mut client, *ptr)
                .unwrap_or_else(|e| panic!("seed {seed}: final read of object {i} failed: {e:?}"));
            shadow.check_final(got, seed, i);
        }
        assert!(plane.ops_seen() > 0, "seed {seed}: plane saw no traffic");
    }
}

/// A deterministic flap schedule (every link partitioned for the first 15
/// of every 120 fabric ops) under a YCSB-like read-mostly mix. The client
/// rides through each outage with retries/reconnects; the run must finish
/// with the shadow model intact and visible recovery work in the stats.
#[test]
fn chaos_ycsb_under_flap_schedule() {
    arm_flight_recorder();
    for seed in seeds() {
        let (cluster, plane) = chaos_cluster("flap:period=120,blocked=15", seed);
        let mut client = cluster.client(chaos_client_config()).unwrap();
        let ptrs: Vec<_> = (0..16).map(|_| client.alloc(0, 64).unwrap()).collect();
        let mut shadows: Vec<Shadow> = (0..16).map(|_| Shadow::new()).collect();

        let mut rng = seed ^ 0xD15EA5E;
        for _ in 0..300u32 {
            let i = (splitmix64(&mut rng) % 16) as usize;
            // YCSB-B-ish: 80% reads (the interesting traffic for flaps is
            // still plentiful: every read is at least one fabric op).
            if splitmix64(&mut rng) % 10 < 8 {
                if let Ok(got) = read_fill_byte(&mut client, ptrs[i]) {
                    assert!(
                        shadows[i].maybe.contains(&got),
                        "seed {seed}: object {i} read {got} ({:?})",
                        shadows[i].maybe
                    );
                }
            } else {
                let val = (splitmix64(&mut rng) % 251) as u8;
                match client.write(ptrs[i], 0, &[val; 64]) {
                    Ok(()) => shadows[i].acked(val),
                    Err(_) => shadows[i].failed(val),
                }
            }
        }

        plane.disarm();
        client.drain_all().unwrap();
        for (i, (ptr, shadow)) in ptrs.iter().zip(&shadows).enumerate() {
            let got = read_fill_byte(&mut client, *ptr)
                .unwrap_or_else(|e| panic!("seed {seed}: final read of object {i} failed: {e:?}"));
            shadow.check_final(got, seed, i);
        }
        let stats = client.stats();
        assert!(
            stats.retries > 0,
            "seed {seed}: flap schedule exercised no retries"
        );
    }
}

/// Server crash + recovery in the middle of a write-heavy run: the client
/// reconnects by itself, replays what the old ring had not drained, and
/// no acknowledged write is lost.
#[test]
fn chaos_server_crash_mid_run_reconnects() {
    arm_flight_recorder();
    for seed in seeds() {
        let cluster = Cluster::launch(1, chaos_server_config(), FabricConfig::instant()).unwrap();
        let mut client = cluster.client(chaos_client_config()).unwrap();
        let ptrs: Vec<_> = (0..8).map(|_| client.alloc(0, 64).unwrap()).collect();
        let mut shadows: Vec<Shadow> = (0..8).map(|_| Shadow::new()).collect();
        let counter = client.alloc(0, 8).unwrap();
        let mut acked_adds = 0u64;
        let mut tried_adds = 0u64;

        let mut rng = seed ^ 0xBADD1E;
        for op in 0..200u32 {
            if op == 100 {
                // Power-fail the server and bring it back. The client is
                // not told: its next operations discover the dead control
                // plane and re-dial on their own.
                let server = cluster.server(0).unwrap();
                server.shutdown();
                server.crash().unwrap();
                server.recover().unwrap();
                server.restart();
            }
            if op % 10 == 9 {
                // Atomics anchor durability over RPC — the path that
                // actually dies with the connections shutdown dropped,
                // forcing the reconnect (staged writes and reads are
                // one-sided).
                tried_adds += 1;
                if client.faa_u64(counter, 0, 1).is_ok() {
                    acked_adds += 1;
                }
                continue;
            }
            let i = (splitmix64(&mut rng) % 8) as usize;
            let val = (splitmix64(&mut rng) % 251) as u8;
            match client.write(ptrs[i], 0, &[val; 64]) {
                Ok(()) => shadows[i].acked(val),
                Err(_) => shadows[i].failed(val),
            }
        }

        client.drain_all().unwrap();
        // Each acknowledged FAA landed exactly once; a failed one either
        // executed or provably never did.
        let mut count_buf = [0u8; 8];
        client.read(counter, 0, &mut count_buf).unwrap();
        let count = u64::from_le_bytes(count_buf);
        assert!(
            count >= acked_adds && count <= tried_adds,
            "seed {seed}: counter {count} outside [{acked_adds}, {tried_adds}]"
        );
        for (i, (ptr, shadow)) in ptrs.iter().zip(&shadows).enumerate() {
            let got = read_fill_byte(&mut client, *ptr)
                .unwrap_or_else(|e| panic!("seed {seed}: final read of object {i} failed: {e:?}"));
            shadow.check_final(got, seed, i);
        }
        let stats = client.stats();
        assert!(
            stats.reconnects > 0,
            "seed {seed}: client never reconnected across the crash"
        );
    }
}

/// `Seqlock` sharing under faults: two writers and a reader client, driven
/// in turn from one thread, share cached objects while drops and error
/// completions hit every verb of the one-sided write — lock-word READ, lock
/// CAS, payload WRITE, FLUSH, unlock WRITE — and of the validated reads.
/// The writers take turns at random, so the word each remembers of an
/// object goes stale and its lock CAS starts from a lost guess. Each object
/// is written an increasing sequence of values. A read may fail mid-chaos,
/// but one that succeeds returns an acknowledged value no older than the
/// object's last acknowledged write or the reader's last read of it. Once
/// the plane disarms, the writers finish the objects their failed writes
/// left locked, and a third client must lock and unlock every one.
#[test]
fn chaos_seqlock_writer_and_reader_stay_coherent() {
    const OBJECTS: usize = 8;
    arm_flight_recorder();
    for seed in seeds() {
        let spec = ["read", "write", "cas", "flush"]
            .map(|verb| format!("drop:p=0.01,verb={verb} + err:p=0.01,verb={verb}"))
            .join(" + ");
        let (cluster, plane) = {
            let plane = Arc::new(
                FaultPlane::from_spec(&spec, seed, TelemetryConfig::disabled())
                    .expect("chaos suite fault spec must parse"),
            );
            let mut fabric = FabricConfig::instant();
            fabric.faults = Some(Arc::clone(&plane));
            let mut config = chaos_server_config();
            config.cache = config.cache.hot_threshold(1);
            (Cluster::launch(1, config, fabric).unwrap(), plane)
        };
        let seqlock = ClientConfig {
            consistency: Consistency::Seqlock,
            report_every: 8,
            op_deadline: std::time::Duration::from_millis(500),
            ..Default::default()
        };
        // A write meeting the lock the other writer's failed write left
        // behind gives up after these lost CASes, not the default's
        // seconds of parks.
        let writing = ClientConfig {
            lock_retries: 64,
            ..seqlock.clone()
        };
        let mut writers = [
            cluster.client(writing.clone()).unwrap(),
            cluster.client(writing).unwrap(),
        ];
        let mut reader = cluster.client(seqlock.clone()).unwrap();
        let ptrs: Vec<_> = (0..OBJECTS)
            .map(|_| writers[0].alloc(0, 64).unwrap())
            .collect();
        let mut written = [0u8; OBJECTS];
        let mut acked: Vec<HashSet<u8>> = vec![HashSet::from([0]); OBJECTS];
        // What a read of each object may no longer return anything older than.
        let mut floor = [0u8; OBJECTS];
        // The writers whose failed write may have left each object locked.
        let mut unfinished = [[false; 2]; OBJECTS];

        let mut rng = seed ^ 0x5E9_10C;
        for op in 0..400u32 {
            let i = (splitmix64(&mut rng) % OBJECTS as u64) as usize;
            if splitmix64(&mut rng).is_multiple_of(4) {
                let w = (splitmix64(&mut rng) % 2) as usize;
                written[i] += 1;
                let val = written[i];
                match writers[w].write(ptrs[i], 0, &[val; 64]) {
                    Ok(()) => {
                        acked[i].insert(val);
                        floor[i] = val;
                        unfinished[i] = [false; 2];
                    }
                    // The other writer holds the lock: this one took none.
                    Err(GengarError::LockContended(_)) => {}
                    Err(e) => {
                        assert!(
                            !matches!(
                                e,
                                GengarError::ProtocolViolation(_) | GengarError::InvalidAddress(_)
                            ),
                            "seed {seed} op {op}: fault surfaced as a protocol bug: {e:?}"
                        );
                        unfinished[i][w] = true;
                    }
                }
            } else if let Ok(got) = read_fill_byte(&mut reader, ptrs[i]) {
                assert!(
                    acked[i].contains(&got),
                    "seed {seed} op {op}: object {i} read {got}, never acknowledged"
                );
                assert!(
                    got >= floor[i],
                    "seed {seed} op {op}: object {i} went back from {} to {got}",
                    floor[i]
                );
                floor[i] = got;
            }
        }

        plane.disarm();
        // The writer holding an object's lock finishes it; another one
        // contends until then, so each gets a second turn.
        for (i, ptr) in ptrs.iter().enumerate() {
            for w in [0, 1, 0, 1] {
                if !unfinished[i][w] {
                    continue;
                }
                written[i] += 1;
                match writers[w].write(*ptr, 0, &[written[i]; 64]) {
                    Ok(()) => unfinished[i][w] = false,
                    Err(GengarError::LockContended(_)) => {}
                    Err(e) => {
                        panic!("seed {seed}: object {i} stays unwritable after the faults: {e:?}")
                    }
                }
            }
            assert_eq!(
                unfinished[i], [false; 2],
                "seed {seed}: object {i} stays unwritable after the faults"
            );
        }
        let mut third = cluster.client(seqlock).unwrap();
        for (i, ptr) in ptrs.iter().enumerate() {
            third
                .lock(*ptr)
                .and_then(|()| third.unlock(*ptr))
                .unwrap_or_else(|e| panic!("seed {seed}: object {i} stays locked: {e:?}"));
            let got = read_fill_byte(&mut reader, *ptr)
                .unwrap_or_else(|e| panic!("seed {seed}: final read of object {i} failed: {e:?}"));
            assert_eq!(
                got, written[i],
                "seed {seed}: object {i} lost its last write"
            );
        }
        assert!(plane.ops_seen() > 0, "seed {seed}: plane saw no traffic");
    }
}

/// Windowed batches (`window_depth > 1`) under the same fault soup as the
/// scalar micro test: per-op batch results feed the shadow model, and once
/// the plane disarms every object must settle. A slot that completed is
/// never replayed (acknowledged writes stay exactly-once) and interleaved
/// FAAs land at most once per acknowledgement.
#[test]
fn chaos_windowed_batches_settle() {
    arm_flight_recorder();
    for seed in seeds() {
        let (cluster, plane) = chaos_cluster(
            "drop:p=0.02 + err:p=0.01 + rnr:p=0.005 + delay:ns=20000,p=0.05",
            seed,
        );
        let config = ClientConfig {
            window_depth: 8,
            ..chaos_client_config()
        };
        let mut client = cluster.client(config).unwrap();
        let ptrs: Vec<_> = (0..8).map(|_| client.alloc(0, 64).unwrap()).collect();
        let mut shadows: Vec<Shadow> = (0..8).map(|_| Shadow::new()).collect();
        let counter = client.alloc(0, 8).unwrap();
        let mut acked_adds = 0u64;
        let mut tried_adds = 0u64;

        let mut rng = seed ^ 0x11AB5EED;
        for round in 0..60u32 {
            if round % 10 == 9 {
                // Atomics bypass batching; the exactly-once discipline must
                // survive living between windowed submissions.
                tried_adds += 1;
                if client.faa_u64(counter, 0, 1).is_ok() {
                    acked_adds += 1;
                }
                continue;
            }
            // A batch of 2..=6 ops over distinct objects, mixed read/write.
            let size = 2 + (splitmix64(&mut rng) % 5) as usize;
            let mut objs: Vec<usize> = Vec::new();
            for _ in 0..size {
                let i = (splitmix64(&mut rng) % 8) as usize;
                if !objs.contains(&i) {
                    objs.push(i);
                }
            }
            let writes: Vec<(usize, u8)> = objs
                .iter()
                .map(|&i| (i, (splitmix64(&mut rng) % 251) as u8))
                .collect();
            if splitmix64(&mut rng).is_multiple_of(3) {
                // Read batch: failures are acceptable mid-chaos, wrong or
                // torn data is not.
                let mut bufs = vec![[0u8; 64]; objs.len()];
                let items: Vec<_> = objs
                    .iter()
                    .zip(bufs.iter_mut())
                    .map(|(&i, b)| (ptrs[i], 0u64, &mut b[..]))
                    .collect();
                let result = client.read_batch(items).unwrap();
                for ((&i, buf), r) in objs.iter().zip(&bufs).zip(result.results()) {
                    if r.is_ok() {
                        assert!(
                            buf.iter().all(|&b| b == buf[0]),
                            "seed {seed} round {round}: torn batched read: {buf:?}"
                        );
                        assert!(
                            shadows[i].maybe.contains(&buf[0]),
                            "seed {seed} round {round}: object {i} read {}, \
                             never written ({:?})",
                            buf[0],
                            shadows[i].maybe
                        );
                    }
                }
            } else {
                let payloads: Vec<[u8; 64]> = writes.iter().map(|&(_, v)| [v; 64]).collect();
                let items: Vec<_> = writes
                    .iter()
                    .zip(&payloads)
                    .map(|(&(i, _), d)| (ptrs[i], 0u64, &d[..]))
                    .collect();
                let result = client.write_batch(items).unwrap();
                for (&(i, val), r) in writes.iter().zip(result.results()) {
                    match r {
                        Ok(()) => shadows[i].acked(val),
                        Err(e) => {
                            assert!(
                                !matches!(
                                    e,
                                    GengarError::ProtocolViolation(_)
                                        | GengarError::InvalidAddress(_)
                                ),
                                "seed {seed} round {round}: fault surfaced as a \
                                 protocol bug: {e:?}"
                            );
                            shadows[i].failed(val);
                        }
                    }
                }
            }
        }

        plane.disarm();
        client.drain_all().unwrap();
        for (i, (ptr, shadow)) in ptrs.iter().zip(&shadows).enumerate() {
            let got = read_fill_byte(&mut client, *ptr)
                .unwrap_or_else(|e| panic!("seed {seed}: final read of object {i} failed: {e:?}"));
            shadow.check_final(got, seed, i);
        }
        let mut count_buf = [0u8; 8];
        client.read(counter, 0, &mut count_buf).unwrap();
        let count = u64::from_le_bytes(count_buf);
        assert!(
            count >= acked_adds && count <= tried_adds,
            "seed {seed}: counter {count} outside [{acked_adds}, {tried_adds}]"
        );
        assert!(plane.ops_seen() > 0, "seed {seed}: plane saw no traffic");
    }
}

/// An aggressor tenant hammering through a flapping link, with the QoS
/// plane enabled, must not disturb a victim tenant on the same server:
/// every victim operation succeeds first time and on time, the victim's
/// shadow model settles exactly, and the aggressor's staged writes — the
/// ones that were acknowledged between flaps — are never lost either.
#[test]
fn chaos_qos_aggressor_on_flapping_link_spares_victim() {
    use gengar_core::qos::TenantSpec;
    use gengar_rdma::PartitionFlap;

    arm_flight_recorder();
    for seed in seeds() {
        let plane = Arc::new(FaultPlane::new(seed));
        let mut fabric = FabricConfig::instant();
        fabric.faults = Some(Arc::clone(&plane));
        let mut server_config = chaos_server_config();
        server_config.qos.enabled = true;
        server_config.qos.burst_ratio = 0.5;
        server_config.qos.tenants = vec![TenantSpec {
            name: "aggressor".to_owned(),
            ops_per_sec: 200,
            bytes_per_sec: 0,
            staged_bytes_cap: 4096,
            weight: 1,
        }];
        let cluster = Cluster::launch(1, server_config, fabric).unwrap();

        let mut victim = cluster
            .client(ClientConfig {
                tenant: "victim".to_owned(),
                ..chaos_client_config()
            })
            .unwrap();
        let mut aggressor = cluster
            .client(ClientConfig {
                tenant: "aggressor".to_owned(),
                op_deadline: std::time::Duration::from_millis(300),
                max_retries: 8,
                ..chaos_client_config()
            })
            .unwrap();
        let victim_ptrs: Vec<_> = (0..8).map(|_| victim.alloc(0, 64).unwrap()).collect();
        let aggr_ptrs: Vec<_> = (0..4).map(|_| aggressor.alloc(0, 64).unwrap()).collect();

        // Flap only the aggressor's link; the victim's stays clean.
        let server_node = cluster.server(0).unwrap().node().id();
        plane.add_flap(PartitionFlap::on_link(
            aggressor.node().id(),
            server_node,
            120,
            15,
        ));

        let aggr_thread = std::thread::spawn(move || {
            let mut shadows: Vec<Shadow> = (0..4).map(|_| Shadow::new()).collect();
            let mut rng = seed ^ 0xA99E550;
            for _ in 0..150u32 {
                let i = (splitmix64(&mut rng) % 4) as usize;
                let val = (splitmix64(&mut rng) % 251) as u8;
                match aggressor.write(aggr_ptrs[i], 0, &[val; 64]) {
                    Ok(()) => shadows[i].acked(val),
                    Err(_) => shadows[i].failed(val),
                }
            }
            (aggressor, aggr_ptrs, shadows)
        });

        // The victim settles every op on time while the aggressor churns:
        // its link never faults and its budget is unlimited, so a failure
        // or a stall here is the aggressor's recovery (or throttling)
        // leaking across tenants.
        let mut shadows: Vec<Shadow> = (0..8).map(|_| Shadow::new()).collect();
        let mut rng = seed ^ 0x71C71;
        let t0 = std::time::Instant::now();
        for op in 0..200u32 {
            let i = (splitmix64(&mut rng) % 8) as usize;
            if splitmix64(&mut rng).is_multiple_of(4) {
                let got = read_fill_byte(&mut victim, victim_ptrs[i]).unwrap_or_else(|e| {
                    panic!("seed {seed} op {op}: victim read failed behind the aggressor: {e:?}")
                });
                assert!(
                    shadows[i].maybe.contains(&got),
                    "seed {seed} op {op}: victim object {i} read {got} ({:?})",
                    shadows[i].maybe
                );
            } else {
                let val = (splitmix64(&mut rng) % 251) as u8;
                victim
                    .write(victim_ptrs[i], 0, &[val; 64])
                    .unwrap_or_else(|e| {
                        panic!(
                            "seed {seed} op {op}: victim write failed behind the aggressor: {e:?}"
                        )
                    });
                shadows[i].acked(val);
            }
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "seed {seed}: victim run did not settle on time"
        );

        let (mut aggressor, aggr_ptrs, aggr_shadows) = aggr_thread.join().unwrap();
        plane.disarm();
        victim.drain_all().unwrap();
        aggressor.drain_all().unwrap();
        for (i, (ptr, shadow)) in victim_ptrs.iter().zip(&shadows).enumerate() {
            let got = read_fill_byte(&mut victim, *ptr).unwrap_or_else(|e| {
                panic!("seed {seed}: final victim read of object {i} failed: {e:?}")
            });
            shadow.check_final(got, seed, i);
        }
        // The aggressor's acknowledged staged writes survived the flaps.
        for (i, (ptr, shadow)) in aggr_ptrs.iter().zip(&aggr_shadows).enumerate() {
            let got = read_fill_byte(&mut aggressor, *ptr).unwrap_or_else(|e| {
                panic!("seed {seed}: final aggressor read of object {i} failed: {e:?}")
            });
            shadow.check_final(got, seed, i);
        }
        assert!(plane.ops_seen() > 0, "seed {seed}: plane saw no traffic");
    }
}

/// Chaos server config with primary–backup replication switched on: each
/// primary checks its backup every 5 ms epoch of `ServerConfig::small`.
fn replicated_server_config() -> ServerConfig {
    let mut config = chaos_server_config();
    config.replication.enabled = true;
    config
}

/// Machine death: stop the server's threads and detach its node from the
/// fabric, so peers observe transport errors and re-dials see
/// `NodeNotFound`. Nothing on the dead machine survives.
fn kill_server(cluster: &Cluster, id: u8) {
    let server = cluster.server(id).unwrap();
    server.shutdown();
    cluster.fabric().remove_node(server.node().id());
}

/// Kill the primary mid write-storm: every write acknowledged before the
/// kill (staged to both the primary ring and the mirror) must read back
/// after the client fails over to the replica — zero settled-write loss.
/// The kill is detected by the client itself: transport errors escalate
/// through the reconnect budget into a failover, the replica promotes
/// (replaying un-drained mirror records into its shadow), and the write
/// stream continues against the promoted ward.
#[test]
fn chaos_kill_primary_under_load_loses_no_settled_write() {
    arm_flight_recorder();
    for seed in seeds() {
        let cluster =
            Cluster::launch(2, replicated_server_config(), FabricConfig::instant()).unwrap();
        let config = ClientConfig {
            // A short budget keeps the reconnect→failover escalation well
            // inside one op deadline; the test's clock is virtual-free.
            max_retries: 6,
            op_deadline: std::time::Duration::from_secs(1),
            ..chaos_client_config()
        };
        let mut client = cluster.client(config).unwrap();
        let ptrs: Vec<_> = (0..8).map(|_| client.alloc(0, 64).unwrap()).collect();
        let mut shadows: Vec<Shadow> = (0..8).map(|_| Shadow::new()).collect();
        let mut post_kill_acks = 0u32;

        let mut rng = seed ^ 0x5EC0_17D0;
        for op in 0..200u32 {
            if op == 100 {
                kill_server(&cluster, 0);
            }
            let i = (splitmix64(&mut rng) % 8) as usize;
            let val = (splitmix64(&mut rng) % 251) as u8;
            match client.write(ptrs[i], 0, &[val; 64]) {
                Ok(()) => {
                    shadows[i].acked(val);
                    if op >= 100 {
                        post_kill_acks += 1;
                    }
                }
                Err(e) => {
                    assert!(
                        !matches!(
                            e,
                            GengarError::ProtocolViolation(_) | GengarError::InvalidAddress(_)
                        ),
                        "seed {seed} op {op}: machine loss surfaced as a protocol bug: {e:?}"
                    );
                    shadows[i].failed(val);
                }
            }
        }

        client.drain_all().unwrap();
        for (i, (ptr, shadow)) in ptrs.iter().zip(&shadows).enumerate() {
            let got = read_fill_byte(&mut client, *ptr).unwrap_or_else(|e| {
                panic!("seed {seed}: final read of object {i} after failover failed: {e:?}")
            });
            shadow.check_final(got, seed, i);
        }
        let stats = client.stats();
        assert!(
            stats.failovers >= 1,
            "seed {seed}: primary death never escalated to a failover"
        );
        assert!(
            cluster.server(1).unwrap().has_promoted(0),
            "seed {seed}: replica never promoted the dead primary's ward"
        );
        assert!(
            post_kill_acks > 0,
            "seed {seed}: no write ever succeeded against the promoted replica"
        );
    }
}

/// Kill the *backup* mid-run: the primary write path must not so much as
/// hiccup (every write keeps succeeding first time), the rebalance plane
/// must re-point the primary at the next live survivor — seeding its
/// shadow with the primary's settled image — and the client must re-mirror
/// onto it in the background. The new replica is then proven real: the
/// primary is killed too, and every settled write (including one staged
/// *before* the backup died, which only the seeded image can supply) reads
/// back through the second-generation replica.
#[test]
fn chaos_kill_backup_primary_undisturbed_and_rebalanced() {
    arm_flight_recorder();
    for seed in seeds() {
        // Ring on 3 servers: 0 → 1 → 2 → 0. Killing server 1 orphans
        // server 0's mirror; server 2 is the only live replacement.
        let cluster =
            Cluster::launch(3, replicated_server_config(), FabricConfig::instant()).unwrap();
        let config = ClientConfig {
            max_retries: 6,
            op_deadline: std::time::Duration::from_secs(1),
            ..chaos_client_config()
        };
        let mut client = cluster.client(config).unwrap();
        let ptrs: Vec<_> = (0..8).map(|_| client.alloc(0, 64).unwrap()).collect();
        let mut shadows: Vec<Shadow> = (0..8).map(|_| Shadow::new()).collect();

        // Warmup: one settled write per object, fully drained into the
        // primary's NVM. Object 7 is never written again — after the
        // backup dies, its bytes can only reach the new replica through
        // the rebalance plane's image seeding.
        let mut rng = seed ^ 0xBAC0_FF5E;
        for (i, ptr) in ptrs.iter().enumerate() {
            let val = 1 + (splitmix64(&mut rng) % 250) as u8;
            client.write(*ptr, 0, &[val; 64]).unwrap();
            shadows[i].acked(val);
        }
        client.drain_all().unwrap();

        kill_server(&cluster, 1);

        // The primary path must be undisturbed by its replica's death:
        // the mirror lane is shed on the first failed WR and writes keep
        // acknowledging on the primary alone, first time, every time.
        for op in 0..60u32 {
            let i = (splitmix64(&mut rng) % 7) as usize;
            let val = 1 + (splitmix64(&mut rng) % 250) as u8;
            client.write(ptrs[i], 0, &[val; 64]).unwrap_or_else(|e| {
                panic!("seed {seed} op {op}: backup death disturbed the primary path: {e:?}")
            });
            shadows[i].acked(val);
        }

        // Rebalance re-points server 0 at server 2 (the ring already had
        // one mirror there for server 1's ward, hence >= 2), and the
        // client's background re-mirror dials the new lane. Writes keep
        // flowing so the re-mirror probe actually runs.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let val = 1 + (splitmix64(&mut rng) % 250) as u8;
            client.write(ptrs[0], 0, &[val; 64]).unwrap();
            shadows[0].acked(val);
            if cluster.server(0).unwrap().backup_id() == 2
                && cluster.server(2).unwrap().mirror_count() >= 2
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "seed {seed}: new backup never re-established (backup_id={}, mirrors={})",
                cluster.server(0).unwrap().backup_id(),
                cluster.server(2).unwrap().mirror_count()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let stats = client.stats();
        assert_eq!(
            stats.failovers, 0,
            "seed {seed}: a backup death must never trigger a failover"
        );

        // Overwrite objects 0..=6 on the re-established mirror, then kill
        // the primary: the promotion on server 2 must serve the fresh
        // values from its mirror ring and object 7's warmup value from
        // the seeded shadow image.
        for (i, ptr) in ptrs.iter().enumerate().take(7) {
            let val = 1 + (splitmix64(&mut rng) % 250) as u8;
            client.write(*ptr, 0, &[val; 64]).unwrap();
            shadows[i].acked(val);
        }
        kill_server(&cluster, 0);
        for _ in 0..40u32 {
            let i = (splitmix64(&mut rng) % 7) as usize;
            let val = 1 + (splitmix64(&mut rng) % 250) as u8;
            match client.write(ptrs[i], 0, &[val; 64]) {
                Ok(()) => shadows[i].acked(val),
                Err(_) => shadows[i].failed(val),
            }
        }

        client.drain_all().unwrap();
        for (i, (ptr, shadow)) in ptrs.iter().zip(&shadows).enumerate() {
            let got = read_fill_byte(&mut client, *ptr).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: final read of object {i} via the second-generation \
                     replica failed: {e:?}"
                )
            });
            shadow.check_final(got, seed, i);
        }
        assert!(
            client.stats().failovers >= 1,
            "seed {seed}: primary death never escalated to a failover"
        );
        assert!(
            cluster.server(2).unwrap().has_promoted(0),
            "seed {seed}: the rebalanced replica never promoted the dead primary's ward"
        );
    }
}

/// Cached reads across a failover: a client that has learned remap
/// entries (hot objects served from the primary's DRAM cache) must ride
/// the primary's death with zero wrong reads. The first post-kill read
/// discovers the dead machine through the cached path, escalates into the
/// failover, and from then on every object — the cached one included —
/// serves its settled bytes from the promoted shadow. The failover must
/// also drop every remap entry pointing at the dead primary's DRAM: the
/// replica holds no cache slots for the ward, so a surviving entry would
/// be a read of unmapped memory on the next promotion of that address.
#[test]
fn chaos_kill_primary_cached_reads_stay_coherent() {
    arm_flight_recorder();
    for seed in seeds() {
        let cluster =
            Cluster::launch(2, replicated_server_config(), FabricConfig::instant()).unwrap();
        let config = ClientConfig {
            // Reports ON (unlike the rest of the suite): the cache plane
            // is the subject, and remaps only arrive in report mailboxes.
            report_every: 8,
            max_retries: 6,
            op_deadline: std::time::Duration::from_secs(1),
            ..Default::default()
        };
        let mut client = cluster.client(config).unwrap();
        let ptrs: Vec<_> = (0..4).map(|_| client.alloc(0, 64).unwrap()).collect();
        let mut rng = seed ^ 0x0CAC_4ED0;
        let vals: Vec<u8> = ptrs
            .iter()
            .map(|_| 1 + (splitmix64(&mut rng) % 250) as u8)
            .collect();
        for (ptr, &val) in ptrs.iter().zip(&vals) {
            client.write(*ptr, 0, &[val; 64]).unwrap();
        }
        client.drain_all().unwrap();

        // Heat object 0 until the client holds its remap entry and reads
        // actually hit the primary's DRAM cache.
        let mut buf = [0u8; 64];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while client.stats().cache_hits == 0 || client.remap_entries() == 0 {
            client.read(ptrs[0], 0, &mut buf).unwrap();
            assert!(
                std::time::Instant::now() < deadline,
                "seed {seed}: object 0 never promoted into the cache: {:?}",
                client.stats()
            );
        }
        assert!(
            buf.iter().all(|&b| b == vals[0]),
            "seed {seed}: cached read served wrong bytes before the kill: {buf:?}"
        );

        kill_server(&cluster, 0);

        // Every read after the kill returns the settled bytes. The first
        // one walks the stale remap into the dead machine and must come
        // back through the failover, not as an error or stale data.
        for (i, (ptr, &val)) in ptrs.iter().zip(&vals).enumerate() {
            let got = read_fill_byte(&mut client, *ptr).unwrap_or_else(|e| {
                panic!("seed {seed}: read of object {i} after the kill failed: {e:?}")
            });
            assert_eq!(
                got, val,
                "seed {seed}: object {i} lost its settled bytes across the cached failover"
            );
        }
        assert!(
            client.stats().failovers >= 1,
            "seed {seed}: the cached read path never escalated to a failover"
        );
        assert!(
            cluster.server(1).unwrap().has_promoted(0),
            "seed {seed}: replica never promoted the dead primary's ward"
        );
        assert_eq!(
            client.remap_entries(),
            0,
            "seed {seed}: failover left remap entries pointing at the dead primary's DRAM"
        );

        // The promoted ward keeps serving coherent bytes under continued
        // hammering — and the report plane must not re-engage against the
        // replica (its cache would alias the ward's addresses onto its own
        // NVM), so the remap table stays empty for the redirected server.
        for round in 0..100u32 {
            let got = read_fill_byte(&mut client, ptrs[0]).unwrap_or_else(|e| {
                panic!("seed {seed} round {round}: post-failover read failed: {e:?}")
            });
            assert_eq!(
                got, vals[0],
                "seed {seed} round {round}: post-failover read went stale"
            );
        }
        assert_eq!(
            client.remap_entries(),
            0,
            "seed {seed}: the promoted ward handed out remaps for addresses it cannot cache"
        );
    }
}

/// A staging ring that eats every record (drops on the WRITE_WITH_IMM
/// path) degrades the connection: writes fall back to the direct NVM path,
/// still land, and the degradation is visible in the stats.
#[test]
fn degraded_mode_survives_a_dead_staging_ring() {
    arm_flight_recorder();
    let (cluster, plane) = chaos_cluster("drop:imm=1", 9);
    let config = ClientConfig {
        report_every: u32::MAX,
        // Keep the threshold's worth of staged-write timeouts quick.
        op_deadline: std::time::Duration::from_millis(500),
        staging_fault_threshold: 2,
        ..Default::default()
    };
    let mut client = cluster.client(config).unwrap();
    let ptr = client.alloc(0, 64).unwrap();

    // Every staged attempt is dropped; after the threshold the connection
    // degrades and the write completes via the direct path.
    client.write(ptr, 0, &[0x5Au8; 64]).unwrap();
    assert!(client.is_degraded(0).unwrap());
    let stats = client.stats();
    assert!(stats.degraded_ops > 0 || stats.direct_writes > 0);
    assert!(stats.retries > 0, "drops should surface as retries");

    // Degraded mode persists (and keeps working) until a reconnect heals
    // the ring — reads see the directly-written data immediately.
    client.write(ptr, 0, &[0x5Bu8; 64]).unwrap();
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x5B));
    plane.disarm();
}

/// Un-drained staged writes at crash time are replayed by recovery — and
/// the count is reported, never silently dropped. The server is stopped
/// *before* the writes so none of them can drain: recovery must replay
/// exactly that many records.
#[test]
fn crash_mid_drain_replays_every_undrained_record() {
    arm_flight_recorder();
    let cluster = Cluster::launch(1, chaos_server_config(), FabricConfig::instant()).unwrap();
    let mut client = cluster.client(chaos_client_config()).unwrap();
    let ptrs: Vec<_> = (0..8).map(|_| client.alloc(0, 64).unwrap()).collect();

    // Stop the server loop, then stage one write per object. Staging is
    // one-sided so the writes are acknowledged (durably parked in the ADR
    // ring) even though nothing serves them.
    let server = cluster.server(0).unwrap();
    server.shutdown();
    for (i, ptr) in ptrs.iter().enumerate() {
        client.write(*ptr, 0, &[i as u8 + 1; 64]).unwrap();
    }

    server.crash().unwrap();
    let replayed = server.recover().unwrap();
    assert_eq!(
        replayed,
        ptrs.len() as u64,
        "every staged-but-undrained record must be replayed"
    );
    server.restart();

    let mut reader = cluster.client(chaos_client_config()).unwrap();
    for (i, ptr) in ptrs.iter().enumerate() {
        let mut buf = [0u8; 64];
        reader.read(*ptr, 0, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == i as u8 + 1),
            "object {i} lost its acked write after replay: {buf:?}"
        );
    }
}

/// Failed reconnect handshakes hand their client ids back: a client
/// re-dialling through a partition for longer than `max_clients` attempts
/// must still get a working connection once the link heals.
#[test]
fn reconnect_storm_does_not_exhaust_client_ids() {
    arm_flight_recorder();
    let mut server_config = ServerConfig::small();
    server_config.max_clients = 4;
    let cluster = Cluster::launch(1, server_config, FabricConfig::instant()).unwrap();
    let config = ClientConfig {
        report_every: u32::MAX,
        op_deadline: std::time::Duration::from_millis(200),
        max_retries: 8,
        ..Default::default()
    };
    let mut client = cluster.client(config).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[1u8; 64]).unwrap();

    let link = (client.node().id(), cluster.server(0).unwrap().node().id());
    cluster.fabric().partition(link.0, link.1, true);
    // Each failed operation burns several reconnect attempts; far more in
    // total than max_clients. Without id recycling the server would be
    // permanently full before the partition heals.
    for _ in 0..6 {
        assert!(client.write(ptr, 0, &[2u8; 64]).is_err());
    }
    cluster.fabric().partition(link.0, link.1, false);

    client.write(ptr, 0, &[3u8; 64]).unwrap();
    assert!(client.stats().reconnects > 0);
    let mut buf = [0u8; 64];
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 3));
    // And the pool still has room for a genuinely new client.
    let mut fresh = cluster.client(chaos_client_config()).unwrap();
    fresh.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 3));
}

/// The flight recorder fires by itself when the fault plane injects a
/// fault: no assertion has to fail first. The armed latch is process-wide
/// and one-shot (a concurrently running chaos test can legitimately
/// consume it with its own injected fault), so the loop re-arms and
/// asserts on the monotonic dump counter rather than a single latch win.
#[test]
fn flight_recorder_dumps_on_injected_fault() {
    arm_flight_recorder();
    let recorder = FlightRecorder::global();
    let dumps_before = recorder.dumps();
    // Drop every staged record: each write injects at least one fault.
    let (cluster, plane) = chaos_cluster("drop:imm=1", 5);
    let config = ClientConfig {
        op_deadline: std::time::Duration::from_millis(200),
        staging_fault_threshold: 2,
        ..chaos_client_config()
    };
    let mut client = cluster.client(config).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    for round in 0..20u8 {
        recorder.arm();
        let _ = client.write(ptr, 0, &[round; 64]);
        if recorder.dumps() > dumps_before {
            break;
        }
    }
    plane.disarm();
    assert!(
        recorder.dumps() > dumps_before,
        "injected drops never auto-dumped the flight recorder"
    );
    let dump = recorder.last_dump().expect("dump path recorded");
    let text = std::fs::read_to_string(&dump).expect("dump file readable");
    assert!(
        text.contains("traceEvents"),
        "flight dump is not Chrome trace JSON"
    );
}

/// One faulty server in a four-server pool: drops, transport errors, RNR
/// exhaustion and a partition flap are pinned to the client ↔ server-0
/// link while every batch fans out across all four servers concurrently.
/// The reactor must keep group 0's recovery from leaking into the healthy
/// groups — every op on servers 1–3 settles first time, even while group
/// 0 is mid-retry or mid-reconnect — and once the plane disarms the
/// shadow model must hold on every server.
#[test]
fn chaos_one_faulty_server_stalls_only_its_group() {
    use gengar_rdma::{FaultRule, PartitionFlap, WcStatus};

    arm_flight_recorder();
    for seed in seeds() {
        let plane = Arc::new(FaultPlane::new(seed));
        let mut fabric = FabricConfig::instant();
        fabric.faults = Some(Arc::clone(&plane));
        let cluster = Cluster::launch(4, chaos_server_config(), fabric).unwrap();
        let mut client = cluster.client(chaos_client_config()).unwrap();
        // Four objects per server; object i lives on server i % 4.
        let ptrs: Vec<_> = (0..16)
            .map(|i| client.alloc((i % 4) as u8, 64).unwrap())
            .collect();
        let mut shadows: Vec<Shadow> = (0..16).map(|_| Shadow::new()).collect();

        // Arm the faults only now (dial and allocs run clean) and only on
        // the one link.
        let me = client.node().id();
        let faulty = cluster.server(0).unwrap().node().id();
        plane.add_rule(FaultRule::drop_op().probability(0.15).link(me, faulty));
        plane.add_rule(
            FaultRule::error(WcStatus::TransportError)
                .probability(0.05)
                .link(me, faulty),
        );
        plane.add_rule(FaultRule::rnr().probability(0.02).link(me, faulty));
        plane.add_flap(PartitionFlap::on_link(me, faulty, 150, 20));

        let mut rng = seed ^ 0x0FA017;
        for round in 0..50u32 {
            // Every batch covers one object per server, so all four
            // groups are in flight together every round.
            let objs: Vec<usize> = (0..4)
                .map(|s| s + 4 * (splitmix64(&mut rng) % 4) as usize)
                .collect();
            if splitmix64(&mut rng).is_multiple_of(3) {
                let mut bufs = vec![[0u8; 64]; objs.len()];
                let items: Vec<_> = objs
                    .iter()
                    .zip(bufs.iter_mut())
                    .map(|(&i, b)| (ptrs[i], 0u64, &mut b[..]))
                    .collect();
                let result = client.read_batch(items).unwrap();
                for ((&i, buf), r) in objs.iter().zip(&bufs).zip(result.results()) {
                    if i % 4 != 0 {
                        assert!(
                            r.is_ok(),
                            "seed {seed} round {round}: healthy-server read of \
                             object {i} stalled behind the faulty group: {r:?}"
                        );
                    }
                    if r.is_ok() {
                        assert!(
                            shadows[i].maybe.contains(&buf[0]),
                            "seed {seed} round {round}: object {i} read {}, \
                             never written ({:?})",
                            buf[0],
                            shadows[i].maybe
                        );
                    }
                }
            } else {
                let vals: Vec<u8> = objs
                    .iter()
                    .map(|_| (splitmix64(&mut rng) % 251) as u8)
                    .collect();
                let payloads: Vec<[u8; 64]> = vals.iter().map(|&v| [v; 64]).collect();
                let items: Vec<_> = objs
                    .iter()
                    .zip(&payloads)
                    .map(|(&i, d)| (ptrs[i], 0u64, &d[..]))
                    .collect();
                let result = client.write_batch(items).unwrap();
                for ((&i, &val), r) in objs.iter().zip(&vals).zip(result.results()) {
                    match r {
                        Ok(()) => shadows[i].acked(val),
                        Err(e) => {
                            assert!(
                                i % 4 == 0,
                                "seed {seed} round {round}: healthy-server write of \
                                 object {i} failed behind the faulty group: {e:?}"
                            );
                            shadows[i].failed(val);
                        }
                    }
                }
            }
        }

        plane.disarm();
        client.drain_all().unwrap();
        for (i, (ptr, shadow)) in ptrs.iter().zip(&shadows).enumerate() {
            let got = read_fill_byte(&mut client, *ptr)
                .unwrap_or_else(|e| panic!("seed {seed}: final read of object {i} failed: {e:?}"));
            shadow.check_final(got, seed, i);
        }
        assert!(plane.ops_seen() > 0, "seed {seed}: plane saw no traffic");
    }
}
