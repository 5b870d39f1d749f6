//! Live health plane over a running cluster: the `Inspect` RPC serves a
//! versioned document with component states and windowed series, and the
//! component state machines ride a flapping link from `Healthy` through
//! `Degraded`/`Critical` and back to `Healthy` once the link recovers.
//!
//! These tests live in their own binary on purpose: the health plane
//! samples the process-wide telemetry registry, so retries produced by
//! unrelated tests in the same process would bleed into the windows.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, HealthConfig, ServerConfig};
use gengar_core::HealthState;
use gengar_rdma::{FabricConfig, FaultPlane, PartitionFlap};
use gengar_telemetry::json_field_str;

/// The health plane on a test timeline: 10 ms ticks, the plane's own
/// thresholds and hysteresis. Windows are ~10 ms, so rates carry a ~100x
/// multiplier: one retry in a window already reads as a lossy link, fifty
/// as a storm.
fn test_health() -> HealthConfig {
    HealthConfig {
        enabled: true,
        tick: Duration::from_millis(10),
    }
}

fn health_cluster() -> (Cluster, Arc<FaultPlane>) {
    let plane = Arc::new(FaultPlane::new(7));
    let mut fabric = FabricConfig::instant();
    fabric.faults = Some(Arc::clone(&plane));
    let mut config = ServerConfig::small();
    config.health = test_health();
    let cluster = Cluster::launch(1, config, fabric).expect("cluster launch");
    (cluster, plane)
}

fn client_config() -> ClientConfig {
    ClientConfig {
        report_every: u32::MAX,
        op_deadline: Duration::from_millis(500),
        max_retries: 8,
        ..Default::default()
    }
}

#[test]
fn inspect_rpc_serves_live_health_and_windows() {
    let (cluster, _plane) = health_cluster();
    let mut client = cluster.client(client_config()).expect("client");
    let ptr = client.alloc(0, 128).expect("alloc");

    // Generate traffic across a few tick intervals so the ring holds
    // non-empty windows with real op series.
    let plane = cluster.health_plane().expect("health plane on").clone();
    let deadline = Instant::now() + Duration::from_secs(10);
    while plane.ticks() < 5 {
        for i in 0..64u8 {
            client.write(ptr, 0, &[i; 128]).expect("write");
            let mut buf = [0u8; 128];
            client.read(ptr, 0, &mut buf).expect("read");
        }
        assert!(Instant::now() < deadline, "health plane never ticked");
    }

    let doc = client.inspect(0).expect("inspect rpc");
    assert!(doc.len() <= gengar_core::proto::MAX_INSPECT_JSON);
    assert!(doc.contains("\"v\":1"), "unversioned doc: {doc}");
    assert!(doc.contains("\"server\":0"), "wrong server: {doc}");
    let overall = json_field_str(&doc, 0, "overall").expect("overall field");
    assert!(
        ["healthy", "degraded", "critical"].contains(&overall),
        "unknown overall state {overall:?}"
    );
    for component in ["proxy_ring", "drain", "replication", "qos", "clients"] {
        assert!(
            doc.contains(&format!("\"{component}\"")),
            "missing component {component}: {doc}"
        );
    }
    // Windowed series made it across the wire: at least one window digest
    // with an op count (the traffic above guarantees a non-idle window).
    assert!(doc.contains("\"windows\":["), "no window series: {doc}");
    assert!(
        doc.contains("\"ops\":"),
        "windows carry no op series: {doc}"
    );
    assert!(doc.contains("\"slo\":["), "no slo section: {doc}");

    // The JSON is at least structurally balanced.
    let opens = doc.matches('{').count();
    let closes = doc.matches('}').count();
    assert_eq!(opens, closes, "unbalanced inspect doc: {doc}");
}

#[test]
fn flapping_link_degrades_then_recovers() {
    let (cluster, plane) = health_cluster();
    let mut client = cluster.client(client_config()).expect("client");
    let ptr = client.alloc(0, 64).expect("alloc");
    let health = cluster.health_plane().expect("health plane on").clone();
    let clients_state = || {
        health
            .components()
            .into_iter()
            .find(|(name, _)| *name == "clients")
            .map(|(_, s)| s)
            .expect("clients component")
    };

    // Baseline: clean traffic, the clients component reports Healthy.
    for i in 0..32u8 {
        client.write(ptr, 0, &[i; 64]).expect("clean write");
    }
    assert_eq!(health.overall(), HealthState::Healthy);

    // Flap the client<->server link so every burst of ops eats retries.
    let link = (client.node().id(), cluster.server(0).unwrap().node().id());
    plane.add_flap(PartitionFlap::on_link(link.0, link.1, 40, 10));

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        for i in 0..32u8 {
            let _ = client.write(ptr, 0, &[i; 64]);
        }
        if clients_state() >= HealthState::Degraded {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "flapping link never degraded the clients component: {:?}",
            health.components()
        );
    }
    assert!(health.overall() >= HealthState::Degraded);

    // Recovery: disarm the faults and keep clean traffic flowing. The
    // component steps down one level per run of clean windows, so one
    // that reached Critical passes through Degraded on its way to Healthy.
    // Only `clients` is watched: each burst of 16 staged writes uses up
    // the client's view of its 16-slot ring before it re-reads the drained
    // watermark, which counts as a ring-full wait even when the drain has
    // kept up, so `proxy_ring` degrades on this traffic alone.
    plane.disarm();
    let mut seen = vec![clients_state()];
    let deadline = Instant::now() + Duration::from_secs(30);
    while seen.last() != Some(&HealthState::Healthy) {
        for i in 0..16u8 {
            client.write(ptr, 0, &[i; 64]).expect("post-recovery write");
        }
        let now = clients_state();
        if seen.last() != Some(&now) {
            seen.push(now);
        }
        assert!(
            Instant::now() < deadline,
            "the clients component never recovered after the flap stopped: went {seen:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    if let Some(i) = seen.iter().rposition(|&s| s == HealthState::Critical) {
        assert_eq!(
            seen.get(i + 1),
            Some(&HealthState::Degraded),
            "Critical must step down through Degraded: {seen:?}"
        );
    }
}
