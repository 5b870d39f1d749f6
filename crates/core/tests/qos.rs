//! End-to-end tests of the multi-tenant QoS plane: tenant identity riding
//! the handshake, issue-gate pacing against a live cluster, and session
//! bookkeeping through failed-handshake storms.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, ServerConfig};
use gengar_core::qos::TenantSpec;
use gengar_rdma::FabricConfig;

fn qos_server_config(tenants: Vec<TenantSpec>, burst_ratio: f64) -> ServerConfig {
    let mut config = ServerConfig::small();
    config.qos.enabled = true;
    config.qos.burst_ratio = burst_ratio;
    config.qos.tenants = tenants;
    config
}

fn tenant_client_config(tenant: &str) -> ClientConfig {
    ClientConfig {
        tenant: tenant.to_owned(),
        report_every: u32::MAX,
        ..Default::default()
    }
}

/// A tenant with an ops/s budget is paced by the issue gate — the run
/// takes at least the token-bucket lower bound — while an unlimited
/// tenant on the same cluster is untouched and both complete correctly.
#[test]
fn capped_tenant_is_paced_unlimited_tenant_is_not() {
    gengar_hybridmem::set_time_scale(1.0);
    let spec = TenantSpec {
        name: "capped".to_owned(),
        ops_per_sec: 400,
        bytes_per_sec: 0,
        staged_bytes_cap: 0,
        weight: 1,
    };
    // burst 0.5 => 200 tokens of headroom on a 400/s budget.
    let cluster = Cluster::launch(
        1,
        qos_server_config(vec![spec], 0.5),
        FabricConfig::instant(),
    )
    .expect("launch");

    let mut free = cluster.client(tenant_client_config("roomy")).unwrap();
    let free_ptr = free.alloc(0, 64).unwrap();
    let mut capped = cluster.client(tenant_client_config("capped")).unwrap();
    let capped_ptr = capped.alloc(0, 64).unwrap();

    // The unlimited tenant is never parked.
    for i in 0..300u32 {
        free.write(free_ptr, 0, &[(i % 251) as u8; 64]).unwrap();
    }

    // 300 ops against burst 200 at 400/s: at least 100 ops must wait for
    // refill, so the loop cannot finish faster than 100/400 = 250 ms.
    let t0 = Instant::now();
    for i in 0..300u32 {
        capped.write(capped_ptr, 0, &[(i % 251) as u8; 64]).unwrap();
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(200),
        "capped tenant finished in {elapsed:?}: the issue gate never paced it"
    );

    // Both tenants' data is intact despite the pacing.
    capped.drain_all().unwrap();
    free.drain_all().unwrap();
    let mut buf = [0u8; 64];
    capped.read(capped_ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == (299 % 251) as u8));

    let plane = cluster.qos_plane().expect("qos enabled");
    let mut tenants = plane.tenants();
    tenants.sort();
    assert_eq!(tenants, vec!["capped".to_owned(), "roomy".to_owned()]);
}

/// A bandwidth budget paces by payload bytes: few large writes trip the
/// gate even when the op budget would never notice them.
#[test]
fn bandwidth_budget_paces_large_writes() {
    gengar_hybridmem::set_time_scale(1.0);
    let spec = TenantSpec {
        name: "bulk".to_owned(),
        ops_per_sec: 0,
        bytes_per_sec: 4 << 20, // 4 MiB per simulated second
        staged_bytes_cap: 0,
        weight: 1,
    };
    let cluster = Cluster::launch(
        1,
        qos_server_config(vec![spec], 0.25),
        FabricConfig::instant(),
    )
    .expect("launch");
    let mut client = cluster.client(tenant_client_config("bulk")).unwrap();
    let ptr = client.alloc(0, 256 << 10).unwrap();
    let payload = vec![0xABu8; 256 << 10];

    // 8 x 256 KiB = 2 MiB against burst 1 MiB at 4 MiB/s: at least 1 MiB
    // must wait for refill => >= 250 ms.
    let t0 = Instant::now();
    for _ in 0..8 {
        client.write(ptr, 0, &payload).unwrap();
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(200),
        "bulk tenant finished in {elapsed:?}: bytes budget never paced it"
    );
    client.drain_all().unwrap();
    let mut buf = vec![0u8; 256 << 10];
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0xAB));
}

/// Runs `f` on its own thread and returns its result, failing the test if
/// it is still blocked after 10 s instead of hanging the suite.
fn within_10s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still blocked after 10 s"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: panicked"),
    }
}

/// A charge larger than the tenant's whole burst is admitted once the
/// budget is full and pays for itself by delaying what follows, instead of
/// parking forever: a 512 KiB write against a 256 KiB byte burst, and a
/// 16-write window against an 8-op burst.
#[test]
fn charges_larger_than_the_burst_are_admitted_and_paid_for() {
    gengar_hybridmem::set_time_scale(1.0);
    let second_write = within_10s("512 KiB write against a 256 KiB burst", || {
        let spec = TenantSpec {
            name: "bulk".to_owned(),
            ops_per_sec: 0,
            bytes_per_sec: 1 << 20,
            staged_bytes_cap: 0,
            weight: 1,
        };
        let cluster = Cluster::launch(
            1,
            qos_server_config(vec![spec], 0.25),
            FabricConfig::instant(),
        )
        .expect("launch");
        let mut client = cluster.client(tenant_client_config("bulk")).unwrap();
        let ptr = client.alloc(0, 512 << 10).unwrap();
        let payload = vec![0x5Au8; 512 << 10];
        client.write(ptr, 0, &payload).unwrap();
        let t0 = Instant::now();
        client.write(ptr, 0, &payload).unwrap();
        t0.elapsed()
    });
    // The first write overdrew the budget by 256 KiB at 1 MiB/s: the
    // second waits out ~250 ms of debt before its own charge admits.
    assert!(
        second_write >= Duration::from_millis(200),
        "second 512 KiB write took {second_write:?}: the overdraft was never paid"
    );

    within_10s("16-write window against an 8-op burst", || {
        let spec = TenantSpec {
            name: "chatty".to_owned(),
            ops_per_sec: 4,
            bytes_per_sec: 0,
            staged_bytes_cap: 0,
            weight: 1,
        };
        let cluster = Cluster::launch(
            1,
            qos_server_config(vec![spec], 2.0),
            FabricConfig::instant(),
        )
        .expect("launch");
        let mut client = cluster.client(tenant_client_config("chatty")).unwrap();
        let ptrs: Vec<_> = (0..16).map(|_| client.alloc(0, 64).unwrap()).collect();
        let payload = [0xC3u8; 64];
        let items = ptrs.iter().map(|&p| (p, 0u64, &payload[..])).collect();
        assert!(client.write_batch(items).unwrap().all_ok());
    });
}

/// A weight-4 tenant pays a quarter of the charge: at identical limits it
/// moves the same work in roughly a quarter of the paced time.
#[test]
fn weights_scale_the_fair_share() {
    gengar_hybridmem::set_time_scale(1.0);
    let mk = |name: &str, weight: u32| TenantSpec {
        name: name.to_owned(),
        ops_per_sec: 400,
        bytes_per_sec: 0,
        staged_bytes_cap: 0,
        weight,
    };
    let cluster = Cluster::launch(
        1,
        qos_server_config(vec![mk("light", 1), mk("heavy", 4)], 0.5),
        FabricConfig::instant(),
    )
    .expect("launch");

    let paced_run = |tenant: &str| {
        let mut client = cluster.client(tenant_client_config(tenant)).unwrap();
        let ptr = client.alloc(0, 64).unwrap();
        let t0 = Instant::now();
        for i in 0..400u32 {
            client.write(ptr, 0, &[(i % 251) as u8; 64]).unwrap();
        }
        t0.elapsed()
    };
    // light: 400 ops, burst 200, rate 400/s => >= 500 ms.
    // heavy (weight 4): effective charge 100 ops => fits the burst, fast.
    let light = paced_run("light");
    let heavy = paced_run("heavy");
    assert!(
        light >= Duration::from_millis(400),
        "weight-1 tenant finished in {light:?}: pacing lower bound violated"
    );
    assert!(
        heavy < light,
        "weight-4 tenant ({heavy:?}) was not faster than weight-1 ({light:?})"
    );
}

/// Failed-handshake storms (re-dials through a partition) release their
/// QoS sessions: after the link heals the tenant has a bounded session
/// count instead of one per burned handshake.
#[test]
fn failed_handshake_storm_releases_tenant_sessions() {
    gengar_hybridmem::set_time_scale(1.0);
    let mut server_config = qos_server_config(Vec::new(), 2.0);
    server_config.max_clients = 4;
    let cluster = Cluster::launch(1, server_config, FabricConfig::instant()).expect("launch");
    let config = ClientConfig {
        op_deadline: Duration::from_millis(200),
        max_retries: 8,
        ..tenant_client_config("storm")
    };
    let mut client = cluster.client(config).unwrap();
    let ptr = client.alloc(0, 64).unwrap();
    client.write(ptr, 0, &[1u8; 64]).unwrap();

    let plane = cluster.qos_plane().expect("qos enabled").clone();
    let storm = plane.handle("storm");
    assert_eq!(storm.sessions(), 1, "one live session after connect");

    let link = (client.node().id(), cluster.server(0).unwrap().node().id());
    cluster.fabric().partition(link.0, link.1, true);
    // Each failed op burns several reconnect handshakes — far more in
    // total than max_clients. Every one of them must hand its session
    // back along with its client id.
    for _ in 0..6 {
        assert!(client.write(ptr, 0, &[2u8; 64]).is_err());
    }
    cluster.fabric().partition(link.0, link.1, false);

    client.write(ptr, 0, &[3u8; 64]).unwrap();
    // The original session plus at most one successful re-mount: the
    // storm's dead handshakes all released theirs.
    assert!(
        storm.sessions() <= 2,
        "storm leaked sessions: {} live after one reconnect",
        storm.sessions()
    );
    assert!(plane.tenants().contains(&"storm".to_owned()));
}

/// An accept that fails after the server claimed a client id and a QoS
/// session hands both back: more such failures in a row than `max_clients`
/// leave the server mountable and the tenant's session count where it was.
#[test]
fn failed_accepts_release_client_ids_and_sessions() {
    let mut server_config = qos_server_config(Vec::new(), 2.0);
    server_config.max_clients = 4;
    let cluster = Cluster::launch(1, server_config, FabricConfig::instant()).expect("launch");
    let _live = cluster.client(tenant_client_config("storm")).unwrap();
    let plane = cluster.qos_plane().expect("qos enabled").clone();
    let storm = plane.handle("storm");
    assert_eq!(storm.sessions(), 1);

    // A client machine that died mid-dial: its node has left the fabric, so
    // the server-side QP connect is refused — after the id is claimed.
    let ghost = cluster.fabric().add_node();
    let ghost_pd = ghost.alloc_pd();
    cluster.fabric().remove_node(ghost.id());
    let server = cluster.server(0).unwrap();
    for _ in 0..=server.config().max_clients {
        assert!(server.accept(&ghost, &ghost_pd).is_err());
    }
    assert_eq!(storm.sessions(), 1, "failed accepts changed live sessions");

    let mut fresh = cluster.client(tenant_client_config("storm")).unwrap();
    assert_eq!(storm.sessions(), 2);
    let ptr = fresh.alloc(0, 64).unwrap();
    fresh.write(ptr, 0, &[7u8; 64]).unwrap();
}

/// A staged-bytes cap sheds oversized batches to the direct path instead
/// of wedging: writes larger than the cap still land and are readable.
#[test]
fn staged_cap_sheds_oversize_writes_to_direct_path() {
    gengar_hybridmem::set_time_scale(1.0);
    let spec = TenantSpec {
        name: "tiny-ring".to_owned(),
        ops_per_sec: 0,
        bytes_per_sec: 0,
        staged_bytes_cap: 128, // smaller than one 256-byte payload
        weight: 1,
    };
    let cluster = Cluster::launch(
        1,
        qos_server_config(vec![spec], 2.0),
        FabricConfig::instant(),
    )
    .expect("launch");
    let mut client = cluster.client(tenant_client_config("tiny-ring")).unwrap();
    let ptr = client.alloc(0, 256).unwrap();
    // 256 bytes can never fit a 128-byte staged budget: the write must
    // shed to the direct path, not park forever.
    client.write(ptr, 0, &[0x7Du8; 256]).unwrap();
    let mut buf = [0u8; 256];
    client.read(ptr, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x7D));
    assert!(
        client.stats().direct_writes > 0,
        "oversize staged write was not shed to the direct path"
    );
}
