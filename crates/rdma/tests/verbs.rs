//! End-to-end tests of the verbs substrate: two (or more) nodes on an
//! instant fabric exercising every opcode and every failure path.
//!
//! Every verb posted here counts into the process-global metrics registry,
//! from which `batch_posts_one_doorbell` asserts exact deltas, so every
//! test builds its fabric through [`locked_fabric`] and holds
//! [`REGISTRY_LOCK`] throughout (other test binaries are separate
//! processes).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind, MemRegion};
use gengar_rdma::{
    Access, Endpoint, Fabric, FabricConfig, Payload, ProtectionDomain, QpOptions, QpState,
    RdmaError, RdmaNode, RemoteAddr, SendOp, Sge, WcOpcode, WcStatus,
};

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// A fabric built under [`REGISTRY_LOCK`]; keep the guard for the test.
fn locked_fabric(config: FabricConfig) -> (MutexGuard<'static, ()>, Arc<Fabric>) {
    let guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    (guard, Fabric::new(config))
}

struct TestNode {
    node: Arc<RdmaNode>,
    pd: ProtectionDomain,
    mr: Arc<gengar_rdma::MemoryRegion>,
}

fn make_node(fabric: &Arc<Fabric>, kind: MemKind, capacity: u64, access: Access) -> TestNode {
    let node = fabric.add_node();
    let pd = node.alloc_pd();
    let dev = Arc::new(MemDevice::new(0, DeviceProfile::instant(kind), capacity).unwrap());
    let mr = pd.reg_mr(MemRegion::whole(dev), access).unwrap();
    TestNode { node, pd, mr }
}

fn pair(fabric: &Arc<Fabric>) -> (TestNode, TestNode, Endpoint, Endpoint) {
    let a = make_node(fabric, MemKind::Dram, 1 << 16, Access::all());
    let b = make_node(fabric, MemKind::Nvm, 1 << 16, Access::all());
    let (ea, eb) =
        Endpoint::pair((&a.node, &a.pd), (&b.node, &b.pd), QpOptions::default()).unwrap();
    (a, b, ea, eb)
}

#[test]
fn write_then_read_roundtrip() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    ea.write(
        Payload::Inline(b"hello nvm".to_vec()),
        RemoteAddr::new(b.mr.rkey(), 128),
    )
    .unwrap();
    let wc = ea
        .read(
            Sge::new(a.mr.lkey(), 0, 9),
            RemoteAddr::new(b.mr.rkey(), 128),
        )
        .unwrap();
    assert_eq!(wc.opcode, WcOpcode::RdmaRead);
    assert_eq!(wc.byte_len, 9);
    let mut buf = [0u8; 9];
    a.mr.region().read(0, &mut buf).unwrap();
    assert_eq!(&buf, b"hello nvm");
}

#[test]
fn write_from_registered_buffer() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    a.mr.region().write(256, b"from-sge").unwrap();
    ea.write(
        Payload::Sge(Sge::new(a.mr.lkey(), 256, 8)),
        RemoteAddr::new(b.mr.rkey(), 0),
    )
    .unwrap();
    let mut buf = [0u8; 8];
    b.mr.region().read(0, &mut buf).unwrap();
    assert_eq!(&buf, b"from-sge");
}

#[test]
fn send_recv_delivers_payload_and_imm() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (_a, b, ea, eb) = pair(&fabric);
    eb.post_recv(Sge::new(b.mr.lkey(), 512, 64)).unwrap();
    ea.send(Payload::Inline(b"ping".to_vec()), Some(0xBEEF))
        .unwrap();
    let wc = eb.recv(Duration::from_secs(1)).unwrap();
    assert_eq!(wc.opcode, WcOpcode::Recv);
    assert_eq!(wc.byte_len, 4);
    assert_eq!(wc.imm, Some(0xBEEF));
    let mut buf = [0u8; 4];
    b.mr.region().read(512, &mut buf).unwrap();
    assert_eq!(&buf, b"ping");
}

#[test]
fn send_without_posted_recv_hits_rnr() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let a = make_node(&fabric, MemKind::Dram, 4096, Access::all());
    let b = make_node(&fabric, MemKind::Dram, 4096, Access::all());
    let opts = QpOptions {
        rnr_timeout: Duration::from_millis(10),
        ..Default::default()
    };
    let (ea, _eb) = Endpoint::pair((&a.node, &a.pd), (&b.node, &b.pd), opts).unwrap();
    let err = ea.send(Payload::Inline(vec![1]), None).unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::RnrRetryExceeded));
    assert_eq!(ea.qp().state(), QpState::Error);
}

#[test]
fn write_with_imm_consumes_recv() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (_a, b, ea, eb) = pair(&fabric);
    eb.post_recv(Sge::new(b.mr.lkey(), 0, 0)).unwrap();
    ea.write_with_imm(
        Payload::Inline(b"doorbell".to_vec()),
        RemoteAddr::new(b.mr.rkey(), 1024),
        42,
    )
    .unwrap();
    let wc = eb.recv(Duration::from_secs(1)).unwrap();
    assert_eq!(wc.opcode, WcOpcode::RecvRdmaWithImm);
    assert_eq!(wc.imm, Some(42));
    assert_eq!(wc.byte_len, 8);
    // Data is placed at the remote address, not the recv buffer.
    let mut buf = [0u8; 8];
    b.mr.region().read(1024, &mut buf).unwrap();
    assert_eq!(&buf, b"doorbell");
}

#[test]
fn cas_and_faa_operate_remotely() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    b.mr.region().store_u64(64, 100).unwrap();

    let wc = ea
        .fetch_add(
            Sge::new(a.mr.lkey(), 0, 8),
            RemoteAddr::new(b.mr.rkey(), 64),
            5,
        )
        .unwrap();
    assert_eq!(wc.opcode, WcOpcode::FetchAdd);
    let mut prev = [0u8; 8];
    a.mr.region().read(0, &mut prev).unwrap();
    assert_eq!(u64::from_le_bytes(prev), 100);
    assert_eq!(b.mr.region().load_u64(64).unwrap(), 105);

    // Successful CAS.
    ea.compare_swap(
        Sge::new(a.mr.lkey(), 8, 8),
        RemoteAddr::new(b.mr.rkey(), 64),
        105,
        7,
    )
    .unwrap();
    assert_eq!(b.mr.region().load_u64(64).unwrap(), 7);

    // Failed CAS leaves memory untouched and returns the observed value.
    ea.compare_swap(
        Sge::new(a.mr.lkey(), 16, 8),
        RemoteAddr::new(b.mr.rkey(), 64),
        999,
        13,
    )
    .unwrap();
    let mut observed = [0u8; 8];
    a.mr.region().read(16, &mut observed).unwrap();
    assert_eq!(u64::from_le_bytes(observed), 7);
    assert_eq!(b.mr.region().load_u64(64).unwrap(), 7);
}

#[test]
fn remote_access_checks_rkey_bounds_and_permissions() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let a = make_node(&fabric, MemKind::Dram, 4096, Access::all());
    // Server MR allows only REMOTE_READ.
    let b = make_node(&fabric, MemKind::Nvm, 4096, Access::REMOTE_READ);
    let (ea, _eb) =
        Endpoint::pair((&a.node, &a.pd), (&b.node, &b.pd), QpOptions::default()).unwrap();

    // Read is fine.
    ea.read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap();

    // Write is denied: error completion + QP errored.
    let err = ea
        .write(Payload::Inline(vec![1]), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::RemoteAccessError));
    assert_eq!(ea.qp().state(), QpState::Error);

    // Posting on the errored QP is a programming error now.
    let again = ea.read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0));
    assert!(matches!(again, Err(RdmaError::InvalidQpState { .. })));
}

#[test]
fn flush_persists_a_written_range_across_a_crash() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (_a, b, ea, _eb) = pair(&fabric);
    let nvm = b.mr.region().device().clone();
    nvm.enable_crash_sim();
    let remote = |off: u64| RemoteAddr::new(b.mr.rkey(), off);
    let write = |off: u64, bytes: &[u8]| SendOp::Write {
        payload: Payload::Inline(bytes.to_vec()),
        remote: remote(off),
        imm: None,
    };
    // WRITE + FLUSH under one doorbell, then a WRITE with no FLUSH.
    let results = ea
        .execute_many(vec![
            write(0, b"durable!"),
            SendOp::Flush {
                remote: remote(0),
                len: 8,
            },
        ])
        .unwrap();
    assert_eq!(results[1].as_ref().unwrap().opcode, WcOpcode::Flush);
    ea.execute(write(64, b"volatile")).unwrap();
    nvm.crash().unwrap();
    let mut buf = [0u8; 8];
    b.mr.region().read(0, &mut buf).unwrap();
    assert_eq!(&buf, b"durable!");
    b.mr.region().read(64, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 8], "an unflushed WRITE is lost in the crash");
}

#[test]
fn flush_needs_remote_write_and_failure_flushes_later_wrs() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let a = make_node(&fabric, MemKind::Dram, 4096, Access::all());
    let b = make_node(&fabric, MemKind::Nvm, 4096, Access::REMOTE_READ);
    let (ea, _eb) =
        Endpoint::pair((&a.node, &a.pd), (&b.node, &b.pd), QpOptions::default()).unwrap();
    let results = ea
        .execute_many(vec![
            SendOp::Flush {
                remote: RemoteAddr::new(b.mr.rkey(), 0),
                len: 64,
            },
            SendOp::Read {
                local: Sge::new(a.mr.lkey(), 0, 8),
                remote: RemoteAddr::new(b.mr.rkey(), 0),
            },
        ])
        .unwrap();
    assert_eq!(
        results[0],
        Err(RdmaError::CompletionError(WcStatus::RemoteAccessError))
    );
    assert_eq!(
        results[1],
        Err(RdmaError::CompletionError(WcStatus::WrFlushed))
    );
    assert_eq!(ea.qp().state(), QpState::Error);
}

#[test]
fn flush_counts_in_its_own_verb_metrics() {
    use gengar_telemetry::Registry;
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let reg = Registry::global();
    let (flush_ops, flush_lat, write_ops) = (
        reg.counter("rdma", "flush_ops"),
        reg.histogram("rdma", "flush_ns"),
        reg.counter("rdma", "write_ops"),
    );
    let (ops0, lat0, writes0) = (flush_ops.get(), flush_lat.snapshot().count, write_ops.get());
    let (_a, b, ea, _eb) = pair(&fabric);
    for _ in 0..3 {
        ea.execute(SendOp::Flush {
            remote: RemoteAddr::new(b.mr.rkey(), 0),
            len: 128,
        })
        .unwrap();
    }
    assert_eq!(flush_ops.get(), ops0 + 3);
    assert_eq!(flush_lat.snapshot().count, lat0 + 3);
    assert_eq!(write_ops.get(), writes0, "a FLUSH is not a WRITE");
}

#[test]
fn out_of_bounds_remote_read_fails() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    let err = ea
        .read(
            Sge::new(a.mr.lkey(), 0, 128),
            RemoteAddr::new(b.mr.rkey(), (1 << 16) - 64),
        )
        .unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::RemoteAccessError));
}

#[test]
fn bogus_rkey_fails() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, _b, ea, _eb) = pair(&fabric);
    let err = ea
        .read(
            Sge::new(a.mr.lkey(), 0, 8),
            RemoteAddr::new(gengar_rdma::RKey(0xDEAD), 0),
        )
        .unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::RemoteAccessError));
}

#[test]
fn unknown_lkey_fails_fast() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (_a, b, ea, _eb) = pair(&fabric);
    let err = ea
        .read(
            Sge::new(gengar_rdma::LKey(0xAAAA), 0, 8),
            RemoteAddr::new(b.mr.rkey(), 0),
        )
        .unwrap_err();
    assert_eq!(err, RdmaError::UnknownLKey(0xAAAA));
    // Programming errors do not kill the QP.
    assert_eq!(ea.qp().state(), QpState::ReadyToSend);
}

#[test]
fn inline_limit_enforced() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (_a, b, ea, _eb) = pair(&fabric);
    let err = ea
        .write(
            Payload::Inline(vec![0u8; 221]),
            RemoteAddr::new(b.mr.rkey(), 0),
        )
        .unwrap_err();
    assert_eq!(err, RdmaError::InlineTooLarge { len: 221, max: 220 });
}

#[test]
fn partition_causes_transport_error() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    fabric.partition(a.node.id(), b.node.id(), true);
    let err = ea
        .read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::TransportError));
    assert_eq!(ea.qp().state(), QpState::Error);

    // Healing the link and resetting the QP restores service.
    fabric.partition(a.node.id(), b.node.id(), false);
    let remote = ea.qp().remote();
    assert!(remote.is_none() || remote.is_some()); // remote recorded pre-error
    ea.qp().reset();
    ea.qp().connect(b.node.id(), gengar_rdma::Qpn(1)).unwrap();
}

#[test]
fn removed_node_causes_transport_error() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    fabric.remove_node(b.node.id());
    let err = ea
        .read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::TransportError));
}

#[test]
fn pd_mismatch_is_rejected_remotely() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let a = make_node(&fabric, MemKind::Dram, 4096, Access::all());
    // Register the server MR in a *different* PD than the server QP uses.
    let b_node = fabric.add_node();
    let qp_pd = b_node.alloc_pd();
    let other_pd = b_node.alloc_pd();
    let dev = Arc::new(MemDevice::new(0, DeviceProfile::instant(MemKind::Nvm), 4096).unwrap());
    let foreign_mr = other_pd
        .reg_mr(MemRegion::whole(dev), Access::all())
        .unwrap();
    let (ea, _eb) =
        Endpoint::pair((&a.node, &a.pd), (&b_node, &qp_pd), QpOptions::default()).unwrap();
    let err = ea
        .read(
            Sge::new(a.mr.lkey(), 0, 8),
            RemoteAddr::new(foreign_mr.rkey(), 0),
        )
        .unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::RemoteAccessError));
}

#[test]
fn concurrent_remote_faa_is_linearizable() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let server = make_node(&fabric, MemKind::Nvm, 4096, Access::all());
    let mut handles = Vec::new();
    for _ in 0..4 {
        let client = make_node(&fabric, MemKind::Dram, 4096, Access::all());
        let (ec, _es) = Endpoint::pair(
            (&client.node, &client.pd),
            (&server.node, &server.pd),
            QpOptions::default(),
        )
        .unwrap();
        let rkey = server.mr.rkey();
        let lkey = client.mr.lkey();
        handles.push(std::thread::spawn(move || {
            for _ in 0..500 {
                ec.fetch_add(Sge::new(lkey, 0, 8), RemoteAddr::new(rkey, 0), 1)
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.mr.region().load_u64(0).unwrap(), 2000);
}

#[test]
fn unsignaled_writes_produce_no_completion() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (_a, b, ea, _eb) = pair(&fabric);
    use gengar_rdma::{SendOp, SendWr};
    ea.qp()
        .post_send(SendWr::unsignaled(
            77,
            SendOp::Write {
                payload: Payload::Inline(vec![9]),
                remote: RemoteAddr::new(b.mr.rkey(), 0),
                imm: None,
            },
        ))
        .unwrap();
    assert!(ea.qp().send_cq().is_empty());
    let mut buf = [0u8; 1];
    b.mr.region().read(0, &mut buf).unwrap();
    assert_eq!(buf[0], 9);
}

#[test]
fn extra_link_delay_slows_ops() {
    gengar_hybridmem::set_time_scale(1.0);
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    fabric.set_extra_delay_ns(a.node.id(), b.node.id(), 2_000_000); // 2 ms each way
    let t0 = std::time::Instant::now();
    ea.read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(4));
}

#[test]
fn telemetry_counts_verbs_on_global_registry() {
    use gengar_telemetry::Registry;

    // Other tests in this binary share the global registry, so assert on
    // deltas of monotone counters rather than absolute values.
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let reg = Registry::global();
    let read_ops = reg.counter("rdma", "read_ops");
    let write_bytes = reg.counter("rdma", "write_bytes");
    let read_lat = reg.histogram("rdma", "read_ns");
    let (ops0, bytes0, lat0) = (read_ops.get(), write_bytes.get(), read_lat.snapshot().count);

    let (a, b, ea, _eb) = pair(&fabric);
    ea.write(
        Payload::Inline(vec![7u8; 100]),
        RemoteAddr::new(b.mr.rkey(), 0),
    )
    .unwrap();
    for _ in 0..3 {
        ea.read(
            Sge::new(a.mr.lkey(), 0, 100),
            RemoteAddr::new(b.mr.rkey(), 0),
        )
        .unwrap();
    }

    assert!(read_ops.get() >= ops0 + 3);
    assert!(write_bytes.get() >= bytes0 + 100);
    assert!(read_lat.snapshot().count >= lat0 + 3);
}

#[test]
fn disabled_telemetry_fabric_still_works() {
    let mut config = FabricConfig::instant();
    config.telemetry = gengar_rdma::TelemetryConfig::disabled();
    let (_registry, fabric) = locked_fabric(config);
    let (a, b, ea, _eb) = pair(&fabric);
    ea.write(
        Payload::Inline(vec![1u8; 32]),
        RemoteAddr::new(b.mr.rkey(), 0),
    )
    .unwrap();
    let wc = ea
        .read(
            Sge::new(a.mr.lkey(), 0, 32),
            RemoteAddr::new(b.mr.rkey(), 0),
        )
        .unwrap();
    assert!(wc.status.is_ok());
}

/// A fabric whose fault plane loses the `at`-th posted WR on the wire.
fn losing_fabric(mut config: FabricConfig, at: u64) -> (MutexGuard<'static, ()>, Arc<Fabric>) {
    let plane = Arc::new(gengar_rdma::FaultPlane::new(1));
    plane.add_rule(gengar_rdma::FaultRule::drop_op().at_ops(vec![at]));
    config.faults = Some(plane);
    locked_fabric(config)
}

/// Harvests `n` completions off `ea`'s send CQ, in the order they become
/// ready, failing if they do not all arrive within 5 s.
fn harvest(ea: &Endpoint, n: usize) -> Vec<gengar_rdma::Wc> {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut wcs = Vec::new();
    while wcs.len() < n && std::time::Instant::now() < deadline {
        let cq = ea.qp().send_cq();
        wcs.extend(cq.wait(n - wcs.len(), Duration::from_millis(100)));
    }
    assert_eq!(wcs.len(), n, "a posted WR never completed");
    wcs
}

/// A WR lost at any position of a doorbell fails the way RC fails: it
/// completes with a transport error and places nothing, the WRs behind
/// it flush (none ready before the error), the ones ahead land, and the
/// QP is in error.
#[test]
fn lost_wr_fails_rc_at_each_doorbell_position() {
    for lost in 1..=3u64 {
        let (_registry, fabric) = losing_fabric(FabricConfig::instant(), lost);
        let (_a, b, ea, _eb) = pair(&fabric);
        let wrs = (1..=3u64)
            .map(|i| {
                let op = SendOp::Write {
                    payload: Payload::Inline(vec![i as u8; 8]),
                    remote: RemoteAddr::new(b.mr.rkey(), i * 8),
                    imm: None,
                };
                gengar_rdma::SendWr::new(i, op)
            })
            .collect();
        ea.qp().post_send_list(wrs).unwrap();
        let wcs = harvest(&ea, 3);
        let error_at = wcs.iter().position(|wc| wc.wr_id == lost).unwrap();
        assert_eq!(
            wcs[error_at].status,
            WcStatus::TransportError,
            "lost {lost}"
        );
        for wc in &wcs {
            let expected = match wc.wr_id.cmp(&lost) {
                std::cmp::Ordering::Less => WcStatus::Success,
                std::cmp::Ordering::Equal => WcStatus::TransportError,
                std::cmp::Ordering::Greater => WcStatus::WrFlushed,
            };
            assert_eq!(wc.status, expected, "lost {lost}, wr {}", wc.wr_id);
        }
        assert!(
            wcs[..error_at].iter().all(|wc| wc.status.is_ok()),
            "lost {lost}: a flushed WR was ready before the lost WR's error"
        );
        for i in 1..=3u64 {
            let mut buf = [0u8; 8];
            b.mr.region().read(i * 8, &mut buf).unwrap();
            let landed = if i < lost { i as u8 } else { 0 };
            assert_eq!(buf, [landed; 8], "lost {lost}, wr {i}");
        }
        assert_eq!(ea.qp().state(), QpState::Error);
        assert_eq!(ea.qp().error_status(), Some(WcStatus::TransportError));
    }
}

/// The lost WR's error waits out the initiator's transport retries: seven
/// link round trips, here stretched by a link delay.
#[test]
fn lost_wr_error_waits_out_the_transport_retries() {
    gengar_hybridmem::set_time_scale(1.0);
    let config = FabricConfig::infiniband_100g();
    let one_way_ns = config.one_way_ns + 100_000;
    let (_registry, fabric) = losing_fabric(config, 1);
    let (a, b, ea, _eb) = pair(&fabric);
    fabric.set_extra_delay_ns(a.node.id(), b.node.id(), 100_000);
    let t0 = std::time::Instant::now();
    let err = ea
        .read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::TransportError));
    assert!(t0.elapsed() >= Duration::from_nanos(7 * 2 * one_way_ns));
}

/// A lost SEND never reaches the responder: the peer's receive stays
/// posted and nothing arrives on it.
#[test]
fn lost_send_leaves_the_peer_receive_posted() {
    let (_registry, fabric) = losing_fabric(FabricConfig::instant(), 1);
    let (_a, b, ea, eb) = pair(&fabric);
    eb.post_recv(Sge::new(b.mr.lkey(), 0, 64)).unwrap();
    let err = ea
        .send(Payload::Inline(b"lost".to_vec()), None)
        .unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::TransportError));
    assert_eq!(eb.qp().posted_recvs(), 1);
    assert_eq!(eb.recv(Duration::from_millis(10)), Err(RdmaError::Timeout));
}

/// A doorbell whose completions would overrun its send CQ is refused
/// before any WR executes, so an executed WR never loses its completion:
/// no byte lands, the QP stays usable, and a list that fits then runs.
#[test]
fn send_cq_overrun_is_refused_before_any_wr_executes() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let a = make_node(&fabric, MemKind::Dram, 4096, Access::all());
    let b = make_node(&fabric, MemKind::Dram, 4096, Access::all());
    let qa = a.node.create_qp(
        &a.pd,
        a.node.create_cq(2),
        a.node.create_cq(16),
        QpOptions::default(),
    );
    let qb = b.node.create_qp(
        &b.pd,
        b.node.create_cq(16),
        b.node.create_cq(16),
        QpOptions::default(),
    );
    qa.connect(b.node.id(), qb.qpn()).unwrap();
    qb.connect(a.node.id(), qa.qpn()).unwrap();
    let ea = Endpoint::from_qp(Arc::clone(&a.node), qa);
    let writes = |n: u64| -> Vec<SendOp> {
        (0..n)
            .map(|i| SendOp::Write {
                payload: Payload::Inline(vec![0xab; 8]),
                remote: RemoteAddr::new(b.mr.rkey(), i * 8),
                imm: None,
            })
            .collect()
    };
    assert_eq!(ea.execute_many(writes(3)), Err(RdmaError::SendQueueFull));
    let mut remote = [0u8; 24];
    b.mr.region().read(0, &mut remote).unwrap();
    assert_eq!(remote, [0u8; 24], "a refused list placed bytes");
    assert_eq!(ea.qp().state(), QpState::ReadyToSend);
    assert!(!ea.qp().send_cq().overflowed());
    let results = ea.execute_many(writes(2)).unwrap();
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    b.mr.region().read(0, &mut remote).unwrap();
    assert_eq!(remote[..16], [0xab; 16]);
    assert_eq!(remote[16..], [0u8; 8]);
    assert!(!ea.qp().send_cq().overflowed());
}

#[test]
fn fault_plane_error_kills_qp_with_cause() {
    let plane = Arc::new(gengar_rdma::FaultPlane::new(1));
    plane.add_rule(gengar_rdma::FaultRule::error(WcStatus::TransportError).at_ops(vec![1]));
    let mut config = FabricConfig::instant();
    config.faults = Some(plane);
    let (_registry, fabric) = locked_fabric(config);
    let (a, b, ea, _eb) = pair(&fabric);
    let err = ea
        .read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap_err();
    assert_eq!(err, RdmaError::CompletionError(WcStatus::TransportError));
    assert_eq!(ea.qp().state(), QpState::Error);
    assert_eq!(ea.qp().error_status(), Some(WcStatus::TransportError));
}

#[test]
fn fault_plane_disarm_restores_clean_fabric() {
    let plane = Arc::new(
        gengar_rdma::FaultPlane::from_spec("drop:p=1", 3, gengar_rdma::TelemetryConfig::disabled())
            .unwrap(),
    );
    let mut config = FabricConfig::instant();
    config.faults = Some(Arc::clone(&plane));
    let (_registry, fabric) = locked_fabric(config);
    let (a, b, ea, _eb) = pair(&fabric);
    assert!(ea
        .read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .is_err());
    plane.disarm();
    // The loss killed that pair's QP; a fresh pair reads cleanly.
    let (a, b, ea, _eb) = pair(&fabric);
    ea.read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap();
}

#[test]
fn batched_reads_complete_per_op() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    for i in 0..8u8 {
        b.mr.region().write(i as u64 * 64, &[i + 1; 16]).unwrap();
    }
    let ops: Vec<SendOp> = (0..8u64)
        .map(|i| SendOp::Read {
            local: Sge::new(a.mr.lkey(), i * 16, 16),
            remote: RemoteAddr::new(b.mr.rkey(), i * 64),
        })
        .collect();
    let results = ea.execute_many(ops).unwrap();
    assert_eq!(results.len(), 8);
    for (i, r) in results.iter().enumerate() {
        let wc = r.as_ref().unwrap();
        assert_eq!(wc.opcode, WcOpcode::RdmaRead);
        assert_eq!(wc.byte_len, 16);
        let mut buf = [0u8; 16];
        a.mr.region().read(i as u64 * 16, &mut buf).unwrap();
        assert_eq!(buf, [i as u8 + 1; 16]);
    }
    // All eight completions drained: nothing stale left on the CQ.
    assert!(ea.qp().send_cq().is_empty());
}

#[test]
fn batch_posts_one_doorbell() {
    use gengar_telemetry::Registry;
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let reg = Registry::global();
    let doorbells = reg.counter("rdma", "doorbells");
    let saved = reg.counter("rdma", "doorbells_saved");
    let (db0, saved0) = (doorbells.get(), saved.get());

    let (a, b, ea, _eb) = pair(&fabric);
    let ops: Vec<SendOp> = (0..5u64)
        .map(|i| SendOp::Read {
            local: Sge::new(a.mr.lkey(), i * 8, 8),
            remote: RemoteAddr::new(b.mr.rkey(), i * 8),
        })
        .collect();
    for r in ea.execute_many(ops).unwrap() {
        r.unwrap();
    }
    // One list of five WRs: one doorbell, four rings saved vs serial.
    assert_eq!(doorbells.get(), db0 + 1);
    assert_eq!(saved.get(), saved0 + 4);

    // A scalar op is a batch of one: a doorbell, nothing saved.
    ea.read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap();
    assert_eq!(doorbells.get(), db0 + 2);
    assert_eq!(saved.get(), saved0 + 4);
}

#[test]
fn batch_failure_flushes_later_wrs_in_order() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    b.mr.region().write(0, &[0xAB; 8]).unwrap();
    let good = |off: u64| SendOp::Read {
        local: Sge::new(a.mr.lkey(), off, 8),
        remote: RemoteAddr::new(b.mr.rkey(), 0),
    };
    let bad = SendOp::Read {
        local: Sge::new(a.mr.lkey(), 8, 8),
        remote: RemoteAddr::new(gengar_rdma::RKey(0xDEAD), 0),
    };
    let results = ea.execute_many(vec![good(0), bad, good(16)]).unwrap();
    // RC ordering: op 0 lands, op 1 errors, op 2 is flushed unexecuted.
    assert!(results[0].is_ok());
    assert_eq!(
        results[1],
        Err(RdmaError::CompletionError(WcStatus::RemoteAccessError))
    );
    assert_eq!(
        results[2],
        Err(RdmaError::CompletionError(WcStatus::WrFlushed))
    );
    assert_eq!(ea.qp().state(), QpState::Error);
    let mut buf = [0u8; 8];
    a.mr.region().read(16, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 8], "flushed read must not move data");
}

#[test]
fn batch_with_invalid_wr_executes_nothing() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    let good = SendOp::Write {
        payload: Payload::Inline(b"never".to_vec()),
        remote: RemoteAddr::new(b.mr.rkey(), 0),
        imm: None,
    };
    let bad = SendOp::Read {
        local: Sge::new(gengar_rdma::LKey(0xAAAA), 0, 8),
        remote: RemoteAddr::new(b.mr.rkey(), 0),
    };
    // The whole post is validated up front: a programming error anywhere
    // in the list means nothing hit the wire.
    let err = ea.execute_many(vec![good, bad]).unwrap_err();
    assert_eq!(err, RdmaError::UnknownLKey(0xAAAA));
    assert_eq!(ea.qp().state(), QpState::ReadyToSend);
    let mut buf = [0u8; 5];
    b.mr.region().read(0, &mut buf).unwrap();
    assert_eq!(&buf, &[0u8; 5]);
    let _ = a;
}

#[test]
fn empty_batch_is_a_no_op() {
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (_a, _b, ea, _eb) = pair(&fabric);
    assert!(ea.execute_many(Vec::new()).unwrap().is_empty());
    assert!(ea.qp().send_cq().is_empty());
}

#[test]
fn qp_error_reported_for_flushed_waiters() {
    // A wait that can never be answered on a dead QP must surface
    // QpError (reconnect required), not Timeout.
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, ea, _eb) = pair(&fabric);
    ea.qp().fail(WcStatus::RnrRetryExceeded);
    // recv: nothing will ever arrive on a dead QP.
    let err = ea.recv(Duration::from_millis(10)).unwrap_err();
    assert_eq!(err, RdmaError::QpError(WcStatus::RnrRetryExceeded));
    let _ = (a, b);
}
