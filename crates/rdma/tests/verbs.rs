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
    RdmaError, RdmaNode, RemoteAddr, Sge, WcOpcode, WcStatus,
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

#[test]
fn fault_plane_drop_times_out_and_qp_survives() {
    let plane = Arc::new(gengar_rdma::FaultPlane::new(1));
    plane.add_rule(gengar_rdma::FaultRule::drop_op().at_ops(vec![1]));
    let mut config = FabricConfig::instant();
    config.faults = Some(Arc::clone(&plane));
    let (_registry, fabric) = locked_fabric(config);
    let (a, b, mut ea, _eb) = pair(&fabric);
    ea.set_op_timeout(Duration::from_millis(20));
    // First write is dropped on the wire: no completion, QP stays healthy.
    let err = ea
        .write(
            Payload::Inline(b"lost".to_vec()),
            RemoteAddr::new(b.mr.rkey(), 0),
        )
        .unwrap_err();
    assert_eq!(err, RdmaError::Timeout);
    assert!(err.is_retryable());
    assert_eq!(ea.qp().state(), QpState::ReadyToSend);
    // Retrying on the same connection succeeds.
    ea.write(
        Payload::Inline(b"kept".to_vec()),
        RemoteAddr::new(b.mr.rkey(), 0),
    )
    .unwrap();
    ea.read(Sge::new(a.mr.lkey(), 0, 4), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap();
    let mut buf = [0u8; 4];
    a.mr.region().read(0, &mut buf).unwrap();
    assert_eq!(&buf, b"kept");
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
    assert!(!err.is_retryable());
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
    let (a, b, mut ea, _eb) = pair(&fabric);
    ea.set_op_timeout(Duration::from_millis(10));
    assert!(ea
        .read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .is_err());
    plane.disarm();
    ea.read(Sge::new(a.mr.lkey(), 0, 8), RemoteAddr::new(b.mr.rkey(), 0))
        .unwrap();
}

#[test]
fn batched_reads_complete_per_op() {
    use gengar_rdma::SendOp;
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
    use gengar_rdma::SendOp;
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
    use gengar_rdma::SendOp;
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
    use gengar_rdma::SendOp;
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
fn batch_drop_times_out_only_that_slot() {
    use gengar_rdma::SendOp;
    let plane = Arc::new(gengar_rdma::FaultPlane::new(1));
    // Drop the second WR of the batch on the wire.
    plane.add_rule(gengar_rdma::FaultRule::drop_op().at_ops(vec![2]));
    let mut config = FabricConfig::instant();
    config.faults = Some(plane);
    let (_registry, fabric) = locked_fabric(config);
    let (a, b, mut ea, _eb) = pair(&fabric);
    ea.set_op_timeout(Duration::from_millis(20));
    b.mr.region().write(0, &[7; 8]).unwrap();
    let read = |off: u64| SendOp::Read {
        local: Sge::new(a.mr.lkey(), off, 8),
        remote: RemoteAddr::new(b.mr.rkey(), 0),
    };
    let results = ea.execute_many(vec![read(0), read(8), read(16)]).unwrap();
    assert!(results[0].is_ok());
    assert_eq!(results[1], Err(RdmaError::Timeout));
    assert!(results[2].is_ok(), "a dropped WR does not kill the rest");
    // The QP survives, so the lost slot can be retried in place.
    assert_eq!(ea.qp().state(), QpState::ReadyToSend);
    let wc = ea.execute(read(8));
    assert!(wc.is_ok());
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
    // An op whose completion never arrives on a dead QP must surface
    // QpError (reconnect required), not Timeout (retryable).
    let (_registry, fabric) = locked_fabric(FabricConfig::instant());
    let (a, b, mut ea, _eb) = pair(&fabric);
    ea.set_op_timeout(Duration::from_millis(50));
    ea.qp().fail(WcStatus::RnrRetryExceeded);
    // recv: nothing will ever arrive on a dead QP.
    let err = ea.recv(Duration::from_millis(10)).unwrap_err();
    assert_eq!(err, RdmaError::QpError(WcStatus::RnrRetryExceeded));
    let _ = (a, b);
}
