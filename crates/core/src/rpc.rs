//! Control-plane RPC over two-sided SEND/RECV verbs.
//!
//! Each client-server connection dedicates one RC queue pair to RPC. Each
//! side owns a small registered message buffer with an outgoing slot and an
//! incoming slot of [`MAX_MSG`] bytes. Calls are synchronous (one
//! outstanding request per connection), which matches how Gengar uses the
//! control plane: the data plane is entirely one-sided. A caller holding
//! several connections may overlap one call on each
//! (`RpcClient::begin` / `RpcClient::finish`). A server answers all its
//! connections from one loop over a shared receive CQ.
//!
//! Every request carries a per-connection call id that its response
//! echoes. A request is re-sent when its response is late, so one call can
//! be answered more than once, but it runs once: the server answers a
//! repeat of the call it last answered from that answer. The client keeps
//! exactly one receive posted and drops any response whose id is not the
//! current call's, so a late answer is never taken for the next call's. A
//! request lost on the wire is not re-sent: the SEND fails like any RC
//! verb and takes the queue pair with it, so the call fails and the caller
//! reconnects.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_rdma::{Endpoint, MemoryRegion, Payload, RdmaError, Sge, Wc};
use parking_lot::Mutex;

use crate::error::GengarError;
use crate::proto::{Request, Response, MAX_MSG};
use crate::retry::attempt_timeout;

/// Offset of the outgoing slot within an RPC message buffer.
const OUT_SLOT: u64 = 0;
/// Offset of the incoming slot within an RPC message buffer.
const IN_SLOT: u64 = MAX_MSG as u64;

/// Bytes an RPC message buffer MR must cover.
pub const RPC_BUF_BYTES: u64 = 2 * MAX_MSG as u64;

/// Per-call deadline, re-sends included, of a client made by
/// [`RpcClient::new`]: the default [`crate::ClientConfig::op_deadline`]
/// (a [`crate::GengarClient`] passes its configured one).
const DEFAULT_RPC_DEADLINE: Duration = Duration::from_secs(2);

/// Client half of an RPC connection.
#[derive(Debug)]
pub struct RpcClient {
    ep: Endpoint,
    buf: Arc<MemoryRegion>,
    timeout: Duration,
    /// Id of the last call begun on this connection. Calls on one
    /// connection are serial, so this and `armed` publish nothing to
    /// another thread: `Relaxed` suffices.
    last_call: AtomicU64,
    /// Whether the connection's one receive is posted.
    armed: AtomicBool,
}

impl RpcClient {
    /// Wraps a connected endpoint and a message buffer of at least
    /// [`RPC_BUF_BYTES`], with a 2 s per-call deadline.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is smaller than [`RPC_BUF_BYTES`].
    pub fn new(ep: Endpoint, buf: Arc<MemoryRegion>) -> Self {
        Self::with_deadline(ep, buf, DEFAULT_RPC_DEADLINE)
    }

    /// Like [`RpcClient::new`] with an explicit per-call deadline.
    pub(crate) fn with_deadline(ep: Endpoint, buf: Arc<MemoryRegion>, deadline: Duration) -> Self {
        assert!(
            buf.len() >= RPC_BUF_BYTES,
            "rpc buffer needs {RPC_BUF_BYTES} bytes, got {}",
            buf.len()
        );
        RpcClient {
            ep,
            buf,
            timeout: deadline,
            last_call: AtomicU64::new(0),
            armed: AtomicBool::new(false),
        }
    }

    /// Issues one request and waits for the response.
    ///
    /// The wait for the response uses the attempt-scale patience of
    /// `retry::attempt_timeout`; a request whose response is not back by
    /// then is re-sent, until the call deadline expires. A request lost on
    /// the wire fails its SEND and kills the queue pair, so the call fails
    /// at once and the caller reconnects. The server runs a request once
    /// and answers its re-sent copies from that run; whichever copy's
    /// answer arrives first is the call's response, and the others are
    /// dropped by call id.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`GengarError::Rdma`] — a lost request
    /// or dead queue pair as `Rdma(CompletionError)`/`Rdma(QpError)`,
    /// deadline exhaustion as `Rdma(Timeout)`; malformed responses as
    /// [`GengarError::ProtocolViolation`].
    pub fn call(&self, req: &Request) -> Result<Response, GengarError> {
        let _call_span = gengar_telemetry::Tracer::global().span("rpc.call");
        let call = self.start(req);
        self.finish(call)
    }

    /// First half of [`RpcClient::call`]: sends the request and returns
    /// without waiting. A caller with requests for several servers begins
    /// them all before finishing any, so the servers' wake-ups overlap.
    /// Every begun call must be finished before the next on this
    /// connection; a send failure is reported by [`RpcClient::finish`].
    /// The `rpc.call` span covers the send alone: spans close in the order
    /// they open, and the calls finish in any order.
    pub(crate) fn begin(&self, req: &Request) -> PendingCall {
        let _call_span = gengar_telemetry::Tracer::global().span("rpc.call");
        self.start(req)
    }

    /// Encodes and sends `req` under the connection's next call id. The
    /// caller opens the `rpc.call` span before this so the request wire
    /// bytes carry it as the server-side parent.
    fn start(&self, req: &Request) -> PendingCall {
        let id = self.last_call.fetch_add(1, Ordering::Relaxed) + 1;
        let mut out = Vec::with_capacity(256);
        req.encode(id, &mut out);
        debug_assert!(out.len() <= MAX_MSG);
        let now = Instant::now();
        let sent = self.post(&out);
        PendingCall {
            id,
            out,
            deadline: now + self.timeout,
            resend_at: now + attempt_timeout(self.timeout),
            sent,
        }
    }

    /// Second half of [`RpcClient::call`]: waits for the response,
    /// re-sending the request each time the patience runs out.
    ///
    /// # Errors
    ///
    /// As [`RpcClient::call`].
    pub(crate) fn finish(&self, mut call: PendingCall) -> Result<Response, GengarError> {
        loop {
            if let Some(resp) = self.poll(&mut call, attempt_timeout(self.timeout))? {
                return Ok(resp);
            }
        }
    }

    /// One bounded wait for `call`'s response, for the reactor: parks on
    /// the response CQ for at most `wait` (zero = a non-blocking look);
    /// `None` while the response is outstanding, re-sending the request
    /// once its patience has run out. A response to another call (a late
    /// answer to an earlier call's re-sent copy) is dropped.
    pub(crate) fn poll(
        &self,
        call: &mut PendingCall,
        wait: Duration,
    ) -> Result<Option<Response>, GengarError> {
        let left = call.resend_at.saturating_duration_since(Instant::now());
        match call
            .sent
            .clone()
            .and_then(|()| self.ep.recv(wait.min(left)))
        {
            Ok(wc) => {
                let mut resp_bytes = vec![0u8; wc.byte_len as usize];
                self.buf.region().read(IN_SLOT, &mut resp_bytes)?;
                // The slot is copied out: post the receive again at once,
                // so a response arriving between calls has somewhere to
                // land. A failed re-arm is retried by the next post.
                self.armed.store(false, Ordering::Relaxed);
                let rearmed = self.arm();
                let (resp, id) = Response::decode(&resp_bytes)?;
                if id == call.id {
                    return Ok(Some(resp));
                }
                call.sent = rearmed;
                Ok(None)
            }
            Err(RdmaError::Timeout) if Instant::now() < call.deadline => {
                if Instant::now() >= call.resend_at {
                    call.sent = self.post(&call.out);
                    call.resend_at = Instant::now() + attempt_timeout(self.timeout);
                }
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Posts the connection's one receive unless it is already posted.
    fn arm(&self) -> Result<(), RdmaError> {
        if self.armed.swap(true, Ordering::Relaxed) {
            return Ok(());
        }
        self.ep
            .post_recv(Sge::new(self.buf.lkey(), IN_SLOT, MAX_MSG as u64))
            .map(|_| ())
            .inspect_err(|_| self.armed.store(false, Ordering::Relaxed))
    }

    /// Arms the response buffer, stages the request bytes and sends them.
    fn post(&self, out: &[u8]) -> Result<(), RdmaError> {
        self.arm()?;
        self.buf.region().write(OUT_SLOT, out)?;
        self.ep
            .send(
                Payload::Sge(Sge::new(self.buf.lkey(), OUT_SLOT, out.len() as u64)),
                None,
            )
            .map(|_| ())
    }
}

/// A request sent by [`RpcClient::begin`] whose response has not been
/// awaited yet.
#[derive(Debug)]
pub(crate) struct PendingCall {
    /// The call id its response must echo.
    id: u64,
    out: Vec<u8>,
    deadline: Instant,
    /// When an unanswered request is next re-sent.
    resend_at: Instant,
    sent: Result<(), RdmaError>,
}

/// Server half of an RPC connection. It owns no thread: whoever polls the
/// receive CQ it shares with other connections passes it each of its
/// completions (`answer`).
#[derive(Debug)]
pub(crate) struct RpcServerConn {
    ep: Endpoint,
    buf: Arc<MemoryRegion>,
    /// The call id last answered and its encoded answer, sent again for a
    /// re-sent copy of that call. Call ids only grow on a connection, so
    /// an older call never comes back.
    last: Mutex<(u64, Vec<u8>)>,
}

impl RpcServerConn {
    /// Wraps the server-side endpoint and its [`RPC_BUF_BYTES`] message
    /// buffer, and posts the connection's one receive.
    pub(crate) fn new(ep: Endpoint, buf: Arc<MemoryRegion>) -> Result<Self, RdmaError> {
        let conn = RpcServerConn {
            ep,
            buf,
            last: Mutex::new((0, Vec::new())),
        };
        conn.arm()?;
        Ok(conn)
    }

    /// Answers the request whose receive completed as `wc`, echoing its
    /// call id, then posts the receive again. A re-sent copy of the call
    /// last answered gets that answer again, without running `handler`.
    ///
    /// Malformed requests are answered with
    /// [`Response::Err`]`{ code: BAD_REQUEST }` under call id 0 (no call
    /// uses it, and its answer is never kept) rather than killing the
    /// connection.
    ///
    /// # Errors
    ///
    /// A failed receive, response or re-post: the connection is dead.
    pub(crate) fn answer(
        &self,
        wc: &Wc,
        handler: impl FnOnce(Request) -> Response,
    ) -> Result<(), GengarError> {
        if !wc.status.is_ok() {
            return Err(RdmaError::CompletionError(wc.status).into());
        }
        let mut req_bytes = vec![0u8; wc.byte_len as usize];
        self.buf.region().read(IN_SLOT, &mut req_bytes)?;
        let mut last = self.last.lock();
        let mut malformed = Vec::new();
        let out = match Request::decode_traced(&req_bytes) {
            Ok((_, _, call)) if call != 0 && call == last.0 => &last.1,
            Ok((req, ctx, call)) => {
                // Serve under the issuing client op's trace context so
                // server-side spans land in the same causal trace.
                let _ctx = ctx.adopt();
                let mut serve_span = gengar_telemetry::Tracer::global().span("rpc.serve");
                serve_span.set_detail(req_bytes.first().copied().unwrap_or(0) as u64);
                let resp = handler(req);
                let (id, bytes) = &mut *last;
                *id = call;
                bytes.clear();
                resp.encode(call, bytes);
                bytes
            }
            Err(_) => {
                let code = crate::proto::err_code::BAD_REQUEST;
                Response::Err { code }.encode(0, &mut malformed);
                &malformed
            }
        };
        self.buf.region().write(OUT_SLOT, out)?;
        let sge = Sge::new(self.buf.lkey(), OUT_SLOT, out.len() as u64);
        self.ep.send(Payload::Sge(sge), None)?;
        self.arm()?;
        Ok(())
    }

    /// Posts the connection's one receive into the incoming slot.
    fn arm(&self) -> Result<u64, RdmaError> {
        let sge = Sge::new(self.buf.lkey(), IN_SLOT, MAX_MSG as u64);
        self.ep.post_recv(sge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::JoinHandle;

    use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind, MemRegion};
    use gengar_rdma::{
        Access, CompletionQueue, Fabric, FabricConfig, FaultPlane, ProtectionDomain, QpOptions,
        RdmaNode, TelemetryConfig,
    };

    use crate::proto::err_code;

    /// `n` RPC connections from one client node to one server node whose
    /// server ends all receive on the returned CQ, as a server's do.
    fn rpc_conns(
        config: FabricConfig,
        n: usize,
        deadline: Duration,
    ) -> (
        Arc<Fabric>,
        Vec<RpcClient>,
        Vec<RpcServerConn>,
        Arc<CompletionQueue>,
    ) {
        let fabric = Fabric::new(config);
        let (c_node, s_node) = (fabric.add_node(), fabric.add_node());
        let (c_pd, s_pd) = (c_node.alloc_pd(), s_node.alloc_pd());
        let shared = s_node.create_cq(64);
        let buf = |pd: &ProtectionDomain| {
            let dev = MemDevice::new(0, DeviceProfile::instant(MemKind::Dram), RPC_BUF_BYTES);
            let region = MemRegion::whole(Arc::new(dev.unwrap()));
            pd.reg_mr(region, Access::all()).unwrap()
        };
        let qp = |node: &Arc<RdmaNode>, pd, recv_cq| {
            node.create_qp(pd, node.create_cq(64), recv_cq, QpOptions::default())
        };
        let (mut clients, mut servers) = (Vec::new(), Vec::new());
        for _ in 0..n {
            let c_qp = qp(&c_node, &c_pd, c_node.create_cq(64));
            let s_qp = qp(&s_node, &s_pd, Arc::clone(&shared));
            c_qp.connect(s_node.id(), s_qp.qpn()).unwrap();
            s_qp.connect(c_node.id(), c_qp.qpn()).unwrap();
            let ep = Endpoint::from_qp(Arc::clone(&c_node), c_qp);
            clients.push(RpcClient::with_deadline(ep, buf(&c_pd), deadline));
            let ep = Endpoint::from_qp(Arc::clone(&s_node), s_qp);
            servers.push(RpcServerConn::new(ep, buf(&s_pd)).unwrap());
        }
        (fabric, clients, servers, shared)
    }

    /// One loop answering every connection off their shared CQ, as a
    /// server's loop does, until dropped.
    struct ServeLoop {
        stop: Arc<AtomicBool>,
        thread: Option<JoinHandle<()>>,
    }

    impl Drop for ServeLoop {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Relaxed);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// Starts the loop; `handler` is told which connection a request came
    /// in on.
    fn serve(
        conns: Vec<RpcServerConn>,
        cq: Arc<CompletionQueue>,
        mut handler: impl FnMut(usize, Request) -> Response + Send + 'static,
    ) -> ServeLoop {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                for wc in cq.wait(16, Duration::from_millis(5)) {
                    let i = conns.iter().position(|c| c.ep.qp().qpn() == wc.qpn);
                    let i = i.unwrap();
                    let _ = conns[i].answer(&wc, |req| handler(i, req));
                }
            }
        });
        ServeLoop {
            stop,
            thread: Some(thread),
        }
    }

    #[test]
    fn call_roundtrips_through_handler() {
        let (_fabric, clients, servers, cq) =
            rpc_conns(FabricConfig::instant(), 1, DEFAULT_RPC_DEADLINE);
        let _loop = serve(servers, cq, |_, req| match req {
            Request::Alloc { size } => Response::Alloc { addr: size * 2 },
            _ => Response::Ok,
        });
        let resp = clients[0].call(&Request::Alloc { size: 21 }).unwrap();
        assert_eq!(resp, Response::Alloc { addr: 42 });
        let resp = clients[0].call(&Request::QueryReplica).unwrap();
        assert_eq!(resp, Response::Ok);
    }

    #[test]
    fn many_sequential_calls() {
        let (_fabric, clients, servers, cq) =
            rpc_conns(FabricConfig::instant(), 1, DEFAULT_RPC_DEADLINE);
        let mut count = 0u64;
        let _loop = serve(servers, cq, move |_, _| {
            count += 1;
            Response::Durable { seq: count }
        });
        for i in 1..=100u64 {
            let resp = clients[0].call(&Request::QueryReplica).unwrap();
            assert_eq!(resp, Response::Durable { seq: i });
        }
    }

    /// Calls begun on two connections overlap: both requests are out
    /// before either response is awaited, and they finish in any order.
    #[test]
    fn begun_calls_on_two_connections_finish_in_any_order() {
        let (_fabric, clients, servers, cq) =
            rpc_conns(FabricConfig::instant(), 2, DEFAULT_RPC_DEADLINE);
        let _loop = serve(servers, cq, |i, req| match req {
            Request::Alloc { size } => Response::Alloc {
                addr: size + 10 * (i as u64 + 1),
            },
            _ => Response::Ok,
        });
        let calls: Vec<PendingCall> = clients
            .iter()
            .map(|c| c.begin(&Request::Alloc { size: 1 }))
            .collect();
        for ((client, call), id) in clients.iter().zip(calls).zip([10, 20]).rev() {
            let resp = client.finish(call).unwrap();
            assert_eq!(resp, Response::Alloc { addr: 1 + id });
        }
        // The connection is free again: a plain call follows a begun one.
        assert_eq!(
            clients[0].call(&Request::QueryReplica).unwrap(),
            Response::Ok
        );
    }

    /// One loop serves two connections whose calls interleave, with call
    /// ids that never coincide: each call gets the answer to its own
    /// request, under its own id.
    #[test]
    fn interleaved_calls_on_one_loop_each_get_their_own_call_id() {
        let (_fabric, clients, servers, cq) =
            rpc_conns(FabricConfig::instant(), 2, DEFAULT_RPC_DEADLINE);
        let _loop = serve(servers, cq, |i, req| match req {
            Request::Alloc { size } => Response::Alloc {
                addr: size * 10 + i as u64,
            },
            _ => Response::Ok,
        });
        // Connection 0 runs one call ahead of connection 1.
        let resp = clients[0].call(&Request::Alloc { size: 0 }).unwrap();
        assert_eq!(resp, Response::Alloc { addr: 0 });
        for size in 1..=20u64 {
            let a = clients[0].begin(&Request::Alloc { size });
            let b = clients[1].begin(&Request::Alloc { size: size + 100 });
            let resp = clients[1].finish(b).unwrap();
            assert_eq!(
                resp,
                Response::Alloc {
                    addr: size * 10 + 1001
                }
            );
            assert_eq!(
                clients[0].finish(a).unwrap(),
                Response::Alloc { addr: size * 10 }
            );
        }
        assert_eq!(clients[0].last_call.load(Ordering::Relaxed), 21);
        assert_eq!(clients[1].last_call.load(Ordering::Relaxed), 20);
    }

    /// A request that does not decode is answered `BAD_REQUEST` under call
    /// id 0, and neither its connection nor the loop's other connection
    /// stops being served.
    #[test]
    fn malformed_request_does_not_stall_the_other_connection() {
        let (_fabric, clients, servers, cq) =
            rpc_conns(FabricConfig::instant(), 2, DEFAULT_RPC_DEADLINE);
        let _loop = serve(servers, cq, |_, req| match req {
            Request::Alloc { size } => Response::Alloc { addr: size },
            _ => Response::Ok,
        });
        // A lone tag byte, without the header every request carries.
        let garbage = vec![0xFF];
        let now = Instant::now();
        let malformed = PendingCall {
            id: 0,
            sent: clients[0].post(&garbage),
            out: garbage,
            deadline: now + DEFAULT_RPC_DEADLINE,
            resend_at: now + attempt_timeout(DEFAULT_RPC_DEADLINE),
        };
        let resp = clients[1].call(&Request::Alloc { size: 7 }).unwrap();
        assert_eq!(resp, Response::Alloc { addr: 7 });
        let code = err_code::BAD_REQUEST;
        assert_eq!(
            clients[0].finish(malformed).unwrap(),
            Response::Err { code }
        );
        let resp = clients[0].call(&Request::Alloc { size: 8 }).unwrap();
        assert_eq!(resp, Response::Alloc { addr: 8 });
    }

    /// A request lost on the wire fails the way RC fails: the call ends
    /// at once with the SEND's transport-error completion (no re-send on
    /// the dead queue pair), and the server never saw it.
    #[test]
    fn call_fails_on_a_lost_request() {
        let plane = FaultPlane::from_spec("drop:verb=send,at=1", 7, TelemetryConfig::disabled());
        let mut config = FabricConfig::instant();
        config.faults = Some(Arc::new(plane.unwrap()));
        let (_fabric, clients, servers, cq) = rpc_conns(config, 1, Duration::from_millis(500));
        let served = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&served);
        let _loop = serve(servers, cq, move |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
            Response::Ok
        });
        let t0 = Instant::now();
        let err = clients[0].call(&Request::Alloc { size: 9 }).unwrap_err();
        assert_eq!(
            err,
            GengarError::Rdma(RdmaError::CompletionError(
                gengar_rdma::WcStatus::TransportError
            ))
        );
        assert!(
            t0.elapsed() < Duration::from_millis(25),
            "waited out a patience"
        );
        assert_eq!(clients[0].ep.qp().state(), gengar_rdma::QpState::Error);
        assert_eq!(served.load(Ordering::Relaxed), 0);
    }

    /// A handler slower than the call's patience gets the request re-sent,
    /// and the re-sent copy is answered too. That late answer must not be
    /// taken by the next call: every call gets the response to its own
    /// request.
    #[test]
    fn late_response_is_not_handed_to_the_next_call() {
        let (_fabric, clients, servers, cq) =
            rpc_conns(FabricConfig::instant(), 1, Duration::from_millis(200));
        let _loop = serve(servers, cq, |_, req| match req {
            Request::Alloc { size } => {
                if size == 1 {
                    // Longer than the 10 ms patience of a 200 ms deadline.
                    std::thread::sleep(Duration::from_millis(25));
                }
                Response::Alloc { addr: size }
            }
            _ => Response::Ok,
        });
        for size in 1..=3 {
            let resp = clients[0].call(&Request::Alloc { size }).unwrap();
            assert_eq!(resp, Response::Alloc { addr: size }, "call {size}");
        }
        // Exactly one receive stays posted, however many copies were sent.
        assert_eq!(clients[0].ep.qp().posted_recvs(), 1);
    }

    /// A request re-sent because its handler outran the patience runs
    /// once: the re-sent copies are answered from the first run, so an
    /// `Alloc` allocates once per call.
    #[test]
    fn a_resent_request_runs_its_handler_once() {
        let (_fabric, clients, servers, cq) =
            rpc_conns(FabricConfig::instant(), 1, Duration::from_millis(200));
        let runs = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&runs);
        let _loop = serve(servers, cq, move |_, req| match req {
            Request::Alloc { size } => {
                count.fetch_add(1, Ordering::Relaxed);
                // Longer than the 10 ms patience of a 200 ms deadline.
                std::thread::sleep(Duration::from_millis(25));
                Response::Alloc { addr: size }
            }
            _ => Response::Ok,
        });
        for size in 1..=3 {
            let resp = clients[0].call(&Request::Alloc { size }).unwrap();
            assert_eq!(resp, Response::Alloc { addr: size }, "call {size}");
        }
        assert_eq!(runs.load(Ordering::Relaxed), 3);
    }
}
