//! Control-plane RPC over two-sided SEND/RECV verbs.
//!
//! Each client-server connection dedicates one RC queue pair to RPC. Each
//! side owns a small registered message buffer with an outgoing slot and an
//! incoming slot of [`MAX_MSG`] bytes. Calls are synchronous (one
//! outstanding request per connection), which matches how Gengar uses the
//! control plane: the data plane is entirely one-sided. A caller holding
//! several connections may overlap one call on each
//! (`RpcClient::begin` / `RpcClient::finish`).
//!
//! Every request carries a per-connection call id that its response
//! echoes. A request is re-sent when its response is late, so one call can
//! be answered more than once; the client keeps exactly one receive posted
//! and drops any response whose id is not the current call's, so a late
//! answer is never taken for the next call's.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_rdma::{Endpoint, MemoryRegion, Payload, RdmaError, Sge};

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
    /// A request lost to a transport fault is re-sent: the wait for the
    /// response uses the attempt-scale patience of `retry::attempt_timeout`
    /// (a response not back by then is lost, not slow), and timeouts are
    /// retried until the call deadline expires. The queue pair stays healthy across such
    /// losses, so re-posting is safe. A re-sent request that *was*
    /// processed is processed again, which is idempotent for every request
    /// in the protocol except `Alloc`, where it can at worst leak one
    /// allocation per fault; whichever copy's answer arrives first is the
    /// call's response, and the others are dropped by call id.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`GengarError::Rdma`] — a dead queue
    /// pair as `Rdma(QpError)`/`Rdma(CompletionError)`, deadline exhaustion
    /// as `Rdma(Timeout)`; malformed responses as
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
                if call.sent.is_err() || Instant::now() >= call.resend_at {
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

/// Server half of an RPC connection: a loop that decodes requests, invokes
/// the handler and sends responses until shutdown or transport failure.
#[derive(Debug)]
pub(crate) struct RpcServerConn {
    ep: Endpoint,
    buf: Arc<MemoryRegion>,
}

impl RpcServerConn {
    /// Wraps the server-side endpoint and message buffer.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is smaller than [`RPC_BUF_BYTES`].
    pub(crate) fn new(ep: Endpoint, buf: Arc<MemoryRegion>) -> Self {
        assert!(
            buf.len() >= RPC_BUF_BYTES,
            "rpc buffer needs {RPC_BUF_BYTES} bytes, got {}",
            buf.len()
        );
        RpcServerConn { ep, buf }
    }

    /// Serves requests until `shutdown` is set or the connection dies,
    /// echoing each request's call id in its response.
    ///
    /// Malformed requests are answered with
    /// [`Response::Err`]`{ code: BAD_REQUEST }` under call id 0 (no call
    /// uses it) rather than killing the connection.
    pub(crate) fn serve<H>(&self, shutdown: &AtomicBool, mut handler: H)
    where
        H: FnMut(Request) -> Response,
    {
        while !shutdown.load(Ordering::Relaxed) {
            if self
                .ep
                .post_recv(Sge::new(self.buf.lkey(), IN_SLOT, MAX_MSG as u64))
                .is_err()
            {
                return;
            }
            // Poll with a short patience so shutdown is honoured promptly.
            let wc = loop {
                match classify_recv(&self.ep, Duration::from_millis(50)) {
                    Ok(wc) => break wc,
                    Err(RecvFailure::WouldBlock) => {
                        if shutdown.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                    Err(RecvFailure::Dead) => return,
                }
            };
            let mut req_bytes = vec![0u8; wc.byte_len as usize];
            if self.buf.region().read(IN_SLOT, &mut req_bytes).is_err() {
                return;
            }
            let (resp, call) = match Request::decode_traced(&req_bytes) {
                Ok((req, ctx, call)) => {
                    // Serve under the issuing client op's trace context so
                    // server-side spans land in the same causal trace.
                    let _ctx = ctx.adopt();
                    let mut serve_span = gengar_telemetry::Tracer::global().span("rpc.serve");
                    serve_span.set_detail(req_bytes.first().copied().unwrap_or(0) as u64);
                    (handler(req), call)
                }
                Err(_) => {
                    let code = crate::proto::err_code::BAD_REQUEST;
                    (Response::Err { code }, 0)
                }
            };
            let mut out = Vec::with_capacity(256);
            resp.encode(call, &mut out);
            if self.buf.region().write(OUT_SLOT, &out).is_err() {
                return;
            }
            if self
                .ep
                .send(
                    Payload::Sge(Sge::new(self.buf.lkey(), OUT_SLOT, out.len() as u64)),
                    None,
                )
                .is_err()
            {
                return;
            }
        }
    }
}

/// Internal distinction between "no request yet" and "connection dead".
enum RecvFailure {
    WouldBlock,
    Dead,
}

fn classify_recv(ep: &Endpoint, timeout: Duration) -> Result<gengar_rdma::Wc, RecvFailure> {
    match ep.recv(timeout) {
        Ok(wc) => Ok(wc),
        Err(RdmaError::Timeout) => Err(RecvFailure::WouldBlock),
        Err(_) => Err(RecvFailure::Dead),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind, MemRegion};
    use gengar_rdma::{Access, Fabric, FabricConfig, QpOptions};

    fn rpc_pair(deadline: Duration) -> (Arc<Fabric>, RpcClient, RpcServerConn) {
        let fabric = Fabric::new(FabricConfig::instant());
        let c_node = fabric.add_node();
        let s_node = fabric.add_node();
        let c_pd = c_node.alloc_pd();
        let s_pd = s_node.alloc_pd();
        let c_dev = Arc::new(
            MemDevice::new(0, DeviceProfile::instant(MemKind::Dram), RPC_BUF_BYTES).unwrap(),
        );
        let s_dev = Arc::new(
            MemDevice::new(1, DeviceProfile::instant(MemKind::Dram), RPC_BUF_BYTES).unwrap(),
        );
        let c_buf = c_pd.reg_mr(MemRegion::whole(c_dev), Access::all()).unwrap();
        let s_buf = s_pd.reg_mr(MemRegion::whole(s_dev), Access::all()).unwrap();
        let (ce, se) =
            Endpoint::pair((&c_node, &c_pd), (&s_node, &s_pd), QpOptions::default()).unwrap();
        let client = RpcClient::with_deadline(ce, c_buf, deadline);
        let server = RpcServerConn::new(se, s_buf);
        (fabric, client, server)
    }

    #[test]
    fn call_roundtrips_through_handler() {
        let (_fabric, client, server) = rpc_pair(DEFAULT_RPC_DEADLINE);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let t = std::thread::spawn(move || {
            server.serve(&shutdown2, |req| match req {
                Request::Alloc { size } => Response::Alloc { addr: size * 2 },
                _ => Response::Ok,
            });
        });
        let resp = client.call(&Request::Alloc { size: 21 }).unwrap();
        assert_eq!(resp, Response::Alloc { addr: 42 });
        let resp = client.call(&Request::OpenStaging).unwrap();
        assert_eq!(resp, Response::Ok);
        shutdown.store(true, Ordering::Relaxed);
        t.join().unwrap();
    }

    #[test]
    fn many_sequential_calls() {
        let (_fabric, client, server) = rpc_pair(DEFAULT_RPC_DEADLINE);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let t = std::thread::spawn(move || {
            let mut count = 0u64;
            server.serve(&shutdown2, |_req| {
                count += 1;
                Response::Durable { seq: count }
            });
        });
        for i in 1..=100u64 {
            let resp = client.call(&Request::OpenStaging).unwrap();
            assert_eq!(resp, Response::Durable { seq: i });
        }
        shutdown.store(true, Ordering::Relaxed);
        t.join().unwrap();
    }

    /// Calls begun on two connections overlap: both requests are out
    /// before either response is awaited, and they finish in any order.
    #[test]
    fn begun_calls_on_two_connections_finish_in_any_order() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        for id in [10u64, 20] {
            let (fabric, client, server) = rpc_pair(DEFAULT_RPC_DEADLINE);
            let shutdown = Arc::clone(&shutdown);
            servers.push(std::thread::spawn(move || {
                server.serve(&shutdown, |req| match req {
                    Request::Alloc { size } => Response::Alloc { addr: size + id },
                    _ => Response::Ok,
                });
            }));
            clients.push((fabric, client));
        }
        let calls: Vec<PendingCall> = clients
            .iter()
            .map(|(_, c)| c.begin(&Request::Alloc { size: 1 }))
            .collect();
        for ((_, client), (call, id)) in clients.iter().zip(calls.into_iter().zip([10, 20])).rev() {
            let resp = client.finish(call).unwrap();
            assert_eq!(resp, Response::Alloc { addr: 1 + id });
        }
        // The connection is free again: a plain call follows a begun one.
        assert_eq!(
            clients[0].1.call(&Request::OpenStaging).unwrap(),
            Response::Ok
        );
        shutdown.store(true, Ordering::Relaxed);
        for t in servers {
            t.join().unwrap();
        }
    }

    #[test]
    fn server_shutdown_stops_loop() {
        let (_fabric, _client, server) = rpc_pair(DEFAULT_RPC_DEADLINE);
        let shutdown = Arc::new(AtomicBool::new(true));
        // Already-set shutdown returns promptly.
        server.serve(&shutdown, |_req| Response::Ok);
    }

    #[test]
    fn call_retries_through_a_dropped_request() {
        use gengar_rdma::{FaultPlane, TelemetryConfig};
        // Drop the very first SEND on the fabric: the first request
        // vanishes in flight and the call must transparently re-send.
        let plane = Arc::new(
            FaultPlane::from_spec("drop:verb=send,at=1", 7, TelemetryConfig::disabled()).unwrap(),
        );
        let mut cfg = FabricConfig::instant();
        cfg.faults = Some(Arc::clone(&plane));
        let fabric = Fabric::new(cfg);
        let c_node = fabric.add_node();
        let s_node = fabric.add_node();
        let c_pd = c_node.alloc_pd();
        let s_pd = s_node.alloc_pd();
        let c_dev = Arc::new(
            MemDevice::new(0, DeviceProfile::instant(MemKind::Dram), RPC_BUF_BYTES).unwrap(),
        );
        let s_dev = Arc::new(
            MemDevice::new(1, DeviceProfile::instant(MemKind::Dram), RPC_BUF_BYTES).unwrap(),
        );
        let c_buf = c_pd.reg_mr(MemRegion::whole(c_dev), Access::all()).unwrap();
        let s_buf = s_pd.reg_mr(MemRegion::whole(s_dev), Access::all()).unwrap();
        let (mut ce, se) =
            Endpoint::pair((&c_node, &c_pd), (&s_node, &s_pd), QpOptions::default()).unwrap();
        // Keep the dropped SEND's own spin-wait short so the retry happens
        // well inside the call deadline.
        ce.set_op_timeout(Duration::from_millis(25));
        let client = RpcClient::with_deadline(ce, c_buf, Duration::from_millis(500));
        let server = RpcServerConn::new(se, s_buf);

        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let t = std::thread::spawn(move || {
            server.serve(&shutdown2, |req| match req {
                Request::Alloc { size } => Response::Alloc { addr: size + 1 },
                _ => Response::Ok,
            });
        });
        let resp = client.call(&Request::Alloc { size: 9 }).unwrap();
        assert_eq!(resp, Response::Alloc { addr: 10 });
        shutdown.store(true, Ordering::Relaxed);
        t.join().unwrap();
    }

    /// A handler slower than the call's patience gets the request re-sent,
    /// and the re-sent copy is answered too. That late answer must not be
    /// taken by the next call: every call gets the response to its own
    /// request.
    #[test]
    fn late_response_is_not_handed_to_the_next_call() {
        let (_fabric, client, server) = rpc_pair(Duration::from_millis(200));
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let t = std::thread::spawn(move || {
            server.serve(&shutdown2, |req| match req {
                Request::Alloc { size } => {
                    if size == 1 {
                        // Longer than the 10 ms patience of a 200 ms deadline.
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Response::Alloc { addr: size }
                }
                _ => Response::Ok,
            });
        });
        for size in 1..=3 {
            let resp = client.call(&Request::Alloc { size }).unwrap();
            assert_eq!(resp, Response::Alloc { addr: size }, "call {size}");
        }
        // Exactly one receive stays posted, however many copies were sent.
        assert_eq!(client.ep.qp().posted_recvs(), 1);
        shutdown.store(true, Ordering::Relaxed);
        t.join().unwrap();
    }
}
