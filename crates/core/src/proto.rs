//! Control-plane wire protocol (encoded by hand over SEND/RECV).
//!
//! Messages are small (bounded by [`MAX_MSG`]) and carry fixed-width
//! little-endian fields behind a one-byte opcode. The data plane never uses
//! these messages — reads, writes and atomics are one-sided.

use bytes::{Buf, BufMut};

use crate::error::GengarError;

/// Maximum encoded message size (fits one RPC buffer slot).
pub const MAX_MSG: usize = 4096;

/// Maximum tenant-name bytes carried in a `Mount` request. Longer names
/// are truncated on encode (a config error, not a wire hazard).
pub const MAX_TENANT: usize = 64;

/// Maximum JSON bytes an `Inspect` response carries: [`MAX_MSG`] minus the
/// opcode, call id and length prefix. The health plane builds its document
/// against this budget (dropping the oldest window digests first), so
/// encode-side truncation is a backstop, not the sizing mechanism.
pub const MAX_INSPECT_JSON: usize = MAX_MSG - 13;

/// Client-to-server requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Learn the server's exported regions and feature flags, declaring
    /// the tenant this connection bills to (QoS identity).
    Mount {
        /// Tenant name (see [`crate::config::ClientConfig::tenant`]).
        tenant: String,
    },
    /// Allocate an object with `size` payload bytes.
    Alloc {
        /// Payload size in bytes.
        size: u64,
    },
    /// Free the object whose payload starts at `addr` (raw global address).
    Free {
        /// Raw global address of the payload base.
        addr: u64,
    },
    /// Make `[addr, addr+len)` durable and invalidate any cached copy
    /// (direct-write path).
    FlushRange {
        /// Raw global address of the written payload base.
        addr: u64,
        /// Length of the written range.
        len: u64,
    },
    /// Retire ring `client_id` — a reconnecting client's old ring, which
    /// drains nothing more once this is answered — and read its durable
    /// watermark.
    QueryDurable {
        /// Ring owner.
        client_id: u32,
    },
    /// Promote this server to primary for the objects of dead server
    /// `primary` (sent to the *backup*). The backup replays un-drained
    /// mirror-ring records into its shadow region before answering, so a
    /// client that gets `Promoted` back may immediately read every settled
    /// write through the shadow.
    Promote {
        /// Pool id of the dead primary being failed away from.
        primary: u8,
    },
    /// Ask a server which pool member currently backs it up (clients use
    /// this to re-open a mirror lane after the old backup died).
    QueryReplica,
    /// Admin introspection: ask the server for its live health document
    /// (component states, SLO standings, window digests). Served from the
    /// health plane's already-computed state, so it is cheap enough to
    /// poll — `gengar-top` calls it once per server per refresh.
    Inspect,
}

/// Exported-region descriptions returned by `Mount`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MountInfo {
    /// Server identifier within the pool.
    pub server_id: u8,
    /// rkey of the NVM data region.
    pub nvm_rkey: u32,
    /// rkey of the DRAM cache region.
    pub cache_rkey: u32,
    /// rkey of the staging region.
    pub staging_rkey: u32,
    /// rkey of the control region.
    pub ctl_rkey: u32,
    /// rkey of the report region: this client's report ring, remap
    /// mailbox and consumed cursor ([`crate::hotness`]).
    pub report_rkey: u32,
    /// NVM bytes exported.
    pub nvm_capacity: u64,
    /// Whether server-side hot-data caching is enabled.
    pub enable_cache: bool,
    /// Whether the proxy write path is enabled.
    pub enable_proxy: bool,
    /// Staging-ring slot payload capacity (bytes).
    pub slot_payload: u64,
    /// Slots per staging ring.
    pub slots_per_ring: u32,
    /// rkey of the replication shadow region ([`NO_BACKUP`]-paired `0`
    /// when replication is off). After a failover, clients address the
    /// promoted ward's data through this region at unchanged offsets.
    pub shadow_rkey: u32,
    /// Pool id of the server backing this one up ([`NO_BACKUP`] = none).
    pub backup: u8,
}

/// `MountInfo::backup` value meaning "no backup assigned".
pub const NO_BACKUP: u8 = 0xFF;

impl MountInfo {
    /// The staging-ring geometry this mount advertises. Client and server
    /// both derive their ring arithmetic from this one value, so the two
    /// sides can never disagree on slot sizes or offsets.
    pub fn ring_layout(&self) -> crate::proxy::RingLayout {
        crate::proxy::RingLayout {
            slot_payload: self.slot_payload,
            slots: self.slots_per_ring,
        }
    }
}

/// Server-to-client responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Mount succeeded.
    Mount(MountInfo),
    /// Allocation succeeded; `addr` is the payload base (raw).
    Alloc {
        /// Raw global address of the payload base.
        addr: u64,
    },
    /// Drained watermark of the queried ring.
    Durable {
        /// Highest drained (and NVM-flushed) sequence number.
        seq: u64,
    },
    /// Generic success.
    Ok,
    /// Answer to `QueryReplica`: the server's current backup assignment.
    Replica {
        /// Pool id of the current backup ([`NO_BACKUP`] = none).
        backup: u8,
    },
    /// Answer to `Promote`: the backup now serves the ward's objects from
    /// its shadow region.
    Promoted {
        /// Mirror-ring records replayed into the shadow during promotion.
        replayed: u64,
    },
    /// Answer to `Inspect`: the versioned health document (see
    /// DESIGN.md § Live health & SLO plane for the schema).
    Inspect {
        /// JSON document, at most [`MAX_INSPECT_JSON`] bytes.
        json: String,
    },
    /// The request failed.
    Err {
        /// Error code (see [`err_code`]).
        code: u16,
    },
}

/// Error codes carried in [`Response::Err`].
pub mod err_code {
    /// Out of pool memory.
    pub const OOM: u16 = 1;
    /// Object too large.
    pub const TOO_LARGE: u16 = 2;
    /// Invalid address.
    pub const INVALID_ADDR: u16 = 3;
    /// Double free.
    pub const DOUBLE_FREE: u16 = 4;
    /// Server at client capacity.
    pub const NO_CAPACITY: u16 = 5;
    /// Malformed request.
    pub const BAD_REQUEST: u16 = 6;
    /// Tenant over its QoS budget; retry after backing off.
    pub const THROTTLED: u16 = 7;
    /// A client holds the object's lock; retry once it is released.
    pub const LOCKED: u16 = 8;
}

/// Maps an error-code response to the client-visible error.
pub fn error_for_code(code: u16, requested: u64) -> GengarError {
    match code {
        err_code::OOM => GengarError::OutOfMemory { requested },
        err_code::TOO_LARGE => GengarError::ObjectTooLarge {
            requested,
            max: crate::alloc::MAX_CLASS,
        },
        err_code::INVALID_ADDR | err_code::DOUBLE_FREE => {
            GengarError::ProtocolViolation("server rejected address")
        }
        err_code::NO_CAPACITY => GengarError::ProtocolViolation("server at client capacity"),
        err_code::THROTTLED => GengarError::Throttled,
        _ => GengarError::ProtocolViolation("unknown error code"),
    }
}

/// Trace context carried on every request, right after the opcode byte:
/// `[trace u64][parent span u64]`, both 0 when the caller is untraced.
/// The server adopts it around the handler, so server-side spans (RPC
/// service time, staging setup, durable-watermark queries) land in the
/// originating client op's trace — including the RPCs a reconnect issues,
/// which is what keeps a trace causally whole across connection loss.
/// The call id follows it on the wire (see [`Request::encode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Trace id of the issuing op (0 = untraced).
    pub trace: u64,
    /// Span id of the caller's active span (0 = none).
    pub parent: u64,
}

impl TraceCtx {
    /// Captures the calling thread's current trace context.
    pub fn current() -> Self {
        let (trace, parent) = gengar_telemetry::current_context();
        TraceCtx {
            trace: trace.0,
            parent: parent.0,
        }
    }

    /// Installs this context on the calling thread until the guard drops.
    pub fn adopt(self) -> gengar_telemetry::ContextGuard {
        gengar_telemetry::adopt(
            gengar_telemetry::TraceId(self.trace),
            gengar_telemetry::SpanId(self.parent),
        )
    }
}

/// Encoded size of the request header after the opcode: [`TraceCtx`] and
/// the call id.
const REQ_HEADER_BYTES: usize = 24;

const REQ_MOUNT: u8 = 1;
const REQ_ALLOC: u8 = 2;
const REQ_FREE: u8 = 3;
const REQ_FLUSH_RANGE: u8 = 6;
const REQ_QUERY_DURABLE: u8 = 8;
const REQ_PROMOTE: u8 = 9;
const REQ_QUERY_REPLICA: u8 = 10;
const REQ_INSPECT: u8 = 11;

const RESP_MOUNT: u8 = 129;
const RESP_ALLOC: u8 = 130;
const RESP_DURABLE: u8 = 133;
const RESP_OK: u8 = 134;
const RESP_ERR: u8 = 135;
const RESP_REPLICA: u8 = 136;
const RESP_PROMOTED: u8 = 137;
const RESP_INSPECT: u8 = 138;

impl Request {
    fn tag(&self) -> u8 {
        match self {
            Request::Mount { .. } => REQ_MOUNT,
            Request::Alloc { .. } => REQ_ALLOC,
            Request::Free { .. } => REQ_FREE,
            Request::FlushRange { .. } => REQ_FLUSH_RANGE,
            Request::QueryDurable { .. } => REQ_QUERY_DURABLE,
            Request::Promote { .. } => REQ_PROMOTE,
            Request::QueryReplica => REQ_QUERY_REPLICA,
            Request::Inspect => REQ_INSPECT,
        }
    }

    /// Encodes into `buf` as `[tag][trace ctx][call u64][fields]`,
    /// capturing the calling thread's trace context — encode happens on the
    /// issuing client thread, so the op's trace id rides the request for
    /// free. `call` is the connection's id for this call; the response
    /// echoes it, so a late answer to an earlier call is recognisable.
    pub fn encode(&self, call: u64, buf: &mut Vec<u8>) {
        let ctx = TraceCtx::current();
        buf.put_u8(self.tag());
        buf.put_u64_le(ctx.trace);
        buf.put_u64_le(ctx.parent);
        buf.put_u64_le(call);
        match self {
            Request::Mount { tenant } => {
                let name = tenant.as_bytes();
                let n = name.len().min(MAX_TENANT);
                buf.put_u16_le(n as u16);
                buf.put_slice(&name[..n]);
            }
            Request::Alloc { size } => buf.put_u64_le(*size),
            Request::Free { addr } => buf.put_u64_le(*addr),
            Request::FlushRange { addr, len } => {
                buf.put_u64_le(*addr);
                buf.put_u64_le(*len);
            }
            Request::QueryDurable { client_id } => buf.put_u32_le(*client_id),
            Request::Promote { primary } => buf.put_u8(*primary),
            Request::QueryReplica => {}
            Request::Inspect => {}
        }
    }

    /// Decodes from `buf`, discarding the header.
    ///
    /// # Errors
    ///
    /// [`GengarError::ProtocolViolation`] on truncated or unknown input.
    pub fn decode(buf: &[u8]) -> Result<Request, GengarError> {
        Self::decode_traced(buf).map(|(req, ..)| req)
    }

    /// Decodes from `buf`, returning the request, the trace context of the
    /// client op that issued it and its call id.
    ///
    /// # Errors
    ///
    /// [`GengarError::ProtocolViolation`] on truncated or unknown input.
    pub(crate) fn decode_traced(mut buf: &[u8]) -> Result<(Request, TraceCtx, u64), GengarError> {
        let malformed = GengarError::ProtocolViolation("malformed request");
        if buf.is_empty() {
            return Err(malformed);
        }
        let tag = buf.get_u8();
        if buf.remaining() < REQ_HEADER_BYTES {
            return Err(malformed);
        }
        let ctx = TraceCtx {
            trace: buf.get_u64_le(),
            parent: buf.get_u64_le(),
        };
        let call = buf.get_u64_le();
        let req = match tag {
            REQ_MOUNT => {
                if buf.remaining() < 2 {
                    return Err(malformed);
                }
                let n = buf.get_u16_le() as usize;
                if n > MAX_TENANT || buf.remaining() < n {
                    return Err(malformed);
                }
                let mut name = vec![0u8; n];
                buf.copy_to_slice(&mut name);
                let tenant = String::from_utf8(name)
                    .map_err(|_| GengarError::ProtocolViolation("tenant name not utf-8"))?;
                Request::Mount { tenant }
            }
            REQ_ALLOC => {
                if buf.remaining() < 8 {
                    return Err(malformed);
                }
                Request::Alloc {
                    size: buf.get_u64_le(),
                }
            }
            REQ_FREE => {
                if buf.remaining() < 8 {
                    return Err(malformed);
                }
                Request::Free {
                    addr: buf.get_u64_le(),
                }
            }
            REQ_FLUSH_RANGE => {
                if buf.remaining() < 16 {
                    return Err(malformed);
                }
                Request::FlushRange {
                    addr: buf.get_u64_le(),
                    len: buf.get_u64_le(),
                }
            }
            REQ_QUERY_DURABLE => {
                if buf.remaining() < 4 {
                    return Err(malformed);
                }
                Request::QueryDurable {
                    client_id: buf.get_u32_le(),
                }
            }
            REQ_PROMOTE => {
                if buf.remaining() < 1 {
                    return Err(malformed);
                }
                Request::Promote {
                    primary: buf.get_u8(),
                }
            }
            REQ_QUERY_REPLICA => Request::QueryReplica,
            REQ_INSPECT => Request::Inspect,
            _ => return Err(GengarError::ProtocolViolation("unknown request opcode")),
        };
        Ok((req, ctx, call))
    }
}

impl Response {
    fn tag(&self) -> u8 {
        match self {
            Response::Mount(_) => RESP_MOUNT,
            Response::Alloc { .. } => RESP_ALLOC,
            Response::Durable { .. } => RESP_DURABLE,
            Response::Ok => RESP_OK,
            Response::Replica { .. } => RESP_REPLICA,
            Response::Promoted { .. } => RESP_PROMOTED,
            Response::Inspect { .. } => RESP_INSPECT,
            Response::Err { .. } => RESP_ERR,
        }
    }

    /// Encodes into `buf` as `[tag][call u64][fields]`, echoing the call
    /// id of the request it answers.
    pub fn encode(&self, call: u64, buf: &mut Vec<u8>) {
        buf.put_u8(self.tag());
        buf.put_u64_le(call);
        match self {
            Response::Mount(m) => {
                buf.put_u8(m.server_id);
                buf.put_u32_le(m.nvm_rkey);
                buf.put_u32_le(m.cache_rkey);
                buf.put_u32_le(m.staging_rkey);
                buf.put_u32_le(m.ctl_rkey);
                buf.put_u32_le(m.report_rkey);
                buf.put_u64_le(m.nvm_capacity);
                buf.put_u8(m.enable_cache as u8);
                buf.put_u8(m.enable_proxy as u8);
                buf.put_u64_le(m.slot_payload);
                buf.put_u32_le(m.slots_per_ring);
                buf.put_u32_le(m.shadow_rkey);
                buf.put_u8(m.backup);
            }
            Response::Alloc { addr } => buf.put_u64_le(*addr),
            Response::Durable { seq } => buf.put_u64_le(*seq),
            Response::Ok => {}
            Response::Replica { backup } => buf.put_u8(*backup),
            Response::Promoted { replayed } => buf.put_u64_le(*replayed),
            Response::Inspect { json } => {
                // Backstop: truncate on a char boundary so an oversized
                // document yields a short-but-valid UTF-8 payload instead
                // of overflowing the RPC slot.
                let mut n = json.len().min(MAX_INSPECT_JSON);
                while n > 0 && !json.is_char_boundary(n) {
                    n -= 1;
                }
                buf.put_u32_le(n as u32);
                buf.put_slice(&json.as_bytes()[..n]);
            }
            Response::Err { code } => buf.put_u16_le(*code),
        }
    }

    /// Decodes from `buf`, returning the response and the call id it
    /// answers.
    ///
    /// # Errors
    ///
    /// [`GengarError::ProtocolViolation`] on truncated or unknown input.
    pub fn decode(mut buf: &[u8]) -> Result<(Response, u64), GengarError> {
        let malformed = GengarError::ProtocolViolation("malformed response");
        if buf.remaining() < 9 {
            return Err(malformed);
        }
        let tag = buf.get_u8();
        let call = buf.get_u64_le();
        let resp = match tag {
            RESP_MOUNT => {
                if buf.remaining() < 1 + 20 + 8 + 2 + 12 + 5 {
                    return Err(malformed);
                }
                Response::Mount(MountInfo {
                    server_id: buf.get_u8(),
                    nvm_rkey: buf.get_u32_le(),
                    cache_rkey: buf.get_u32_le(),
                    staging_rkey: buf.get_u32_le(),
                    ctl_rkey: buf.get_u32_le(),
                    report_rkey: buf.get_u32_le(),
                    nvm_capacity: buf.get_u64_le(),
                    enable_cache: buf.get_u8() != 0,
                    enable_proxy: buf.get_u8() != 0,
                    slot_payload: buf.get_u64_le(),
                    slots_per_ring: buf.get_u32_le(),
                    shadow_rkey: buf.get_u32_le(),
                    backup: buf.get_u8(),
                })
            }
            RESP_ALLOC => {
                if buf.remaining() < 8 {
                    return Err(malformed);
                }
                Response::Alloc {
                    addr: buf.get_u64_le(),
                }
            }
            RESP_DURABLE => {
                if buf.remaining() < 8 {
                    return Err(malformed);
                }
                Response::Durable {
                    seq: buf.get_u64_le(),
                }
            }
            RESP_OK => Response::Ok,
            RESP_REPLICA => {
                if buf.remaining() < 1 {
                    return Err(malformed);
                }
                Response::Replica {
                    backup: buf.get_u8(),
                }
            }
            RESP_PROMOTED => {
                if buf.remaining() < 8 {
                    return Err(malformed);
                }
                Response::Promoted {
                    replayed: buf.get_u64_le(),
                }
            }
            RESP_INSPECT => {
                if buf.remaining() < 4 {
                    return Err(malformed);
                }
                let n = buf.get_u32_le() as usize;
                if n > MAX_INSPECT_JSON || buf.remaining() < n {
                    return Err(malformed);
                }
                let mut bytes = vec![0u8; n];
                buf.copy_to_slice(&mut bytes);
                let json = String::from_utf8(bytes)
                    .map_err(|_| GengarError::ProtocolViolation("inspect json not utf-8"))?;
                Response::Inspect { json }
            }
            RESP_ERR => {
                if buf.remaining() < 2 {
                    return Err(malformed);
                }
                Response::Err {
                    code: buf.get_u16_le(),
                }
            }
            _ => return Err(GengarError::ProtocolViolation("unknown response opcode")),
        };
        Ok((resp, call))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let mut buf = Vec::new();
        r.encode(7, &mut buf);
        assert!(buf.len() <= MAX_MSG);
        let (req, _, call) = Request::decode_traced(&buf).unwrap();
        assert_eq!((req, call), (r, 7));
    }

    fn roundtrip_resp(r: Response) {
        let mut buf = Vec::new();
        r.encode(7, &mut buf);
        assert!(buf.len() <= MAX_MSG);
        assert_eq!(Response::decode(&buf).unwrap(), (r, 7));
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Mount {
            tenant: "default".to_owned(),
        });
        roundtrip_req(Request::Mount {
            tenant: String::new(),
        });
        roundtrip_req(Request::Alloc { size: 12345 });
        roundtrip_req(Request::Free { addr: u64::MAX / 3 });
        roundtrip_req(Request::FlushRange { addr: 64, len: 128 });
        roundtrip_req(Request::QueryDurable { client_id: 4 });
        roundtrip_req(Request::Promote { primary: 3 });
        roundtrip_req(Request::QueryReplica);
        roundtrip_req(Request::Inspect);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Mount(MountInfo {
            server_id: 2,
            nvm_rkey: 10,
            cache_rkey: 11,
            staging_rkey: 12,
            ctl_rkey: 13,
            report_rkey: 15,
            nvm_capacity: 1 << 30,
            enable_cache: true,
            enable_proxy: false,
            slot_payload: 4064,
            slots_per_ring: 16,
            shadow_rkey: 14,
            backup: 1,
        }));
        roundtrip_resp(Response::Alloc { addr: 42 });
        roundtrip_resp(Response::Durable { seq: 77 });
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Replica { backup: NO_BACKUP });
        roundtrip_resp(Response::Replica { backup: 2 });
        roundtrip_resp(Response::Promoted { replayed: 12 });
        roundtrip_resp(Response::Inspect {
            json: String::new(),
        });
        roundtrip_resp(Response::Inspect {
            json: "{\"v\":1,\"overall\":\"healthy\"}".to_owned(),
        });
        roundtrip_resp(Response::Err {
            code: err_code::OOM,
        });
    }

    #[test]
    fn max_inspect_json_fits_and_oversize_truncates_on_boundary() {
        // Exactly at the budget: round-trips whole.
        let json = "x".repeat(MAX_INSPECT_JSON);
        let mut buf = Vec::new();
        Response::Inspect { json: json.clone() }.encode(1, &mut buf);
        assert_eq!(buf.len(), MAX_MSG);
        assert_eq!(
            Response::decode(&buf).unwrap().0,
            Response::Inspect { json }
        );

        // Over budget with a multi-byte char straddling the cut: the
        // encoder truncates back to a char boundary, so the payload stays
        // valid UTF-8 and within MAX_MSG.
        let mut json = "x".repeat(MAX_INSPECT_JSON - 1);
        json.push('é'); // 2 bytes: one past the budget
        json.push_str("tail");
        let mut buf = Vec::new();
        Response::Inspect { json }.encode(1, &mut buf);
        assert!(buf.len() <= MAX_MSG);
        match Response::decode(&buf).unwrap().0 {
            Response::Inspect { json } => {
                assert_eq!(json.len(), MAX_INSPECT_JSON - 1);
                assert!(json.chars().all(|c| c == 'x'));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_inspect_rejected() {
        let mut buf = Vec::new();
        Response::Inspect {
            json: "{\"v\":1}".to_owned(),
        }
        .encode(1, &mut buf);
        assert!(Response::decode(&buf[..buf.len() - 2]).is_err());
        assert!(Response::decode(&buf[..11]).is_err());
        // A length prefix past the budget is rejected even if bytes follow.
        let mut bad = buf[..9].to_vec();
        bad.extend_from_slice(&(MAX_INSPECT_JSON as u32 + 1).to_le_bytes());
        bad.extend(std::iter::repeat_n(b'x', MAX_INSPECT_JSON + 1));
        assert!(Response::decode(&bad).is_err());
        // Non-UTF-8 payload is rejected.
        let mut bad = buf[..9].to_vec();
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Response::decode(&bad).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[REQ_ALLOC, 1, 2]).is_err());
        assert!(Response::decode(&[RESP_ALLOC]).is_err());
        assert!(
            Response::decode(&[RESP_OK, 1, 2]).is_err(),
            "truncated call id"
        );
        assert!(Request::decode(&[250]).is_err());
        assert!(Response::decode(&[250]).is_err());
    }

    #[test]
    fn request_carries_trace_context() {
        let mut buf = Vec::new();
        {
            let _g =
                gengar_telemetry::adopt(gengar_telemetry::TraceId(42), gengar_telemetry::SpanId(7));
            Request::Alloc { size: 1 }.encode(3, &mut buf);
        }
        let (req, ctx, call) = Request::decode_traced(&buf).unwrap();
        assert_eq!(call, 3);
        assert_eq!(req, Request::Alloc { size: 1 });
        assert_eq!(
            ctx,
            TraceCtx {
                trace: 42,
                parent: 7
            }
        );
        // An untraced caller encodes the zero context.
        let mut buf = Vec::new();
        Request::QueryReplica.encode(0, &mut buf);
        let (_, ctx, _) = Request::decode_traced(&buf).unwrap();
        assert_eq!(ctx, TraceCtx::default());
    }

    #[test]
    fn oversized_tenant_truncated_on_encode() {
        let mut buf = Vec::new();
        Request::Mount {
            tenant: "t".repeat(MAX_TENANT + 30),
        }
        .encode(0, &mut buf);
        match Request::decode(&buf).unwrap() {
            Request::Mount { tenant } => assert_eq!(tenant.len(), MAX_TENANT),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn throttled_code_maps_to_throttled_error() {
        assert!(matches!(
            error_for_code(err_code::THROTTLED, 0),
            GengarError::Throttled
        ));
    }

    #[test]
    fn error_codes_map() {
        assert!(matches!(
            error_for_code(err_code::OOM, 10),
            GengarError::OutOfMemory { requested: 10 }
        ));
        assert!(matches!(
            error_for_code(err_code::TOO_LARGE, 10),
            GengarError::ObjectTooLarge { .. }
        ));
        assert!(matches!(
            error_for_code(999, 0),
            GengarError::ProtocolViolation(_)
        ));
    }
}
