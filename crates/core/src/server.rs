//! The Gengar memory server.
//!
//! Each server contributes NVM and DRAM to the pool. It exports five RDMA
//! regions (NVM data, DRAM cache, ADR staging rings, control words, hotness
//! reports), plus a shadow NVM image when replication is on, and runs one
//! thread, however many clients connect: a poll loop over one receive CQ
//! that every connection's RPC lane, proxy ring and mirror ring receives on.
//!
//! * **RPCs** — mount, allocation, flush/invalidate, staging setup, and
//!   `Promote` (failover replay of the mirror rings) — are answered as
//!   they are harvested.
//! * **Proxy drains** finish staged writes and advance durable
//!   watermarks. A *primary lane* (a client's own ring) applies records to
//!   local NVM and keeps cached copies fresh; a *mirror lane* applies them
//!   to the shadow image of the primary it wards. A drain works on *runs*:
//!   everything a ring has ready per harvest is applied on the devices'
//!   virtual-time cursor, with one flush for the run's payloads, one
//!   watermark and one wait. The live drains, [`MemoryServer::recover`]
//!   and `Promote` share one run applier (`apply_run`) and one watermark
//!   step (`persist_watermark`, then `publish_watermark`).
//! * **The epoch**, at each deadline, folds the report rings clients WRITE
//!   their accesses into, promotes hot objects into the DRAM cache and
//!   leaves each client the cache locations of what it reported in its
//!   remap mailbox. Reporting costs it no RPC. With replication on, a
//!   primary's epoch also checks its backup and replaces a dead one.
//! * **The health tick**, with the health plane on: the first loop to
//!   find the cluster's shared tick due runs it.
//!
//! The loop parks until the earlier of the epoch deadline and the health
//! plane's next tick; a cluster runs no other thread.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gengar_hybridmem::latency::{spin_until, SLEEP_THRESHOLD_NS};
use gengar_hybridmem::{DeviceProfile, MemDevice, MemRegion};
use gengar_rdma::{
    Access, CompletionQueue, Endpoint, Fabric, MemoryRegion, ProtectionDomain, QpOptions, Qpn,
    QueuePair, RdmaNode, Sge, WcOpcode,
};
use gengar_telemetry::{CounterHandle, GaugeHandle, HistogramHandle, TelemetryConfig};
use parking_lot::{Mutex, RwLock};

use crate::addr::{GlobalAddr, MemClass};
use crate::alloc::RegionAllocator;
use crate::cache::{CacheManager, CacheStats};
use crate::config::ServerConfig;
use crate::error::GengarError;
use crate::health::HealthPlane;
use crate::hotness::{
    decode_report, encode_remaps, HotnessMonitor, ReportArea, REPORT_SLOTS, REPORT_SLOT_BYTES,
};
use crate::layout::{
    checksum, decode_record_header, lockword, RecordHeader, OBJ_HEADER, RECORD_HEADER,
};
use crate::proto::{err_code, MountInfo, Request, Response, MAX_INSPECT_JSON, NO_BACKUP};
use crate::proxy::RingLayout;
use crate::qos::QosPlane;
use crate::rpc::{RpcServerConn, RPC_BUF_BYTES};

/// One client's folded report ring: its area, the consumed cursor the fold
/// published, and the addresses it reported, hottest first.
type Reported = (ReportArea, u64, Vec<u64>);

/// Set in a ring's watermark word in the NVM image once a reconnecting
/// client's `QueryDurable` has been answered from it; `recover` replays
/// nothing on that ring. Sequence numbers never reach this bit.
const RETIRED: u64 = 1 << 63;

/// Everything a client needs after [`MemoryServer::accept`]: three
/// endpoints (control RPC, one-sided data, proxy ring) on the client side,
/// and where its staging ring sits.
#[derive(Debug)]
pub struct ClientChannel {
    /// The client id the server assigned to this mount. Hand it back via
    /// [`MemoryServer::release_client`] if the handshake fails before any
    /// data is staged, so reconnect storms don't exhaust `max_clients`.
    pub cid: u32,
    /// Control-plane endpoint (drive with [`crate::rpc::RpcClient`]).
    pub rpc: Endpoint,
    /// Data-plane endpoint for one-sided READ/WRITE/CAS.
    pub data: Endpoint,
    /// Byte offset of this client's ring within the staging region.
    pub ring_offset: u64,
    /// Proxy endpoint for staged writes.
    pub proxy: Endpoint,
}

/// Everything a client needs after [`MemoryServer::accept_mirror`]: a
/// dedicated proxy endpoint whose ring on the *backup* server mirrors
/// staged writes destined for the primary it wards.
#[derive(Debug)]
pub struct MirrorChannel {
    /// The mirror ring's client id on the backup (indexes its ring, its
    /// ctl word and its shadow watermark word).
    pub cid: u32,
    /// Byte offset of the mirror ring within the backup's staging region.
    pub ring_offset: u64,
    /// Replica epoch of this mirror tenure. The client stamps it into
    /// every record header; the backup ignores records from other epochs,
    /// so a reused ring id cannot leak a stale tenure's writes into a
    /// promotion replay.
    pub epoch: u32,
    /// Proxy endpoint for the mirror WRITE_WITH_IMM fan-out.
    pub proxy: Endpoint,
}

/// Server-side telemetry handles (`proxy.*` drain-side and `server.*`),
/// resolved once at launch from [`ServerConfig::telemetry`].
#[derive(Debug, Clone, Default)]
struct ServerMetrics {
    /// Completions waiting on the server loop: the harvest in hand plus
    /// what its receive CQ still holds (staged records, and the rare RPC).
    drain_backlog: GaugeHandle,
    /// Staged records durably applied to NVM.
    drained_records: CounterHandle,
    /// Latency of draining one staged record.
    drain_ns: HistogramHandle,
    /// Control-plane requests served.
    rpc_requests: CounterHandle,
    /// Promotions this server performed (it replayed mirror rings and took
    /// over a dead primary's objects via its shadow image).
    promotions: CounterHandle,
    /// Milliseconds since this server's shadow image last advanced (mirror
    /// drain, promotion replay or image install). -1 = shadow never
    /// written; refreshed every epoch.
    shadow_staleness_ms: GaugeHandle,
    /// Backup re-establishments this primary tried (a survivor chosen).
    rebalance_attempts: CounterHandle,
}

impl ServerMetrics {
    fn new(config: TelemetryConfig) -> Self {
        let tel = config.handle();
        ServerMetrics {
            drain_backlog: tel.gauge("proxy", "drain_backlog"),
            drained_records: tel.counter("proxy", "drained_records"),
            drain_ns: tel.histogram("proxy", "drain_ns"),
            rpc_requests: tel.counter("server", "rpc_requests"),
            promotions: tel.counter("replica", "promotions"),
            shadow_staleness_ms: tel.gauge("replica", "shadow_staleness_ms"),
            rebalance_attempts: tel.counter("replica", "rebalance_attempts"),
        }
    }
}

/// One mirror ring's identity: which primary it wards and the replica
/// epoch records must be stamped with to count.
#[derive(Debug, Clone, Copy)]
struct MirrorRing {
    ward: u8,
    epoch: u32,
}

/// A ring's run of `applied` records, applied and its watermark persisted:
/// ring `cid`'s ctl word is stored at `seq` once the run's modelled end
/// `at` has passed.
struct RunEnd {
    at: Instant,
    cid: u32,
    seq: u64,
    applied: u64,
}

/// The server end of one client lane.
#[derive(Clone)]
enum Lane {
    /// A proxy ring's QP (re-posts receives) and `None` for a primary lane
    /// (drained into local NVM), the ward and epoch for a *mirror* lane
    /// (drained into the shadow image of the warded primary).
    Ring(Arc<QueuePair>, Option<MirrorRing>),
    Rpc(Arc<RpcServerConn>),
}

struct ClientTable {
    next_id: u32,
    /// Ids handed back by [`MemoryServer::release_client`] after a failed
    /// mount handshake, reused before `next_id` grows. Keeps reconnect
    /// storms (e.g. re-dialling through a partition) from exhausting
    /// `max_clients`.
    free_ids: Vec<u32>,
    /// Open lanes and their client ids by server-side QPN (routes receive
    /// completions).
    lanes: HashMap<Qpn, (u32, Lane)>,
}

pub(crate) struct ServerInner {
    id: u8,
    config: ServerConfig,
    ring: RingLayout,
    /// Size of the per-ring watermark words heading the NVM/shadow image.
    wm_area: u64,
    node: Arc<RdmaNode>,
    pd: ProtectionDomain,
    nvm_dev: Arc<MemDevice>,
    staging_dev: Arc<MemDevice>,
    cache_dev: Arc<MemDevice>,
    ctl_dev: Arc<MemDevice>,
    msg_dev: Arc<MemDevice>,
    nvm_mr: Arc<MemoryRegion>,
    cache_mr: Arc<MemoryRegion>,
    staging_mr: Arc<MemoryRegion>,
    ctl_mr: Arc<MemoryRegion>,
    /// One [`ReportArea`] per client id: report ring, remap mailbox and
    /// consumed cursor. Clients WRITE the ring and READ the rest; the epoch
    /// reads the ring and writes the rest.
    report_mr: Arc<MemoryRegion>,
    /// Shadow NVM (same geometry as `nvm_dev`): a standby image of the
    /// server this one backs up. `None` when replication is off — no
    /// memory is allocated and no path pays for it.
    shadow_dev: Option<Arc<MemDevice>>,
    shadow_mr: Option<Arc<MemoryRegion>>,
    /// Which server backs *this* one up ([`NO_BACKUP`] = unreplicated).
    /// Published to clients in [`MountInfo`] and via `QueryReplica`; the
    /// epoch's backup check rewrites it when the backup dies.
    backup: Mutex<u8>,
    /// The cluster's servers by pool id (this one included), installed
    /// once by [`crate::Cluster::launch`] when replication is on: the
    /// epoch's backup check chooses a new backup among them. Weak, so
    /// servers holding each other form no cycle.
    peers: OnceLock<Vec<Weak<ServerInner>>>,
    /// Primaries this server has promoted for: their addresses are served
    /// from the shadow image on the data/control planes.
    promoted: Mutex<HashSet<u8>>,
    /// The single primary the shadow is dedicated to (`None` until the
    /// first mirror lane, promotion or image install claims it). There is
    /// ONE shadow device and every server's NVM offsets overlap, so bytes
    /// from two different wards in the same shadow would alias: every path
    /// that touches the shadow (mirror drains, promotion replays, image
    /// installs) must hold this lock and match the claim. A claim is only
    /// retargeted by [`MemoryServer::install_shadow_image`], which refuses
    /// while the old ward is promoted or once the claim moved since its
    /// caller read it.
    shadow_ward: RwLock<Option<u8>>,
    /// Replica-epoch source for mirror tenures (starts at 1; epoch 0 in a
    /// record header means "unreplicated").
    mirror_epoch: AtomicU32,
    alloc: Mutex<RegionAllocator>,
    /// payload base offset -> payload length, ordered for containment
    /// lookups.
    objects: RwLock<BTreeMap<u64, u64>>,
    hotness: Mutex<HotnessMonitor>,
    cache: Mutex<CacheManager>,
    clients: Mutex<ClientTable>,
    /// The one receive CQ of every lane — RPC connections, proxy rings and
    /// mirror rings — polled by the server loop.
    recv_cq: Arc<CompletionQueue>,
    metrics: ServerMetrics,
    /// The cluster's QoS plane (shared across servers); `None` = QoS off.
    qos: Option<Arc<QosPlane>>,
    /// The health plane answering `Inspect` (cluster-shared or private);
    /// `None` = health off, `Inspect` returns the minimal "unknown" doc.
    health: Option<Arc<HealthPlane>>,
    /// When the shadow image last advanced (mirror drain, promotion replay
    /// or image install). Feeds `replica.shadow_staleness_ms`.
    last_shadow_update: Mutex<Option<Instant>>,
    shutdown: AtomicBool,
}

/// A running Gengar memory server.
pub struct MemoryServer {
    inner: Arc<ServerInner>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for MemoryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryServer")
            .field("id", &self.inner.id)
            .field("nvm_capacity", &self.inner.config.nvm_capacity)
            .finish()
    }
}

impl MemoryServer {
    /// Creates the server's devices and regions on a fresh fabric node and
    /// launches its background threads, bound to the cluster's shared QoS
    /// and health planes ([`crate::Cluster::launch`] starts every server
    /// this way). `None` disables the plane for this server regardless of
    /// `config.qos.enabled` / `config.health.enabled` — without a health
    /// plane `Inspect` answers with the minimal "unknown" document.
    ///
    /// # Errors
    ///
    /// Propagates device/region/registration failures.
    pub fn launch(
        fabric: &Arc<Fabric>,
        id: u8,
        config: ServerConfig,
        qos: Option<Arc<QosPlane>>,
        health: Option<Arc<HealthPlane>>,
    ) -> Result<Arc<MemoryServer>, GengarError> {
        let node = fabric.add_node();
        let pd = node.alloc_pd();
        let ring = RingLayout::for_ring_bytes(config.staging_ring_capacity);

        let wm_area = (config.max_clients as u64 * 8).div_ceil(4096) * 4096;
        let nvm_capacity = wm_area + config.nvm_capacity;
        let nvm_dev = Arc::new(MemDevice::with_telemetry(
            0,
            config.nvm_profile.clone(),
            nvm_capacity,
            "nvm",
            config.telemetry,
        )?);
        let cache_dev = Arc::new(MemDevice::with_telemetry(
            1,
            config.dram_profile.clone(),
            config.cache.capacity.max(4096),
            "dram_cache",
            config.telemetry,
        )?);
        // Staging rings are ADR-protected DRAM: a staged record is durable
        // once its WRITE lands — the premise of the proxy write protocol —
        // at DRAM speed.
        let staging_dev = Arc::new(MemDevice::with_telemetry(
            2,
            DeviceProfile::adr_dram(),
            ring.ring_bytes() * config.max_clients as u64,
            "staging",
            config.telemetry,
        )?);
        let ctl_dev = Arc::new(MemDevice::new(3, config.dram_profile.clone(), wm_area)?);
        let msg_dev = Arc::new(MemDevice::new(
            4,
            config.dram_profile.clone(),
            config.max_clients as u64 * RPC_BUF_BYTES,
        )?);
        let report_dev = Arc::new(MemDevice::new(
            7,
            config.dram_profile.clone(),
            config.max_clients as u64 * ReportArea::BYTES,
        )?);
        // The shadow image of the server this one backs up: NVM-profile and
        // NVM-shaped (watermark area + pool), so a promoted backup can
        // serve the dead primary's addresses at unchanged offsets.
        let shadow_dev = if config.replication.enabled {
            Some(Arc::new(MemDevice::with_telemetry(
                5,
                config.nvm_profile.clone(),
                nvm_capacity,
                "shadow",
                config.telemetry,
            )?))
        } else {
            None
        };
        if config.crash_sim {
            nvm_dev.enable_crash_sim();
            staging_dev.enable_crash_sim();
            if let Some(shadow) = &shadow_dev {
                shadow.enable_crash_sim();
            }
        }

        let nvm_mr = pd.reg_mr(MemRegion::whole(Arc::clone(&nvm_dev)), Access::all())?;
        // Remote-writable: a `Seqlock` writer refreshes its object's frame
        // under the object's lock.
        let cache_mr = pd.reg_mr(
            MemRegion::whole(Arc::clone(&cache_dev)),
            Access::LOCAL_WRITE | Access::REMOTE_READ | Access::REMOTE_WRITE,
        )?;
        let staging_mr = pd.reg_mr(
            MemRegion::whole(Arc::clone(&staging_dev)),
            Access::LOCAL_WRITE | Access::REMOTE_WRITE,
        )?;
        let ctl_mr = pd.reg_mr(
            MemRegion::whole(Arc::clone(&ctl_dev)),
            Access::LOCAL_WRITE | Access::REMOTE_READ,
        )?;
        let report_mr = pd.reg_mr(
            MemRegion::whole(report_dev),
            Access::LOCAL_WRITE | Access::REMOTE_WRITE | Access::REMOTE_READ,
        )?;
        let shadow_mr = match &shadow_dev {
            Some(dev) => Some(pd.reg_mr(MemRegion::whole(Arc::clone(dev)), Access::all())?),
            None => None,
        };

        // The NVM demote area is server-local (never registered as an MR):
        // evicted-but-warm frames park here so re-promotion is one local
        // NVM→DRAM copy. Written only by the epoch, so the foreground
        // proxy drain never contends with demotion traffic.
        let demote_region = if config.cache.enabled && config.cache.demotion {
            let demote_dev = Arc::new(MemDevice::with_telemetry(
                6,
                config.nvm_profile.clone(),
                config.cache.capacity.max(4096),
                "demote",
                config.telemetry,
            )?);
            Some(MemRegion::whole(demote_dev))
        } else {
            None
        };
        let cache = CacheManager::for_server(
            id,
            MemRegion::whole(Arc::clone(&cache_dev)),
            nvm_mr.region().clone(),
            demote_region,
            config.cache,
            config.telemetry,
        );
        let inner = Arc::new(ServerInner {
            id,
            ring,
            wm_area,
            alloc: Mutex::new(RegionAllocator::new(
                wm_area,
                config.nvm_capacity,
                MemClass::Nvm,
            )),
            objects: RwLock::new(BTreeMap::new()),
            hotness: Mutex::new(HotnessMonitor::with_policy(&config.cache, config.telemetry)),
            cache: Mutex::new(cache),
            clients: Mutex::new(ClientTable {
                next_id: 0,
                free_ids: Vec::new(),
                lanes: HashMap::new(),
            }),
            recv_cq: Arc::new(CompletionQueue::new(65_536)),
            metrics: ServerMetrics::new(config.telemetry),
            qos,
            health,
            last_shadow_update: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            config,
            node,
            pd,
            nvm_dev,
            staging_dev,
            cache_dev,
            ctl_dev,
            msg_dev,
            nvm_mr,
            cache_mr,
            staging_mr,
            ctl_mr,
            report_mr,
            shadow_dev,
            shadow_mr,
            backup: Mutex::new(NO_BACKUP),
            peers: OnceLock::new(),
            promoted: Mutex::new(HashSet::new()),
            shadow_ward: RwLock::new(None),
            mirror_epoch: AtomicU32::new(1),
        });

        let server = Arc::new(MemoryServer {
            inner: Arc::clone(&inner),
            thread: Mutex::new(None),
        });

        server.spawn_workers();
        Ok(server)
    }

    /// Starts the server loop (RPCs, proxy drains and epochs), named
    /// `s<id>-loop`.
    fn spawn_workers(&self) {
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name(format!("s{}-loop", inner.id))
            .spawn(move || inner.serve())
            .expect("spawn server thread");
        *self.thread.lock() = Some(thread);
    }

    /// This server's pool identifier.
    pub fn id(&self) -> u8 {
        self.inner.id
    }

    /// The server's fabric node (for colocating tools or baselines).
    pub fn node(&self) -> &Arc<RdmaNode> {
        &self.inner.node
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// Snapshot of cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.lock().stats()
    }

    /// Number of objects currently cached in DRAM.
    pub fn cached_objects(&self) -> usize {
        self.inner.cache.lock().len()
    }

    /// Completed hotness epochs.
    pub fn epochs(&self) -> u64 {
        self.inner.hotness.lock().epoch()
    }

    /// The staging region (exposed for failure-injection tests and
    /// diagnostic tools that inspect or forge ring contents).
    pub fn staging_region(&self) -> MemRegion {
        self.inner.staging_mr.region().clone()
    }

    /// Accepts a new client: builds the three QP pairs, assigns a client
    /// id, clears the id's report area (a reused id never folds a previous
    /// tenure's slots), hands the RPC connection to the server loop and
    /// arms the proxy ring. No thread is started.
    ///
    /// # Errors
    ///
    /// [`GengarError::ServerUnavailable`] at client capacity; transport
    /// setup failures as [`GengarError::Rdma`].
    pub fn accept(
        &self,
        client_node: &Arc<RdmaNode>,
        client_pd: &ProtectionDomain,
    ) -> Result<ClientChannel, GengarError> {
        let inner = &self.inner;
        self.with_client_id(|cid| {
            // Register the pending session with the QoS plane before
            // anything can fail: a handshake that dies pre-Mount still
            // releases cleanly.
            if let Some(plane) = &inner.qos {
                plane.connect(inner.id, cid, client_node.id());
            }
            inner.reset_reports(cid)?;

            // Control-plane pair + its message buffer.
            // The message buffer is registered before the endpoint is
            // built, so the endpoint's route caches it.
            let msg_off = cid as u64 * RPC_BUF_BYTES;
            let msg_region = MemRegion::new(Arc::clone(&inner.msg_dev), msg_off, RPC_BUF_BYTES)?;
            let msg_mr = inner.pd.reg_mr(msg_region, Access::LOCAL_WRITE)?;
            let (rpc, s_rpc) = inner.connect(client_node, client_pd)?;
            let s_qpn = s_rpc.qpn();
            let s_rpc = Endpoint::from_qp(Arc::clone(&inner.node), s_rpc);
            let conn = Lane::Rpc(Arc::new(RpcServerConn::new(s_rpc, msg_mr)?));
            inner.clients.lock().lanes.insert(s_qpn, (cid, conn));

            // Data-plane pair (client drives it; the server side just exists).
            let (data, _s_data) = Endpoint::pair(
                (client_node, client_pd),
                (&inner.node, &inner.pd),
                QpOptions::default(),
            )?;
            let proxy = inner.open_lane(cid, client_node, client_pd, None)?;
            Ok(ClientChannel {
                cid,
                rpc,
                data,
                ring_offset: cid as u64 * inner.ring.ring_bytes(),
                proxy,
            })
        })
    }

    /// Opens a *mirror* lane on this server: a dedicated proxy ring whose
    /// drained records apply to the shadow image of `ward` (the primary
    /// this server backs up) instead of local NVM. The client fans every
    /// staged write for `ward` out to this ring, so the backup holds a
    /// durable copy of each settled record before the client sees the ack.
    ///
    /// # Errors
    ///
    /// [`GengarError::ProtocolViolation`] when replication is disabled or
    /// the shadow is dedicated to another ward; otherwise the same
    /// failures as [`MemoryServer::accept`].
    pub fn accept_mirror(
        &self,
        client_node: &Arc<RdmaNode>,
        client_pd: &ProtectionDomain,
        ward: u8,
    ) -> Result<MirrorChannel, GengarError> {
        let inner = &self.inner;
        let Some(shadow) = &inner.shadow_mr else {
            return Err(GengarError::ProtocolViolation(
                "mirror lane on a server without replication",
            ));
        };
        // One shadow, one ward: a lane for a second primary would
        // interleave two servers' overlapping NVM offsets in the same byte
        // range. Checked again under the write lock at ring insertion; this
        // early check just fails fast before QPs are built.
        if inner.shadow_ward.read().is_some_and(|w| w != ward) {
            return Err(GengarError::ProtocolViolation(
                "shadow already dedicated to another ward",
            ));
        }
        // Mirror lanes carry only the proxy plane: no RPC connection, no
        // data QP — the client already holds a full connection to this
        // server for its *own* objects.
        self.with_client_id(|cid| {
            let epoch = inner.mirror_epoch.fetch_add(1, Ordering::Relaxed);
            let ring = MirrorRing { ward, epoch };
            let proxy = inner.open_lane(cid, client_node, client_pd, Some(ring))?;
            // A fresh tenure starts from a clean watermark: the ring id may
            // be reused, and the old tenure's progress must not mask new
            // records.
            shadow.region().store_u64(cid as u64 * 8, 0)?;
            inner.ctl_mr.region().store_u64(cid as u64 * 8, 0)?;
            Ok(MirrorChannel {
                cid,
                ring_offset: cid as u64 * inner.ring.ring_bytes(),
                epoch,
                proxy,
            })
        })
    }

    /// Claims a client id (released ids first) for one lane-opening
    /// attempt and hands it back — with its QoS session and anything `open`
    /// registered under it — on every error path, so no failed accept can
    /// bleed `max_clients`.
    fn with_client_id<T>(
        &self,
        open: impl FnOnce(u32) -> Result<T, GengarError>,
    ) -> Result<T, GengarError> {
        let inner = &self.inner;
        // A stopped server accepts nobody: no server loop would answer
        // and the client would stall on a dead connection. Refusing here
        // lets clients back off and re-dial after restart().
        if !self.is_running() {
            return Err(GengarError::ServerUnavailable(inner.id));
        }
        let cid = {
            let mut clients = inner.clients.lock();
            match clients.free_ids.pop() {
                Some(cid) => cid,
                None if clients.next_id < inner.config.max_clients => {
                    clients.next_id += 1;
                    clients.next_id - 1
                }
                None => return Err(GengarError::ServerUnavailable(inner.id)),
            }
        };
        open(cid).inspect_err(|_| self.release_client(cid))
    }

    /// Declares which server backs this one up. Set by the cluster at
    /// launch and rewritten by this server's epoch after the backup dies;
    /// published to clients through [`MountInfo`] and `QueryReplica`.
    pub fn set_backup(&self, backup: u8) {
        *self.inner.backup.lock() = backup;
    }

    /// Installs the cluster's servers, by pool id, as the candidates the
    /// epoch's backup check chooses among. Set once, at launch.
    pub(crate) fn set_peers(&self, servers: &[Arc<MemoryServer>]) {
        let peers = servers.iter().map(|s| Arc::downgrade(&s.inner)).collect();
        let _ = self.inner.peers.set(peers);
    }

    /// The server currently backing this one up ([`NO_BACKUP`] = none).
    pub fn backup_id(&self) -> u8 {
        *self.inner.backup.lock()
    }

    /// Number of live mirror lanes warding other servers on this one.
    pub fn mirror_count(&self) -> usize {
        self.inner.mirror_rings().len()
    }

    /// Whether this server has promoted for `primary` (serves its
    /// addresses from the shadow image).
    pub fn has_promoted(&self, primary: u8) -> bool {
        self.inner.promoted.lock().contains(&primary)
    }

    /// The primary the shadow is currently dedicated to (`None` = never
    /// claimed): what a caller of [`MemoryServer::install_shadow_image`]
    /// passes as the claim it saw.
    pub fn shadow_ward(&self) -> Option<u8> {
        *self.inner.shadow_ward.read()
    }

    /// Installs `image` as this server's shadow and dedicates the shadow to
    /// `ward` (the image's owner; must match the shadow geometry), if the
    /// shadow's claim is still `seen`, the [`MemoryServer::shadow_ward`]
    /// its caller chose this server on. Management-plane counterpart of
    /// a primary's NVM image snapshot, used when this server becomes
    /// someone's new backup.
    ///
    /// Retargets a stale claim (a dead, never-promoted ward) but refuses
    /// while any promotion is live: a promoted ward's shadow bytes are
    /// being served to clients and must not be clobbered by another
    /// server's image. Primaries choose backups concurrently, so it also
    /// refuses once the claim moved since `seen`: of two primaries that
    /// chose one survivor, one installs and the other chooses again.
    ///
    /// # Errors
    ///
    /// [`GengarError::ProtocolViolation`] when replication is disabled, the
    /// image size does not match, the claim is no longer `seen`, or the
    /// shadow serves a promoted ward; device failures otherwise.
    pub fn install_shadow_image(
        &self,
        ward: u8,
        seen: Option<u8>,
        image: &[u8],
    ) -> Result<(), GengarError> {
        self.inner.install_shadow_image(ward, seen, image)
    }

    /// Returns a client id for reuse after a mount handshake failed partway
    /// (e.g. the `Mount` RPC or staging setup was lost to a fault). Only
    /// call this for ids that never staged any data: a released id's ring
    /// and watermark slots are handed verbatim to the next client, which is
    /// safe exactly because nothing was ever written under the old tenure.
    /// Every lane opened under the id goes with it, the RPC connection
    /// included: the server loop stops answering it.
    pub fn release_client(&self, cid: u32) {
        // Drop the QoS session first: the tenant's limiter buckets are
        // refcounted by live sessions, so a reconnect storm of failed
        // handshakes frees exactly what it bound (no bucket leak).
        if let Some(plane) = &self.inner.qos {
            plane.release(self.inner.id, cid);
        }
        let mut clients = self.inner.clients.lock();
        clients.lanes.retain(|_, lane| lane.0 != cid);
        if !clients.free_ids.contains(&cid) {
            clients.free_ids.push(cid);
        }
    }

    /// The QoS plane this server enforces, when QoS is enabled. Clients
    /// use it to pace at the issue gate and to learn their tenant tag.
    pub fn qos_plane(&self) -> Option<&Arc<QosPlane>> {
        self.inner.qos.as_ref()
    }

    /// The health plane answering this server's `Inspect` RPC, when the
    /// live health layer is enabled.
    pub fn health_plane(&self) -> Option<&Arc<HealthPlane>> {
        self.inner.health.as_ref()
    }

    /// Whether the server is serving (server loop alive, new
    /// clients accepted). False between [`MemoryServer::shutdown`] /
    /// [`MemoryServer::crash`] and [`MemoryServer::restart`].
    pub fn is_running(&self) -> bool {
        !self.inner.shutdown.load(Ordering::Relaxed)
    }

    /// Stops the server loop and joins it, and drops every RPC
    /// connection: nothing answers them again, even after a restart.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
        let mut clients = self.inner.clients.lock();
        clients.lanes.retain(|_, l| matches!(l.1, Lane::Ring(..)));
    }

    /// Restarts the server loop after a
    /// [`shutdown`] + [`recover`] cycle. Existing client connections stay
    /// dead (shutdown dropped them; their clients reconnect); new clients
    /// connect normally via [`MemoryServer::accept`].
    ///
    /// [`shutdown`]: MemoryServer::shutdown
    /// [`recover`]: MemoryServer::recover
    pub fn restart(&self) {
        self.inner.shutdown.store(false, Ordering::Relaxed);
        self.spawn_workers();
    }

    /// Simulates a power failure of this server's machine: NVM reverts to
    /// its last flushed state, staging survives (ADR), DRAM is lost — all
    /// but the report region, which is left as it was: hotness is advisory
    /// (`recover` resets the monitor), and a client still on its old
    /// connection keeps a report seq that agrees with its ring's cursor.
    ///
    /// # Errors
    ///
    /// Requires `crash_sim` in the configuration.
    pub fn crash(&self) -> Result<(), GengarError> {
        self.inner.nvm_dev.crash()?;
        self.inner.staging_dev.crash()?;
        self.inner.cache_dev.crash()?;
        self.inner.ctl_dev.crash()?;
        if let Some(shadow) = &self.inner.shadow_dev {
            shadow.crash()?;
        }
        Ok(())
    }

    /// Post-crash recovery: drops volatile state and replays staged writes
    /// whose sequence exceeds the ring's durable watermark, in order.
    /// Returns the number of records replayed.
    ///
    /// # Errors
    ///
    /// Propagates device errors during the replay.
    pub fn recover(&self) -> Result<u64, GengarError> {
        let inner = &self.inner;
        inner.cache.lock().clear();
        inner.hotness.lock().reset();
        let n_clients = inner.clients.lock().next_id;
        let mirrors = inner.mirror_rings();
        let mut replayed = 0u64;
        for cid in 0..n_clients {
            replayed += match mirrors.get(&cid).copied() {
                None => inner.replay_ring(cid, inner.nvm_mr.region(), None)?,
                // Mirror rings replay into the shadow image of their ward,
                // under the same guard as the live mirror drain: a stale
                // lane whose ward lost the shadow (re-dedicated to another
                // primary) must not replay into it, and an image install
                // must not interleave with the replay.
                ring => {
                    let claim = inner.shadow_ward.read();
                    let shadow = inner.shadow_of(ring, *claim);
                    shadow.map_or(Ok(0), |shadow| inner.replay_ring(cid, shadow, ring))?
                }
            };
        }
        Ok(replayed)
    }
}

impl Drop for MemoryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServerInner {
    /// Body of the server loop. Each pass harvests up to 64 completions off
    /// the one receive CQ. It answers each RPC through its lane (a
    /// connection that fails to answer is dropped; its client reconnects),
    /// then drains the staged records as runs grouped by ring in arrival
    /// order ([`ServerInner::drain_harvest`]), so a ring that an RPC of the
    /// same harvest retired drains none of it. Once the epoch deadline
    /// passes it runs the epoch; the next is due one `epoch` after that.
    ///
    /// After a harvest of staged records the loop spins for the next one as
    /// long as the last gap between such harvests, when that gap is one the
    /// emulator would spin through rather than sleep (`SLEEP_THRESHOLD_NS`):
    /// parked between closely spaced records, every post would wake it, and
    /// on a host with few cores the woken loop preempts the posting client.
    /// RPCs never make it spin: a spinning loop per server takes the cores
    /// an RPC-heavy phase (a populate's allocations) needs. Otherwise it
    /// parks on the CQ until the next completion or the earlier of the
    /// epoch deadline and, with the health plane on, its next tick.
    ///
    /// With the health plane on, each pass starts by ticking it if a tick
    /// is due and no other server's loop claimed it first
    /// ([`HealthPlane::tick_if_due`]), so the cluster's plane ticks once per
    /// period while any server runs.
    fn serve(&self) {
        let cq = &self.recv_cq;
        let spin_max = Duration::from_nanos(SLEEP_THRESHOLD_NS);
        let mut payload = Vec::new();
        let mut next_epoch = Instant::now() + self.config.epoch;
        let (mut arrived, mut idle_since, mut gap) =
            (Instant::now(), Instant::now(), Duration::MAX);
        while !self.shutdown.load(Ordering::Relaxed) {
            let mut wake = next_epoch;
            if let Some(plane) = &self.health {
                plane.tick_if_due(Instant::now());
                wake = wake.min(plane.next_due());
            }
            let linger = if gap <= spin_max { gap } else { Duration::ZERO };
            let mut wcs = Vec::new();
            while wcs.is_empty() && idle_since.elapsed() < linger {
                std::hint::spin_loop();
                wcs = cq.poll(64);
            }
            if wcs.is_empty() {
                wcs = cq.wait(64, wake.saturating_duration_since(Instant::now()));
            }
            let now = Instant::now();
            self.metrics
                .drain_backlog
                .set((wcs.len() + cq.len()) as i64);
            let mut runs: Vec<(Qpn, Vec<u32>)> = Vec::new();
            for wc in wcs {
                if wc.opcode != WcOpcode::RecvRdmaWithImm || !wc.status.is_ok() {
                    // An RPC; on a ring, an error or a stray SEND is ignored.
                    let lane = self.clients.lock().lanes.get(&wc.qpn).cloned();
                    if let Some((cid, Lane::Rpc(conn))) = lane {
                        if conn.answer(&wc, |req| self.handle(cid, req)).is_err() {
                            self.clients.lock().lanes.remove(&wc.qpn);
                        }
                    }
                    continue;
                }
                let slot = wc.imm.unwrap_or(0);
                match runs.iter_mut().find(|(qpn, _)| *qpn == wc.qpn) {
                    Some((_, slots)) => slots.push(slot),
                    None => runs.push((wc.qpn, vec![slot])),
                }
            }
            if !runs.is_empty() {
                (gap, arrived) = (now - arrived, now);
                self.drain_harvest(&runs, arrived, &mut payload);
                idle_since = Instant::now();
            }
            if Instant::now() >= next_epoch {
                self.run_epoch();
                next_epoch = Instant::now() + self.config.epoch;
            }
        }
    }

    /// Drains one harvest's runs, each a group commit
    /// ([`ServerInner::apply_ring_run`]). Every run is charged on its own
    /// device cursor from the same instant, so runs of different rings
    /// overlap in modelled time as far as the devices' channels let them;
    /// their client-visible watermarks are published in the order the runs
    /// end. `proxy.drain_ns` samples each drained record from `harvest`,
    /// the instant its harvest arrived, to the ctl store that covers it.
    fn drain_harvest(&self, runs: &[(Qpn, Vec<u32>)], harvest: Instant, payload: &mut Vec<u8>) {
        let start = Instant::now();
        let mut ends: Vec<RunEnd> = runs
            .iter()
            .filter_map(|(qpn, slots)| self.apply_ring_run(*qpn, slots, start, payload).ok()?)
            .collect();
        ends.sort_by_key(|end| end.at);
        for end in ends {
            if self.publish_watermark(end.cid, end.seq, end.at).is_err() {
                continue;
            }
            self.metrics.drained_records.add(end.applied);
            let drained = harvest.elapsed();
            for _ in 0..end.applied {
                self.metrics.drain_ns.record(drained);
            }
        }
    }

    /// Applies one ring's run — the staged records in `slots`, in order —
    /// as one group commit from `start`: [`ServerInner::apply_run`], then
    /// [`ServerInner::persist_watermark`]. Returns what the caller needs to
    /// publish the watermark once the run's modelled end has passed, or
    /// `None` if the lane is gone (retired or released) or the run applied
    /// nothing.
    fn apply_ring_run(
        &self,
        qpn: Qpn,
        slots: &[u32],
        start: Instant,
        payload: &mut Vec<u8>,
    ) -> Result<Option<RunEnd>, GengarError> {
        let lane = self.clients.lock().lanes.get(&qpn).cloned();
        let Some((cid, Lane::Ring(qp, mirror))) = lane else {
            return Ok(None);
        };
        // Re-arm the consumed receives first, whatever becomes of the
        // records: the client reuses a slot only once the watermark passes
        // it, so the ring never has more writes in flight than receives
        // posted.
        for _ in slots {
            let _ = self.arm_recv(&qp);
        }
        let staging = self.staging_mr.region();
        let mut hdr = [0u8; RECORD_HEADER as usize];
        let mut cursor = start;
        let mut records = Vec::with_capacity(slots.len());
        for &slot in slots {
            let slot_off = self.slot_off(cid, slot);
            cursor = staging.read_at(slot_off, &mut hdr, cursor)?;
            records.push((decode_record_header(&hdr), slot_off));
        }
        // Join each record's originating client op trace: the header
        // carries its trace id, so the asynchronous NVM drain shows up in
        // the same causal trace even though it runs after the client saw
        // completion.
        let span = |rec: &RecordHeader| {
            let mut span = gengar_telemetry::Tracer::global()
                .root_span_in("server.drain", gengar_telemetry::TraceId(rec.trace));
            span.set_detail(rec.seq);
            span
        };
        // A mirror lane applies to the shadow, which holds exactly one
        // ward's image: a stale lane that outlived a retarget (its ward
        // died unpromoted and the shadow was re-dedicated) must not
        // scribble over the new ward's bytes. The read guard keeps an
        // image install from interleaving with this run.
        let claim = mirror.map(|_| self.shadow_ward.read());
        let target = match &claim {
            None => self.nvm_mr.region(),
            Some(claim) => match self.shadow_of(mirror, **claim) {
                Some(shadow) => shadow,
                None => return Ok(None),
            },
        };
        let mut applied = 0u64;
        let run = self.apply_run(
            target,
            mirror,
            &records,
            cursor,
            payload,
            |rec, off, bytes| {
                let _span = span(rec);
                applied += 1;
                // A mirror lane has no cache to refresh and no tenant to bill:
                // the primary's drain does both.
                if mirror.is_some() {
                    return;
                }
                // Keep the cached copy fresh.
                if self.config.cache.enabled {
                    if let Some((base, _len)) = self.containing_object(off) {
                        let base_raw = GlobalAddr::new(self.id, MemClass::Nvm, base).raw();
                        let _ = self.cache.lock().update_range(base_raw, off - base, bytes);
                    }
                }
                // Per-tenant durable-byte accounting: the record header carries
                // the tenant tag across the client→drain handoff (0 = QoS off).
                if rec.tenant != 0 {
                    if let Some(plane) = &self.qos {
                        if let Some(t) = plane.tenant_by_tag(rec.tenant) {
                            t.note_drained(rec.len);
                        }
                    }
                }
            },
        )?;
        let (Some(seq), cursor) = run else {
            return Ok(None);
        };
        let at = self.persist_watermark(target, cid, seq, cursor)?;
        if mirror.is_some() {
            *self.last_shadow_update.lock() = Some(Instant::now());
        }
        Ok(Some(RunEnd {
            at,
            cid,
            seq,
            applied,
        }))
    }

    /// Whether this server serves: its loop runs and its machine is still
    /// attached to the fabric.
    fn is_alive(&self) -> bool {
        !self.shutdown.load(Ordering::Relaxed) && self.node.is_attached()
    }

    /// Snapshot of this server's full NVM image (watermark area + pool):
    /// it seeds a new backup's shadow so later promotions serve settled
    /// data that predates the re-mirror. Taken on the server loop, between
    /// harvests: a half-applied record (payload written, watermark not yet
    /// — or vice versa) captured mid-drain would seed the new backup with
    /// a torn value that no later replay repairs, because the record may
    /// already be settled and retired on the primary.
    fn nvm_image(&self) -> Result<Vec<u8>, GengarError> {
        let nvm = self.nvm_mr.region();
        let mut image = vec![0u8; nvm.len() as usize];
        nvm.read(0, &mut image)?;
        Ok(image)
    }

    /// See [`MemoryServer::install_shadow_image`].
    fn install_shadow_image(
        &self,
        ward: u8,
        seen: Option<u8>,
        image: &[u8],
    ) -> Result<(), GengarError> {
        let Some(shadow_mr) = &self.shadow_mr else {
            return Err(GengarError::ProtocolViolation(
                "shadow install on a server without replication",
            ));
        };
        let shadow = shadow_mr.region();
        if image.len() as u64 != shadow.len() {
            return Err(GengarError::ProtocolViolation(
                "shadow image geometry mismatch",
            ));
        }
        // Compare and claim (or retarget) under the write lock, so neither
        // a mirror drain nor a promotion replay interleaves with the bulk
        // copy, and a concurrent install that won the claim first makes
        // this one refuse rather than overwrite its ward's image.
        let mut shadow_ward = self.shadow_ward.write();
        if *shadow_ward != seen {
            return Err(GengarError::ProtocolViolation(
                "shadow claim moved since it was read",
            ));
        }
        if !self.promoted.lock().is_empty() {
            return Err(GengarError::ProtocolViolation(
                "shadow serves a promoted ward",
            ));
        }
        *shadow_ward = Some(ward);
        shadow.write(0, image)?;
        shadow.flush(0, image.len() as u64)?;
        // The image's watermark area carries the *primary's* per-ring drain
        // words, meaningless under this server's ring ids (a stale high
        // watermark would mask mirror records from replay): reset it. Any
        // live mirror lane for `ward` re-zeroed its word at accept time and
        // retires slots off the ctl word, which is untouched here.
        shadow.write(0, &vec![0u8; self.wm_area as usize])?;
        shadow.flush(0, self.wm_area)?;
        *self.last_shadow_update.lock() = Some(Instant::now());
        Ok(())
    }

    /// The epoch's backup check, on a primary whose peers the cluster
    /// installed: a backup that died is replaced by the next live survivor
    /// after this server (the launch-time ring's order), whose shadow is
    /// seeded with this server's NVM image first, so later promotions also
    /// cover data that predates the re-mirror. One shadow, one ward: a
    /// survivor whose shadow is still dedicated to a *relevant* other
    /// primary — alive, or dead but promoted (its bytes are being served)
    /// — is not a candidate; a claim by a dead, never-promoted ward is
    /// stale and safe to retarget. The install claims the shadow only if
    /// its claim is still the one read here: a primary that lost the
    /// survivor to another chooses again at its next epoch.
    fn check_backup(&self) {
        let Some(peers) = self.peers.get() else {
            return;
        };
        let live = |id: u8| {
            let peer = peers.get(id as usize)?.upgrade()?;
            peer.is_alive().then_some(peer)
        };
        let backup = *self.backup.lock();
        if backup != NO_BACKUP && live(backup).is_some() {
            return;
        }
        let n = peers.len();
        let chosen = (1..n)
            .map(|step| ((self.id as usize + step) % n) as u8)
            .filter(|&c| c != backup)
            .find_map(|c| {
                let survivor = live(c).filter(|s| s.shadow_mr.is_some())?;
                let seen = *survivor.shadow_ward.read();
                let free = seen.is_none_or(|w| {
                    w == self.id || (live(w).is_none() && !survivor.promoted.lock().contains(&w))
                });
                free.then_some((survivor, seen))
            });
        let Some((survivor, seen)) = chosen else {
            return;
        };
        self.metrics.rebalance_attempts.inc();
        let installed = self
            .nvm_image()
            .and_then(|image| survivor.install_shadow_image(self.id, seen, &image));
        if installed.is_ok() {
            *self.backup.lock() = survivor.id;
            let pair = (self.id as u64) << 8 | survivor.id as u64;
            gengar_telemetry::Tracer::global().event("replica.rebalance", pair);
        }
    }

    /// The open mirror rings: ring id -> ward and epoch.
    fn mirror_rings(&self) -> HashMap<u32, MirrorRing> {
        let clients = self.clients.lock();
        let rings = clients.lanes.values().filter_map(|lane| match lane {
            (cid, Lane::Ring(_, Some(ring))) => Some((*cid, *ring)),
            _ => None,
        });
        rings.collect()
    }

    /// The image a mirror lane applies to: the shadow, unless it is not (or
    /// no longer) dedicated to the ring's ward. `claim` is read under the
    /// `shadow_ward` guard, which the caller holds while it uses the image.
    fn shadow_of(&self, ring: Option<MirrorRing>, claim: Option<u8>) -> Option<&MemRegion> {
        let shadow = self.shadow_mr.as_ref()?.region();
        ring.is_some_and(|r| claim == Some(r.ward))
            .then_some(shadow)
    }

    /// Staging offset of `slot` in ring `cid`.
    fn slot_off(&self, cid: u32, slot: u32) -> u64 {
        cid as u64 * self.ring.ring_bytes() + self.ring.slot_offset(slot)
    }

    /// The one judge and applier of a run of staged records, shared by the
    /// live drains and the replays. A record applies to `target` (local NVM
    /// for a primary lane, the ward's shadow for a mirror lane) only if its
    /// length fits a slot, it carries the mirror tenure's epoch (a reused
    /// mirror ring may hold a stale tenure's leftovers), its address names
    /// NVM on the lane's home server — this one, or the ward — inside the
    /// target image, and — read only once all of that holds — its payload
    /// matches its checksum (a torn record from a mid-crash staging write
    /// does not).
    ///
    /// Every device op is charged on the virtual-time `cursor` instead of
    /// waited out: payload read from staging into the reused `payload`
    /// buffer, write into `target`, and — once the run is applied — one
    /// flush covering every applied range (one fence). `applied` sees each
    /// applied record with its target offset and payload. Returns the seq
    /// of the last applied record (`None` if the run applied nothing) and
    /// the cursor; the caller publishes the watermark from there, which
    /// persists it only after every range it covers.
    fn apply_run(
        &self,
        target: &MemRegion,
        mirror: Option<MirrorRing>,
        records: &[(RecordHeader, u64)],
        mut cursor: Instant,
        payload: &mut Vec<u8>,
        mut applied: impl FnMut(&RecordHeader, u64, &[u8]),
    ) -> Result<(Option<u64>, Instant), GengarError> {
        let staging = self.staging_mr.region();
        let mut ranges = Vec::with_capacity(records.len());
        let mut last = None;
        for (rec, slot_off) in records {
            let addr = GlobalAddr::from_raw(rec.addr).filter(|a| {
                rec.len <= self.ring.slot_payload
                    && mirror.is_none_or(|ring| ring.epoch == rec.epoch)
                    && a.class() == MemClass::Nvm
                    && a.server() == mirror.map_or(self.id, |ring| ring.ward)
                    && a.offset() + rec.len <= target.len()
            });
            let Some(off) = addr.map(GlobalAddr::offset) else {
                continue;
            };
            payload.resize(rec.len as usize, 0);
            cursor = staging.read_at(slot_off + RECORD_HEADER, payload, cursor)?;
            if checksum(payload) != rec.checksum {
                continue;
            }
            cursor = target.write_at(off, payload, cursor)?;
            ranges.push((off, rec.len));
            last = Some(rec.seq);
            applied(rec, off, payload);
        }
        if !ranges.is_empty() {
            cursor = target.flush_at(&ranges, cursor)?;
        }
        Ok((last, cursor))
    }

    /// Persists ring `cid`'s durable watermark `seq` in the lane's image,
    /// continuing the run's `cursor`: the word is stored and flushed after
    /// every record up to `seq` was (crash consistency). Returns the run's
    /// modelled end, for [`ServerInner::publish_watermark`].
    fn persist_watermark(
        &self,
        target: &MemRegion,
        cid: u32,
        seq: u64,
        cursor: Instant,
    ) -> Result<Instant, GengarError> {
        let wm_off = cid as u64 * 8;
        let cursor = target.store_u64_at(wm_off, seq, cursor)?;
        Ok(target.flush_at(&[(wm_off, 8)], cursor)?)
    }

    /// Waits out a run's modelled end `at` — the one wait of the run — and
    /// only then stores ring `cid`'s client-visible ctl word, which the
    /// client retires slots off, at `seq`.
    fn publish_watermark(&self, cid: u32, seq: u64, at: Instant) -> Result<(), GengarError> {
        spin_until(at);
        self.ctl_mr.region().store_u64(cid as u64 * 8, seq)?;
        Ok(())
    }

    /// Replays ring `cid` into its lane's image: every staged record past
    /// the ring's durable watermark, in sequence order, as one run of
    /// [`ServerInner::apply_run`], then the watermark — which makes a
    /// second replay find nothing. Returns how many records were applied.
    fn replay_ring(
        &self,
        cid: u32,
        target: &MemRegion,
        mirror: Option<MirrorRing>,
    ) -> Result<u64, GengarError> {
        let watermark = target.load_u64(cid as u64 * 8)?;
        if watermark & RETIRED != 0 {
            return Ok(0);
        }
        let staging = self.staging_mr.region();
        let mut hdr = [0u8; RECORD_HEADER as usize];
        let mut records = Vec::new();
        for slot in 0..self.ring.slots {
            let slot_off = self.slot_off(cid, slot);
            staging.read(slot_off, &mut hdr)?;
            let rec = decode_record_header(&hdr);
            if rec.seq > watermark {
                records.push((rec, slot_off));
            }
        }
        records.sort_by_key(|(rec, _)| rec.seq);
        let mut replayed = 0;
        let (last, cursor) = self.apply_run(
            target,
            mirror,
            &records,
            Instant::now(),
            &mut Vec::new(),
            |_, _, _| replayed += 1,
        )?;
        let seq = last.unwrap_or(watermark);
        let at = self.persist_watermark(target, cid, seq, cursor)?;
        self.publish_watermark(cid, seq, at)?;
        Ok(replayed)
    }

    /// Opens ring `cid`'s proxy lane: builds and connects the proxy QP
    /// pair, arms one receive per ring slot and registers the ring (a
    /// mirror ring claims the shadow for its ward in the same step).
    /// Returns the client's end.
    fn open_lane(
        &self,
        cid: u32,
        client_node: &Arc<RdmaNode>,
        client_pd: &ProtectionDomain,
        mirror: Option<MirrorRing>,
    ) -> Result<Endpoint, GengarError> {
        let (c_proxy, s_proxy) = self.connect(client_node, client_pd)?;
        for _ in 0..self.ring.slots {
            self.arm_recv(&s_proxy)?;
        }
        // Claim the shadow for the ward atomically with registering the
        // ring (lock order: shadow_ward before clients). A concurrent
        // Promote or install for a different ward that won the race makes
        // this lane refuse rather than alias the shadow.
        let mut claim = mirror.map(|_| self.shadow_ward.write());
        if let (Some(ring), Some(claim)) = (mirror, claim.as_mut()) {
            if *claim.get_or_insert(ring.ward) != ring.ward {
                return Err(GengarError::ProtocolViolation(
                    "shadow already dedicated to another ward",
                ));
            }
        }
        let qpn = s_proxy.qpn();
        self.clients
            .lock()
            .lanes
            .insert(qpn, (cid, Lane::Ring(s_proxy, mirror)));
        Ok(c_proxy)
    }

    /// Connects a QP pair between a client and this server whose server
    /// end receives on the loop's CQ. Returns the client's end and the
    /// server's.
    fn connect(
        &self,
        client_node: &Arc<RdmaNode>,
        client_pd: &ProtectionDomain,
    ) -> Result<(Endpoint, Arc<QueuePair>), GengarError> {
        let s_qp = self.node.create_qp(
            &self.pd,
            self.node.create_cq(1024),
            Arc::clone(&self.recv_cq),
            QpOptions::default(),
        );
        let c_qp = client_node.create_qp(
            client_pd,
            client_node.create_cq(1024),
            client_node.create_cq(1024),
            QpOptions::default(),
        );
        c_qp.connect(self.node.id(), s_qp.qpn())?;
        s_qp.connect(client_node.id(), c_qp.qpn())?;
        Ok((Endpoint::from_qp(Arc::clone(client_node), c_qp), s_qp))
    }

    /// Posts one proxy-ring receive (zero-length: WRITE_WITH_IMM never
    /// scatters into it, any PD-local lkey satisfies the interface).
    fn arm_recv(&self, qp: &QueuePair) -> Result<(), gengar_rdma::RdmaError> {
        let sge = Sge::new(self.ctl_mr.lkey(), 0, 0);
        qp.post_recv(gengar_rdma::RecvWr::new(0, sge))
    }

    /// Finds the live object containing NVM offset `off`.
    fn containing_object(&self, off: u64) -> Option<(u64, u64)> {
        let objects = self.objects.read();
        let (&base, &len) = objects.range(..=off).next_back()?;
        if off < base + len {
            Some((base, len))
        } else {
            None
        }
    }

    /// Zeroes client `cid`'s report area — ring, mailbox and consumed
    /// cursor — for a new tenure of the id. Serialised with the epoch's fold
    /// by the monitor's lock, so a fold never publishes an old tenure's
    /// cursor over the reset.
    fn reset_reports(&self, cid: u32) -> Result<(), GengarError> {
        let _fold = self.hotness.lock();
        let area = ReportArea::of(cid).cursor();
        self.report_mr
            .region()
            .write(area, &vec![0u8; ReportArea::BYTES as usize])?;
        Ok(())
    }

    /// Folds every connected client's report ring in seq order, up to the
    /// first slot that is unwritten or torn: each slot goes to the monitor
    /// and each of its addresses through `cache.lookup` (a hit refreshes
    /// the frame's LRU time and upgrades it into protected), then the
    /// consumed cursor is published. Returns, per client that reported,
    /// the cursor and its addresses, hottest first, and every cached
    /// address a report marked written.
    fn fold_reports(&self) -> (Vec<Reported>, BTreeSet<u64>) {
        let cids: BTreeSet<u32> = self
            .clients
            .lock()
            .lanes
            .values()
            .filter(|(_, lane)| matches!(lane, Lane::Rpc(_)))
            .map(|&(cid, _)| cid)
            .collect();
        let region = self.report_mr.region();
        let mut slot = vec![0u8; REPORT_SLOT_BYTES as usize];
        let mut reported = Vec::new();
        let mut written = BTreeSet::new();
        for cid in cids {
            let area = ReportArea::of(cid);
            let mut entries = Vec::new();
            let seq = {
                let mut monitor = self.hotness.lock();
                let Ok(consumed) = region.load_u64(area.cursor()) else {
                    continue;
                };
                let mut seq = consumed;
                while seq - consumed < REPORT_SLOTS
                    && region.read(area.slot(seq + 1), &mut slot).is_ok()
                {
                    match decode_report(&slot) {
                        Some((s, slot_entries)) if s == seq + 1 => {
                            monitor.record(&slot_entries);
                            entries.extend(slot_entries);
                            seq = s;
                        }
                        _ => break,
                    }
                }
                if seq == consumed || region.store_u64(area.cursor(), seq).is_err() {
                    continue;
                }
                seq
            };
            let mut heat: HashMap<u64, u64> = HashMap::new();
            let mut cache = self.cache.lock();
            for e in entries {
                if cache.lookup(e.addr).is_some() && e.wrote {
                    written.insert(e.addr);
                }
                *heat.entry(e.addr).or_default() += u64::from(e.count);
            }
            drop(cache);
            let mut hottest: Vec<(u64, u64)> = heat.into_iter().collect();
            hottest.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            reported.push((
                area,
                seq,
                hottest.into_iter().map(|(addr, _)| addr).collect(),
            ));
        }
        (reported, written)
    }

    /// Writes each reporting client's mailbox: the current cache location
    /// (0 = not cached) of every address it reported, hottest first, sealed
    /// with the cursor its fold published — unless the id was reset since.
    fn post_remaps(&self, reported: Vec<Reported>) {
        let region = self.report_mr.region();
        for (area, seq, addrs) in reported {
            let remaps: Vec<(u64, u64)> = {
                let cache = self.cache.lock();
                let at = |addr| cache.location(addr).unwrap_or(0);
                addrs.into_iter().map(|addr| (addr, at(addr))).collect()
            };
            let mailbox = encode_remaps(seq, &remaps);
            let _fold = self.hotness.lock();
            if region.load_u64(area.cursor()).ok() == Some(seq) {
                let _ = region.write(area.mailbox(), &mailbox);
            }
        }
    }

    /// One hotness epoch: free the retired slots whose locks are free, fold
    /// the report rings, refresh/decay cache scores, promote hot objects,
    /// re-copy the frames reported writes left stale, then post each
    /// reporter's remaps. Runs on the server loop between
    /// harvests, so no drain apply interleaves with its copies; the loop
    /// also owns all demote-area traffic. With replication on it also
    /// checks this server's backup ([`ServerInner::check_backup`]).
    fn run_epoch(&self) {
        // Refresh shadow staleness while we are on a periodic path
        // anyway: replication health wants "how long since the standby
        // image advanced", which no event-driven path can age on its own.
        if self.shadow_mr.is_some() {
            let staleness = match *self.last_shadow_update.lock() {
                Some(at) => at.elapsed().as_millis().min(i64::MAX as u128) as i64,
                None => -1,
            };
            self.metrics.shadow_staleness_ms.set(staleness);
            self.check_backup();
        }
        let (reported, written) = self.fold_reports();
        let folded = self.hotness.lock().fold_epoch();
        let policy = &self.config.cache;
        if !policy.enabled {
            return;
        }
        {
            let mut cache = self.cache.lock();
            cache.reclaim();
            cache.decay_scores();
            cache.refresh_scores(&folded);
        }
        for (addr_raw, score) in folded {
            if score == 0 {
                continue;
            }
            // Ghost/demote members bypass the hot threshold: a returning
            // working set re-promotes on its first epoch back instead of
            // re-proving its heat from scratch.
            if score < policy.hot_threshold && !self.cache.lock().remembers(addr_raw) {
                continue;
            }
            let Some((addr, len)) = self.cacheable(addr_raw) else {
                continue;
            };
            if self.cache.lock().contains(addr_raw) {
                continue;
            }
            // Demote-tier fast path: one local NVM→DRAM copy, skipping the
            // object read, if the parked copy was taken at the current word.
            if self.cache.lock().has_demoted(addr_raw) {
                let word = self.nvm_mr.region().load_u64(addr.offset() - OBJ_HEADER);
                let mut cache = self.cache.lock();
                if word.is_ok_and(|w| cache.repromote(addr_raw, w, score).unwrap_or(false)) {
                    continue;
                }
            }
            if let Some((payload, word)) = self.bracketed_copy(addr, len) {
                let _ = self
                    .cache
                    .lock()
                    .promote_stamped(addr, &payload, word, score);
            }
        }
        // A `Seqlock` writer that knew no frame (none in its remaps yet, a
        // write short of the object's end, a lock the caller took) leaves
        // the frame stale, and reports it written: re-copy such frames into
        // their own slots, so the remaps that point at them stay good.
        for addr_raw in written {
            if self.cacheable(addr_raw).is_some() {
                let _ = self.cache.lock().refresh(addr_raw);
            }
        }
        self.post_remaps(reported);
    }

    /// The address and length of the live local object at `addr_raw`, if
    /// the cache may hold it.
    fn cacheable(&self, addr_raw: u64) -> Option<(GlobalAddr, u64)> {
        let addr = GlobalAddr::from_raw(addr_raw)
            .filter(|a| a.class() == MemClass::Nvm && a.server() == self.id)?;
        let len = *self.objects.read().get(&addr.offset())?;
        (len <= self.config.cache.cacheable_max).then_some((addr, len))
    }

    /// Copies object `addr` out of NVM for the cache, with the lock word
    /// the copy was taken at. The copy and its publication run on the
    /// server loop, between harvests, so a drain apply lands wholly before
    /// (and the copy has it) or wholly after (and refreshes the published
    /// frame in place); a flush-RPC invalidate runs on the loop too.
    /// One-sided writers cannot be held off, but under `Seqlock` they hold
    /// the lock word across their payload WRITE and its FLUSH and bump its
    /// version on unlock: a copy bracketed by two equal, unlocked loads of
    /// the word raced no such write, and the frame is stamped with it.
    /// Anything else returns `None`, to be tried next epoch.
    fn bracketed_copy(&self, addr: GlobalAddr, len: u64) -> Option<(Vec<u8>, u64)> {
        let nvm = self.nvm_mr.region();
        let word_off = addr.offset() - OBJ_HEADER;
        let mut payload = vec![0u8; len as usize];
        let word = nvm.load_u64(word_off).ok()?;
        if lockword::is_locked(word)
            || nvm.read(addr.offset(), &mut payload).is_err()
            || nvm.load_u64(word_off).ok() != Some(word)
        {
            return None;
        }
        Some((payload, word))
    }

    /// Control-plane request dispatch (server loop).
    fn handle(&self, cid: u32, req: Request) -> Response {
        self.metrics.rpc_requests.inc();
        // QoS enforcement on the RPC path: every post-handshake request
        // charges the tenant's enforcement-margin ops bucket. Handshake
        // requests (Mount) pass free so throttling never
        // starves reconnects. Over-budget tenants get THROTTLED, which the
        // client classifies as retryable and backs off.
        // Promote and QueryReplica also pass free: they run exactly when a
        // machine died, and throttling recovery would turn a budget blip
        // into unavailability. Inspect passes free too: it is the health
        // probe an operator reaches for exactly when a tenant is being
        // throttled, so it must never be throttled itself.
        if let Some(plane) = &self.qos {
            if !matches!(
                req,
                Request::Mount { .. }
                    | Request::Promote { .. }
                    | Request::QueryReplica
                    | Request::Inspect
            ) {
                if let Some(tenant) = plane.tenant_of(self.id, cid) {
                    if !tenant.rpc_admit() {
                        return Response::Err {
                            code: err_code::THROTTLED,
                        };
                    }
                }
            }
        }
        match req {
            Request::Mount { tenant } => {
                if let Some(plane) = &self.qos {
                    plane.bind(self.id, cid, &tenant);
                }
                Response::Mount(MountInfo {
                    server_id: self.id,
                    nvm_rkey: self.nvm_mr.rkey().0,
                    cache_rkey: self.cache_mr.rkey().0,
                    staging_rkey: self.staging_mr.rkey().0,
                    ctl_rkey: self.ctl_mr.rkey().0,
                    report_rkey: self.report_mr.rkey().0,
                    nvm_capacity: self.config.nvm_capacity,
                    enable_cache: self.config.cache.enabled,
                    enable_proxy: self.config.enable_proxy,
                    slot_payload: self.ring.slot_payload,
                    slots_per_ring: self.ring.slots,
                    shadow_rkey: self.shadow_mr.as_ref().map_or(0, |m| m.rkey().0),
                    backup: *self.backup.lock(),
                })
            }
            Request::Alloc { size } => self.handle_alloc(size),
            Request::Free { addr } => self.handle_free(addr),
            Request::FlushRange { addr, len } => self.handle_flush(addr, len),
            Request::QueryDurable { client_id } => self.retire_ring(client_id),
            Request::Promote { primary } => self.handle_promote(primary),
            Request::QueryReplica => Response::Replica {
                backup: *self.backup.lock(),
            },
            Request::Inspect => Response::Inspect {
                json: match &self.health {
                    Some(plane) => plane.inspect_json(self.id, MAX_INSPECT_JSON),
                    None => HealthPlane::disabled_json(self.id),
                },
            },
        }
    }

    /// Answers a reconnecting client's `QueryDurable` for its old ring
    /// `cid`: the ring stops draining first — its lane leaves the table,
    /// and no run of it is in flight, since runs drain on this same loop —
    /// so the answer is final. The client replays every record above it
    /// through its new ring; an old-ring record drained after the answer
    /// could overwrite a newer replayed value.
    ///
    /// The retirement is durable: the image watermark gains [`RETIRED`],
    /// flushed, and `recover` replays no retired ring. Records still in its
    /// staging slots — the ones the client replays through its new ring,
    /// and WRITE_WITH_IMMs landing late on the old QP — would otherwise
    /// revert newer values at the next crash. The bit leaves the answer
    /// intact, so a reconnect that dies after asking and asks again gets
    /// the same one.
    fn retire_ring(&self, cid: u32) -> Response {
        let refuse = Response::Err {
            code: err_code::BAD_REQUEST,
        };
        let wm_off = cid as u64 * 8;
        {
            // Only a primary ring the server has handed out retires: an id
            // not yet issued, on the free list or naming a mirror ring may
            // become (or be) another client's primary ring, which the
            // fence would keep out of recovery.
            let mut clients = self.clients.lock();
            let mirror =
                |(id, lane): &(u32, Lane)| *id == cid && matches!(lane, Lane::Ring(_, Some(_)));
            if wm_off >= self.wm_area
                || cid >= clients.next_id
                || clients.free_ids.contains(&cid)
                || clients.lanes.values().any(mirror)
            {
                return refuse;
            }
            clients
                .lanes
                .retain(|_, (id, lane)| *id != cid || !matches!(lane, Lane::Ring(..)));
        }
        let nvm = self.nvm_mr.region();
        let retire = || -> Result<u64, GengarError> {
            let word = nvm.load_u64(wm_off)?;
            if word & RETIRED == 0 {
                nvm.store_u64(wm_off, word | RETIRED)?;
                nvm.flush(wm_off, 8)?;
            }
            Ok(word & !RETIRED)
        };
        match retire() {
            Ok(seq) => Response::Durable { seq },
            Err(_) => refuse,
        }
    }

    /// Promotes this server for dead primary `primary`: replays every
    /// un-drained record in the mirror rings warding it into the shadow
    /// image, then marks the primary promoted so its addresses are served
    /// from the shadow on the data and control planes. Idempotent — the
    /// shadow watermark makes a second promotion replay nothing new.
    fn handle_promote(&self, primary: u8) -> Response {
        // The shadow serves exactly one ward; promoting a second one would
        // hand out another server's bytes at the same offsets. Claim it
        // (and hold the claim for the whole replay, so a concurrent image
        // install for a different primary cannot interleave) or refuse.
        let mut shadow_ward = self.shadow_ward.write();
        if self.shadow_mr.is_none() || *shadow_ward.get_or_insert(primary) != primary {
            return Response::Err {
                code: err_code::BAD_REQUEST,
            };
        }
        let mut replayed = 0u64;
        for (cid, ring) in self.mirror_rings() {
            // A ring whose replay hits a device error is skipped, its
            // watermark unmoved: promotion is the availability path and
            // serves what it could replay rather than failing outright.
            if let Some(shadow) = self.shadow_of(Some(ring), *shadow_ward) {
                replayed += self.replay_ring(cid, shadow, Some(ring)).unwrap_or(0);
            }
        }
        if replayed > 0 {
            *self.last_shadow_update.lock() = Some(Instant::now());
        }
        let newly = self.promoted.lock().insert(primary);
        if newly {
            self.metrics.promotions.inc();
            gengar_telemetry::Tracer::global().event("replica.promote", primary as u64);
        }
        Response::Promoted { replayed }
    }

    fn handle_alloc(&self, size: u64) -> Response {
        if size == 0 || size > self.config.max_object {
            return Response::Err {
                code: err_code::TOO_LARGE,
            };
        }
        let block = match self.alloc.lock().alloc(size + OBJ_HEADER) {
            Ok(off) => off,
            Err(GengarError::ObjectTooLarge { .. }) => {
                return Response::Err {
                    code: err_code::TOO_LARGE,
                }
            }
            Err(_) => {
                return Response::Err {
                    code: err_code::OOM,
                }
            }
        };
        let payload_off = block + OBJ_HEADER;
        let nvm = self.nvm_mr.region();
        // Initialise the header: unlocked version-0 word + length.
        if nvm.store_u64(block, lockword::INIT).is_err()
            || nvm.store_u64(block + 8, size).is_err()
            || nvm.flush(block, OBJ_HEADER).is_err()
        {
            let _ = self.alloc.lock().free(block);
            return Response::Err {
                code: err_code::BAD_REQUEST,
            };
        }
        self.objects.write().insert(payload_off, size);
        let addr = GlobalAddr::new(self.id, MemClass::Nvm, payload_off);
        Response::Alloc { addr: addr.raw() }
    }

    fn handle_free(&self, addr_raw: u64) -> Response {
        let addr = match GlobalAddr::from_raw(addr_raw) {
            Some(a) if a.class() == MemClass::Nvm && a.server() == self.id => a,
            _ => {
                return Response::Err {
                    code: err_code::INVALID_ADDR,
                }
            }
        };
        let payload_off = addr.offset();
        if !self.objects.read().contains_key(&payload_off) {
            return Response::Err {
                code: err_code::DOUBLE_FREE,
            };
        }
        // A stamped frame goes only under the object's lock word, so a
        // free of an object a client holds locked is refused.
        if let Ok(false) = self.cache.lock().forget(addr_raw) {
            return Response::Err {
                code: err_code::LOCKED,
            };
        }
        self.objects.write().remove(&payload_off);
        match self.alloc.lock().free(payload_off - OBJ_HEADER) {
            Ok(_) => Response::Ok,
            Err(_) => Response::Err {
                code: err_code::DOUBLE_FREE,
            },
        }
    }

    /// Flushes a written range and invalidates its object's cached copy. After
    /// a promotion this server also accepts addresses of the primaries it
    /// promoted for, flushing their ranges in the shadow image instead.
    fn handle_flush(&self, addr_raw: u64, len: u64) -> Response {
        let addr = match GlobalAddr::from_raw(addr_raw) {
            Some(a)
                if a.class() == MemClass::Nvm
                    && (a.server() == self.id || self.promoted.lock().contains(&a.server())) =>
            {
                a
            }
            _ => {
                return Response::Err {
                    code: err_code::INVALID_ADDR,
                }
            }
        };
        let region = if addr.server() == self.id {
            self.nvm_mr.region()
        } else {
            match &self.shadow_mr {
                Some(mr) => mr.region(),
                None => {
                    return Response::Err {
                        code: err_code::INVALID_ADDR,
                    }
                }
            }
        };
        let off = addr.offset();
        let past_end = off.checked_add(len).is_none_or(|end| end > region.len());
        if past_end || region.flush(off, len.max(1)).is_err() {
            return Response::Err {
                code: err_code::INVALID_ADDR,
            };
        }
        // The shadow image is never DRAM-cached, so only local addresses
        // have a cached copy to invalidate.
        if addr.server() == self.id {
            if let Some((base, _)) = self.containing_object(off) {
                let base_raw = GlobalAddr::new(self.id, MemClass::Nvm, base).raw();
                let _ = self.cache.lock().invalidate(base_raw);
            }
        }
        Response::Ok
    }
}

#[cfg(test)]
mod tests {
    use gengar_rdma::FabricConfig;

    use super::*;
    use crate::cluster::Cluster;

    /// A server runs one thread, its loop, whatever its connection
    /// history: accepts handed back and clients that come and go leave no
    /// thread (and no lane) behind.
    #[test]
    fn thread_count_does_not_depend_on_connections() {
        let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
        let server = cluster.server(0).unwrap();
        let one_loop = || {
            let thread = server.thread.lock();
            let name = thread
                .as_ref()
                .and_then(|t| t.thread().name().map(str::to_owned));
            assert_eq!(name.as_deref(), Some("s0-loop"));
        };
        one_loop();
        let node = cluster.fabric().add_node();
        let pd = node.alloc_pd();
        for _ in 0..6 {
            let channel = server.accept(&node, &pd).unwrap();
            server.release_client(channel.cid);
            one_loop();
            assert!(server.inner.clients.lock().lanes.is_empty());
        }
        for _ in 0..6 {
            drop(cluster.default_client().unwrap());
            one_loop();
        }
    }

    /// Two primaries that chose one survivor, having read the same claim,
    /// install into it at once: the compare-and-claim lets exactly one in,
    /// and the shadow is dedicated to the winner.
    #[test]
    fn concurrent_installs_on_one_seen_claim_let_one_in() {
        let mut config = ServerConfig::small();
        config.replication.enabled = true;
        let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
        let survivor = cluster.server(0).unwrap();
        let seen = survivor.shadow_ward();
        let image = survivor.inner.nvm_image().unwrap();
        let barrier = std::sync::Barrier::new(2);
        let won: Vec<u8> = std::thread::scope(|s| {
            let installs: Vec<_> = [7u8, 9]
                .into_iter()
                .map(|ward| {
                    let (barrier, image) = (&barrier, &image);
                    s.spawn(move || {
                        barrier.wait();
                        let installed = survivor.install_shadow_image(ward, seen, image);
                        installed.is_ok().then_some(ward)
                    })
                })
                .collect();
            installs
                .into_iter()
                .filter_map(|install| install.join().unwrap())
                .collect()
        });
        assert_eq!(won.len(), 1, "installs that claimed the shadow: {won:?}");
        assert_eq!(survivor.shadow_ward(), Some(won[0]));
    }
}
