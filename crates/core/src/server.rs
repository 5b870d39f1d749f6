//! The Gengar memory server.
//!
//! Each server contributes NVM and DRAM to the pool. It exports four RDMA
//! regions (NVM data, DRAM cache, ADR staging rings, control words), plus a
//! shadow NVM image when replication is on, and runs `1 + proxy_threads`
//! threads, however many clients connect:
//!
//! * The **control loop** serves every connection's control plane off one
//!   shared receive CQ — mount, allocation, hotness reports,
//!   flush/invalidate, staging setup, and `Promote` (failover replay of the
//!   mirror rings) — and at each epoch deadline folds hotness reports and
//!   promotes hot objects into the DRAM cache.
//! * The **proxy drain loops** finish staged writes and advance durable
//!   watermarks. A *primary lane* (a client's own ring) applies records to
//!   local NVM and keeps cached copies fresh; a *mirror lane* applies them
//!   to the shadow image of the primary it wards. The live drains,
//!   [`MemoryServer::recover`] and `Promote` share one record applier
//!   (`apply_record`) and one watermark step (`publish_watermark`).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gengar_hybridmem::{DeviceProfile, MemDevice, MemRegion};
use gengar_rdma::{
    Access, CompletionQueue, Endpoint, Fabric, MemoryRegion, ProtectionDomain, QpOptions, Qpn,
    QueuePair, RdmaNode, Sge, WcOpcode,
};
use gengar_telemetry::{CounterHandle, GaugeHandle, HistogramHandle, TelemetryConfig};
use parking_lot::{Mutex, RwLock};

use crate::addr::{GlobalAddr, MemClass};
use crate::alloc::SlabAllocator;
use crate::cache::{CacheManager, CacheStats};
use crate::config::ServerConfig;
use crate::error::GengarError;
use crate::health::HealthPlane;
use crate::hotness::HotnessMonitor;
use crate::layout::{
    checksum, decode_record_header, lockword, RecordHeader, OBJ_HEADER, RECORD_HEADER,
};
use crate::proto::{
    err_code, MountInfo, RemapUpdate, Request, Response, MAX_INSPECT_JSON, NO_BACKUP,
};
use crate::proxy::RingLayout;
use crate::qos::QosPlane;
use crate::rpc::{RpcServerConn, RPC_BUF_BYTES};

/// Everything a client needs after [`MemoryServer::accept`]: three
/// endpoints (control RPC, one-sided data, proxy ring) on the client side.
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
    /// Completions waiting in the proxy drain CQs (staged records the
    /// drain threads have not reached yet).
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
    /// Shadow NVM (same geometry as `nvm_dev`): a standby image of the
    /// server this one backs up. `None` when replication is off — no
    /// memory is allocated and no path pays for it.
    shadow_dev: Option<Arc<MemDevice>>,
    shadow_mr: Option<Arc<MemoryRegion>>,
    /// Which server backs *this* one up ([`NO_BACKUP`] = unreplicated).
    /// Published to clients in [`MountInfo`] and via `QueryReplica`; the
    /// cluster's rebalance thread rewrites it when a backup dies.
    backup: Mutex<u8>,
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
    /// while the old ward is promoted.
    shadow_ward: RwLock<Option<u8>>,
    /// Held for read by the primary drain while it applies a record to NVM
    /// (payload, cache refresh, watermark); for write by
    /// [`MemoryServer::nvm_image`] while it copies the region — so a
    /// rebalance snapshot can never capture a half-applied record — and by
    /// the epoch while it copies and publishes one object, so a promotion
    /// never publishes bytes an apply already superseded (an invalidate
    /// runs on the epoch's own loop). Lock order: before `cache`.
    nvm_quiesce: RwLock<()>,
    /// Replica-epoch source for mirror tenures (starts at 1; epoch 0 in a
    /// record header means "unreplicated").
    mirror_epoch: AtomicU32,
    alloc: Mutex<SlabAllocator>,
    /// payload base offset -> payload length, ordered for containment
    /// lookups.
    objects: RwLock<BTreeMap<u64, u64>>,
    hotness: Mutex<HotnessMonitor>,
    cache: Mutex<CacheManager>,
    clients: Mutex<ClientTable>,
    /// One receive CQ per proxy drain thread; rings are pinned to threads
    /// by client id so each ring's records drain in order.
    proxy_recv_cqs: Vec<Arc<CompletionQueue>>,
    /// The receive CQ of every RPC connection, polled by the control loop.
    rpc_recv_cq: Arc<CompletionQueue>,
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
    threads: Mutex<Vec<JoinHandle<()>>>,
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
    /// launches its background threads.
    ///
    /// # Errors
    ///
    /// Propagates device/region/registration failures.
    pub fn launch(
        fabric: &Arc<Fabric>,
        id: u8,
        config: ServerConfig,
    ) -> Result<Arc<MemoryServer>, GengarError> {
        // A standalone server owns a private QoS plane and a private health
        // plane (one sampler over the process registry); clusters pass
        // shared ones through `launch_full` so tenants span servers and
        // one tick thread serves every server's `Inspect`.
        let qos = config
            .qos
            .enabled
            .then(|| QosPlane::new(config.qos.clone(), config.telemetry));
        let health = config.health.enabled.then(|| {
            let plane = HealthPlane::new(config.health.clone(), config.telemetry);
            plane.start();
            plane
        });
        Self::launch_full(fabric, id, config, qos, health)
    }

    /// Like [`MemoryServer::launch`], but with explicit (typically
    /// cluster-shared) QoS and health planes. `None` disables the plane
    /// for this server regardless of `config.qos.enabled` /
    /// `config.health.enabled` — without a health plane `Inspect` answers
    /// with the minimal "unknown" document.
    ///
    /// # Errors
    ///
    /// Propagates device/region/registration failures.
    pub fn launch_full(
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
        let cache_mr = pd.reg_mr(
            MemRegion::whole(Arc::clone(&cache_dev)),
            Access::LOCAL_WRITE | Access::REMOTE_READ,
        )?;
        let staging_mr = pd.reg_mr(
            MemRegion::whole(Arc::clone(&staging_dev)),
            Access::LOCAL_WRITE | Access::REMOTE_WRITE,
        )?;
        let ctl_mr = pd.reg_mr(
            MemRegion::whole(Arc::clone(&ctl_dev)),
            Access::LOCAL_WRITE | Access::REMOTE_READ,
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
        let cache = CacheManager::with_policy(
            id,
            MemRegion::whole(Arc::clone(&cache_dev)),
            demote_region,
            config.cache,
            config.telemetry,
        );
        let inner = Arc::new(ServerInner {
            id,
            ring,
            wm_area,
            alloc: Mutex::new(SlabAllocator::new(wm_area, config.nvm_capacity)),
            objects: RwLock::new(BTreeMap::new()),
            hotness: Mutex::new(HotnessMonitor::with_policy(&config.cache, config.telemetry)),
            cache: Mutex::new(cache),
            clients: Mutex::new(ClientTable {
                next_id: 0,
                free_ids: Vec::new(),
                lanes: HashMap::new(),
            }),
            proxy_recv_cqs: (0..config.proxy_threads.max(1))
                .map(|_| Arc::new(CompletionQueue::new(65_536)))
                .collect(),
            rpc_recv_cq: Arc::new(CompletionQueue::new(65_536)),
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
            shadow_dev,
            shadow_mr,
            backup: Mutex::new(NO_BACKUP),
            promoted: Mutex::new(HashSet::new()),
            shadow_ward: RwLock::new(None),
            nvm_quiesce: RwLock::new(()),
            mirror_epoch: AtomicU32::new(1),
        });

        let server = Arc::new(MemoryServer {
            inner: Arc::clone(&inner),
            threads: Mutex::new(Vec::new()),
        });

        server.spawn_workers();
        Ok(server)
    }

    /// Starts the control loop (RPCs and epochs) and the proxy drain
    /// threads (rings pinned by client id).
    fn spawn_workers(&self) {
        let mut threads = self.threads.lock();
        let inner = Arc::clone(&self.inner);
        threads.push(std::thread::spawn(move || inner.control_loop()));
        for t in 0..self.inner.proxy_recv_cqs.len() {
            let inner = Arc::clone(&self.inner);
            threads.push(std::thread::spawn(move || inner.drain_loop(t)));
        }
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
    /// id, hands the RPC connection to the control loop and arms the proxy
    /// ring. No thread is started.
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

            // Control-plane pair + its message buffer.
            let (rpc, s_rpc) = inner.connect(client_node, client_pd, &inner.rpc_recv_cq)?;
            let s_qpn = s_rpc.qpn();
            let mut s_rpc = Endpoint::from_qp(Arc::clone(&inner.node), s_rpc);
            // Bound the response-send patience: a response lost to an
            // injected fault must not hold the control loop for the default
            // 10 s — the connection dies and the client reconnects.
            s_rpc.set_op_timeout(Duration::from_millis(250));
            let msg_off = cid as u64 * RPC_BUF_BYTES;
            let msg_region = MemRegion::new(Arc::clone(&inner.msg_dev), msg_off, RPC_BUF_BYTES)?;
            let msg_mr = inner.pd.reg_mr(msg_region, Access::LOCAL_WRITE)?;
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
        // A stopped server accepts nobody: no control loop would answer
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
    /// launch and rewritten by its rebalance thread after a backup dies;
    /// published to clients through [`MountInfo`] and `QueryReplica`.
    pub fn set_backup(&self, backup: u8) {
        *self.inner.backup.lock() = backup;
    }

    /// The server currently backing this one up ([`NO_BACKUP`] = none).
    pub fn backup_id(&self) -> u8 {
        *self.inner.backup.lock()
    }

    /// Whether this server was launched with a shadow device.
    pub fn replication_enabled(&self) -> bool {
        self.inner.shadow_mr.is_some()
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

    /// Snapshot of this server's full NVM image (watermark area + pool).
    /// Management-plane helper for the rebalance path: the image seeds a
    /// new backup's shadow so later promotions serve settled data that
    /// predates the re-mirror.
    ///
    /// # Errors
    ///
    /// Propagates device read failures.
    pub fn nvm_image(&self) -> Result<Vec<u8>, GengarError> {
        // Pause the proxy drains' NVM applies for the copy: a half-applied
        // record (payload written, watermark not yet — or vice versa)
        // captured here would seed the new backup with a torn value that no
        // later replay repairs, because the record may already be settled
        // and retired on the primary.
        let _quiesce = self.inner.nvm_quiesce.write();
        let nvm = self.inner.nvm_mr.region();
        let mut image = vec![0u8; nvm.len() as usize];
        nvm.read(0, &mut image)?;
        Ok(image)
    }

    /// The primary the shadow is currently dedicated to (`None` = never
    /// claimed). Management-plane helper for the rebalance scanner's
    /// candidate filter.
    pub fn shadow_ward(&self) -> Option<u8> {
        *self.inner.shadow_ward.read()
    }

    /// Installs `image` as this server's shadow and dedicates the shadow to
    /// `ward` (the image's owner; must match the shadow geometry).
    /// Management-plane counterpart of [`MemoryServer::nvm_image`] used
    /// when this server becomes someone's new backup.
    ///
    /// Retargets a stale claim (a dead, never-promoted ward) but refuses
    /// while any promotion is live: a promoted ward's shadow bytes are
    /// being served to clients and must not be clobbered by another
    /// server's image.
    ///
    /// # Errors
    ///
    /// [`GengarError::ProtocolViolation`] when replication is disabled, the
    /// image size does not match, or the shadow serves a promoted ward;
    /// device failures otherwise.
    pub fn install_shadow_image(&self, ward: u8, image: &[u8]) -> Result<(), GengarError> {
        let Some(shadow_mr) = &self.inner.shadow_mr else {
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
        // Claim (or retarget) under the write lock so neither a mirror
        // drain nor a promotion replay interleaves with the bulk copy.
        let mut shadow_ward = self.inner.shadow_ward.write();
        if !self.inner.promoted.lock().is_empty() {
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
        shadow.write(0, &vec![0u8; self.inner.wm_area as usize])?;
        shadow.flush(0, self.inner.wm_area)?;
        *self.inner.last_shadow_update.lock() = Some(Instant::now());
        Ok(())
    }

    /// Returns a client id for reuse after a mount handshake failed partway
    /// (e.g. the `Mount` RPC or staging setup was lost to a fault). Only
    /// call this for ids that never staged any data: a released id's ring
    /// and watermark slots are handed verbatim to the next client, which is
    /// safe exactly because nothing was ever written under the old tenure.
    /// Every lane opened under the id goes with it, the RPC connection
    /// included: the control loop stops answering it.
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

    /// Whether the server is serving (background threads alive, new
    /// clients accepted). False between [`MemoryServer::shutdown`] /
    /// [`MemoryServer::crash`] and [`MemoryServer::restart`].
    pub fn is_running(&self) -> bool {
        !self.inner.shutdown.load(Ordering::Relaxed)
    }

    /// Stops background threads and joins them, and drops every RPC
    /// connection: nothing answers them again, even after a restart.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        let mut clients = self.inner.clients.lock();
        clients.lanes.retain(|_, l| matches!(l.1, Lane::Ring(..)));
    }

    /// Restarts the control loop and the drain threads after a
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
    /// its last flushed state, staging survives (ADR), DRAM is lost.
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
    /// Body of the control loop: answers each RPC as its receive completes
    /// on the shared CQ, and runs an epoch whenever the deadline passes —
    /// the next one is due an `epoch` after that run ends. A connection
    /// that fails to answer is dropped; its client reconnects.
    fn control_loop(&self) {
        let mut next_epoch = Instant::now() + self.config.epoch;
        while !self.shutdown.load(Ordering::Relaxed) {
            let wait = next_epoch.saturating_duration_since(Instant::now());
            for wc in self.rpc_recv_cq.wait(64, wait) {
                let lane = self.clients.lock().lanes.get(&wc.qpn).cloned();
                let Some((cid, Lane::Rpc(conn))) = lane else {
                    continue;
                };
                if conn.answer(&wc, |req| self.handle(cid, req)).is_err() {
                    self.clients.lock().lanes.remove(&wc.qpn);
                }
            }
            if Instant::now() >= next_epoch {
                self.run_epoch();
                next_epoch = Instant::now() + self.config.epoch;
            }
        }
    }

    /// Body of one proxy drain thread: harvest WRITE_WITH_IMM completions
    /// from the thread's recv CQ and drain the named slots. The backlog
    /// gauge tracks how many staged records are waiting across harvest and
    /// drain, so a proxy that falls behind is visible in telemetry.
    fn drain_loop(&self, t: usize) {
        let cq = &self.proxy_recv_cqs[t];
        while !self.shutdown.load(Ordering::Relaxed) {
            let wcs = cq.wait(64, Duration::from_millis(20));
            self.metrics
                .drain_backlog
                .set((wcs.len() + cq.len()) as i64);
            for wc in wcs {
                if wc.opcode == WcOpcode::RecvRdmaWithImm && wc.status.is_ok() {
                    let _ = self.drain(wc.qpn, wc.imm.unwrap_or(0));
                }
            }
        }
    }

    /// Drains one staged record (proxy thread).
    fn drain(&self, qpn: Qpn, slot: u32) -> Result<(), GengarError> {
        let _t = self.metrics.drain_ns.span();
        let lane = self.clients.lock().lanes.get(&qpn).cloned();
        let Some((cid, Lane::Ring(qp, mirror))) = lane else {
            return Ok(());
        };
        // Re-arm the consumed receive first, whatever becomes of the record:
        // the client reuses a slot only once the watermark passes it, so
        // the ring never has more writes in flight than receives posted.
        let _ = self.arm_recv(&qp);
        let (rec, slot_off) = self.read_slot(cid, slot)?;
        // Join the originating client op's trace: the record header carries
        // its trace id, so the asynchronous NVM drain shows up in the same
        // causal trace even though it runs after the client saw completion.
        let mut drain_span = gengar_telemetry::Tracer::global()
            .root_span_in("server.drain", gengar_telemetry::TraceId(rec.trace));
        drain_span.set_detail(rec.seq);
        if mirror.is_some() {
            // Mirror lane: no cache to refresh, no tenant to bill (the
            // primary's drain did both). The shadow holds exactly one
            // ward's image: a stale lane that outlived a retarget (its
            // ward died unpromoted and the shadow was re-dedicated) must
            // not scribble over the new ward's bytes. The read guard keeps
            // an image install or promotion replay from interleaving with
            // this apply.
            let claim = self.shadow_ward.read();
            if let Some(shadow) = self.shadow_of(mirror, *claim) {
                if self.apply_record(shadow, mirror, &rec, slot_off)?.is_some() {
                    self.publish_watermark(shadow, cid, rec.seq)?;
                    self.metrics.drained_records.inc();
                    *self.last_shadow_update.lock() = Some(Instant::now());
                }
            }
            return Ok(());
        }
        // Payload, cache refresh and watermark land atomically w.r.t. a
        // rebalance snapshot and a cache promotion (both hold this for
        // write): the seeded shadow never carries a torn record, and a
        // promotion never publishes the bytes this record replaces.
        let _quiesce = self.nvm_quiesce.read();
        let nvm = self.nvm_mr.region();
        let Some((off, payload)) = self.apply_record(nvm, None, &rec, slot_off)? else {
            return Ok(());
        };
        // Keep the cached copy fresh.
        if self.config.cache.enabled {
            if let Some((base, _len)) = self.containing_object(off) {
                let base_raw = GlobalAddr::new(self.id, MemClass::Nvm, base).raw();
                let rel = off - base;
                let _ = self.cache.lock().update_range(base_raw, rel, &payload);
            }
        }
        self.publish_watermark(nvm, cid, rec.seq)?;
        self.metrics.drained_records.inc();
        // Per-tenant durable-byte accounting: the record header carries the
        // tenant tag across the client→drain handoff (0 = QoS off).
        if rec.tenant != 0 {
            if let Some(plane) = &self.qos {
                if let Some(t) = plane.tenant_by_tag(rec.tenant) {
                    t.note_drained(rec.len);
                }
            }
        }
        Ok(())
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

    /// The record header staged in `slot` of ring `cid`, and the slot's staging offset.
    fn read_slot(&self, cid: u32, slot: u32) -> Result<(RecordHeader, u64), GengarError> {
        let slot_off = cid as u64 * self.ring.ring_bytes() + self.ring.slot_offset(slot);
        let mut hdr = [0u8; RECORD_HEADER as usize];
        self.staging_mr.region().read(slot_off, &mut hdr)?;
        Ok((decode_record_header(&hdr), slot_off))
    }

    /// The one judge of a staged record, shared by the live drains and the
    /// replays. A record applies to `target` (local NVM for a primary lane,
    /// the ward's shadow for a mirror lane) only if its length fits a slot,
    /// it carries the mirror tenure's epoch (a reused mirror ring may hold
    /// a stale tenure's leftovers), its address names NVM on the lane's
    /// home server — this one, or the ward — inside the target image, and
    /// — read only once all of that holds — its payload matches its
    /// checksum (a torn record from a mid-crash staging write does not).
    /// Applying is payload write, then flush of that range; the caller
    /// publishes the watermark afterwards.
    ///
    /// Returns the target offset and payload of an applied record, `None`
    /// for a rejected one.
    fn apply_record(
        &self,
        target: &MemRegion,
        mirror: Option<MirrorRing>,
        rec: &RecordHeader,
        slot_off: u64,
    ) -> Result<Option<(u64, Vec<u8>)>, GengarError> {
        let addr = GlobalAddr::from_raw(rec.addr).filter(|a| {
            rec.len <= self.ring.slot_payload
                && mirror.is_none_or(|ring| ring.epoch == rec.epoch)
                && a.class() == MemClass::Nvm
                && a.server() == mirror.map_or(self.id, |ring| ring.ward)
                && a.offset() + rec.len <= target.len()
        });
        let Some(off) = addr.map(GlobalAddr::offset) else {
            return Ok(None);
        };
        let mut payload = vec![0u8; rec.len as usize];
        let staging = self.staging_mr.region();
        staging.read(slot_off + RECORD_HEADER, &mut payload)?;
        if checksum(&payload) != rec.checksum {
            return Ok(None);
        }
        target.write(off, &payload)?;
        target.flush(off, rec.len)?;
        Ok(Some((off, payload)))
    }

    /// Advances ring `cid`'s durable watermark to `seq`: the word in the
    /// lane's image first (crash consistency: every record up to `seq` is
    /// already flushed), then the client-visible ctl word that the client
    /// retires slots off.
    fn publish_watermark(&self, target: &MemRegion, cid: u32, seq: u64) -> Result<(), GengarError> {
        let wm_off = cid as u64 * 8;
        target.store_u64(wm_off, seq)?;
        target.flush(wm_off, 8)?;
        self.ctl_mr.region().store_u64(wm_off, seq)?;
        Ok(())
    }

    /// Replays ring `cid` into its lane's image: every staged record past
    /// the ring's durable watermark that `apply_record` accepts, in
    /// sequence order, then the watermark — which makes a second replay
    /// find nothing. Returns how many records were applied.
    fn replay_ring(
        &self,
        cid: u32,
        target: &MemRegion,
        mirror: Option<MirrorRing>,
    ) -> Result<u64, GengarError> {
        let watermark = target.load_u64(cid as u64 * 8)?;
        let mut records = Vec::new();
        for slot in 0..self.ring.slots {
            let staged = self.read_slot(cid, slot)?;
            if staged.0.seq > watermark {
                records.push(staged);
            }
        }
        records.sort_by_key(|(rec, _)| rec.seq);
        let (mut max_seq, mut replayed) = (watermark, 0);
        for (rec, slot_off) in records {
            if self.apply_record(target, mirror, &rec, slot_off)?.is_some() {
                max_seq = rec.seq;
                replayed += 1;
            }
        }
        self.publish_watermark(target, cid, max_seq)?;
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
        // The server side uses the recv CQ of the drain thread this ring
        // is pinned to.
        let drain_cq = &self.proxy_recv_cqs[cid as usize % self.proxy_recv_cqs.len()];
        let (c_proxy, s_proxy) = self.connect(client_node, client_pd, drain_cq)?;
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
    /// end receives on `recv_cq`. Returns the client's end and the server's.
    fn connect(
        &self,
        client_node: &Arc<RdmaNode>,
        client_pd: &ProtectionDomain,
        recv_cq: &Arc<CompletionQueue>,
    ) -> Result<(Endpoint, Arc<QueuePair>), GengarError> {
        let s_qp = self.node.create_qp(
            &self.pd,
            self.node.create_cq(1024),
            Arc::clone(recv_cq),
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

    /// One hotness epoch: fold reports, refresh/decay cache scores,
    /// promote hot objects. Runs on the control loop, which also owns all
    /// demote-area traffic — the foreground drain never pays for tiering.
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
        }
        let folded = self.hotness.lock().fold_epoch();
        let policy = &self.config.cache;
        if !policy.enabled {
            return;
        }
        {
            let mut cache = self.cache.lock();
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
            let addr = match GlobalAddr::from_raw(addr_raw) {
                Some(a) if a.class() == MemClass::Nvm && a.server() == self.id => a,
                _ => continue,
            };
            let len = match self.objects.read().get(&addr.offset()) {
                Some(&len) if len <= policy.cacheable_max => len,
                _ => continue,
            };
            {
                let mut cache = self.cache.lock();
                if cache.contains(addr_raw) {
                    continue;
                }
                // Demote-tier fast path: one local NVM→DRAM copy, skipping
                // the object read below entirely.
                if cache.repromote(addr_raw, score).unwrap_or(false) {
                    continue;
                }
            }
            let mut payload = vec![0u8; len as usize];
            let nvm = self.nvm_mr.region();
            let word_off = addr.offset() - OBJ_HEADER;
            // Copy and publish as one step w.r.t. a drain apply (a flush-RPC
            // invalidate runs on this loop): one landing between the two
            // finds nothing cached to refresh, and the old bytes would be
            // published after it. One-sided writers
            // cannot be held off, but under `Seqlock` they hold the lock
            // word across WRITE → flush RPC → unlock: a copy bracketed by
            // two equal, unlocked loads of it raced no such write. Anything
            // else skips the promotion for this epoch.
            let _still = self.nvm_quiesce.write();
            let word = nvm.load_u64(word_off).ok();
            if word.is_none_or(lockword::is_locked)
                || nvm.read(addr.offset(), &mut payload).is_err()
                || nvm.load_u64(word_off).ok() != word
            {
                continue;
            }
            let _ = self.cache.lock().promote(addr, &payload, score);
        }
    }

    /// Control-plane request dispatch (control loop).
    fn handle(&self, cid: u32, req: Request) -> Response {
        self.metrics.rpc_requests.inc();
        // QoS enforcement on the RPC path: every post-handshake request
        // charges the tenant's enforcement-margin ops bucket. Handshake
        // requests (Mount, OpenStaging) pass free so throttling never
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
                    | Request::OpenStaging
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
            Request::OpenStaging => Response::Staging {
                client_id: cid,
                ring_offset: cid as u64 * self.ring.ring_bytes(),
            },
            Request::Report { entries } => {
                self.hotness.lock().record(&entries);
                // Lookups mutate segment state: a remap hit refreshes the
                // frame's LRU stamp and upgrades it into protected.
                let mut cache = self.cache.lock();
                let remaps = entries
                    .iter()
                    .map(|e| RemapUpdate {
                        addr: e.addr,
                        cache_addr: cache.lookup(e.addr).unwrap_or(0),
                    })
                    .collect();
                Response::Report { remaps }
            }
            Request::FlushRange { addr, len } => self.handle_flush(addr, len, true),
            Request::Invalidate { addr } => self.handle_flush(addr, 0, false),
            Request::QueryDurable { client_id } => {
                match self.ctl_mr.region().load_u64(client_id as u64 * 8) {
                    Ok(seq) => Response::Durable { seq },
                    Err(_) => Response::Err {
                        code: err_code::BAD_REQUEST,
                    },
                }
            }
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
        if self.objects.write().remove(&payload_off).is_none() {
            return Response::Err {
                code: err_code::DOUBLE_FREE,
            };
        }
        let _ = self.cache.lock().invalidate(addr_raw);
        match self.alloc.lock().free(payload_off - OBJ_HEADER) {
            Ok(_) => Response::Ok,
            Err(_) => Response::Err {
                code: err_code::DOUBLE_FREE,
            },
        }
    }

    /// Flush (and/or invalidate the cached copy of) a written range. After
    /// a promotion this server also accepts addresses of the primaries it
    /// promoted for, flushing their ranges in the shadow image instead.
    fn handle_flush(&self, addr_raw: u64, len: u64, flush: bool) -> Response {
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
        if flush {
            if off + len > region.len() {
                return Response::Err {
                    code: err_code::INVALID_ADDR,
                };
            }
            if region.flush(off, len.max(1)).is_err() {
                return Response::Err {
                    code: err_code::INVALID_ADDR,
                };
            }
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

    /// A server runs its control loop and its drain loops, whatever its
    /// connection history: accepts handed back and clients that come and
    /// go leave no thread (and no lane) behind.
    #[test]
    fn thread_count_does_not_depend_on_connections() {
        let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant()).unwrap();
        let server = cluster.server(0).unwrap();
        let threads = 1 + server.config().proxy_threads as usize;
        assert_eq!(server.threads.lock().len(), threads);
        let node = cluster.fabric().add_node();
        let pd = node.alloc_pd();
        for _ in 0..6 {
            let channel = server.accept(&node, &pd).unwrap();
            server.release_client(channel.cid);
            assert_eq!(server.threads.lock().len(), threads);
            assert!(server.inner.clients.lock().lanes.is_empty());
        }
        for _ in 0..6 {
            drop(cluster.default_client().unwrap());
            assert_eq!(server.threads.lock().len(), threads);
        }
    }
}
