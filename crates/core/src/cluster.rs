//! One-call deployment of a simulated Gengar cluster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gengar_rdma::{Fabric, FabricConfig, QosPolicy};

use crate::client::GengarClient;
use crate::config::{ClientConfig, ServerConfig};
use crate::error::GengarError;
use crate::health::HealthPlane;
use crate::proto::NO_BACKUP;
use crate::qos::QosPlane;
use crate::server::MemoryServer;

/// A fabric plus a set of memory servers, wired up and running.
///
/// ```
/// use gengar_core::cluster::Cluster;
/// use gengar_core::config::{ClientConfig, ServerConfig};
/// use gengar_core::pool::DshmPool;
/// use gengar_rdma::FabricConfig;
///
/// # fn main() -> Result<(), gengar_core::GengarError> {
/// let cluster = Cluster::launch(2, ServerConfig::small(), FabricConfig::instant())?;
/// let mut client = cluster.client(ClientConfig::default())?;
/// let ptr = client.alloc(0, 64)?;
/// client.write(ptr, 0, b"hello pool")?;
/// let mut buf = [0u8; 10];
/// client.read(ptr, 0, &mut buf)?;
/// assert_eq!(&buf, b"hello pool");
/// # Ok(())
/// # }
/// ```
pub struct Cluster {
    fabric: Arc<Fabric>,
    servers: Vec<Arc<MemoryServer>>,
    /// The cluster-shared health plane (one sampler + tick thread serves
    /// every server's `Inspect`); `None` = health layer off.
    health: Option<Arc<HealthPlane>>,
    /// Stops the background rebalance scanner (replicated clusters only).
    rebalance_stop: Arc<AtomicBool>,
    rebalance: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.servers.len())
            .finish()
    }
}

impl Cluster {
    /// Launches `n` memory servers (ids `0..n`) on a fresh fabric.
    ///
    /// # Errors
    ///
    /// Propagates server launch failures.
    pub fn launch(
        n: usize,
        server_config: ServerConfig,
        mut fabric_config: FabricConfig,
    ) -> Result<Cluster, GengarError> {
        // One QoS plane spans the whole cluster: every server binds
        // sessions into it and the fabric consults it as the admission
        // backstop, so a tenant's budget is global, not per server.
        let qos = server_config
            .qos
            .enabled
            .then(|| QosPlane::new(server_config.qos.clone(), server_config.telemetry));
        if let Some(plane) = &qos {
            fabric_config.qos = Some(Arc::clone(plane) as Arc<dyn QosPolicy>);
        }
        let fabric = Fabric::new(fabric_config);
        // One health plane spans the cluster for the same reason the QoS
        // plane does: the process shares one telemetry registry, so one
        // sampler/tick thread sees everything and every server's `Inspect`
        // answers from the same windows.
        let health = server_config.health.enabled.then(|| {
            let plane = HealthPlane::new(server_config.health.clone(), server_config.telemetry);
            plane.start();
            plane
        });
        let mut servers = Vec::with_capacity(n);
        for id in 0..n {
            servers.push(MemoryServer::launch_full(
                &fabric,
                id as u8,
                server_config.clone(),
                qos.clone(),
                health.clone(),
            )?);
        }
        // Replication ring: each server's staged writes are mirrored to
        // its successor. The rebalance scanner keeps the ring healthy: a
        // dead backup is replaced by the next live survivor, whose shadow
        // is seeded with the primary's current settled image so later
        // promotions also cover data that predates the re-mirror.
        let rebalance_stop = Arc::new(AtomicBool::new(false));
        let mut rebalance = None;
        if server_config.replication.enabled && n >= 2 {
            for (i, server) in servers.iter().enumerate() {
                server.set_backup(((i + 1) % n) as u8);
            }
            let fabric_bg = Arc::clone(&fabric);
            let servers_bg: Vec<Arc<MemoryServer>> = servers.clone();
            let stop = Arc::clone(&rebalance_stop);
            let interval = server_config.replication.rebalance_interval;
            // Resolve the handle here, not on the scanner thread: handles
            // are cheap clones of registry entries, and the scanner should
            // never block on registry registration mid-scan.
            let attempts = server_config
                .telemetry
                .handle()
                .counter("replica", "rebalance_attempts");
            rebalance = Some(
                thread::Builder::new()
                    .name("gengar-rebalance".into())
                    .spawn(move || {
                        Self::rebalance_loop(&fabric_bg, &servers_bg, &stop, interval, &attempts);
                    })
                    .expect("spawn rebalance thread"),
            );
        }
        Ok(Cluster {
            fabric,
            servers,
            health,
            rebalance_stop,
            rebalance,
        })
    }

    /// Whether pool id `id` is reachable: its server threads run and its
    /// machine is still attached to the fabric.
    fn is_alive(fabric: &Fabric, servers: &[Arc<MemoryServer>], id: usize) -> bool {
        servers
            .get(id)
            .is_some_and(|s| s.is_running() && fabric.node(s.node().id()).is_some())
    }

    /// The background backup-liveness scanner: every `interval`, each live
    /// primary whose backup died is re-pointed at the next live survivor
    /// (seeded with the primary's NVM image first, so the new shadow's
    /// promotion coverage starts from the settled state, not empty).
    fn rebalance_loop(
        fabric: &Arc<Fabric>,
        servers: &[Arc<MemoryServer>],
        stop: &AtomicBool,
        interval: Duration,
        attempts: &gengar_telemetry::CounterHandle,
    ) {
        let slice = Duration::from_millis(2).min(interval);
        let mut slept = Duration::ZERO;
        while !stop.load(Ordering::Relaxed) {
            // Sleep in slices so shutdown never waits a whole interval.
            if slept < interval {
                thread::sleep(slice);
                slept += slice;
                continue;
            }
            slept = Duration::ZERO;
            let n = servers.len();
            for (i, srv) in servers.iter().enumerate() {
                if !Self::is_alive(fabric, servers, i) {
                    continue; // dead primaries have nothing to protect
                }
                let b = srv.backup_id();
                if b != NO_BACKUP && Self::is_alive(fabric, servers, b as usize) {
                    continue;
                }
                // Next live survivor after the primary, skipping the dead
                // backup (deterministic: mirrors the launch-time ring).
                // One shadow, one ward: a survivor whose shadow is still
                // dedicated to a *relevant* other primary — alive, or dead
                // but promoted (its bytes are being served) — is not a
                // candidate. A claim by a dead, never-promoted ward is
                // stale and safe to retarget.
                let chosen = (1..n).map(|step| (i + step) % n).find(|&c| {
                    if c == b as usize
                        || !servers[c].replication_enabled()
                        || !Self::is_alive(fabric, servers, c)
                    {
                        return false;
                    }
                    match servers[c].shadow_ward() {
                        None => true,
                        Some(w) if w == i as u8 => true,
                        Some(w) => {
                            !Self::is_alive(fabric, servers, w as usize)
                                && !servers[c].has_promoted(w)
                        }
                    }
                });
                let Some(c) = chosen else { continue };
                attempts.inc();
                let Ok(image) = srv.nvm_image() else { continue };
                if servers[c].install_shadow_image(i as u8, &image).is_err() {
                    continue;
                }
                srv.set_backup(c as u8);
                gengar_telemetry::Tracer::global()
                    .event("replica.rebalance", (i as u64) << 8 | c as u64);
            }
        }
    }

    /// The cluster's shared QoS plane, when QoS is enabled.
    pub fn qos_plane(&self) -> Option<&Arc<QosPlane>> {
        self.servers.first().and_then(|s| s.qos_plane())
    }

    /// The cluster's shared health plane, when the live health layer is
    /// enabled.
    pub fn health_plane(&self) -> Option<&Arc<HealthPlane>> {
        self.health.as_ref()
    }

    /// The fabric (for fault injection or extra nodes).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The running servers.
    pub fn servers(&self) -> &[Arc<MemoryServer>] {
        &self.servers
    }

    /// One server by pool id.
    pub fn server(&self, id: u8) -> Option<&Arc<MemoryServer>> {
        self.servers.get(id as usize)
    }

    /// Connects a new client (one per thread) with the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn client(&self, config: ClientConfig) -> Result<GengarClient, GengarError> {
        GengarClient::connect(&self.fabric, &self.servers, config)
    }

    /// Connects a client with the default client configuration.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn default_client(&self) -> Result<GengarClient, GengarError> {
        self.client(ClientConfig::default())
    }

    /// Shuts every server down (also happens on drop).
    pub fn shutdown(&self) {
        self.rebalance_stop.store(true, Ordering::Relaxed);
        if let Some(plane) = &self.health {
            plane.stop();
        }
        for s in &self.servers {
            s.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.rebalance.take() {
            let _ = handle.join();
        }
    }
}
