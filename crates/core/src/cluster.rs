//! One-call deployment of a simulated Gengar cluster.

use std::sync::Arc;

use gengar_rdma::{Fabric, FabricConfig, QosPolicy};

use crate::client::GengarClient;
use crate::config::{ClientConfig, ServerConfig};
use crate::error::GengarError;
use crate::health::HealthPlane;
use crate::qos::QosPlane;
use crate::server::MemoryServer;

/// A fabric plus a set of memory servers, wired up and running. The
/// cluster runs no thread of its own: each server's loop, `s<id>-loop`,
/// also runs its backup check and ticks the shared health plane.
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
        // sampler sees everything and every server's `Inspect` answers from
        // the same windows. Whichever server loop finds a tick due runs it.
        let health = server_config
            .health
            .enabled
            .then(|| HealthPlane::new(server_config.health.clone(), server_config.telemetry));
        let mut servers = Vec::with_capacity(n);
        for id in 0..n {
            servers.push(MemoryServer::launch(
                &fabric,
                id as u8,
                server_config.clone(),
                qos.clone(),
                health.clone(),
            )?);
        }
        // Replication ring: each server's staged writes are mirrored to
        // its successor. Each primary's epoch keeps its link of the ring
        // healthy, choosing a new backup among its peers when its backup
        // dies.
        if server_config.replication.enabled && n >= 2 {
            for (i, server) in servers.iter().enumerate() {
                server.set_backup(((i + 1) % n) as u8);
                server.set_peers(&servers);
            }
        }
        Ok(Cluster { fabric, servers })
    }

    /// The cluster's shared QoS plane, when QoS is enabled.
    pub fn qos_plane(&self) -> Option<&Arc<QosPlane>> {
        self.servers.first().and_then(|s| s.qos_plane())
    }

    /// The cluster's shared health plane, when the live health layer is
    /// enabled.
    pub fn health_plane(&self) -> Option<&Arc<HealthPlane>> {
        self.servers.first().and_then(|s| s.health_plane())
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
        for s in &self.servers {
            s.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
