//! The experiments, one module per figure/table (see DESIGN.md).

pub mod e01_devices;
pub mod e02_read_latency;
pub mod e03_write_latency;
pub mod e04_throughput;
pub mod e04p_pipelining;
pub mod e05_hotness;
pub mod e06_cache_size;
pub mod e07_ycsb_throughput;
pub mod e08_ycsb_latency;
pub mod e09_mapreduce;
pub mod e10_sharing;
pub mod e11_scalability;
pub mod e12_fairness;
pub mod e12a_ablation;
pub mod e13_replication;
pub mod e14_phase_change;
pub mod e15_observability;

use gengar_baselines::{ClientCache, DramOnly, NvmDirect};
use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, ServerConfig};
use gengar_core::pool::DshmPool;

use crate::RunConfig;

/// The systems compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Full Gengar: server-side DRAM cache + proxy writes.
    Gengar,
    /// One-sided access to NVM only (Octopus-class baseline).
    NvmDirect,
    /// Client-local caching over direct NVM (Hotpot-class baseline).
    ClientCache,
    /// DRAM-speed pool: the upper bound.
    DramOnly,
}

impl SystemKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Gengar => "gengar",
            SystemKind::NvmDirect => "nvm-direct",
            SystemKind::ClientCache => "client-cache",
            SystemKind::DramOnly => "dram-only",
        }
    }

    /// The comparison set used by most experiments.
    pub fn all() -> [SystemKind; 4] {
        [
            SystemKind::Gengar,
            SystemKind::NvmDirect,
            SystemKind::ClientCache,
            SystemKind::DramOnly,
        ]
    }
}

/// A launched system: its cluster plus the recipe for making clients.
pub struct System {
    kind: SystemKind,
    cluster: Cluster,
    client_config: ClientConfig,
}

impl System {
    /// Launches `kind` with `n_servers`, deriving from `base`, on the
    /// fabric (and with the client defaults) `run` asks for.
    pub fn launch(
        kind: SystemKind,
        n_servers: usize,
        base: ServerConfig,
        run: &RunConfig,
    ) -> System {
        let fabric = run.fabric_config(kind);
        let cluster = match kind {
            SystemKind::Gengar => Cluster::launch(n_servers, base, fabric).expect("launch gengar"),
            SystemKind::NvmDirect => {
                NvmDirect::launch(n_servers, base, fabric).expect("launch nvm-direct")
            }
            SystemKind::ClientCache => {
                ClientCache::launch(n_servers, base, fabric).expect("launch client-cache")
            }
            SystemKind::DramOnly => {
                DramOnly::launch(n_servers, base, fabric).expect("launch dram-only")
            }
        };
        System {
            kind,
            cluster,
            client_config: run.base_client_config(),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The underlying cluster (for stats or fault injection).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Connects a pool client of the appropriate flavour.
    pub fn client(&self) -> Box<dyn DshmPool + Send> {
        match self.kind {
            SystemKind::Gengar => Box::new(self.gengar_client(self.client_config.clone())),
            SystemKind::NvmDirect => {
                Box::new(NvmDirect::client(&self.cluster).expect("nvm-direct client"))
            }
            SystemKind::ClientCache => Box::new(
                ClientCache::client(
                    &self.cluster,
                    gengar_core::CachePolicy::new().capacity(16 << 20),
                )
                .expect("client-cache client"),
            ),
            SystemKind::DramOnly => {
                Box::new(DramOnly::client(&self.cluster).expect("dram-only client"))
            }
        }
    }

    /// Connects a Gengar client with explicit configuration (only valid on
    /// Gengar-shaped clusters).
    pub fn gengar_client(&self, config: ClientConfig) -> gengar_core::GengarClient {
        self.cluster.client(config).expect("gengar client")
    }
}
