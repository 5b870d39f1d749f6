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

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, ServerConfig};
use gengar_core::pool::DshmPool;
use gengar_core::{CachePolicy, GengarClient};
use gengar_hybridmem::{DeviceProfile, MemKind, PersistenceMode};

use crate::client_cache::ClientCache;
use crate::RunConfig;

/// Local cache of every client-cache client: the server-side cache
/// `RunConfig::base_config` gives Gengar, so both designs get the same DRAM.
const CLIENT_CACHE_BYTES: u64 = 16 << 20;

/// The systems compared throughout the evaluation. A comparator is a
/// server shape ([`SystemKind::server_config`]) and a client config
/// ([`SystemKind::client_config`]) around a plain [`GengarClient`]; this
/// enum is the only place either is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Full Gengar: server-side DRAM cache + proxy writes.
    Gengar,
    /// One-sided access to NVM only, no cache and no proxy; a durable write
    /// is an RDMA WRITE plus a flush RPC (Octopus-class comparator).
    NvmDirect,
    /// Nvm-direct servers under a client-local cache with version-validated
    /// hits (Hotpot-class comparator, [`ClientCache`]).
    ClientCache,
    /// The whole pool at DRAM speed and durable on write: the ceiling any
    /// hybrid design could reach if NVM were as fast as DRAM.
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

    /// The server configuration this system runs, derived from `base`.
    pub fn server_config(self, mut base: ServerConfig) -> ServerConfig {
        match self {
            SystemKind::Gengar => {}
            SystemKind::NvmDirect | SystemKind::ClientCache => {
                base.cache = CachePolicy::disabled();
                base.enable_proxy = false;
            }
            // Writes take the proxy path (one round trip); there is nothing
            // for a DRAM cache to accelerate, so it stays off.
            SystemKind::DramOnly => {
                let mut profile = match base.dram_profile.read_latency_ns {
                    0 => DeviceProfile::instant(MemKind::Nvm),
                    _ => DeviceProfile {
                        kind: MemKind::Nvm,
                        ..DeviceProfile::dram()
                    },
                };
                profile.name = "dram-as-nvm".to_owned();
                profile.persistence = PersistenceMode::Adr;
                base.nvm_profile = profile;
                base.cache = CachePolicy::disabled();
                base.enable_proxy = true;
            }
        }
        base
    }

    /// The configuration this system's clients run under `run`: the run's
    /// own, with `Seqlock` for the client cache (its hits validate against
    /// the version every write bumps).
    pub fn client_config(self, run: &RunConfig) -> ClientConfig {
        match self {
            SystemKind::ClientCache => run.seqlock_client_config(),
            _ => run.base_client_config(),
        }
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
    /// fabric (and with the client config) `run` asks for.
    pub fn launch(
        kind: SystemKind,
        n_servers: usize,
        base: ServerConfig,
        run: &RunConfig,
    ) -> System {
        let cluster = Cluster::launch(n_servers, kind.server_config(base), run.fabric_config(kind))
            .unwrap_or_else(|e| panic!("launch {}: {e}", kind.name()));
        System {
            kind,
            cluster,
            client_config: kind.client_config(run),
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

    /// Connects a pool client of the appropriate flavour: a plain
    /// [`GengarClient`], wrapped in a [`ClientCache`] for the client cache.
    pub fn client(&self) -> Box<dyn DshmPool + Send> {
        let client = self.gengar_client(self.client_config.clone());
        match self.kind {
            SystemKind::ClientCache => Box::new(ClientCache::new(client, CLIENT_CACHE_BYTES)),
            _ => Box::new(client),
        }
    }

    /// Connects a Gengar client with explicit configuration.
    pub fn gengar_client(&self, config: ClientConfig) -> GengarClient {
        self.cluster.client(config).expect("gengar client")
    }
}

#[cfg(test)]
mod tests {
    use gengar_core::config::Consistency;
    use gengar_rdma::FabricConfig;

    use super::*;

    /// Launches `kind` on `ServerConfig::small()` at zero latency and runs
    /// twenty write/read pairs on one 64-byte object through its client.
    fn round_trips(kind: SystemKind) -> GengarClient {
        let config = kind.server_config(ServerConfig::small());
        let cluster = Cluster::launch(1, config, FabricConfig::instant()).unwrap();
        let mut client = cluster
            .client(kind.client_config(&RunConfig::default()))
            .unwrap();
        let ptr = client.alloc(0, 64).unwrap();
        for i in 0..20u8 {
            client.write(ptr, 0, &[i; 64]).unwrap();
            let mut buf = [0u8; 64];
            client.read(ptr, 0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i), "{}", kind.name());
        }
        client
    }

    #[test]
    fn direct_kinds_stage_nothing_and_never_hit() {
        for kind in [SystemKind::NvmDirect, SystemKind::ClientCache] {
            let stats = round_trips(kind).stats();
            assert_eq!(stats.staged_writes, 0, "{}", kind.name());
            assert_eq!(stats.cache_hits, 0, "{}", kind.name());
            assert_eq!(stats.direct_writes, 20, "{}", kind.name());
        }
    }

    #[test]
    fn dram_only_is_dram_speed_adr_nvm_behind_the_proxy() {
        let c = SystemKind::DramOnly.server_config(ServerConfig::default());
        assert_eq!(c.nvm_profile.kind, MemKind::Nvm);
        assert_eq!(c.nvm_profile.persistence, PersistenceMode::Adr);
        assert_eq!(c.nvm_profile.name, "dram-as-nvm");
        assert!(!c.cache.enabled);
        assert!(c.enable_proxy);
        // DRAM-speed, not Optane-speed.
        assert!(c.nvm_profile.read_latency_ns <= DeviceProfile::dram().read_latency_ns);
        let instant = SystemKind::DramOnly.server_config(ServerConfig::small());
        assert_eq!(instant.nvm_profile.read_latency_ns, 0);
        assert!(
            round_trips(SystemKind::DramOnly).stats().staged_writes >= 1,
            "proxy path expected"
        );
    }

    #[test]
    fn gengar_keeps_its_base_and_every_comparator_keeps_the_rest() {
        let base = RunConfig::default().base_config();
        assert_eq!(SystemKind::Gengar.server_config(base.clone()), base);
        for kind in SystemKind::all() {
            let c = kind.server_config(base.clone());
            // Only the cache, the proxy and (dram-only) the NVM profile move.
            let untouched = ServerConfig {
                cache: base.cache,
                enable_proxy: base.enable_proxy,
                nvm_profile: base.nvm_profile.clone(),
                ..c
            };
            assert_eq!(untouched, base, "{}", kind.name());
        }
    }

    #[test]
    fn client_config_follows_the_run_for_every_kind() {
        let run = RunConfig {
            telemetry: false,
            window: 4,
            ..RunConfig::default()
        };
        for kind in SystemKind::all() {
            let c = kind.client_config(&run);
            assert_eq!(c.window_depth, 4, "{}", kind.name());
            assert!(!c.telemetry.enabled, "{}", kind.name());
            assert_eq!(c.report_every, run.base_client_config().report_every);
            let seqlock = kind == SystemKind::ClientCache;
            assert_eq!(
                c.consistency == Consistency::Seqlock,
                seqlock,
                "{}",
                kind.name()
            );
        }
    }
}
