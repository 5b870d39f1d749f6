//! Configuration for servers and clients, including the ablation toggles
//! the evaluation sweeps over (cache on/off, proxy on/off).

use std::time::Duration;

use gengar_hybridmem::DeviceProfile;
use gengar_telemetry::TelemetryConfig;
use serde::{Deserialize, Serialize};

use crate::cache::CachePolicy;
use crate::qos::QosConfig;

/// Consistency level for shared objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Consistency {
    /// No cross-user guarantees: raw reads/writes (single-user mode).
    None,
    /// Writers lock objects via one-sided CAS; readers validate seqlock
    /// versions and retry. This is Gengar's multi-user sharing mode.
    Seqlock,
}

/// Primary–backup replication of the staged-write path.
///
/// With replication enabled every server allocates a *shadow* NVM device
/// (same geometry as its own NVM) that mirrors the NVM of the server it
/// backs up. Clients fan staged writes out to the backup's mirror ring
/// before reporting them settled, so losing the primary machine loses no
/// settled write: the client promotes the backup (which replays any
/// un-drained mirror-ring records into the shadow) and keeps going.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// Mirror staged writes to a backup server and allow failover.
    pub enabled: bool,
    /// How often the cluster's rebalance thread checks backup liveness and
    /// re-establishes a new backup for servers whose replica died.
    pub rebalance_interval: Duration,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            enabled: false,
            rebalance_interval: Duration::from_millis(50),
        }
    }
}

/// Live health & SLO plane: windowed sampling, per-component state
/// machines with hysteresis, and burn-rate alerts that arm the flight
/// recorder. Disabled by default: no sampler thread runs and `Inspect`
/// serves a minimal "unknown" document. Thresholds, hysteresis and SLO
/// targets are constants beside their reader in [`crate::health`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Run the health plane (sampler + evaluation tick).
    pub enabled: bool,
    /// Sampling/evaluation interval: each tick closes one window and
    /// re-evaluates every component state machine.
    pub tick: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            enabled: false,
            tick: Duration::from_millis(100),
        }
    }
}

impl HealthConfig {
    /// An enabled plane with the default cadence.
    pub fn enabled() -> Self {
        HealthConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Server-side configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Bytes of NVM exported into the pool.
    pub nvm_capacity: u64,
    /// Bytes of ADR-protected DRAM per client staging ring.
    pub staging_ring_capacity: u64,
    /// Maximum clients (bounds staging region size).
    pub max_clients: u32,
    /// The cache plane: capacity, admission mode, ghost sizing, demotion,
    /// hotness thresholds and sketch shape. `CachePolicy::disabled()` turns
    /// the whole plane off (the paper's no-cache ablation arm).
    #[serde(default)]
    pub cache: CachePolicy,
    /// Proxy-based write protocol (ablation toggle).
    pub enable_proxy: bool,
    /// How often the hotness monitor folds reports and promotes/demotes.
    pub epoch: Duration,
    /// Largest allocatable payload.
    pub max_object: u64,
    /// Timing profile of the NVM device.
    pub nvm_profile: DeviceProfile,
    /// Timing profile of the DRAM devices (cache, control, messages).
    pub dram_profile: DeviceProfile,
    /// Track durable images so crashes can be simulated (costs memory).
    pub crash_sim: bool,
    /// Proxy drain threads. Rings are assigned to threads by client id, so
    /// per-ring ordering is preserved while drain bandwidth scales.
    pub proxy_threads: u32,
    /// Whether server-side metrics (cache, proxy, hotness) are recorded
    /// into the global telemetry registry.
    pub telemetry: TelemetryConfig,
    /// Multi-tenant QoS plane (tenant budgets, admission control).
    /// Disabled by default: no plane is built and no path pays for it.
    #[serde(default)]
    pub qos: QosConfig,
    /// Primary–backup replication of staged writes. Disabled by default:
    /// no shadow device is allocated and writes pay no mirror WR.
    #[serde(default)]
    pub replication: ReplicationConfig,
    /// Live health & SLO plane. Disabled by default: no sampler thread
    /// runs and `Inspect` serves a minimal document.
    #[serde(default)]
    pub health: HealthConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            nvm_capacity: 256 << 20,
            staging_ring_capacity: 1 << 20,
            max_clients: 64,
            cache: CachePolicy::default(),
            enable_proxy: true,
            epoch: Duration::from_millis(20),
            max_object: 16 << 20,
            nvm_profile: DeviceProfile::optane(),
            dram_profile: DeviceProfile::dram(),
            crash_sim: false,
            proxy_threads: 2,
            telemetry: TelemetryConfig::default(),
            qos: QosConfig::default(),
            replication: ReplicationConfig::default(),
            health: HealthConfig::default(),
        }
    }
}

impl ServerConfig {
    /// A small configuration for unit tests (few MiB, fast epochs,
    /// zero-latency NVM and DRAM).
    pub fn small() -> Self {
        use gengar_hybridmem::MemKind;
        ServerConfig {
            nvm_capacity: 8 << 20,
            staging_ring_capacity: 64 << 10,
            max_clients: 8,
            cache: CachePolicy::new()
                .capacity(1 << 20)
                .hot_threshold(2)
                .cacheable_max(16 << 10),
            epoch: Duration::from_millis(5),
            max_object: 1 << 20,
            nvm_profile: DeviceProfile::instant(MemKind::Nvm),
            dram_profile: DeviceProfile::instant(MemKind::Dram),
            ..Default::default()
        }
    }
}

/// Client-side configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Consistency level for shared objects.
    pub consistency: Consistency,
    /// Local scratch buffer registered for RDMA (per client).
    pub scratch_capacity: u64,
    /// Send an access report to each server after this many accesses.
    pub report_every: u32,
    /// Retries for a consistent read before giving up.
    pub read_retries: u32,
    /// Retries for lock acquisition before giving up.
    pub lock_retries: u32,
    /// Overall deadline for one client operation, spanning every retry,
    /// backoff sleep and reconnect attempt. Also the default RPC deadline.
    pub op_deadline: Duration,
    /// Maximum fault-recovery retries per operation (backoff attempts).
    pub max_retries: u32,
    /// After this many consecutive staged-write failures on one server the
    /// client degrades that connection to the direct NVM write path until
    /// the next successful reconnect.
    pub staging_fault_threshold: u32,
    /// Outstanding operations per connection for batched/vectored
    /// operations ([`crate::batch::OpBatch`], `read_batch`/`write_batch`):
    /// up to this many work requests are posted under one doorbell and
    /// completed out of order. `1` disables pipelining (every op is a
    /// full round trip). Scalar `read`/`write` are unaffected: a batch of
    /// one behaves exactly like the serial path.
    pub window_depth: u32,
    /// Whether client-side metrics (per-op latency, stats counters) are
    /// recorded into the global telemetry registry.
    pub telemetry: TelemetryConfig,
    /// Tenant this client authenticates as: sent in the Mount handshake,
    /// bound server-side for RPC throttling and fabric admission, and
    /// used client-side to pace at the QoS issue gate. Clients of the
    /// same tenant share one budget.
    #[serde(default = "default_tenant")]
    pub tenant: String,
}

/// The implicit tenant for configs that never set one.
fn default_tenant() -> String {
    "default".to_owned()
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            consistency: Consistency::None,
            scratch_capacity: 4 << 20,
            report_every: 64,
            read_retries: 16,
            lock_retries: 10_000,
            op_deadline: Duration::from_secs(2),
            max_retries: 64,
            staging_fault_threshold: 3,
            window_depth: 16,
            telemetry: TelemetryConfig::default(),
            tenant: default_tenant(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = ServerConfig::default();
        assert!(s.cache.enabled && s.enable_proxy);
        assert!(s.cache.capacity < s.nvm_capacity);
        assert!(s.cache.cacheable_max <= s.cache.capacity);
        assert_eq!(s.cache.admission, crate::cache::AdmissionMode::TinyLfu);
        assert!(s.cache.ghost_entries > 0);
        assert!(!s.cache.demotion, "demotion is opt-in (extra NVM area)");
        assert!(s.cache.sample_every >= 1);
        let c = ClientConfig::default();
        assert!(c.report_every > 0);
        assert!(c.scratch_capacity >= 1 << 20);
        assert!(c.op_deadline >= Duration::from_millis(100));
        assert!(c.max_retries > 0 && c.staging_fault_threshold > 0);
        assert!(c.window_depth >= 1);
        assert_eq!(c.tenant, "default");
        assert!(!s.qos.enabled, "QoS must be opt-in");
        assert!(!s.replication.enabled, "replication must be opt-in");
        assert!(s.replication.rebalance_interval > Duration::ZERO);
        assert!(!s.health.enabled, "health plane must be opt-in");
        assert!(s.health.tick > Duration::ZERO);
        assert!(HealthConfig::enabled().enabled);
    }

    #[test]
    fn small_fits_in_test_budgets() {
        let s = ServerConfig::small();
        assert!(s.nvm_capacity <= 16 << 20);
        assert!(s.epoch <= Duration::from_millis(10));
    }
}
