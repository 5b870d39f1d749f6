//! E12A — ablation of Gengar's two mechanisms.
//!
//! YCSB-A throughput with each combination of {DRAM cache, proxy writes}
//! enabled, isolating what each contributes. The paper's shape: the proxy
//! carries the write half, the cache carries the skewed-read half, and
//! together they compound.
//!
//! The sweep runs at a stretched time scale (the E4P/E11/E12 idiom):
//! at time scale 1 a fast host is client-CPU-bound at these op rates and
//! all four configurations compress to parity even though the proxy's
//! per-write latency win (E3) is intact. Stretching the modelled device
//! and wire time makes the modelled I/O dominate again, so the mechanism
//! gap survives host speed; throughputs are reported in simulated time.
//!
//! The `ablation` gate (`harness gate`) reads the reported
//! `<config>.kops`: proxy-only and full must clearly beat the
//! no-mechanism baseline.

use gengar_core::config::ServerConfig;
use gengar_workloads::ycsb::{load, run as ycsb_run, WorkloadSpec};

use crate::exp::{System, SystemKind};
use crate::table::Table;
use crate::{Metrics, RunConfig};

const RECORDS: u64 = 2_000;
const VALUE_SIZE: u64 = 4096;
/// Delay stretch: modelled NVM/wire time dominates client CPU cost, so
/// the ablation measures the mechanisms rather than the host.
pub const TIME_SCALE: f64 = 8.0;

/// The server configuration of one arm: the run's base with the DRAM cache
/// and the proxy each on or off. With both off it is nvm-direct's server
/// shape, and the arm's client is nvm-direct's too (a test pins both).
fn arm_config(rc: &RunConfig, cache: bool, proxy: bool) -> ServerConfig {
    let mut config = rc.base_config();
    if !cache {
        config.cache = gengar_core::CachePolicy::disabled();
    }
    config.enable_proxy = proxy;
    config
}

/// Runs E12A.
pub fn run(rc: &RunConfig) -> Metrics {
    let ops = rc.scale.ops(4_000);

    let mut metrics = Metrics::new();
    let mut table = Table::new(
        &format!("E12A: ablation, YCSB-A throughput (simulated, time x{TIME_SCALE})"),
        &["configuration", "kops/s", "vs neither"],
    );
    let mut baseline = 0.0f64;
    for (name, slug, cache, proxy) in [
        ("neither (nvm-direct)", "neither", false, false),
        ("cache only", "cache_only", true, false),
        ("proxy only", "proxy_only", false, true),
        ("full gengar", "full", true, true),
    ] {
        let system = System::launch(SystemKind::Gengar, 1, arm_config(rc, cache, proxy), rc);
        let mut client = system.gengar_client(rc.base_client_config());
        let kv = load(&mut client, RECORDS, VALUE_SIZE, 1).expect("load");
        ycsb_run(&mut client, &kv, WorkloadSpec::c(), RECORDS, ops / 4, 5).expect("warm");
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Best of two runs to suppress small-host scheduling noise; the
        // wall-clock rate converts back to simulated time.
        let kops = (0..2)
            .map(|rep| {
                ycsb_run(&mut client, &kv, WorkloadSpec::a(), RECORDS, ops, 7 + rep)
                    .expect("run")
                    .kops_per_sec()
                    * TIME_SCALE
            })
            .fold(0.0f64, f64::max);
        if !cache && !proxy {
            baseline = kops;
        }
        let ratio = kops / baseline.max(1e-9);
        metrics.push((format!("{slug}.kops"), kops));
        table.row(vec![
            name.to_owned(),
            format!("{kops:.1}"),
            format!("{ratio:.2}x"),
        ]);
    }
    table.print();
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neither_arm_is_nvm_direct() {
        let rc = RunConfig {
            replicas: 1,
            window: 4,
            ..RunConfig::default()
        };
        assert_eq!(
            arm_config(&rc, false, false),
            SystemKind::NvmDirect.server_config(rc.base_config())
        );
        assert_eq!(
            rc.base_client_config(),
            SystemKind::NvmDirect.client_config(&rc)
        );
        assert_eq!(arm_config(&rc, true, true), rc.base_config());
    }
}
