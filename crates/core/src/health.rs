//! Live health & SLO plane.
//!
//! The registry answers "what happened"; this module answers "is the
//! cluster healthy *right now*". A [`HealthPlane`] ticks periodically:
//! each tick closes one delta window (via the telemetry crate's
//! [`WindowSampler`]), feeds the windowed signals through per-component
//! state machines with hysteresis, and evaluates the configured SLOs as
//! burn rates. A sustained burn above the alert threshold arms the
//! flight recorder, so the causal trace of an incident is captured while
//! the incident is still happening instead of being diagnosed post-hoc.
//!
//! Components watched (all signals come out of the window, never from
//! the hot path):
//!
//! | component    | signal                                            |
//! |--------------|---------------------------------------------------|
//! | `proxy_ring` | `proxy.ring_full_waits` per second                |
//! | `drain`      | `proxy.drain_backlog` gauge at window close       |
//! | `replication`| `replica.mirror_lag` gauge, `replica.mirror_losses` |
//! | `qos`        | summed `tenant.*` throttle events per second      |
//! | `clients`    | `client.retries` + `client.reconnects` per second |
//!
//! Hysteresis: a component escalates only after `escalate_after`
//! consecutive bad ticks and steps back down one level only after
//! `recover_after` consecutive clean ticks, so a signal sitting exactly
//! on a threshold cannot flap the state. See DESIGN.md § Live health &
//! SLO plane.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use gengar_telemetry::{
    json_escape, CounterHandle, FlightRecorder, GaugeHandle, HistogramSnapshot, Registry,
    TelemetryConfig, Tracer, Window, WindowSampler,
};

use crate::config::{HealthConfig, HealthThresholds, SloConfig};

/// A component's (or the cluster's) health, worst state last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Signals below every threshold.
    Healthy,
    /// Sustained pressure: still serving, intervention advisable.
    Degraded,
    /// Sustained overload or component loss.
    Critical,
}

impl HealthState {
    /// Lower-case name used in the Inspect document.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }

    fn step_down(self) -> HealthState {
        match self {
            HealthState::Critical => HealthState::Degraded,
            _ => HealthState::Healthy,
        }
    }
}

/// Raw level for a rate-style signal against its two thresholds.
fn level_f64(signal: f64, degraded: f64, critical: f64) -> HealthState {
    if signal >= critical {
        HealthState::Critical
    } else if signal >= degraded {
        HealthState::Degraded
    } else {
        HealthState::Healthy
    }
}

/// Raw level for a gauge-style signal.
fn level_i64(signal: i64, degraded: i64, critical: i64) -> HealthState {
    if signal >= critical {
        HealthState::Critical
    } else if signal >= degraded {
        HealthState::Degraded
    } else {
        HealthState::Healthy
    }
}

/// One component's state machine: current state plus the streak counters
/// the hysteresis rules run on.
#[derive(Debug, Clone)]
struct Machine {
    state: HealthState,
    /// Consecutive ticks the raw level sat above the current state.
    worse_streak: u32,
    /// Consecutive ticks the raw level sat below the current state.
    better_streak: u32,
    /// Last raw signal, kept for the Inspect document.
    signal: f64,
}

impl Machine {
    fn new() -> Self {
        Machine {
            state: HealthState::Healthy,
            worse_streak: 0,
            better_streak: 0,
            signal: 0.0,
        }
    }

    /// Feeds one tick's raw level; returns the transition, if any.
    fn observe(
        &mut self,
        raw: HealthState,
        escalate_after: u32,
        recover_after: u32,
    ) -> Option<(HealthState, HealthState)> {
        use std::cmp::Ordering as O;
        match raw.cmp(&self.state) {
            O::Greater => {
                self.better_streak = 0;
                self.worse_streak += 1;
                if self.worse_streak >= escalate_after {
                    let old = self.state;
                    // Jump straight to the observed level: a signal that
                    // held Critical for the whole streak must not linger
                    // in Degraded first.
                    self.state = raw;
                    self.worse_streak = 0;
                    return Some((old, self.state));
                }
            }
            O::Less => {
                self.worse_streak = 0;
                self.better_streak += 1;
                if self.better_streak >= recover_after {
                    let old = self.state;
                    // Step down one level at a time: recovery is gradual
                    // even when the signal has gone completely quiet.
                    self.state = self.state.step_down();
                    self.better_streak = 0;
                    return Some((old, self.state));
                }
            }
            O::Equal => {
                self.worse_streak = 0;
                self.better_streak = 0;
            }
        }
        None
    }
}

/// One SLO's standing for the Inspect document.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Objective name (`op_p99`, `error_rate`, `replication_lag`).
    pub name: &'static str,
    /// Observed value this window (ns for `op_p99`, ratio for
    /// `error_rate`, records for `replication_lag`).
    pub value: f64,
    /// The objective's target in the same unit.
    pub target: f64,
    /// Budget consumption rate: 1.0 = on plan, `burn_alert` = alerting.
    pub burn: f64,
    /// Whether the alert episode is currently latched.
    pub alerting: bool,
}

/// Fraction of a histogram's samples above `target_ns`, recovered by
/// binary-searching the percentile curve (the snapshot exposes
/// percentiles, not raw buckets).
fn fraction_above(h: &HistogramSnapshot, target_ns: u64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    if h.max_ns() <= target_ns {
        return 0.0;
    }
    if h.min_ns() > target_ns {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 100.0f64);
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        if h.percentile_ns(mid) <= target_ns {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (100.0 - lo) / 100.0
}

/// Burn-rate SLO tracker. Each objective is scored per window; an alert
/// latches when the burn crosses `burn_alert` (arming the flight
/// recorder once per episode) and clears when it drops back under 1.0.
#[derive(Debug)]
struct SloTracker {
    config: SloConfig,
    status: Vec<SloStatus>,
}

impl SloTracker {
    fn new(config: SloConfig) -> Self {
        let status = [
            ("op_p99", config.op_p99.as_nanos() as f64),
            ("error_rate", config.max_error_rate),
            ("replication_lag", config.max_replication_lag as f64),
        ]
        .into_iter()
        .map(|(name, target)| SloStatus {
            name,
            value: 0.0,
            target,
            burn: 0.0,
            alerting: false,
        })
        .collect();
        SloTracker { config, status }
    }

    /// Scores every objective against one window; returns the names of
    /// objectives whose alert fired this tick (newly latched).
    fn observe(&mut self, w: &Window) -> Vec<&'static str> {
        let target_ns = self.config.op_p99.as_nanos() as u64;
        let mut ops_hist = HistogramSnapshot::empty();
        if let Some(h) = w.histogram("client.read_ns") {
            ops_hist.merge(h);
        }
        if let Some(h) = w.histogram("client.write_ns") {
            ops_hist.merge(h);
        }
        let bad_fraction = fraction_above(&ops_hist, target_ns);

        let ops = w.counter("client.reads").unwrap_or(0) + w.counter("client.writes").unwrap_or(0);
        let errors = w.counter("client.retries").unwrap_or(0);
        let error_rate = if ops > 0 {
            errors as f64 / ops as f64
        } else {
            0.0
        };

        let lag = w.gauge("replica.mirror_lag").unwrap_or(0).max(0);

        let scores = [
            (
                ops_hist.p99_ns() as f64,
                bad_fraction / self.config.error_budget.max(f64::EPSILON),
            ),
            (
                error_rate,
                error_rate / self.config.max_error_rate.max(f64::EPSILON),
            ),
            (
                lag as f64,
                lag as f64 / (self.config.max_replication_lag.max(1) as f64),
            ),
        ];

        let mut fired = Vec::new();
        for (slot, (value, burn)) in self.status.iter_mut().zip(scores) {
            slot.value = value;
            slot.burn = burn;
            if burn >= self.config.burn_alert {
                if !slot.alerting {
                    slot.alerting = true;
                    fired.push(slot.name);
                }
            } else if burn < 1.0 {
                slot.alerting = false;
            }
        }
        fired
    }
}

/// Components the plane watches, in Inspect order.
pub const COMPONENTS: [&str; 5] = ["proxy_ring", "drain", "replication", "qos", "clients"];

/// The live health plane: one window sampler, five component state
/// machines, and the SLO tracker, advanced together by [`tick`].
///
/// One plane serves a whole cluster (signals live in the shared
/// registry); every [`crate::server::MemoryServer`] holding a reference
/// answers `Inspect` from it. Construction never starts a thread — call
/// [`start`] for wall-clock ticks or drive [`tick`] manually in tests.
///
/// [`tick`]: HealthPlane::tick
/// [`start`]: HealthPlane::start
#[derive(Debug)]
pub struct HealthPlane {
    config: HealthConfig,
    sampler: Arc<WindowSampler>,
    machines: Mutex<BTreeMap<&'static str, Machine>>,
    slo: Mutex<SloTracker>,
    ticks: AtomicU64,
    stop: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
    tick_count: CounterHandle,
    transitions: CounterHandle,
    slo_alerts: CounterHandle,
    overall_level: GaugeHandle,
}

impl HealthPlane {
    /// A plane sampling the global registry (what servers share).
    pub fn new(config: HealthConfig, telemetry: TelemetryConfig) -> Arc<HealthPlane> {
        let registry = telemetry
            .handle()
            .registry()
            .cloned()
            .unwrap_or_else(Registry::global);
        Self::with_registry(config, telemetry, registry)
    }

    /// A plane sampling `registry` (tests wanting isolation).
    pub fn with_registry(
        config: HealthConfig,
        telemetry: TelemetryConfig,
        registry: Arc<Registry>,
    ) -> Arc<HealthPlane> {
        let tel = telemetry.handle();
        let sampler = WindowSampler::new(registry, config.window_ring.max(1));
        let machines = COMPONENTS.iter().map(|&c| (c, Machine::new())).collect();
        Arc::new(HealthPlane {
            slo: Mutex::new(SloTracker::new(config.slo.clone())),
            config,
            sampler,
            machines: Mutex::new(machines),
            ticks: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            thread: Mutex::new(None),
            tick_count: tel.counter("health", "ticks"),
            transitions: tel.counter("health", "transitions"),
            slo_alerts: tel.counter("health", "slo_alerts"),
            overall_level: tel.gauge("health", "overall_level"),
        })
    }

    /// The plane's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// The window sampler (and through it the ring `Inspect` serves).
    pub fn sampler(&self) -> &Arc<WindowSampler> {
        &self.sampler
    }

    /// Ticks completed since launch.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Extracts each component's raw signal from a window.
    fn signals(&self, w: &Window) -> [(f64, HealthState); 5] {
        let t: &HealthThresholds = &self.config.thresholds;

        let ring_waits = w.rate("proxy.ring_full_waits").unwrap_or(0.0);
        let backlog = w.gauge("proxy.drain_backlog").unwrap_or(0);
        let lag = w.gauge("replica.mirror_lag").unwrap_or(0);
        let losses = w.counter("replica.mirror_losses").unwrap_or(0);
        let throttles: f64 = w
            .entries
            .iter()
            .filter(|(k, _)| {
                k.starts_with("tenant.")
                    && (k.ends_with(".throttle_waits") || k.ends_with(".rpc_throttled"))
            })
            .filter_map(|(k, _)| w.rate(k))
            .sum();
        let retries =
            w.rate("client.retries").unwrap_or(0.0) + w.rate("client.reconnects").unwrap_or(0.0);

        let replication_level = if losses > 0 {
            // A lost mirror is a durability hole regardless of lag.
            HealthState::Critical
        } else {
            level_i64(lag, t.mirror_lag_degraded, t.mirror_lag_critical)
        };

        [
            (
                ring_waits,
                level_f64(ring_waits, t.ring_wait_degraded, t.ring_wait_critical),
            ),
            (
                backlog as f64,
                level_i64(backlog, t.backlog_degraded, t.backlog_critical),
            ),
            (lag.max(losses as i64) as f64, replication_level),
            (
                throttles,
                level_f64(throttles, t.throttle_degraded, t.throttle_critical),
            ),
            (
                retries,
                level_f64(retries, t.retry_degraded, t.retry_critical),
            ),
        ]
    }

    /// Closes one window and advances every state machine and the SLO
    /// tracker. Called from the plane's thread; public so tests (and the
    /// harness) can drive evaluation in lockstep with load.
    pub fn tick(&self) {
        let window = self.sampler.sample();
        let raw = self.signals(&window);

        let mut machines = self.machines.lock().expect("health machines lock");
        for (&name, (signal, level)) in COMPONENTS.iter().zip(raw) {
            let m = machines.get_mut(name).expect("machine registered");
            m.signal = signal;
            if let Some((old, new)) = m.observe(
                level,
                self.config.escalate_after.max(1),
                self.config.recover_after.max(1),
            ) {
                self.transitions.inc();
                Tracer::global().event("health.transition", ((old as u64) << 8) | (new as u64));
                let _ = name;
            }
        }
        let overall = machines
            .values()
            .map(|m| m.state)
            .max()
            .unwrap_or(HealthState::Healthy);
        drop(machines);
        self.overall_level.set(overall as i64);

        let fired = self.slo.lock().expect("slo lock").observe(&window);
        for name in fired {
            // The whole point of the plane: capture the incident's causal
            // trace while it is happening.
            FlightRecorder::global().arm();
            self.slo_alerts.inc();
            Tracer::global().event("health.slo_alert", name.len() as u64);
        }

        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.tick_count.inc();
    }

    /// Current state of every component, in Inspect order.
    pub fn components(&self) -> Vec<(&'static str, HealthState)> {
        let machines = self.machines.lock().expect("health machines lock");
        COMPONENTS.iter().map(|&c| (c, machines[c].state)).collect()
    }

    /// Worst component state.
    pub fn overall(&self) -> HealthState {
        self.machines
            .lock()
            .expect("health machines lock")
            .values()
            .map(|m| m.state)
            .max()
            .unwrap_or(HealthState::Healthy)
    }

    /// Current standing of every SLO.
    pub fn slo_status(&self) -> Vec<SloStatus> {
        self.slo.lock().expect("slo lock").status.clone()
    }

    /// Spawns the tick thread. Idempotent; [`HealthPlane::stop`] (or
    /// drop) joins it.
    pub fn start(self: &Arc<Self>) {
        let mut slot = self.thread.lock().expect("health thread lock");
        if slot.is_some() {
            return;
        }
        self.stop.store(false, Ordering::Relaxed);
        let plane = Arc::clone(self);
        *slot = Some(
            std::thread::Builder::new()
                .name("gengar-health".into())
                .spawn(move || {
                    while !plane.stop.load(Ordering::Relaxed) {
                        std::thread::sleep(plane.config.tick);
                        if plane.stop.load(Ordering::Relaxed) {
                            break;
                        }
                        plane.tick();
                    }
                })
                .expect("spawn health plane"),
        );
    }

    /// Stops and joins the tick thread, if running.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.thread.lock().expect("health thread lock").take() {
            let _ = join.join();
        }
    }

    /// Builds the versioned Inspect document, at most `max_bytes` long:
    /// overall + per-component states, SLO standings, per-tenant deltas
    /// from the latest window, and as many window digests (newest first)
    /// as fit the budget. The budget exists because the document rides a
    /// single RPC buffer slot.
    pub fn inspect_json(&self, server: u8, max_bytes: usize) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"v\":1,\"server\":{server},\"tick\":{},\"interval_ms\":{},\"overall\":\"{}\"",
            self.ticks(),
            self.config.tick.as_millis(),
            self.overall().as_str()
        ));

        out.push_str(",\"components\":{");
        {
            let machines = self.machines.lock().expect("health machines lock");
            let mut first = true;
            for &c in &COMPONENTS {
                let m = &machines[c];
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\"{c}\":{{\"state\":\"{}\",\"signal\":{:.1}}}",
                    m.state.as_str(),
                    m.signal
                ));
            }
        }
        out.push('}');

        out.push_str(",\"slo\":[");
        for (i, s) in self.slo_status().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"value\":{:.3},\"target\":{:.3},\"burn\":{:.3},\"alerting\":{}}}",
                s.name, s.value, s.target, s.burn, s.alerting
            ));
        }
        out.push(']');

        let latest = self.sampler.ring().latest();
        out.push_str(",\"tenants\":{");
        if let Some(w) = &latest {
            let mut first = true;
            for key in w.entries.keys() {
                let Some(rest) = key.strip_prefix("tenant.") else {
                    continue;
                };
                let Some(name) = rest.strip_suffix(".ops") else {
                    continue;
                };
                if !first {
                    out.push(',');
                }
                first = false;
                let ops = w.counter(key).unwrap_or(0);
                let bytes = w.counter(&format!("tenant.{name}.bytes")).unwrap_or(0);
                let throttles = w
                    .counter(&format!("tenant.{name}.throttle_waits"))
                    .unwrap_or(0);
                out.push_str(&format!(
                    "\"{}\":{{\"ops\":{ops},\"bytes\":{bytes},\"throttle_waits\":{throttles}}}",
                    json_escape(name)
                ));
            }
        }
        out.push('}');

        // Window digests, newest first, until the byte budget runs out.
        out.push_str(",\"windows\":[");
        let closing = "]}";
        let mut first = true;
        for w in self.sampler.ring().windows().iter().rev() {
            let ops =
                w.counter("client.reads").unwrap_or(0) + w.counter("client.writes").unwrap_or(0);
            let read_p99_us = w
                .percentile_ns("client.read_ns", 99.0)
                .unwrap_or(0)
                .div_ceil(1000);
            let write_p99_us = w
                .percentile_ns("client.write_ns", 99.0)
                .unwrap_or(0)
                .div_ceil(1000);
            let digest = format!(
                "{}{{\"seq\":{},\"ms\":{},\"ops\":{ops},\"read_p99_us\":{read_p99_us},\"write_p99_us\":{write_p99_us},\"err\":{},\"backlog\":{},\"lag\":{}}}",
                if first { "" } else { "," },
                w.seq,
                w.duration.as_millis(),
                w.counter("client.retries").unwrap_or(0),
                w.gauge("proxy.drain_backlog").unwrap_or(0),
                w.gauge("replica.mirror_lag").unwrap_or(0),
            );
            if out.len() + digest.len() + closing.len() > max_bytes {
                break;
            }
            out.push_str(&digest);
            first = false;
        }
        out.push_str(closing);
        out
    }

    /// The document servers return when the plane is disabled: versioned,
    /// valid, explicitly unknown.
    pub fn disabled_json(server: u8) -> String {
        format!(
            "{{\"v\":1,\"server\":{server},\"tick\":0,\"interval_ms\":0,\"overall\":\"unknown\",\
             \"components\":{{}},\"slo\":[],\"tenants\":{{}},\"windows\":[]}}"
        )
    }
}

impl Drop for HealthPlane {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.thread.lock().expect("health thread lock").take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::config::HealthConfig;

    fn plane_with(registry: &Arc<Registry>, config: HealthConfig) -> Arc<HealthPlane> {
        HealthPlane::with_registry(config, TelemetryConfig::disabled(), Arc::clone(registry))
    }

    fn low_threshold_config() -> HealthConfig {
        HealthConfig {
            enabled: true,
            escalate_after: 2,
            recover_after: 3,
            thresholds: HealthThresholds {
                retry_degraded: 1.0,
                // Unreachable: manual ticks close microsecond windows, so
                // rates are huge; these tests only exercise Degraded.
                retry_critical: f64::MAX,
                ..HealthThresholds::default()
            },
            ..HealthConfig::default()
        }
    }

    #[test]
    fn starts_healthy_and_stays_healthy_when_quiet() {
        let r = Arc::new(Registry::new());
        let plane = plane_with(&r, HealthConfig::enabled());
        for _ in 0..5 {
            plane.tick();
        }
        assert_eq!(plane.overall(), HealthState::Healthy);
        assert_eq!(plane.ticks(), 5);
        for (_, state) in plane.components() {
            assert_eq!(state, HealthState::Healthy);
        }
    }

    #[test]
    fn sustained_pressure_escalates_after_hysteresis() {
        let r = Arc::new(Registry::new());
        let retries = r.counter("client", "retries");
        let plane = plane_with(&r, low_threshold_config());
        // One bad window is a blip: no transition yet.
        retries.add(1_000);
        plane.tick();
        assert_eq!(plane.overall(), HealthState::Healthy);
        // A second consecutive bad window escalates.
        retries.add(1_000);
        plane.tick();
        assert_eq!(plane.overall(), HealthState::Degraded);
        let clients = plane
            .components()
            .into_iter()
            .find(|(c, _)| *c == "clients")
            .unwrap();
        assert_eq!(clients.1, HealthState::Degraded);
    }

    #[test]
    fn recovery_needs_recover_after_clean_ticks() {
        let r = Arc::new(Registry::new());
        let retries = r.counter("client", "retries");
        let plane = plane_with(&r, low_threshold_config());
        for _ in 0..2 {
            retries.add(1_000);
            plane.tick();
        }
        assert_eq!(plane.overall(), HealthState::Degraded);
        // Two clean ticks are not enough (recover_after = 3)...
        plane.tick();
        plane.tick();
        assert_eq!(plane.overall(), HealthState::Degraded);
        // ...the third steps back down.
        plane.tick();
        assert_eq!(plane.overall(), HealthState::Healthy);
    }

    /// The satellite-mandated no-flap test: a signal alternating across
    /// the threshold every tick never completes either streak, so the
    /// state holds steady.
    #[test]
    fn boundary_signal_does_not_flap() {
        let r = Arc::new(Registry::new());
        let retries = r.counter("client", "retries");
        let plane = plane_with(&r, low_threshold_config());
        let mut transitions = 0u32;
        let mut last = plane.overall();
        for i in 0..20 {
            if i % 2 == 0 {
                retries.add(1_000);
            }
            plane.tick();
            let now = plane.overall();
            if now != last {
                transitions += 1;
                last = now;
            }
        }
        assert_eq!(
            transitions, 0,
            "alternating boundary signal flapped the state"
        );
        assert_eq!(plane.overall(), HealthState::Healthy);
    }

    #[test]
    fn critical_escalation_skips_no_evidence() {
        let r = Arc::new(Registry::new());
        let retries = r.counter("client", "retries");
        let mut config = low_threshold_config();
        config.thresholds.retry_critical = 10.0;
        let plane = plane_with(&r, config);
        // Signal sits above BOTH thresholds: after the streak the state
        // jumps straight to Critical, then recovers one level at a time.
        for _ in 0..2 {
            retries.add(1_000);
            plane.tick();
        }
        assert_eq!(plane.overall(), HealthState::Critical);
        for _ in 0..3 {
            plane.tick();
        }
        assert_eq!(plane.overall(), HealthState::Degraded);
        for _ in 0..3 {
            plane.tick();
        }
        assert_eq!(plane.overall(), HealthState::Healthy);
    }

    #[test]
    fn mirror_loss_is_immediately_critical_level() {
        let r = Arc::new(Registry::new());
        let losses = r.counter("replica", "mirror_losses");
        let plane = plane_with(&r, HealthConfig::enabled());
        losses.inc();
        plane.tick();
        // Hysteresis still applies (one tick = no transition)...
        assert_eq!(plane.overall(), HealthState::Healthy);
        losses.inc();
        plane.tick();
        // ...but the raw level was Critical, so that's where it lands.
        assert_eq!(plane.overall(), HealthState::Critical);
    }

    /// The acceptance-criteria test: a burn-rate breach arms the flight
    /// recorder.
    #[test]
    fn slo_burn_breach_arms_flight_recorder() {
        let r = Arc::new(Registry::new());
        let reads = r.histogram("client", "read_ns");
        let mut config = HealthConfig::enabled();
        config.slo.op_p99 = Duration::from_nanos(10);
        config.slo.error_budget = 0.01;
        config.slo.burn_alert = 2.0;
        let plane = plane_with(&r, config);

        // Make sure the recorder starts disarmed (a previous test in this
        // process may have armed it).
        let _ = FlightRecorder::global().trigger("health-test-reset");
        assert!(!FlightRecorder::global().is_armed());

        // Every op blows the 10 ns objective: burn = 1.0/0.01 = 100.
        for _ in 0..1_000 {
            reads.record_ns(1_000_000);
        }
        plane.tick();

        assert!(
            FlightRecorder::global().is_armed(),
            "burn-rate breach must arm the flight recorder"
        );
        let slo = plane.slo_status();
        let p99 = slo.iter().find(|s| s.name == "op_p99").unwrap();
        assert!(p99.alerting, "latency objective should be alerting");
        assert!(p99.burn >= 2.0, "burn = {}", p99.burn);

        // A quiet window ends the episode.
        plane.tick();
        let slo = plane.slo_status();
        assert!(!slo.iter().find(|s| s.name == "op_p99").unwrap().alerting);
    }

    #[test]
    fn error_rate_objective_scores_retries_per_op() {
        let r = Arc::new(Registry::new());
        let reads = r.counter("client", "reads");
        let retries = r.counter("client", "retries");
        let mut config = HealthConfig::enabled();
        config.slo.max_error_rate = 0.05;
        let plane = plane_with(&r, config);
        reads.add(100);
        retries.add(50); // 50% error rate, 10x burn
        plane.tick();
        let slo = plane.slo_status();
        let err = slo.iter().find(|s| s.name == "error_rate").unwrap();
        assert!((err.value - 0.5).abs() < 1e-9, "value = {}", err.value);
        assert!(err.burn >= 9.9, "burn = {}", err.burn);
        assert!(err.alerting);
    }

    #[test]
    fn inspect_json_is_versioned_and_bounded() {
        let r = Arc::new(Registry::new());
        let reads = r.counter("client", "reads");
        r.counter("tenant.alpha", "ops").add(7);
        r.counter("tenant.alpha", "throttle_waits").add(2);
        let plane = plane_with(&r, HealthConfig::enabled());
        for _ in 0..10 {
            reads.add(5);
            plane.tick();
        }
        let doc = plane.inspect_json(3, 4_000);
        assert!(doc.len() <= 4_000);
        assert!(doc.starts_with("{\"v\":1,\"server\":3,"));
        assert!(doc.contains("\"overall\":\"healthy\""));
        assert!(doc.contains("\"proxy_ring\":{\"state\":\"healthy\""));
        assert!(doc.contains("\"name\":\"op_p99\""));
        assert!(doc.contains("\"alpha\":{\"ops\":"));
        assert!(doc.contains("\"windows\":[{\"seq\":10,"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());

        // A tiny budget still yields a closed document, just no windows.
        let tiny = plane.inspect_json(3, plane.inspect_json(3, usize::MAX).len() - 50);
        assert!(tiny.len() <= plane.inspect_json(3, usize::MAX).len());
        assert_eq!(tiny.matches('{').count(), tiny.matches('}').count());
        assert!(tiny.ends_with("]}"));
    }

    #[test]
    fn disabled_doc_is_valid_and_unknown() {
        let doc = HealthPlane::disabled_json(9);
        assert!(doc.contains("\"v\":1"));
        assert!(doc.contains("\"server\":9"));
        assert!(doc.contains("\"overall\":\"unknown\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn tick_thread_runs_and_stops() {
        let r = Arc::new(Registry::new());
        let mut config = HealthConfig::enabled();
        config.tick = Duration::from_millis(1);
        let plane = plane_with(&r, config);
        plane.start();
        plane.start(); // idempotent
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while plane.ticks() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        plane.stop();
        let ticks = plane.ticks();
        assert!(ticks >= 1, "tick thread never ticked");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(plane.ticks(), ticks, "ticked after stop");
    }

    #[test]
    fn fraction_above_bounds() {
        let mut h = HistogramSnapshot::empty();
        assert_eq!(fraction_above(&h, 100), 0.0);
        let hist = gengar_telemetry::LatencyHistogram::new();
        for ns in 1..=1000u64 {
            hist.record_ns(ns);
        }
        h = hist.snapshot();
        assert_eq!(fraction_above(&h, 2_000), 0.0);
        assert_eq!(fraction_above(&h, 0), 1.0);
        let half = fraction_above(&h, 500);
        assert!((0.4..=0.6).contains(&half), "half = {half}");
    }
}
