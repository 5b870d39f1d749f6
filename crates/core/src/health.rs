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
//! Hysteresis: a component escalates only after `ESCALATE_AFTER`
//! consecutive bad ticks and steps back down one level only after
//! `RECOVER_AFTER` consecutive clean ticks, so a signal sitting exactly
//! on a threshold cannot flap the state. See DESIGN.md § Live health &
//! SLO plane.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use gengar_telemetry::{
    json_escape, CounterHandle, FlightRecorder, GaugeHandle, HistogramSnapshot, Registry,
    TelemetryConfig, Tracer, Window, WindowSampler,
};

use crate::config::HealthConfig;

/// Consecutive bad ticks before a component escalates: two, so one slow
/// window or one burst of retries never moves the state.
const ESCALATE_AFTER: u32 = 2;

/// Consecutive clean ticks before a component steps down one level: one
/// more than [`ESCALATE_AFTER`], so recovery is slower than escalation
/// and a link flapping at the tick period parks in `Degraded` instead of
/// strobing.
const RECOVER_AFTER: u32 = 3;

/// Closed windows the sampler keeps: six seconds of history at the default
/// 100 ms tick, more digests than one `Inspect` document has room for.
const WINDOW_RING: usize = 60;

/// `(degraded, critical)` levels of each component's signal, in
/// [`COMPONENTS`] order. Rates are events per second over the window;
/// levels are gauge readings at window close. No value was fitted to a
/// measurement; each comment says what it means at the defaults.
const THRESHOLDS: [(f64, f64); 5] = [
    // proxy_ring, ring-full waits/s: ten in a 100 ms window is more than
    // a burst; one every 100 µs means the ring paces the writers. The
    // count includes a writer running out of its view of the 16 slots
    // before re-reading the drained watermark, so a steady 1 600 staged
    // writes/s on one ring reads Degraded even with an idle drain.
    (100.0, 10_000.0),
    // drain, staged records awaiting a drain thread: four and sixty-four
    // times the 1 024 slots of one server's rings at the default
    // `max_clients` (64 × `SLOTS_PER_RING`), so only a server configured
    // for hundreds of clients can reach either.
    (4_096.0, 65_536.0),
    // replication, records staged ahead of the mirror drain: sixteen times
    // apart, the critical level equal to the replication-lag objective.
    (1_024.0, 16_384.0),
    // qos, tenant throttle events/s: a throttled tenant parks once per
    // denied doorbell, so a thousand a second is sustained pushback.
    (1_000.0, 100_000.0),
    // clients, retries + reconnects/s: a clean fabric retries never, and
    // five a window is a lossy link; a hundred times that is a storm.
    (50.0, 5_000.0),
];

/// Service-level objectives. Each is scored per window as a burn rate —
/// how fast its error budget is being spent relative to plan.
///
/// Op p99 target: far above a healthy op's microseconds and a tenth of
/// the 100 ms attempt patience at the default 2 s deadline, so a miss
/// means an op waited on a lost completion or a backoff.
const OP_P99: Duration = Duration::from_millis(10);
/// Fraction of ops allowed above [`OP_P99`]: the target is a p99, so a
/// window exactly at target spends its budget exactly on plan.
const ERROR_BUDGET: f64 = 0.01;
/// Fault-recovery retries allowed per op: a clean fabric runs zero, one
/// per hundred ops is a link worth looking at.
const MAX_ERROR_RATE: f64 = 0.01;
/// Allowed mirror-lane lag in records: the replication component's
/// critical level, so the objective and the state machine agree.
const MAX_REPLICATION_LAG: f64 = 16_384.0;
/// Burn multiple that fires an alert: twice the planned spend, so an
/// on-plan window never pages; the alert clears below 1.0, latching one
/// alert per episode.
const BURN_ALERT: f64 = 2.0;

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

/// One component's state machine: its thresholds, current state and the
/// streak counters the hysteresis rules run on.
#[derive(Debug, Clone)]
struct Machine {
    /// `(degraded, critical)` levels of the signal.
    thresholds: (f64, f64),
    state: HealthState,
    /// Consecutive ticks the raw level sat above the current state.
    worse_streak: u32,
    /// Consecutive ticks the raw level sat below the current state.
    better_streak: u32,
    /// Last raw signal, kept for the Inspect document.
    signal: f64,
}

impl Machine {
    fn new(thresholds: (f64, f64)) -> Self {
        Machine {
            thresholds,
            state: HealthState::Healthy,
            worse_streak: 0,
            better_streak: 0,
            signal: 0.0,
        }
    }

    /// Feeds one tick's signal, whose raw level is at least `floor`;
    /// returns the transition, if any.
    fn observe(&mut self, signal: f64, floor: HealthState) -> Option<(HealthState, HealthState)> {
        use std::cmp::Ordering as O;
        self.signal = signal;
        let (degraded, critical) = self.thresholds;
        let raw = floor.max(if signal >= critical {
            HealthState::Critical
        } else if signal >= degraded {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        });
        match raw.cmp(&self.state) {
            O::Greater => {
                self.better_streak = 0;
                self.worse_streak += 1;
                if self.worse_streak >= ESCALATE_AFTER {
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
                if self.better_streak >= RECOVER_AFTER {
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
pub(crate) struct SloStatus {
    /// Objective name (`op_p99`, `error_rate`, `replication_lag`).
    pub name: &'static str,
    /// Observed value this window (ns for `op_p99`, ratio for
    /// `error_rate`, records for `replication_lag`).
    pub value: f64,
    /// The objective's target in the same unit.
    pub target: f64,
    /// Budget consumption rate: 1.0 = on plan, [`BURN_ALERT`] = alerting.
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
/// latches when the burn crosses [`BURN_ALERT`] (arming the flight
/// recorder once per episode) and clears when it drops back under 1.0.
#[derive(Debug)]
struct SloTracker {
    status: Vec<SloStatus>,
}

impl SloTracker {
    fn new() -> Self {
        let status = [
            ("op_p99", OP_P99.as_nanos() as f64),
            ("error_rate", MAX_ERROR_RATE),
            ("replication_lag", MAX_REPLICATION_LAG),
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
        SloTracker { status }
    }

    /// Scores every objective against one window; returns the names of
    /// objectives whose alert fired this tick (newly latched).
    fn observe(&mut self, w: &Window) -> Vec<&'static str> {
        let target_ns = OP_P99.as_nanos() as u64;
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
            (ops_hist.p99_ns() as f64, bad_fraction / ERROR_BUDGET),
            (error_rate, error_rate / MAX_ERROR_RATE),
            (lag as f64, lag as f64 / MAX_REPLICATION_LAG),
        ];

        let mut fired = Vec::new();
        for (slot, (value, burn)) in self.status.iter_mut().zip(scores) {
            slot.value = value;
            slot.burn = burn;
            if burn >= BURN_ALERT {
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
/// machines, and the SLO tracker, advanced together by each tick.
///
/// One plane serves a whole cluster (signals live in the shared
/// registry); every [`crate::server::MemoryServer`] holding a reference
/// answers `Inspect` from it. The cluster starts its tick thread; unit
/// tests drive `tick` by hand.
#[derive(Debug)]
pub struct HealthPlane {
    config: HealthConfig,
    sampler: Arc<WindowSampler>,
    /// One state machine per component, in [`COMPONENTS`] order.
    machines: Mutex<[Machine; 5]>,
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
    pub(crate) fn new(config: HealthConfig, telemetry: TelemetryConfig) -> Arc<HealthPlane> {
        let registry = telemetry
            .handle()
            .registry()
            .cloned()
            .unwrap_or_else(Registry::global);
        Self::with_registry(config, telemetry, registry)
    }

    /// A plane sampling `registry` (tests wanting isolation).
    pub(crate) fn with_registry(
        config: HealthConfig,
        telemetry: TelemetryConfig,
        registry: Arc<Registry>,
    ) -> Arc<HealthPlane> {
        let tel = telemetry.handle();
        let sampler = WindowSampler::new(registry, WINDOW_RING);
        Arc::new(HealthPlane {
            slo: Mutex::new(SloTracker::new()),
            config,
            sampler,
            machines: Mutex::new(THRESHOLDS.map(Machine::new)),
            ticks: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            thread: Mutex::new(None),
            tick_count: tel.counter("health", "ticks"),
            transitions: tel.counter("health", "transitions"),
            slo_alerts: tel.counter("health", "slo_alerts"),
            overall_level: tel.gauge("health", "overall_level"),
        })
    }

    /// Ticks completed since launch.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Extracts each component's signal from a window, with the level
    /// its raw state cannot fall below (a lost mirror is `Critical`
    /// whatever the lag), in [`COMPONENTS`] order.
    fn signals(w: &Window) -> [(f64, HealthState); 5] {
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
        // A lost mirror is a durability hole regardless of lag.
        let mirror_floor = if losses > 0 {
            HealthState::Critical
        } else {
            HealthState::Healthy
        };
        [
            (ring_waits, HealthState::Healthy),
            (backlog as f64, HealthState::Healthy),
            (lag.max(losses as i64) as f64, mirror_floor),
            (throttles, HealthState::Healthy),
            (retries, HealthState::Healthy),
        ]
    }

    /// Closes one window and advances every state machine and the SLO
    /// tracker. Called from the plane's thread; public so tests (and the
    /// harness) can drive evaluation in lockstep with load.
    pub(crate) fn tick(&self) {
        let window = self.sampler.sample();
        let mut machines = self.machines.lock().expect("health machines lock");
        for (m, (signal, floor)) in machines.iter_mut().zip(Self::signals(&window)) {
            if let Some((old, new)) = m.observe(signal, floor) {
                self.transitions.inc();
                Tracer::global().event("health.transition", ((old as u64) << 8) | (new as u64));
            }
        }
        drop(machines);
        self.overall_level.set(self.overall() as i64);

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
        COMPONENTS
            .into_iter()
            .zip(machines.iter().map(|m| m.state))
            .collect()
    }

    /// Worst component state.
    pub fn overall(&self) -> HealthState {
        self.machines
            .lock()
            .expect("health machines lock")
            .iter()
            .map(|m| m.state)
            .max()
            .unwrap_or(HealthState::Healthy)
    }

    /// Current standing of every SLO.
    pub(crate) fn slo_status(&self) -> Vec<SloStatus> {
        self.slo.lock().expect("slo lock").status.clone()
    }

    /// Spawns the tick thread. Idempotent; [`HealthPlane::stop`] (or
    /// drop) joins it.
    pub(crate) fn start(self: &Arc<Self>) {
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
    pub(crate) fn stop(&self) {
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
    pub(crate) fn inspect_json(&self, server: u8, max_bytes: usize) -> String {
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
            for (c, m) in COMPONENTS.iter().zip(machines.iter()) {
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
    pub(crate) fn disabled_json(server: u8) -> String {
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
    use super::*;

    fn plane_with(registry: &Arc<Registry>, config: HealthConfig) -> Arc<HealthPlane> {
        HealthPlane::with_registry(config, TelemetryConfig::disabled(), Arc::clone(registry))
    }

    /// Feeds `signal` to `m` for `ticks` ticks; the state after the last.
    fn feed(m: &mut Machine, signal: f64, ticks: u32) -> HealthState {
        for _ in 0..ticks {
            m.observe(signal, HealthState::Healthy);
        }
        m.state
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
        let plane = plane_with(&r, HealthConfig::enabled());
        // One bad window is a blip: no transition yet.
        retries.add(1_000);
        plane.tick();
        assert_eq!(plane.overall(), HealthState::Healthy);
        // A second consecutive bad window escalates. Manual ticks close
        // microsecond windows, so the rate is far past the critical level.
        retries.add(1_000);
        plane.tick();
        let clients = plane
            .components()
            .into_iter()
            .find(|(c, _)| *c == "clients")
            .unwrap();
        assert_eq!(clients.1, HealthState::Critical);
        assert_eq!(plane.overall(), HealthState::Critical);
    }

    #[test]
    fn recovery_needs_recover_after_clean_ticks() {
        let mut m = Machine::new((1.0, f64::MAX));
        assert_eq!(feed(&mut m, 1_000.0, ESCALATE_AFTER), HealthState::Degraded);
        // Two clean ticks are not enough (RECOVER_AFTER = 3)...
        assert_eq!(feed(&mut m, 0.0, 2), HealthState::Degraded);
        // ...the third steps back down.
        assert_eq!(feed(&mut m, 0.0, 1), HealthState::Healthy);
    }

    /// A signal alternating across the threshold every tick never
    /// completes either streak, so the state holds steady.
    #[test]
    fn boundary_signal_does_not_flap() {
        let mut m = Machine::new((1.0, f64::MAX));
        for i in 0..20 {
            let signal = if i % 2 == 0 { 1_000.0 } else { 0.0 };
            assert_eq!(m.observe(signal, HealthState::Healthy), None, "tick {i}");
        }
        assert_eq!(m.state, HealthState::Healthy);
    }

    #[test]
    fn critical_escalation_skips_no_evidence() {
        // Signal sits above BOTH thresholds: after the streak the state
        // jumps straight to Critical, then recovers one level at a time.
        let mut m = Machine::new((1.0, 10.0));
        assert_eq!(feed(&mut m, 1_000.0, ESCALATE_AFTER), HealthState::Critical);
        assert_eq!(feed(&mut m, 0.0, RECOVER_AFTER), HealthState::Degraded);
        assert_eq!(feed(&mut m, 0.0, RECOVER_AFTER), HealthState::Healthy);
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
        let plane = plane_with(&r, HealthConfig::enabled());

        // Make sure the recorder starts disarmed (a previous test in this
        // process may have armed it).
        let _ = FlightRecorder::global().trigger("health-test-reset");
        assert!(!FlightRecorder::global().is_armed());

        // Every op blows the 10 ms objective: burn = 1.0/0.01 = 100.
        for _ in 0..1_000 {
            reads.record_ns(100_000_000);
        }
        plane.tick();

        assert!(
            FlightRecorder::global().is_armed(),
            "burn-rate breach must arm the flight recorder"
        );
        let slo = plane.slo_status();
        let p99 = slo.iter().find(|s| s.name == "op_p99").unwrap();
        assert!(p99.alerting, "latency objective should be alerting");
        assert!(p99.burn >= BURN_ALERT, "burn = {}", p99.burn);

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
        let plane = plane_with(&r, HealthConfig::enabled());
        reads.add(100);
        retries.add(50); // 50% error rate, 50x burn
        plane.tick();
        let slo = plane.slo_status();
        let err = slo.iter().find(|s| s.name == "error_rate").unwrap();
        assert!((err.value - 0.5).abs() < 1e-9, "value = {}", err.value);
        assert!((err.burn - 50.0).abs() < 1e-9, "burn = {}", err.burn);
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
