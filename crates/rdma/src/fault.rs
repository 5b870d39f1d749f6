//! Deterministic fault-injection plane for the simulated fabric.
//!
//! A [`FaultPlane`] attaches to [`crate::FabricConfig`] and is consulted
//! once per posted send-side verb, *after* the programming-error checks
//! (a real NIC rejects a bad WQE locally before anything reaches the
//! wire) and *before* the link model runs. It can
//!
//! - force error completions ([`WcStatus`]) per-verb / per-link,
//! - lose operations on the wire (nothing reaches the responder; the
//!   initiator's transport retries run out and the WR completes with
//!   [`WcStatus::TransportError`], moving its QP to error),
//! - add extra delay to selected operations,
//! - exhaust RNR credits (a forced [`WcStatus::RnrRetryExceeded`]),
//! - flap partitions on a deterministic schedule.
//!
//! Every random choice draws from a seeded splitmix64 stream owned by the
//! plane, so a failing chaos run reproduces from its seed alone. When the
//! plane is disabled (or absent) the fabric hot path pays a single branch.
//!
//! Rules are matched first-to-fire: the first rule whose filters match the
//! operation *and* whose trigger fires decides the operation's fate.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gengar_telemetry::{CounterHandle, TelemetryConfig};
use parking_lot::{Mutex, RwLock};

use crate::cq::{WcOpcode, WcStatus};
use crate::types::NodeId;

/// What a firing rule does to the matched operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Complete the operation with this error status (QP goes to error).
    Error(WcStatus),
    /// Lose the operation's request on the wire: no data transfer, and
    /// the initiator completes it with [`WcStatus::TransportError`] once
    /// its transport retries run out (the QP goes to error).
    Drop,
    /// Delay the operation by this many simulated nanoseconds, then let it
    /// proceed normally.
    DelayNs(u64),
    /// Simulate RNR credit exhaustion: the receiver never produced a
    /// receive, so the sender completes with
    /// [`WcStatus::RnrRetryExceeded`].
    ExhaustRnr,
}

/// When a matching rule fires.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Every matching operation.
    Always,
    /// Each matching operation independently with this probability.
    Probability(f64),
    /// At these (1-based) per-rule matched-operation counts — scripted
    /// faults at exact points in a run.
    AtOps(Vec<u64>),
}

/// One injection rule: filters narrowing which operations it applies to,
/// a [`Trigger`] deciding when it fires, and the [`FaultAction`] applied.
#[derive(Debug)]
pub struct FaultRule {
    action: FaultAction,
    trigger: Trigger,
    /// Only operations of this verb (sender-side opcode) match.
    verb: Option<WcOpcode>,
    /// Only operations between this unordered node pair match.
    link: Option<(NodeId, NodeId)>,
    /// Filter on WRITE_WITH_IMM: `Some(true)` matches only writes that
    /// carry an immediate (the staging-ring path), `Some(false)` only
    /// writes that don't.
    with_imm: Option<bool>,
    /// Matched operations seen so far (drives `AtOps`).
    seen: AtomicU64,
}

impl Clone for FaultRule {
    fn clone(&self) -> Self {
        FaultRule {
            action: self.action,
            trigger: self.trigger.clone(),
            verb: self.verb,
            link: self.link,
            with_imm: self.with_imm,
            seen: AtomicU64::new(self.seen.load(Ordering::Relaxed)),
        }
    }
}

impl FaultRule {
    /// A rule applying `action` to every operation (narrow it with the
    /// builder methods).
    pub fn new(action: FaultAction) -> Self {
        FaultRule {
            action,
            trigger: Trigger::Always,
            verb: None,
            link: None,
            with_imm: None,
            seen: AtomicU64::new(0),
        }
    }

    /// A rule forcing error completions with `status`.
    pub fn error(status: WcStatus) -> Self {
        Self::new(FaultAction::Error(status))
    }

    /// A rule losing operations on the wire (transport-error completion,
    /// QP to error).
    pub fn drop_op() -> Self {
        Self::new(FaultAction::Drop)
    }

    /// A rule delaying operations by `ns` simulated nanoseconds.
    pub fn delay_ns(ns: u64) -> Self {
        Self::new(FaultAction::DelayNs(ns))
    }

    /// A rule simulating RNR credit exhaustion.
    pub fn rnr() -> Self {
        Self::new(FaultAction::ExhaustRnr)
    }

    /// Restricts the rule to one verb (sender-side opcode).
    #[must_use]
    pub fn verb(mut self, verb: WcOpcode) -> Self {
        self.verb = Some(verb);
        self
    }

    /// Restricts the rule to the unordered link between `a` and `b`.
    #[must_use]
    pub fn link(mut self, a: NodeId, b: NodeId) -> Self {
        self.link = Some(if a <= b { (a, b) } else { (b, a) });
        self
    }

    /// Restricts the rule to writes with (`true`) or without (`false`) an
    /// immediate. Only meaningful for [`WcOpcode::RdmaWrite`].
    #[must_use]
    pub fn with_imm(mut self, with_imm: bool) -> Self {
        self.with_imm = Some(with_imm);
        self
    }

    /// Fires each matching operation independently with probability `p`.
    #[must_use]
    pub fn probability(mut self, p: f64) -> Self {
        self.trigger = Trigger::Probability(p.clamp(0.0, 1.0));
        self
    }

    /// Fires at exactly these 1-based matched-operation counts.
    #[must_use]
    pub fn at_ops(mut self, ops: Vec<u64>) -> Self {
        self.trigger = Trigger::AtOps(ops);
        self
    }

    fn matches(&self, src: NodeId, dst: NodeId, verb: WcOpcode, imm: bool) -> bool {
        if let Some(v) = self.verb {
            if v != verb {
                return false;
            }
        }
        if let Some((a, b)) = self.link {
            let key = if src <= dst { (src, dst) } else { (dst, src) };
            if key != (a, b) {
                return false;
            }
        }
        if let Some(want) = self.with_imm {
            if want != imm {
                return false;
            }
        }
        true
    }
}

/// A deterministic partition schedule: with period `period`, the first
/// `blocked` operations of each period observe the link as partitioned
/// (counted on the plane's global operation counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionFlap {
    /// The unordered link to flap, or `None` for every link.
    pub link: Option<(NodeId, NodeId)>,
    /// Schedule period in fabric operations.
    pub period: u64,
    /// Operations at the start of each period that observe a partition.
    pub blocked: u64,
}

impl PartitionFlap {
    /// Flaps every link: `blocked` out of every `period` operations fail.
    pub fn all_links(period: u64, blocked: u64) -> Self {
        PartitionFlap {
            link: None,
            period: period.max(1),
            blocked,
        }
    }

    /// Flaps one unordered link.
    pub fn on_link(a: NodeId, b: NodeId, period: u64, blocked: u64) -> Self {
        PartitionFlap {
            link: Some(if a <= b { (a, b) } else { (b, a) }),
            period: period.max(1),
            blocked,
        }
    }

    fn blocks(&self, src: NodeId, dst: NodeId, op: u64) -> bool {
        if let Some((a, b)) = self.link {
            let key = if src <= dst { (src, dst) } else { (dst, src) };
            if key != (a, b) {
                return false;
            }
        }
        op % self.period < self.blocked
    }
}

/// The plane's verdict for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// No fault: execute normally.
    Proceed,
    /// Delay by this many simulated nanoseconds, then execute normally.
    Delay(u64),
    /// Complete with this error status instead of executing.
    Error(WcStatus),
    /// Lost on the wire: no execution; the fabric completes it with
    /// [`WcStatus::TransportError`] after its transport retry time.
    Drop,
}

#[derive(Debug, Clone, Default)]
struct FaultMetrics {
    injected_errors: CounterHandle,
    injected_drops: CounterHandle,
    delayed_ops: CounterHandle,
    partition_blocks: CounterHandle,
}

impl FaultMetrics {
    fn new(config: TelemetryConfig) -> Self {
        let tel = config.handle();
        FaultMetrics {
            injected_errors: tel.counter("fault", "injected_errors"),
            injected_drops: tel.counter("fault", "injected_drops"),
            delayed_ops: tel.counter("fault", "delayed_ops"),
            partition_blocks: tel.counter("fault", "partition_blocks"),
        }
    }
}

/// Seeded, deterministic fault injector attached to a
/// [`crate::FabricConfig`].
///
/// Thread-safe: many initiator threads consult the plane concurrently.
/// Determinism is per-plane — with a single initiator thread, a given
/// seed + rule set reproduces the exact same fault sequence; with several
/// threads, the *set* of injected faults is scheduling-dependent but each
/// random draw still comes from the seeded stream.
#[derive(Debug)]
pub struct FaultPlane {
    enabled: AtomicBool,
    ops: AtomicU64,
    rules: RwLock<Vec<FaultRule>>,
    flaps: RwLock<Vec<PartitionFlap>>,
    rng: Mutex<u64>,
    spec: Mutex<String>,
    metrics: FaultMetrics,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlane {
    /// An enabled, empty plane with no telemetry (counters are no-ops).
    pub fn new(seed: u64) -> Self {
        Self::with_telemetry(seed, TelemetryConfig::disabled())
    }

    /// An enabled, empty plane whose `fault.*` counters are resolved
    /// against `telemetry`'s registry.
    pub fn with_telemetry(seed: u64, telemetry: TelemetryConfig) -> Self {
        FaultPlane {
            enabled: AtomicBool::new(true),
            ops: AtomicU64::new(0),
            rules: RwLock::new(Vec::new()),
            flaps: RwLock::new(Vec::new()),
            rng: Mutex::new(seed),
            spec: Mutex::new(String::new()),
            metrics: FaultMetrics::new(telemetry),
        }
    }

    /// Builds a plane from a fault-spec string (see [`FaultPlane::parse`]
    /// for the grammar).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed term.
    pub fn from_spec(
        spec: &str,
        seed: u64,
        telemetry: TelemetryConfig,
    ) -> Result<FaultPlane, String> {
        let plane = FaultPlane::with_telemetry(seed, telemetry);
        plane.parse(spec)?;
        Ok(plane)
    }

    /// Parses and installs a fault-spec string, adding to any existing
    /// rules. Terms are joined with `+`; each term is
    /// `kind:key=val,key=val,...`:
    ///
    /// - `drop:p=0.01[,verb=read]` — lose ops on the wire with probability
    ///   `p` (a transport-error completion after the retry time)
    /// - `err:p=0.01[,verb=...]` — force transport-error completions
    /// - `rnr:p=0.02` — RNR exhaustion (an RNR-retry-exceeded completion)
    /// - `delay:ns=50000[,p=0.1]` — add `ns` of delay
    /// - `flap:period=2000,blocked=200` — partition all links for the
    ///   first `blocked` ops of every `period` ops
    ///
    /// Shared keys: `verb=read|write|send|cas|faa|flush`, `imm=0|1` (filter on
    /// WRITE_WITH_IMM), `at=100/200/300` (scripted op counts,
    /// `/`-separated). Without `p` or `at` a rule fires on every matching
    /// op.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed term.
    pub fn parse(&self, spec: &str) -> Result<(), String> {
        for term in spec.split('+').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, params) = term.split_once(':').unwrap_or((term, ""));
            let mut p: Option<f64> = None;
            let mut at: Option<Vec<u64>> = None;
            let mut verb: Option<WcOpcode> = None;
            let mut imm: Option<bool> = None;
            let mut ns: Option<u64> = None;
            let mut period: Option<u64> = None;
            let mut blocked: Option<u64> = None;
            for kv in params.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let (key, val) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("fault spec: `{kv}` in `{term}` is not key=value"))?;
                let bad = |what: &str| format!("fault spec: bad {what} `{val}` in `{term}`");
                match key {
                    "p" => p = Some(val.parse::<f64>().map_err(|_| bad("probability"))?),
                    "at" => {
                        let ops = val
                            .split('/')
                            .map(|s| s.parse::<u64>().map_err(|_| bad("op count")))
                            .collect::<Result<Vec<u64>, String>>()?;
                        at = Some(ops);
                    }
                    "verb" => {
                        verb = Some(match val {
                            "read" => WcOpcode::RdmaRead,
                            "write" => WcOpcode::RdmaWrite,
                            "send" => WcOpcode::Send,
                            "cas" => WcOpcode::CompSwap,
                            "faa" => WcOpcode::FetchAdd,
                            "flush" => WcOpcode::Flush,
                            _ => return Err(bad("verb")),
                        });
                    }
                    "imm" => {
                        imm = Some(match val {
                            "1" | "true" => true,
                            "0" | "false" => false,
                            _ => return Err(bad("imm flag")),
                        });
                    }
                    "ns" => ns = Some(val.parse::<u64>().map_err(|_| bad("delay"))?),
                    "period" => period = Some(val.parse::<u64>().map_err(|_| bad("period"))?),
                    "blocked" => blocked = Some(val.parse::<u64>().map_err(|_| bad("blocked"))?),
                    _ => return Err(format!("fault spec: unknown key `{key}` in `{term}`")),
                }
            }
            if kind == "flap" {
                let period =
                    period.ok_or_else(|| format!("fault spec: `{term}` needs period=N"))?;
                let blocked =
                    blocked.ok_or_else(|| format!("fault spec: `{term}` needs blocked=N"))?;
                self.add_flap(PartitionFlap::all_links(period, blocked));
                continue;
            }
            let mut rule = match kind {
                "drop" => FaultRule::drop_op(),
                "err" => FaultRule::error(WcStatus::TransportError),
                "rnr" => FaultRule::rnr(),
                "delay" => FaultRule::delay_ns(
                    ns.ok_or_else(|| format!("fault spec: `{term}` needs ns=N"))?,
                ),
                _ => return Err(format!("fault spec: unknown fault kind `{kind}`")),
            };
            rule.verb = verb;
            rule.with_imm = imm;
            if let Some(p) = p {
                rule = rule.probability(p);
            } else if let Some(ops) = at {
                rule = rule.at_ops(ops);
            }
            self.add_rule(rule);
        }
        let mut stored = self.spec.lock();
        if stored.is_empty() {
            *stored = spec.to_string();
        } else {
            *stored = format!("{}+{spec}", *stored);
        }
        Ok(())
    }

    /// The spec string(s) installed via [`FaultPlane::parse`], for
    /// reporting. Empty for programmatically built planes.
    pub fn spec(&self) -> String {
        self.spec.lock().clone()
    }

    /// Whether the plane is currently injecting.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns injection on or off. Rules and counters are preserved.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Stops injecting (the chaos suites disarm before verifying).
    pub fn disarm(&self) {
        self.set_enabled(false);
    }

    /// Installs an injection rule.
    pub fn add_rule(&self, rule: FaultRule) {
        self.rules.write().push(rule);
    }

    /// Installs a partition-flap schedule.
    pub fn add_flap(&self, flap: PartitionFlap) {
        self.flaps.write().push(flap);
    }

    /// Removes every rule and flap (the op counter keeps counting).
    pub fn clear(&self) {
        self.rules.write().clear();
        self.flaps.write().clear();
        self.spec.lock().clear();
    }

    /// Operations the plane has adjudicated while enabled.
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    fn next_f64(&self) -> f64 {
        let mut state = self.rng.lock();
        let x = splitmix64(&mut state);
        // 53 mantissa bits → uniform in [0, 1).
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Adjudicates one operation. Called by the fabric for every posted
    /// send-side verb; `with_imm` is true for WRITE_WITH_IMM.
    pub fn decide(
        &self,
        src: NodeId,
        dst: NodeId,
        verb: WcOpcode,
        with_imm: bool,
    ) -> FaultDecision {
        if !self.enabled.load(Ordering::Relaxed) {
            return FaultDecision::Proceed;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        for flap in self.flaps.read().iter() {
            if flap.blocks(src, dst, op) {
                self.metrics.partition_blocks.inc();
                return FaultDecision::Error(WcStatus::TransportError);
            }
        }
        for rule in self.rules.read().iter() {
            if !rule.matches(src, dst, verb, with_imm) {
                continue;
            }
            let seen = rule.seen.fetch_add(1, Ordering::Relaxed) + 1;
            let fires = match &rule.trigger {
                Trigger::Always => true,
                Trigger::Probability(p) => self.next_f64() < *p,
                Trigger::AtOps(ops) => ops.contains(&seen),
            };
            if !fires {
                continue;
            }
            // An injected error/drop is exactly the moment a timeline is
            // worth keeping: fire the flight recorder's one-shot dump
            // latch (a no-op unless armed — see `FlightRecorder`).
            return match rule.action {
                FaultAction::Error(status) => {
                    self.metrics.injected_errors.inc();
                    gengar_telemetry::FlightRecorder::global().trigger("fault-err");
                    FaultDecision::Error(status)
                }
                FaultAction::ExhaustRnr => {
                    self.metrics.injected_errors.inc();
                    gengar_telemetry::FlightRecorder::global().trigger("fault-rnr");
                    FaultDecision::Error(WcStatus::RnrRetryExceeded)
                }
                FaultAction::Drop => {
                    self.metrics.injected_drops.inc();
                    gengar_telemetry::FlightRecorder::global().trigger("fault-drop");
                    FaultDecision::Drop
                }
                FaultAction::DelayNs(ns) => {
                    self.metrics.delayed_ops.inc();
                    FaultDecision::Delay(ns)
                }
            };
        }
        FaultDecision::Proceed
    }
}

impl fmt::Display for FaultPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = self.spec.lock();
        if spec.is_empty() {
            write!(
                f,
                "FaultPlane({} rules, {} flaps)",
                self.rules.read().len(),
                self.flaps.read().len()
            )
        } else {
            write!(f, "FaultPlane({})", *spec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    fn decide_n(plane: &FaultPlane, n: usize) -> Vec<FaultDecision> {
        (0..n)
            .map(|_| plane.decide(A, B, WcOpcode::RdmaRead, false))
            .collect()
    }

    #[test]
    fn empty_plane_proceeds() {
        let plane = FaultPlane::new(7);
        assert!(decide_n(&plane, 100)
            .iter()
            .all(|d| *d == FaultDecision::Proceed));
        assert_eq!(plane.ops_seen(), 100);
    }

    #[test]
    fn disabled_plane_is_inert() {
        let plane = FaultPlane::new(7);
        plane.add_rule(FaultRule::error(WcStatus::TransportError));
        plane.disarm();
        assert!(decide_n(&plane, 10)
            .iter()
            .all(|d| *d == FaultDecision::Proceed));
        assert_eq!(plane.ops_seen(), 0);
        plane.set_enabled(true);
        assert_eq!(
            plane.decide(A, B, WcOpcode::RdmaRead, false),
            FaultDecision::Error(WcStatus::TransportError)
        );
    }

    #[test]
    fn same_seed_reproduces_decisions() {
        let mk = || {
            let plane = FaultPlane::new(42);
            plane.add_rule(FaultRule::drop_op().probability(0.3));
            plane
        };
        let (p1, p2) = (mk(), mk());
        assert_eq!(decide_n(&p1, 500), decide_n(&p2, 500));
        // And a different seed gives a different fault pattern.
        let p3 = FaultPlane::new(43);
        p3.add_rule(FaultRule::drop_op().probability(0.3));
        assert_ne!(decide_n(&p1, 500), decide_n(&p3, 500));
    }

    #[test]
    fn probability_hits_in_expected_band() {
        let plane = FaultPlane::new(1);
        plane.add_rule(FaultRule::drop_op().probability(0.2));
        let drops = decide_n(&plane, 10_000)
            .iter()
            .filter(|d| **d == FaultDecision::Drop)
            .count();
        assert!((1500..2500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn at_ops_fires_at_scripted_counts() {
        let plane = FaultPlane::new(1);
        plane.add_rule(FaultRule::error(WcStatus::RemoteAccessError).at_ops(vec![3, 5]));
        let decisions = decide_n(&plane, 6);
        for (i, d) in decisions.iter().enumerate() {
            let expect = if i == 2 || i == 4 {
                FaultDecision::Error(WcStatus::RemoteAccessError)
            } else {
                FaultDecision::Proceed
            };
            assert_eq!(*d, expect, "op {i}");
        }
    }

    #[test]
    fn verb_and_imm_filters_narrow_matches() {
        let plane = FaultPlane::new(1);
        plane.add_rule(
            FaultRule::error(WcStatus::TransportError)
                .verb(WcOpcode::RdmaWrite)
                .with_imm(true),
        );
        assert_eq!(
            plane.decide(A, B, WcOpcode::RdmaWrite, false),
            FaultDecision::Proceed
        );
        assert_eq!(
            plane.decide(A, B, WcOpcode::RdmaRead, false),
            FaultDecision::Proceed
        );
        assert_eq!(
            plane.decide(A, B, WcOpcode::RdmaWrite, true),
            FaultDecision::Error(WcStatus::TransportError)
        );
    }

    #[test]
    fn flush_verb_parses_and_injects() {
        let plane =
            FaultPlane::from_spec("err:verb=flush", 1, TelemetryConfig::disabled()).unwrap();
        assert_eq!(
            plane.decide(A, B, WcOpcode::RdmaWrite, false),
            FaultDecision::Proceed
        );
        assert_eq!(
            plane.decide(A, B, WcOpcode::Flush, false),
            FaultDecision::Error(WcStatus::TransportError)
        );
        assert!(FaultPlane::from_spec("drop:verb=fsync", 1, TelemetryConfig::disabled()).is_err());
    }

    #[test]
    fn link_filter_narrows_matches() {
        let plane = FaultPlane::new(1);
        plane.add_rule(FaultRule::rnr().link(B, A));
        assert_eq!(
            plane.decide(A, NodeId(2), WcOpcode::Send, false),
            FaultDecision::Proceed
        );
        // Unordered: (A, B) matches a rule installed as (B, A).
        assert_eq!(
            plane.decide(A, B, WcOpcode::Send, false),
            FaultDecision::Error(WcStatus::RnrRetryExceeded)
        );
    }

    #[test]
    fn flap_schedule_blocks_prefix_of_each_period() {
        let plane = FaultPlane::new(1);
        plane.add_flap(PartitionFlap::all_links(5, 2));
        let decisions = decide_n(&plane, 10);
        for (i, d) in decisions.iter().enumerate() {
            let expect = if i % 5 < 2 {
                FaultDecision::Error(WcStatus::TransportError)
            } else {
                FaultDecision::Proceed
            };
            assert_eq!(*d, expect, "op {i}");
        }
    }

    #[test]
    fn flap_on_link_ignores_other_links() {
        let plane = FaultPlane::new(1);
        plane.add_flap(PartitionFlap::on_link(A, B, 2, 2));
        assert_eq!(
            plane.decide(A, NodeId(9), WcOpcode::RdmaRead, false),
            FaultDecision::Proceed
        );
        assert_eq!(
            plane.decide(B, A, WcOpcode::RdmaRead, false),
            FaultDecision::Error(WcStatus::TransportError)
        );
    }

    #[test]
    fn first_firing_rule_wins() {
        let plane = FaultPlane::new(1);
        plane.add_rule(FaultRule::drop_op());
        plane.add_rule(FaultRule::error(WcStatus::TransportError));
        assert_eq!(
            plane.decide(A, B, WcOpcode::RdmaRead, false),
            FaultDecision::Drop
        );
    }

    #[test]
    fn spec_parses_all_kinds() {
        let plane = FaultPlane::from_spec(
            "drop:p=0.01,verb=read + err:p=0.02 + rnr:p=0.01 \
             + delay:ns=500,p=0.5 + flap:period=2000,blocked=200 + err:at=3/7,imm=1",
            9,
            TelemetryConfig::disabled(),
        )
        .unwrap();
        assert_eq!(plane.rules.read().len(), 5);
        assert_eq!(plane.flaps.read().len(), 1);
        assert!(plane.spec().contains("flap"));
    }

    #[test]
    fn spec_rejects_malformed_terms() {
        for bad in [
            "unknown:p=0.1",
            "drop:p=zero",
            "err:status=access",
            "rnr:nth=100",
            "drop:verb=scan",
            "delay:p=0.1",
            "flap:period=10",
            "drop:p",
            "drop:wat=1",
        ] {
            assert!(
                FaultPlane::from_spec(bad, 1, TelemetryConfig::disabled()).is_err(),
                "spec `{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn clear_removes_rules_and_flaps() {
        let plane = FaultPlane::new(1);
        plane.parse("drop:p=1 + flap:period=2,blocked=1").unwrap();
        plane.clear();
        assert!(decide_n(&plane, 20)
            .iter()
            .all(|d| *d == FaultDecision::Proceed));
        assert!(plane.spec().is_empty());
    }
}
