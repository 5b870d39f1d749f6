//! The numeric gates: an eleven-row table of rules over the [`Metrics`] the
//! experiments return, evaluated in-process by `harness gate` (the one
//! numeric step of `scripts/check.sh`).
//!
//! Every gate runs its experiment with telemetry off at the scale its row
//! names, and is retried up to `attempts` times: throughput and tail
//! percentiles on a shared host are noisy, and a real regression fails
//! every attempt while a scheduler hiccup does not. Gate runs never write
//! a `BENCH_<ID>.json` snapshot.

use gengar_telemetry::{TraceMode, Tracer};

use crate::{resolve, Metrics, RunConfig, Scale};

/// What a rule sees of a run: lookups that fail by name, logged so the
/// verdict line carries exactly the numbers the rule read (unrounded when
/// compared, three decimals when printed).
pub struct Reader<'a> {
    metrics: &'a Metrics,
    read: String,
}

impl Reader<'_> {
    /// The value reported under `name`.
    ///
    /// # Errors
    ///
    /// Names the metric when the run never reported it.
    pub fn get(&mut self, name: &str) -> Result<f64, String> {
        let found = self.metrics.iter().find(|(n, _)| n == name);
        let &(_, value) = found.ok_or_else(|| format!("missing metric {name}"))?;
        self.read.push_str(&format!(" {name}={value:.3}"));
        Ok(value)
    }
}

/// One row of the gate table.
pub struct Gate {
    /// The name `harness gate <name>` selects the row by.
    pub name: &'static str,
    /// Id of the experiment it runs (a row of [`crate::EXPERIMENTS`]).
    pub experiment: &'static str,
    /// Sizing of that run.
    pub scale: Scale,
    /// Runs tried before the gate fails.
    pub attempts: u32,
    /// Whether each attempt is a back-to-back pair of runs — the same
    /// thermal/load conditions — with causal tracing off, then sampled;
    /// the second run's metrics join the first's under a `sampled:` prefix.
    pub traced_pair: bool,
    /// Whether the gate holds on a run's metrics.
    pub rule: fn(&mut Reader) -> Result<bool, String>,
}

/// A single-run row (every gate but the tracing pair).
const fn gate(
    name: &'static str,
    experiment: &'static str,
    scale: Scale,
    attempts: u32,
    rule: fn(&mut Reader) -> Result<bool, String>,
) -> Gate {
    Gate {
        name,
        experiment,
        scale,
        attempts,
        traced_pair: false,
        rule,
    }
}

/// The gate table, in the order `harness gate` runs it: name, experiment,
/// scale, attempts, rule.
pub const GATES: &[Gate] = &[
    // Deep windows post up to `depth` work requests under one doorbell and
    // overlap their wire time; if window 16 is not twice the serial
    // baseline, batching has stopped amortising the round trip.
    gate("pipelining", "e4p", Scale::Quick, 1, |m| {
        Ok(m.get("window16.read_kops")? >= 2.0 * m.get("window1.read_kops")?)
    }),
    // Batches of random objects span every server, so the client's
    // per-server windows must overlap round trips across the whole pool.
    gate("fan-out", "e11", Scale::Quick, 3, |m| {
        Ok(m.get("servers4.batched_kops")? >= 1.5 * m.get("servers4.scalar_kops")?)
    }),
    // Three conditions on one run: with QoS off the aggressors must
    // actually hurt (victim p99 >= 3x solo — otherwise the gate proves
    // nothing), with QoS on the victim must recover (p99 <= 2x solo) and
    // aggregate aggressor throughput must respect the configured budget
    // (<= 1.5x the cap, the slack covering bucket-burst rounding over a
    // short window).
    gate("fairness", "e12", Scale::Quick, 3, |m| {
        let solo = m.get("victim_solo_p99_us")?;
        let (off, on) = (
            m.get("victim_qosoff_p99_us")?,
            m.get("victim_qoson_p99_us")?,
        );
        let (kops, cap) = (m.get("aggr_qoson_kops")?, m.get("aggr_cap_kops")?);
        Ok(off >= 3.0 * solo && on <= 2.0 * solo && kops > 0.0 && kops <= 1.5 * cap)
    }),
    // The stretched time scale makes modelled I/O dominate, so the proxy's
    // per-write win shows up as throughput again on fast hosts: proxy-only
    // and full must clearly beat the no-mechanism baseline.
    gate("ablation", "e12a", Scale::Quick, 3, |m| {
        let floor = 1.3 * m.get("neither.kops")?;
        let (proxy, full) = (m.get("proxy_only.kops")?, m.get("full.kops")?);
        Ok(proxy >= floor && full >= floor)
    }),
    // The mirror fan-out rides the same doorbell, so a replicated staged
    // write must stay near the unreplicated proxy path and keep its win
    // over the direct NVM write. Gated on the 1024 B row. The run also
    // hard-asserts zero settled-write loss across a kill-primary failover
    // (the experiment aborts on any lost write), so the read-back count
    // only has to be there.
    gate("replication", "e13", Scale::Quick, 3, |m| {
        m.get("settled_verified")?;
        let (plain, direct) = (
            m.get("write1024.unreplicated_ns")?,
            m.get("write1024.nvmdirect_ns")?,
        );
        let mirrored = m.get("write1024.replicated_ns")?;
        Ok(mirrored <= 2.0 * plain && mirrored < direct)
    }),
    // Eight sharers' lock -> read -> write -> unlock increments on one
    // object must keep half of one sharer's throughput: lock retries may
    // queue writers, not collapse them (EXPERIMENTS.md reads 51.9 / 46.2
    // kops/s). The run also hard-asserts that the counter is exact at
    // every sharer count (the experiment aborts on a lost update).
    gate("sharing", "e10", Scale::Quick, 1, |m| {
        Ok(m.get("sharers8.kops")? >= 0.5 * m.get("sharers1.kops")?)
    }),
    // The adaptive cache (TinyLFU admission + ghost-sized segments +
    // subclass frame rounding) holds >= 0.60 on zipf-0.99 with cache DRAM
    // at 1/8 of the working set; the pre-adaptive plane ceilinged near
    // 0.58. Full-size run (it is ~2 s).
    gate("cache-hit-ratio", "e5", Scale::Full, 3, |m| {
        Ok(m.get("zipf099.hit_ratio")? >= 0.60)
    }),
    // The same zipf-0.99 trace across cache sizes: the curve must clear
    // 0.50 at an 8% budget and 0.75 at 64% (measured 0.58 / 0.85; the old
    // slab's power-of-two frames wasted half the budget and sat near
    // 0.47 / 0.78).
    gate("cache-size-sweep", "e6", Scale::Full, 3, |m| {
        let (pct8, pct64) = (m.get("pct8.hit_ratio")?, m.get("pct64.hit_ratio")?);
        Ok(pct8 >= 0.50 && pct64 >= 0.75)
    }),
    // Hotspot migrates away and back; the demote arm must (a) actually
    // repromote parked frames, (b) recover its steady hit ratio within
    // half a phase in both directions, and (c) return to the original
    // hotspot no slower than the legacy policy that re-proves heat from a
    // cold miss.
    gate("phase-change", "e14", Scale::Full, 3, |m| {
        let (repromotions, away) = (m.get("demote.repromotions")?, m.get("demote.recovery_ops")?);
        let back = m.get("demote.return_recovery_ops")?;
        let legacy_back = m.get("legacy.return_recovery_ops")?;
        Ok(repromotions >= 1.0 && away <= 4000.0 && back <= 4000.0 && back <= legacy_back)
    }),
    // Quick-mode throughput on a shared host is noisy (runs span +-15%),
    // so the gate compares *paired* back-to-back runs and passes if any
    // pair shows <= 5% overhead. Real >5% tracing overhead would fail
    // every pair.
    Gate {
        traced_pair: true,
        ..gate("tracing-overhead", "e4p", Scale::Quick, 3, |m| {
            let off = m.get("window16.read_kops")?;
            let sampled = m.get("sampled:window16.read_kops")?;
            Ok(off > 0.0 && sampled >= 0.95 * off)
        })
    },
    // E15 runs both arms back-to-back itself (same pairing rationale as
    // the tracing gate), at full scale — quick-mode sections are too short
    // for a 5% bound on a shared host. The on-arm ticks at 10ms, ~100x a
    // production scrape, so a pass here is a generous upper bound.
    gate("health-overhead", "e15", Scale::Full, 3, |m| {
        let (off, on) = (m.get("health_off_kops")?, m.get("health_on_kops")?);
        Ok(off > 0.0 && on >= 0.95 * off)
    }),
];

impl Gate {
    /// Judges the rule on `metrics`: whether it held, and the numbers it
    /// read (or the name of the metric it missed).
    pub fn judge(&self, metrics: &Metrics) -> (bool, String) {
        let mut reader = Reader {
            metrics,
            read: String::new(),
        };
        match (self.rule)(&mut reader) {
            Ok(held) => (held, reader.read),
            Err(missing) => (false, format!(" {missing}")),
        }
    }

    /// The metrics of one attempt: the row's experiment at the row's
    /// scale, telemetry off, other knobs as `base` has them.
    fn measure(&self, base: &RunConfig) -> Metrics {
        let config = RunConfig {
            scale: self.scale,
            telemetry: false,
            ..base.clone()
        };
        let experiment = resolve(&[self.experiment]).expect("gate rows name known experiments")[0];
        let mut metrics = experiment.execute(&config);
        if self.traced_pair {
            let tracer = Tracer::global();
            tracer.set_mode(TraceMode::Sampled);
            let sampled = experiment.execute(&config);
            tracer.set_mode(TraceMode::Off);
            tracer.clear();
            metrics.extend(
                sampled
                    .into_iter()
                    .map(|(n, v)| (format!("sampled:{n}"), v)),
            );
        }
        metrics
    }
}

/// Runs the named gates (all of them when `names` is empty), one
/// PASS/FAIL line per gate after a `retry` line per failed earlier
/// attempt. Every selected gate runs even after a failure; the result is
/// whether all of them held.
///
/// # Errors
///
/// An unknown gate name, refused before any gate has run.
pub fn run_gates(names: &[&str], base: &RunConfig) -> Result<bool, String> {
    if let Some(unknown) = names.iter().find(|n| GATES.iter().all(|g| g.name != **n)) {
        let known: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        return Err(format!("unknown gate: {unknown} (known: {known:?})"));
    }
    let selected = GATES
        .iter()
        .filter(|g| names.is_empty() || names.contains(&g.name));
    let mut all_held = true;
    for gate in selected {
        let held = (1..=gate.attempts).any(|attempt| {
            let (held, numbers) = gate.judge(&gate.measure(base));
            let word = match (held, attempt < gate.attempts) {
                (true, _) => "PASS",
                (false, true) => "retry",
                (false, false) => "FAIL",
            };
            println!(
                "{word} {} ({} {}, attempt {attempt}/{}):{numbers}",
                gate.name,
                gate.experiment,
                gate.scale.name(),
                gate.attempts
            );
            held
        });
        all_held &= held;
    }
    Ok(all_held)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per gate, each metric its rule reads: a value that sits exactly on
    /// the rule's thresholds, and (where one exists) a value that steps
    /// just past one of them while the others stay put.
    type Case = (&'static str, &'static [(&'static str, f64, Option<f64>)]);
    const CASES: &[Case] = &[
        (
            "pipelining",
            &[
                ("window1.read_kops", 100.0, Some(100.1)),
                ("window16.read_kops", 200.0, Some(199.9)),
            ],
        ),
        (
            "fan-out",
            &[
                ("servers4.scalar_kops", 100.0, Some(100.1)),
                ("servers4.batched_kops", 150.0, Some(149.9)),
            ],
        ),
        (
            "fairness",
            &[
                ("victim_solo_p99_us", 10.0, Some(10.1)),
                ("victim_qosoff_p99_us", 30.0, Some(29.9)),
                ("victim_qoson_p99_us", 20.0, Some(20.1)),
                ("aggr_qoson_kops", 18.0, Some(0.0)),
                ("aggr_cap_kops", 12.0, Some(11.9)),
            ],
        ),
        (
            "ablation",
            &[
                ("neither.kops", 100.0, Some(100.1)),
                ("proxy_only.kops", 130.0, Some(129.9)),
                ("full.kops", 130.0, Some(129.9)),
            ],
        ),
        (
            "replication",
            &[
                ("settled_verified", 8.0, None),
                ("write1024.unreplicated_ns", 4000.0, Some(3999.0)),
                ("write1024.replicated_ns", 8000.0, Some(8001.0)),
                ("write1024.nvmdirect_ns", 8001.0, Some(8000.0)),
            ],
        ),
        (
            "sharing",
            &[
                ("sharers1.kops", 100.0, Some(100.1)),
                ("sharers8.kops", 50.0, Some(49.9)),
            ],
        ),
        (
            "cache-hit-ratio",
            &[("zipf099.hit_ratio", 0.60, Some(0.599))],
        ),
        (
            "cache-size-sweep",
            &[
                ("pct8.hit_ratio", 0.50, Some(0.499)),
                ("pct64.hit_ratio", 0.75, Some(0.749)),
            ],
        ),
        (
            "phase-change",
            &[
                ("demote.repromotions", 1.0, Some(0.0)),
                ("demote.recovery_ops", 4000.0, Some(4001.0)),
                ("demote.return_recovery_ops", 4000.0, Some(4001.0)),
                ("legacy.return_recovery_ops", 4000.0, Some(3999.0)),
            ],
        ),
        (
            "tracing-overhead",
            &[
                ("window16.read_kops", 1000.0, Some(0.0)),
                ("sampled:window16.read_kops", 950.0, Some(949.9)),
            ],
        ),
        (
            "health-overhead",
            &[
                ("health_off_kops", 1000.0, Some(0.0)),
                ("health_on_kops", 950.0, Some(949.9)),
            ],
        ),
    ];

    #[test]
    fn every_gate_holds_at_its_threshold_and_fails_just_past_it() {
        assert_eq!(CASES.len(), GATES.len(), "every gate row needs a case");
        for (gate, (name, case)) in GATES.iter().zip(CASES) {
            assert_eq!(gate.name, *name, "cases follow the table order");
            let at: Metrics = case.iter().map(|&(n, v, _)| (n.to_owned(), v)).collect();
            let (held, numbers) = gate.judge(&at);
            assert!(held, "{name} must hold at its threshold:{numbers}");
            for (i, &(metric, _, past)) in case.iter().enumerate() {
                // A metric the run never reported fails the gate by name.
                let mut changed = at.clone();
                changed.remove(i);
                let missing = (false, format!(" missing metric {metric}"));
                assert_eq!(gate.judge(&changed), missing, "gate {name}");
                if let Some(past) = past {
                    changed = at.clone();
                    changed[i].1 = past;
                    let (held, numbers) = gate.judge(&changed);
                    assert!(!held, "{name} must fail just past its threshold:{numbers}");
                }
            }
        }
    }

    #[test]
    fn every_gate_names_a_known_experiment_and_unknown_gates_are_refused() {
        for gate in GATES {
            assert!(resolve(&[gate.experiment]).is_ok(), "gate {}", gate.name);
        }
        let err = run_gates(&["pipelining", "pipelinng"], &RunConfig::default()).unwrap_err();
        assert!(err.contains("pipelinng") && err.contains("health-overhead"));
    }
}
