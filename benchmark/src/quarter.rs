//! The undisturbed quarter: how a run's end-to-end figures are taken.
//!
//! The timed phase of every trial is cut into windows of [`WINDOW`], each
//! measured on its own. This host's speed shifts by tens of percent for
//! ten seconds and more at a time (a pure-CPU loop shows 56 → 90 ms per
//! iteration with the benchmark idle), so a figure taken over a whole run
//! follows the host, not the program. Disturbance only ever slows a
//! window down, so the quarter of a run's windows with the highest
//! throughput is the part measured with the least of it. Throughput and
//! latency are both taken over that quarter, so they describe the same
//! stretches of time, and both sides of a comparison get the same rule.
//!
//! What this cannot see is a change that makes a minority of windows
//! slower; the traced run's whole-trial percentiles and
//! `core.proxy.ring_full_waits_per_kop` are where that shows.

use std::ops::Range;
use std::time::Duration;

use crate::stats::{percentile, ratio};

pub const WINDOW: Duration = Duration::from_millis(500);

/// One whole window of a trial's timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub secs: f64,
    /// Ops that returned `Ok` within the window.
    pub completed: u64,
    /// The window's calls, as a range of the trial's time-ordered samples.
    pub calls: Range<usize>,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        ratio(self.completed as f64, self.secs)
    }
}

/// A trial's windows with the latency samples they index.
#[derive(Debug, Clone, Copy)]
pub struct Windows<'a> {
    pub windows: &'a [Window],
    /// Latency of every call of the timed phase, in time order.
    pub call_ns: &'a [u32],
}

/// What the undisturbed quarter of some trials measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Quarter {
    pub ops_per_s: f64,
    pub p50_ns: u32,
    pub p95_ns: u32,
    /// Calls behind the percentiles.
    pub calls: u64,
}

/// Takes the quarter (rounded up) of all `trials`' windows with the
/// highest throughput and measures over them: ops ÷ seconds, and the
/// percentiles of their pooled calls. `None` when there is no window.
pub fn undisturbed(trials: &[Windows<'_>]) -> Option<Quarter> {
    let mut all: Vec<(&Window, &[u32])> = trials
        .iter()
        .flat_map(|t| t.windows.iter().map(|w| (w, &t.call_ns[w.calls.clone()])))
        .collect();
    if all.is_empty() {
        return None;
    }
    all.sort_by(|a, b| b.0.ops_per_s().total_cmp(&a.0.ops_per_s()));
    all.truncate(all.len().div_ceil(4));
    let mut calls: Vec<u32> = all.iter().flat_map(|(_, c)| c.iter().copied()).collect();
    calls.sort_unstable();
    let completed: u64 = all.iter().map(|(w, _)| w.completed).sum();
    let secs: f64 = all.iter().map(|(w, _)| w.secs).sum();
    Some(Quarter {
        ops_per_s: ratio(completed as f64, secs),
        p50_ns: percentile(&calls, 50.0),
        p95_ns: percentile(&calls, 95.0),
        calls: calls.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eight half-second windows of 100 calls each: window `i` completes
    /// `rates[i]` ops and every one of its calls takes `i + 1` µs.
    fn trial(rates: [u64; 8]) -> (Vec<Window>, Vec<u32>) {
        let windows = (0..8)
            .map(|i| Window {
                secs: 0.5,
                completed: rates[i],
                calls: i * 100..(i + 1) * 100,
            })
            .collect();
        let calls = (0..800).map(|c| (c / 100 + 1) * 1000).collect();
        (windows, calls)
    }

    #[test]
    fn the_fastest_quarter_is_measured_and_the_rest_ignored() {
        // Windows 2 and 5 are the fastest; the others are "disturbed".
        let (windows, calls) = trial([50, 40, 100, 10, 20, 90, 30, 60]);
        let q = undisturbed(&[Windows {
            windows: &windows,
            call_ns: &calls,
        }])
        .unwrap();
        assert_eq!(q.ops_per_s, 190.0);
        assert_eq!(q.calls, 200);
        // Pooled calls: 100 of 3 µs (window 2) and 100 of 6 µs (window 5).
        assert_eq!((q.p50_ns, q.p95_ns), (3000, 6000));
    }

    #[test]
    fn windows_pool_across_trials_and_the_quarter_rounds_up() {
        let (w1, c1) = trial([1, 1, 1, 1, 1, 1, 1, 80]);
        let (w2, c2) = trial([70, 1, 1, 1, 1, 1, 1, 1]);
        let both = [
            Windows {
                windows: &w1,
                call_ns: &c1,
            },
            Windows {
                windows: &w2[..1],
                call_ns: &c2,
            },
        ];
        // Nine windows: the quarter, rounded up, is three.
        let q = undisturbed(&both).unwrap();
        assert_eq!(q.ops_per_s, (80 + 70 + 1) as f64 / 1.5);
        assert_eq!(q.calls, 300);
        assert!(undisturbed(&[]).is_none());
    }
}
