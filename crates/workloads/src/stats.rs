//! Latency summaries for benchmark reporting, condensed from the
//! workspace's one log-bucketed histogram
//! ([`gengar_telemetry::LatencyHistogram`]).

use gengar_telemetry::HistogramSnapshot;
pub use gengar_telemetry::{fmt_ns, LatencyHistogram};

/// Condensed latency statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Samples recorded.
    pub count: u64,
    /// Mean, nanoseconds.
    pub mean_ns: u64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Minimum, nanoseconds.
    pub min_ns: u64,
    /// Maximum, nanoseconds.
    pub max_ns: u64,
}

impl From<&HistogramSnapshot> for Summary {
    fn from(h: &HistogramSnapshot) -> Summary {
        Summary {
            count: h.count,
            mean_ns: h.mean_ns(),
            p50_ns: h.p50_ns(),
            p99_ns: h.p99_ns(),
            min_ns: h.min_ns(),
            max_ns: h.max_ns(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            fmt_ns(self.mean_ns),
            fmt_ns(self.p50_ns),
            fmt_ns(self.p99_ns),
            fmt_ns(self.max_ns)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn summary_display_mentions_fields() {
        let h = LatencyHistogram::new();
        h.record_ns(1000);
        let s = Summary::from(&h.snapshot()).to_string();
        assert!(s.contains("n=1"));
        assert!(s.contains("p99"));
    }
}
