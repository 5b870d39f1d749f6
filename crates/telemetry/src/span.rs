//! RAII timing spans.

use std::sync::Arc;
use std::time::Instant;

use crate::metrics::LatencyHistogram;

/// An RAII guard that records its lifetime into a histogram on drop.
///
/// ```
/// use gengar_telemetry::Registry;
///
/// let registry = Registry::new();
/// {
///     let _span = registry.span("proxy", "drain");
///     // ... timed work ...
/// }
/// assert_eq!(registry.snapshot().histogram("proxy.drain_ns").unwrap().count, 1);
/// ```
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    target: Option<Arc<LatencyHistogram>>,
}

impl Span {
    /// Starts a span against the global registry's `component.{op}_ns`
    /// histogram. Prefer a cached
    /// [`HistogramHandle::span`](crate::HistogramHandle::span) on hot
    /// paths; this form resolves the metric by name each call.
    pub fn enter(component: &str, op: &str) -> Span {
        crate::Registry::global().span(component, op)
    }

    /// Starts a span recording into `target` on drop.
    pub fn recording(target: Arc<LatencyHistogram>) -> Span {
        Span {
            start: Some(Instant::now()),
            target: Some(target),
        }
    }

    /// A span that records nothing and never reads the clock.
    pub fn disabled() -> Span {
        Span {
            start: None,
            target: None,
        }
    }

    /// Whether this span will record on drop.
    pub fn is_recording(&self) -> bool {
        self.target.is_some()
    }

    /// Drops the span without recording.
    pub fn cancel(mut self) {
        self.target = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(start), Some(target)) = (self.start, self.target.take()) {
            target.record(start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let h = Arc::new(LatencyHistogram::new());
        {
            let _s = Span::recording(Arc::clone(&h));
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let s = Span::disabled();
        assert!(!s.is_recording());
        drop(s);
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let h = Arc::new(LatencyHistogram::new());
        let s = Span::recording(Arc::clone(&h));
        assert!(s.is_recording());
        s.cancel();
        assert_eq!(h.count(), 0);
    }
}
