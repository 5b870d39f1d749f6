//! The metric registry: names `(component, metric)` pairs, hands out
//! shared metric handles, and produces ordered snapshots for export.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, HistogramSnapshot, LatencyHistogram};
use crate::span::Span;

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics keyed `component.metric`.
///
/// Handles returned by [`Registry::counter`] and friends stay valid across
/// [`Registry::reset`]: reset zeroes values in place rather than dropping
/// the metrics, so long-lived instrumented components keep reporting.
#[derive(Debug)]
pub struct Registry {
    metrics: RwLock<HashMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            metrics: RwLock::new(HashMap::new()),
        }
    }

    /// The process-wide registry that the bench harness snapshots.
    pub fn global() -> Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
    }

    fn key(component: &str, metric: &str) -> String {
        format!("{component}.{metric}")
    }

    fn get_or_insert<T, F, G>(&self, component: &str, metric: &str, extract: F, create: G) -> Arc<T>
    where
        F: Fn(&Metric) -> Option<Arc<T>>,
        G: FnOnce() -> Metric,
    {
        let key = Self::key(component, metric);
        if let Some(existing) = self.metrics.read().expect("registry lock").get(&key) {
            return extract(existing).unwrap_or_else(|| {
                panic!(
                    "telemetry metric '{key}' already registered as a {}",
                    existing.kind()
                )
            });
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        let entry = metrics.entry(key.clone()).or_insert_with(create);
        extract(entry).unwrap_or_else(|| {
            panic!(
                "telemetry metric '{key}' already registered as a {}",
                entry.kind()
            )
        })
    }

    /// The counter named `component.metric`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn counter(&self, component: &str, metric: &str) -> Arc<Counter> {
        self.get_or_insert(
            component,
            metric,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || Metric::Counter(Arc::new(Counter::new())),
        )
    }

    /// The gauge named `component.metric`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn gauge(&self, component: &str, metric: &str) -> Arc<Gauge> {
        self.get_or_insert(
            component,
            metric,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || Metric::Gauge(Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `component.metric`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn histogram(&self, component: &str, metric: &str) -> Arc<LatencyHistogram> {
        self.get_or_insert(
            component,
            metric,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || Metric::Histogram(Arc::new(LatencyHistogram::new())),
        )
    }

    /// Zeroes every metric in place. Handles held by instrumented
    /// components remain valid.
    pub fn reset(&self) {
        for metric in self.metrics.read().expect("registry lock").values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Starts a span recording into the histogram `component.{op}_ns`.
    pub fn span(&self, component: &str, op: &str) -> Span {
        Span::recording(self.histogram(component, &format!("{op}_ns")))
    }

    /// Captures an ordered point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut entries = BTreeMap::new();
        for (key, metric) in self.metrics.read().expect("registry lock").iter() {
            let snap = match metric {
                Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
            };
            entries.insert(key.clone(), snap);
        }
        RegistrySnapshot { entries }
    }
}

/// A point-in-time copy of one metric's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricSnapshot {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram's full state.
    Histogram(HistogramSnapshot),
}

/// An ordered snapshot of a whole [`Registry`], ready for export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Metric snapshots keyed `component.metric`, sorted by key.
    pub entries: BTreeMap<String, MetricSnapshot>,
}

impl RegistrySnapshot {
    /// The counter value under `key`, if present and a counter.
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.entries.get(key) {
            Some(MetricSnapshot::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value under `key`, if present and a gauge.
    pub fn gauge(&self, key: &str) -> Option<i64> {
        match self.entries.get(key) {
            Some(MetricSnapshot::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram snapshot under `key`, if present and a histogram.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(key) {
            Some(MetricSnapshot::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

/// A shared counter, or nothing when telemetry is disabled.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<Counter>>);

impl CounterHandle {
    pub(crate) fn new(inner: Option<Arc<Counter>>) -> Self {
        CounterHandle(inner)
    }

    /// A permanently disabled handle.
    pub fn off() -> Self {
        CounterHandle(None)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.inc();
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// A shared gauge, or nothing when telemetry is disabled.
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Option<Arc<Gauge>>);

impl GaugeHandle {
    pub(crate) fn new(inner: Option<Arc<Gauge>>) -> Self {
        GaugeHandle(inner)
    }

    /// A permanently disabled handle.
    pub fn off() -> Self {
        GaugeHandle(None)
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.add(n);
        }
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.sub(n);
        }
    }

    /// Records `v` if it exceeds the current value.
    #[inline]
    pub fn record_max(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.record_max(v);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get())
    }
}

/// A shared histogram, or nothing when telemetry is disabled.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<LatencyHistogram>>);

impl HistogramHandle {
    pub(crate) fn new(inner: Option<Arc<LatencyHistogram>>) -> Self {
        HistogramHandle(inner)
    }

    /// A permanently disabled handle.
    pub fn off() -> Self {
        HistogramHandle(None)
    }

    /// Whether recording reaches a histogram.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(h) = &self.0 {
            h.record_ns(ns);
        }
    }

    /// Records one sample as a [`std::time::Duration`].
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        if let Some(h) = &self.0 {
            h.record(d);
        }
    }

    /// Starts a span recording into this histogram on drop. No clock is
    /// read when the handle is disabled.
    #[inline]
    pub fn span(&self) -> Span {
        match &self.0 {
            Some(h) => Span::recording(Arc::clone(h)),
            None => Span::disabled(),
        }
    }

    /// Snapshot of the underlying histogram (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |h| h.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_metric() {
        let r = Registry::new();
        r.counter("c", "ops").add(1);
        r.counter("c", "ops").add(2);
        assert_eq!(r.snapshot().counter("c.ops"), Some(3));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("c", "x");
        r.gauge("c", "x");
    }

    #[test]
    fn reset_keeps_handles_live() {
        let r = Registry::new();
        let c = r.counter("c", "ops");
        c.add(7);
        r.reset();
        assert_eq!(c.get(), 0);
        c.add(1);
        assert_eq!(r.snapshot().counter("c.ops"), Some(1));
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = Registry::new();
        r.gauge("b", "depth").set(-3);
        r.counter("a", "ops").add(2);
        r.histogram("c", "lat_ns").record_ns(50);
        let snap = r.snapshot();
        let keys: Vec<_> = snap.entries.keys().cloned().collect();
        assert_eq!(keys, vec!["a.ops", "b.depth", "c.lat_ns"]);
        assert_eq!(snap.counter("a.ops"), Some(2));
        assert_eq!(snap.gauge("b.depth"), Some(-3));
        assert_eq!(snap.histogram("c.lat_ns").unwrap().count, 1);
        // Wrong-kind lookups return None rather than panicking.
        assert_eq!(snap.counter("b.depth"), None);
        assert_eq!(snap.gauge("a.ops"), None);
        assert!(snap.histogram("a.ops").is_none());
    }

    #[test]
    fn registry_span_records() {
        let r = Registry::new();
        drop(r.span("client", "read"));
        assert_eq!(r.snapshot().histogram("client.read_ns").unwrap().count, 1);
    }

    #[test]
    fn global_registry_is_shared() {
        let a = Registry::global();
        let b = Registry::global();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
