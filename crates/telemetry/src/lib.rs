//! Metrics and tracing for the Gengar workspace.
//!
//! The paper's claims are quantitative — percentile latencies, per-verb op
//! counts, cache hit rates — so every layer of the stack reports into this
//! crate:
//!
//! - [`Counter`], [`Gauge`], and [`LatencyHistogram`] are lock-free
//!   atomics-based primitives safe to hammer from any number of threads.
//! - [`Registry`] names metrics by `(component, metric)` and hands out
//!   shared handles; [`Registry::global`] is the process-wide instance the
//!   bench harness snapshots.
//! - [`TelemetryConfig`] / [`Telemetry`] thread an on/off switch through
//!   `ServerConfig`/`ClientConfig`/`FabricConfig`; when disabled every
//!   handle is a `None` and instrumentation short-circuits to no-ops.
//! - [`trace`] adds *causal* tracing on top of the aggregates: per-op
//!   [`TraceId`]s propagated client → fabric → server, a [`Tracer`] span
//!   buffer with Chrome/Perfetto export, and a [`FlightRecorder`] that
//!   dumps recent spans when a fault fires.
//!
//! Naming scheme: metrics are keyed `component.metric`, where `component`
//! is the layer (`rdma`, `proxy`, `cache`, `client`, `device`) and
//! `metric` is a snake_case noun, suffixed `_ns` for histograms of
//! nanoseconds (e.g. `rdma.read_ops`, `client.read_ns`). See
//! DESIGN.md § Observability.

pub mod export;
pub mod metrics;
pub mod registry;
pub mod trace;
pub mod window;

pub use export::{
    chrome_trace_json, critical_path_table, fmt_ns, json_escape, json_field_num, json_field_str,
    prometheus_text,
};
pub use metrics::{Counter, Gauge, HistogramSnapshot, LatencyHistogram};
pub use registry::{
    CounterHandle, GaugeHandle, HistogramHandle, MetricSnapshot, Registry, RegistrySnapshot,
};
pub use trace::{
    adopt, current_context, ContextGuard, FlightRecorder, SpanId, SpanRecord, TraceId, TraceMode,
    TraceSpan, Tracer,
};
pub use window::{Window, WindowEntry, WindowRing, WindowSampler};

use std::sync::Arc;

/// Whether telemetry is collected, threaded through the stack's configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Collect metrics when true; all instrumentation no-ops when false.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: true }
    }
}

impl TelemetryConfig {
    /// Telemetry on (the default).
    pub fn enabled() -> Self {
        TelemetryConfig { enabled: true }
    }

    /// Telemetry off: instrumented code paths reduce to an `Option` check.
    pub fn disabled() -> Self {
        TelemetryConfig { enabled: false }
    }

    /// A handle bound to the global registry (or a no-op handle when
    /// disabled).
    pub fn handle(self) -> Telemetry {
        if self.enabled {
            Telemetry::on_global()
        } else {
            Telemetry::off()
        }
    }
}

/// A cheap cloneable capability to record telemetry. Holds the target
/// registry when enabled, nothing when disabled — so disabled-mode
/// instrumentation costs one `Option` discriminant test.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A handle recording into the process-wide [`Registry::global`].
    pub fn on_global() -> Self {
        Telemetry {
            registry: Some(Registry::global()),
        }
    }

    /// A handle recording into `registry` (for tests that want isolation).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Telemetry {
            registry: Some(registry),
        }
    }

    /// A disabled handle; every operation derived from it is a no-op.
    pub fn off() -> Self {
        Telemetry { registry: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The registry behind this handle, if enabled.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// A counter handle for `component.metric`. Resolve once and cache in
    /// the instrumented struct; the handle itself is lock-free.
    pub fn counter(&self, component: &str, metric: &str) -> CounterHandle {
        CounterHandle::new(self.registry.as_ref().map(|r| r.counter(component, metric)))
    }

    /// A gauge handle for `component.metric`.
    pub fn gauge(&self, component: &str, metric: &str) -> GaugeHandle {
        GaugeHandle::new(self.registry.as_ref().map(|r| r.gauge(component, metric)))
    }

    /// A histogram handle for `component.metric`.
    pub fn histogram(&self, component: &str, metric: &str) -> HistogramHandle {
        HistogramHandle::new(
            self.registry
                .as_ref()
                .map(|r| r.histogram(component, metric)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_enabled() {
        assert!(TelemetryConfig::default().enabled);
        assert!(TelemetryConfig::enabled().enabled);
        assert!(!TelemetryConfig::disabled().enabled);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = TelemetryConfig::disabled().handle();
        assert!(!t.is_enabled());
        let c = t.counter("x", "ops");
        c.inc();
        c.add(10);
        let g = t.gauge("x", "depth");
        g.set(5);
        let h = t.histogram("x", "lat_ns");
        h.record_ns(100);
        // Nothing should have reached any registry; the handle has none.
        assert!(t.registry().is_none());
    }

    #[test]
    fn enabled_handle_reaches_registry() {
        let reg = Arc::new(Registry::new());
        let t = Telemetry::with_registry(Arc::clone(&reg));
        t.counter("unit", "ops").add(3);
        t.gauge("unit", "depth").set(-2);
        t.histogram("unit", "lat_ns").record_ns(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("unit.ops"), Some(3));
        assert_eq!(snap.gauge("unit.depth"), Some(-2));
        assert_eq!(snap.histogram("unit.lat_ns").unwrap().count, 1);
    }
}
