//! Telemetry handles for the verbs layer.
//!
//! All metrics live under the `rdma` component (see DESIGN.md §
//! Observability): per-verb op/byte counters and completion-latency
//! histograms, CQ completion/overflow counters and receive-queue counters.
//! The handles are resolved once when the [`crate::Fabric`] is created and
//! shared by every node, QP and CQ on it, so the hot path never touches the
//! registry.

use gengar_telemetry::{CounterHandle, HistogramHandle, TelemetryConfig};

use crate::cq::WcOpcode;

/// Per-verb op count, byte count and completion latency.
#[derive(Debug, Clone, Default)]
pub(crate) struct VerbMetrics {
    pub ops: CounterHandle,
    pub bytes: CounterHandle,
    pub lat_ns: HistogramHandle,
}

/// All metric handles of the verbs layer, resolved once per fabric.
#[derive(Debug, Clone, Default)]
pub(crate) struct FabricMetrics {
    pub send: VerbMetrics,
    pub write: VerbMetrics,
    pub read: VerbMetrics,
    pub cas: VerbMetrics,
    pub faa: VerbMetrics,
    pub flush: VerbMetrics,
    /// Completions with a non-success status.
    pub error_completions: CounterHandle,
    /// Work completions pushed onto any CQ.
    pub cq_completions: CounterHandle,
    /// Completions lost because a CQ was full (each fails its QP).
    pub cq_overflows: CounterHandle,
    /// Receive work requests posted.
    pub recv_posted: CounterHandle,
    /// RNR waits that expired without a receive being posted.
    pub rnr_timeouts: CounterHandle,
    /// Doorbells rung: one per posted WR list, batched or not.
    pub doorbells: CounterHandle,
    /// Send-side work requests posted across all doorbells.
    pub batched_ops: CounterHandle,
    /// Doorbells avoided by batching (list length minus one, summed).
    pub doorbells_saved: CounterHandle,
    /// Distribution of posted-list lengths (sample value = WRs per doorbell).
    pub batch_size: HistogramHandle,
    /// WRs lost by the QoS admission backstop (over-burst tenants); each
    /// fails its QP with a transport error.
    pub qos_dropped: CounterHandle,
}

impl FabricMetrics {
    /// Resolves every handle against `config`'s registry (all no-ops when
    /// telemetry is disabled).
    pub fn new(config: TelemetryConfig) -> Self {
        let tel = config.handle();
        let verb = |name: &str| VerbMetrics {
            ops: tel.counter("rdma", &format!("{name}_ops")),
            bytes: tel.counter("rdma", &format!("{name}_bytes")),
            lat_ns: tel.histogram("rdma", &format!("{name}_ns")),
        };
        FabricMetrics {
            send: verb("send"),
            write: verb("write"),
            read: verb("read"),
            cas: verb("cas"),
            faa: verb("faa"),
            flush: verb("flush"),
            error_completions: tel.counter("rdma", "error_completions"),
            cq_completions: tel.counter("rdma", "cq_completions"),
            cq_overflows: tel.counter("rdma", "cq_overflows"),
            recv_posted: tel.counter("rdma", "recv_posted"),
            rnr_timeouts: tel.counter("rdma", "rnr_timeouts"),
            doorbells: tel.counter("rdma", "doorbells"),
            batched_ops: tel.counter("rdma", "batched_ops"),
            doorbells_saved: tel.counter("rdma", "doorbells_saved"),
            batch_size: tel.histogram("rdma", "batch_size"),
            qos_dropped: tel.counter("rdma", "qos_dropped"),
        }
    }

    /// The verb bundle for a sender-side opcode.
    pub fn verb(&self, opcode: WcOpcode) -> &VerbMetrics {
        match opcode {
            WcOpcode::Send => &self.send,
            WcOpcode::RdmaWrite => &self.write,
            WcOpcode::RdmaRead => &self.read,
            WcOpcode::CompSwap => &self.cas,
            WcOpcode::FetchAdd => &self.faa,
            WcOpcode::Flush => &self.flush,
            // Receive-side opcodes never originate a send-side WR; count
            // them against the send bundle rather than panicking.
            WcOpcode::Recv | WcOpcode::RecvRdmaWithImm => &self.send,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_are_inert() {
        let m = FabricMetrics::new(TelemetryConfig::disabled());
        m.verb(WcOpcode::RdmaRead).ops.inc();
        m.error_completions.inc();
        assert_eq!(m.read.ops.get(), 0);
    }

    #[test]
    fn verb_mapping_covers_sender_opcodes() {
        let m = FabricMetrics::new(TelemetryConfig::disabled());
        // Each sender opcode maps to a distinct bundle; receive opcodes
        // fall back to `send` without panicking.
        for op in [
            WcOpcode::Send,
            WcOpcode::RdmaWrite,
            WcOpcode::RdmaRead,
            WcOpcode::CompSwap,
            WcOpcode::FetchAdd,
            WcOpcode::Flush,
            WcOpcode::Recv,
            WcOpcode::RecvRdmaWithImm,
        ] {
            m.verb(op).ops.inc();
        }
    }
}
