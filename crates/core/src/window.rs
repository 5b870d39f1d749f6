//! The per-connection outstanding-op window.
//!
//! A window turns a list of independent verbs into pipelined doorbell
//! batches: up to `depth` work requests are posted with one
//! [`gengar_rdma::QueuePair::post_send_list`] doorbell and their
//! completions drain out of order, so the wire/responder round trip is
//! amortised over the whole window instead of being paid per operation.
//! Retry integration lives one layer up in the client: the per-slot
//! results returned here let it replay only the slots that did not
//! complete (see DESIGN.md "Pipelining & batching").

use gengar_rdma::{Endpoint, PendingOps, SendOp};
use gengar_telemetry::{GaugeHandle, HistogramHandle, TelemetryConfig};

use crate::error::GengarError;

/// A fixed-depth issue window over one connection's data endpoint.
///
/// The window itself is stateless across submissions (no slots survive a
/// `post`), which is what makes reconnects trivial: a new endpoint can
/// be swapped in under the same window.
#[derive(Debug)]
pub struct OpWindow {
    depth: u32,
    /// Peak number of operations in flight (`window.occupancy`). Recorded
    /// as a high-water mark so a snapshot taken between submissions still
    /// shows how full the window got.
    occupancy: GaugeHandle,
    /// Distribution of submitted batch sizes (`window.batch_size`).
    batch_size: HistogramHandle,
}

impl OpWindow {
    /// Creates a window of `depth` outstanding operations (clamped to at
    /// least 1, where every submission degenerates to the serial path).
    pub fn new(depth: u32, telemetry: TelemetryConfig) -> Self {
        let tel = telemetry.handle();
        OpWindow {
            depth: depth.max(1),
            occupancy: tel.gauge("window", "occupancy"),
            batch_size: tel.histogram("window", "batch_size"),
        }
    }

    /// Configured window depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Posts one doorbell batch of at most `depth` operations through `ep`
    /// without waiting. The caller drives the returned [`PendingOps`] via
    /// [`Endpoint::poll_pending`] — this is the issue half of the
    /// completion-driven engine, letting one thread keep windows on many
    /// connections full at the same time.
    ///
    /// # Errors
    ///
    /// [`GengarError::ProtocolViolation`] if `ops` exceeds the window
    /// depth (callers chunk; one seqlock read's three READs always fit);
    /// otherwise failures of the post itself.
    pub fn post<I>(&self, ep: &Endpoint, ops: I) -> Result<PendingOps, GengarError>
    where
        I: IntoIterator<Item = SendOp>,
        I::IntoIter: ExactSizeIterator,
    {
        let ops = ops.into_iter();
        if ops.len() > self.depth.max(3) as usize {
            return Err(GengarError::ProtocolViolation(
                "doorbell batch exceeds window depth",
            ));
        }
        self.occupancy.record_max(ops.len() as i64);
        self.batch_size.record_ns(ops.len() as u64);
        let tracer = gengar_telemetry::Tracer::global();
        let mut chunk_span = tracer.span("window.submit");
        chunk_span.set_detail(ops.len() as u64);
        Ok(ep.post_many(ops)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_clamped_to_one() {
        let w = OpWindow::new(0, TelemetryConfig::disabled());
        assert_eq!(w.depth(), 1);
        assert_eq!(OpWindow::new(16, TelemetryConfig::disabled()).depth(), 16);
    }
}
