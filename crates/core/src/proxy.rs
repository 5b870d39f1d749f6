//! The proxy write protocol (client side).
//!
//! RDMA writes straight to remote NVM pay the NVM write/persist cost on the
//! critical path. Gengar redesigns the write protocol around a *proxy*:
//! the client places the write record into a per-client staging ring in the
//! server's ADR-protected DRAM with a single WRITE_WITH_IMM (durable on
//! completion), and the server's proxy thread drains records to NVM in the
//! background. Client-visible write latency drops from
//! `WRITE + flush-RPC + NVM persist` to one DRAM-speed round trip.
//!
//! Ring layout: ring `i` occupies `[i * ring_bytes, (i+1) * ring_bytes)` of
//! the staging region; each ring has [`SLOTS_PER_RING`] fixed slots of
//! `RECORD_HEADER + slot_payload` bytes. The immediate carries the slot
//! index. Flow control: the client tracks in-flight slots and consults the
//! server's drained-watermark word (one-sided READ of the control region)
//! when the ring is full.
//!
//! **Replication fan-out.** With primary–backup replication the writer
//! carries an optional [`MirrorLane`]: a second ring, on the primary's
//! backup server, with identical geometry and lock-stepped cursors. Every
//! record is gathered once in scratch and shipped twice — the mirror WR
//! rides the same doorbell window, so the replication tax is one extra WR
//! per lane, not an extra round trip — and a record is only acked once
//! *both* lanes completed. Slot reuse waits for both drained watermarks,
//! so at any instant every settled record is either already durable on
//! both sides or still intact in the mirror ring, which is exactly what
//! the backup replays at promotion. A mirror-lane failure drops the lane
//! and acks on the primary alone (availability over redundancy; the
//! client re-establishes a mirror in the background), and after a
//! failover the lane roles invert: the mirror becomes the only target.

use std::collections::VecDeque;
use std::time::Instant;

use gengar_rdma::{Endpoint, MemoryRegion, Payload, PendingOps, RKey, RemoteAddr, SendOp, Sge};
use gengar_telemetry::{CounterHandle, GaugeHandle, TelemetryConfig, Tracer};

use crate::error::GengarError;
use crate::layout::{checksum, encode_record_header, RECORD_HEADER};

/// Slots per staging ring.
pub const SLOTS_PER_RING: u32 = 16;

/// Ring geometry shared between client and server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingLayout {
    /// Payload capacity of one slot.
    pub slot_payload: u64,
    /// Slots per ring.
    pub slots: u32,
}

impl RingLayout {
    /// Derives the layout from a configured per-ring byte budget.
    pub fn for_ring_bytes(ring_bytes: u64) -> Self {
        let slot_bytes = (ring_bytes / SLOTS_PER_RING as u64).max(RECORD_HEADER + 64);
        RingLayout {
            slot_payload: slot_bytes - RECORD_HEADER,
            slots: SLOTS_PER_RING,
        }
    }

    /// Bytes of one slot (header + payload).
    pub fn slot_bytes(&self) -> u64 {
        RECORD_HEADER + self.slot_payload
    }

    /// Bytes of one ring.
    pub fn ring_bytes(&self) -> u64 {
        self.slot_bytes() * self.slots as u64
    }

    /// Offset of slot `idx` within the ring.
    pub fn slot_offset(&self, idx: u32) -> u64 {
        self.slot_bytes() * idx as u64
    }
}

/// Client side of a mirror lane: the backup half of the staged-write
/// fan-out. Built from a [`crate::server::MirrorChannel`] plus the rkeys
/// the client already holds from the backup's mount.
#[derive(Debug)]
pub struct MirrorLane {
    /// Dedicated proxy queue pair to the backup server.
    pub ep: Endpoint,
    /// The backup's staging-region rkey.
    pub staging_rkey: RKey,
    /// The backup's control-region rkey (mirror drained watermark).
    pub ctl_rkey: RKey,
    /// Byte offset of the mirror ring within the backup's staging region.
    pub ring_offset: u64,
    /// The mirror ring's client id on the backup.
    pub client_id: u32,
    /// Replica epoch stamped into every record staged under this lane.
    pub epoch: u32,
    /// Highest sequence number that predates this lane: records at or
    /// below it were never mirrored, so the mirror watermark does not
    /// gate their retirement. Zero for a lane established at connect
    /// time; `next_seq - 1` for one re-established mid-stream.
    pub floor: u64,
}

/// A staged-write doorbell batch in flight: posted with
/// [`StagingWriter::stage_batch_begin`], polled with
/// [`StagingWriter::poll_flight`] and retired with
/// [`StagingWriter::stage_batch_finish`]. While a flight is open no other
/// staging may run on the same writer (the ring cursors are reserved for
/// it); the concurrent issue engine keeps one open flight per group.
#[derive(Debug)]
pub struct StagedFlight {
    /// Primary-lane completions (`None` after a failover: the primary is
    /// gone and the mirror lane is the only target).
    pending: Option<PendingOps>,
    /// Mirror-lane completions (`None` when unreplicated).
    mirror_pending: Option<PendingOps>,
    base_seq: u64,
    base_slot: u32,
    n: usize,
}

impl StagedFlight {
    /// Number of records in the flight.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for an empty flight.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// What a settled flight staged ([`StagingWriter::stage_batch_finish`]):
/// its first `count` records, under the seqs from `first` on, and the
/// error of the first record that failed. Failures are a suffix: every
/// record behind a failed one failed too.
#[derive(Debug)]
pub struct Landed {
    pub first: u64,
    pub count: usize,
    pub failure: Option<GengarError>,
}

impl Landed {
    /// Record `i`'s outcome: its seq, or the flight's failure.
    pub fn outcome(&self, i: usize) -> Result<u64, GengarError> {
        match &self.failure {
            Some(e) if i >= self.count => Err(e.clone()),
            _ => Ok(self.first + i as u64),
        }
    }
}

/// Client-side handle to its staging ring.
///
/// Not thread-safe: each client thread owns its own ring, mirroring how
/// each Gengar client owns its connection state.
#[derive(Debug)]
pub struct StagingWriter {
    /// Dedicated proxy queue pair to the server.
    ep: Endpoint,
    staging_rkey: RKey,
    ctl_rkey: RKey,
    ring_offset: u64,
    layout: RingLayout,
    client_id: u32,
    /// Local scratch MR used to gather records (and land watermark reads).
    scratch: std::sync::Arc<MemoryRegion>,
    /// Offset within the scratch MR reserved for this writer
    /// (`slot_bytes + 16` bytes: record staging + primary and mirror
    /// watermark landing pads).
    scratch_off: u64,
    next_slot: u32,
    next_seq: u64,
    /// Whether a record was ever posted to the primary ring, landed or
    /// not. Until one is, the ring holds nothing of this tenure.
    posted: bool,
    in_flight: VecDeque<u64>, // sequence numbers, oldest first
    drained: u64,
    /// The replication fan-out target, when this writer is mirrored.
    mirror: Option<MirrorLane>,
    /// Last mirror drained watermark read (meaningless without a mirror).
    mirror_drained: u64,
    /// After a failover the primary lane is dead: records post to the
    /// mirror alone and the mirror watermark is the only retire gate.
    primary_down: bool,
    /// Set when a mirror WR failed and the lane was dropped; the client
    /// harvests it to trigger background re-mirroring.
    mirror_lost: bool,
    /// Compact QoS tenant tag stamped into every record header so the
    /// server drain can account durable bytes per tenant (0 = QoS off).
    tenant_tag: u32,
    /// `proxy.*` handles: in-flight ring occupancy, staged-record count
    /// and ring-full stalls.
    occupancy: GaugeHandle,
    staged: CounterHandle,
    ring_full_waits: CounterHandle,
    /// `replica.*` handles: records staged but not yet drained by the
    /// mirror lane, and mirror lanes dropped after a failed WR or
    /// watermark read. Both feed the replication health component.
    mirror_lag: GaugeHandle,
    mirror_losses: CounterHandle,
}

impl StagingWriter {
    /// Creates a writer for ring `client_id` at `ring_offset` of the
    /// staging region.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ep: Endpoint,
        staging_rkey: RKey,
        ctl_rkey: RKey,
        ring_offset: u64,
        layout: RingLayout,
        client_id: u32,
        scratch: std::sync::Arc<MemoryRegion>,
        scratch_off: u64,
        telemetry: TelemetryConfig,
    ) -> Self {
        let tel = telemetry.handle();
        StagingWriter {
            ep,
            staging_rkey,
            ctl_rkey,
            ring_offset,
            layout,
            client_id,
            scratch,
            scratch_off,
            next_slot: 0,
            next_seq: 1,
            posted: false,
            in_flight: VecDeque::new(),
            drained: 0,
            mirror: None,
            mirror_drained: 0,
            primary_down: false,
            mirror_lost: false,
            tenant_tag: 0,
            occupancy: tel.gauge("proxy", "ring_occupancy"),
            staged: tel.counter("proxy", "staged_records"),
            ring_full_waits: tel.counter("proxy", "ring_full_waits"),
            mirror_lag: tel.gauge("replica", "mirror_lag"),
            mirror_losses: tel.counter("replica", "mirror_losses"),
        }
    }

    /// Largest payload a single staged write can carry.
    pub fn max_payload(&self) -> u64 {
        self.layout.slot_payload
    }

    /// The ring geometry this writer stages into.
    pub fn layout(&self) -> RingLayout {
        self.layout
    }

    /// The ring (client) id this writer stages into.
    pub fn client_id(&self) -> u32 {
        self.client_id
    }

    /// Sequence numbers staged but not yet observed drained, oldest first.
    pub fn in_flight(&self) -> impl Iterator<Item = u64> + '_ {
        self.in_flight.iter().copied()
    }

    /// Sets the QoS tenant tag stamped into subsequent record headers.
    pub fn set_tenant_tag(&mut self, tag: u32) {
        self.tenant_tag = tag;
    }

    /// Attaches (or replaces) the mirror lane. Subsequent records are
    /// stamped with the lane's epoch and fanned out to both rings.
    pub fn set_mirror(&mut self, mut lane: MirrorLane) {
        // Records staged before this lane existed were never mirrored:
        // the mirror watermark must not gate their retirement.
        lane.floor = self.next_seq.saturating_sub(1);
        self.mirror_drained = 0;
        self.mirror_lost = false;
        self.mirror = Some(lane);
        self.mirror_lag.set(0);
    }

    /// Whether a mirror lane is currently attached.
    pub fn has_mirror(&self) -> bool {
        self.mirror.is_some()
    }

    /// The attached mirror lane's replica epoch, if any.
    pub fn mirror_epoch(&self) -> Option<u32> {
        self.mirror.as_ref().map(|m| m.epoch)
    }

    /// The attached mirror lane's ring id on the backup, if any.
    pub fn mirror_client_id(&self) -> Option<u32> {
        self.mirror.as_ref().map(|m| m.client_id)
    }

    /// Switches the writer to failover mode: the primary lane is dead,
    /// records post to the mirror alone, and the mirror watermark is the
    /// only retire gate.
    ///
    /// # Errors
    ///
    /// [`gengar_rdma::RdmaError::NotConnected`] when no mirror lane is
    /// attached — an unreplicated writer has nowhere to fail over to.
    pub fn fail_over_to_mirror(&mut self) -> Result<(), GengarError> {
        if self.mirror.is_none() {
            return Err(GengarError::Rdma(gengar_rdma::RdmaError::NotConnected));
        }
        self.primary_down = true;
        Ok(())
    }

    /// Harvests (and clears) the mirror-lost flag. Set when a mirror WR
    /// failed and the lane was dropped mid-stream; the client uses it to
    /// re-establish a mirror in the background.
    pub fn take_mirror_lost(&mut self) -> bool {
        std::mem::take(&mut self.mirror_lost)
    }

    /// Drops the mirror lane after a failed WR or watermark read and
    /// records the loss for replication health.
    fn lose_mirror(&mut self) {
        self.mirror = None;
        self.mirror_lost = true;
        self.mirror_losses.inc();
        self.mirror_lag.set(0);
    }

    /// Publishes how many records the mirror lane still owes (staged but
    /// not mirror-drained) — the replication health lag signal.
    fn publish_mirror_lag(&self) {
        if let Some(m) = &self.mirror {
            let lag = (self.next_seq - 1).saturating_sub(self.mirror_drained.max(m.floor));
            self.mirror_lag.set(lag.min(i64::MAX as u64) as i64);
        }
    }

    /// The epoch stamped into record headers (0 = unreplicated).
    fn record_epoch(&self) -> u32 {
        self.mirror.as_ref().map_or(0, |m| m.epoch)
    }

    /// Highest sequence number every active lane has drained: the retire
    /// gate for slot reuse. A lane's watermark only constrains records it
    /// actually carried (the mirror's `floor` covers its blind spot).
    fn effective_drained(&self) -> u64 {
        let mut eff = u64::MAX;
        if !self.primary_down {
            eff = eff.min(self.drained);
        }
        if let Some(m) = &self.mirror {
            eff = eff.min(self.mirror_drained.max(m.floor));
        }
        if eff == u64::MAX {
            // No lane at all (unreplicated writer mid-failover): nothing
            // gates, but nothing drains either — report primary progress.
            eff = self.drained;
        }
        eff
    }

    /// Sequence number the next staged write will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether this writer ever posted a record to its primary ring. A
    /// ring that never saw one holds nothing to retire, so its id can go
    /// straight back to the server's free list.
    pub fn has_posted(&self) -> bool {
        self.posted
    }

    /// Highest sequence number known drained by every active lane (from
    /// the last watermark read).
    pub fn known_drained(&self) -> u64 {
        self.effective_drained()
    }

    /// Stages a durable write of `data` to raw global address `addr_raw`:
    /// a blocking flight of one, gathered in the writer's own scratch lane.
    /// Returns the record's sequence number. Durable when this returns.
    /// It never waits for ring room: a reconnecting client replays at most
    /// a ring's worth of records into a fresh ring with it.
    ///
    /// # Errors
    ///
    /// [`GengarError::ObjectTooLarge`] if `data` exceeds the slot payload;
    /// [`GengarError::ProtocolViolation`] if the ring is full; transport
    /// failures as [`GengarError::Rdma`].
    pub fn stage_write(&mut self, addr_raw: u64, data: &[u8]) -> Result<u64, GengarError> {
        let mut flight = self.stage_batch_begin([(addr_raw, data, self.scratch_off)])?;
        while !self.poll_flight(&mut flight) {
            if let Some(wake) = self.flight_done_wake(&flight) {
                gengar_hybridmem::latency::spin_until(wake);
            }
        }
        self.stage_batch_finish(flight).outcome(0)
    }

    /// Slots currently free in the ring (as of the last watermark read).
    /// [`StagingWriter::stage_batch_begin`] requires room for the whole
    /// batch; call [`StagingWriter::refresh_drained`] to retire slots.
    pub fn ring_room(&self) -> usize {
        self.layout.slots as usize - self.in_flight.len()
    }

    /// The sequence number that must drain before `n` more records fit the
    /// ring; `None` when they fit by the last watermark read.
    pub fn drained_for_room(&self, n: usize) -> Option<u64> {
        let short = (self.in_flight.len() + n).saturating_sub(self.layout.slots as usize);
        short.checked_sub(1).map(|i| self.in_flight[i])
    }

    /// Counts one ring-full stall (`proxy.ring_full_waits`). The issue
    /// engine calls this when its first re-read of the watermark still
    /// leaves the ring too full for a flight; a full *local* view that the
    /// re-read clears is not a wait.
    pub fn note_ring_full(&self) {
        self.ring_full_waits.inc();
    }

    /// Posts a window of staged writes as one doorbell without waiting
    /// for completions. Each item is `(addr_raw, data, gather_off)`: the
    /// record is gathered into its own scratch lane at `gather_off`
    /// (caller-owned, inside this writer's scratch MR) and the whole list
    /// goes out as a single WRITE_WITH_IMM batch — this is the only place
    /// a record header is encoded. The ring cursors stay put until
    /// [`StagingWriter::stage_batch_finish`] learns how many leading
    /// records of the flight made it; until then no other staging may run
    /// on this writer.
    ///
    /// # Errors
    ///
    /// [`GengarError::ObjectTooLarge`] if any payload exceeds the slot
    /// capacity (nothing staged); [`GengarError::ProtocolViolation`] if
    /// the ring lacks room (callers check [`StagingWriter::ring_room`]);
    /// transport failures of the post itself as [`GengarError::Rdma`]
    /// (nothing staged).
    pub fn stage_batch_begin<'d, I>(&mut self, items: I) -> Result<StagedFlight, GengarError>
    where
        I: IntoIterator<Item = (u64, &'d [u8], u64)>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let items = items.into_iter();
        let n = items.len();
        debug_assert!(n <= self.layout.slots as usize);
        for (_, data, _) in items.clone() {
            if data.len() as u64 > self.layout.slot_payload {
                return Err(GengarError::ObjectTooLarge {
                    requested: data.len() as u64,
                    max: self.layout.slot_payload,
                });
            }
        }
        if self.ring_room() < n {
            return Err(GengarError::ProtocolViolation(
                "staging ring lacks room for the batch",
            ));
        }
        // Staging runs on the issuing client thread, so the op's trace
        // context is live here; the trace id also rides the record header
        // into the ring so the server's drain can join the same trace.
        let tracer = Tracer::global();
        let mut stage_span = tracer.span("proxy.stage_batch");
        stage_span.set_detail(n as u64);
        let trace = gengar_telemetry::current_context().0 .0;

        // Gather every record into its lane (the scratch buffer is this
        // client's own memory: plain copies), then post one WRITE_WITH_IMM
        // per record from there, on each lane.
        for (i, (addr_raw, data, gather_off)) in items.clone().enumerate() {
            let seq = self.next_seq + i as u64;
            let mut header = [0u8; RECORD_HEADER as usize];
            encode_record_header(
                &mut header,
                seq,
                addr_raw,
                data.len() as u64,
                checksum(data),
                trace,
                self.tenant_tag,
                self.record_epoch(),
            );
            let region = self.scratch.region();
            region.copy_in(gather_off, &header)?;
            region.copy_in(gather_off + RECORD_HEADER, data)?;
        }
        // The WRITE of each gathered record to its slot of the ring at
        // `ring_offset` under `rkey`.
        let (lkey, layout, next_slot) = (self.scratch.lkey(), self.layout, self.next_slot);
        let records = |rkey: RKey, ring_offset: u64| {
            items
                .clone()
                .enumerate()
                .map(move |(i, (_, data, gather_off))| {
                    let slot = (next_slot + i as u32) % layout.slots;
                    let len = RECORD_HEADER + data.len() as u64;
                    SendOp::Write {
                        payload: Payload::Sge(Sge::new(lkey, gather_off, len)),
                        remote: RemoteAddr::new(rkey, ring_offset + layout.slot_offset(slot)),
                        imm: Some(slot),
                    }
                })
        };
        let pending = if self.primary_down {
            None
        } else {
            self.posted = true;
            Some(
                self.ep
                    .post_many(records(self.staging_rkey, self.ring_offset))?,
            )
        };
        // The mirror WRs reuse the gathered records verbatim; they ride the
        // same doorbell window on the lane's own QP.
        let mirror_pending = match &self.mirror {
            Some(m) => match m.ep.post_many(records(m.staging_rkey, m.ring_offset)) {
                Ok(p) => Some(p),
                Err(e) => {
                    if self.primary_down || pending.is_none() {
                        return Err(e.into());
                    }
                    // Mirror doorbell failed: drop the lane and let the
                    // flight settle on the primary alone.
                    self.lose_mirror();
                    None
                }
            },
            None => {
                if self.primary_down {
                    return Err(GengarError::Rdma(gengar_rdma::RdmaError::NotConnected));
                }
                None
            }
        };
        Ok(StagedFlight {
            pending,
            mirror_pending,
            base_seq: self.next_seq,
            base_slot: self.next_slot,
            n,
        })
    }

    /// One non-blocking harvest pass over a flight's completions (both
    /// lanes). Returns `true` once every record has an outcome.
    pub fn poll_flight(&mut self, flight: &mut StagedFlight) -> bool {
        let mut done = true;
        if let Some(p) = &mut flight.pending {
            done &= self.ep.poll_pending(p);
        }
        match (&mut flight.mirror_pending, &self.mirror) {
            (Some(p), Some(m)) => done &= m.ep.poll_pending(p),
            // The lane was shed while this flight was open (a mirror WR or
            // watermark-read failure dropped `self.mirror`): the endpoint
            // that could harvest these completions is gone. Abandon them —
            // the primary lane stays authoritative (every shed path keeps
            // it; only a failover removes it, and a failover flight's
            // mirror is never shed) — so the flight can settle instead of
            // never reporting done.
            (mp @ Some(_), None) => *mp = None,
            (None, _) => {}
        }
        done
    }

    /// When a still-pending flight is expected to be *fully* harvestable;
    /// `None` once it is done. Flights settle as a unit
    /// ([`StagingWriter::stage_batch_finish`]), so waiters sleep until
    /// this instead of waking per staggered completion. With a mirror
    /// lane the flight is done when the *slower* lane is.
    pub fn flight_done_wake(&self, flight: &StagedFlight) -> Option<Instant> {
        let a = flight
            .pending
            .as_ref()
            .and_then(|p| self.ep.pending_done_wake(p));
        let b = match (&flight.mirror_pending, &self.mirror) {
            (Some(p), Some(m)) => m.ep.pending_done_wake(p),
            _ => None,
        };
        match (a, b) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        }
    }

    /// Retires a completed flight: advances the ring cursors past the
    /// records that landed and says which did; a record that landed is
    /// durably in its slot.
    ///
    /// The flight is one doorbell on one RC queue pair, so its failures
    /// are a suffix: the first failed WR moves the QP to error and every
    /// later one is flushed. The cursors advance by the count of leading
    /// successes; the failed records never occupied their slots, and a
    /// retry reuses them with fresh sequence numbers.
    ///
    /// # Panics
    ///
    /// Debug-asserts the flight was opened by this writer and is done,
    /// and that no success follows a failure.
    pub fn stage_batch_finish(&mut self, flight: StagedFlight) -> Landed {
        debug_assert!(flight.pending.as_ref().is_none_or(|p| p.is_done()));
        debug_assert!(flight.mirror_pending.as_ref().is_none_or(|p| p.is_done()));
        debug_assert_eq!(flight.base_seq, self.next_seq);
        debug_assert_eq!(flight.base_slot, self.next_slot);
        // The authoritative lane is the primary; after a failover it is
        // the mirror. The other lane's failures never fail a record —
        // a dead mirror drops the lane (ack on primary alone), and the
        // ack rule holds because a record only reports `Ok` once every
        // lane that was posted has completed (the flight settles as a
        // unit across both lanes).
        let completions = match &flight.pending {
            Some(p) => {
                let mirror = flight.mirror_pending.as_ref();
                if mirror.is_some_and(|m| m.first_error().is_some()) {
                    self.lose_mirror();
                }
                p
            }
            None => flight
                .mirror_pending
                .as_ref()
                .expect("failover flight carries a mirror lane"),
        };
        let landed = completions.results().take_while(Result::is_ok).count();
        debug_assert!(
            completions.results().skip(landed).all(|r| r.is_err()),
            "a staged record succeeded behind a failed one"
        );
        let failure = completions.first_error().map(GengarError::Rdma);
        self.in_flight
            .extend((0..landed as u64).map(|i| self.next_seq + i));
        self.staged.add(landed as u64);
        let first = self.next_seq;
        self.next_seq += landed as u64;
        self.next_slot = (self.next_slot + landed as u32) % self.layout.slots;
        self.occupancy.set(self.in_flight.len() as i64);
        Landed {
            first,
            count: landed,
            failure,
        }
    }

    /// Reads the drained watermark of every active lane (one-sided READ
    /// of each control region) and retires in-flight records every lane
    /// has covered. A slot is only reusable once both the primary drain
    /// *and* the mirror drain are past it — that is what makes every
    /// settled record recoverable from the backup at any kill point.
    ///
    /// # Errors
    ///
    /// Transport failures as [`GengarError::Rdma`].
    pub fn refresh_drained(&mut self) -> Result<u64, GengarError> {
        let pad = self.scratch_off + self.layout.slot_bytes();
        if !self.primary_down {
            self.ep.read(
                Sge::new(self.scratch.lkey(), pad, 8),
                RemoteAddr::new(self.ctl_rkey, self.client_id as u64 * 8),
            )?;
            let mut word = [0u8; 8];
            self.scratch.region().copy_out(pad, &mut word)?;
            self.drained = u64::from_le_bytes(word);
        }
        if let Some(m) = &self.mirror {
            let mpad = pad + 8;
            let read = m.ep.read(
                Sge::new(self.scratch.lkey(), mpad, 8),
                RemoteAddr::new(m.ctl_rkey, m.client_id as u64 * 8),
            );
            match read {
                Ok(_) => {
                    let mut word = [0u8; 8];
                    self.scratch.region().copy_out(mpad, &mut word)?;
                    self.mirror_drained = u64::from_le_bytes(word);
                }
                Err(e) => {
                    if self.primary_down {
                        return Err(e.into());
                    }
                    // Watermark read failures count as a dead mirror too:
                    // a wedged lane must not stall the primary's ring.
                    self.lose_mirror();
                }
            }
        }
        let effective = self.effective_drained();
        while self.in_flight.front().is_some_and(|&seq| seq <= effective) {
            self.in_flight.pop_front();
        }
        self.occupancy.set(self.in_flight.len() as i64);
        self.publish_mirror_lag();
        Ok(effective)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind, MemRegion};
    use gengar_rdma::{Access, Fabric, FabricConfig, ProtectionDomain, QpOptions, RdmaNode};

    use super::*;
    use crate::layout::decode_record_header;

    /// A bare staging target: a node exposing a ring's worth of staging
    /// memory and a drained-watermark word, with one receive armed per
    /// slot. Returns the writer-side endpoint, the target-side endpoint
    /// (kept alive by the caller), the staging memory and the two rkeys.
    fn ring_target(
        fabric: &Arc<Fabric>,
        writer: (&Arc<RdmaNode>, &ProtectionDomain),
        layout: RingLayout,
    ) -> (Endpoint, Endpoint, MemRegion, RKey, RKey) {
        let node = fabric.add_node();
        let pd = node.alloc_pd();
        let dram = |bytes| {
            let dev = MemDevice::new(0, DeviceProfile::instant(MemKind::Dram), bytes).unwrap();
            MemRegion::whole(Arc::new(dev))
        };
        let staging = dram(layout.ring_bytes());
        let staging_mr = pd
            .reg_mr(staging.clone(), Access::LOCAL_WRITE | Access::REMOTE_WRITE)
            .unwrap();
        let ctl_mr = pd
            .reg_mr(dram(64), Access::LOCAL_WRITE | Access::REMOTE_READ)
            .unwrap();
        let (ep, target_ep) = Endpoint::pair(writer, (&node, &pd), QpOptions::default()).unwrap();
        for _ in 0..layout.slots {
            target_ep
                .post_recv(Sge::new(staging_mr.lkey(), 0, 0))
                .unwrap();
        }
        (ep, target_ep, staging, staging_mr.rkey(), ctl_mr.rkey())
    }

    /// The blocking `stage_write` is a flight of one, so both entry
    /// points must leave byte-identical slots (header, checksum, epoch,
    /// tenant tag, payload) on the primary ring and on the mirror ring.
    #[test]
    fn stage_write_and_a_flight_of_one_fill_identical_slots() {
        let fabric = Fabric::new(FabricConfig::instant());
        let layout = RingLayout::for_ring_bytes(SLOTS_PER_RING as u64 * 256);
        let lane = layout.slot_bytes() + 16;
        let (addr, data) = (0x0001_0000_0000_4000u64, [0xC3u8; 100]);
        for mirrored in [false, true] {
            let mut slots = Vec::new();
            for blocking in [true, false] {
                // Identical writers, each with its own ring(s), stage the
                // same record as seq 1 into slot 0.
                let node = fabric.add_node();
                let pd = node.alloc_pd();
                let scratch_dev = MemDevice::new(
                    0,
                    DeviceProfile::instant(MemKind::Dram),
                    lane + layout.slot_bytes(),
                )
                .unwrap();
                let scratch = pd
                    .reg_mr(MemRegion::whole(Arc::new(scratch_dev)), Access::all())
                    .unwrap();
                let (ep, _primary_ep, primary, staging_rkey, ctl_rkey) =
                    ring_target(&fabric, (&node, &pd), layout);
                let mut writer = StagingWriter::new(
                    ep,
                    staging_rkey,
                    ctl_rkey,
                    0,
                    layout,
                    3,
                    scratch,
                    0,
                    TelemetryConfig::disabled(),
                );
                writer.set_tenant_tag(7);
                let mirror = mirrored.then(|| {
                    let (ep, target_ep, staging, staging_rkey, ctl_rkey) =
                        ring_target(&fabric, (&node, &pd), layout);
                    writer.set_mirror(MirrorLane {
                        ep,
                        staging_rkey,
                        ctl_rkey,
                        ring_offset: 0,
                        client_id: 3,
                        epoch: 9,
                        floor: 0,
                    });
                    (target_ep, staging)
                });
                let seq = if blocking {
                    writer.stage_write(addr, &data).unwrap()
                } else {
                    let mut flight = writer.stage_batch_begin([(addr, &data[..], lane)]).unwrap();
                    while !writer.poll_flight(&mut flight) {}
                    writer.stage_batch_finish(flight).outcome(0).unwrap()
                };
                assert_eq!(seq, 1);
                assert_eq!(writer.has_mirror(), mirrored, "mirror lane was shed");
                let slot_of = |ring: &MemRegion| {
                    let mut slot = vec![0u8; layout.slot_bytes() as usize];
                    ring.read(0, &mut slot).unwrap();
                    slot
                };
                slots.push((slot_of(&primary), mirror.map(|(_ep, ring)| slot_of(&ring))));
            }
            assert_eq!(slots[0], slots[1], "mirrored={mirrored}");
            let (slot, mirror_slot) = &slots[0];
            let hdr = decode_record_header(slot);
            assert_eq!((hdr.seq, hdr.addr, hdr.len), (1, addr, data.len() as u64));
            assert_eq!(hdr.checksum, checksum(&data));
            assert_eq!(hdr.tenant, 7);
            assert_eq!(hdr.epoch, if mirrored { 9 } else { 0 });
            let payload = RECORD_HEADER as usize..RECORD_HEADER as usize + data.len();
            assert_eq!(slot[payload], data);
            if let Some(mirror_slot) = mirror_slot {
                assert_eq!(mirror_slot, slot, "mirror ring must carry the same record");
            }
        }
    }

    /// A record lost in the middle of a flight fails the rest of it (RC
    /// flushes the WRs behind it): the ring advances by the two leading
    /// successes only, and the lost record's slot stays empty for the
    /// retry.
    #[test]
    fn a_lost_record_advances_the_ring_by_the_leading_successes() {
        let plane = gengar_rdma::FaultPlane::new(5);
        plane.add_rule(gengar_rdma::FaultRule::drop_op().at_ops(vec![3]));
        let mut config = FabricConfig::instant();
        config.faults = Some(Arc::new(plane));
        let fabric = Fabric::new(config);
        let layout = RingLayout::for_ring_bytes(SLOTS_PER_RING as u64 * 256);
        let node = fabric.add_node();
        let pd = node.alloc_pd();
        let scratch_dev = MemDevice::new(
            0,
            DeviceProfile::instant(MemKind::Dram),
            5 * layout.slot_bytes(),
        )
        .unwrap();
        let scratch = pd
            .reg_mr(MemRegion::whole(Arc::new(scratch_dev)), Access::all())
            .unwrap();
        let (ep, _target_ep, ring, staging_rkey, ctl_rkey) =
            ring_target(&fabric, (&node, &pd), layout);
        let mut writer = StagingWriter::new(
            ep,
            staging_rkey,
            ctl_rkey,
            0,
            layout,
            3,
            scratch,
            4 * layout.slot_bytes(),
            TelemetryConfig::disabled(),
        );
        let data = [0x5Au8; 64];
        let items: Vec<(u64, &[u8], u64)> = (0..4u64)
            .map(|i| (0x4000 + i * 64, &data[..], i * layout.slot_bytes()))
            .collect();
        let mut flight = writer.stage_batch_begin(items.iter().copied()).unwrap();
        while !writer.poll_flight(&mut flight) {}
        let out = writer.stage_batch_finish(flight);
        assert_eq!(out.outcome(0), Ok(1));
        assert_eq!(out.outcome(1), Ok(2));
        assert!((2..4).all(|i| out.outcome(i).is_err()), "{out:?}");
        assert_eq!(writer.next_seq(), 3);
        assert_eq!(writer.ring_room(), layout.slots as usize - 2);
        for (slot, seq) in [(0, 1), (1, 2), (2, 0), (3, 0)] {
            let mut header = vec![0u8; RECORD_HEADER as usize];
            ring.read(layout.slot_offset(slot), &mut header).unwrap();
            assert_eq!(decode_record_header(&header).seq, seq, "slot {slot}");
        }
    }

    #[test]
    fn layout_geometry() {
        let l = RingLayout::for_ring_bytes(64 << 10);
        assert_eq!(l.slots, SLOTS_PER_RING);
        assert_eq!(l.slot_bytes(), 4096);
        assert_eq!(l.slot_payload, 4096 - RECORD_HEADER);
        assert_eq!(l.ring_bytes(), 64 << 10);
        assert_eq!(l.slot_offset(0), 0);
        assert_eq!(l.slot_offset(3), 3 * 4096);
    }

    #[test]
    fn tiny_ring_budget_still_usable() {
        let l = RingLayout::for_ring_bytes(100);
        assert!(l.slot_payload >= 64);
    }

    #[test]
    fn tiny_ring_bytes_clamp_keeps_slots_addressable() {
        // Budgets below one minimal slot per ring still produce a layout
        // whose slot arithmetic is self-consistent: every slot fits inside
        // ring_bytes() and the clamp floor holds for any budget.
        for ring_bytes in [0, 1, 63, 64, 100, RECORD_HEADER, RECORD_HEADER + 64, 4096] {
            let l = RingLayout::for_ring_bytes(ring_bytes);
            assert!(l.slot_bytes() >= RECORD_HEADER + 64, "budget {ring_bytes}");
            assert_eq!(l.slots, SLOTS_PER_RING);
            let last = l.slot_offset(l.slots - 1);
            assert_eq!(last + l.slot_bytes(), l.ring_bytes());
        }
    }

    #[test]
    fn mount_info_round_trips_the_server_layout() {
        // The server derives its geometry once; the mount response carries
        // it and the client reconstructs the identical layout.
        let server_side = RingLayout::for_ring_bytes(100);
        let mount = crate::proto::MountInfo {
            server_id: 1,
            nvm_rkey: 0,
            cache_rkey: 0,
            staging_rkey: 0,
            ctl_rkey: 0,
            report_rkey: 0,
            nvm_capacity: 0,
            enable_cache: true,
            enable_proxy: true,
            slot_payload: server_side.slot_payload,
            slots_per_ring: server_side.slots,
            shadow_rkey: 0,
            backup: crate::proto::NO_BACKUP,
        };
        assert_eq!(mount.ring_layout(), server_side);
    }
}
