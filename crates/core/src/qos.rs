//! The multi-tenant QoS plane: tenant identity, token-bucket rate and
//! bandwidth limiting, and admission control for the shared pool.
//!
//! Gengar exposes one hybrid-memory pool to many users; without isolation
//! a noisy tenant saturates the shared NIC channels and staging rings and
//! collapses every bystander's tail latency. The plane enforces per-tenant
//! budgets at three points, ordered from cheap to last-resort:
//!
//! 1. **Client issue gate** (primary): before a group posts a doorbell,
//!    the reactor charges the tenant's rate and bandwidth buckets. A
//!    denied charge *parks the group* with a wake instant from
//!    `TokenBucket::next_admit` — a throttled tenant queues without
//!    blocking the event loop, and healthy tenants keep flowing. Charges
//!    are scaled inversely by the tenant's weight, so co-throttled tenants
//!    share capacity weighted-fair.
//! 2. **Server RPC path**: requests from a bound tenant are charged
//!    against an enforcement-margin ops bucket (same rate, 4x burst).
//!    Only traffic that grossly outruns its budget — a client that skips
//!    the issue gate or a pathological retry storm — sees
//!    `Response::Err { THROTTLED }`, which classifies as `Retry` and
//!    backs off.
//! 3. **Fabric admission** (backstop): [`Fabric::execute_batch`] consults
//!    the plane per WR via [`gengar_rdma::QosPolicy`]. Over-burst WRs are
//!    *dropped* (no transfer, no completion — the initiator times out and
//!    retries), never delayed: shaping at the fabric would push the
//!    shared FIFO port cursors into the future and tax every bystander.
//!
//! Staged writes get a fourth control: a per-tenant cap on staged bytes
//! in flight (`TenantState::try_reserve_staged`). The client reserves
//! before posting a staged window and releases when the flight settles;
//! a full budget backpressures (parks) and a batch that alone exceeds
//! the cap sheds to the direct-write path before the drain collapses.
//!
//! Token buckets refill in *simulated* seconds: the whole repo stretches
//! modelled delays by [`gengar_hybridmem::time_scale`], so a limit of
//! "100 MB/s" means 100 MB per simulated second at any stretch.
//!
//! [`Fabric::execute_batch`]: gengar_rdma::Fabric

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use gengar_rdma::{NodeId, QosPolicy, QosVerdict};
use gengar_telemetry::{CounterHandle, TelemetryConfig};
use serde::{Deserialize, Serialize};

/// Burst multiplier of the enforcement buckets (server RPC path, fabric
/// admission) over the issue-gate burst. A client that paces at the issue
/// gate never trips enforcement; only gate-skipping traffic does.
const ENFORCE_BURST: f64 = 4.0;

/// A token bucket with a configurable burst allowance, modelled on the
/// classic rate limiter: tokens refill continuously at `limit` per
/// simulated second up to `limit * burst_ratio`, and a charge succeeds if
/// the balance covers it. A limit of 0 means unlimited.
///
/// Refill uses wall-clock elapsed time divided by the global
/// [`gengar_hybridmem::time_scale`], so budgets hold their meaning in
/// experiments that stretch modelled delays.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    state: Mutex<BucketState>,
}

#[derive(Debug, Clone, Copy)]
struct BucketState {
    /// Tokens per simulated second; 0 disables limiting.
    limit: f64,
    /// Maximum balance (`limit * burst_ratio`).
    burst: f64,
    /// Current balance.
    tokens: f64,
    /// Wall-clock instant of the last refill.
    last: Instant,
}

impl BucketState {
    fn refill(&mut self, now: Instant) {
        let sim_secs =
            now.saturating_duration_since(self.last).as_secs_f64() / gengar_hybridmem::time_scale();
        self.tokens = (self.tokens + sim_secs * self.limit).min(self.burst);
        self.last = now;
    }
}

impl TokenBucket {
    /// A bucket admitting `limit` tokens per simulated second with a
    /// burst allowance of `limit * burst_ratio` (at least one token, so a
    /// tiny limit still admits single ops). `limit == 0` is unlimited.
    pub(crate) fn new(limit: u64, burst_ratio: f64) -> TokenBucket {
        let limit = limit as f64;
        let burst = (limit * burst_ratio.max(0.0)).max(1.0);
        TokenBucket {
            state: Mutex::new(BucketState {
                limit,
                burst,
                tokens: burst,
                last: Instant::now(),
            }),
        }
    }

    /// Charges `cost` tokens if the balance covers it. Unlimited buckets
    /// always admit.
    pub(crate) fn try_take(&self, cost: f64) -> bool {
        let mut s = self.state.lock().unwrap();
        if s.limit == 0.0 {
            return true;
        }
        s.refill(Instant::now());
        if s.tokens >= cost {
            s.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Returns `cost` tokens to the bucket (capped at the burst), undoing
    /// a charge whose sibling bucket then denied.
    pub(crate) fn give(&self, cost: f64) {
        let mut s = self.state.lock().unwrap();
        if s.limit == 0.0 {
            return;
        }
        s.tokens = (s.tokens + cost).min(s.burst);
    }

    /// The wall-clock instant at which a charge of `cost` will be
    /// admissible, assuming no competing drains: now if it already is,
    /// otherwise now plus the deficit's refill time (scaled back to wall
    /// clock). A cost above the burst is clamped to it so the caller's
    /// park always wakes.
    pub(crate) fn next_admit(&self, cost: f64) -> Instant {
        let mut s = self.state.lock().unwrap();
        let now = Instant::now();
        if s.limit == 0.0 {
            return now;
        }
        s.refill(now);
        let deficit = cost.min(s.burst) - s.tokens;
        if deficit <= 0.0 {
            return now;
        }
        let wall_secs = deficit / s.limit * gengar_hybridmem::time_scale();
        now + Duration::from_secs_f64(wall_secs)
    }
}

/// Per-tenant budget specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant name; matched against [`crate::config::ClientConfig::tenant`].
    pub name: String,
    /// Operations per simulated second; 0 = unlimited.
    #[serde(default)]
    pub ops_per_sec: u64,
    /// Payload bytes per simulated second; 0 = unlimited.
    #[serde(default)]
    pub bytes_per_sec: u64,
    /// Staged-write bytes allowed in flight (staging-ring admission);
    /// 0 = unlimited.
    #[serde(default)]
    pub staged_bytes_cap: u64,
    /// Weighted-fair share: charges are divided by the weight, so a
    /// weight-2 tenant gets twice the throughput of a weight-1 tenant at
    /// the same configured limits.
    #[serde(default = "default_weight")]
    pub weight: u32,
}

fn default_weight() -> u32 {
    1
}

impl TenantSpec {
    /// An unlimited spec for `name` (the implicit default tenant).
    pub fn unlimited(name: &str) -> TenantSpec {
        TenantSpec {
            name: name.to_owned(),
            ops_per_sec: 0,
            bytes_per_sec: 0,
            staged_bytes_cap: 0,
            weight: default_weight(),
        }
    }
}

/// QoS plane configuration, carried on [`crate::config::ServerConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosConfig {
    /// Master switch; off by default (no plane is built, zero overhead).
    #[serde(default)]
    pub enabled: bool,
    /// Burst allowance as a multiple of each limit (the issue-gate
    /// buckets; enforcement buckets get 4x this).
    #[serde(default = "default_burst_ratio")]
    pub burst_ratio: f64,
    /// Per-tenant budgets; tenants not listed here run unlimited.
    #[serde(default)]
    pub tenants: Vec<TenantSpec>,
}

fn default_burst_ratio() -> f64 {
    2.0
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            enabled: false,
            burst_ratio: default_burst_ratio(),
            tenants: Vec::new(),
        }
    }
}

impl QosConfig {
    /// The budget spec for `name`: the configured entry, or unlimited.
    pub(crate) fn spec_for(&self, name: &str) -> TenantSpec {
        self.tenants
            .iter()
            .find(|t| t.name == name)
            .cloned()
            .unwrap_or_else(|| TenantSpec::unlimited(name))
    }
}

/// Live per-tenant state: the limiter buckets, the staged-bytes gauge and
/// the tenant's telemetry breakdown (components `tenant.<name>`).
#[derive(Debug)]
pub struct TenantState {
    spec: TenantSpec,
    /// Compact id carried in staged record headers so the server drain
    /// can account bytes to the tenant after the client-visible ack.
    tag: u32,
    /// Issue-gate buckets (primary enforcement, client side).
    rate: TokenBucket,
    bw: TokenBucket,
    /// Enforcement-margin buckets (server RPC path / fabric admission):
    /// same rates, 4x burst, charged independently so pacing at the
    /// issue gate never double-counts.
    rate_enforce: TokenBucket,
    bw_enforce: TokenBucket,
    /// Staged bytes currently in flight (reserved, not yet settled).
    staged_bytes: AtomicU64,
    /// Live sessions bound to this tenant (server-side connections).
    refs: AtomicU32,
    // Telemetry: the per-tenant breakdown in snapshots.
    m_ops: CounterHandle,
    m_bytes: CounterHandle,
    m_throttle_waits: CounterHandle,
    m_rpc_throttled: CounterHandle,
    m_fabric_dropped: CounterHandle,
    m_staged_shed: CounterHandle,
    m_drained_bytes: CounterHandle,
}

impl TenantState {
    fn new(
        spec: TenantSpec,
        tag: u32,
        burst_ratio: f64,
        telemetry: TelemetryConfig,
    ) -> TenantState {
        let tel = telemetry.handle();
        let component = format!("tenant.{}", spec.name);
        TenantState {
            rate: TokenBucket::new(spec.ops_per_sec, burst_ratio),
            bw: TokenBucket::new(spec.bytes_per_sec, burst_ratio),
            rate_enforce: TokenBucket::new(spec.ops_per_sec, burst_ratio * ENFORCE_BURST),
            bw_enforce: TokenBucket::new(spec.bytes_per_sec, burst_ratio * ENFORCE_BURST),
            staged_bytes: AtomicU64::new(0),
            refs: AtomicU32::new(0),
            m_ops: tel.counter(&component, "ops"),
            m_bytes: tel.counter(&component, "bytes"),
            m_throttle_waits: tel.counter(&component, "throttle_waits"),
            m_rpc_throttled: tel.counter(&component, "rpc_throttled"),
            m_fabric_dropped: tel.counter(&component, "fabric_dropped"),
            m_staged_shed: tel.counter(&component, "staged_shed"),
            m_drained_bytes: tel.counter(&component, "drained_bytes"),
            spec,
            tag,
        }
    }

    /// The tenant's budget spec.
    pub(crate) fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The compact tag carried in staged record headers.
    pub(crate) fn tag(&self) -> u32 {
        self.tag
    }

    /// Weighted charge: weight-w tenants pay `1/w` of the nominal cost.
    fn charge(&self, n: f64) -> f64 {
        n / f64::from(self.spec.weight.max(1))
    }

    /// The client issue gate: charges `ops` operations and `bytes`
    /// payload bytes against the tenant's budgets. `Ok(())` admits;
    /// `Err(wake)` means the caller should park until `wake` and try
    /// again (the charge is fully refunded — tokens are conserved).
    pub(crate) fn issue_admit(&self, ops: u64, bytes: u64) -> Result<(), Instant> {
        let op_cost = self.charge(ops as f64);
        let byte_cost = self.charge(bytes as f64);
        if !self.rate.try_take(op_cost) {
            self.m_throttle_waits.inc();
            return Err(self.rate.next_admit(op_cost));
        }
        if !self.bw.try_take(byte_cost) {
            // Refund the sibling so a denied admit conserves tokens.
            self.rate.give(op_cost);
            self.m_throttle_waits.inc();
            return Err(self.bw.next_admit(byte_cost));
        }
        self.m_ops.add(ops);
        self.m_bytes.add(bytes);
        Ok(())
    }

    /// The server RPC-path check: one request against the
    /// enforcement-margin ops bucket. `false` means THROTTLED.
    pub(crate) fn rpc_admit(&self) -> bool {
        let ok = self.rate_enforce.try_take(self.charge(1.0));
        if !ok {
            self.m_rpc_throttled.inc();
        }
        ok
    }

    /// Reserves `bytes` of staged-write budget; `false` when the tenant's
    /// in-flight cap is exhausted (caller backpressures or sheds).
    pub(crate) fn try_reserve_staged(&self, bytes: u64) -> bool {
        let cap = self.spec.staged_bytes_cap;
        if cap == 0 {
            return true;
        }
        let mut cur = self.staged_bytes.load(Ordering::Relaxed);
        loop {
            if cur + bytes > cap {
                return false;
            }
            match self.staged_bytes.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Whether a single batch of `bytes` could *ever* fit the staged
    /// cap — if not, waiting is pointless and the caller must shed.
    pub(crate) fn staged_fits(&self, bytes: u64) -> bool {
        self.spec.staged_bytes_cap == 0 || bytes <= self.spec.staged_bytes_cap
    }

    /// Releases a staged reservation once the flight settles (or fails).
    pub(crate) fn release_staged(&self, bytes: u64) {
        if self.spec.staged_bytes_cap == 0 {
            return;
        }
        let prev = self.staged_bytes.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "staged release exceeds reservation");
    }

    /// Counts a staged batch shed to the direct path.
    pub(crate) fn note_staged_shed(&self) {
        self.m_staged_shed.inc();
    }

    /// Counts `bytes` drained to NVM for this tenant (server drain path).
    pub(crate) fn note_drained(&self, bytes: u64) {
        self.m_drained_bytes.add(bytes);
    }

    /// Live sessions bound to this tenant.
    pub fn sessions(&self) -> u32 {
        self.refs.load(Ordering::Relaxed)
    }
}

/// One server-side client session the plane tracks: the client's fabric
/// node (for the fabric admission map) and, once Mount binds it, the
/// tenant.
#[derive(Debug)]
struct Session {
    node: NodeId,
    tenant: Option<Arc<TenantState>>,
}

/// The shared QoS plane of a cluster: the tenant registry plus the
/// NodeId → tenant map the fabric backstop consults. One instance is
/// shared by the fabric config, every server and (for issue-gate pacing)
/// every client.
#[derive(Debug)]
pub struct QosPlane {
    config: QosConfig,
    telemetry: TelemetryConfig,
    next_tag: AtomicU32,
    inner: RwLock<PlaneInner>,
}

#[derive(Debug, Default)]
struct PlaneInner {
    /// Tenants with at least one live session or client handle request.
    tenants: HashMap<String, Arc<TenantState>>,
    /// Tag → tenant, for drain-path accounting from record headers.
    by_tag: HashMap<u32, Arc<TenantState>>,
    /// Client fabric node → tenant, for fabric admission.
    nodes: HashMap<NodeId, Arc<TenantState>>,
    /// (server id, client id) → session, so teardown can release exactly
    /// what the handshake registered.
    sessions: HashMap<(u8, u32), Session>,
}

impl QosPlane {
    /// Builds a plane from the cluster's QoS config.
    pub(crate) fn new(config: QosConfig, telemetry: TelemetryConfig) -> Arc<QosPlane> {
        Arc::new(QosPlane {
            config,
            telemetry,
            next_tag: AtomicU32::new(1),
            inner: RwLock::new(PlaneInner::default()),
        })
    }

    fn tenant_entry(inner: &mut PlaneInner, plane: &QosPlane, name: &str) -> Arc<TenantState> {
        if let Some(t) = inner.tenants.get(name) {
            return Arc::clone(t);
        }
        let tag = plane.next_tag.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(TenantState::new(
            plane.config.spec_for(name),
            tag,
            plane.config.burst_ratio,
            plane.telemetry,
        ));
        inner.tenants.insert(name.to_owned(), Arc::clone(&state));
        inner.by_tag.insert(tag, Arc::clone(&state));
        state
    }

    /// Records an accepted connection before Mount names its tenant, so a
    /// handshake that dies pre-Mount still has a session to release.
    pub(crate) fn connect(&self, server: u8, cid: u32, node: NodeId) {
        self.inner
            .write()
            .unwrap()
            .sessions
            .insert((server, cid), Session { node, tenant: None });
    }

    /// Binds the session to `tenant` (the Mount request named it): takes
    /// a registry reference and maps the client's node for fabric
    /// admission. Returns the tenant's record-header tag.
    pub(crate) fn bind(&self, server: u8, cid: u32, tenant: &str) -> u32 {
        let mut inner = self.inner.write().unwrap();
        let state = Self::tenant_entry(&mut inner, self, tenant);
        let tag = state.tag;
        let swapped = match inner.sessions.get_mut(&(server, cid)) {
            Some(sess) => {
                state.refs.fetch_add(1, Ordering::Relaxed);
                let node = sess.node;
                let prev = sess.tenant.replace(Arc::clone(&state));
                Some((node, prev))
            }
            // Unknown session (accept never registered): nothing to bind.
            None => None,
        };
        if let Some((node, prev)) = swapped {
            inner.nodes.insert(node, state);
            // A re-Mount over a live session drops the old binding.
            if let Some(prev) = prev {
                Self::unref(&mut inner, &prev);
            }
        }
        tag
    }

    fn unref(inner: &mut PlaneInner, state: &Arc<TenantState>) {
        if state.refs.fetch_sub(1, Ordering::Relaxed) == 1 {
            // Last session gone: free the bucket set so a reconnect storm
            // (bind/release cycles) cannot accumulate tenant state.
            inner.tenants.remove(&state.spec.name);
            inner.by_tag.remove(&state.tag);
        }
    }

    /// Releases a session on teardown or failed handshake: unmaps the
    /// client node and drops the tenant reference. The last reference
    /// frees the tenant's buckets (no leak across reconnect storms).
    pub(crate) fn release(&self, server: u8, cid: u32) {
        let mut inner = self.inner.write().unwrap();
        if let Some(sess) = inner.sessions.remove(&(server, cid)) {
            inner.nodes.remove(&sess.node);
            if let Some(state) = sess.tenant {
                Self::unref(&mut inner, &state);
            }
        }
    }

    /// The tenant bound to a live session, if Mount has named one.
    pub(crate) fn tenant_of(&self, server: u8, cid: u32) -> Option<Arc<TenantState>> {
        self.inner
            .read()
            .unwrap()
            .sessions
            .get(&(server, cid))
            .and_then(|s| s.tenant.clone())
    }

    /// The tenant for a record-header tag (server drain accounting).
    pub(crate) fn tenant_by_tag(&self, tag: u32) -> Option<Arc<TenantState>> {
        self.inner.read().unwrap().by_tag.get(&tag).cloned()
    }

    /// A client-side handle onto `tenant`'s shared state for issue-gate
    /// pacing. Creates the state if absent; does not take a session
    /// reference (the server-side handshake owns the lifecycle, and the
    /// returned `Arc` keeps the buckets alive for this client even if
    /// every session releases).
    pub fn handle(&self, tenant: &str) -> Arc<TenantState> {
        let mut inner = self.inner.write().unwrap();
        Self::tenant_entry(&mut inner, self, tenant)
    }

    /// Live tenant names (diagnostics).
    pub fn tenants(&self) -> Vec<String> {
        self.inner.read().unwrap().tenants.keys().cloned().collect()
    }
}

impl QosPolicy for QosPlane {
    fn admit(&self, src: NodeId, bytes: u64) -> QosVerdict {
        let tenant = match self.inner.read().unwrap().nodes.get(&src) {
            Some(t) => Arc::clone(t),
            // Unknown nodes (servers, unregistered clients) pass free.
            None => return QosVerdict::Admit,
        };
        if tenant.bw_enforce.try_take(tenant.charge(bytes as f64)) {
            QosVerdict::Admit
        } else {
            tenant.m_fabric_dropped.inc();
            QosVerdict::Drop
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread;

    fn bucket(limit: u64, ratio: f64) -> TokenBucket {
        TokenBucket::new(limit, ratio)
    }

    /// The bucket's balance, as of its last refill.
    fn tokens(b: &TokenBucket) -> f64 {
        b.state.lock().unwrap().tokens
    }

    #[test]
    fn unlimited_bucket_always_admits() {
        let b = bucket(0, 2.0);
        for _ in 0..10_000 {
            assert!(b.try_take(1e12));
        }
        assert!(b.next_admit(1e12) <= Instant::now());
    }

    #[test]
    fn burst_cap_never_exceeded() {
        // Property: a fresh bucket admits at most burst + refill(elapsed)
        // tokens, however the drains are sliced.
        let limit = 1_000u64;
        let ratio = 1.5;
        let b = bucket(limit, ratio);
        let t0 = Instant::now();
        let mut granted = 0.0;
        for _ in 0..100_000 {
            if b.try_take(1.0) {
                granted += 1.0;
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let allowed = limit as f64 * ratio + limit as f64 * elapsed + 1.0;
        assert!(
            granted <= allowed,
            "granted {granted} > burst+refill {allowed}"
        );
    }

    #[test]
    fn token_conservation_under_concurrent_drains() {
        // Property (merge-law style): N threads hammering one bucket can
        // never jointly extract more than burst + limit * elapsed.
        let limit = 50_000u64;
        let ratio = 1.0;
        let b = Arc::new(bucket(limit, ratio));
        let granted = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let b = Arc::clone(&b);
                let granted = Arc::clone(&granted);
                thread::spawn(move || {
                    for _ in 0..200_000 {
                        if b.try_take(1.0) {
                            granted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let total = granted.load(Ordering::Relaxed) as f64;
        // +2.0 absorbs float slop at the boundary.
        let allowed = limit as f64 * ratio + limit as f64 * elapsed + 2.0;
        assert!(total <= allowed, "drained {total} > allowed {allowed}");
    }

    #[test]
    fn starvation_freedom_blocked_drain_eventually_admits() {
        // Property: once the bucket is empty, next_admit names a finite
        // wake instant and the charge succeeds shortly after it.
        let b = bucket(10_000, 1.0);
        while b.try_take(1_000.0) {}
        let wake = b.next_admit(100.0);
        assert!(wake > Instant::now(), "empty bucket admitted immediately");
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if Instant::now() >= wake && b.try_take(100.0) {
                break;
            }
            assert!(Instant::now() < deadline, "blocked charge never admitted");
            thread::yield_now();
        }
    }

    #[test]
    fn next_admit_clamps_oversize_cost_to_burst() {
        let b = bucket(1_000, 1.0);
        // A cost above the burst can never be covered; the wake instant
        // must still be finite (when the bucket is full again).
        let wake = b.next_admit(1e9);
        assert!(wake <= Instant::now() + Duration::from_secs(2));
    }

    #[test]
    fn give_refunds_but_never_overfills() {
        let b = bucket(1_000, 1.0);
        assert!(b.try_take(500.0));
        b.give(500.0);
        b.give(1e9);
        assert!(tokens(&b) <= 1_000.0);
    }

    fn plane_with(tenants: Vec<TenantSpec>) -> Arc<QosPlane> {
        QosPlane::new(
            QosConfig {
                enabled: true,
                burst_ratio: 1.0,
                tenants,
            },
            TelemetryConfig::disabled(),
        )
    }

    #[test]
    fn bind_release_frees_tenant_buckets() {
        let plane = plane_with(vec![]);
        plane.connect(0, 1, NodeId(7));
        plane.connect(0, 2, NodeId(8));
        plane.bind(0, 1, "acme");
        plane.bind(0, 2, "acme");
        let state = plane.tenant_of(0, 1).unwrap();
        assert_eq!(state.sessions(), 2);
        assert!(Arc::ptr_eq(&state, &plane.tenant_of(0, 2).unwrap()));
        plane.release(0, 1);
        assert_eq!(state.sessions(), 1);
        plane.release(0, 2);
        // Last session gone: the registry entry is freed — a reconnect
        // storm of bind/release cycles cannot accumulate buckets.
        assert!(plane.tenants().is_empty());
        assert!(plane.tenant_by_tag(state.tag()).is_none());
    }

    #[test]
    fn release_without_bind_is_clean() {
        // A handshake that dies before Mount releases a tenant-less
        // session; nothing must leak or panic.
        let plane = plane_with(vec![]);
        for cid in 0..1_000 {
            plane.connect(0, cid, NodeId(cid));
            plane.release(0, cid);
        }
        assert!(plane.tenants().is_empty());
    }

    #[test]
    fn rebind_over_live_session_swaps_tenant() {
        let plane = plane_with(vec![]);
        plane.connect(0, 1, NodeId(7));
        plane.bind(0, 1, "a");
        plane.bind(0, 1, "b");
        assert_eq!(plane.tenant_of(0, 1).unwrap().spec().name, "b");
        assert_eq!(plane.tenants(), vec!["b".to_owned()]);
        plane.release(0, 1);
        assert!(plane.tenants().is_empty());
    }

    #[test]
    fn fabric_admission_unknown_node_passes() {
        let plane = plane_with(vec![]);
        assert_eq!(plane.admit(NodeId(99), 1 << 30), QosVerdict::Admit);
    }

    #[test]
    fn fabric_admission_drops_over_burst_tenant() {
        let plane = plane_with(vec![TenantSpec {
            name: "noisy".into(),
            ops_per_sec: 0,
            bytes_per_sec: 1_000,
            staged_bytes_cap: 0,
            weight: 1,
        }]);
        plane.connect(0, 1, NodeId(5));
        plane.bind(0, 1, "noisy");
        // Enforcement burst = 1000 * 1.0 * 4 = 4000 bytes; blast past it.
        let mut dropped = false;
        for _ in 0..100 {
            if plane.admit(NodeId(5), 1_000) == QosVerdict::Drop {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "over-burst tenant was never dropped");
        // An unlimited bystander on another node still passes.
        plane.connect(0, 2, NodeId(6));
        plane.bind(0, 2, "quiet");
        assert_eq!(plane.admit(NodeId(6), 1 << 20), QosVerdict::Admit);
    }

    #[test]
    fn issue_admit_refunds_on_partial_denial() {
        // rate bucket roomy, bw bucket tiny: a denied admit must refund
        // the rate charge (token conservation across the pair).
        let plane = plane_with(vec![TenantSpec {
            name: "t".into(),
            ops_per_sec: 1_000_000,
            bytes_per_sec: 10,
            staged_bytes_cap: 0,
            weight: 1,
        }]);
        let t = plane.handle("t");
        let before = tokens(&t.rate);
        assert!(t.issue_admit(1, 1 << 20).is_err());
        let after = tokens(&t.rate);
        assert!(
            after >= before - 0.001,
            "rate tokens lost on denied admit: {before} -> {after}"
        );
    }

    #[test]
    fn weighted_charge_scales_share() {
        let mk = |w: u32| {
            plane_with(vec![TenantSpec {
                name: "t".into(),
                ops_per_sec: 1_000,
                bytes_per_sec: 0,
                staged_bytes_cap: 0,
                weight: w,
            }])
            .handle("t")
        };
        let grants = |t: &Arc<TenantState>| {
            let mut n = 0;
            while t.issue_admit(1, 0).is_ok() {
                n += 1;
                if n > 100_000 {
                    break;
                }
            }
            n
        };
        let g1 = grants(&mk(1));
        let g4 = grants(&mk(4));
        // Weight 4 admits ~4x the ops from the same burst.
        assert!(g4 >= g1 * 3, "weight-4 tenant admitted {g4}, weight-1 {g1}");
    }

    #[test]
    fn staged_reservation_caps_in_flight_bytes() {
        let plane = plane_with(vec![TenantSpec {
            name: "t".into(),
            ops_per_sec: 0,
            bytes_per_sec: 0,
            staged_bytes_cap: 10_000,
            weight: 1,
        }]);
        let t = plane.handle("t");
        assert!(t.try_reserve_staged(6_000));
        assert!(!t.try_reserve_staged(6_000));
        assert!(!t.staged_fits(20_000));
        assert!(t.staged_fits(10_000));
        t.release_staged(6_000);
        assert!(t.try_reserve_staged(10_000));
        assert_eq!(t.staged_bytes.load(Ordering::Relaxed), 10_000);
        t.release_staged(10_000);
        assert_eq!(t.staged_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn config_spec_lookup_defaults_to_unlimited() {
        let cfg = QosConfig {
            enabled: true,
            burst_ratio: 2.0,
            tenants: vec![TenantSpec {
                name: "a".into(),
                ops_per_sec: 5,
                bytes_per_sec: 6,
                staged_bytes_cap: 7,
                weight: 2,
            }],
        };
        assert_eq!(cfg.spec_for("a").ops_per_sec, 5);
        let other = cfg.spec_for("b");
        assert_eq!(other.ops_per_sec, 0);
        assert_eq!(other.weight, 1);
    }
}
