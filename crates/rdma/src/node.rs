//! Per-node RDMA context (one simulated machine with one NIC).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};

use gengar_hybridmem::Limiter;
use parking_lot::RwLock;

use crate::cq::CompletionQueue;
use crate::fabric::{Fabric, Wire};
use crate::hash::FastMap;
use crate::metrics::FabricMetrics;
use crate::mr::{MemoryRegion, ProtectionDomain};
use crate::qp::{QpOptions, QueuePair};
use crate::types::{NodeId, Qpn};

/// One node on the fabric: a machine with an RDMA NIC, registered memory
/// regions and queue pairs.
///
/// Created via [`Fabric::add_node`]. Memory registration goes through a
/// [`ProtectionDomain`] from [`RdmaNode::alloc_pd`].
pub struct RdmaNode {
    id: NodeId,
    fabric: Weak<Fabric>,
    wire: Arc<Wire>,
    /// Cleared when the node is detached from its fabric (machine death):
    /// routes to it read this on every post.
    attached: AtomicBool,
    next_key: Arc<AtomicU32>,
    next_qpn: AtomicU32,
    next_pd: AtomicU32,
    mrs: RwLock<FastMap<u32, Arc<MemoryRegion>>>,
    qps: RwLock<FastMap<Qpn, Arc<QueuePair>>>,
    nic_bw: Limiter,
    metrics: FabricMetrics,
    self_ref: RwLock<Weak<RdmaNode>>,
}

impl std::fmt::Debug for RdmaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaNode")
            .field("id", &self.id)
            .field("mrs", &self.mrs.read().len())
            .field("qps", &self.qps.read().len())
            .finish()
    }
}

impl RdmaNode {
    pub(crate) fn new(id: NodeId, fabric: Weak<Fabric>, wire: Arc<Wire>) -> Arc<Self> {
        let (nic_bw_bytes_per_sec, metrics) = (wire.nic_bw_bytes_per_sec(), wire.metrics().clone());
        let node = Arc::new(RdmaNode {
            id,
            fabric,
            wire,
            attached: AtomicBool::new(true),
            next_key: Arc::new(AtomicU32::new(0)),
            next_qpn: AtomicU32::new(0),
            next_pd: AtomicU32::new(0),
            mrs: RwLock::new(FastMap::default()),
            qps: RwLock::new(FastMap::default()),
            nic_bw: Limiter::new(nic_bw_bytes_per_sec),
            metrics,
            self_ref: RwLock::new(Weak::new()),
        });
        *node.self_ref.write() = Arc::downgrade(&node);
        node
    }

    /// This node's fabric identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The fabric this node is attached to, if it still exists.
    pub fn fabric(&self) -> Option<Arc<Fabric>> {
        self.fabric.upgrade()
    }

    /// The execution half of the fabric this node was added to.
    pub(crate) fn wire(&self) -> &Wire {
        &self.wire
    }

    /// Whether the node is still attached to its fabric.
    pub(crate) fn is_attached(&self) -> bool {
        self.attached.load(Ordering::Acquire)
    }

    /// Marks the node detached ([`Fabric::remove_node`]).
    pub(crate) fn detach(&self) {
        self.attached.store(false, Ordering::Release);
    }

    /// NIC port bandwidth limiter (shared by all QPs on the node).
    pub(crate) fn nic_bw(&self) -> &Limiter {
        &self.nic_bw
    }

    /// Allocates a protection domain.
    pub fn alloc_pd(&self) -> ProtectionDomain {
        let id = self.next_pd.fetch_add(1, Ordering::Relaxed);
        ProtectionDomain::new(self.self_ref.read().clone(), id, Arc::clone(&self.next_key))
    }

    /// Creates a completion queue with the given capacity.
    pub fn create_cq(&self, capacity: usize) -> Arc<CompletionQueue> {
        Arc::new(CompletionQueue::new(capacity))
    }

    /// Creates a queue pair in `pd` bound to the given CQs.
    pub fn create_qp(
        &self,
        pd: &ProtectionDomain,
        send_cq: Arc<CompletionQueue>,
        recv_cq: Arc<CompletionQueue>,
        opts: QpOptions,
    ) -> Arc<QueuePair> {
        let qpn = Qpn(self.next_qpn.fetch_add(1, Ordering::Relaxed) + 1);
        let qp = Arc::new(QueuePair::new(
            self.self_ref.read().clone(),
            qpn,
            pd.id(),
            send_cq,
            recv_cq,
            opts,
            self.metrics.clone(),
        ));
        self.qps.write().insert(qpn, Arc::clone(&qp));
        qp
    }

    /// Looks up a queue pair by number.
    pub fn qp(&self, qpn: Qpn) -> Option<Arc<QueuePair>> {
        self.qps.read().get(&qpn).cloned()
    }

    pub(crate) fn insert_mr(&self, mr: Arc<MemoryRegion>) {
        self.mrs.write().insert(mr.lkey().0, mr);
    }

    /// Looks up an MR by key (lkeys and rkeys share the key space).
    pub fn mr_by_key(&self, key: u32) -> Option<Arc<MemoryRegion>> {
        self.mrs.read().get(&key).cloned()
    }

    /// The MRs registered so far in protection domain `pd_id`, by
    /// ascending key.
    pub(crate) fn mrs_in(&self, pd_id: u32) -> Box<[Arc<MemoryRegion>]> {
        let mut mrs: Vec<_> = self
            .mrs
            .read()
            .values()
            .filter(|mr| mr.pd_id() == pd_id)
            .cloned()
            .collect();
        mrs.sort_unstable_by_key(|mr| mr.lkey().0);
        mrs.into_boxed_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;

    #[test]
    fn node_ids_increment() {
        let fabric = Fabric::new(FabricConfig::instant());
        let a = fabric.add_node();
        let b = fabric.add_node();
        assert_ne!(a.id(), b.id());
        assert!(fabric.node(a.id()).is_some());
    }

    #[test]
    fn qp_lookup() {
        let fabric = Fabric::new(FabricConfig::instant());
        let node = fabric.add_node();
        let pd = node.alloc_pd();
        let qp = node.create_qp(
            &pd,
            node.create_cq(8),
            node.create_cq(8),
            QpOptions::default(),
        );
        assert!(node.qp(qp.qpn()).is_some());
        assert!(node.qp(Qpn(999)).is_none());
    }
}
