//! Gengar — an RDMA-based distributed shared hybrid memory pool.
//!
//! This is the facade crate of the Gengar reproduction (Duan et al.,
//! ICDCS 2021). It re-exports the full stack:
//!
//! * [`hybridmem`] — simulated DRAM/Optane-class devices with calibrated
//!   latency, bandwidth and persistence models.
//! * [`rdma`] — a software RDMA verbs substrate (PDs, MRs, RC QPs, CQs,
//!   one-sided READ/WRITE/CAS/FAA, SEND/RECV) over a modelled fabric.
//! * [`core`] — the Gengar system itself: memory servers, the client
//!   library, hot-data DRAM caching, proxy writes and consistency.
//! * [`workloads`] — YCSB, a pool-resident KV store, MapReduce-lite and
//!   microbenchmark drivers.
//!
//! # Quickstart
//!
//! ```
//! use gengar::prelude::*;
//!
//! # fn main() -> Result<(), gengar::core::GengarError> {
//! // Two memory servers on a zero-latency test fabric.
//! let cluster = Cluster::launch(2, ServerConfig::small(), FabricConfig::instant())?;
//! let mut client = cluster.client(ClientConfig::default())?;
//!
//! // The pool looks like one global memory space.
//! let ptr = client.alloc(1, 256)?;
//! client.write(ptr, 0, b"hello hybrid memory")?;
//! let mut buf = vec![0u8; 19];
//! client.read(ptr, 0, &mut buf)?;
//! assert_eq!(&buf, b"hello hybrid memory");
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios (YCSB, MapReduce WordCount,
//! multi-user shared counters) and `crates/bench` for the harness that
//! regenerates every figure/table of the paper's evaluation, including the
//! comparator designs (direct-to-NVM, client-side caching, DRAM-only upper
//! bound) it measures Gengar against.

pub use gengar_core as core;
pub use gengar_hybridmem as hybridmem;
pub use gengar_rdma as rdma;
pub use gengar_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use gengar_core::cluster::Cluster;
    pub use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
    pub use gengar_core::pool::DshmPool;
    pub use gengar_core::{
        AdmissionMode, BatchError, BatchResult, CachePolicy, CacheStats, GengarClient, GengarError,
        GlobalAddr, GlobalPtr, OpBatch,
    };
    pub use gengar_rdma::FabricConfig;
}
