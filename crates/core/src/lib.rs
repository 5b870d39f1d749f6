//! Gengar: an RDMA-based distributed shared hybrid memory (DSHM) pool.
//!
//! This crate reproduces the system described in *"Gengar: An RDMA-based
//! Distributed Hybrid Memory Pool"* (Duan et al., ICDCS 2021). Memory
//! servers export NVM and DRAM into a global memory space; clients access
//! it with one-sided RDMA verbs through simple `alloc`/`read`/`write`
//! APIs. Three mechanisms define the system:
//!
//! * **Hot-data caching in distributed DRAM** ([`hotness`], [`cache`]):
//!   clients piggyback access summaries derived from their verbs' semantics;
//!   servers promote frequently-accessed objects into DRAM cache slots that
//!   clients read with validated one-sided READs.
//! * **Proxy-based writes** ([`proxy`]): clients land write records in
//!   per-client ADR-protected staging rings with a single WRITE_WITH_IMM;
//!   a server proxy thread drains them to NVM off the critical path.
//! * **Multi-user sharing with consistency** ([`consistency`]): per-object
//!   lock/version words manipulated with RDMA CAS, seqlock-validated reads,
//!   and write-through for shared objects.
//!
//! Start with [`cluster::Cluster`] to stand up a pool and
//! [`client::GengarClient`] (or the [`pool::DshmPool`] trait) to use it:
//!
//! ```
//! use gengar_core::cluster::Cluster;
//! use gengar_core::config::{ClientConfig, ServerConfig};
//! use gengar_core::pool::DshmPool;
//! use gengar_rdma::FabricConfig;
//!
//! # fn main() -> Result<(), gengar_core::GengarError> {
//! let cluster = Cluster::launch(1, ServerConfig::small(), FabricConfig::instant())?;
//! let mut client = cluster.client(ClientConfig::default())?;
//! let ptr = client.alloc(0, 128)?;
//! client.write(ptr, 0, b"byte-addressable remote memory")?;
//! let mut buf = vec![0u8; 30];
//! client.read(ptr, 0, &mut buf)?;
//! assert_eq!(&buf, b"byte-addressable remote memory");
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod alloc;
pub mod batch;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod config;
pub mod consistency;
pub mod error;
pub mod health;
pub mod hotness;
pub mod layout;
pub mod pool;
pub mod proto;
pub mod proxy;
pub mod qos;
mod retry;
pub mod rpc;
pub mod server;
pub mod window;

pub use addr::{GlobalAddr, GlobalPtr, MemClass};
pub use batch::{BatchError, BatchResult, OpBatch};
pub use cache::{AdmissionMode, CachePolicy, CacheStats};
pub use client::{ClientStats, GengarClient};
pub use cluster::Cluster;
pub use config::{ClientConfig, Consistency, HealthConfig, ServerConfig};
pub use error::GengarError;
pub use health::{HealthPlane, HealthState};
pub use pool::DshmPool;
pub use qos::{QosConfig, QosPlane, TenantSpec};
pub use server::MemoryServer;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GengarError>;
