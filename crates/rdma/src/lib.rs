//! A software RDMA verbs substrate for the Gengar reproduction.
//!
//! The Gengar paper builds on one-sided RDMA verbs over InfiniBand. This
//! crate reimplements the verbs *interface semantics* in software: nodes on
//! a [`Fabric`] register memory ([`MemoryRegion`]) inside protection
//! domains, connect reliable queue pairs ([`QueuePair`]) and post one-sided
//! READ/WRITE/CAS/FAA/FLUSH and two-sided SEND/RECV work requests whose
//! completions appear on [`CompletionQueue`]s. Remote accesses are validated
//! against rkeys, bounds, access flags and protection domains — the checks a
//! real HCA performs.
//!
//! Timing follows the crate-level model of [`gengar_hybridmem`]: each verb
//! busy-waits the configured NIC/fabric latencies and draws payload bytes
//! through the port bandwidth limiters, so measured wall-clock behaviour
//! reproduces the shape of a 100 Gb/s RDMA network.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind, MemRegion};
//! use gengar_rdma::{Access, Endpoint, Fabric, FabricConfig, Payload, QpOptions, RemoteAddr, Sge};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fabric = Fabric::new(FabricConfig::instant());
//! let client = fabric.add_node();
//! let server = fabric.add_node();
//!
//! // Server registers 1 MiB of simulated NVM for remote access.
//! let nvm = Arc::new(MemDevice::new(0, DeviceProfile::instant(MemKind::Nvm), 1 << 20)?);
//! let server_pd = server.alloc_pd();
//! let mr = server_pd.reg_mr(MemRegion::whole(nvm), Access::all())?;
//!
//! // Client registers a local scratch buffer.
//! let scratch = Arc::new(MemDevice::new(1, DeviceProfile::instant(MemKind::Dram), 4096)?);
//! let client_pd = client.alloc_pd();
//! let local = client_pd.reg_mr(MemRegion::whole(scratch), Access::all())?;
//!
//! let (ep, _server_ep) = Endpoint::pair(
//!     (&client, &client_pd),
//!     (&server, &server_pd),
//!     QpOptions::default(),
//! )?;
//!
//! // One-sided write, then read back.
//! ep.write(Payload::Inline(b"gengar".to_vec()), RemoteAddr::new(mr.rkey(), 64))?;
//! ep.read(Sge::new(local.lkey(), 0, 6), RemoteAddr::new(mr.rkey(), 64))?;
//! let mut buf = [0u8; 6];
//! local.region().read(0, &mut buf)?;
//! assert_eq!(&buf, b"gengar");
//! # Ok(())
//! # }
//! ```

pub mod cm;
pub mod cq;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod hash;
pub(crate) mod metrics;
pub mod mr;
pub mod node;
pub mod qp;
pub mod types;
pub mod wr;

pub use cm::{Endpoint, PendingOps};
pub use cq::{CompletionQueue, Wc, WcOpcode, WcStatus};
pub use error::RdmaError;
pub use fabric::{Fabric, FabricConfig, QosPolicy, QosVerdict};
pub use fault::{FaultAction, FaultDecision, FaultPlane, FaultRule, PartitionFlap, Trigger};
pub use hash::{FastBuild, FastHasher, FastMap, FastSet};
pub use mr::{MemoryRegion, ProtectionDomain};
pub use node::RdmaNode;
pub use qp::{QpOptions, QpState, QueuePair};
pub use types::{Access, LKey, NodeId, Qpn, RKey, RemoteAddr, WrId};
pub use wr::{Payload, RecvWr, SendOp, SendWr, Sge};

// The telemetry switch travels inside [`FabricConfig`]; re-export it so
// fabric consumers don't need a direct gengar-telemetry dependency.
pub use gengar_telemetry::TelemetryConfig;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RdmaError>;
