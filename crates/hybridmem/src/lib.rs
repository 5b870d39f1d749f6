//! Simulated byte-addressable hybrid memory devices for the Gengar
//! reproduction.
//!
//! The Gengar paper (ICDCS'21) evaluates on a testbed equipped with DRAM and
//! Intel Optane DC Persistent Memory DIMMs. This crate provides the software
//! stand-in for those devices: [`MemDevice`] is a byte-addressable memory
//! with a calibrated latency/bandwidth model ([`DeviceProfile`]), persistence
//! semantics (`flush`/ADR/crash simulation) and word-level atomics, and
//! [`MemRegion`] is a window onto a device that higher layers (the RDMA
//! substrate, memory servers) register and operate on.
//!
//! # Timing model
//!
//! Accesses inject *calibrated busy-wait delays* ([`latency`]) and pass
//! through a virtual-time rate limiter ([`bandwidth`]). The result is a
//! real-time emulation: the code under test is ordinary multi-threaded Rust,
//! and wall-clock measurements reproduce the *shape* of the modelled
//! hardware (NVM reads ~4x slower than DRAM, NVM write bandwidth ~3x lower,
//! and so on) without requiring Optane hardware. A global time scale
//! ([`latency::set_time_scale`]) lets tests turn delays off entirely.
//!
//! # Example
//!
//! ```
//! use gengar_hybridmem::{DeviceProfile, MemDevice};
//!
//! # fn main() -> Result<(), gengar_hybridmem::HybridMemError> {
//! let nvm = MemDevice::new(0, DeviceProfile::optane(), 1 << 20)?;
//! nvm.write(64, b"hello")?;
//! nvm.flush(64, 5)?; // make it durable
//! let mut buf = [0u8; 5];
//! nvm.read(64, &mut buf)?;
//! assert_eq!(&buf, b"hello");
//! # Ok(())
//! # }
//! ```

pub mod bandwidth;
pub mod device;
pub mod error;
pub mod latency;
pub mod profile;
pub mod region;
pub mod stats;

pub use bandwidth::Limiter;
pub use device::{DeviceId, MemDevice};
pub use error::HybridMemError;
pub use latency::{set_time_scale, time_scale};
pub use profile::{DeviceProfile, MemKind, PersistenceMode};
pub use region::MemRegion;
pub use stats::DeviceStats;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HybridMemError>;
