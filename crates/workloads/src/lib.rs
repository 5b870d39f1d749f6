//! Workload generators and applications for evaluating DSHM pools.
//!
//! Everything here is written against the [`DshmPool`] trait, so the same
//! workload runs unchanged over Gengar and each baseline:
//!
//! * [`ycsb`] — the YCSB core workloads (A–F) over the [`kv`] store.
//! * [`kv`] — a pool-resident open-addressing hash table with CAS inserts.
//! * [`mapreduce`] — a MapReduce-lite engine (WordCount, Grep, Sort) whose
//!   data plane lives entirely in the pool.
//! * [`micro`] — latency sweeps and closed-loop throughput drivers.
//! * [`zipf`] — YCSB-style key distributions (uniform, zipfian, scrambled
//!   zipfian, latest).
//! * [`stats`] — latency summaries over the telemetry crate's histogram.
//! * [`corpus`] — deterministic synthetic inputs.
//!
//! [`DshmPool`]: gengar_core::pool::DshmPool

pub mod corpus;
pub mod kv;
pub mod mapreduce;
pub mod micro;
pub mod stats;
pub mod ycsb;
pub mod zipf;

pub use kv::{KvSpec, KvStore};
pub use micro::{closed_loop, latency_sweep, setup_objects, LoopResult, OpMix};
pub use stats::Summary;
pub use ycsb::{load as ycsb_load, run as ycsb_run, WorkloadSpec, YcsbResult};
pub use zipf::{Distribution, KeyChooser};
