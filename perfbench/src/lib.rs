//! Benchmark of the SHC reproduction. It drives the system only through its
//! public APIs: it builds a workload's cluster and data, runs the workload
//! closed-loop, checks every result, and reports end-to-end metrics (the
//! measured run, tracing off) or per-layer metrics (the traced run).
//!
//! The workloads, their sizes and the metrics are described in this
//! package's `README.md`.

pub mod layers;
pub mod run;
pub mod setup;
pub mod spans;
pub mod stats;
pub mod workload;
