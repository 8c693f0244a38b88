//! The repo's perf ledger: workloads, metric catalogue, measurement
//! and comparison rules behind the `perfbench` binary. See
//! `benchmark/README.md`.

pub mod alloc;
pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workloads;
