//! # adios
//!
//! A comprehensive Rust reproduction of *"Adios to Busy-Waiting for
//! Microsecond-scale Memory Disaggregation"* (EuroSys '25): yield-based
//! page fault handling with lightweight unithreads, evaluated against
//! busy-waiting baselines on a simulated RDMA testbed.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`core_api`] — systems, the experiment registry
//!   (`core_api::experiments::ALL`), figure reproduction;
//! - [`desim`] — the deterministic discrete-event simulation kernel;
//! - [`fabric`] — RDMA NIC / link / Raw-Ethernet models;
//! - [`paging`] — page cache, reclaim, traces, the paged arena;
//! - [`unithread`] — *real* user-level threads (80-byte contexts,
//!   universal stacks, a cooperative runner);
//! - [`runtime`] — the simulated compute node (workers, dispatcher,
//!   fault policies);
//! - [`loadgen`] — open-loop Poisson load generation and recording;
//! - [`apps`] — Memcached-, RocksDB-, Silo- and Faiss-like substrates.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use adios::prelude::*;
//!
//! let mut workload = ArrayIndexWorkload::new(16_384);
//! let result = run_one(
//!     SystemConfig::adios(),
//!     &mut workload,
//!     RunParams { offered_rps: 500_000.0, ..Default::default() },
//! );
//! println!("P99.9 = {} ns", result.recorder.overall().percentile(99.9));
//! ```

pub use adios_core as core_api;
pub use adios_core::prelude;
pub use apps;
pub use desim;
pub use fabric;
pub use loadgen;
pub use paging;
pub use runtime;
pub use unithread;
