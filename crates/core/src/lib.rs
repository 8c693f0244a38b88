//! Adios: yield-based page fault handling for microsecond-scale memory
//! disaggregation — the public API of the reproduction.
//!
//! This crate ties the substrates together and exposes:
//!
//! - the four systems under test ([`SystemKind`], [`SystemConfig`]);
//! - the simulation entry points ([`Simulation`], [`RunParams`]);
//! - the application workloads (re-exported from [`apps`]);
//! - the experiment registry ([`experiments::ALL`]): one function per
//!   table/figure of the paper, ablation and extension study, each
//!   returning a printable [`FigureReport`] with measured series and
//!   paper-vs-measured expectation rows (the `bench` crate's
//!   `experiments_md` binary is its only driver).
//!
//! # Quickstart
//!
//! ```
//! use adios_core::prelude::*;
//!
//! // The paper's microbenchmark at 20 % local memory.
//! let mut workload = ArrayIndexWorkload::new(16_384);
//! let params = RunParams {
//!     offered_rps: 500_000.0,
//!     ..Default::default()
//! };
//! let result = run_one(SystemConfig::adios(), &mut workload, params);
//! assert!(result.recorder.completed_in_window() > 0);
//! println!("P99.9 = {} ns", result.recorder.overall().percentile(99.9));
//! ```

pub mod experiments;
pub mod report;
pub mod scale;

pub use faults::{FaultScenario, FaultStats};
pub use loadgen::{TenantMix, TenantPlane, TenantPriority, TenantSpec};
pub use report::{perfetto_json, run_json, Expectation, FigureReport, Series};
pub use runtime::sim::{run_one, Conservation, MemObsConfig, RunParams, RunResult, TenantWindow};
pub use runtime::{
    DispatchPolicy, FaultPolicy, PrefetcherKind, QueueModel, Simulation, SystemConfig, SystemKind,
    WorkerSelect, Workload,
};
pub use scale::Scale;

/// Everything a typical experiment needs.
pub mod prelude {
    pub use crate::report::{Expectation, FigureReport, Series};
    pub use crate::scale::Scale;
    pub use apps::{
        FaissWorkload, LlmServeWorkload, MemcachedWorkload, RocksDbWorkload, TpccWorkload,
    };
    pub use desim::{SimDuration, SimTime, SloRule, TelemetryConfig};
    pub use faults::FaultScenario;
    pub use loadgen::{LoadPoint, TenantPlane, TenantPriority, TenantSpec};
    pub use runtime::sim::{
        run_one, Conservation, MemObsConfig, RunParams, RunResult, TenantWindow,
    };
    pub use runtime::{
        ArrayIndexWorkload, DispatchPolicy, FaultPolicy, PrefetcherKind, QueueModel, Simulation,
        StridedWorkload, SystemConfig, SystemKind, TenantWorkload, WorkerSelect, Workload,
    };
}
