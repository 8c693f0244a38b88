//! The simulated compute node: schedulers, page-fault policies and the
//! end-to-end request path.
//!
//! This crate assembles the fabric, paging and load-generation models
//! into the four systems the paper evaluates (§5 Setup):
//!
//! | System    | Page-fault policy        | Queueing        | Extras |
//! |-----------|--------------------------|-----------------|--------|
//! | `Hermit`  | busy-wait, kernel path   | per-core (RSS)  | async offload, kernel interference |
//! | `DiLOS`   | busy-wait, unikernel     | single queue    | wake-up reclaimer |
//! | `DiLOS-P` | busy-wait + 5 µs preempt | single queue    | Concord-style probes |
//! | `Adios`   | **yield**, unikernel     | single queue    | PF-aware dispatch, polling delegation, proactive reclaimer |
//!
//! The heart of the model is [`sim::Simulation`]: a discrete-event loop
//! in which eight workers, one dispatcher and one reclaimer replay
//! application [`Trace`](paging::Trace)s against the simulated page
//! cache and RDMA fabric. Timing constants are calibrated to the
//! paper's own published numbers (see `DESIGN.md` §4).

pub mod config;
pub mod sim;
pub mod workload;

pub use config::{
    DispatchPolicy, FaultPolicy, PrefetcherKind, QueueModel, SystemConfig, SystemKind, WorkerSelect,
};
pub use sim::{RunResult, Simulation};
pub use workload::{ArrayIndexWorkload, StridedWorkload, TenantWorkload, Workload};
