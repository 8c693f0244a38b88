//! Allocation budgets of a run: the node model alone may allocate at
//! most once per seventy requests, and switching every plane on may add
//! at most one allocation per fifty. The configuration is the
//! perf ledger's `obs_all` workload on its timing-slice horizon (array
//! of 65 536 pages at 1.3 Mrps, 1 ms warm-up + 5 ms measured, 20 %
//! local, a 65 536-event trace ring, default span / profiler /
//! observatory / telemetry settings) against the same run with the
//! planes off. Allocator calls are counted around `Simulation::run`, as
//! the ledger's `allocs_per_req` does, so the result is the same on any
//! machine.
//!
//! What the node model allocates on so short a horizon is its slot
//! tables and queues growing to their steady size (58 calls over 7 855
//! requests; the timing wheel the event ring replaced made 877, one per
//! slot deque it touched for the first time), so the planes' bound is on
//! the difference: observation must stay a rounding error on top.

use adios::desim::{ProfileConfig, SpanConfig};
use adios::prelude::*;
use adios::runtime::Simulation;

#[path = "../crates/desim/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// Runs the slice once and returns its result and the allocator calls
/// `Simulation::run` made.
fn run_counted(params: RunParams) -> (RunResult, u64) {
    let mut workload = ArrayIndexWorkload::new(65_536);
    let sim = Simulation::new(SystemConfig::adios(), &mut workload, params);
    let before = counting_alloc::allocs();
    let res = sim.run();
    let allocs = counting_alloc::allocs() - before;
    let c = res.conservation;
    assert!(c.holds() && c.drops + c.sheds + c.aborts == 0, "{c:?}");
    (res, allocs)
}

/// The slice with every plane off.
fn planes_off() -> RunParams {
    RunParams {
        offered_rps: 1.3e6,
        seed: 1,
        warmup: SimDuration::from_millis(1),
        measure: SimDuration::from_millis(5),
        local_mem_fraction: 0.2,
        ..Default::default()
    }
}

#[test]
fn planes_off_slice_allocates_at_most_one_per_seventy_requests() {
    let (res, allocs) = run_counted(planes_off());
    let arrivals = res.conservation.arrivals;
    assert!(arrivals > 7_000, "the horizon carries ~7 800 requests");
    assert!(
        allocs * 70 <= arrivals,
        "the node model made {allocs} allocations over {arrivals} requests: \
         more than one per seventy"
    );
}

#[test]
fn all_planes_on_add_at_most_one_allocation_per_fifty_requests() {
    let off = planes_off();
    let on = RunParams {
        trace_capacity: Some(1 << 16),
        spans: Some(SpanConfig::default()),
        profile: Some(ProfileConfig::default()),
        memory: Some(MemObsConfig::default()),
        telemetry: Some(TelemetryConfig::default()),
        ..off.clone()
    };
    let (res_off, allocs_off) = run_counted(off);
    let (res, allocs_on) = run_counted(on);

    let arrivals = res.conservation.arrivals;
    assert_eq!(arrivals, res_off.conservation.arrivals);
    assert!(arrivals > 7_000, "the horizon carries ~7 800 requests");
    // Every plane did run.
    assert!(res.trace.as_ref().is_some_and(|t| !t.is_empty()));
    assert!(res.spans.as_ref().is_some_and(|s| s.measured > 5_000));
    assert!(res.profile.is_some() && res.memory.is_some() && res.telemetry.is_some());
    let added = allocs_on.saturating_sub(allocs_off);
    assert!(
        added * 50 <= arrivals,
        "the planes added {added} allocations ({allocs_off} → {allocs_on}) over \
         {arrivals} requests: more than 0.02 per request"
    );
}
