//! Measuring one simulated workload: full-horizon repetitions with
//! their output checks, short timing slices, set-up timing, and the
//! end-to-end (untraced) run built from them.

use std::time::Instant;

use desim::trace::dispatcher_names;
use desim::SimDuration;
use runtime::sim::RunResult;
use runtime::{Simulation, Workload};

use crate::alloc::{self, Snapshot};
use crate::spans::Spans;
use crate::stats::{fnv1a64, Summary};
use crate::workloads::SimCase;

/// Everything one repetition yields. Host times vary between
/// repetitions; every other field is a function of the seed alone and
/// is checked to repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub build_ns: u64,
    pub new_ns: u64,
    pub run_ns: u64,
    pub json_ns: u64,
    /// Peak live heap over set-up + run, net of what the harness held.
    pub peak_live: u64,
    pub exact: Exact,
}

/// The seed-determined part of a repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    /// Requests generated (`Conservation::arrivals`): the denominator of
    /// the host-cost metrics, which cover warm-up and drain too.
    pub arrivals: u64,
    /// Requests dropped, shed or aborted.
    pub failed: u64,
    /// Completions inside the measurement window: the sample count of
    /// the latency percentiles and the denominator of `sim.*_per_req`.
    pub completed: u64,
    /// Heap allocations and bytes inside `Simulation::run`.
    pub allocs: Snapshot,
    /// FNV-1a-64 of `adios_core::run_json`: equal fingerprints mean
    /// every simulated statistic is identical.
    pub fingerprint: u64,
    pub json_bytes: usize,
    pub p50_ns: u64,
    pub p999_ns: u64,
    pub achieved_rps: f64,
    /// Modelled-component counts (`sim.*` per-layer metrics).
    pub sim: Vec<(&'static str, f64)>,
}

fn sim_counts(
    res: &RunResult,
    dispatchers: usize,
    failed: u64,
    arrivals: u64,
) -> Vec<(&'static str, f64)> {
    let per_req = |n: u64| n as f64 / res.recorder.completed_in_window().max(1) as f64;
    let counter = |name: &str| res.metrics.counter(name).unwrap_or(0);
    let gauge = |name: &str| res.metrics.gauge(name).map_or(0.0, |g| g.mean);
    let c = &res.cache;
    let accesses = (c.hits + c.misses + c.coalesced).max(1);
    let steals = res.stats.steals
        + (0..dispatchers)
            .map(|d| counter(dispatcher_names::STEALS[d]))
            .sum::<u64>();
    vec![
        ("sim.cache.miss_ratio", c.misses as f64 / accesses as f64),
        ("sim.cache.evictions_per_req", per_req(c.evictions)),
        (
            "sim.cache.dirty_evictions_per_req",
            per_req(c.dirty_evictions),
        ),
        (
            "sim.fabric.rdma_msgs_per_req",
            per_req(counter("rdma_data_msgs") + counter("rdma_ctrl_msgs")),
        ),
        ("sim.fabric.data_util", res.rdma_data_util),
        ("sim.prefetch.issued_per_req", per_req(res.stats.prefetches)),
        ("sim.writebacks_per_req", per_req(res.stats.writebacks)),
        ("sim.spin_fraction", res.spin_fraction()),
        ("sim.queue_depth_mean", gauge("queue_depth")),
        ("sim.qp_outstanding_mean", gauge("qp_outstanding")),
        ("sim.steals_per_req", per_req(steals)),
        ("sim.failed_share", failed as f64 / arrivals.max(1) as f64),
    ]
}

/// One full-horizon repetition: builds the dataset, constructs the
/// simulation, runs it and serialises the result, with a span around
/// each call. The allocation snapshot is taken inside the
/// `runtime.sim_run` span, around `Simulation::run` alone.
pub fn one_rep(case: &SimCase, spans: &mut Spans) -> Result<Rep, String> {
    let base = alloc::reset_peak();
    let (mut workload, build_ns) = spans.time("apps.build", |_| (case.build)());
    let (sim, new_ns) = spans.time("runtime.sim_new", |_| {
        Simulation::new(case.cfg.clone(), &mut *workload, case.params.clone())
    });
    let ((res, allocs), run_ns) = spans.time("runtime.sim_run", |_| {
        let before = Snapshot::now();
        let res = sim.run();
        (res, Snapshot::now().since(before))
    });
    let peak_live = alloc::peak() - base;
    let (json, json_ns) = spans.time("core.run_json", |_| adios_core::run_json(&res));

    let c = res.conservation;
    if !c.holds() {
        return Err(format!("request conservation violated: {c:?}"));
    }
    let failed = c.drops + c.sheds + c.aborts;
    let latency = res.recorder.overall();
    Ok(Rep {
        build_ns,
        new_ns,
        run_ns,
        json_ns,
        peak_live,
        exact: Exact {
            arrivals: c.arrivals,
            failed,
            completed: res.recorder.completed_in_window(),
            allocs,
            fingerprint: fnv1a64(json.as_bytes()),
            json_bytes: json.len(),
            p50_ns: latency.percentile(50.0),
            p999_ns: latency.percentile(99.9),
            achieved_rps: res.recorder.achieved_rps(),
            sim: sim_counts(&res, case.cfg.dispatchers, failed, c.arrivals),
        },
    })
}

/// One timing slice: `Simulation::new` and `Simulation::run` on a
/// 6 ms horizon.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub new_ns: u64,
    pub run_ns: u64,
    pub arrivals: u64,
}

impl Slice {
    pub fn ns_per_req(&self) -> f64 {
        self.run_ns as f64 / self.arrivals as f64
    }
}

/// Times short slices of the workload (1 ms warm-up + 5 ms measured,
/// 4-15 ms of host time each) over one dataset, until `seconds` have
/// passed and at least `min` times. Every slice replays the same
/// request stream over the same dataset, as a sweep does over its load
/// points, so the dataset lines it touches are warm in the host's
/// caches; the full-horizon repetitions give the cold figure.
///
/// Slices are short because this box's slowdowns come in bursts of
/// tens of milliseconds to seconds: the shorter the slice, the likelier
/// one fits between bursts, and the minimum over hundreds of slices
/// repeats within ~5 % where the minimum over 1 s runs does not.
fn time_slices(
    case: &SimCase,
    workload: &mut dyn Workload,
    spans: &mut Spans,
    seconds: f64,
    min: usize,
    slices: &mut Vec<Slice>,
) -> Result<(), String> {
    let mut params = case.params.clone();
    params.warmup = SimDuration::from_millis(1);
    params.measure = SimDuration::from_millis(5);
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed().as_secs_f64() < seconds {
        let ((new_ns, (res, run_ns)), _) = spans.time("slice", |sp| {
            let (sim, new_ns) = sp.time("runtime.sim_new", |_| {
                Simulation::new(case.cfg.clone(), &mut *workload, params.clone())
            });
            (new_ns, sp.time("runtime.sim_run", |_| sim.run()))
        });
        let c = res.conservation;
        if !c.holds() || c.drops + c.sheds + c.aborts != 0 {
            return Err(format!(
                "timing slice {}: requests lost: {c:?}",
                slices.len()
            ));
        }
        slices.push(Slice {
            new_ns,
            run_ns,
            arrivals: c.arrivals,
        });
        done += 1;
    }
    Ok(())
}

/// Two full-horizon repetitions and the timing slices of one run.
pub struct Measured {
    pub reps: [Rep; 2],
    pub slices: Vec<Slice>,
}

/// Runs two full-horizon repetitions, which must agree exactly (every
/// count and `sim_*` value, the fingerprint), with timing slices after
/// each for as long as `seconds` leaves — so the slices span most of
/// the run, and a slow stretch of the host has to outlast it to spoil
/// their minimum. Spans go on track 0 (repetitions) and 1 (slices).
pub fn measure(
    case: &SimCase,
    spans: &mut Spans,
    seconds: f64,
    min_slices: usize,
) -> Result<Measured, String> {
    let start = Instant::now();
    let left = |share: f64| (seconds - start.elapsed().as_secs_f64()) * share;
    let mut slices = Vec::with_capacity(8192);
    let mut dataset = (case.build)();
    let rep = |spans: &mut Spans| {
        spans.set_track(0);
        spans.time("rep", |sp| one_rep(case, sp)).0
    };
    let first = rep(spans)?;
    spans.set_track(1);
    time_slices(
        case,
        &mut *dataset,
        spans,
        left(0.5),
        min_slices,
        &mut slices,
    )?;
    let second = rep(spans)?;
    if first.exact != second.exact {
        return Err(format!(
            "two repetitions on one seed differ:\n{:?}\nvs\n{:?}",
            first.exact, second.exact
        ));
    }
    spans.set_track(1);
    time_slices(
        case,
        &mut *dataset,
        spans,
        left(1.0),
        min_slices,
        &mut slices,
    )?;
    Ok(Measured {
        reps: [first, second],
        slices,
    })
}

/// A metric value as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Result of one run of one workload.
pub struct Record {
    /// Timing slices taken.
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub metrics: Vec<Metric>,
    /// Numbers recorded beside the metrics as information only.
    pub info: Vec<(String, f64)>,
}

/// Times set-up alone (dataset build + `Simulation::new`, dropped
/// unrun) until `seconds` have passed, and at least `min` times. Runs
/// first in the process, on a pristine heap, so the allocator state it
/// sees does not depend on the seed.
fn time_setups(case: &SimCase, seconds: f64, min: usize) -> Vec<f64> {
    const MAX: usize = 1 << 14;
    let start = Instant::now();
    let mut samples = Vec::with_capacity(MAX);
    while samples.len() < min || (samples.len() < MAX && start.elapsed().as_secs_f64() < seconds) {
        let t = Instant::now();
        let mut workload = (case.build)();
        let sim = Simulation::new(case.cfg.clone(), &mut *workload, case.params.clone());
        std::hint::black_box(&sim);
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

/// The end-to-end run of one workload: set-up timing first (a fifth of
/// `seconds`), then [`measure`]. Host times are minima (median and
/// quartiles go to `info`), everything else is exact.
pub fn end_to_end(
    case: &SimCase,
    spans: &mut Spans,
    seconds: f64,
    smoke: bool,
) -> Result<Record, String> {
    let start = Instant::now();
    let floor = if smoke { 1 } else { 5 };
    let setups = time_setups(case, seconds / 5.0, floor);
    let left = seconds - start.elapsed().as_secs_f64();
    let m = measure(case, spans, left, floor)?;

    let e = &m.reps[0].exact;
    let req = e.arrivals as f64;
    let slices: Vec<f64> = m.slices.iter().map(Slice::ns_per_req).collect();
    let full_horizon = m.reps.iter().map(|r| r.run_ns).min().expect("two reps") as f64 / req;
    let peak_mb = m.reps.iter().map(|r| r.peak_live).max().expect("two reps") as f64 / 1e6;
    let (host, setup) = (Summary::of(&slices), Summary::of(&setups));
    let metric = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
    let mut info = Vec::new();
    for (name, s) in [("host_ns_per_req", host), ("setup_s", setup)] {
        info.push((format!("{name}.samples"), s.n as f64));
        for (stat, v) in [
            ("q1", s.q1),
            ("median", s.median),
            ("q3", s.q3),
            ("max", s.max),
        ] {
            info.push((format!("{name}.{stat}"), v));
        }
    }
    info.push(("host_ns_per_req.full_horizon_min".to_string(), full_horizon));
    info.push(("latency_samples".to_string(), e.completed as f64));
    info.push((
        "samples_beyond_p999".to_string(),
        (e.completed / 1000) as f64,
    ));
    Ok(Record {
        reps: slices.len(),
        attempted: e.arrivals,
        failed: e.failed,
        fingerprint: e.fingerprint,
        metrics: vec![
            metric("host_ns_per_req", host.min, "ns"),
            metric("allocs_per_req", e.allocs.count as f64 / req, "count"),
            metric("alloc_bytes_per_req", e.allocs.bytes as f64 / req, "B"),
            metric("peak_live_mb", peak_mb, "MB"),
            metric("setup_s", setup.min, "s"),
            metric("sim_p999_us", e.p999_ns as f64 / 1e3, "sim_us"),
            metric("sim_p50_us", e.p50_ns as f64 / 1e3, "sim_us"),
            metric("sim_achieved_rps", e.achieved_rps, "sim_req/s"),
        ],
        info,
    })
}
