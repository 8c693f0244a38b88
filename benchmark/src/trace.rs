//! The traced run (`--trace 1`): per-layer numbers for one workload.
//!
//! Three parts, all in one process and one thread:
//! 1. the layer micro-cases of [`crate::layers`];
//! 2. side runs of the simulator on the `micro_knee` input — each
//!    observability plane alone against planes-off, each system, the
//!    lossy fault scenario, and the old saturation point;
//! 3. the workload's own repetitions and timing slices under the
//!    harness's span recorder (the same [`run::measure`] the end-to-end
//!    run uses), for as long as `--seconds` leaves, plus a replay of its
//!    request generator in isolation.
//!
//! End-to-end numbers never come from here.

use std::hint::black_box;
use std::time::Instant;

use desim::{ProfileConfig, Rng, SimDuration, SpanConfig, TelemetryConfig};
use faults::FaultScenario;
use paging::trace::Trace;
use runtime::sim::{MemObsConfig, RunParams};
use runtime::{ArrayIndexWorkload, Simulation, SystemConfig};

use crate::alloc::Snapshot;
use crate::layers::{self, Out};
use crate::metrics::{PLANES, SYSTEMS};
use crate::run::{self, Metric, Record, Slice};
use crate::spans::Spans;
use crate::workloads::{self, SimCase};

/// Rounds of each side run and of the request-generator replay; the
/// minimum host time is reported. Many short rounds, for the reason
/// the timing slices are short.
const SIDE_ROUNDS: usize = 12;

/// One side configuration of the simulator and its best round so far.
struct Side {
    cfg: SystemConfig,
    params: RunParams,
    pages: u64,
    ns_per_req: f64,
    allocs_per_req: f64,
    achieved_rps: f64,
}

impl Side {
    fn new(cfg: SystemConfig, params: RunParams, pages: u64) -> Side {
        Side {
            cfg,
            params,
            pages,
            ns_per_req: f64::INFINITY,
            allocs_per_req: 0.0,
            achieved_rps: 0.0,
        }
    }

    /// Runs the configuration once and keeps the round if it is the
    /// fastest yet.
    fn round(&mut self) -> Result<(), String> {
        let mut workload = ArrayIndexWorkload::new(self.pages);
        let sim = Simulation::new(self.cfg.clone(), &mut workload, self.params.clone());
        let before = Snapshot::now();
        let start = Instant::now();
        let res = sim.run();
        let ns = start.elapsed().as_nanos() as f64;
        let allocs = Snapshot::now().since(before).count;
        let c = res.conservation;
        if !c.holds() {
            return Err(format!("side run: conservation violated: {c:?}"));
        }
        if ns / (c.arrivals as f64) < self.ns_per_req {
            self.ns_per_req = ns / c.arrivals as f64;
            self.allocs_per_req = allocs as f64 / c.arrivals as f64;
            self.achieved_rps = res.recorder.achieved_rps();
        }
        Ok(())
    }
}

/// Turns on observability plane `plane` alone.
fn with_plane(mut p: RunParams, plane: &str) -> RunParams {
    match plane {
        "trace" => p.trace_capacity = Some(1 << 16),
        "spans" => p.spans = Some(SpanConfig::default()),
        "profile" => p.profile = Some(ProfileConfig::default()),
        "memory" => p.memory = Some(MemObsConfig::default()),
        "telemetry" => p.telemetry = Some(TelemetryConfig::default()),
        _ => unreachable!("unknown plane {plane}"),
    }
    p
}

fn side_runs(seed: u64, div: u64, out: &mut Out) -> Result<(), String> {
    // 5 ms warm-up + 15 ms measured: ~26 k requests, ~20 ms a round.
    let knee = |rps| RunParams {
        warmup: SimDuration::from_millis(5),
        ..workloads::params(seed, rps, 15, div)
    };
    let array = |cfg, params| Side::new(cfg, params, 65_536);
    let adios = SystemConfig::adios;
    let mut lossy = knee(1.3e6);
    lossy.faults = Some(FaultScenario::lossy());

    // Planes-off Adios first: the base of the overheads, and its system row.
    let mut sides = vec![array(adios(), knee(1.3e6))];
    sides.extend(PLANES.map(|plane| array(adios(), with_plane(knee(1.3e6), plane))));
    sides.extend([
        array(SystemConfig::dilos(), knee(1.3e6)),
        array(SystemConfig::dilos_p(), knee(1.3e6)),
        // Hermit's kernel path saturates well below the others' knee.
        array(SystemConfig::hermit(), knee(0.7e6)),
        array(adios(), lossy),
        // The `adios_saturation` point of BENCH_adios.json, for continuity.
        Side::new(adios(), knee(5.0e6), 16_384),
    ]);
    // Round-robin, so each configuration's rounds span the whole phase
    // and a slow stretch of the host hits all of them alike.
    for _ in 0..SIDE_ROUNDS {
        sides.iter_mut().try_for_each(Side::round)?;
    }

    let mut put = |name: String, v: f64| out.push((name, v));
    let (base, rest) = sides.split_first().expect("base comes first");
    let (planes, rest) = rest.split_at(PLANES.len());
    for (plane, on) in PLANES.iter().zip(planes) {
        put(
            format!("obs.{plane}.overhead_pct"),
            (on.ns_per_req / base.ns_per_req - 1.0) * 100.0,
        );
        put(format!("obs.{plane}.allocs_per_req"), on.allocs_per_req);
    }
    let systems = std::iter::once(base).chain(rest);
    for (system, side) in SYSTEMS.iter().zip(systems) {
        put(
            format!("runtime.system.{system}.host_ns_per_req"),
            side.ns_per_req,
        );
    }
    let [.., lossy, saturation] = rest else {
        unreachable!("five configurations follow the planes")
    };
    put(
        "runtime.faults_lossy.host_ns_per_req".into(),
        lossy.ns_per_req,
    );
    put(
        "runtime.saturation.sim_peak_rps".into(),
        saturation.achieved_rps,
    );
    put(
        "runtime.saturation.host_ns_per_req".into(),
        saturation.ns_per_req,
    );
    Ok(())
}

/// `sim.prefetch.hit_ratio` needs the memory observatory: one short
/// run of the workload's own case with that plane on.
fn prefetch_hit_ratio(case: &SimCase) -> Result<f64, String> {
    let mut params = case.params.clone();
    params.memory = Some(MemObsConfig::default());
    params.measure = SimDuration::from_nanos(params.measure.as_nanos() / 4);
    let mut workload = (case.build)();
    let res = Simulation::new(case.cfg.clone(), &mut *workload, params).run();
    let report = res.memory.ok_or("memory observatory produced no report")?;
    if !report.holds() {
        return Err("prefetch-fate conservation violated".into());
    }
    Ok(report.hit_rate())
}

/// Replays `requests` calls of the workload's request generator in
/// isolation, [`SIDE_ROUNDS`] times over one dataset, each from a
/// generator seeded like the simulator's (the stream is statistically
/// the same; the simulator interleaves its own draws). Returns the
/// fastest round's ns.
fn tracegen_ns(case: &SimCase, requests: u64, spans: &mut Spans) -> u64 {
    let mut workload = (case.build)();
    let mut buf = Trace::default();
    (0..SIDE_ROUNDS)
        .map(|_| {
            let mut rng = Rng::new(case.params.seed ^ 0xC0FF_EE00);
            let ((), ns) = spans.time("apps.tracegen", |_| {
                for _ in 0..requests {
                    workload.next_request_into(&mut rng, &mut buf);
                    black_box(&buf);
                }
            });
            ns
        })
        .min()
        .expect("SIDE_ROUNDS > 0")
}

/// Mean cost of recording one span, measured on a scratch recorder.
fn span_cost_ns() -> f64 {
    let mut scratch = Spans::new();
    let n = 4096;
    let start = Instant::now();
    for _ in 0..n {
        scratch.time("probe", |_| ());
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

pub fn run(
    case: &SimCase,
    seed: u64,
    seconds: f64,
    div: u64,
    spans: &mut Spans,
) -> Result<Record, String> {
    let start = Instant::now();
    let mut out = layers::run_all(seed, div)?;
    side_runs(seed, div, &mut out)?;
    let hit_ratio = prefetch_hit_ratio(case)?;

    let left = seconds - start.elapsed().as_secs_f64();
    let m = run::measure(case, spans, left, if div > 1 { 1 } else { 5 })?;
    let exact = &m.reps[0].exact;
    // The replay is sized like a timing slice, so the two compare.
    let slice_req = m.slices[0].arrivals;
    spans.set_track(2);
    let gen_ns = tracegen_ns(case, slice_req, spans) as f64 / slice_req as f64;
    if !spans.well_formed() {
        return Err("span tree malformed: a child exceeds its parent".into());
    }

    let rep_min = |f: fn(&run::Rep) -> u64| m.reps.iter().map(f).min().expect("two reps") as f64;
    let slice_min = |f: fn(&Slice) -> f64| m.slices.iter().map(f).fold(f64::INFINITY, f64::min);
    let run_ns = slice_min(Slice::ns_per_req);
    out.extend(
        [
            ("apps.build_s", rep_min(|r| r.build_ns) / 1e9),
            ("runtime.sim_new_ms", slice_min(|s| s.new_ns as f64) / 1e6),
            ("runtime.sim_run_ns_per_req", run_ns),
            ("apps.tracegen_ns_per_req", gen_ns),
            ("runtime.sim_run_self_ns_per_req", run_ns - gen_ns),
            ("core.run_json_us", rep_min(|r| r.json_ns) / 1e3),
            ("core.run_json_bytes", exact.json_bytes as f64),
            ("sim.prefetch.hit_ratio", hit_ratio),
        ]
        .map(|(n, v)| (n.to_string(), v)),
    );
    out.extend(exact.sim.iter().map(|(n, v)| (n.to_string(), *v)));

    // Tracing overhead: what the harness's three spans per slice cost,
    // against the slice's timed region. The end-to-end run takes the
    // same spans, so traced and untraced host times agree by design.
    let span_ns = span_cost_ns();
    let info = [
        ("trace.span_cost_ns", span_ns),
        (
            "trace.overhead_pct_of_slice",
            3.0 * span_ns / slice_min(|s| s.run_ns as f64) * 100.0,
        ),
        ("trace.tracegen_share_pct", gen_ns / run_ns * 100.0),
        (
            "runtime.sim_run_ns_per_req.full_horizon_min",
            rep_min(|r| r.run_ns) / exact.arrivals as f64,
        ),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .to_vec();

    let defs = crate::metrics::per_layer();
    let metrics: Vec<Metric> = defs
        .iter()
        .map(|d| {
            let value = out.iter().find(|(n, _)| *n == d.name).map(|(_, v)| *v);
            value
                .map(|v| (d.name.clone(), v, d.unit))
                .ok_or_else(|| format!("per-layer metric {} was not measured", d.name))
        })
        .collect::<Result<_, _>>()?;
    if let Some((extra, _)) = out.iter().find(|(n, _)| defs.iter().all(|d| d.name != *n)) {
        return Err(format!("measured metric {extra} is not in the catalogue"));
    }
    Ok(Record {
        reps: m.slices.len(),
        attempted: exact.arrivals,
        failed: exact.failed,
        fingerprint: exact.fingerprint,
        metrics,
        info,
    })
}
