//! Steady-state observation allocates nothing: after a warm-up, the
//! per-event entry points of every plane `desim` owns — span build and
//! completion, the trace ring at capacity, core-state transitions,
//! queue probes at bounded depth, flight-recorder ticks inside the
//! reserved horizon — must not touch the allocator; nor may interning a
//! registry name.

use desim::profile::{CoreProfiler, CoreState, ProfileConfig, QueueProbe};
use desim::span::{stage, SpanConfig, SpanStore};
use desim::telemetry::{FlightRecorder, HealthInput, TelemetryConfig};
use desim::trace::{code, intern};
use desim::{Metrics, NoopTracer, RingTracer, SimDuration, SimTime, TraceEvent, Tracer};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const WARM_UP: u64 = 1_000;
const MEASURED: u64 = 10_000;

/// Runs `step(i)` `WARM_UP` times, then `MEASURED` more times under the
/// allocation count, which must stay at zero.
fn assert_alloc_free(what: &str, mut step: impl FnMut(u64)) {
    (0..WARM_UP).for_each(&mut step);
    let before = counting_alloc::allocs();
    (WARM_UP..WARM_UP + MEASURED).for_each(&mut step);
    let allocs = counting_alloc::allocs() - before;
    assert_eq!(
        allocs, 0,
        "{what}: allocations in {MEASURED} warmed-up steps"
    );
}

/// One faulting request's life, as the yield path emits it.
fn one_request(store: &mut SpanStore, i: u64) {
    let at = |d: u64| SimTime(i * 1_000 + d);
    let mut sb = store.builder(0, at(0));
    sb.phase(stage::NET, at(1_000));
    sb.phase(stage::DISPATCH, at(1_100));
    sb.phase(stage::QUEUE, at(1_300));
    sb.begin_segment(at(1_300), 3);
    sb.phase(stage::HANDLE, at(1_700));
    sb.begin_fault(at(1_700), i);
    sb.fetch(at(1_800), at(1_900), at(4_400), i, 3);
    sb.phase(stage::CTX, at(1_850));
    sb.end_segment(at(1_850));
    sb.phase(stage::FETCH_WAIT, at(4_400));
    sb.phase(stage::QUEUE, at(4_500));
    sb.end_fault(at(4_500));
    sb.begin_segment(at(4_500), 3);
    sb.phase(stage::HANDLE, at(4_900));
    sb.end_segment(at(4_900));
    sb.phase(stage::REPLY, at(5_200));
    // Every fourth request is slower, so an exemplar store keeps
    // replacing what it retains.
    let rx = at(6_200 + (i % 4) * 100);
    sb.phase(stage::NET, rx);
    store.complete(sb, rx, true);
}

#[test]
fn span_build_and_complete_do_not_allocate() {
    for (what, cfg) in [
        ("spans, default (sparse)", SpanConfig::default()),
        ("spans, exemplars", SpanConfig::with_exemplars(90.0, 8)),
    ] {
        let mut store = SpanStore::new(cfg);
        assert_alloc_free(what, |i| one_request(&mut store, i));
        assert_eq!(store.finish().measured, WARM_UP + MEASURED);
    }
}

#[test]
fn trace_ring_at_capacity_does_not_allocate() {
    // Smaller than the warm-up: the measured records all overwrite.
    let mut ring = RingTracer::new(512);
    assert_alloc_free("trace ring", |i| {
        ring.emit(SimTime(i), code::NIC_FETCH_DONE, i, i >> 3);
        // The interning entry point, on a name outside the closed table.
        ring.record(TraceEvent {
            at: SimTime(i),
            component: "fault",
            name: "fetch_done",
            a: i,
            b: i >> 3,
        });
    });
    assert_eq!(ring.len(), 512);
    assert_eq!(ring.dropped(), 2 * (WARM_UP + MEASURED) - 512);
}

#[test]
fn core_transitions_do_not_allocate() {
    let mut prof = CoreProfiler::new(SimTime(50_000), SimTime(700_000), &ProfileConfig);
    for core in 0..9 {
        prof.add_core(format!("core{core}"), core > 0);
    }
    assert_alloc_free("core profiler", |i| {
        let core = (i % 9) as usize;
        let now = (i + 1) * 90;
        prof.flush(core, SimTime(now));
        prof.phase(core, CoreState::Work, SimTime(now + 400));
        let gap = [CoreState::Park, CoreState::Idle][(i & 1) as usize];
        prof.set_gap(core, gap);
    });
}

#[test]
fn queue_probes_at_bounded_depth_do_not_allocate() {
    let mut q = QueueProbe::new("q".to_string(), SimTime(10_000), SimTime(900_000));
    assert_alloc_free("queue probe", |i| {
        let now = i * 100;
        // Depth cycles through 1..=8.
        for k in 0..=(i % 8) {
            q.enqueue(SimTime(now + k));
        }
        for k in 0..=(i % 8) {
            q.dequeue(SimTime(now + 50 + k));
        }
    });
    assert_eq!(q.depth(), 0);
}

#[test]
fn flight_recorder_ticks_inside_the_reserved_horizon_do_not_allocate() {
    let mut metrics = Metrics::new();
    let counters = ["completions", "drops", "faults"].map(|n| metrics.counter(n));
    let gauge = metrics.gauge("queue_depth");
    let mut rec = FlightRecorder::new(TelemetryConfig::default(), &metrics);
    let health: Vec<HealthInput> = (0..9)
        .map(|i| {
            rec.register_health(format!("qp{i}"));
            HealthInput {
                outstanding: i as f64,
                capacity: 64.0,
                ..Default::default()
            }
        })
        .collect();
    rec.reserve((WARM_UP + MEASURED) as usize);
    let tick = rec.tick_period().as_nanos();
    assert_alloc_free("flight recorder", |i| {
        let now = SimTime((i + 1) * tick);
        for c in counters {
            metrics.add(c, 130);
        }
        // Steady load: a breach transition appends to the event log,
        // which is as long as the run is eventful, not a per-tick cost.
        metrics.gauge_set(gauge, now, 3.0 + (i & 1) as f64);
        rec.on_completion(SimDuration::from_nanos(8_000 + (i & 255) * 20));
        rec.tick(now, &metrics, &health, &mut NoopTracer);
    });
}

#[test]
fn interning_a_short_name_does_not_allocate() {
    // First sight and every later one alike: a short name is formatted
    // on the stack and stored in static memory.
    let before = counting_alloc::allocs();
    let stored = [
        intern(format_args!("shard{}.fetches", 11)),
        intern(format_args!("q.w{}.runnable.depth", 23)),
    ];
    assert_eq!(counting_alloc::allocs() - before, 0, "first sight");
    assert_alloc_free("name interner hit", |i| {
        let name = match i % 2 {
            0 => intern(format_args!("shard{}.fetches", 11)),
            _ => intern("q.w23.runnable.depth"),
        };
        assert!(std::ptr::eq(name, stored[(i % 2) as usize]));
    });
}
