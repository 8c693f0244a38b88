//! Per-layer micro-cases of the traced run: each times one layer's
//! public functions from outside, on inputs shaped like the workloads
//! (page counts, delays, message sizes), so a change in an end-to-end
//! metric can be localised to the layer that moved.
//!
//! Every case is registered with its state, then all cases run one
//! short round each (0.1-3 ms), [`ROUNDS`] times over, and report their
//! fastest round. Slowdowns of this box come in bursts: a short round
//! is likelier to fit between them, and going round-robin spreads each
//! case's rounds over the whole phase, so a burst hits all cases alike
//! instead of swallowing one.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use apps::silo::tpcc::TpccScale;
use apps::{FaissWorkload, LlmServeWorkload, MemcachedWorkload, RocksDbWorkload, TpccWorkload};
use desim::span::stage;
use desim::telemetry::HealthInput;
use desim::{
    CoreProfiler, CoreState, EventQueue, FlightRecorder, Histogram, Metrics, NoopTracer,
    ProfileConfig, RingTracer, Rng, SimDuration, SimTime, SpanConfig, SpanStore, TelemetryConfig,
    TraceEvent, Tracer,
};
use fabric::link::Link;
use fabric::nic::Verb;
use fabric::shard::ShardPolicy;
use fabric::{FabricParams, MemNode, QpId, RdmaNic, ShardMap};
use faults::{FaultPlane, FaultScenario};
use loadgen::{
    Breakdown, IngressFanIn, OpenLoop, Recorder, TenantMix, TenantPlane, TenantPriority, TenantSpec,
};
use paging::observe::{MemObsConfig, MemObservatory};
use paging::prefetch::{LeapDetector, SeqDetector};
use paging::trace::{CostModel, Trace, TraceRecorder};
use paging::{EvictionPolicy, PageCache, PageState};
use runtime::{ArrayIndexWorkload, Workload};
use unithread::cycles::{measure_heavy_switch, measure_unithread_switch};
use unithread::Runner;

use crate::alloc::Snapshot;

pub const ROUNDS: u64 = 25;

/// Pages of the array microbenchmark, the shape most cases borrow.
const PAGES: u64 = 65_536;

pub type Out = Vec<(String, f64)>;

/// One registered case: runs round `n` and returns its cost per call.
struct Case {
    name: String,
    round: Box<dyn FnMut(u64) -> f64>,
}

/// Inputs shared by every case, the cases registered so far, and the
/// metrics that need no timing rounds.
struct Cases {
    seed: u64,
    /// Divisor of every iteration count (`--smoke` shortens the run).
    div: u64,
    cases: Vec<Case>,
    out: Out,
}

impl Cases {
    fn iters(&self, iters: u64) -> u64 {
        (iters / self.div).max(1)
    }

    fn put(&mut self, name: &str, value: f64) {
        self.out.push((name.to_string(), value));
    }

    /// Registers a case whose round is `iters` calls of `body`, timed;
    /// `body` sees a call index that keeps counting across rounds, and
    /// the metric is the round's ns per call divided by `per`.
    fn timed(&mut self, name: &str, iters: u64, per: f64, mut body: impl FnMut(u64) + 'static) {
        let iters = self.iters(iters);
        self.cases.push(Case {
            name: name.to_string(),
            round: Box::new(move |round| {
                let start = Instant::now();
                for i in round * iters..(round + 1) * iters {
                    body(i);
                }
                start.elapsed().as_nanos() as f64 / iters as f64 / per
            }),
        });
    }

    /// Runs every registered case [`ROUNDS`] times, round-robin, and
    /// emits each one's fastest round.
    fn run(mut self) -> Out {
        let mut best = vec![f64::INFINITY; self.cases.len()];
        for round in 0..ROUNDS {
            for (case, best) in self.cases.iter_mut().zip(&mut best) {
                *best = best.min((case.round)(round));
            }
        }
        let timed = self.cases.into_iter().zip(best).map(|(c, b)| (c.name, b));
        self.out.extend(timed);
        self.out
    }
}

/// Pop one event and push its successor `delay(rng)` ns later, with
/// ~1 k events pending throughout — the wheel's steady state in a run.
fn wheel(c: &mut Cases, name: &str, delay: impl Fn(&mut Rng) -> u64 + 'static) {
    let mut rng = Rng::new(c.seed);
    let mut q = EventQueue::new();
    for i in 0..1024u32 {
        q.push(SimTime(delay(&mut rng)), i);
    }
    c.timed(name, 40_000, 1.0, move |_| {
        let (now, ev) = q.pop().expect("queue stays full");
        q.push(SimTime(now.0 + delay(&mut rng)), ev);
    });
}

/// A registry the size of the simulator's: 24 counters, 3 gauges.
const COUNTER_NAMES: [&str; 24] = [
    "c00",
    "c01",
    "c02",
    "c03",
    "c04",
    "c05",
    "c06",
    "c07",
    "c08",
    "c09",
    "c10",
    "c11",
    "c12",
    "c13",
    "c14",
    "c15",
    "c16",
    "c17",
    "c18",
    "c19",
    "c20",
    "c21",
    "drops",
    "completions",
];

fn desim_core(c: &mut Cases) {
    wheel(c, "desim.wheel.ns_per_event", |r| 1 + r.gen_range(100_000));
    wheel(c, "desim.wheel.far_ns_per_event", |r| {
        1_000_000 + r.gen_range(1_000_000_000)
    });

    let mut rng = Rng::new(c.seed);
    let values: Vec<u64> = (0..8192).map(|_| 500 + rng.gen_range(60_000)).collect();
    let mut hist = Histogram::new();
    c.timed("desim.hist.record_ns", 80_000, 1.0, move |i| {
        hist.record(values[i as usize & 8191]);
    });

    let mut metrics = Metrics::new();
    let ids: Vec<_> = COUNTER_NAMES.iter().map(|n| metrics.counter(n)).collect();
    c.timed("desim.metrics.counter_ns", 80_000, 1.0, move |i| {
        metrics.inc(ids[i as usize % ids.len()]);
    });
}

fn loadgen_cases(c: &mut Cases) {
    let mut source = OpenLoop::new(1.3e6, c.seed);
    c.timed("loadgen.arrivals.next_ns", 80_000, 1.0, move |_| {
        black_box(source.next_arrival());
    });

    let mut rec = Recorder::new(SimTime::ZERO, SimTime(u64::MAX), 2);
    c.timed("loadgen.recorder.record_ns", 80_000, 1.0, move |i| {
        let tx = SimTime(i * 700);
        let rx = SimTime(tx.0 + 5_000 + (i & 1023) * 8);
        rec.complete((i & 1) as u16, tx, rx, Breakdown::default());
    });

    let plane = TenantPlane::new(vec![
        TenantSpec::new(0.8e6, "array", TenantPriority::High),
        TenantSpec::new(0.3e6, "array", TenantPriority::Low),
        TenantSpec::new(0.2e6, "array", TenantPriority::Low),
    ]);
    let mut mix = TenantMix::new(&plane, c.seed);
    c.timed("loadgen.tenant.next_ns", 80_000, 1.0, move |_| {
        black_box(mix.next_arrival());
    });

    let mut fan_in = IngressFanIn::new(4, c.seed);
    c.timed("loadgen.ingress.steer_ns", 80_000, 1.0, move |_| {
        black_box(fan_in.steer());
    });
}

fn fabric_cases(c: &mut Cases) {
    let map = ShardMap::new(4, 2, PAGES, ShardPolicy::Hash);
    c.timed("fabric.shard.route_ns", 80_000, 1.0, move |i| {
        black_box(map.route(i.wrapping_mul(0x9E37_79B9) % PAGES, |node| node != 0));
    });

    // One 4 KB page READ per microsecond over 8 worker QPs, each CQE
    // consumed at its completion instant: the fault path's NIC usage.
    let mut nic = RdmaNic::new(FabricParams::default(), 8);
    let mut mem = MemNode::new(PAGES, 4096);
    let mut plane = FaultPlane::inert();
    let mut rng = Rng::new(c.seed);
    c.timed("fabric.nic.post_cqe_ns", 40_000, 1.0, move |i| {
        let now = SimTime((i + 1) * 1_000);
        let qp = QpId((i & 7) as u32);
        let page = rng.gen_range(PAGES);
        let done = nic
            .post(now, qp, Verb::Read, page, 4096, &mut mem, &mut plane)
            .expect("one outstanding request per QP");
        nic.on_cqe(done.done_at, qp);
    });

    let mut link = Link::new(&FabricParams::default());
    c.timed("fabric.link.transmit_ns", 80_000, 1.0, move |i| {
        black_box(link.transmit(SimTime((i + 1) * 400), 4096));
    });
}

fn paging_cases(c: &mut Cases) {
    let mut rng = Rng::new(c.seed);
    let mut local = PageCache::new(PAGES as usize, PAGES, EvictionPolicy::Clock);
    local.warm(PAGES as usize, &mut rng);
    c.timed("paging.cache.hit_ns", 80_000, 1.0, {
        let mut rng = rng.fork(1);
        move |i| {
            let page = rng.gen_range(PAGES);
            if local.lookup(page) == PageState::Resident {
                local.touch(page, i & 3 == 0);
            }
        }
    });

    // 20 % local, free list at the high watermark: every miss evicts.
    let capacity = PAGES as usize / 5;
    let mut cache = PageCache::new(capacity, PAGES, EvictionPolicy::Clock);
    cache.warm(capacity - capacity / 50, &mut rng);
    c.timed("paging.cache.fault_evict_ns", 40_000, 1.0, {
        let mut rng = rng.fork(2);
        move |_| {
            let page = rng.gen_range(PAGES);
            match cache.lookup(page) {
                PageState::Resident => cache.touch(page, false),
                PageState::InFlight => cache.complete_fetch(page),
                PageState::NotResident => {
                    if !cache.begin_fetch(page) {
                        cache.evict_one();
                        assert!(cache.begin_fetch(page), "a frame was just freed");
                    }
                    cache.complete_fetch(page);
                }
            }
        }
    });

    // scan_mix's fault stream: runs of 25 consecutive pages, then a jump.
    let mut seq = SeqDetector::new(8);
    let mut leap = LeapDetector::new(8, 8);
    let mut page = 0u64;
    c.timed("paging.prefetch.detect_ns", 80_000, 1.0, move |i| {
        page = if i % 25 == 0 {
            rng.gen_range(PAGES)
        } else {
            page + 1
        };
        black_box(seq.on_fault(page));
        black_box(leap.on_fault(page));
    });

    // One GET-shaped request: parse, two index probes, a value copy.
    c.timed("paging.trace.record_ns", 20_000, 1.0, |i| {
        let mut rec = TraceRecorder::new(CostModel::default());
        rec.compute_ns(120.0);
        rec.touch(i % PAGES, false);
        rec.touch((i * 31) % PAGES, false);
        rec.touch_range(((i * 17) % PAGES) * 4096 + 64, 128, false);
        rec.compute_ns(60.0);
        black_box(rec.finish(0, 56, 144));
    });
}

/// Builds one app dataset (timed once: builds are the expensive part),
/// counts allocations and page touches over one pass of its request
/// generator, and registers the generator's timing case.
fn app(c: &mut Cases, name: &str, per_round: u64, build: impl FnOnce() -> Box<dyn Workload>) {
    let requests = c.iters(per_round);
    let start = Instant::now();
    let mut workload = build();
    let build_s = start.elapsed().as_secs_f64();
    c.put(&format!("apps.{name}.build_s"), build_s);

    let mut rng = Rng::new(c.seed);
    let mut buf = Trace::default();
    let before = Snapshot::now();
    let mut pages = 0;
    for _ in 0..requests {
        workload.next_request_into(&mut rng, &mut buf);
        pages += buf.accesses();
    }
    let allocs = Snapshot::now().since(before).count;
    c.put(
        &format!("apps.{name}.allocs_per_req"),
        allocs as f64 / requests as f64,
    );
    c.put(
        &format!("apps.{name}.pages_per_req"),
        pages as f64 / requests as f64,
    );
    c.timed(
        &format!("apps.{name}.tracegen_ns_per_req"),
        per_round,
        1.0,
        move |_| {
            workload.next_request_into(&mut rng, &mut buf);
            black_box(&buf);
        },
    );
}

/// The six request generators, on datasets scaled down from the
/// workloads' so a traced run stays short; per-request cost depends on
/// the request shape, not on the dataset size. Request counts keep one
/// round at a few milliseconds.
fn apps_cases(c: &mut Cases) {
    app(c, "array", 100_000, || {
        Box::new(ArrayIndexWorkload::new(PAGES))
    });
    app(c, "kvs", 4_000, || {
        Box::new(MemcachedWorkload::new(50_000, 128).with_sets(0.3))
    });
    app(c, "rocksdb", 2_000, || {
        Box::new(RocksDbWorkload::new(20_000, 1024).with_mix(0.2, 100))
    });
    app(c, "tpcc", 400, || {
        Box::new(TpccWorkload::new(TpccScale::tiny(), 1))
    });
    app(c, "faiss", 10, || {
        Box::new(FaissWorkload::new(10_000, 32, 8, 1))
    });
    app(c, "llm", 4_000, || Box::new(LlmServeWorkload::new(64, 64)));
}

fn observability_cases(c: &mut Cases) {
    // One faulting request's span tree, as the yield path emits it.
    let mut store = SpanStore::new(SpanConfig::default());
    c.timed("desim.span.ns_per_req", 10_000, 1.0, move |i| {
        let t = i * 1_000;
        let at = |d: u64| SimTime(t + d);
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
        sb.phase(stage::NET, at(6_200));
        black_box(store.complete(sb, at(6_200), true));
    });

    let window_end = SimTime(u64::MAX / 2);
    let mut prof = CoreProfiler::new(SimTime::ZERO, window_end, &ProfileConfig::default());
    for core in 0..9 {
        prof.add_core(format!("core{core}"), core > 0);
    }
    c.timed("desim.profile.transition_ns", 80_000, 1.0, move |i| {
        let core = (i % 9) as usize;
        let now = (i + 1) * 90;
        prof.flush(core, SimTime(now));
        prof.phase(core, CoreState::Work, SimTime(now + 400));
        prof.set_gap(
            core,
            if i & 1 == 0 {
                CoreState::Park
            } else {
                CoreState::Idle
            },
        );
    });

    let mut metrics = Metrics::new();
    let ids: Vec<_> = COUNTER_NAMES.iter().map(|n| metrics.counter(n)).collect();
    let gauges =
        ["queue_depth", "qp_outstanding", "fault_episode_active"].map(|n| metrics.gauge(n));
    let mut recorder = FlightRecorder::new(TelemetryConfig::default(), &metrics);
    let health: Vec<HealthInput> = (0..9)
        .map(|i| {
            recorder.register_health(format!("qp{i}"));
            HealthInput {
                outstanding: i as f64,
                capacity: 64.0,
                ..Default::default()
            }
        })
        .collect();
    let tick = recorder.tick_period().as_nanos();
    c.timed("desim.telemetry.tick_us", 1_000, 1e3, move |i| {
        let now = SimTime((i + 1) * tick);
        for id in &ids {
            metrics.add(*id, 130);
        }
        for g in gauges {
            metrics.gauge_set(g, now, (i & 15) as f64);
        }
        recorder.on_completion(SimDuration::from_nanos(8_000 + (i & 255) * 20));
        recorder.tick(now, &metrics, &health, &mut NoopTracer);
    });

    let mut ring = RingTracer::new(1 << 16);
    c.timed("desim.trace.emit_ns", 80_000, 1.0, move |i| {
        ring.record(TraceEvent {
            at: SimTime(i),
            component: "fault",
            name: "fetch_done",
            a: i,
            b: i >> 3,
        });
    });

    let mut obs = MemObservatory::new(MemObsConfig::default(), PAGES, 1);
    let mut rng = Rng::new(c.seed);
    let mut last = 0u64;
    c.timed("paging.observe.touch_ns", 40_000, 1.0, move |i| {
        let page = rng.gen_range(PAGES);
        black_box(obs.on_touch(page, 0, i * 770, Some(page as i64 - last as i64)));
        last = page;
    });
}

fn faults_case(c: &mut Cases) {
    let mut plane = FaultPlane::new(FaultScenario::lossy(), c.seed);
    c.timed("faults.plane.decide_ns", 80_000, 1.0, move |i| {
        let at = SimTime(i * 25);
        black_box(plane.packet_lost(at));
        black_box(plane.cqe_error(at));
        black_box(plane.link_penalty(at));
    });
}

/// The reply the native runner's request `key` must produce.
fn native_reply(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Serves requests `keys` on `runner` in batches of 32: each `spawn` →
/// 2 × `yield_now` → reply → recycle. Returns how many replies came
/// back and their sum.
fn native_serve(runner: &mut Runner, keys: std::ops::Range<u64>) -> Result<(u64, u64), String> {
    let replies = Rc::new(Cell::new((0u64, 0u64)));
    let mut keys = keys.peekable();
    while keys.peek().is_some() {
        for key in keys.by_ref().take(32) {
            let sink = Rc::clone(&replies);
            runner
                .spawn(&key.to_le_bytes(), move |y| {
                    let mut req = [0u8; 8];
                    req.copy_from_slice(&y.payload()[..8]);
                    y.yield_now();
                    let reply = native_reply(u64::from_le_bytes(req));
                    y.yield_now();
                    y.payload()[8..16].copy_from_slice(&reply.to_le_bytes());
                    let (n, sum) = sink.get();
                    sink.set((n + 1, sum.wrapping_add(reply)));
                })
                .map_err(|e| format!("native runner: spawn failed: {e:?}"))?;
        }
        runner.run_until_idle();
    }
    Ok(replies.get())
}

/// The one non-simulated hot path, on one thread (`unithread::mt::MdNode`
/// is left out: it needs more OS threads than this box has cores).
/// Every reply of every round is verified; a wrong one fails the run
/// through `failure`.
fn unithread_cases(c: &mut Cases, failure: &Rc<Cell<Option<String>>>) {
    let switches = c.iters(4_000) as usize;
    c.cases.push(Case {
        name: "unithread.switch.cycles".into(),
        round: Box::new(move |_| measure_unithread_switch(1, switches).cycles_per_switch),
    });
    c.cases.push(Case {
        name: "unithread.heavy_switch.cycles".into(),
        round: Box::new(move |_| measure_heavy_switch(1, switches).cycles_per_switch),
    });

    let mut runner = Runner::new(64, 32 * 1024, 128);
    c.timed("unithread.runner.spawn_ns", 20_000, 1.0, move |_| {
        runner.spawn(b"req", |_| ()).expect("pool has free buffers");
        runner.run_until_idle();
    });
    const YIELDS: u64 = 1_000;
    let mut runner = Runner::new(64, 32 * 1024, 128);
    c.timed("unithread.runner.yield_ns", 20, YIELDS as f64, move |_| {
        runner
            .spawn(b"req", |y| (0..YIELDS).for_each(|_| y.yield_now()))
            .expect("pool has free buffers");
        runner.run_until_idle();
    });

    // A whole number of batches of 32 per round.
    let requests = c.iters(8_000).div_ceil(32) * 32;
    let mut runner = Runner::new(64, 32 * 1024, 128);
    let before = Snapshot::now();
    let served = native_serve(&mut runner, 0..requests);
    let allocs = Snapshot::now().since(before).count;
    c.put(
        "unithread.runner.allocs_per_req",
        allocs as f64 / requests as f64,
    );
    let failure = Rc::clone(failure);
    let check = move |served: Result<(u64, u64), String>, keys: std::ops::Range<u64>| {
        let want = (requests, keys.map(native_reply).fold(0, u64::wrapping_add));
        match served {
            Ok(got) if got == want => {}
            Ok(got) => failure.set(Some(format!(
                "native runner: replies {got:?}, want {want:?}"
            ))),
            Err(e) => failure.set(Some(e)),
        }
    };
    check(served, 0..requests);
    c.cases.push(Case {
        name: "unithread.runner.ns_per_req".into(),
        round: Box::new(move |round| {
            let keys = round * requests..(round + 1) * requests;
            let start = Instant::now();
            let served = native_serve(&mut runner, keys.clone());
            let ns = start.elapsed().as_nanos() as f64 / requests as f64;
            check(served, keys);
            ns
        }),
    });
}

/// Runs every micro-case. Fails only when the native runner's replies
/// are wrong.
pub fn run_all(seed: u64, div: u64) -> Result<Out, String> {
    let mut c = Cases {
        seed,
        div,
        cases: Vec::new(),
        out: Out::new(),
    };
    let failure = Rc::new(Cell::new(None));
    desim_core(&mut c);
    loadgen_cases(&mut c);
    fabric_cases(&mut c);
    paging_cases(&mut c);
    apps_cases(&mut c);
    observability_cases(&mut c);
    faults_case(&mut c);
    unithread_cases(&mut c, &failure);
    let out = c.run();
    match failure.take() {
        Some(e) => Err(e),
        None => Ok(out),
    }
}
