use super::observe::Cqe;
use super::*;
use crate::config::{
    DispatchPolicy, QueueModel, SystemKind, WorkerSelect, DISPATCH_COST, HANDOFF_COST, RECYCLE_COST,
};
use crate::workload::ArrayIndexWorkload;
use fabric::nic::Verb;

/// A small working set so tests run fast: 16 Ki pages, 20 % local.
fn small_workload() -> ArrayIndexWorkload {
    ArrayIndexWorkload::new(16_384)
}

fn quick_params(rps: f64) -> RunParams {
    RunParams {
        offered_rps: rps,
        seed: 42,
        warmup: SimDuration::from_millis(2),
        measure: SimDuration::from_millis(10),
        local_mem_fraction: 0.2,
        keep_breakdowns: false,
        burst: None,
        trace_capacity: None,
        spans: None,
        faults: None,
        telemetry: None,
        profile: None,
        memory: None,
        tenants: None,
    }
}

fn run(kind: SystemKind, rps: f64) -> RunResult {
    let mut w = small_workload();
    run_one(SystemConfig::for_kind(kind), &mut w, quick_params(rps))
}

fn run_faulty(cfg: SystemConfig, rps: f64, scenario: FaultScenario) -> RunResult {
    let mut w = small_workload();
    run_one(
        cfg,
        &mut w,
        RunParams {
            faults: Some(scenario),
            telemetry: None,
            ..quick_params(rps)
        },
    )
}

/// Every error CQE either fails over to the next replica or
/// terminates its chain — no fetch can vanish in between. On
/// sharded runs the same partition must hold shard by shard:
/// failovers on one shard cannot paper over chain failures on
/// another.
fn assert_fault_invariant(res: &RunResult) {
    let c = |name: &str| res.metrics.counter(name).unwrap_or(0);
    assert_eq!(
        c("fetch_cqe_errors"),
        c("fetch_failovers") + c("fetch_chain_failures"),
        "error CQEs must be exactly partitioned into failovers and chain failures"
    );
    for s in 0..res.shards.len() {
        let c = |field| entity_counter(res, "shard", s, field);
        assert_eq!(
            c("fetch_cqe_errors"),
            c("fetch_failovers") + c("fetch_chain_failures"),
            "shard {s}: error CQEs must partition into failovers and chain failures"
        );
    }
}

/// Counter `{entity}{i}.{field}` of a run's registry, 0 when absent.
fn entity_counter(res: &RunResult, entity: &str, i: usize, field: &str) -> u64 {
    res.metrics
        .counter(&format!("{entity}{i}.{field}"))
        .unwrap_or(0)
}

#[test]
fn lossy_fabric_retransmits_but_conserves_every_request() {
    for kind in [SystemKind::Dilos, SystemKind::Adios] {
        let res = run_faulty(
            SystemConfig::for_kind(kind),
            400_000.0,
            FaultScenario::lossy(),
        );
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        assert!(
            c("fetch_retransmits") > 0,
            "{}: 2% loss must trigger retransmissions",
            kind.name()
        );
        // 7 RC retries put retry exhaustion at ~loss^8: every fetch
        // eventually completes and nothing is dropped.
        assert_eq!(res.recorder.dropped(), 0, "{}", kind.name());
        assert_eq!(c("fetch_aborts"), 0, "{}", kind.name());
        assert_fault_invariant(&res);
        assert!(res.recorder.completed_in_window() > 500);
    }
}

#[test]
fn memnode_crash_fails_over_to_replica() {
    let cfg = SystemConfig {
        memnode_replicas: 2,
        ..SystemConfig::adios()
    };
    let res = run_faulty(cfg, 400_000.0, FaultScenario::crash());
    let c = |name| res.metrics.counter(name).unwrap_or(0);
    assert!(
        c("fetch_failovers") > 0,
        "outage fetches must divert to the secondary replica"
    );
    assert_eq!(res.recorder.dropped(), 0, "replica absorbs the outage");
    assert_fault_invariant(&res);
}

#[test]
fn memnode_crash_without_replica_aborts_chains() {
    // A failed chain burns ~3.8 ms of RTO ladders before its error
    // CQE surfaces; keep measuring long enough to observe the
    // aborts the 10 ms outage provokes.
    let mut w = small_workload();
    let res = run_one(
        SystemConfig::adios(),
        &mut w,
        RunParams {
            faults: Some(FaultScenario::crash()),
            telemetry: None,
            measure: SimDuration::from_millis(20),
            ..quick_params(400_000.0)
        },
    );
    let c = |name| res.metrics.counter(name).unwrap_or(0);
    // With a single replica the failover chain re-targets the same
    // dead node and exhausts its attempt budget.
    assert!(c("fetch_chain_failures") > 0);
    assert!(c("fetch_aborts") > 0);
    assert!(res.recorder.dropped() > 0);
    assert_fault_invariant(&res);
}

#[test]
fn stall_episodes_inflate_busywait_spin() {
    let base = run(SystemKind::Dilos, 400_000.0);
    let stalled = run_faulty(SystemConfig::dilos(), 400_000.0, FaultScenario::stall());
    assert!(
        stalled.stats.spin_ns > base.stats.spin_ns,
        "stalled memnode must lengthen busy-wait spins: {} vs {}",
        stalled.stats.spin_ns,
        base.stats.spin_ns
    );
    assert_fault_invariant(&stalled);
}

#[test]
fn fault_runs_are_deterministic() {
    let a = run_faulty(SystemConfig::adios(), 500_000.0, FaultScenario::lossy());
    let b = run_faulty(SystemConfig::adios(), 500_000.0, FaultScenario::lossy());
    assert_eq!(
        a.recorder.completed_in_window(),
        b.recorder.completed_in_window()
    );
    assert_eq!(
        a.recorder.overall().percentile(99.9),
        b.recorder.overall().percentile(99.9)
    );
    assert_eq!(
        a.metrics.counter("fetch_retransmits"),
        b.metrics.counter("fetch_retransmits")
    );
    assert_eq!(
        a.metrics.counter("faults.injected_losses"),
        b.metrics.counter("faults.injected_losses")
    );
}

#[test]
fn low_load_latency_is_microsecond_scale() {
    for kind in [SystemKind::Dilos, SystemKind::Adios] {
        let res = run(kind, 100_000.0);
        let p50 = res.recorder.overall().percentile(50.0);
        assert!(
            (1_000..20_000).contains(&p50),
            "{}: p50 = {p50} ns",
            kind.name()
        );
        assert_eq!(res.recorder.dropped(), 0, "{}", kind.name());
        assert!(res.recorder.completed_in_window() > 500);
    }
}

#[test]
fn determinism_same_seed_same_results() {
    let a = run(SystemKind::Adios, 500_000.0);
    let b = run(SystemKind::Adios, 500_000.0);
    assert_eq!(
        a.recorder.completed_in_window(),
        b.recorder.completed_in_window()
    );
    assert_eq!(
        a.recorder.overall().percentile(99.0),
        b.recorder.overall().percentile(99.0)
    );
    assert_eq!(a.stats.prefetches, b.stats.prefetches);
}

#[test]
fn adios_beats_dilos_at_high_load() {
    // Past DiLOS' saturation point, Adios must deliver both more
    // throughput and a dramatically lower tail (the paper's headline
    // result).
    let dilos = run(SystemKind::Dilos, 2_200_000.0);
    let adios = run(SystemKind::Adios, 2_200_000.0);
    assert!(
        adios.recorder.achieved_rps() > dilos.recorder.achieved_rps() * 1.2,
        "throughput: adios {} vs dilos {}",
        adios.recorder.achieved_rps(),
        dilos.recorder.achieved_rps()
    );
}

#[test]
fn adios_spin_time_is_negligible() {
    let dilos = run(SystemKind::Dilos, 1_200_000.0);
    let adios = run(SystemKind::Adios, 1_200_000.0);
    assert!(
        dilos.spin_fraction() > 0.2,
        "dilos spin fraction = {}",
        dilos.spin_fraction()
    );
    assert!(
        adios.spin_fraction() < 0.05,
        "adios spin fraction = {}",
        adios.spin_fraction()
    );
}

#[test]
fn rdma_utilization_higher_for_adios() {
    let dilos = run(SystemKind::Dilos, 2_500_000.0);
    let adios = run(SystemKind::Adios, 2_500_000.0);
    assert!(
        adios.rdma_data_util > dilos.rdma_data_util * 1.2,
        "util: adios {} vs dilos {}",
        adios.rdma_data_util,
        dilos.rdma_data_util
    );
}

#[test]
fn hermit_is_slowest() {
    let hermit = run(SystemKind::Hermit, 1_200_000.0);
    let dilos = run(SystemKind::Dilos, 1_200_000.0);
    assert!(
        hermit.recorder.achieved_rps() < dilos.recorder.achieved_rps(),
        "hermit {} vs dilos {}",
        hermit.recorder.achieved_rps(),
        dilos.recorder.achieved_rps()
    );
    assert!(
        hermit.recorder.overall().percentile(99.9) > dilos.recorder.overall().percentile(99.9),
        "hermit tail should be worse"
    );
}

#[test]
fn all_local_memory_means_no_fetches() {
    let mut params = quick_params(500_000.0);
    params.local_mem_fraction = 1.0;
    let mut w = small_workload();
    let res = run_one(SystemConfig::adios(), &mut w, params);
    assert_eq!(res.cache.misses, 0);
    assert_eq!(res.stats.prefetches, 0);
    assert!(res.rdma_data_util < 1e-6);
    assert!(res.recorder.completed_in_window() > 1000);
}

#[test]
fn overload_drops_requests_and_caps_throughput() {
    let res = run(SystemKind::Dilos, 5_000_000.0);
    assert!(res.recorder.dropped() > 0, "expected drops at 5 MRPS");
    let achieved = res.recorder.achieved_rps();
    assert!(
        achieved < 3_000_000.0,
        "achieved {achieved} should be capped by saturation"
    );
}

#[test]
fn preemption_happens_only_in_dilos_p() {
    // A long-compute workload (SCAN-like) to give probes a chance.
    struct LongCompute;
    impl Workload for LongCompute {
        fn classes(&self) -> &'static [&'static str] {
            &["long"]
        }
        fn total_pages(&self) -> u64 {
            4096
        }
        fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
            let steps = (0..20)
                .map(|_| paging::trace::Step {
                    compute_ns: 1_000,
                    access: Some(paging::trace::Access {
                        page: rng.gen_range(4096),
                        write: false,
                    }),
                })
                .collect();
            *buf = Trace {
                class: 0,
                steps,
                request_bytes: 64,
                reply_bytes: 64,
            };
        }
    }
    let params = quick_params(50_000.0);
    let p = run_one(SystemConfig::dilos_p(), &mut LongCompute, params.clone());
    let d = run_one(SystemConfig::dilos(), &mut LongCompute, params);
    assert!(p.stats.preemptions > 0, "DiLOS-P must preempt long scans");
    assert_eq!(d.stats.preemptions, 0, "DiLOS never preempts");
}

#[test]
fn breakdown_components_populated() {
    let mut params = quick_params(1_000_000.0);
    params.keep_breakdowns = true;
    let mut w = small_workload();
    let mut res = run_one(SystemConfig::dilos(), &mut w, params.clone());
    let p50 = res.recorder.breakdown_at(50.0);
    assert!(p50.mean.handling_ns > 0.0);
    // 80 % of requests fault; at P50 the fetch shows up.
    assert!(p50.mean.rdma_ns > 0.0);

    let mut w2 = small_workload();
    let mut adios = run_one(SystemConfig::adios(), &mut w2, params);
    let a99 = adios.breakdown99();
    assert!(a99.mean.busywait_ns < 100.0, "adios must not spin: {a99:?}");
}

impl RunResult {
    fn breakdown99(&mut self) -> loadgen::record::BreakdownAt {
        self.recorder.breakdown_at(99.0)
    }
}

#[test]
fn writebacks_happen_with_dirty_pages() {
    struct WriteHeavy;
    impl Workload for WriteHeavy {
        fn classes(&self) -> &'static [&'static str] {
            &["write"]
        }
        fn total_pages(&self) -> u64 {
            8192
        }
        fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
            *buf = Trace {
                class: 0,
                steps: vec![paging::trace::Step {
                    compute_ns: 300,
                    access: Some(paging::trace::Access {
                        page: rng.gen_range(8192),
                        write: true,
                    }),
                }],
                request_bytes: 64,
                reply_bytes: 64,
            };
        }
    }
    let res = run_one(
        SystemConfig::adios(),
        &mut WriteHeavy,
        quick_params(500_000.0),
    );
    assert!(res.stats.writebacks > 0, "dirty evictions must write back");
    assert!(res.rdma_ctrl_util > 0.0);
}

#[test]
fn qp_depth_one_forces_handler_pauses() {
    let mut cfg = SystemConfig::adios();
    cfg.fabric.qp_depth = 1;
    let mut w = small_workload();
    let res = run_one(cfg, &mut w, quick_params(1_500_000.0));
    assert!(
        res.stats.qp_stalls > 0,
        "depth-1 QPs must pause the fault handler (§5.2 mechanism)"
    );
    assert!(
        res.recorder.completed_in_window() > 1_000,
        "still makes progress"
    );
}

#[test]
fn hot_page_faults_coalesce() {
    // Every request hits the same handful of pages: concurrent
    // faults must wait on the in-flight fetch, not duplicate it.
    struct HotPages;
    impl Workload for HotPages {
        fn classes(&self) -> &'static [&'static str] {
            &["hot"]
        }
        fn total_pages(&self) -> u64 {
            4096
        }
        fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
            *buf = Trace {
                class: 0,
                steps: vec![paging::trace::Step {
                    compute_ns: 300,
                    access: Some(paging::trace::Access {
                        page: rng.gen_range(4), // 4 hot pages
                        write: false,
                    }),
                }],
                request_bytes: 32,
                reply_bytes: 32,
            };
        }
        fn warm_pages(&self) -> Option<Vec<u64>> {
            Some(vec![4000, 4001]) // keep the hot pages cold initially
        }
    }
    let mut params = quick_params(2_000_000.0);
    params.local_mem_fraction = 0.05;
    // The hot set becomes resident within microseconds, so the
    // coalescing happens at the very start of the run: measure
    // from t = 0 or the windowed counters will miss it.
    params.warmup = SimDuration::ZERO;
    let res = run_one(SystemConfig::adios(), &mut HotPages, params);
    assert!(
        res.stats.coalesced > 0,
        "concurrent faults on hot pages must coalesce"
    );
    // Far fewer fetches than requests: the hot set stays resident.
    assert!(res.cache.misses < res.recorder.completed_in_window() / 10);
}

#[test]
fn stealing_happens_and_is_counted() {
    let cfg = SystemConfig {
        queue_model: QueueModel::PerWorkerStealing,
        ..SystemConfig::adios()
    };
    let mut w = small_workload();
    let res = run_one(cfg, &mut w, quick_params(1_500_000.0));
    assert!(
        res.stats.steals > 0,
        "random steering must imbalance queues"
    );
}

#[test]
fn infiniswap_resume_delay_slows_remote_requests() {
    let mut w = small_workload();
    let inf = run_one(SystemConfig::infiniswap(), &mut w, quick_params(150_000.0));
    let adios = run_one(SystemConfig::adios(), &mut w, quick_params(150_000.0));
    let (i50, a50) = (
        inf.recorder.overall().percentile(50.0),
        adios.recorder.overall().percentile(50.0),
    );
    assert!(
        i50 > a50 * 4,
        "kernel wake-up delay must dominate: infiniswap {i50} vs adios {a50}"
    );
    assert!(inf.spin_fraction() < 0.05, "infiniswap yields, never spins");
}

#[test]
fn queue_depth_gauge_records_burst_dynamics() {
    // MMPP bursts and steady Poisson at the same 1.6 Mrps mean: the
    // bursts must show in the window's queue-depth gauge.
    let bursty = RunParams {
        burst: Some((1.9, SimDuration::from_micros(400))),
        ..quick_params(1_600_000.0)
    };
    let mut w = small_workload();
    let steady = run_one(SystemConfig::adios(), &mut w, quick_params(1_600_000.0));
    let burst = run_one(SystemConfig::adios(), &mut w, bursty.clone());
    let queue = |r: &RunResult| *r.metrics.gauge("queue_depth").expect("always registered");
    let (s, b) = (queue(&steady), queue(&burst));
    assert!(
        b.max > s.max,
        "window peak: bursty {} vs steady {}",
        b.max,
        s.max
    );
    assert!(
        b.mean > s.mean,
        "window mean: bursty {} vs steady {}",
        b.mean,
        s.mean
    );

    // The over-time view is the flight recorder's sample of the same
    // gauge, one sample per tick.
    let observed = RunParams {
        telemetry: Some(TelemetryConfig::default()),
        ..bursty
    };
    let res = run_one(SystemConfig::adios(), &mut w, observed);
    let report = res.telemetry.expect("telemetry requested");
    let series = report.gauge_series("queue_depth").expect("sampled");
    assert!(report.ticks > 0);
    assert_eq!(series.samples(), report.ticks, "one sample per tick");
    assert_eq!(
        series.lasts().len() as u64,
        report.ticks,
        "one tick per bucket"
    );
    assert!(series.maxima().iter().any(|&(_, depth)| depth > 0.0));
}

#[test]
fn huge_page_fetches_inflate_latency() {
    let mut cfg = SystemConfig::adios();
    cfg.fetch_page_bytes = 2 * 1024 * 1024;
    cfg.speculative_readahead = 0.0;
    cfg.prefetcher = crate::config::PrefetcherKind::None;
    // Below the 2 MB variant's (tiny) link capacity, so remote
    // requests actually complete and dominate the median.
    let mut w = small_workload();
    let huge = run_one(cfg, &mut w, quick_params(8_000.0));
    let small = run_one(SystemConfig::adios(), &mut w, quick_params(8_000.0));
    assert!(
        huge.recorder.overall().percentile(50.0) > small.recorder.overall().percentile(50.0) * 10,
        "512x I/O amplification must show: {} vs {}",
        huge.recorder.overall().percentile(50.0),
        small.recorder.overall().percentile(50.0)
    );
}

#[test]
fn near_zero_load_runs_cleanly() {
    // A window that may see zero or a handful of arrivals must not
    // wedge the event loop or the utilisation accounting.
    let mut w = small_workload();
    let res = run_one(SystemConfig::adios(), &mut w, quick_params(100.0));
    assert_eq!(res.recorder.dropped(), 0);
    assert!(res.rdma_data_util < 0.01);
}

#[test]
#[should_panic(expected = "at least one worker")]
fn zero_workers_rejected() {
    let cfg = SystemConfig {
        workers: 0,
        ..SystemConfig::adios()
    };
    let mut w = small_workload();
    let _ = run_one(cfg, &mut w, quick_params(1_000.0));
}

#[test]
fn conservation_completed_plus_dropped() {
    let res = run(SystemKind::Adios, 800_000.0);
    // Within the measurement window, throughput ≈ offered − drops.
    let offered_in_window = res.offered_rps * res.window.as_secs_f64();
    let acc = res.recorder.completed_in_window() + res.recorder.dropped();
    let ratio = acc as f64 / offered_in_window;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "conservation ratio {ratio} (completed+dropped {acc} vs offered {offered_in_window})"
    );
}

#[test]
fn warmup_activity_excluded_from_window_counters() {
    // A warmup longer than the measurement window: with cumulative
    // counters (the old bug) spin_ns would cover warmup + drain and
    // spin_fraction could exceed 1; windowed counters keep it sane.
    let mut params = quick_params(1_500_000.0);
    params.warmup = SimDuration::from_millis(8);
    params.measure = SimDuration::from_millis(4);
    let mut w = small_workload();
    let res = run_one(SystemConfig::dilos(), &mut w, params);
    assert!(res.stats.spin_ns > 0, "DiLOS busy-waits under load");
    assert!(
        res.spin_fraction() <= 1.0 + 1e-9,
        "spin fraction {} must not exceed total worker time",
        res.spin_fraction()
    );
    // The snapshot window covers the measurement phase only, not
    // warmup or the post-measure drain.
    let win = res.metrics.window_ns as f64;
    let measure = SimDuration::from_millis(4).as_nanos() as f64;
    assert!(
        win >= measure && win < measure * 1.5,
        "window {win} ns should be ≈ measure window {measure} ns"
    );
}

#[test]
fn trace_records_virtual_time_events() {
    let mut params = quick_params(1_000_000.0);
    params.trace_capacity = Some(50_000);
    let mut w = small_workload();
    let res = run_one(SystemConfig::adios(), &mut w, params);
    let trace: Vec<_> = res.trace.expect("trace requested").iter().collect();
    assert!(!trace.is_empty());
    assert!(
        trace.windows(2).all(|w| w[0].at <= w[1].at),
        "trace must be sorted by virtual time"
    );
    let names: std::collections::HashSet<_> = trace.iter().map(|e| (e.component, e.name)).collect();
    assert!(names.contains(&("dispatch", "arrival")));
    assert!(names.contains(&("fault", "miss")));
    assert!(names.contains(&("worker", "complete")));
}

#[test]
fn metrics_registry_matches_stats_view() {
    let mut w = small_workload();
    let res = run_one(SystemConfig::dilos(), &mut w, quick_params(1_500_000.0));
    let m = &res.metrics;
    assert_eq!(m.counter("spin_ns"), Some(res.stats.spin_ns));
    assert_eq!(m.counter("preemptions"), Some(res.stats.preemptions));
    assert_eq!(m.counter("qp_stalls"), Some(res.stats.qp_stalls));
    assert_eq!(m.counter("coalesced"), Some(res.stats.coalesced));
    assert_eq!(m.counter("writebacks"), Some(res.stats.writebacks));
    assert_eq!(m.counter("steals"), Some(res.stats.steals));
    // Completions flow through both the recorder and the registry.
    // The recorder windows on each completion's rx timestamp while
    // the registry re-bases at the first *event* past each boundary
    // (and worker virtual clocks lead the event clock), so the two
    // may disagree by the couple of requests in flight at a
    // boundary — but no more.
    let reg = m.counter("completions").unwrap();
    let rec = res.recorder.completed_in_window();
    assert!(
        reg.abs_diff(rec) <= 8,
        "registry completions {reg} vs recorder {rec}"
    );
    // Gauges exist and saw activity.
    let qd = m.gauge("queue_depth").expect("queue_depth registered");
    assert!(qd.max >= 1.0);
    assert!(m.gauge("qp_outstanding").is_some());
}

// ----- memnode sharding ---------------------------------------------

#[test]
fn single_shard_runs_register_no_per_shard_counters() {
    let mut w = small_workload();
    let res = run_one(SystemConfig::adios(), &mut w, quick_params(400_000.0));
    assert!(
        res.metrics.counter("shard0.fetches").is_none(),
        "per-shard counters must stay out of single-shard registries"
    );
    assert!(res.metrics.gauge("shard0.qp_outstanding").is_none());
    assert_eq!(
        res.shards.len(),
        1,
        "the lone shard still gets a window view"
    );
}

#[test]
fn sharded_run_spreads_fetches_across_every_shard() {
    let cfg = SystemConfig {
        memnode_shards: 4,
        ..SystemConfig::adios()
    };
    let mut w = small_workload();
    let res = run_one(cfg, &mut w, quick_params(400_000.0));
    assert_eq!(res.shards.len(), 4);
    for s in 0..4 {
        let fetched = entity_counter(&res, "shard", s, "fetches");
        assert!(fetched > 0, "shard {s} saw no fetches");
        assert!(
            res.shards[s].data_bytes > 0,
            "shard {s} moved no data on its rail"
        );
    }
    assert_eq!(res.recorder.dropped(), 0);
    assert_fault_invariant(&res);
}

#[test]
fn sharded_crash_fails_over_one_shard_and_spares_the_rest() {
    // Down global node 0 — shard 0's primary under the packed chain
    // layout — with no steady error rate (the canonical `crash`
    // scenario adds 0.1 % background CQE errors, which would touch
    // every shard). Shard 0's pages must walk its replica chain;
    // shards 1–3 must never see an error.
    let cfg = SystemConfig {
        memnode_shards: 4,
        memnode_replicas: 2,
        ..SystemConfig::adios()
    };
    let res = run_faulty(cfg, 400_000.0, FaultScenario::crash_node(0));
    let c = |s, field| entity_counter(&res, "shard", s, field);
    assert!(
        c(0, "fetch_failovers") > 0,
        "shard 0's outage must divert onto its replica"
    );
    for s in 1..4 {
        assert_eq!(
            c(s, "fetch_cqe_errors"),
            0,
            "shard {s} shares no fate with shard 0's dead primary"
        );
    }
    assert_eq!(res.recorder.dropped(), 0, "replica absorbs the outage");
    assert_fault_invariant(&res);
}

#[test]
fn sharded_crash_of_a_non_primary_node_spares_shard_zero() {
    // Down shard 1's primary (global node 2 when replicas = 2):
    // re-mapping must stay contained to shard 1.
    let cfg = SystemConfig {
        memnode_shards: 4,
        memnode_replicas: 2,
        ..SystemConfig::adios()
    };
    let res = run_faulty(cfg, 400_000.0, FaultScenario::crash_node(2));
    let c = |s, field| entity_counter(&res, "shard", s, field);
    assert!(c(1, "fetch_failovers") > 0, "shard 1 must fail over");
    for s in [0usize, 2, 3] {
        assert_eq!(c(s, "fetch_cqe_errors"), 0, "shard {s} must be untouched");
    }
    assert_eq!(res.recorder.dropped(), 0);
    assert_fault_invariant(&res);
}

#[test]
#[should_panic(expected = "memnode_shards must be at least 1")]
fn zero_shards_is_rejected_at_run_start() {
    let cfg = SystemConfig {
        memnode_shards: 0,
        ..SystemConfig::adios()
    };
    let mut w = small_workload();
    let _ = run_one(cfg, &mut w, quick_params(100_000.0));
}

// ----- tenant plane --------------------------------------------------

use loadgen::{TenantPlane, TenantPriority, TenantSpec};

fn tenant_params(plane: TenantPlane) -> RunParams {
    RunParams {
        offered_rps: plane.total_rate_rps(),
        tenants: Some(plane),
        ..quick_params(0.0)
    }
}

#[test]
fn single_tenant_plane_registers_no_tenant_counters() {
    let plane = TenantPlane::new(vec![TenantSpec::new(
        400_000.0,
        "array",
        TenantPriority::High,
    )]);
    let mut w = small_workload();
    let res = run_one(SystemConfig::adios(), &mut w, tenant_params(plane));
    assert!(
        res.metrics.counter("tenant0.arrivals").is_none(),
        "tenantN.* counters must stay out of single-tenant registries"
    );
    assert_eq!(res.tenants.len(), 1, "the lone tenant still gets a window");
    let t = &res.tenants[0];
    assert_eq!(t.priority, "high");
    assert!(
        t.completed > 1_000,
        "tenant saw {} completions",
        t.completed
    );
    assert_eq!(t.completed, res.recorder.completed_in_window());
    assert_eq!(t.sheds + t.drops, 0);
    assert!(t.slo_ok.is_none(), "no SLO rule, no verdict");
    assert!(res.conservation.holds());
    assert!(res.conservation.sheds == 0 && res.conservation.aborts == 0);
}

#[test]
fn overloaded_mix_sheds_low_priority_and_conserves_requests() {
    // A high-priority tenant comfortably inside capacity plus a
    // low-priority flood far past saturation, with the watermark
    // set low enough to engage: shedding must land entirely on the
    // flood while the partition identities hold.
    let plane = TenantPlane::new(vec![
        TenantSpec::new(300_000.0, "array", TenantPriority::High),
        TenantSpec::new(6_000_000.0, "array", TenantPriority::Low),
    ])
    .with_shed_watermark(64);
    let mut w = small_workload();
    let res = run_one(SystemConfig::adios(), &mut w, tenant_params(plane));
    assert_eq!(res.tenants.len(), 2);
    let (hi, lo) = (&res.tenants[0], &res.tenants[1]);
    assert_eq!(hi.sheds, 0, "watermark must never shed high priority");
    assert!(lo.sheds > 1_000, "the flood must shed (got {})", lo.sheds);
    assert!(lo.admitted < lo.arrivals, "admission never bit");
    assert!(hi.completed > 1_000 && lo.completed > 0);
    // Windowed per-tenant views partition the recorder's view.
    assert_eq!(
        hi.completed + lo.completed,
        res.recorder.completed_in_window()
    );
    assert_eq!(
        hi.sheds + lo.sheds + hi.drops + lo.drops,
        res.recorder.dropped()
    );
    // Registry counters partition the global ones (whole run, not
    // just the window).
    let c = |t, field| entity_counter(&res, "tenant", t, field);
    assert_eq!(
        c(0, "completions") + c(1, "completions"),
        res.metrics.counter("completions").unwrap_or(0)
    );
    assert!(c(0, "arrivals") > 0 && c(1, "arrivals") > 0);
    assert_eq!(c(0, "sheds"), 0);
    assert!(c(1, "sheds") > 0);
    assert!(res.conservation.holds(), "{:?}", res.conservation);
    // Tenant counts are windowed, conservation spans the whole run.
    assert!(hi.sheds + lo.sheds <= res.conservation.sheds);
}

#[test]
fn token_bucket_polices_a_tenant_to_its_configured_rate() {
    // One tenant offering 600k but policed to 200k: admitted
    // throughput must track the bucket, not the offered rate, and
    // the excess must surface as sheds.
    let plane = TenantPlane::new(vec![
        TenantSpec::new(600_000.0, "array", TenantPriority::High).with_bucket(200_000.0, 64),
        TenantSpec::new(100_000.0, "array", TenantPriority::High),
    ]);
    let mut w = small_workload();
    let res = run_one(SystemConfig::adios(), &mut w, tenant_params(plane));
    let t0 = &res.tenants[0];
    let window_s = SimDuration::from_millis(10).as_secs_f64();
    let admitted_rps = t0.admitted as f64 / window_s;
    assert!(
        (150_000.0..=210_000.0).contains(&admitted_rps),
        "policed tenant admitted {admitted_rps:.0} rps, want ~200k"
    );
    assert!(t0.sheds > 1_000, "policing must shed the excess");
    assert_eq!(res.tenants[1].sheds, 0, "unpoliced tenant is untouched");
    assert!(res.conservation.holds());
}

#[test]
fn per_tenant_slo_verdicts_follow_the_latency_split() {
    // Same workload, wildly different objectives: a 1 s objective
    // must pass and a 1 ns objective must fail on the same run.
    let generous = desim::parse_slo_spec("lat<1s:0.01@1ms").unwrap();
    let impossible = desim::parse_slo_spec("lat<1ns:0.01@1ms").unwrap();
    let plane = TenantPlane::new(vec![
        TenantSpec::new(200_000.0, "array", TenantPriority::High).with_slo(generous),
        TenantSpec::new(200_000.0, "array", TenantPriority::High).with_slo(impossible),
    ]);
    let mut w = small_workload();
    let res = run_one(SystemConfig::adios(), &mut w, tenant_params(plane));
    assert_eq!(res.tenants[0].slo_ok, Some(true));
    assert_eq!(res.tenants[1].slo_ok, Some(false));
}

#[test]
fn conservation_tracked_on_legacy_single_stream_runs() {
    let res = run(SystemKind::Adios, 400_000.0);
    assert!(res.conservation.holds(), "{:?}", res.conservation);
    assert!(res.conservation.arrivals > 0);
    assert_eq!(res.conservation.sheds, 0, "no plane, no sheds");
    assert!(res.tenants.is_empty(), "no plane, no tenant windows");
}

// ----- dispatcher scaling --------------------------------------------

/// Scalar single-queue reference dispatcher: replays a charge log
/// with the exact arithmetic the pre-scaling hot path used
/// (`free = max(free, now) + cost`) and asserts the multi-queue
/// implementation produced the identical admit/handoff sequence.
fn assert_matches_scalar_reference(cfg: &SystemConfig, log: &[DispatchCharge]) {
    assert!(!log.is_empty(), "the oracle needs a non-empty charge log");
    let mut free = SimTime::ZERO;
    for (i, c) in log.iter().enumerate() {
        assert_eq!(c.disp, 0, "charge {i}: SingleFcfs must serve on core 0");
        let cost = match c.op {
            DispatchOp::Admit => DISPATCH_COST + cfg.client_stack,
            DispatchOp::PushHandoff | DispatchOp::PullHandoff => HANDOFF_COST,
            DispatchOp::Recycle => RECYCLE_COST,
        };
        let start = free.max(c.now);
        let end = start + cost;
        assert_eq!(
            (c.start, c.end),
            (start, end),
            "charge {i} ({:?} at {:?}) diverges from the scalar reference",
            c.op,
            c.now
        );
        free = end;
    }
}

#[test]
fn single_fcfs_matches_scalar_reference_dispatcher() {
    // Lock-step differential oracle, at one dispatcher (the default
    // machine) and at four (extra cores must change nothing under
    // SingleFcfs — the shared queue head serialises on core 0).
    for ndisp in [1, 4] {
        let cfg = SystemConfig {
            dispatchers: ndisp,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let res = run_one(cfg.clone(), &mut w, quick_params(900_000.0));
        let kinds: std::collections::HashSet<_> = res.dispatcher_log.iter().map(|c| c.op).collect();
        assert!(
            kinds.contains(&DispatchOp::Admit) && kinds.contains(&DispatchOp::Recycle),
            "the run must exercise admits and delegated recycles"
        );
        assert_matches_scalar_reference(&cfg, &res.dispatcher_log);
    }
}

#[test]
fn single_dispatcher_registers_no_per_dispatcher_counters() {
    let res = run(SystemKind::Adios, 400_000.0);
    assert!(
        res.metrics
            .counters
            .iter()
            .all(|(name, _)| !name.starts_with("dispatcher")),
        "dispatcher counters must not exist on single-dispatcher runs"
    );
}

#[test]
fn single_fcfs_extra_dispatchers_stay_idle() {
    let cfg = SystemConfig {
        dispatchers: 4,
        ..SystemConfig::adios()
    };
    let mut w = small_workload();
    let res = run_one(cfg, &mut w, quick_params(900_000.0));
    let c = |d, field| entity_counter(&res, "dispatcher", d, field);
    assert!(c(0, "admitted") > 0, "core 0 serves every admission");
    for d in 1..4 {
        assert_eq!(c(d, "admitted"), 0, "SingleFcfs keeps core {d} idle");
        assert_eq!(c(d, "steals"), 0);
        assert_eq!(c(d, "combines"), 0);
    }
    assert!(res.conservation.holds(), "{:?}", res.conservation);
}

#[test]
fn work_stealing_steals_under_skew_and_conserves() {
    let cfg = SystemConfig {
        dispatchers: 4,
        dispatch_policy: DispatchPolicy::WorkStealing,
        workers: 32,
        ..SystemConfig::adios()
    };
    let mut w = small_workload();
    let res = run_one(
        cfg,
        &mut w,
        RunParams {
            local_mem_fraction: 1.0,
            ..quick_params(5_000_000.0)
        },
    );
    let c = |d, field| entity_counter(&res, "dispatcher", d, field);
    assert!(
        (0..4).all(|d| c(d, "admitted") > 0),
        "RSS fan-in plus stealing must spread admissions over every core"
    );
    let steals: u64 = (0..4).map(|d| c(d, "steals")).sum();
    assert!(steals > 0, "overload must trigger steals from hot slots");
    assert!(res.conservation.holds(), "{:?}", res.conservation);
}

#[test]
fn flat_combining_amortises_admissions() {
    let cfg = SystemConfig {
        dispatchers: 4,
        dispatch_policy: DispatchPolicy::FlatCombining,
        workers: 32,
        ..SystemConfig::adios()
    };
    let mut w = small_workload();
    let res = run_one(
        cfg,
        &mut w,
        RunParams {
            local_mem_fraction: 1.0,
            ..quick_params(5_000_000.0)
        },
    );
    let sum = |field| {
        (0..4)
            .map(|d| entity_counter(&res, "dispatcher", d, field))
            .sum::<u64>()
    };
    let (admitted, combines) = (sum("admitted"), sum("combines"));
    assert!(combines > 0, "a saturated combiner must batch admissions");
    assert!(
        combines < admitted,
        "every batch has an opener that pays full cost"
    );
    assert!(res.conservation.holds(), "{:?}", res.conservation);
}

#[test]
fn work_stealing_scales_past_the_single_queue_knee() {
    // Dispatcher-bound regime: all-local requests on a wide worker
    // pool, offered far past the single-dispatcher admission rate.
    // Four stealing dispatchers must beat one shared FCFS queue by
    // a wide margin on the same machine.
    let params = || RunParams {
        local_mem_fraction: 1.0,
        ..quick_params(5_000_000.0)
    };
    let fcfs = {
        let cfg = SystemConfig {
            dispatchers: 4,
            workers: 32,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        run_one(cfg, &mut w, params()).recorder.achieved_rps()
    };
    let ws = {
        let cfg = SystemConfig {
            dispatchers: 4,
            dispatch_policy: DispatchPolicy::WorkStealing,
            workers: 32,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        run_one(cfg, &mut w, params()).recorder.achieved_rps()
    };
    assert!(
        ws > fcfs * 1.3,
        "work stealing {ws:.0} rps must clearly beat single FCFS {fcfs:.0} rps"
    );
}

/// Planes wider than any fixed name table: 20 stealing dispatchers,
/// 10 tenants and 24 profiled workers. Every per-entity instrument is
/// registered exactly once and sampled by the flight recorder, and the
/// literal `dispatcher_names::STEALS` table the perf ledger reads is
/// the registry's own names.
#[test]
fn wide_planes_register_and_sample_every_entity_once() {
    let (ndisp, ntenants, nworkers) = (20, 10, 24);
    let cfg = SystemConfig {
        dispatchers: ndisp,
        dispatch_policy: DispatchPolicy::WorkStealing,
        workers: nworkers,
        ..SystemConfig::adios()
    };
    let plane = TenantPlane::new(
        (0..ntenants)
            .map(|t| {
                let prio = [TenantPriority::High, TenantPriority::Low][t % 2];
                TenantSpec::new(150_000.0, "array", prio)
            })
            .collect(),
    );
    let mut w = small_workload();
    let res = run_one(
        cfg,
        &mut w,
        RunParams {
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(3),
            profile: Some(desim::ProfileConfig::default()),
            telemetry: Some(desim::TelemetryConfig::default()),
            ..tenant_params(plane)
        },
    );
    let telemetry = res.telemetry.as_ref().expect("telemetry was enabled");
    let counter_names: Vec<&str> = res.metrics.counters.iter().map(|c| c.0).collect();
    let gauge_names: Vec<&str> = res.metrics.gauges.iter().map(|g| g.name).collect();
    let once = |names: &[&str], name: &str| names.iter().filter(|n| **n == name).count() == 1;
    let per = |n: usize, entity: &str, fields: &[&str]| -> Vec<String> {
        (0..n)
            .flat_map(|i| fields.iter().map(move |f| format!("{entity}{i}.{f}")))
            .collect()
    };
    let counters = per(ndisp, "dispatcher", &["admitted", "steals", "combines"])
        .into_iter()
        .chain(per(
            ntenants,
            "tenant",
            &["arrivals", "admitted", "completions", "sheds", "drops"],
        ));
    for name in counters {
        assert!(once(&counter_names, &name), "{name}");
        let series = telemetry.counter_series(&name);
        assert!(series.is_some_and(|s| s.samples() > 0), "{name} unsampled");
    }
    let gauges = per(ndisp, "dispatcher", &["busy_fraction"])
        .into_iter()
        .chain((0..ndisp).map(|d| format!("q.d{d}.ingress.depth")))
        .chain((0..nworkers).map(|w| format!("q.w{w}.runnable.depth")));
    for name in gauges {
        assert!(once(&gauge_names, &name), "{name}");
        let series = telemetry.gauge_series(&name);
        assert!(series.is_some_and(|s| s.samples() > 0), "{name} unsampled");
    }
    for (d, name) in desim::trace::dispatcher_names::STEALS.iter().enumerate() {
        assert_eq!(*name, format!("dispatcher{d}.steals"));
    }
    assert!(res.conservation.holds(), "{:?}", res.conservation);
}

/// Red-green regression for the shed watermark: the depth it
/// compares must sum the admission backlog over *every* ingress
/// slot. Under the old single-slot accounting, four slots of 10
/// waiting admits each would read as depth 10 and the watermark at
/// 32 would never trip.
#[test]
fn shed_watermark_sums_backlog_across_all_ingress_slots() {
    let plane = || {
        TenantPlane::new(vec![
            TenantSpec::new(100_000.0, "array", TenantPriority::High),
            TenantSpec::new(100_000.0, "array", TenantPriority::Low),
        ])
        .with_shed_watermark(32)
    };
    let cfg = SystemConfig {
        dispatchers: 4,
        dispatch_policy: DispatchPolicy::FlatCombining,
        ..SystemConfig::adios()
    };
    let mut w = small_workload();
    let mut sim = Simulation::new(
        cfg,
        &mut w,
        RunParams {
            tenants: Some(plane()),
            ..quick_params(100_000.0)
        },
    );
    // Every slot individually under the watermark, the machine as a
    // whole past it: the low-priority request must shed.
    sim.admission_backlog = vec![10, 10, 10, 10];
    let lo = sim.alloc_req(Trace::default(), SimTime::ZERO, 1);
    sim.cons.arrivals += 1;
    assert!(
        sim.tenant_admission(SimTime::ZERO, lo),
        "summed ingress backlog (40) must trip the watermark (32)"
    );
    // High priority is never watermark-shed, whatever the depth.
    let hi = sim.alloc_req(Trace::default(), SimTime::ZERO, 0);
    sim.cons.arrivals += 1;
    assert!(!sim.tenant_admission(SimTime::ZERO, hi));
    // And a genuinely shallow machine admits low priority.
    sim.admission_backlog = vec![10, 0, 0, 0];
    let lo2 = sim.alloc_req(Trace::default(), SimTime::ZERO, 1);
    sim.cons.arrivals += 1;
    assert!(!sim.tenant_admission(SimTime::ZERO, lo2));
}

/// PF-aware selection is a hand-rolled early-exit loop; hold it to
/// the reference it replaced — `min_by_key((Σ rails outstanding,
/// index))` over idle workers — across random busy masks and
/// outstanding vectors on 1, 4 and 8 rails, including all-busy
/// (`None`) and all-zero states.
#[test]
fn pf_aware_pick_matches_min_by_key_reference() {
    let mut rng = Rng::new(0x91C4);
    for shards in [1usize, 4, 8] {
        let cfg = SystemConfig {
            memnode_shards: shards,
            ..SystemConfig::adios()
        };
        assert_eq!(cfg.worker_select, WorkerSelect::PfAware);
        let mut w = small_workload();
        let mut sim = Simulation::new(cfg, &mut w, quick_params(100_000.0));
        let n = sim.workers.len();
        let (mut none, mut zero_exit, mut by_count) = (0, 0, 0);
        for trial in 0..600 {
            // Steer every (worker, rail) towards a random target
            // depth; every fourth trial drains to all-zero.
            for i in 0..n {
                let qp = sim.workers[i].qp;
                for rail in 0..shards {
                    let target = match trial % 4 {
                        0 => 0,
                        _ => rng.gen_range(4) as u32,
                    };
                    while sim.nics[rail].outstanding(qp) < target {
                        sim.post(SimTime::ZERO, rail, qp, Verb::Read, 0, 0).unwrap();
                    }
                    while sim.nics[rail].outstanding(qp) > target {
                        sim.consume_cqe(SimTime::ZERO, rail, qp, Cqe::Retire { qp });
                    }
                }
            }
            // Busy mask: random density, all-busy every seventh.
            let density = rng.gen_range(5);
            for worker in &mut sim.workers {
                worker.busy = trial % 7 == 0 || rng.gen_range(4) < density;
            }
            let count = |sim: &Simulation, i: usize| -> u32 {
                let qp = sim.workers[i].qp;
                sim.nics.iter().map(|nic| nic.outstanding(qp)).sum()
            };
            let want = (0..n)
                .filter(|&i| !sim.workers[i].busy)
                .min_by_key(|&i| (count(&sim, i), i));
            assert_eq!(
                sim.pick_idle_worker(),
                want,
                "{shards} rails, trial {trial}"
            );
            match want {
                None => none += 1,
                Some(i) if count(&sim, i) == 0 => zero_exit += 1,
                Some(_) => by_count += 1,
            }
        }
        assert!(none > 50 && zero_exit > 50 && by_count > 50);
    }
}

/// The telemetry report annotates the fault episodes the plane was
/// armed with (regression: the list was always empty because the
/// scenario is consumed when the plane is armed): link episodes cover
/// every series, node episodes the shard whose chain the node is in.
#[test]
fn telemetry_report_annotates_the_armed_fault_episodes() {
    let episodes = |cfg: SystemConfig, faults: Option<FaultScenario>| {
        let mut w = small_workload();
        let params = RunParams {
            faults,
            telemetry: Some(desim::TelemetryConfig::default()),
            ..quick_params(400_000.0)
        };
        let report = run_one(cfg, &mut w, params).telemetry;
        report.expect("telemetry was enabled").episodes
    };
    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);

    let lossy = episodes(SystemConfig::adios(), Some(FaultScenario::lossy()));
    assert_eq!(lossy.len(), 1);
    assert_eq!(lossy[0].kind, "link_degraded");
    assert_eq!((lossy[0].start, lossy[0].end), (ms(5), ms(7)));
    assert_eq!(lossy[0].affected, ["*"]);

    // Node 5 of a 4 × 2 layout is shard 2's secondary.
    let sharded = SystemConfig {
        memnode_shards: 4,
        memnode_replicas: 2,
        ..SystemConfig::adios()
    };
    let crash = episodes(sharded, Some(FaultScenario::crash_node(5)));
    assert_eq!(crash.len(), 1);
    assert_eq!(crash[0].kind, "node_down");
    assert_eq!(crash[0].affected, ["shard2"]);

    assert!(episodes(SystemConfig::adios(), None).is_empty());
}

/// Runs `sim`'s event loop as `Simulation::run` does, minus the window
/// bookkeeping and the final report, calling `after` behind every
/// event: for tests that watch the model's own state as it runs.
fn drain(sim: &mut Simulation, mut after: impl FnMut(&Simulation)) {
    let drain_end = sim.measure_end + SimDuration::from_millis(20);
    while let Some((now, ev)) = sim.events.pop() {
        if now > drain_end {
            break;
        }
        sim.last_now = now;
        sim.handle(now, ev);
        after(sim);
    }
}

/// The pending-set ceiling (DESIGN.md §9) is tight enough to mean
/// something: at 20 Mrps — four times what the dispatcher admits — a
/// full rx ring of admit ticks stays queued, within 15 % of the bound
/// `handle` asserts.
#[test]
fn overload_runs_the_event_queue_close_to_its_ceiling() {
    let mut w = small_workload();
    let mut sim = Simulation::new(SystemConfig::adios(), &mut w, quick_params(20_000_000.0));
    sim.schedule_next_arrival();
    let mut deepest = 0;
    drain(&mut sim, |sim| deepest = deepest.max(sim.events.len()));
    let ceiling = sim.event_ceiling;
    assert!(deepest > sim.cfg.fabric.rx_ring_entries, "{deepest}");
    assert!(deepest * 100 >= ceiling * 85, "{deepest} of {ceiling}");
}

/// ... and it is checked: a run that outgrows its ceiling stops at the
/// first handler that leaves the queue over it (debug builds).
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "over the ceiling")]
fn event_queue_over_its_ceiling_panics() {
    let mut w = small_workload();
    let mut sim = Simulation::new(SystemConfig::adios(), &mut w, quick_params(1_000_000.0));
    sim.event_ceiling = 4;
    sim.run();
}

/// What every superseded completion must have done (see
/// [`StaleCompletion`]): freed exactly its own QP slot and left the
/// waiters of the page's later fetch parked.
fn assert_stale_completion_is_clean(s: &StaleCompletion) {
    assert_eq!(s.outstanding.0 - s.outstanding.1, 1, "{s:?}");
    assert_eq!(s.on_qp.0 - s.on_qp.1, 1, "{s:?}");
    assert_eq!(s.later_waiters.0, s.later_waiters.1, "{s:?}");
}

/// ROADMAP invariant item (v), step by step. Request A faults on a
/// page and parks; B, whose virtual clock runs past the fetch's
/// completion, consumes it early; the page is evicted; C re-faults on
/// it — all before the event clock reaches the first fetch's
/// `FetchDone`. That stale event must free exactly its own QP slot and
/// wake exactly A (its own waiter), while C stays parked on the later
/// fetch; A then re-executes its access and joins C there.
#[test]
fn stale_fetch_completion_frees_its_slot_and_wakes_only_its_own_waiter() {
    use paging::trace::{Access, Step};
    use paging::PageState;
    let mut w = small_workload();
    let cfg = SystemConfig {
        prefetcher: crate::config::PrefetcherKind::None,
        speculative_readahead: 0.0,
        ..SystemConfig::adios()
    };
    let params = RunParams {
        local_mem_fraction: 0.002,
        ..quick_params(100_000.0)
    };
    let mut sim = Simulation::new(cfg, &mut w, params);
    let page = (0..16_384)
        .find(|&p| sim.cache.lookup(p) == PageState::NotResident)
        .expect("a non-resident page");
    // One access to `page` after `compute_ns` of work: the compute is
    // how far the worker's virtual clock runs ahead of the event clock.
    let start = |sim: &mut Simulation, worker: usize, compute_ns: u32| {
        let access = Some(Access { page, write: false });
        let trace = Trace {
            steps: vec![Step { compute_ns, access }],
            ..Trace::default()
        };
        let req = sim.alloc_req(trace, SimTime::ZERO, 0);
        sim.cons.arrivals += 1;
        sim.workers[worker].busy = true;
        sim.on_worker_wake(SimTime::ZERO, worker, Cont::Start { req });
        req
    };
    let _a = start(&mut sim, 0, 0);
    assert_eq!(sim.cache.lookup(page), PageState::InFlight);
    assert_eq!(sim.outstanding, 1);
    // B arrives at the access 20 µs of virtual time later: the fetch
    // (≈ 2.5 µs) is long done, its event still queued.
    start(&mut sim, 1, 20_000);
    assert_eq!(sim.cache.lookup(page), PageState::Resident);
    assert_eq!(sim.cons.completions, 1, "B ran to its end");
    // The reclaimer's part, by hand.
    while sim.cache.lookup(page) == PageState::Resident {
        sim.cache.evict_one().expect("the page is evictable");
    }
    let _c = start(&mut sim, 2, 25_000);
    assert_eq!(sim.cache.lookup(page), PageState::InFlight);
    assert_eq!(sim.outstanding, 2, "both fetches hold their QP slots");
    assert!(sim.stale_completions.is_empty());

    drain(&mut sim, |_| {});
    let [stale] = sim.stale_completions[..] else {
        panic!("one stale completion, got {:?}", sim.stale_completions);
    };
    assert_stale_completion_is_clean(&stale);
    assert_eq!(stale.outstanding, (2, 1));
    assert_eq!(stale.own_waiters, 1, "A was parked on the stale record");
    assert_eq!(stale.later_waiters, (Some(1), Some(1)), "C stays parked");
    // A re-ran its access, joined C on the later fetch, and all three
    // requests completed; nothing is left in flight.
    let coalesced = sim.cache.stats().coalesced;
    assert_eq!(coalesced, 2, "B on the first fetch, A on the later one");
    assert_eq!(sim.cons.completions, 3);
    assert!(sim.reqs.iter().all(Option::is_none));
    assert_eq!(sim.outstanding, 0);
    assert_eq!(sim.cache.lookup(page), PageState::Resident);
}

/// The same path reached by a whole run: a thrashing cache (2 % local)
/// under sequential walks with readahead on. It is rare even there —
/// early consumption, eviction and re-fault must all fit inside one
/// fetch's flight time — so this pins a configuration known to reach it
/// and holds every occurrence to the contract; the scenario test above
/// is the one that does not depend on the model's timing.
#[test]
fn thrashing_run_reaches_superseded_completions_and_each_is_clean() {
    use crate::workload::StridedWorkload;
    // Returns the superseded completions and the evictions of one run.
    let run = |cfg: SystemConfig, rps: f64| {
        let mut w = StridedWorkload::new(16_384, 1, 64);
        let params = RunParams {
            local_mem_fraction: 0.02,
            ..quick_params(rps)
        };
        let mut sim = Simulation::new(cfg, &mut w, params);
        sim.schedule_next_arrival();
        drain(&mut sim, |_| {});
        let stale = std::mem::take(&mut sim.stale_completions);
        stale.iter().for_each(assert_stale_completion_is_clean);
        (stale, sim.cache.stats().evictions)
    };
    let cfg = SystemConfig::adios();
    assert!(matches!(
        cfg.prefetcher,
        crate::config::PrefetcherKind::Readahead { .. }
    ));
    let (stale, evictions) = run(cfg, 50_000.0);
    assert!(evictions > 10_000, "the cache thrashes: {evictions}");
    assert!(
        !stale.is_empty(),
        "no superseded completion: the pinned configuration went cold"
    );
    // Deeper into overload, and under busy-waiting (where nobody parks,
    // so a stale event has no waiter of its own).
    run(SystemConfig::adios(), 400_000.0);
    let (stale, _) = run(SystemConfig::dilos(), 300_000.0);
    assert!(stale.iter().all(|s| s.own_waiters == 0));
}

/// The running per-QP and run-wide outstanding totals equal the
/// re-summed rails after every event (and, in debug builds, after
/// every single post and CQE: `Simulation::post` / `consume_cqe`
/// assert it) on four-rail runs with retransmissions (lossy) and with
/// failover chains, whose posts and `CqeRetire`s land on the failover
/// QP (a crashed primary).
#[test]
fn running_outstanding_totals_match_the_rails_on_faulty_sharded_runs() {
    for (scenario, fails_over) in [
        (FaultScenario::lossy(), false),
        (FaultScenario::crash(), true),
    ] {
        let cfg = SystemConfig {
            memnode_shards: 4,
            memnode_replicas: 2,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let params = RunParams {
            faults: Some(scenario),
            ..quick_params(1_200_000.0)
        };
        let mut sim = Simulation::new(cfg, &mut w, params);
        sim.schedule_next_arrival();
        let failover_qp = sim.qp_outstanding.len() - 1;
        let (mut peak, mut failover_peak) = (0, 0);
        drain(&mut sim, |sim| {
            let rails = |f: &dyn Fn(&RdmaNic) -> u32| sim.nics.iter().map(f).sum::<u32>();
            assert_eq!(sim.outstanding, rails(&|n| n.total_outstanding()));
            for (qp, &sum) in sim.qp_outstanding.iter().enumerate() {
                assert_eq!(sum, rails(&|n| n.outstanding(QpId(qp as u32))), "QP {qp}");
            }
            peak = peak.max(sim.outstanding);
            failover_peak = failover_peak.max(sim.qp_outstanding[failover_qp]);
        });
        let posts: u64 = sim.nics.iter().map(|n| n.posted_reads()).sum();
        assert!(posts > 10_000 && peak > 8, "{posts} posts, peak {peak}");
        assert_eq!(failover_peak > 0, fails_over, "peak {failover_peak}");
    }
}
