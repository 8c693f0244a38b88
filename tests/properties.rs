//! Property-based tests over the full stack: randomized loads, cache
//! ratios and policies must never violate the simulator's invariants.
//! Inputs are drawn from the simulator's own seeded generator so the
//! suite is deterministic (no external property-testing dependency).

use adios::desim::Rng;
use adios::prelude::*;

fn run_micro(kind: SystemKind, rps: f64, frac: f64, seed: u64) -> RunResult {
    let mut wl = ArrayIndexWorkload::new(8_192);
    run_one(
        SystemConfig::for_kind(kind),
        &mut wl,
        RunParams {
            offered_rps: rps,
            seed,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(6),
            local_mem_fraction: frac,
            keep_breakdowns: false,
            burst: None,
            ..Default::default()
        },
    )
}

/// No configuration panics, and basic accounting invariants hold.
#[test]
fn simulation_invariants() {
    let mut gen = Rng::new(0x51AB);
    for case in 0..24 {
        let kind = SystemKind::all()[case % 4];
        let rps = 50_000.0 + gen.gen_f64() * 2_950_000.0;
        let frac = 0.05 + gen.gen_f64() * 0.95;
        let seed = gen.gen_range(1_000);
        let r = run_micro(kind, rps, frac, seed);
        let ctx = format!("{} rps={rps:.0} frac={frac:.3} seed={seed}", kind.name());

        // Latency percentiles are ordered.
        let h = r.recorder.overall();
        assert!(h.percentile(50.0) <= h.percentile(99.0), "{ctx}");
        assert!(h.percentile(99.0) <= h.percentile(99.9), "{ctx}");

        // Utilisation is a fraction.
        assert!((0.0..=1.0).contains(&r.rdma_data_util), "{ctx}");
        assert!((0.0..=1.0).contains(&r.rdma_ctrl_util), "{ctx}");

        // Spin time cannot exceed total worker time.
        assert!(
            r.spin_fraction() <= 1.0 + 1e-9,
            "{ctx}: {}",
            r.spin_fraction()
        );

        // Cache accounting: zero misses are only guaranteed when the
        // rounded frame count covers every page; no misses implies no
        // fetch traffic.
        if ((8_192.0 * frac).round() as u64) >= 8_192 {
            assert_eq!(r.cache.misses, 0, "{ctx}");
        }
        if r.cache.misses == 0 {
            assert!(r.rdma_data_util < 1e-6, "{ctx}");
        }

        // Throughput can never exceed offered load (completions in the
        // window come from the same open-loop process).
        assert!(r.recorder.achieved_rps() <= rps * 1.15 + 50_000.0, "{ctx}");
    }
}

/// The yield policy never spins (beyond QP-full pauses, which are
/// bounded by fetch latency).
#[test]
fn adios_never_spins_meaningfully() {
    let mut gen = Rng::new(0xAD10);
    for _ in 0..8 {
        let rps = 100_000.0 + gen.gen_f64() * 2_300_000.0;
        let seed = gen.gen_range(100);
        let r = run_micro(SystemKind::Adios, rps, 0.2, seed);
        assert!(
            r.spin_fraction() < 0.05,
            "spin fraction {} at {} rps (seed {seed})",
            r.spin_fraction(),
            rps
        );
    }
}

/// Busy-wait spin time scales with the miss rate.
#[test]
fn dilos_spin_tracks_misses() {
    for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let r = run_micro(SystemKind::Dilos, 1_000_000.0, frac, 3);
        let miss_rate = r.cache.misses as f64 / (r.cache.hits + r.cache.misses).max(1) as f64;
        if miss_rate > 0.4 {
            assert!(
                r.spin_fraction() > 0.1,
                "frac {frac}: spin {}",
                r.spin_fraction()
            );
        }
        if miss_rate < 0.05 {
            assert!(
                r.spin_fraction() < 0.1,
                "frac {frac}: spin {}",
                r.spin_fraction()
            );
        }
    }
}

/// Breakdown components of any run stay below the recorded e2e latency
/// budget in aggregate.
#[test]
fn breakdowns_are_sane() {
    for seed in [0u64, 7, 13, 29, 43] {
        let mut wl = ArrayIndexWorkload::new(8_192);
        let mut r = run_one(
            SystemConfig::dilos(),
            &mut wl,
            RunParams {
                offered_rps: 1_200_000.0,
                seed,
                warmup: SimDuration::from_millis(2),
                measure: SimDuration::from_millis(6),
                local_mem_fraction: 0.2,
                keep_breakdowns: true,
                burst: None,
                ..Default::default()
            },
        );
        let p50_e2e = r.recorder.overall().percentile(50.0) as f64;
        let b = r.recorder.breakdown_at(50.0);
        let total = b.mean.queueing_ns + b.mean.handling_ns + b.mean.rdma_ns + b.mean.ctxswitch_ns;
        // The on-node components cannot exceed end-to-end latency (which
        // additionally includes the client links), modulo bucketing.
        assert!(
            total <= p50_e2e * 1.25,
            "seed {seed}: components {total} vs e2e {p50_e2e}"
        );
    }
}

/// Every percentile family the span layer reports is monotone:
/// p50 ≤ p99 ≤ p99.9 for the end-to-end histogram of every sweep row
/// and for every per-stage histogram.
#[test]
fn span_percentiles_are_monotone() {
    let mut gen = Rng::new(0x5AA5);
    for case in 0..8 {
        let kind = SystemKind::all()[case % 4];
        let rps = 200_000.0 + gen.gen_f64() * 1_800_000.0;
        let seed = gen.gen_range(1_000);
        let mut wl = ArrayIndexWorkload::new(8_192);
        let r = run_one(
            SystemConfig::for_kind(kind),
            &mut wl,
            RunParams {
                offered_rps: rps,
                seed,
                warmup: SimDuration::from_millis(2),
                measure: SimDuration::from_millis(6),
                local_mem_fraction: 0.2,
                spans: Some(adios::desim::SpanConfig::default()),
                ..Default::default()
            },
        );
        let ctx = format!("{} rps={rps:.0} seed={seed}", kind.name());
        let h = r.recorder.overall();
        assert!(h.percentile(50.0) <= h.percentile(99.0), "{ctx}");
        assert!(h.percentile(99.0) <= h.percentile(99.9), "{ctx}");
        let report = r.spans.as_ref().expect("span stats requested");
        for (name, h) in report.stats.iter() {
            let (p50, p99, p999) = (h.percentile(50.0), h.percentile(99.0), h.percentile(99.9));
            assert!(p50 <= p99, "{ctx} stage {name}: p50 {p50} > p99 {p99}");
            assert!(p99 <= p999, "{ctx} stage {name}: p99 {p99} > p99.9 {p999}");
            assert!(p999 <= h.max(), "{ctx} stage {name}");
        }
    }
}

/// Critical-path attribution tiles the request exactly: the ten phase
/// components of every request sum to its end-to-end latency — which
/// `SpanStore::complete` asserts on each completion, release builds
/// included, so these runs panic if one request breaks it — and the
/// aggregated `BreakdownAt` rows inherit that identity within float
/// rounding.
#[test]
fn critical_path_components_sum_to_e2e() {
    for kind in SystemKind::all() {
        let mut wl = ArrayIndexWorkload::new(8_192);
        let mut r = run_one(
            SystemConfig::for_kind(kind),
            &mut wl,
            RunParams {
                offered_rps: 1_200_000.0,
                seed: 17,
                warmup: SimDuration::from_millis(2),
                measure: SimDuration::from_millis(6),
                local_mem_fraction: 0.2,
                keep_breakdowns: true,
                spans: Some(adios::desim::SpanConfig::default()),
                ..Default::default()
            },
        );
        let report = r.spans.as_ref().expect("spans requested");
        assert!(report.measured > 0, "{}", kind.name());
        for p in [10.0, 50.0, 99.0, 99.9] {
            let b = r.recorder.breakdown_at(p);
            if b.mean_e2e_ns == 0.0 {
                continue;
            }
            // total_ns() excludes the busy-wait overlay (spin time is
            // already inside rdma_ns), so means must match e2e exactly
            // up to float rounding.
            let diff = (b.mean.total_ns() - b.mean_e2e_ns).abs();
            assert!(
                diff <= 1.0,
                "{} P{p}: components {} vs e2e {}",
                kind.name(),
                b.mean.total_ns(),
                b.mean_e2e_ns
            );
        }
    }
}

/// Retransmission conserves every request: under randomized non-fatal
/// fault scenarios (packet loss, corruption, link flaps, memnode
/// stalls) nothing is ever lost — the RC transport retries until
/// delivery — and the error-CQE bookkeeping partitions exactly into
/// failovers plus chain failures.
#[test]
fn conservation_under_faults() {
    let scenarios: &[fn() -> FaultScenario] = &[
        FaultScenario::lossy,
        FaultScenario::flaky,
        FaultScenario::stall,
    ];
    let mut gen = Rng::new(0xFA17);
    for case in 0..6 {
        let kind = SystemKind::all()[case % 4];
        let scenario = scenarios[case % scenarios.len()]();
        let rps = 200_000.0 + gen.gen_f64() * 600_000.0;
        let seed = gen.gen_range(1_000);
        let mut wl = ArrayIndexWorkload::new(8_192);
        let r = run_one(
            SystemConfig::for_kind(kind),
            &mut wl,
            RunParams {
                offered_rps: rps,
                seed,
                warmup: SimDuration::from_millis(2),
                measure: SimDuration::from_millis(8),
                local_mem_fraction: 0.2,
                faults: Some(scenario.clone()),
                telemetry: None,
                ..Default::default()
            },
        );
        let ctx = format!(
            "{} scenario={} rps={rps:.0} seed={seed}",
            kind.name(),
            scenario.name
        );
        let c = |n: &str| r.metrics.counter(n).unwrap_or(0);
        // These scenarios inject no fatal errors, so no request may be
        // dropped or aborted: loss is absorbed by retransmission.
        assert_eq!(r.recorder.dropped(), 0, "{ctx}");
        assert_eq!(c("fetch_aborts"), 0, "{ctx}");
        assert_eq!(
            c("fetch_cqe_errors"),
            c("fetch_failovers") + c("fetch_chain_failures"),
            "{ctx}"
        );
        assert!(r.recorder.completed_in_window() > 500, "{ctx}");
        let h = r.recorder.overall();
        assert!(h.percentile(50.0) <= h.percentile(99.0), "{ctx}");
        assert!(h.percentile(99.0) <= h.percentile(99.9), "{ctx}");
    }
}

/// Fatal faults stay conserved too: with a replica memnode a crash
/// fails over without terminally failing a single fetch; without one,
/// every exhausted retry chain surfaces as an explicit abort and drop —
/// nothing vanishes silently.
#[test]
fn crash_faults_account_for_every_request() {
    let run_crash = |replicas: usize| {
        let mut wl = ArrayIndexWorkload::new(8_192);
        run_one(
            SystemConfig {
                memnode_replicas: replicas,
                ..SystemConfig::adios()
            },
            &mut wl,
            RunParams {
                offered_rps: 150_000.0,
                seed: 21,
                warmup: SimDuration::from_millis(3),
                // The outage spans t = 10..60 ms; keep a chunk of it
                // inside the measurement window.
                measure: SimDuration::from_millis(27),
                local_mem_fraction: 0.2,
                faults: Some(FaultScenario::crash()),
                telemetry: None,
                ..Default::default()
            },
        )
    };

    let with_replica = run_crash(2);
    let c = |r: &RunResult, n: &str| r.metrics.counter(n).unwrap_or(0);
    assert!(
        c(&with_replica, "fetch_failovers") > 0,
        "outage must trigger failovers"
    );
    assert_eq!(
        c(&with_replica, "fetch_aborts"),
        0,
        "with a replica no fetch fails terminally"
    );
    assert_eq!(
        c(&with_replica, "fetch_cqe_errors"),
        c(&with_replica, "fetch_failovers") + c(&with_replica, "fetch_chain_failures"),
    );

    let without_replica = run_crash(1);
    assert!(
        c(&without_replica, "fetch_chain_failures") > 0,
        "without a replica retry chains must exhaust"
    );
    assert!(
        without_replica.recorder.dropped() > 0,
        "failed chains surface as explicit drops"
    );
    assert_eq!(
        c(&without_replica, "fetch_cqe_errors"),
        c(&without_replica, "fetch_failovers") + c(&without_replica, "fetch_chain_failures"),
    );
}

/// Sharded runs keep the same books, just partitioned: per-shard
/// retransmit / error / failover / chain-failure counters sum exactly
/// to the run totals — no event can land on two shards or on none.
#[test]
fn sharded_counters_sum_to_run_totals() {
    // 12 shards: past the 8 a fixed name table once allowed.
    for (scenario, replicas, shards) in [
        (FaultScenario::lossy(), 1, 4),
        (FaultScenario::crash(), 2, 4),
        (FaultScenario::lossy(), 1, 12),
    ] {
        let mut wl = ArrayIndexWorkload::new(8_192);
        let r = run_one(
            SystemConfig {
                memnode_shards: shards,
                memnode_replicas: replicas,
                ..SystemConfig::adios()
            },
            &mut wl,
            RunParams {
                offered_rps: 300_000.0,
                seed: 23,
                warmup: SimDuration::from_millis(2),
                // Keep part of the 10..60 ms crash outage in-window.
                measure: SimDuration::from_millis(12),
                local_mem_fraction: 0.2,
                faults: Some(scenario.clone()),
                telemetry: None,
                ..Default::default()
            },
        );
        let ctx = format!("scenario={} shards={shards}", scenario.name);
        let c = |n: &str| r.metrics.counter(n).unwrap_or(0);
        let shard = |s: usize, field: &str| {
            r.metrics
                .counter(&format!("shard{s}.{field}"))
                .unwrap_or_else(|| panic!("{ctx}: shard{s}.{field} not registered"))
        };
        let shard_sum = |field: &str| (0..shards).map(|s| shard(s, field)).sum::<u64>();
        for field in [
            "fetch_retransmits",
            "fetch_cqe_errors",
            "fetch_failovers",
            "fetch_chain_failures",
        ] {
            assert_eq!(shard_sum(field), c(field), "{ctx}: {field}");
        }
        assert!(
            (0..shards).all(|s| shard(s, "fetches") > 0),
            "{ctx}: a shard saw no fetch traffic"
        );
    }
}

/// The error-CQE partition invariant survives sharding shard by shard
/// under the crash scenario: within every shard, errors split exactly
/// into failovers plus chain failures.
#[test]
fn sharded_crash_partitions_errors_per_shard() {
    let shards = 4usize;
    let mut wl = ArrayIndexWorkload::new(8_192);
    let r = run_one(
        SystemConfig {
            memnode_shards: shards,
            memnode_replicas: 2,
            ..SystemConfig::adios()
        },
        &mut wl,
        RunParams {
            offered_rps: 200_000.0,
            seed: 29,
            warmup: SimDuration::from_millis(3),
            // The outage spans t = 10..60 ms; keep a chunk of it
            // inside the measurement window.
            measure: SimDuration::from_millis(27),
            local_mem_fraction: 0.2,
            faults: Some(FaultScenario::crash()),
            telemetry: None,
            ..Default::default()
        },
    );
    let c = |n: &str| r.metrics.counter(n).unwrap_or(0);
    let shard = |s: usize, field: &str| c(&format!("shard{s}.{field}"));
    for s in 0..shards {
        assert_eq!(
            shard(s, "fetch_cqe_errors"),
            shard(s, "fetch_failovers") + shard(s, "fetch_chain_failures"),
            "shard {s}: error CQEs must partition into failovers and chain failures"
        );
    }
    assert!(
        shard(0, "fetch_failovers") > 0,
        "the crash downs shard 0's primary, which must fail over"
    );
    // Demand chains never fail (the replica absorbs the outage), and a
    // waiter coalesced onto a failed prefetch — which deliberately gets
    // no failover chain — faults afresh with a chain of its own.
    assert_eq!(c("fetch_chain_failures"), 0, "no demand chain may die");
    assert_eq!(c("fetch_aborts"), 0, "no request may abort");
}

/// Workload traces from the applications always replay to completion
/// (no stuck requests) at a light load.
#[test]
fn app_traces_always_complete() {
    for seed in [1u64, 5, 17] {
        let mut wl = MemcachedWorkload::new(30_000, 128);
        let r = run_one(
            SystemConfig::adios(),
            &mut wl,
            RunParams {
                offered_rps: 150_000.0,
                seed,
                warmup: SimDuration::from_millis(2),
                measure: SimDuration::from_millis(8),
                local_mem_fraction: 0.2,
                keep_breakdowns: false,
                burst: None,
                ..Default::default()
            },
        );
        assert_eq!(r.recorder.dropped(), 0, "seed {seed}");
        assert!(r.recorder.completed_in_window() > 500, "seed {seed}");
    }
}

/// SLO breach intervals reported by the telemetry plane are well
/// formed — per rule the events alternate begin/end starting with a
/// begin, every interval is non-empty, intervals never overlap — and
/// they agree with the exported burn-rate series: the quantised burn
/// is >= 1.0 exactly at ticks inside a breach interval.
#[test]
fn slo_breach_intervals_are_well_formed_and_match_burn_series() {
    for kind in [SystemKind::Dilos, SystemKind::Adios] {
        slo_breach_arc_under_lossy(kind);
    }
}

fn slo_breach_arc_under_lossy(kind: SystemKind) {
    use adios::desim::{parse_slo_spec, SloEventKind, TelemetryConfig};
    let mut wl = ArrayIndexWorkload::new(16_384);
    let r = run_one(
        SystemConfig::for_kind(kind),
        &mut wl,
        RunParams {
            offered_rps: 800_000.0,
            seed: 7,
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(12),
            local_mem_fraction: 0.2,
            keep_breakdowns: false,
            burst: None,
            faults: Some(FaultScenario::lossy()),
            telemetry: Some(TelemetryConfig {
                tick: SimDuration::from_micros(100),
                rules: parse_slo_spec("lat<20us:0.05@1ms").unwrap(),
            }),
            ..Default::default()
        },
    );
    let report = r.telemetry.expect("telemetry was enabled");
    assert!(report.ticks > 0);
    assert!(report.health_series().next().is_some(), "no health series");
    // The lossy scenario degrades the link over [5 ms, 7 ms): a breach
    // must open inside that episode and one must close once the fabric
    // recovers.
    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
    let of = |edge| report.events.iter().filter(move |e| e.kind == edge);
    assert!(
        of(SloEventKind::BreachBegin).any(|e| (ms(5)..ms(7)).contains(&e.at)),
        "no SLO breach opened during the fault episode: {:?}",
        report.events
    );
    assert!(
        of(SloEventKind::BreachEnd).any(|e| e.at >= ms(7)),
        "SLO breach never cleared after the episode: {:?}",
        report.events
    );

    for (i, _rule) in report.rules.iter().enumerate() {
        let events: Vec<_> = report.events.iter().filter(|e| e.rule == i).collect();
        let mut intervals: Vec<(SimTime, Option<SimTime>)> = Vec::new();
        for e in &events {
            match e.kind {
                SloEventKind::BreachBegin => {
                    assert!(
                        intervals.last().is_none_or(|(_, end)| end.is_some()),
                        "rule {i}: begin at {} while a breach is already open",
                        e.at
                    );
                    intervals.push((e.at, None));
                }
                SloEventKind::BreachEnd => {
                    let open = intervals
                        .last_mut()
                        .unwrap_or_else(|| panic!("rule {i}: end at {} before any begin", e.at));
                    assert!(
                        open.1.is_none(),
                        "rule {i}: end at {} without a begin",
                        e.at
                    );
                    assert!(open.0 < e.at, "rule {i}: empty breach interval at {}", e.at);
                    open.1 = Some(e.at);
                }
            }
        }
        for pair in intervals.windows(2) {
            let prev_end = pair[0].1.expect("only the last interval may stay open");
            assert!(
                prev_end <= pair[1].0,
                "rule {i}: overlapping breach intervals"
            );
        }

        // Agreement with the exported burn series: in-breach ticks are
        // exactly the ticks where the quantised burn reads >= 1.0.
        for (t, burn) in report.points(report.burn_series(i)) {
            let in_breach = intervals
                .iter()
                .any(|(begin, end)| *begin <= t && end.is_none_or(|end| t < end));
            assert_eq!(
                burn >= 1.0,
                in_breach,
                "rule {i}: burn {burn} at {t} disagrees with breach intervals"
            );
        }
    }
}

/// The completions rate series must not dip at the warm-up rebase
/// boundary. `Metrics::reset` zeroes every windowed counter read
/// between two ticks; the recorder diffs the raw totals, so the counts
/// accrued since the last pre-boundary sample land in the straddling
/// tick rather than being clamped away (regression: the first
/// in-window tick of every rate series used to read ~0).
#[test]
fn telemetry_rates_survive_the_warmup_rebase_boundary() {
    use adios::desim::TelemetryConfig;
    let mut wl = ArrayIndexWorkload::new(16_384);
    let r = run_one(
        SystemConfig::adios(),
        &mut wl,
        RunParams {
            offered_rps: 800_000.0,
            seed: 11,
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(6),
            local_mem_fraction: 0.2,
            keep_breakdowns: false,
            burst: None,
            telemetry: Some(TelemetryConfig {
                // Four ticks per warm-up ms: the registry reset at 1 ms
                // lands inside the (750 µs, 1 ms] sampling period, so
                // the tick at 1 ms must carry the pre-reset tail.
                tick: SimDuration::from_micros(250),
                rules: Vec::new(),
            }),
            ..Default::default()
        },
    );
    let report = r.telemetry.expect("telemetry was enabled");
    let completions = report.counter_series("completions");
    let pts: Vec<_> = report
        .points(completions.expect("completions series"))
        .collect();
    assert!(pts.len() >= 20, "expected a tick every 250 µs");
    let mut sorted: Vec<f64> = pts.iter().map(|(_, v)| *v).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[sorted.len() / 2];
    assert!(median > 0.0, "steady load must complete requests");
    for (at, v) in &pts {
        assert!(
            *v > 0.3 * median,
            "completions rate dip at {at}: {v} vs median {median} — \
             the boundary tail was lost"
        );
    }
}

/// Tentpole invariant of the core profiler: every core's timeline is
/// tiled exhaustively — the typed state durations sum to the
/// measurement window *exactly* (no gaps, no overlaps), for every
/// system, with and without faults, across random loads and seeds.
/// Mirrors the span layer's component-sum identity, one level down.
/// The workers' `Spin + TxWait` tiling is the run's busy-wait tally,
/// to the nanosecond — also where QP-full pauses retry and replies
/// spin for their TX completion (QP depth 2, no polling delegation,
/// stalled and crashed memnodes).
#[test]
fn core_state_tilings_sum_to_window() {
    use adios::desim::{CoreState, ProfileConfig};
    let mut gen = Rng::new(0xC03E);
    for case in 0..16 {
        let kind = SystemKind::all()[case % 4];
        let rps = 200_000.0 + gen.gen_f64() * 1_800_000.0;
        let seed = gen.gen_range(1_000);
        let mut cfg = SystemConfig::for_kind(kind);
        // The crash episode opens at 10 ms: the window must cover it.
        let (warmup, faults) = match case / 4 {
            0 | 1 => (2, (case % 2 == 1).then(FaultScenario::lossy)),
            2 => (2, Some(FaultScenario::stall())),
            _ => (8, Some(FaultScenario::crash())),
        };
        if case >= 8 {
            cfg.fabric.qp_depth = 2;
            cfg.polling_delegation = false;
        }
        let mut wl = ArrayIndexWorkload::new(8_192);
        let r = run_one(
            cfg,
            &mut wl,
            RunParams {
                offered_rps: rps,
                seed,
                warmup: SimDuration::from_millis(warmup),
                measure: SimDuration::from_millis(6),
                local_mem_fraction: 0.2,
                faults,
                profile: Some(ProfileConfig),
                ..Default::default()
            },
        );
        let p = r.profile.as_ref().expect("profiler requested");
        let window = p.window.as_nanos();
        let ctx = format!("{} case={case} rps={rps:.0} seed={seed}", kind.name());
        assert!(!p.cores.is_empty(), "{ctx}: dispatcher + workers expected");
        let spin: u64 = p
            .cores
            .iter()
            .filter(|c| c.is_worker)
            .map(|c| c.ns(CoreState::Spin) + c.ns(CoreState::TxWait))
            .sum();
        assert_eq!(spin, r.spin_ns, "{ctx}: spin tiling vs spin tally");
        for c in &p.cores {
            let sum: u64 = CoreState::ALL.iter().map(|&s| c.ns(s)).sum();
            assert_eq!(
                sum, window,
                "{ctx}: core {} state durations must tile the window exactly",
                c.label
            );
            // The flame sub-windows re-tile the same totals: summing a
            // state across sub-windows reproduces the whole-window value.
            for (si, &s) in CoreState::ALL.iter().enumerate() {
                let tiled: u64 = c.tiles.iter().map(|tile| tile[si]).sum();
                assert_eq!(
                    tiled,
                    c.ns(s),
                    "{ctx}: core {} state {} sub-window split must conserve time",
                    c.label,
                    s.name()
                );
            }
        }
    }
}

/// Little's law (L = λ·W) cross-checks every instrumented queue on the
/// clean and lossy scenarios: whenever a queue saw enough traffic for
/// the law to have statistical teeth (≥ 100 wait samples), the measured
/// time-averaged depth and the arrival-rate × mean-wait prediction must
/// agree within the documented tolerance (consistency ≥ 0.7; see
/// MODEL.md §12).
#[test]
fn queue_littles_law_holds_on_none_and_lossy() {
    use adios::desim::ProfileConfig;
    for scenario in [None, Some(FaultScenario::lossy())] {
        for kind in [SystemKind::Dilos, SystemKind::Adios] {
            let mut wl = ArrayIndexWorkload::new(8_192);
            let r = run_one(
                SystemConfig::for_kind(kind),
                &mut wl,
                RunParams {
                    offered_rps: 900_000.0,
                    seed: 5,
                    warmup: SimDuration::from_millis(2),
                    measure: SimDuration::from_millis(8),
                    local_mem_fraction: 0.2,
                    faults: scenario.clone(),
                    profile: Some(ProfileConfig),
                    ..Default::default()
                },
            );
            let p = r.profile.as_ref().expect("profiler requested");
            let name = scenario.as_ref().map_or("none", |s| s.name);
            // Adios parks instead of spinning; DiLOS busy-waits, the
            // more the slower the link.
            if kind == SystemKind::Dilos && scenario.is_some() {
                assert!(
                    r.spin_fraction() > 0.05,
                    "DiLOS must burn worker time spinning under the lossy link"
                );
            }
            let mut checked = 0usize;
            for q in &p.queues {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&q.littles_consistency),
                    "{} / {name}: queue {} consistency {} out of range",
                    kind.name(),
                    q.name,
                    q.littles_consistency
                );
                if q.wait_samples >= 100 {
                    checked += 1;
                    assert!(
                        q.littles_consistency >= 0.7,
                        "{} / {name}: queue {} violates Little's law: \
                         depth {:.4} vs {:.1}/s × {:.1} ns (consistency {:.3})",
                        kind.name(),
                        q.name,
                        q.mean_depth,
                        q.arrival_rate_hz,
                        q.mean_wait_ns,
                        q.littles_consistency
                    );
                }
            }
            assert!(
                checked > 0,
                "{} / {name}: at least one queue must carry enough samples to check",
                kind.name()
            );
        }
    }
}

/// Randomized tenant mixes: per-tenant accounting must partition the
/// run-level view exactly, and request conservation must hold whatever
/// the mix shape, buckets or watermark.
#[test]
fn tenant_accounting_partitions_the_run() {
    let mut gen = Rng::new(0x7E4A);
    for case in 0..8 {
        let n = 2 + (case % 3); // 2..=4 tenants
        let mut specs = Vec::new();
        for t in 0..n {
            let rate = 100_000.0 + gen.gen_f64() * 1_400_000.0;
            let prio = if t == 0 {
                TenantPriority::High
            } else {
                TenantPriority::Low
            };
            let mut s = TenantSpec::new(rate, "array", prio);
            if gen.gen_range(2) == 0 {
                s = s.with_bucket(rate * (0.3 + gen.gen_f64() * 0.5), 64);
            }
            specs.push(s);
        }
        let mut plane = TenantPlane::new(specs);
        if gen.gen_range(2) == 0 {
            plane = plane.with_shed_watermark(32 + gen.gen_range(96) as usize);
        }
        let total = plane.total_rate_rps();
        let seed = 1 + gen.gen_range(1_000);
        let mut wl = ArrayIndexWorkload::new(8_192);
        let r = run_one(
            SystemConfig::adios(),
            &mut wl,
            RunParams {
                offered_rps: total,
                seed,
                warmup: SimDuration::from_millis(2),
                measure: SimDuration::from_millis(6),
                local_mem_fraction: 0.2,
                tenants: Some(plane),
                ..Default::default()
            },
        );
        let ctx = format!("case {case}: {n} tenants, {total:.0} rps, seed {seed}");

        // The conservation identity holds on every mix.
        assert!(r.conservation.holds(), "{ctx}: {:?}", r.conservation);

        // Per-tenant windows partition the recorder's view: windowed
        // completions and exclusions (sheds + overflow drops) both sum
        // to the run-level numbers, and each tenant's histogram holds
        // exactly its own completions.
        assert_eq!(r.tenants.len(), n, "{ctx}");
        let completed: u64 = r.tenants.iter().map(|t| t.completed).sum();
        let excluded: u64 = r.tenants.iter().map(|t| t.sheds + t.drops).sum();
        assert_eq!(completed, r.recorder.completed_in_window(), "{ctx}");
        assert_eq!(excluded, r.recorder.dropped(), "{ctx}");
        for t in &r.tenants {
            assert_eq!(
                t.latency_ns.count(),
                t.completed,
                "{ctx}: tenant {}",
                t.tenant
            );
            assert!(t.admitted <= t.arrivals, "{ctx}: tenant {}", t.tenant);
            assert!(
                t.sheds + t.drops <= t.arrivals,
                "{ctx}: tenant {}",
                t.tenant
            );
        }
        let arrivals: u64 = r.tenants.iter().map(|t| t.arrivals).sum();
        assert!(arrivals > 0, "{ctx}: the window must see traffic");
    }
}

/// A tenant's arrival stream belongs to that tenant alone: reseeding
/// one tenant must not move any other tenant's windowed arrivals.
#[test]
fn tenant_arrival_streams_are_independent_at_run_level() {
    let plane = |bump: u64| {
        TenantPlane::new(vec![
            TenantSpec::new(400_000.0, "array", TenantPriority::High),
            TenantSpec::new(600_000.0, "array", TenantPriority::Low).with_seed_bump(bump),
        ])
    };
    let run = |bump: u64| {
        let mut wl = ArrayIndexWorkload::new(8_192);
        run_one(
            SystemConfig::adios(),
            &mut wl,
            RunParams {
                offered_rps: 1_000_000.0,
                seed: 17,
                warmup: SimDuration::from_millis(2),
                measure: SimDuration::from_millis(6),
                local_mem_fraction: 0.2,
                tenants: Some(plane(bump)),
                ..Default::default()
            },
        )
    };
    let a = run(0);
    let b = run(0xDEAD_BEEF);
    assert_eq!(
        a.tenants[0].arrivals, b.tenants[0].arrivals,
        "tenant 0's arrival stream must not move when tenant 1 reseeds"
    );
    assert_ne!(
        a.tenants[1].arrivals, b.tenants[1].arrivals,
        "tenant 1's stream must actually change under the bump"
    );
}

// ----- dispatcher scaling ------------------------------------------------

/// Request conservation must hold for every dispatch policy at every
/// dispatcher count: arrivals partition exactly into completions,
/// drops, sheds, aborts and end-of-run in-flight, with no request
/// created or lost by ingress fan-in, stealing or combining.
#[test]
fn request_conservation_holds_for_every_dispatch_policy() {
    let mut gen = Rng::new(0xD15B);
    for policy in [
        DispatchPolicy::SingleFcfs,
        DispatchPolicy::WorkStealing,
        DispatchPolicy::FlatCombining,
    ] {
        for ndisp in [1usize, 2, 4] {
            let seed = gen.gen_range(1_000);
            let frac = 0.3 + gen.gen_f64() * 0.7;
            let cfg = SystemConfig {
                dispatchers: ndisp,
                dispatch_policy: policy,
                workers: 8 * ndisp,
                ..SystemConfig::adios()
            };
            // Offered load scales with the machine so every point sits
            // past its own saturation knee (drops and queueing occur).
            let mut wl = ArrayIndexWorkload::new(8_192);
            let r = run_one(
                cfg,
                &mut wl,
                RunParams {
                    offered_rps: 2_000_000.0 * ndisp as f64,
                    seed,
                    warmup: SimDuration::from_millis(2),
                    measure: SimDuration::from_millis(6),
                    local_mem_fraction: frac,
                    ..Default::default()
                },
            );
            let ctx = format!("{policy:?} x{ndisp} seed={seed} frac={frac:.3}");
            assert!(r.conservation.arrivals > 0, "{ctx}");
            assert!(r.conservation.holds(), "{ctx}: {:?}", r.conservation);
        }
    }
}

/// A steal migrates an admission to the thief's timeline; it must
/// never duplicate it. Every admission is charged to exactly one
/// dispatcher, so the per-dispatcher admitted counters sum to the
/// number of requests that actually entered the run queue: no more
/// than the non-dropped, non-shed arrivals, no fewer than the
/// completions.
#[test]
fn steals_never_dispatch_a_request_twice() {
    let cfg = SystemConfig {
        dispatchers: 4,
        dispatch_policy: DispatchPolicy::WorkStealing,
        workers: 32,
        ..SystemConfig::adios()
    };
    // Zero warmup: registry counters only tick inside the measured
    // window, and the conservation identity spans the whole run — a
    // zero-length warmup makes the two views the same population.
    let mut wl = ArrayIndexWorkload::new(8_192);
    let r = run_one(
        cfg,
        &mut wl,
        RunParams {
            offered_rps: 5_000_000.0,
            seed: 42,
            warmup: SimDuration::ZERO,
            measure: SimDuration::from_millis(8),
            local_mem_fraction: 1.0,
            ..Default::default()
        },
    );
    let sum = |field: &str| -> u64 {
        (0..4)
            .map(|d| {
                r.metrics
                    .counter(&format!("dispatcher{d}.{field}"))
                    .unwrap_or(0)
            })
            .sum()
    };
    assert!(
        sum("steals") > 0,
        "the overload must actually trigger steals"
    );
    let admitted = sum("admitted");
    let cons = &r.conservation;
    let upper = cons.arrivals - cons.drops - cons.sheds;
    let lower = cons.completions;
    assert!(
        admitted <= upper,
        "admitted {admitted} exceeds admissible arrivals {upper}: \
         some request was dispatched twice ({cons:?})"
    );
    assert!(
        admitted >= lower,
        "admitted {admitted} below completions {lower}: \
         some completion was never admitted ({cons:?})"
    );
    assert!(cons.holds(), "{cons:?}");
}

/// Combining batches amortise the admission charge but must never
/// reorder same-tenant same-priority requests: on a single-class run
/// the admit-commit sequence is exactly the arrival sequence (the
/// batch tail serialises admissions globally). Work stealing is
/// exempt by design — it trades cross-ingress order for throughput.
#[test]
fn combining_never_reorders_same_class_requests() {
    for policy in [DispatchPolicy::SingleFcfs, DispatchPolicy::FlatCombining] {
        let cfg = SystemConfig {
            dispatchers: 4,
            dispatch_policy: policy,
            workers: 32,
            ..SystemConfig::adios()
        };
        let mut wl = ArrayIndexWorkload::new(8_192);
        let r = run_one(
            cfg,
            &mut wl,
            RunParams {
                offered_rps: 3_000_000.0,
                seed: 7,
                warmup: SimDuration::from_millis(1),
                measure: SimDuration::from_millis(4),
                local_mem_fraction: 1.0,
                trace_capacity: Some(200_000),
                ..Default::default()
            },
        );
        assert_eq!(
            r.trace_dropped, 0,
            "{policy:?}: replay needs the full trace"
        );
        if policy == DispatchPolicy::FlatCombining {
            let combines: u64 = (0..4)
                .map(|d| {
                    r.metrics
                        .counter(&format!("dispatcher{d}.combines"))
                        .unwrap_or(0)
                })
                .sum();
            assert!(combines > 0, "the load must actually form batches");
        }
        // Replay: request ids recycle, so track each id's latest
        // arrival sequence number and demand the admit commits walk it
        // strictly forward.
        let mut seq_of = std::collections::HashMap::new();
        let mut next_seq = 0u64;
        let mut last_admitted = 0u64;
        let mut admits = 0u64;
        for ev in r.trace.as_ref().expect("trace enabled") {
            if ev.component != "dispatch" {
                continue;
            }
            match ev.name {
                "arrival" => {
                    next_seq += 1;
                    seq_of.insert(ev.a, next_seq);
                }
                "disp_admit" => {
                    let seq = seq_of[&ev.a];
                    assert!(
                        seq > last_admitted,
                        "{policy:?}: request with arrival seq {seq} admitted \
                         after seq {last_admitted} — admission order broken"
                    );
                    last_admitted = seq;
                    admits += 1;
                }
                _ => {}
            }
        }
        assert!(
            admits > 1_000,
            "{policy:?}: replay saw only {admits} admits"
        );
    }
}

/// The prefetch-fate conservation identity — `issued = hits + lates +
/// wasted + inflight_at_end`, per detector class and in total — holds
/// for every application workload under both detectors, and the
/// derived series stay within their domains.
#[test]
fn memory_observatory_fates_conserve_across_apps_and_detectors() {
    use adios::apps::silo::tpcc::TpccScale;
    let detectors = [
        PrefetcherKind::Readahead { window: 8 },
        PrefetcherKind::Leap {
            window: 6,
            depth: 8,
        },
    ];
    for (d, &prefetcher) in detectors.iter().enumerate() {
        let mk_wl = |app: usize, seed: u64| -> Box<dyn Workload> {
            match app {
                0 => Box::new(MemcachedWorkload::new(60_000, 128)),
                1 => Box::new(RocksDbWorkload::new(60_000, 1024)),
                2 => Box::new(TpccWorkload::new(TpccScale::tiny(), seed)),
                3 => Box::new(FaissWorkload::new(10_000, 32, 8, seed)),
                _ => Box::new(LlmServeWorkload::new(64, 64)),
            }
        };
        for app in 0..5 {
            let seed = 300 + (d * 5 + app) as u64;
            let mut wl = mk_wl(app, seed);
            let cfg = SystemConfig {
                prefetcher,
                ..SystemConfig::adios()
            };
            let r = run_one(
                cfg,
                &mut *wl,
                RunParams {
                    offered_rps: 120_000.0,
                    seed,
                    warmup: SimDuration::from_millis(1),
                    measure: SimDuration::from_millis(4),
                    memory: Some(MemObsConfig),
                    ..Default::default()
                },
            );
            let m = r.memory.as_ref().expect("observatory enabled");
            let ctx = format!("detector={d} app={app} seed={seed}");
            assert!(m.holds(), "{ctx}: conservation violated: {:?}", m.classes);
            assert!((0.0..=1.0).contains(&m.hit_rate()), "{ctx}");
            assert!(m.heat_skew >= 0.0, "{ctx}");
            let share: f64 = m.shard_shares.iter().sum();
            assert!(
                m.touches == 0 || (share - 1.0).abs() < 1e-6,
                "{ctx}: shard shares must partition the heat ({share})"
            );
            for (i, row) in m.rows.iter().enumerate() {
                assert!((0.0..=1.0).contains(&row.hit_rate), "{ctx}");
                let in_buckets: u64 = m.buckets(i).iter().sum();
                assert!(in_buckets >= row.ws_pages, "{ctx}: bucket counts cover WS");
            }
        }
    }
}
