//! End-to-end integration tests: the paper's headline behaviours must
//! hold across the full stack (fabric + paging + runtime + loadgen) at
//! test-sized working sets.

use adios::prelude::*;

fn params(rps: f64) -> RunParams {
    RunParams {
        offered_rps: rps,
        seed: 77,
        warmup: SimDuration::from_millis(3),
        measure: SimDuration::from_millis(15),
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

fn micro(kind: SystemKind, rps: f64) -> RunResult {
    let mut wl = ArrayIndexWorkload::new(32_768);
    run_one(SystemConfig::for_kind(kind), &mut wl, params(rps))
}

#[test]
fn headline_throughput_ordering() {
    // Past every busy-waiter's saturation: Adios > DiLOS ≈ DiLOS-P > Hermit.
    let rps = 2_600_000.0;
    let hermit = micro(SystemKind::Hermit, rps).recorder.achieved_rps();
    let dilos = micro(SystemKind::Dilos, rps).recorder.achieved_rps();
    let dilos_p = micro(SystemKind::DilosP, rps).recorder.achieved_rps();
    let adios = micro(SystemKind::Adios, rps).recorder.achieved_rps();
    assert!(adios > dilos * 1.2, "adios {adios} vs dilos {dilos}");
    assert!(adios > dilos_p * 1.2, "adios {adios} vs dilos_p {dilos_p}");
    assert!(dilos > hermit, "dilos {dilos} vs hermit {hermit}");
}

#[test]
fn headline_tail_latency_past_the_knee() {
    // At a load DiLOS can no longer absorb, its tail explodes while
    // Adios' stays in the tens of microseconds.
    let rps = 1_900_000.0;
    let dilos = micro(SystemKind::Dilos, rps);
    let adios = micro(SystemKind::Adios, rps);
    let (d, a) = (
        dilos.recorder.overall().percentile(99.9),
        adios.recorder.overall().percentile(99.9),
    );
    assert!(
        d > a * 3,
        "DiLOS P99.9 {d} ns should dwarf Adios' {a} ns past the knee"
    );
    assert!(
        a < 100_000,
        "Adios P99.9 should stay microsecond-scale: {a} ns"
    );
}

#[test]
fn rdma_utilisation_gap() {
    let rps = 2_600_000.0;
    let dilos = micro(SystemKind::Dilos, rps);
    let adios = micro(SystemKind::Adios, rps);
    assert!(
        adios.rdma_data_util > dilos.rdma_data_util + 0.15,
        "adios {} vs dilos {}",
        adios.rdma_data_util,
        dilos.rdma_data_util
    );
    assert!(adios.rdma_data_util > 0.6, "{}", adios.rdma_data_util);
}

#[test]
fn spin_time_is_the_differentiator() {
    let rps = 1_500_000.0;
    let dilos = micro(SystemKind::Dilos, rps);
    let adios = micro(SystemKind::Adios, rps);
    assert!(dilos.spin_fraction() > 0.3, "{}", dilos.spin_fraction());
    assert!(adios.spin_fraction() < 0.03, "{}", adios.spin_fraction());
}

#[test]
fn polling_delegation_improves_peak() {
    let rps = 2_400_000.0;
    let mut wl = ArrayIndexWorkload::new(32_768);
    let on = run_one(SystemConfig::adios(), &mut wl, params(rps));
    let off_cfg = SystemConfig {
        polling_delegation: false,
        ..SystemConfig::adios()
    };
    let off = run_one(off_cfg, &mut wl, params(rps));
    assert!(
        on.recorder.achieved_rps() >= off.recorder.achieved_rps(),
        "delegation must not hurt: {} vs {}",
        on.recorder.achieved_rps(),
        off.recorder.achieved_rps()
    );
}

#[test]
fn sensitivity_to_local_memory_is_monotone_for_adios() {
    let mut wl = ArrayIndexWorkload::new(32_768);
    let mut last = 0.0;
    for frac in [0.1, 0.4, 1.0] {
        let mut p = params(2_000_000.0);
        p.local_mem_fraction = frac;
        let r = run_one(SystemConfig::adios(), &mut wl, p);
        let achieved = r.recorder.achieved_rps();
        assert!(
            achieved >= last * 0.98,
            "throughput should not degrade with more local memory: {achieved} after {last}"
        );
        last = achieved;
    }
}

#[test]
fn dilos_wins_with_unlimited_local_memory() {
    // The paper's honesty check: with no remote memory, the simpler
    // busy-wait code path is (slightly) ahead.
    let mut wl = ArrayIndexWorkload::new(32_768);
    let mut p = params(1_000_000.0);
    p.local_mem_fraction = 1.0;
    let d = run_one(SystemConfig::dilos(), &mut wl, p.clone());
    let a = run_one(SystemConfig::adios(), &mut wl, p);
    assert!(
        d.recorder.overall().percentile(50.0) <= a.recorder.overall().percentile(50.0),
        "DiLOS P50 {} vs Adios {}",
        d.recorder.overall().percentile(50.0),
        a.recorder.overall().percentile(50.0)
    );
    assert_eq!(d.cache.misses, 0);
    assert_eq!(a.cache.misses, 0);
}

#[test]
fn hermit_tail_reflects_kernel_interference() {
    let hermit = micro(SystemKind::Hermit, 400_000.0);
    let dilos = micro(SystemKind::Dilos, 400_000.0);
    let (h, d) = (
        hermit.recorder.overall().percentile(99.9),
        dilos.recorder.overall().percentile(99.9),
    );
    assert!(
        h > d * 5,
        "Hermit P99.9 {h} ns should be far above DiLOS' {d} ns at light load"
    );
}

#[test]
fn pf_aware_dispatch_never_worse_on_average() {
    let mut wl = ArrayIndexWorkload::new(32_768);
    let mut pf_total = 0u64;
    let mut rr_total = 0u64;
    for rps in [1_200_000.0, 1_800_000.0] {
        let pf = run_one(SystemConfig::adios(), &mut wl, params(rps));
        let rr_cfg = SystemConfig {
            worker_select: WorkerSelect::RoundRobin,
            ..SystemConfig::adios()
        };
        let rr = run_one(rr_cfg, &mut wl, params(rps));
        pf_total += pf.recorder.overall().percentile(99.9);
        rr_total += rr.recorder.overall().percentile(99.9);
    }
    assert!(
        pf_total as f64 <= rr_total as f64 * 1.05,
        "PF-aware {pf_total} vs RR {rr_total}"
    );
}

#[test]
fn preemption_is_counterproductive_on_low_dispersion() {
    // Figure 2a: on the (bimodal but short) microbenchmark, DiLOS-P is
    // no better than DiLOS.
    let d = micro(SystemKind::Dilos, 1_500_000.0);
    let p = micro(SystemKind::DilosP, 1_500_000.0);
    assert!(
        p.recorder.overall().percentile(99.0) >= d.recorder.overall().percentile(99.0) * 95 / 100,
        "DiLOS-P should not beat DiLOS here"
    );
    // Remote requests (~5.5 µs busy-waited service) exceed the 5 µs
    // quantum, so most of them eat a pointless preemption — exactly why
    // the paper finds preemption counterproductive at low dispersion.
    assert!(p.stats.preemptions > 0);
    assert_eq!(d.stats.preemptions, 0);
}

#[test]
fn bursty_arrivals_raise_the_tail_at_equal_mean_load() {
    // Mean load such that even the 1.9x burst peak stays within Adios'
    // capacity — so completions are preserved and only the tail moves.
    let mut wl = ArrayIndexWorkload::new(32_768);
    let steady = params(1_000_000.0);
    let mut bursty = params(1_000_000.0);
    bursty.burst = Some((1.9, SimDuration::from_micros(300)));
    let s = run_one(SystemConfig::adios(), &mut wl, steady);
    let b = run_one(SystemConfig::adios(), &mut wl, bursty);
    assert!(
        b.recorder.overall().percentile(99.9) > s.recorder.overall().percentile(99.9),
        "bursts must show in the tail: {} vs {}",
        b.recorder.overall().percentile(99.9),
        s.recorder.overall().percentile(99.9)
    );
    // Same mean: throughput within a few percent.
    let ratio = b.recorder.achieved_rps() / s.recorder.achieved_rps();
    assert!((0.9..=1.1).contains(&ratio), "mean rate preserved: {ratio}");
}

#[test]
fn infiniswap_sits_far_below_every_busy_waiter() {
    // The paper's reason for excluding Infiniswap from its figures.
    let inf = {
        let mut wl = ArrayIndexWorkload::new(32_768);
        run_one(SystemConfig::infiniswap(), &mut wl, params(900_000.0))
    };
    let dilos = micro(SystemKind::Dilos, 900_000.0);
    assert!(
        inf.recorder.achieved_rps() < dilos.recorder.achieved_rps() * 0.8,
        "infiniswap {} vs dilos {}",
        inf.recorder.achieved_rps(),
        dilos.recorder.achieved_rps()
    );
    assert!(
        inf.recorder.overall().percentile(50.0) > dilos.recorder.overall().percentile(50.0) * 5,
        "kernel-scheduler yielding is not microsecond-scale"
    );
}

#[test]
fn work_stealing_approximates_the_single_queue() {
    let mut wl = ArrayIndexWorkload::new(32_768);
    let sq = run_one(SystemConfig::adios(), &mut wl, params(1_600_000.0));
    let ws_cfg = SystemConfig {
        queue_model: QueueModel::PerWorkerStealing,
        ..SystemConfig::adios()
    };
    let ws = run_one(ws_cfg, &mut wl, params(1_600_000.0));
    assert!(ws.stats.steals > 0);
    let ratio = ws.recorder.overall().percentile(99.9) as f64
        / sq.recorder.overall().percentile(99.9) as f64;
    assert!(
        (0.6..=1.6).contains(&ratio),
        "stealing should track c-FCFS within ~1.5x: {ratio}"
    );
}
