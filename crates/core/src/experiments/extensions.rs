//! Extension studies beyond the paper's figures, each grounded in a
//! claim the paper makes in passing:
//!
//! - **infiniswap** — §5 Setup: "we also considered Infiniswap… very
//!   high P99.9 latency (582 µs to 73 ms) and low throughput
//!   (261 KRPS)" — reproduced with a kernel-scheduler yield model;
//! - **huge_pages** — §5.2 Silo: "huge pages induce 512× larger I/O
//!   amplification, seriously degrading page fetching latency";
//! - **prefetcher_policy** — §2.3 cites Leap as the prefetching state
//!   of the art; a strided workload separates next-page readahead from
//!   Leap's majority-trend detection;
//! - **work_stealing** — §3.4: "centralized and approximated
//!   centralized FCFS… reduce load imbalance", with stealing's scan
//!   overhead as the trade-off;
//! - **burst_tolerance** — §3.2: the pre-allocated pool "must be
//!   sufficient to handle bursty request arrivals";
//! - **scalability** — §6: "single queueing with a dedicated dispatcher
//!   thread can scale up to about ten worker cores";
//! - **fault_tolerance** — §2.1 assumes a lossless RC fabric; this
//!   study injects packet loss, memnode stalls and a memnode crash to
//!   show busy-waiting additionally *amplifies* fault recovery time
//!   (the worker burns every retransmission timeout on-core), while
//!   yielding absorbs it;
//! - **shard_scaling** — §2.1's one-compute/one-memory testbed is the
//!   degenerate case of a sharded page space; spreading pages over
//!   independent memnode rails multiplies aggregate fetch bandwidth,
//!   and a crash of one shard's primary stays contained to that shard;
//! - **dispatcher_scaling** — §6 concedes the single dispatcher thread
//!   caps the design at about ten workers; this sweep grows the
//!   dispatch plane itself (shared FCFS vs per-core ingress with work
//!   stealing vs flat combining) and locates the knee where the shared
//!   queue stops scaling.

use desim::SimDuration;
use runtime::sim::{run_one, RunParams};
use runtime::{
    ArrayIndexWorkload, DispatchPolicy, MixedWorkload, PrefetcherKind, QueueModel, StridedWorkload,
    SystemConfig, SystemKind,
};

use super::{fmt_us, fmt_x, points_series, sweep};
use crate::report::{Expectation, FigureReport, Series};
use crate::scale::Scale;

/// The Infiniswap baseline the paper measured and excluded from plots.
pub fn infiniswap(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension I",
        "Infiniswap: yield-based paging through the kernel scheduler",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let loads = [100_000.0, 200_000.0, 300_000.0, 450_000.0, 700_000.0];
    let inf = sweep(
        &SystemConfig::infiniswap(),
        &mut wl,
        &loads,
        scale.params(95),
    );
    let adios = sweep(&SystemConfig::adios(), &mut wl, &loads, scale.params(95));
    report.series.push(points_series("Infiniswap", &inf));
    report.series.push(points_series("Adios", &adios));

    let peak = super::peak_rps(&inf);
    report.expectations.push(Expectation::info(
        "Infiniswap peak throughput",
        "261 KRPS on the paper's testbed",
        super::fmt_mrps(peak),
    ));
    let p999 = inf[2].point().p999_ns;
    report.expectations.push(Expectation::checked(
        "Infiniswap P99.9 is off the microsecond scale",
        "582 µs – 73 ms",
        fmt_us(p999),
        p999 > 150_000,
    ));
    report.expectations.push(Expectation::checked(
        "kernel-scheduler yielding is not Adios",
        "4 µs context switches + wake-up delays negate yielding",
        format!(
            "Adios serves {} at loads where Infiniswap saturates (its own peak is ~5x higher)",
            fmt_x(super::peak_rps(&adios) / peak.max(1.0))
        ),
        super::peak_rps(&adios) > peak * 1.4,
    ));
    report.notes.push(
        "same yield-based fault handling; only the threading substrate differs — \
         this isolates the unithread contribution"
            .into(),
    );
    report
}

/// Huge-page fetch granularity: the §5.2 I/O-amplification argument.
pub fn huge_pages(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension H",
        "Fetch granularity: 4 KB pages vs 2 MB huge pages",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let loads = [50_000.0, 100_000.0, 200_000.0];
    let small = sweep(&SystemConfig::adios(), &mut wl, &loads, scale.params(96));
    let huge_cfg = SystemConfig {
        fetch_page_bytes: 2 * 1024 * 1024,
        // Amplified fetches would instantly wipe the cache through
        // speculation; a real huge-page system fetches exactly the
        // faulted region.
        speculative_readahead: 0.0,
        prefetcher: PrefetcherKind::None,
        ..SystemConfig::adios()
    };
    let huge = sweep(&huge_cfg, &mut wl, &loads, scale.params(96));
    let mut s = Series::new(
        "fetch latency and throughput by granularity",
        "   offered   4KB p50(us)   2MB p50(us)   4KB achieved   2MB achieved",
    );
    for (a, b) in small.iter().zip(&huge) {
        s.rows.push(format!(
            "{:>10.0} {:>13.2} {:>13.2} {:>14.0} {:>14.0}",
            a.offered_rps,
            a.point().p50_ns as f64 / 1000.0,
            b.point().p50_ns as f64 / 1000.0,
            a.recorder.achieved_rps(),
            b.recorder.achieved_rps(),
        ));
    }
    report.series.push(s);
    let (p4, p2m) = (small[0].point().p50_ns, huge[0].point().p50_ns);
    report.expectations.push(Expectation::checked(
        "2 MB fetches amplify I/O 512x and wreck latency",
        "512x amplification seriously degrades fetch latency (§5.2)",
        format!("P50 {} vs {}", fmt_us(p4), fmt_us(p2m)),
        p2m > p4 * 10,
    ));
    report.expectations.push(Expectation::checked(
        "huge-page fetches saturate the link at trivial loads",
        "2 MB per fault ⇒ ~160 µs of wire time each",
        format!(
            "2 MB variant achieves {} of the 4 KB variant's throughput at the top load",
            fmt_x(huge[2].recorder.achieved_rps() / small[2].recorder.achieved_rps())
        ),
        huge[2].recorder.achieved_rps() < small[2].recorder.achieved_rps(),
    ));
    report
        .notes
        .push("this is why the paper extends Silo to 4 KB pages on the compute node".into());
    report
}

/// Readahead vs Leap on a strided workload.
pub fn prefetcher_policy(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension L",
        "Prefetcher policy: next-page readahead vs Leap majority-trend",
    );
    let mut wl = StridedWorkload::new(scale.microbench_pages(), 5, 12);
    let loads = [100_000.0, 200_000.0];
    let mk = |prefetcher: PrefetcherKind| SystemConfig {
        prefetcher,
        speculative_readahead: 0.0,
        ..SystemConfig::adios()
    };
    let none = sweep(&mk(PrefetcherKind::None), &mut wl, &loads, scale.params(97));
    let ra = sweep(
        &mk(PrefetcherKind::Readahead { window: 8 }),
        &mut wl,
        &loads,
        scale.params(97),
    );
    let leap = sweep(
        &mk(PrefetcherKind::Leap {
            window: 6,
            depth: 8,
        }),
        &mut wl,
        &loads,
        scale.params(97),
    );
    let mut s = Series::new(
        "stride-5 walks (12 pages per request), P50 latency",
        "   offered   none p50(us)   readahead p50(us)   leap p50(us)   leap prefetches",
    );
    for ((n, r), l) in none.iter().zip(&ra).zip(&leap) {
        s.rows.push(format!(
            "{:>10.0} {:>13.2} {:>18.2} {:>13.2} {:>15}",
            n.offered_rps,
            n.point().p50_ns as f64 / 1000.0,
            r.point().p50_ns as f64 / 1000.0,
            l.point().p50_ns as f64 / 1000.0,
            l.stats.prefetches,
        ));
    }
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "readahead is blind to strides",
        "next-page windows never fire on stride-5 faults",
        format!(
            "{} prefetches across the sweep",
            ra.iter().map(|r| r.stats.prefetches).sum::<u64>()
        ),
        ra.iter().map(|r| r.stats.prefetches).sum::<u64>()
            < leap.iter().map(|r| r.stats.prefetches).sum::<u64>() / 10,
    ));
    report.expectations.push(Expectation::checked(
        "Leap's majority vote catches the stride",
        "Leap (ATC '20) prefetches along detected trends",
        format!(
            "P50 {} (leap) vs {} (none)",
            fmt_us(leap[0].point().p50_ns),
            fmt_us(none[0].point().p50_ns)
        ),
        leap[0].point().p50_ns < none[0].point().p50_ns,
    ));
    report
}

/// Single queue vs d-FCFS vs ZygOS-style stealing.
pub fn work_stealing(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension W",
        "Queueing: single queue vs per-worker vs work stealing (§3.4)",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let loads = [1_200_000.0, 1_800_000.0, 2_300_000.0];
    let mk = |queue_model: QueueModel| SystemConfig {
        queue_model,
        ..SystemConfig::adios()
    };
    let sq = sweep(
        &mk(QueueModel::SingleQueue),
        &mut wl,
        &loads,
        scale.params(98),
    );
    let pw = sweep(
        &mk(QueueModel::PerWorker),
        &mut wl,
        &loads,
        scale.params(98),
    );
    let ws = sweep(
        &mk(QueueModel::PerWorkerStealing),
        &mut wl,
        &loads,
        scale.params(98),
    );
    let mut s = Series::new(
        "P99.9 by queueing model",
        "   offered   single(us)   d-FCFS(us)   stealing(us)",
    );
    for ((a, b), c) in sq.iter().zip(&pw).zip(&ws) {
        s.rows.push(format!(
            "{:>10.0} {:>12.2} {:>12.2} {:>13.2}",
            a.offered_rps,
            a.point().p999_ns as f64 / 1000.0,
            b.point().p999_ns as f64 / 1000.0,
            c.point().p999_ns as f64 / 1000.0,
        ));
    }
    report.series.push(s);
    let (a99, b99, c99) = (
        sq[1].point().p999_ns,
        pw[1].point().p999_ns,
        ws[1].point().p999_ns,
    );
    report.expectations.push(Expectation::checked(
        "stealing recovers most of d-FCFS' imbalance loss",
        "approximated centralized FCFS (ZygOS)",
        format!(
            "P99.9: single {} / stealing {} / d-FCFS {}",
            fmt_us(a99),
            fmt_us(c99),
            fmt_us(b99)
        ),
        c99 <= b99,
    ));
    // ZygOS' own result: stealing *approximates* centralized FCFS.
    // The paper still picks the single queue because stealing adds
    // queue-scanning work and cannot be applied to the RDMA QPs (§3.4).
    report.expectations.push(Expectation::checked(
        "single queue ≈ stealing tail (within 20 %)",
        "work stealing approximates c-FCFS; single queue avoids its scans",
        fmt_x(c99 as f64 / a99 as f64),
        (a99 as f64) <= c99 as f64 * 1.2,
    ));
    report
}

/// Burst tolerance: MMPP arrivals against queue capacity.
pub fn burst_tolerance(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension B",
        "Burst tolerance: MMPP arrivals vs pre-allocated capacity (§3.2)",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let rate = 1_600_000.0;
    let mut s = Series::new(
        format!("mean {rate:.0} RPS, bursts at 1.9x, 400 µs phases"),
        "  pending cap     drops    p999(us)   completed   mean-queue   peak-queue",
    );
    let mut small_cap_drops = 0;
    let mut big_cap_drops = 0;
    for (i, cap) in [256usize, 1024, 4096].into_iter().enumerate() {
        let cfg = SystemConfig {
            pending_cap: cap,
            ..SystemConfig::adios()
        };
        let params = RunParams {
            offered_rps: rate,
            burst: Some((1.9, SimDuration::from_micros(400))),
            ..scale.params(99)
        };
        let r = run_one(cfg, &mut wl, params);
        if i == 0 {
            small_cap_drops = r.recorder.dropped();
        } else {
            big_cap_drops = r.recorder.dropped();
        }
        // Time-weighted window mean and peak of the pending-queue depth.
        let queue = r.metrics.gauge("queue_depth").expect("always registered");
        s.rows.push(format!(
            "{:>13} {:>9} {:>11.2} {:>11} {:>11.0} {:>11.0}",
            cap,
            r.recorder.dropped(),
            r.point().p999_ns as f64 / 1000.0,
            r.recorder.completed_in_window(),
            queue.mean,
            queue.max,
        ));
    }
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "under-provisioned buffering drops bursts",
        "the pool must absorb bursty arrivals (§3.2)",
        format!("{small_cap_drops} drops at cap 256 vs {big_cap_drops} at cap 4096"),
        small_cap_drops >= big_cap_drops,
    ));
    report
}

/// Worker-count scalability of the single-dispatcher design.
pub fn scalability(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension S",
        "Single-dispatcher scalability with worker count (§6)",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let mut s = Series::new(
        "peak throughput vs workers (offered 9 MRPS, all-local memory)",
        "  workers    achieved    per-worker",
    );
    let mut per_worker = Vec::new();
    for workers in [2usize, 4, 8, 12, 16, 24] {
        let cfg = SystemConfig {
            workers,
            ..SystemConfig::adios()
        };
        let params = RunParams {
            offered_rps: 9_000_000.0,
            // Saturation probing only: short window.
            measure: SimDuration::from_millis(15),
            local_mem_fraction: 1.0,
            ..scale.params(100)
        };
        let r = run_one(cfg, &mut wl, params);
        let achieved = r.recorder.achieved_rps();
        per_worker.push(achieved / workers as f64);
        s.rows.push(format!(
            "{:>9} {:>11.0} {:>13.0}",
            workers,
            achieved,
            achieved / workers as f64
        ));
    }
    report.series.push(s);
    let efficiency_24 = per_worker[5] / per_worker[0];
    report.expectations.push(Expectation::checked(
        "per-worker efficiency collapses past ~10 workers",
        "single queueing scales to about ten worker cores (§6)",
        format!(
            "24-worker per-core efficiency = {:.0} % of 2-worker",
            efficiency_24 * 100.0
        ),
        efficiency_24 < 0.8,
    ));
    report.expectations.push(Expectation::checked(
        "the dispatcher is the bottleneck, not the workers",
        "a dedicated dispatcher thread saturates first",
        format!(
            "adding workers beyond 12 gains {:.0} KRPS",
            (per_worker[5] * 24.0 - per_worker[3] * 12.0) / 1000.0
        ),
        per_worker[5] * 24.0 < per_worker[3] * 12.0 * 1.35,
    ));
    report
}

/// Co-located tenants: a latency-sensitive KVS sharing the node with a
/// SCAN-heavy store — the multi-application setting Canvas (§1) targets.
/// Busy-waiting lets one tenant's long page-faulting SCANs block the
/// other tenant's GETs; yielding isolates them without any explicit
/// partitioning.
pub fn colocation(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension C",
        "Co-located tenants: KVS + SCAN-heavy store on one node",
    );
    let keys = scale.memcached_keys(128).min(600_000);
    let mut wl = MixedWorkload::new(
        apps::MemcachedWorkload::new(keys, 128),
        apps::RocksDbWorkload::new(scale.rocksdb_keys() / 2, 1024).with_mix(0.2, 100),
        0.2,
    );
    let scan_class = wl.b_class(apps::ordb::CLASS_SCAN);
    let loads = match scale {
        Scale::Quick => vec![200_000.0, 400_000.0],
        Scale::Full => vec![200_000.0, 400_000.0, 600_000.0],
    };
    let mut s = Series::new(
        "tenant A (Memcached GET) tail under tenant B's SCAN pressure",
        "  system     offered   A-GET p50(us)   A-GET p999(us)   B-SCAN p50(us)",
    );
    let mut a_tails = Vec::new();
    for kind in SystemKind::all() {
        let results = sweep(
            &SystemConfig::for_kind(kind),
            &mut wl,
            &loads,
            scale.params(114),
        );
        let r = &results[loads.len() - 1];
        let get = r.recorder.class(0);
        a_tails.push((kind, get.percentile(99.9)));
        s.rows.push(format!(
            "  {:<9} {:>9.0} {:>15.2} {:>16.2} {:>16.2}",
            kind.name(),
            r.offered_rps,
            get.percentile(50.0) as f64 / 1000.0,
            get.percentile(99.9) as f64 / 1000.0,
            r.recorder.class(scan_class).percentile(50.0) as f64 / 1000.0,
        ));
    }
    report.series.push(s);
    let tail_of = |kind: SystemKind| {
        a_tails
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, t)| t)
            .unwrap()
    };
    report.expectations.push(Expectation::checked(
        "yielding isolates the co-located tenant's tail",
        "cross-application HOL blocking (Canvas, §1)",
        format!(
            "A-GET P99.9: DiLOS {} vs Adios {}",
            fmt_us(tail_of(SystemKind::Dilos)),
            fmt_us(tail_of(SystemKind::Adios))
        ),
        tail_of(SystemKind::Dilos) > tail_of(SystemKind::Adios),
    ));
    report.expectations.push(Expectation::checked(
        "preemption only partially isolates",
        "DiLOS-P between DiLOS and Adios",
        format!("DiLOS-P {}", fmt_us(tail_of(SystemKind::DilosP))),
        tail_of(SystemKind::DilosP) >= tail_of(SystemKind::Adios),
    ));
    report
}

/// Recall vs latency: the nprobe trade-off under memory disaggregation.
///
/// Recall is measured *for real* on the IVF index (against exact brute
/// force); latency comes from the simulation — a study only possible
/// because the applications are real data structures.
pub fn faiss_nprobe(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension N",
        "Vector search: recall vs remote-memory latency across nprobe",
    );
    let vectors = match scale {
        Scale::Quick => 30_000,
        Scale::Full => 80_000,
    };
    let mut s = Series::new(
        "Adios at a fixed moderate load",
        "  nprobe   recall@10      p50(ms)     p999(ms)   achieved",
    );
    let mut recalls = Vec::new();
    let mut latencies = Vec::new();
    // The index depends only on (vectors, nlist, seed) and search never
    // writes it: build once, re-set the probe count per leg.
    let mut wl = apps::FaissWorkload::new(vectors, 64, scale.faiss_nprobe(), 111);
    for nprobe in [2usize, 4, 8, 16] {
        wl = wl.with_nprobe(nprobe);
        let mut rng = desim::Rng::new(112);
        let recall = wl.measure_recall(20, &mut rng);
        let params = RunParams {
            offered_rps: 3_000.0,
            measure: SimDuration::from_millis(250),
            ..scale.params(113)
        };
        let r = run_one(SystemConfig::adios(), &mut wl, params);
        let p50 = r.recorder.overall().percentile(50.0);
        recalls.push(recall);
        latencies.push(p50);
        s.rows.push(format!(
            "{:>8} {:>11.3} {:>12.2} {:>12.2} {:>10.0}",
            nprobe,
            recall,
            p50 as f64 / 1e6,
            r.recorder.overall().percentile(99.9) as f64 / 1e6,
            r.recorder.achieved_rps(),
        ));
    }
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "recall improves with nprobe",
        "IVF accuracy/latency trade-off (Faiss wiki, cited §5.2)",
        format!(
            "recall {:.3} → {:.3}",
            recalls[0],
            recalls[recalls.len() - 1]
        ),
        recalls[recalls.len() - 1] >= recalls[0],
    ));
    report.expectations.push(Expectation::checked(
        "latency grows with nprobe (more remote list sweeps)",
        "probing more lists sweeps more remote pages",
        format!(
            "P50 {:.2} ms → {:.2} ms",
            latencies[0] as f64 / 1e6,
            latencies[latencies.len() - 1] as f64 / 1e6
        ),
        latencies[latencies.len() - 1] > latencies[0],
    ));
    report
}

/// Networking-stack study (§6 future work): the paper's prototype uses
/// Raw-Ethernet/UDP; §6 argues the design stays valid with TCP "if the
/// networking stacks provide microsecond-scale latencies similar to IX,
/// TAS, ZygOS and Shenango". Sweep the stack overhead and watch where
/// the Adios-vs-DiLOS story survives.
pub fn networking(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension T",
        "Networking stacks: raw Ethernet vs kernel-bypass TCP vs kernel TCP",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let load = 1_300_000.0;
    let mut s = Series::new(
        format!("microbenchmark at {:.1} MRPS", load / 1e6),
        "  stack            overhead   DiLOS p50/p999(us)      Adios p50/p999(us)   Adios achieved",
    );
    let mut rows = Vec::new();
    for (name, ns) in [
        ("raw Ethernet", 0u64),
        ("TAS-class TCP", 400),
        ("kernel TCP", 2_500),
    ] {
        let mk = |base: SystemConfig| SystemConfig {
            client_stack: SimDuration::from_nanos(ns),
            ..base
        };
        let d = sweep(
            &mk(SystemConfig::dilos()),
            &mut wl,
            &[load],
            scale.params(115),
        );
        let a = sweep(
            &mk(SystemConfig::adios()),
            &mut wl,
            &[load],
            scale.params(115),
        );
        let (dp, ap) = (d[0].point(), a[0].point());
        rows.push((name, dp, ap));
        s.rows.push(format!(
            "  {:<15} {:>7} ns {:>10.2} / {:>8.2} {:>10.2} / {:>8.2} {:>14.0}",
            name,
            ns,
            dp.p50_ns as f64 / 1e3,
            dp.p999_ns as f64 / 1e3,
            ap.p50_ns as f64 / 1e3,
            ap.p999_ns as f64 / 1e3,
            ap.achieved_rps,
        ));
    }
    report.series.push(s);
    let (_, d_tas, a_tas) = rows[1];
    let (_, _, a_ktcp) = rows[2];
    report.expectations.push(Expectation::checked(
        "with a µs-scale TCP stack the story survives",
        "design valid with IX/TAS/ZygOS/Shenango-class stacks (§6)",
        format!(
            "Adios P99.9 {} vs DiLOS {}",
            fmt_us(a_tas.p999_ns),
            fmt_us(d_tas.p999_ns)
        ),
        a_tas.p999_ns < d_tas.p999_ns,
    ));
    report.expectations.push(Expectation::checked(
        "a kernel TCP stack erases microsecond-scale MD for everyone",
        "why the paper pairs MD with kernel-bypass networking",
        format!(
            "Adios achieved {:.2} MRPS (vs {:.2} with raw Ethernet)",
            a_ktcp.achieved_rps / 1e6,
            rows[0].2.achieved_rps / 1e6
        ),
        a_ktcp.achieved_rps < rows[0].2.achieved_rps * 0.75,
    ));

    // -- RTO ladder under loss ------------------------------------------
    // The transport half of the stack: how fast a lost fetch is noticed.
    // Fixed firmware ladders trade spurious retransmits (too short)
    // against dead air (too long); the RFC 6298 adaptive timer tracks
    // the observed RTT instead.
    let mut s = Series::new(
        "2 % packet loss at 0.9 MRPS: fixed-RTO ladder vs adaptive timer",
        "  rto             p50(us)   p999(us)   retransmits",
    );
    let mut ladder = Vec::new();
    for (name, rto_us, adaptive) in [
        ("16 us fixed", 16u64, false),
        ("64 us fixed", 64, false),
        ("256 us fixed", 256, false),
        ("adaptive", 16, true),
    ] {
        let cfg = SystemConfig {
            fabric: fabric::FabricParams {
                rto: SimDuration::from_micros(rto_us),
                adaptive_rto: adaptive,
                ..fabric::FabricParams::default()
            },
            ..SystemConfig::adios()
        };
        let params = RunParams {
            offered_rps: 900_000.0,
            faults: Some(faults::FaultScenario::with_loss(0.02)),
            ..scale.params(218)
        };
        let r = run_one(cfg, &mut wl, params);
        let p = r.point();
        let retx = r.metrics.counter("fetch_retransmits").unwrap_or(0);
        s.rows.push(format!(
            "  {:<14} {:>8.2} {:>10.2} {:>13}",
            name,
            p.p50_ns as f64 / 1e3,
            p.p999_ns as f64 / 1e3,
            retx,
        ));
        ladder.push((name, p.p999_ns, retx));
    }
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "a coarse fixed RTO inflates the loss tail; adaptive tracks RTT",
        "RFC 6298 arms SRTT + 4·RTTVAR once the transport is warm",
        format!(
            "P99.9 {} (256 us fixed) vs {} (adaptive)",
            fmt_us(ladder[2].1),
            fmt_us(ladder[3].1)
        ),
        ladder[3].1 < ladder[2].1,
    ));
    report
}

/// Periodic memnode stalls of a configurable magnitude (the stall-
/// duration axis of the fault study).
fn stall_scenario(stall: SimDuration) -> faults::FaultScenario {
    use faults::{Episode, EpisodeKind, FaultScenario};
    let mut episodes = Vec::new();
    for i in 0..100u64 {
        let start = desim::SimTime(i * 10_000_000 + 3_000_000);
        episodes.push(Episode {
            start,
            end: start + SimDuration::from_millis(1),
            kind: EpisodeKind::NodeStall { node: 0, stall },
        });
    }
    FaultScenario {
        name: "stall-sweep",
        loss: 0.0,
        corrupt: 0.0,
        cqe_error: 0.0,
        episodes,
    }
}

/// Fault injection: packet-loss and stall sweeps plus a memnode crash
/// with failover — busy-waiting burns every retransmission timeout
/// on-core, so faults widen the Adios-vs-baseline gap.
pub fn fault_tolerance(scale: Scale) -> FigureReport {
    use faults::FaultScenario;
    let mut report = FigureReport::new(
        "Extension F",
        "Fault plane: RC retransmission, memnode stalls, and failover",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    // Near DiLOS' knee: with headroom to spare, a burned RTO only hurts
    // the spinning request; near saturation the wasted worker time
    // compounds into queueing — the divergence the study measures.
    let load = 1_250_000.0;
    let systems = [
        SystemKind::Hermit,
        SystemKind::Dilos,
        SystemKind::DilosP,
        SystemKind::Adios,
    ];

    // -- packet-loss sweep at fixed load --------------------------------
    let losses = [0.0, 0.01, 0.02, 0.05];
    let mut s = Series::new(
        format!("packet-loss sweep at {:.1} MRPS", load / 1e6),
        "    loss  system      p50(us)  p999(us)  retrans   aborts    drops",
    );
    // p999[system][loss_index]
    let mut p999 = vec![Vec::new(); systems.len()];
    let mut total_aborts = 0u64;
    let mut adios_drops = 0u64;
    for &loss in &losses {
        for (si, kind) in systems.iter().enumerate() {
            let params = RunParams {
                offered_rps: load,
                faults: Some(FaultScenario::with_loss(loss)),
                ..scale.params(140)
            };
            let r = run_one(SystemConfig::for_kind(*kind), &mut wl, params);
            let p = r.point();
            let c = |name| r.metrics.counter(name).unwrap_or(0);
            p999[si].push(p.p999_ns);
            total_aborts += c("fetch_aborts");
            if *kind == SystemKind::Adios {
                adios_drops += r.recorder.dropped();
            }
            s.rows.push(format!(
                "  {:>5.2}%  {:<10} {:>8.2} {:>9.2} {:>8} {:>8} {:>8}",
                loss * 100.0,
                kind.name(),
                p.p50_ns as f64 / 1e3,
                p.p999_ns as f64 / 1e3,
                c("fetch_retransmits"),
                c("fetch_aborts"),
                r.recorder.dropped(),
            ));
        }
    }
    report.series.push(s);

    let (hermit_i, dilos_i, adios_i) = (0usize, 1usize, 3usize);
    let top = losses.len() - 1;
    report.expectations.push(Expectation::checked(
        "retransmission conserves every fetch",
        "bounded RC retry (7 retries) puts loss^8 exhaustion off the map",
        format!("{total_aborts} aborted fetch chains across the sweep"),
        total_aborts == 0,
    ));
    report.expectations.push(Expectation::checked(
        "Adios sheds no load under 5 % loss",
        "yielding keeps workers productive through retransmission timeouts",
        format!("{adios_drops} drops across the loss grid"),
        adios_drops == 0,
    ));
    report.expectations.push(Expectation::checked(
        "busy-wait P99.9 diverges from Adios as loss rises",
        "the baseline burns each 16 µs+ RTO on-core; Adios overlaps it",
        format!(
            "at 5% loss: DiLOS {} / Hermit {} vs Adios {}",
            fmt_us(p999[dilos_i][top]),
            fmt_us(p999[hermit_i][top]),
            fmt_us(p999[adios_i][top]),
        ),
        p999[dilos_i][top] > p999[adios_i][top],
    ));
    report.expectations.push(Expectation::checked(
        "loss inflates the busy-wait tail against its own lossless run",
        "every retransmitted fetch adds a full RTO of spinning",
        format!(
            "DiLOS P99.9 {} lossless -> {} at 5% loss",
            fmt_us(p999[dilos_i][0]),
            fmt_us(p999[dilos_i][top]),
        ),
        p999[dilos_i][top] > p999[dilos_i][0] * 3 / 2,
    ));

    // -- stall-duration sweep -------------------------------------------
    let stalls_us = [0u64, 25, 50, 100];
    let mut s = Series::new(
        format!(
            "memnode-stall sweep at {:.1} MRPS (1 ms windows every 10 ms)",
            load / 1e6
        ),
        "  stall(us)  system      p50(us)  p999(us)",
    );
    let mut stall_p999 = Vec::new(); // (dilos, adios) per duration
    for &us in &stalls_us {
        let params = RunParams {
            offered_rps: load,
            faults: Some(stall_scenario(SimDuration::from_micros(us))),
            ..scale.params(141)
        };
        let d = run_one(SystemConfig::dilos(), &mut wl, params.clone());
        let a = run_one(SystemConfig::adios(), &mut wl, params);
        for (name, r) in [("DiLOS", &d), ("Adios", &a)] {
            let p = r.point();
            s.rows.push(format!(
                "  {:>9}  {:<10} {:>8.2} {:>9.2}",
                us,
                name,
                p.p50_ns as f64 / 1e3,
                p.p999_ns as f64 / 1e3,
            ));
        }
        stall_p999.push((d.point().p999_ns, a.point().p999_ns));
    }
    report.series.push(s);
    let (d_top, a_top) = stall_p999[stalls_us.len() - 1];
    report.expectations.push(Expectation::checked(
        "stall windows hurt the busy-waiter more",
        "100 µs stalls pin a spinning worker; yielding fills the gap",
        format!(
            "at 100 µs: DiLOS {} vs Adios {}",
            fmt_us(d_top),
            fmt_us(a_top)
        ),
        d_top > a_top,
    ));

    // -- memnode crash with failover ------------------------------------
    let crash_cfg = SystemConfig {
        memnode_replicas: 2,
        ..SystemConfig::adios()
    };
    let params = RunParams {
        offered_rps: 300_000.0,
        faults: Some(FaultScenario::crash()),
        ..scale.params(142)
    };
    let r = run_one(crash_cfg, &mut wl, params);
    let c = |name| r.metrics.counter(name).unwrap_or(0);
    let mut s = Series::new(
        "primary-memnode crash (Adios, 2 replicas, 0.3 MRPS)",
        "  failovers  chain_failures  cqe_errors   aborts    drops  p999(us)",
    );
    s.rows.push(format!(
        "  {:>9} {:>15} {:>11} {:>8} {:>8} {:>9.2}",
        c("fetch_failovers"),
        c("fetch_chain_failures"),
        c("fetch_cqe_errors"),
        c("fetch_aborts"),
        r.recorder.dropped(),
        r.point().p999_ns as f64 / 1e3,
    ));
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "fetches fail over to the replica during the outage",
        "each error CQE re-issues on the failover QP against replica 1",
        format!("{} failovers", c("fetch_failovers")),
        c("fetch_failovers") > 0,
    ));
    report.expectations.push(Expectation::checked(
        "error CQEs partition into failovers + chain failures",
        "the conservation invariant of the fault plane",
        format!(
            "{} = {} + {}",
            c("fetch_cqe_errors"),
            c("fetch_failovers"),
            c("fetch_chain_failures")
        ),
        c("fetch_cqe_errors") == c("fetch_failovers") + c("fetch_chain_failures"),
    ));
    report.notes.push(
        "failure detection is the RC transport's bounded retry ladder (16 µs base RTO, \
         exponential backoff, 7 retries ≈ 1.26 ms): during the outage every first \
         attempt burns the ladder before its error CQE triggers failover — which \
         busy-waiting turns into 1.26 ms of pinned spinning per fault"
            .into(),
    );
    report
}

/// Memnode sharding: aggregate fetch bandwidth vs shard count, and
/// blast-radius containment when one shard's primary crashes.
///
/// Each shard owns its own memnode chain, QP set and NIC rail, so the
/// data links multiply with the shard count. The sweep narrows each
/// rail to an eighth of the default 100 Gbps so a single shard
/// saturates well below the offered load — sharding then recovers the
/// lost throughput rail by rail.
pub fn shard_scaling(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension D",
        "Memnode sharding: bandwidth scaling and failure containment",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());

    // -- shard-count sweep at fixed offered load ------------------------
    // One narrow rail serves ~0.85 MRPS and two ~1.7 MRPS, so at this
    // load both stay saturated and only four shards clear the offer.
    let load = 2_400_000.0;
    let narrow = fabric::FabricParams {
        link_bandwidth_bps: 12_500_000_000,
        ..fabric::FabricParams::default()
    };
    let mut s = Series::new(
        format!("{:.1} MRPS offered, 12.5 Gbps per shard rail", load / 1e6),
        "  shards    achieved   agg fetch GB   mean rail util",
    );
    let mut achieved = Vec::new();
    let mut agg_bytes = Vec::new();
    for shards in [1usize, 2, 4] {
        let cfg = SystemConfig {
            memnode_shards: shards,
            fabric: narrow,
            ..SystemConfig::adios()
        };
        let params = RunParams {
            offered_rps: load,
            ..scale.params(160)
        };
        let r = run_one(cfg, &mut wl, params);
        let bytes: u64 = r.shards.iter().map(|w| w.data_bytes).sum();
        achieved.push(r.recorder.achieved_rps());
        agg_bytes.push(bytes);
        s.rows.push(format!(
            "{:>8} {:>11.0} {:>14.2} {:>16.3}",
            shards,
            r.recorder.achieved_rps(),
            bytes as f64 / 1e9,
            r.rdma_data_util,
        ));
    }
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "aggregate fetch bandwidth grows monotonically with shards",
        "each shard brings its own memnode, QP set and NIC rail",
        format!(
            "{:.2} / {:.2} / {:.2} GB over 1 / 2 / 4 shards",
            agg_bytes[0] as f64 / 1e9,
            agg_bytes[1] as f64 / 1e9,
            agg_bytes[2] as f64 / 1e9
        ),
        agg_bytes[1] > agg_bytes[0] && agg_bytes[2] > agg_bytes[1],
    ));
    report.expectations.push(Expectation::checked(
        "achieved throughput scales out of a single saturated rail",
        "a 12.5 Gbps rail caps one shard well below the offered load",
        format!(
            "{:.2} → {:.2} → {:.2} MRPS",
            achieved[0] / 1e6,
            achieved[1] / 1e6,
            achieved[2] / 1e6
        ),
        achieved[1] > achieved[0] && achieved[2] > achieved[1],
    ));

    // -- crash containment: one shard's primary dies --------------------
    let crash_cfg = SystemConfig {
        memnode_shards: 4,
        memnode_replicas: 2,
        ..SystemConfig::adios()
    };
    // Load picked so the outage shard's 1.26 ms-per-fault RTO ladders
    // stay within the worker QPs' slack: the shard re-maps with zero
    // drops. (At several hundred KRPS a full-window outage saturates
    // the blocked-fetch backlog and sheds load — sharded or not; the
    // pre-sharding single-chain layout collapses *harder* there.)
    let mk_params = |faults| RunParams {
        offered_rps: 100_000.0,
        faults,
        ..scale.params(161)
    };
    let base = run_one(crash_cfg.clone(), &mut wl, mk_params(None));
    let crash = run_one(
        crash_cfg,
        &mut wl,
        mk_params(Some(faults::FaultScenario::crash_node(0))),
    );
    let c = |s: usize, field: &str| {
        let name = format!("shard{s}.{field}");
        crash.metrics.counter(&name).unwrap_or(0)
    };
    let mut s = Series::new(
        "shard-0 primary down for the whole window (4 shards, 2 replicas, 0.1 MRPS)",
        "  shard   fetches  failovers   fetch p999(us)   baseline p999(us)",
    );
    for sh in 0..4usize {
        s.rows.push(format!(
            "{:>7} {:>9} {:>10} {:>16.2} {:>19.2}",
            sh,
            c(sh, "fetches"),
            c(sh, "fetch_failovers"),
            crash.shards[sh].fetch_ns.percentile(99.9) as f64 / 1e3,
            base.shards[sh].fetch_ns.percentile(99.9) as f64 / 1e3,
        ));
    }
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "the dead primary's shard fails over with zero lost requests",
        "pages re-map onto the shard's replica chain",
        format!(
            "{} failovers on shard 0, {} drops",
            c(0, "fetch_failovers"),
            crash.recorder.dropped()
        ),
        c(0, "fetch_failovers") > 0 && crash.recorder.dropped() == 0,
    ));
    let spared = (1..4usize).all(|sh| c(sh, "fetch_cqe_errors") == 0);
    let contained = (1..4usize).all(|sh| {
        let b = base.shards[sh].fetch_ns.percentile(99.9);
        let f = crash.shards[sh].fetch_ns.percentile(99.9);
        f <= b + b / 4
    });
    report.expectations.push(Expectation::checked(
        "other shards never see an error and keep their fetch tail",
        "shards share no chain, QP or rail with the dead node",
        format!("shards 1–3: 0 errors, fetch p999 within 25 % of baseline = {contained}"),
        spared && contained,
    ));
    report.expectations.push(Expectation::info(
        "failover cost is the RC retry ladder",
        "first attempt burns ~1.26 ms of RTO before the error CQE",
        format!(
            "shard 0 fetch p999 {} vs {} without the outage",
            fmt_us(crash.shards[0].fetch_ns.percentile(99.9)),
            fmt_us(base.shards[0].fetch_ns.percentile(99.9))
        ),
    ));
    report
}

/// Dispatcher-count scaling: one shared FCFS queue vs per-core ingress
/// with work stealing vs flat combining.
///
/// All-local requests isolate the dispatch plane — no fetch, no fabric,
/// so admission is the only scaling resource under test. Workers grow
/// with the dispatcher count (8 per dispatcher) so the worker pool
/// never caps the wider ingress, and the offered load grows too so
/// every point sits in deep overload (achieved RPS reads capacity).
pub fn dispatcher_scaling(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Extension H",
        "Dispatcher scaling: shared FCFS vs work stealing vs flat combining",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let counts: &[usize] = match scale {
        Scale::Quick => &[1, 2, 4, 8],
        Scale::Full => &[1, 2, 4, 8, 16],
    };
    let policies = [
        DispatchPolicy::SingleFcfs,
        DispatchPolicy::WorkStealing,
        DispatchPolicy::FlatCombining,
    ];
    let mut achieved = vec![Vec::new(); policies.len()];
    for &n in counts {
        for (pi, &policy) in policies.iter().enumerate() {
            let cfg = SystemConfig {
                dispatchers: n,
                dispatch_policy: policy,
                workers: 8 * n,
                ..SystemConfig::adios()
            };
            let params = RunParams {
                offered_rps: 2_500_000.0 * n as f64,
                // Saturation probing only: short window.
                measure: SimDuration::from_millis(15),
                local_mem_fraction: 1.0,
                ..scale.params(180)
            };
            let r = run_one(cfg, &mut wl, params);
            achieved[pi].push(r.recorder.achieved_rps());
        }
    }
    let (fcfs, ws, fc) = (&achieved[0], &achieved[1], &achieved[2]);
    let mut s = Series::new(
        "achieved MRPS vs dispatcher count (deep overload, all-local, 8 workers per dispatcher)",
        "  dispatchers   single-fcfs   work-stealing   flat-combining",
    );
    for (i, &n) in counts.iter().enumerate() {
        s.rows.push(format!(
            "{:>13} {:>13.2} {:>15.2} {:>16.2}",
            n,
            fcfs[i] / 1e6,
            ws[i] / 1e6,
            fc[i] / 1e6
        ));
    }
    report.series.push(s);
    // The FCFS knee: the last dispatcher count where the shared queue
    // still gained ≥ 10 % — beyond it, core 0's serialized admissions
    // cap the machine no matter how many cores it has.
    let mut knee = 0;
    for i in 1..fcfs.len() {
        if fcfs[i] > fcfs[i - 1] * 1.10 {
            knee = i;
        }
    }
    let top = counts.len() - 1;
    report.expectations.push(Expectation::info(
        "single-queue FCFS saturation knee",
        "§6: the dedicated dispatcher thread saturates first",
        format!(
            "stops scaling past {} dispatcher(s) at {}",
            counts[knee],
            fmt_x(fcfs[top] / fcfs[0])
        ),
    ));
    report.expectations.push(Expectation::checked(
        "extra cores buy the shared queue nothing past its knee",
        "one queue head is one serialization point",
        format!(
            "{} at {} dispatchers vs {} at the knee",
            super::fmt_mrps(fcfs[top]),
            counts[top],
            super::fmt_mrps(fcfs[knee])
        ),
        fcfs[top] <= fcfs[knee] * 1.25,
    ));
    report.expectations.push(Expectation::checked(
        "work stealing keeps scaling where FCFS stalls",
        "per-core ingress removes the serialization point",
        format!(
            "{} vs {} at {} dispatchers ({})",
            super::fmt_mrps(ws[top]),
            super::fmt_mrps(fcfs[top]),
            counts[top],
            fmt_x(ws[top] / fcfs[top])
        ),
        ws[top] > fcfs[top] * 1.5,
    ));
    report.expectations.push(Expectation::checked(
        "work-stealing throughput is monotone in dispatcher count",
        "more ingress cores never cost capacity",
        ws.iter()
            .map(|r| format!("{:.2}", r / 1e6))
            .collect::<Vec<_>>()
            .join(" → "),
        ws.windows(2).all(|w| w[1] >= w[0] * 0.97),
    ));
    report.expectations.push(Expectation::checked(
        "flat combining amortizes the shared queue's serialization",
        "joiners ride a batch at a quarter of the admission cost",
        format!(
            "{} vs FCFS {} at {} dispatchers",
            super::fmt_mrps(fc[top]),
            super::fmt_mrps(fcfs[top]),
            counts[top]
        ),
        fc[top] > fcfs[top] * 1.2,
    ));
    report.notes.push(
        "flat combining stays globally FIFO (one combiner drains every slot in batch \
         order) so it trades peak scaling for ordering; work stealing reorders across \
         ingress slots — the d-FCFS fairness caveat documented in MODEL.md §14"
            .into(),
    );
    report
}

/// Multi-tenant traffic plane: priority isolation at overload plus the
/// LLM-serving vs KVS prefetcher divergence.
pub fn tenant_isolation(scale: Scale) -> FigureReport {
    use loadgen::{TenantPlane, TenantPriority, TenantSpec};
    use runtime::TenantWorkload;

    let mut report = FigureReport::new(
        "Extension G",
        "Multi-tenant admission control: priority isolation at overload",
    );

    // -- leg 1: a latency-sensitive tenant vs a best-effort flood -------
    // The high-priority tenant runs comfortably inside capacity; the
    // low-priority tenant offers several times the saturation
    // throughput (Quick-scale Adios peaks near 2.4 MRPS, so the
    // combined 4.3 MRPS offer is ~1.8x saturation). The flood is
    // policed by its token bucket, with the dispatcher watermark as
    // the burst backstop — isolation must come from admission, not
    // from the fabric having slack.
    let pages = scale.microbench_pages();
    let hi_rate = 300_000.0;
    let lo_rate = 4_000_000.0;
    let hi_slo = desim::parse_slo_spec("lat<200us:0.001@10ms").expect("static spec");
    let hi_spec =
        || TenantSpec::new(hi_rate, "array", TenantPriority::High).with_slo(hi_slo.clone());
    let lo_spec = TenantSpec::new(lo_rate, "array", TenantPriority::Low).with_bucket(400_000.0, 64);
    // Both runs use the same two-namespace workload (and therefore the
    // same cache size): the baseline simply never draws tenant 1.
    let two_arrays = || {
        TenantWorkload::new(vec![
            Box::new(ArrayIndexWorkload::new(pages)),
            Box::new(ArrayIndexWorkload::new(pages)),
        ])
    };
    let run_plane = |plane: TenantPlane, wl: &mut TenantWorkload| {
        let params = RunParams {
            offered_rps: plane.total_rate_rps(),
            tenants: Some(plane),
            ..scale.params(170)
        };
        run_one(SystemConfig::adios(), wl, params)
    };
    let mut wl = two_arrays();
    let base = run_plane(TenantPlane::new(vec![hi_spec()]), &mut wl);
    let mut wl = two_arrays();
    let mix = run_plane(
        TenantPlane::new(vec![hi_spec(), lo_spec]).with_shed_watermark(64),
        &mut wl,
    );
    let base_p999 = base.tenants[0].latency_ns.percentile(99.9);
    let (hi, lo) = (&mix.tenants[0], &mix.tenants[1]);
    let mut s = Series::new(
        format!(
            "{:.1} MRPS offered against ~2.4 MRPS capacity (watermark 64, lo bucket 0.4 MRPS)",
            (hi_rate + lo_rate) / 1e6
        ),
        "  tenant  prio  offered   arrivals   admitted  completed      sheds   p50(us)  p999(us)",
    );
    for t in &mix.tenants {
        s.rows.push(format!(
            "{:>8} {:>5} {:>8.0} {:>10} {:>10} {:>10} {:>10} {:>9.2} {:>9.2}",
            t.name,
            t.priority,
            t.offered_rps,
            t.arrivals,
            t.admitted,
            t.completed,
            t.sheds,
            t.latency_ns.percentile(50.0) as f64 / 1e3,
            t.latency_ns.percentile(99.9) as f64 / 1e3,
        ));
    }
    report.series.push(s);

    let hi_p999 = hi.latency_ns.percentile(99.9);
    let drift = hi_p999 as f64 / base_p999.max(1) as f64;
    report.expectations.push(Expectation::checked(
        "high-priority p99.9 holds flat through the overload",
        "within 10 % of the single-tenant baseline",
        format!(
            "{} vs {} baseline ({})",
            fmt_us(hi_p999),
            fmt_us(base_p999),
            fmt_x(drift)
        ),
        drift <= 1.10,
    ));
    report.expectations.push(Expectation::checked(
        "shedding lands entirely on the best-effort tenant",
        "low-priority sheds > 0, high-priority sheds = 0",
        format!("hi sheds {} / lo sheds {}", hi.sheds, lo.sheds),
        hi.sheds == 0 && lo.sheds > 0,
    ));
    report.expectations.push(Expectation::checked(
        "the high-priority latency SLO verdict passes",
        "lat<200us:0.001@10ms over the tenant's own window",
        format!("slo_ok = {:?}, {} completions", hi.slo_ok, hi.completed),
        hi.slo_ok == Some(true) && hi.completed > 0,
    ));
    report.expectations.push(Expectation::checked(
        "request conservation holds through admission + shedding",
        "arrivals = completions + drops + sheds + aborts + in-flight",
        format!("{:?}", mix.conservation),
        mix.conservation.holds() && mix.conservation.sheds > 0,
    ));

    // -- leg 2: LLM KV-cache serving vs Memcached under the prefetcher --
    // A decode step re-reads a contiguous window at the tail of the
    // session's KV region, which the always-on readahead turns into
    // cache hits; Memcached GETs are single random pages the
    // readahead can never anticipate.
    let leg2 = |mut wl: Box<dyn runtime::Workload>, rate: f64| {
        let params = RunParams {
            offered_rps: rate,
            ..scale.params(171)
        };
        run_one(SystemConfig::adios(), &mut *wl, params)
    };
    let sessions = (pages / 64).max(16) as u32;
    let llm = leg2(
        Box::new(apps::LlmServeWorkload::new(sessions, 64)),
        400_000.0,
    );
    let keys = scale.memcached_keys(128).min(500_000);
    let kvs = leg2(Box::new(apps::MemcachedWorkload::new(keys, 128)), 400_000.0);
    let hit_rate = |r: &runtime::sim::RunResult| {
        let c = &r.cache;
        c.hits as f64 / (c.hits + c.misses).max(1) as f64
    };
    let (llm_hits, kvs_hits) = (hit_rate(&llm), hit_rate(&kvs));
    let mut s = Series::new(
        "app-dependent prefetcher payoff at 0.4 MRPS, 20 % local memory",
        "  app            hit rate   p50(us)  p999(us)",
    );
    for (name, r, hits) in [("llmserve", &llm, llm_hits), ("memcached", &kvs, kvs_hits)] {
        let h = r.recorder.overall();
        s.rows.push(format!(
            "{:<14} {:>9.3} {:>9.2} {:>9.2}",
            name,
            hits,
            h.percentile(50.0) as f64 / 1e3,
            h.percentile(99.9) as f64 / 1e3,
        ));
    }
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "LLM decode locality beats KVS point lookups under readahead",
        "sequential KV-window reads prefetch; random GETs cannot",
        format!("hit rate {llm_hits:.3} (llm) vs {kvs_hits:.3} (kvs)"),
        llm_hits > kvs_hits + 0.1,
    ));
    report.notes.push(
        "isolation comes from admission (token bucket + priority ingress + watermark), \
         not fabric slack: the flood alone would saturate every worker and QP"
            .into(),
    );
    report
}

/// Memory-access observatory across the five applications: prefetch
/// fates, working sets, access-shape fingerprints, and a Zipfian-skew
/// leg where one shard's heat share dominates.
pub fn memory_observatory(scale: Scale) -> FigureReport {
    use apps::silo::tpcc::TpccScale;
    use apps::{FaissWorkload, LlmServeWorkload, MemcachedWorkload, RocksDbWorkload, TpccWorkload};
    let mut report = FigureReport::new(
        "Extension I",
        "Memory-access observatory: prefetch fates, page heat, working sets",
    );
    let mk = |prefetcher: PrefetcherKind| SystemConfig {
        prefetcher,
        // Keep the fate classes clean: every prefetch comes from the
        // detector under test, none from the speculative fallback.
        speculative_readahead: 0.0,
        ..SystemConfig::adios()
    };
    let ra = mk(PrefetcherKind::Readahead { window: 8 });
    let leap = mk(PrefetcherKind::Leap {
        window: 6,
        depth: 8,
    });

    // Every leg is observatory-on: this report reads the memory plane.
    let observed = |offered_rps, seed| RunParams {
        offered_rps,
        memory: Some(runtime::sim::MemObsConfig),
        ..scale.params(seed)
    };

    // -- five apps × two detectors --------------------------------------
    let keys = scale.memcached_keys(128).min(200_000);
    let scan_keys = scale.rocksdb_keys().min(100_000);
    let mut legs: Vec<(&str, &str, runtime::sim::RunResult)> = Vec::new();
    for (det_name, cfg) in [("readahead", &ra), ("leap", &leap)] {
        let mut kvs = MemcachedWorkload::new(keys, 128);
        legs.push((
            "KVS",
            det_name,
            run_one(cfg.clone(), &mut kvs, observed(400_000.0, 210)),
        ));
        let mut scan = RocksDbWorkload::new(scan_keys, 1024);
        legs.push((
            "SCAN",
            det_name,
            run_one(cfg.clone(), &mut scan, observed(150_000.0, 211)),
        ));
        let mut tpcc = TpccWorkload::new(TpccScale::tiny(), 212);
        legs.push((
            "TPC-C",
            det_name,
            run_one(cfg.clone(), &mut tpcc, observed(80_000.0, 212)),
        ));
        let mut ivf = FaissWorkload::new(10_000, 32, 8, 213);
        legs.push((
            "IVF-Flat",
            det_name,
            run_one(cfg.clone(), &mut ivf, observed(20_000.0, 213)),
        ));
        let mut llm = LlmServeWorkload::new(64, 64);
        legs.push((
            "llmserve",
            det_name,
            run_one(cfg.clone(), &mut llm, observed(300_000.0, 214)),
        ));
    }

    let mut s = Series::new(
        "prefetch efficacy and working sets, 20 % local memory",
        "  app        detector    issued      hit%     late%   wasted%   ws mean   distinct   top stride",
    );
    let mut all_hold = true;
    for (app, det, r) in &legs {
        let m = r.memory.as_ref().expect("observatory was on");
        all_hold &= m.holds();
        let t = m.totals();
        let done = (t.hits + t.lates + t.wasted).max(1);
        let stride = m
            .strides
            .first()
            .map(|(d, _)| format!("{d:+}"))
            .unwrap_or_else(|| "-".into());
        s.rows.push(format!(
            "  {:<10} {:<10} {:>7} {:>8.1}% {:>8.1}% {:>8.1}% {:>9.0} {:>10} {:>12}",
            app,
            det,
            t.issued,
            100.0 * t.hits as f64 / done as f64,
            100.0 * t.lates as f64 / done as f64,
            100.0 * t.wasted as f64 / done as f64,
            m.ws_mean(),
            m.distinct_pages,
            stride,
        ));
    }
    report.series.push(s);

    report.expectations.push(Expectation::checked(
        "prefetch-fate conservation holds in every leg",
        "issued == hits + lates + wasted + inflight_at_end, per detector class",
        format!("{} runs, all exact", legs.len()),
        all_hold,
    ));
    let rate_of = |app: &str, det: &str| {
        legs.iter()
            .find(|(a, d, _)| *a == app && *d == det)
            .map(|(_, _, r)| r.memory.as_ref().unwrap().hit_rate())
            .unwrap_or(0.0)
    };
    let (scan_hr, kvs_hr) = (rate_of("SCAN", "readahead"), rate_of("KVS", "readahead"));
    report.expectations.push(Expectation::checked(
        "SCAN and KVS prefetch hit-rates diverge ≥2×",
        "sequential scans reward readahead; random GETs cannot",
        format!("hit rate {scan_hr:.3} (SCAN) vs {kvs_hr:.3} (KVS)"),
        scan_hr >= (2.0 * kvs_hr).max(0.5),
    ));

    // -- Zipfian skew: one shard's heat share dominates ------------------
    // Hot keys cluster at low arena addresses, so range sharding maps
    // the heavy hitters onto shard 0 and its heat share pulls away from
    // the fair 1/4.
    let skew_cfg = SystemConfig {
        memnode_shards: 4,
        shard_policy: fabric::ShardPolicy::Range,
        ..ra.clone()
    };
    let mut zipf = MemcachedWorkload::new(keys, 128).with_zipf(0.99);
    let zr = run_one(skew_cfg, &mut zipf, observed(400_000.0, 215));
    let zm = zr.memory.as_ref().expect("observatory was on");
    let mut s = Series::new(
        "Zipf(0.99) keys, 4 range shards: decayed heat share per shard",
        "  shard   heat share",
    );
    for (i, share) in zm.shard_shares.iter().enumerate() {
        s.rows.push(format!("  {i:>5} {share:>12.3}"));
    }
    report.series.push(s);
    let dom = zm.shard_shares.iter().cloned().fold(0.0, f64::max);
    report.expectations.push(Expectation::checked(
        "one shard's heat share visibly dominates under Zipf skew",
        "fair split is 0.25/shard; Zipf(0.99) concentrates the hot set",
        format!("max shard share {dom:.3}, skew {:.2}", zm.heat_skew),
        dom > 0.4 && zm.holds(),
    ));
    report.notes.push(
        "same seed and same config with the observatory disabled reproduces the golden \
         byte-identical run JSON: the obs_mask bit only adds instrumentation, never behaviour"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_tolerance_shape() {
        let r = fault_tolerance(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn shard_scaling_shape() {
        let r = shard_scaling(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn tenant_isolation_shape() {
        let r = tenant_isolation(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn infiniswap_shape() {
        let r = infiniswap(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn huge_pages_shape() {
        let r = huge_pages(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn prefetcher_policy_shape() {
        let r = prefetcher_policy(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn work_stealing_shape() {
        let r = work_stealing(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn burst_tolerance_shape() {
        let r = burst_tolerance(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn scalability_shape() {
        let r = scalability(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn dispatcher_scaling_shape() {
        let r = dispatcher_scaling(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn colocation_shape() {
        let r = colocation(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn networking_shape() {
        let r = networking(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    #[ignore = "builds an IVF index 4 times; run with --ignored"]
    fn faiss_nprobe_shape() {
        let r = faiss_nprobe(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn memory_observatory_shape() {
        let r = memory_observatory(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }
}
