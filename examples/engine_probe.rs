//! Engine probe: what one simulated arrival costs the *host* across the
//! load envelope — light load, the knee, 0.9 × capacity, overload and
//! deep admission backlogs — for all four systems. The perf ledger
//! (`benchmark/`) times seven workloads at or below their knees; this
//! covers the points it does not look at, where the event queue runs
//! deep.
//!
//! ```text
//! cargo run --release --example engine_probe [-- --smoke]
//! ```
//!
//! Every row is one `Simulation::new(..).run()` of 1 ms warm-up + 10 ms
//! measured on the array microbenchmark at 20 % local memory, seed 1.
//! Rows run round-robin, 40 rounds (`--smoke`: 2), so a slow stretch of
//! the host hits all rows alike, and each reports its fastest round.
//! The simulated columns (arrivals, drops, achieved rps, P99.9) are
//! exact and must repeat in every round: `diff` two builds' outputs to
//! check a host-only change moved nothing but `host_ns`.

use std::time::Instant;

use adios::prelude::*;

/// One probed point: a system at a fixed offered load.
struct Row {
    name: String,
    cfg: SystemConfig,
    pages: u64,
    offered_rps: f64,
    /// Fastest round so far, host ns per arrival.
    host_ns: f64,
    /// `(arrivals, drops, achieved rps, P99.9 ns)` of the first round.
    sim: Option<(u64, u64, f64, u64)>,
}

/// Pages of the array microbenchmark, as in the perf ledger.
const ARRAY_PAGES: u64 = 65_536;
/// The deep-backlog rows' array, a quarter of the envelope rows'.
const BACKLOG_PAGES: u64 = 16_384;

fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut add = |name: String, cfg: SystemConfig, pages: u64, mrps: f64| {
        rows.push(Row {
            name,
            cfg,
            pages,
            offered_rps: mrps * 1e6,
            host_ns: f64::INFINITY,
            sim: None,
        })
    };
    // The load envelope: light, knee, ≈ 0.9 × capacity, overload.
    let envelope: [(SystemKind, &[f64]); 4] = [
        (SystemKind::Adios, &[0.5, 1.3, 2.2, 2.6, 4.0]),
        (SystemKind::Dilos, &[0.5, 1.3, 1.5, 2.0]),
        (SystemKind::DilosP, &[0.5, 1.3, 1.5, 2.0]),
        (SystemKind::Hermit, &[0.3, 0.7, 1.2]),
    ];
    for (kind, loads) in envelope {
        for &mrps in loads {
            let name = format!("{} {mrps} Mrps", kind.name());
            add(name, SystemConfig::for_kind(kind), ARRAY_PAGES, mrps);
        }
    }
    // Deep backlogs: offered load several times capacity, so the queues
    // ahead of the workers stay full for the whole run (one dispatcher:
    // a full rx ring, 4 096 admit ticks pending).
    for mrps in [8.0, 20.0] {
        let name = format!("Adios backlog {mrps} Mrps");
        add(name, SystemConfig::adios(), BACKLOG_PAGES, mrps);
    }
    for policy in [
        DispatchPolicy::WorkStealing,
        DispatchPolicy::SingleFcfs,
        DispatchPolicy::FlatCombining,
    ] {
        let mut cfg = SystemConfig::adios();
        cfg.dispatchers = 4;
        cfg.dispatch_policy = policy;
        cfg.memnode_shards = 4;
        cfg.memnode_replicas = 2;
        let name = format!("Adios 4 disp {} 12 Mrps", policy.name());
        add(name, cfg, BACKLOG_PAGES, 12.0);
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => 40,
        ["--smoke"] => 2,
        _ => {
            eprintln!("usage: engine_probe [--smoke]");
            std::process::exit(2);
        }
    };
    let mut rows = rows();
    for _ in 0..rounds {
        for row in &mut rows {
            let mut workload = ArrayIndexWorkload::new(row.pages);
            let params = RunParams {
                offered_rps: row.offered_rps,
                seed: 1,
                warmup: SimDuration::from_millis(1),
                measure: SimDuration::from_millis(10),
                local_mem_fraction: 0.2,
                ..Default::default()
            };
            let sim = Simulation::new(row.cfg.clone(), &mut workload, params);
            let start = Instant::now();
            let res = sim.run();
            let run_ns = start.elapsed().as_nanos() as f64;
            let arrivals = res.conservation.arrivals;
            assert!(res.conservation.holds(), "{}: requests lost", row.name);
            let point = res.point();
            let sim = (arrivals, point.drops, point.achieved_rps, point.p999_ns);
            assert_eq!(
                *row.sim.get_or_insert(sim),
                sim,
                "{}: a round did not repeat",
                row.name
            );
            row.host_ns = row.host_ns.min(run_ns / arrivals as f64);
        }
    }
    println!("engine_probe: {rounds} rounds of 1 + 10 ms, seed 1, minimum host ns per arrival");
    println!(
        "{:<36} {:>8} {:>9} {:>9} {:>13} {:>10}",
        "row", "host_ns", "arrivals", "drops", "achieved_rps", "p999_ns"
    );
    for row in &rows {
        let (arrivals, drops, achieved, p999) = row.sim.expect("every row ran");
        println!(
            "{:<36} {:>8.1} {arrivals:>9} {drops:>9} {achieved:>13.1} {p999:>10}",
            row.name, row.host_ns
        );
    }
}
