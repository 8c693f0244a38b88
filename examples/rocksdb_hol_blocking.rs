//! Head-of-line blocking under a bimodal workload (the paper's
//! Figure 11 scenario): 99 % cheap GETs share the node with 1 %
//! SCAN(100) requests whose service time is 25–100× longer.
//!
//! Busy-waiting (DiLOS) lets a SCAN pin a worker through every one of
//! its page faults; preemption (DiLOS-P) helps; yielding (Adios) wins
//! without preemption machinery.
//!
//! ```text
//! cargo run --release --example rocksdb_hol_blocking
//! ```

use adios::apps::ordb::{CLASS_GET, CLASS_SCAN};
use adios::prelude::*;

fn main() {
    println!("building PlainTable-like store (200k × 1 KiB records)…");
    let mut workload = RocksDbWorkload::new(200_000, 1024);
    let offered = 500_000.0;

    println!("\n99 % GET / 1 % SCAN(100) at {offered:.0} RPS, 20 % local memory\n");
    println!(
        "{:<10} {:>12} | {:>12} {:>13} | {:>12} {:>13}",
        "system", "achieved", "GET p50(us)", "GET p999(us)", "SCAN p50(us)", "SCAN p999(us)"
    );
    for kind in SystemKind::all() {
        let result = run_one(
            SystemConfig::for_kind(kind),
            &mut workload,
            RunParams {
                offered_rps: offered,
                seed: 2,
                warmup: SimDuration::from_millis(10),
                measure: SimDuration::from_millis(60),
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
            },
        );
        let g = result.recorder.class(CLASS_GET);
        let s = result.recorder.class(CLASS_SCAN);
        println!(
            "{:<10} {:>12.0} | {:>12.2} {:>13.2} | {:>12.2} {:>13.2}",
            kind.name(),
            result.recorder.achieved_rps(),
            g.percentile(50.0) as f64 / 1e3,
            g.percentile(99.9) as f64 / 1e3,
            s.percentile(50.0) as f64 / 1e3,
            s.percentile(99.9) as f64 / 1e3,
        );
    }
    println!(
        "\nGET tail latency tells the HOL story: a busy-waiting SCAN blocks\n\
         every GET queued behind its worker; Adios' page fault handler\n\
         yields at each of the SCAN's faults, so GETs flow through."
    );
}
