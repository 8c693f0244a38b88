//! Quickstart: run the paper's microbenchmark on all four systems at
//! one load and print the latency/throughput comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use adios::prelude::*;

fn main() {
    // The paper's random-index workload: clients send an array index,
    // the node answers with the value; 20 % of the array fits in local
    // DRAM, the rest is fetched from the memory node over (simulated)
    // RDMA.
    let pages = (512u64 << 20) / adios::paging::PAGE_SIZE; // 512 MiB array
    let offered = 1_300_000.0; // near DiLOS' knee

    println!("microbenchmark: {pages} pages, 20 % local, {offered:.0} RPS offered\n");
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10} {:>8} {:>7}",
        "system", "achieved", "p50(us)", "p99(us)", "p999(us)", "drops", "util"
    );
    for kind in SystemKind::all() {
        let mut workload = ArrayIndexWorkload::new(pages);
        let result = run_one(
            SystemConfig::for_kind(kind),
            &mut workload,
            RunParams {
                offered_rps: offered,
                seed: 1,
                warmup: SimDuration::from_millis(10),
                measure: SimDuration::from_millis(50),
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
        let h = result.recorder.overall();
        println!(
            "{:<10} {:>12.0} {:>10.2} {:>10.2} {:>10.2} {:>8} {:>6.0}%",
            kind.name(),
            result.recorder.achieved_rps(),
            h.percentile(50.0) as f64 / 1e3,
            h.percentile(99.0) as f64 / 1e3,
            h.percentile(99.9) as f64 / 1e3,
            result.recorder.dropped(),
            result.rdma_data_util * 100.0,
        );
    }
    println!(
        "\nAdios' yield-based page fault handling eliminates busy-wait HOL\n\
         blocking: compare the P99.9 columns, and see EXPERIMENTS.md for\n\
         every figure of the paper."
    );
}
