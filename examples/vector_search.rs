//! BIGANN-style vector search over remote memory (Figure 13).
//!
//! IVF-Flat queries sweep megabytes of inverted lists per request —
//! millisecond-scale service times dominated by sequential page
//! fetches. Busy-waiting collapses at a fraction of Adios' load.
//!
//! ```text
//! cargo run --release --example vector_search
//! ```

use adios::prelude::*;

fn main() {
    println!("building IVF-Flat index (50k × 128-dim vectors, 128 lists)…");
    let mut workload = FaissWorkload::new(50_000, 128, 8, 4);
    println!(
        "index: {} pages ({} MiB working set)\n",
        workload.total_pages(),
        workload.total_pages() * adios::paging::PAGE_SIZE / (1 << 20)
    );

    for &offered in &[2_000.0f64, 8_000.0] {
        println!("offered {offered:.0} queries/s, 20 % local memory:");
        println!(
            "  {:<10} {:>10} {:>10} {:>11} {:>8}",
            "system", "achieved", "p50(ms)", "p999(ms)", "drops"
        );
        for kind in SystemKind::all() {
            let result = run_one(
                SystemConfig::for_kind(kind),
                &mut workload,
                RunParams {
                    offered_rps: offered,
                    seed: 4,
                    warmup: SimDuration::from_millis(20),
                    measure: SimDuration::from_millis(300),
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
                "  {:<10} {:>10.0} {:>10.2} {:>11.2} {:>8}",
                kind.name(),
                result.recorder.achieved_rps(),
                h.percentile(50.0) as f64 / 1e6,
                h.percentile(99.9) as f64 / 1e6,
                result.recorder.dropped(),
            );
        }
        println!();
    }
    println!(
        "even at millisecond request latencies, overlapping the page fetches\n\
         of concurrent queries decides who saturates first (§5.2, Faiss)."
    );
}
