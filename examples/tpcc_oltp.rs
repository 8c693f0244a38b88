//! TPC-C over the Silo OCC engine with remote memory (Figure 12).
//!
//! Each transaction touches dozens of pageable rows (stock, customers,
//! order-line inserts); per-class latencies show how yield-based fault
//! handling keeps short Payments from queueing behind page-faulting
//! New-Orders and Stock-Levels.
//!
//! ```text
//! cargo run --release --example tpcc_oltp
//! ```

use adios::apps::silo::tpcc::TpccScale;
use adios::prelude::*;

fn main() {
    let offered = 120_000.0;
    println!("TPC-C (2 warehouses, standard mix) at {offered:.0} txn/s, 20 % local\n");
    println!(
        "{:<10} {:>10} {:>10} {:>11} | {:>9} {:>8}",
        "system", "achieved", "p50(us)", "p999(us)", "commits", "retries"
    );
    for kind in SystemKind::all() {
        // Fresh database per system: transactions mutate it.
        let mut workload = TpccWorkload::new(TpccScale::paper_like(2), 3);
        let result = run_one(
            SystemConfig::for_kind(kind),
            &mut workload,
            RunParams {
                offered_rps: offered,
                seed: 3,
                warmup: SimDuration::from_millis(10),
                measure: SimDuration::from_millis(80),
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
        let stats = workload.stats();
        println!(
            "{:<10} {:>10.0} {:>10.2} {:>11.2} | {:>9} {:>8}",
            kind.name(),
            result.recorder.achieved_rps(),
            h.percentile(50.0) as f64 / 1e3,
            h.percentile(99.9) as f64 / 1e3,
            stats.commits.iter().sum::<u64>(),
            stats.retries,
        );
    }
    println!("\nper-transaction classes: NewOrder, Payment, OrderStatus, Delivery, StockLevel");
    println!("(OCC retries are real Silo validation failures, re-executed)");
}
