//! Memcached GET tail latency across load (Figure 10's scenario),
//! including the PF-aware vs round-robin dispatching comparison (10e).
//!
//! ```text
//! cargo run --release --example memcached_tail_latency
//! ```

use adios::prelude::*;

fn main() {
    println!("building Memcached-like store (128 B values)…\n");
    let mut workload = MemcachedWorkload::new(800_000, 128);

    let loads = [400_000.0f64, 700_000.0, 900_000.0, 1_100_000.0];
    println!(
        "{:<10} {:>10} {:>10} {:>11} {:>8} {:>7}",
        "system", "offered", "p50(us)", "p999(us)", "drops", "util"
    );
    for kind in [SystemKind::Dilos, SystemKind::Adios] {
        for &offered in &loads {
            let result = run_one(
                SystemConfig::for_kind(kind),
                &mut workload,
                RunParams {
                    offered_rps: offered,
                    seed: 5,
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
                "{:<10} {:>10.0} {:>10.2} {:>11.2} {:>8} {:>6.0}%",
                kind.name(),
                offered,
                h.percentile(50.0) as f64 / 1e3,
                h.percentile(99.9) as f64 / 1e3,
                result.recorder.dropped(),
                result.rdma_data_util * 100.0,
            );
        }
    }

    // 10e: PF-aware vs round-robin dispatch at a hot load. The effect
    // is a few percent to ~25 % (paper: up to 7.5 % here), so average
    // several arrival sequences.
    println!("\nPF-aware vs round-robin dispatching (Adios, mean P99.9 over 4 seeds):");
    let offered = 650_000.0; // moderate load: idle-worker choice matters
    for (name, policy) in [
        ("round-robin", WorkerSelect::RoundRobin),
        ("PF-aware", WorkerSelect::PfAware),
    ] {
        let mut total = 0.0;
        for seed in [5, 6, 7, 8] {
            let cfg = SystemConfig {
                worker_select: policy,
                ..SystemConfig::adios()
            };
            let result = run_one(
                cfg,
                &mut workload,
                RunParams {
                    offered_rps: offered,
                    seed,
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
            total += result.recorder.overall().percentile(99.9) as f64;
        }
        println!("  {:<12} {:>8.2} us", name, total / 4.0 / 1e3);
    }
    println!("\nAlgorithm 1 sorts idle workers by outstanding page-fetch count to");
    println!("even out the RDMA queue pairs. On uniform GETs the effect is small");
    println!("(the paper reports up to 7.5 % here); it grows to ~27 % under the");
    println!("dispersed RocksDB mix — see the fig11_rocksdb bench (11e).");
}
