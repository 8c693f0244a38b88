//! Queue dynamics under bursty arrivals (§3.2's burst-tolerance
//! argument, visualised with the telemetry plane's queue-depth series).
//!
//! ```text
//! cargo run --release --example burst_dynamics
//! ```

use adios::prelude::*;

fn main() {
    let mut wl = ArrayIndexWorkload::new(65_536);
    let rate = 1_600_000.0;
    for (name, burst) in [
        ("steady Poisson", None),
        (
            "MMPP bursts 1.9x / 400us phases",
            Some((1.9, SimDuration::from_micros(400))),
        ),
    ] {
        let r = run_one(
            SystemConfig::adios(),
            &mut wl,
            RunParams {
                offered_rps: rate,
                seed: 12,
                warmup: SimDuration::from_millis(5),
                measure: SimDuration::from_millis(25),
                local_mem_fraction: 0.2,
                keep_breakdowns: false,
                burst,
                trace_capacity: None,
                spans: None,
                faults: None,
                telemetry: Some(TelemetryConfig {
                    tick: SimDuration::from_micros(500),
                    ..Default::default()
                }),
                profile: None,
                memory: None,
                tenants: None,
            },
        );
        let telemetry = r.telemetry.as_ref().expect("telemetry requested");
        let series = telemetry
            .gauge_series("queue_depth")
            .expect("queue_depth is always registered");
        let queue = r.metrics.gauge("queue_depth").expect("always registered");
        println!(
            "\n{name}: achieved {:.0} RPS, P99.9 {:.1} us, drops {}",
            r.recorder.achieved_rps(),
            r.recorder.overall().percentile(99.9) as f64 / 1e3,
            r.recorder.dropped()
        );
        println!("  queue depth over time (500 us ticks, '#' ≈ 4 requests):");
        for (t, depth) in series.lasts().iter().take(30) {
            println!(
                "  {:>7.1} ms |{}",
                t.as_secs_f64() * 1e3,
                "#".repeat((depth / 4.0).round() as usize)
            );
        }
        println!(
            "  window mean queue {:.1}, peak {:.0}",
            queue.mean, queue.max
        );
    }
    println!("\nthe pre-allocated unithread pool (131,072 buffers in the paper)");
    println!("exists to absorb exactly these oscillations (§3.2).");
}
