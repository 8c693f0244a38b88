//! Figure 2 — performance analysis of DiLOS (the paper's motivation).
//!
//! (a) P99 vs offered load for busy-waiting and preemption; (b) latency
//! CDF at the pre-knee load; (c) request-handling breakdown at
//! P10/P50/P99/P99.9 with busy-wait called out; (d) throughput stall;
//! (e) RDMA link utilisation stuck near half capacity.

use runtime::sim::{run_one, RunParams};
use runtime::{ArrayIndexWorkload, SystemConfig};

use super::{fmt_mrps, fmt_us, knee_index, points_series, sweep};
use crate::report::{Expectation, FigureReport, Series};
use crate::scale::Scale;

/// Runs the experiment.
pub fn run(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new("Figure 2", "Performance analysis of DiLOS (motivation)");
    let loads = scale.microbench_loads();
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());

    let dilos = sweep(&SystemConfig::dilos(), &mut wl, &loads, scale.params(11));
    let dilos_p = sweep(&SystemConfig::dilos_p(), &mut wl, &loads, scale.params(11));

    // (a)+(d)+(e): the sweep rows carry P99/P99.9, throughput and util.
    report
        .series
        .push(points_series("DiLOS (busy-wait)", &dilos));
    report
        .series
        .push(points_series("DiLOS-P (preemption)", &dilos_p));

    // (b)+(c): one instrumented run just below the knee.
    let knee = knee_index(&dilos);
    let knee_load = dilos[knee].offered_rps;
    let mut res = run_one(
        SystemConfig::dilos(),
        &mut wl,
        RunParams {
            offered_rps: knee_load,
            keep_breakdowns: true,
            ..scale.params(11)
        },
    );

    let mut cdf = Series::new(
        format!("Latency CDF at {} (2b)", fmt_mrps(knee_load)),
        "  latency(us)   fraction",
    );
    let full = res.recorder.overall().cdf();
    let stride = (full.len() / 24).max(1);
    for (i, (v, f)) in full.iter().enumerate() {
        if i % stride == 0 || i + 1 == full.len() {
            cdf.rows
                .push(format!("{:>12.2} {:>10.4}", *v as f64 / 1000.0, f));
        }
    }
    report.series.push(cdf);

    let mut bd = Series::new(
        format!("Request-handling breakdown at {} (2c)", fmt_mrps(knee_load)),
        "  pct     queue(us)  busywait(us)  handle(us)   rdma(us)  ctxsw(us)    net(us)",
    );
    let mut p999_queue_frac = 0.0;
    for p in [10.0, 50.0, 99.0, 99.9] {
        let b = res.recorder.breakdown_at(p);
        if p == 99.9 {
            p999_queue_frac = b.mean.queueing_ns / b.mean.total_ns().max(1.0);
        }
        bd.rows.push(format!(
            "{:>6} {:>11.2} {:>13.2} {:>11.2} {:>10.2} {:>10.3} {:>10.2}",
            format!("P{p}"),
            b.mean.queueing_ns / 1000.0,
            b.mean.busywait_ns / 1000.0,
            b.mean.handling_ns / 1000.0,
            b.mean.rdma_ns / 1000.0,
            b.mean.ctxswitch_ns / 1000.0,
            b.mean.net_ns / 1000.0,
        ));
    }
    report.series.push(bd);

    // Expectations (shape checks against the paper's claims).
    let stall = super::peak_rps(&dilos);
    let util_at_peak = dilos
        .iter()
        .max_by(|a, b| {
            a.recorder
                .achieved_rps()
                .total_cmp(&b.recorder.achieved_rps())
        })
        .map(|r| r.rdma_data_util)
        .unwrap_or(0.0);
    report.expectations.push(Expectation::info(
        "DiLOS throughput stalls (2d)",
        "≈1.38 MRPS on the 40 GB testbed",
        fmt_mrps(stall),
    ));
    report.expectations.push(Expectation::checked(
        "RDMA util at saturation ≈ half capacity (2e)",
        "~50 %",
        format!("{:.0} %", util_at_peak * 100.0),
        (0.35..=0.68).contains(&util_at_peak),
    ));
    report.expectations.push(Expectation::checked(
        "queueing dominates the P99.9 breakdown (2c)",
        "order-of-magnitude from queueing",
        format!("{:.0} % of P99.9 is queueing", p999_queue_frac * 100.0),
        p999_queue_frac > 0.4,
    ));
    let p99_knee_d = dilos[knee].point().p99_ns;
    let p99_knee_p = dilos_p[knee].point().p99_ns;
    report.expectations.push(Expectation::checked(
        "preemption deteriorates P99 (2a)",
        "DiLOS-P worse than DiLOS",
        format!(
            "DiLOS-P {} vs DiLOS {}",
            fmt_us(p99_knee_p),
            fmt_us(p99_knee_d)
        ),
        p99_knee_p as f64 >= p99_knee_d as f64 * 0.95,
    ));
    let spin = dilos.last().map(|r| r.spin_fraction()).unwrap_or(0.0);
    report.expectations.push(Expectation::info(
        "worker time wasted spinning at overload",
        "most of the fetch wait (90 % of cycles wasted, §2.3)",
        format!("{:.0} % of worker time", spin * 100.0),
    ));
    report.notes.push(format!(
        "working set scaled to {} pages at the paper's 20 % local-memory ratio",
        scale.microbench_pages()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_shape() {
        let r = run(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
        assert!(r.series.len() >= 4);
    }
}
