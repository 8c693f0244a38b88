//! Figure 7 — the four-system microbenchmark.
//!
//! (a) P99.9 and (b) P50 latency vs throughput for Hermit, DiLOS,
//! DiLOS-P and Adios; (c) Adios' breakdown at the load where DiLOS
//! skyrockets (busy-wait gone, queueing collapsed); (d) throughput and
//! (e) RDMA utilisation for DiLOS vs Adios.

use runtime::sim::{run_one, RunParams};
use runtime::{ArrayIndexWorkload, SystemConfig, SystemKind};

use super::{fmt_mrps, fmt_us, fmt_x, knee_index, peak_rps, points_series, sweep};
use crate::report::{Expectation, FigureReport, Series};
use crate::scale::Scale;

/// Runs the experiment.
pub fn run(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure 7",
        "Hermit / DiLOS / DiLOS-P / Adios on the microbenchmark",
    );
    let loads = scale.microbench_loads();
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());

    let mut all = Vec::new();
    for kind in SystemKind::all() {
        let results = sweep(
            &SystemConfig::for_kind(kind),
            &mut wl,
            &loads,
            scale.params(23),
        );
        report.series.push(points_series(kind.name(), &results));
        all.push((kind, results));
    }
    let get = |kind: SystemKind| &all.iter().find(|(k, _)| *k == kind).unwrap().1;
    let hermit = get(SystemKind::Hermit);
    let dilos = get(SystemKind::Dilos);
    let dilos_p = get(SystemKind::DilosP);
    let adios = get(SystemKind::Adios);

    // (c): Adios breakdown at DiLOS' knee load, compared to DiLOS'.
    let knee = knee_index(dilos);
    let knee_load = dilos[knee].offered_rps;
    let breakdowns = RunParams {
        offered_rps: knee_load,
        keep_breakdowns: true,
        ..scale.params(23)
    };
    let mut a_res = run_one(SystemConfig::adios(), &mut wl, breakdowns.clone());
    let mut d_res = run_one(SystemConfig::dilos(), &mut wl, breakdowns);
    let mut bd = Series::new(
        format!("Adios breakdown at {} (7c)", fmt_mrps(knee_load)),
        "  pct     queue(us)  busywait(us)  handle(us)   rdma(us)  ctxsw(us)    net(us)",
    );
    for p in [10.0, 50.0, 99.0, 99.9] {
        let b = a_res.recorder.breakdown_at(p);
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

    // Expectations.
    let (pk_h, pk_d, pk_p, pk_a) = (
        peak_rps(hermit),
        peak_rps(dilos),
        peak_rps(dilos_p),
        peak_rps(adios),
    );
    report.expectations.push(Expectation::checked(
        "peak throughput Adios vs Hermit",
        "2.11x",
        fmt_x(pk_a / pk_h),
        pk_a / pk_h > 1.4,
    ));
    report.expectations.push(Expectation::checked(
        "peak throughput Adios vs DiLOS",
        "1.58x",
        fmt_x(pk_a / pk_d),
        (1.2..=2.2).contains(&(pk_a / pk_d)),
    ));
    report.expectations.push(Expectation::checked(
        "peak throughput Adios vs DiLOS-P",
        "1.59x",
        fmt_x(pk_a / pk_p),
        (1.2..=2.2).contains(&(pk_a / pk_p)),
    ));
    let a_util = adios
        .iter()
        .map(|r| r.rdma_data_util)
        .fold(0.0f64, f64::max);
    report.expectations.push(Expectation::checked(
        "Adios RDMA utilisation at peak (7e)",
        "82 %",
        format!("{:.0} %", a_util * 100.0),
        (0.70..=0.92).contains(&a_util),
    ));
    let aq = a_res.recorder.breakdown_at(99.9).mean.queueing_ns;
    let dq = d_res.recorder.breakdown_at(99.9).mean.queueing_ns;
    report.expectations.push(Expectation::checked(
        "P99.9 queueing shrink vs DiLOS (7c)",
        "36.8x",
        fmt_x(dq / aq.max(1.0)),
        dq / aq.max(1.0) > 2.0,
    ));
    let a_spin = adios.last().map(|r| r.spin_fraction()).unwrap_or(0.0);
    report.expectations.push(Expectation::checked(
        "busy-waiting eliminated in Adios",
        "no busy-wait segment",
        format!("{:.1} % spin time", a_spin * 100.0),
        a_spin < 0.05,
    ));
    // Low-load honesty check: Adios pays a few hundred ns over DiLOS.
    let a_low = adios[0].point().p50_ns as i64;
    let d_low = dilos[0].point().p50_ns as i64;
    report.expectations.push(Expectation::checked(
        "low-load P50 penalty of yielding",
        "a few hundred ns",
        format!("{} ns", a_low - d_low),
        (a_low - d_low) < 1_000,
    ));
    report.expectations.push(Expectation::info(
        "Hermit P99.9 penalty at light load (kernel tail)",
        "42x vs DiLOS at 0.7 MRPS",
        fmt_x(hermit[1].point().p999_ns as f64 / dilos[1].point().p999_ns as f64),
    ));
    report.expectations.push(Expectation::info(
        "Adios P99.9 at DiLOS' knee",
        "2.83x better than DiLOS",
        format!(
            "Adios {} vs DiLOS {}",
            fmt_us(adios[knee].point().p999_ns),
            fmt_us(dilos[knee].point().p999_ns)
        ),
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
    }
}
