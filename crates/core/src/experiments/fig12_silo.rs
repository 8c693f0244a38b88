//! Figure 12 — Silo running TPC-C.
//!
//! OLTP transactions touch dozens of pages each (stock rows, customer
//! rows, order-line inserts); yielding across those faults is where
//! Adios' concurrency pays off: the paper reports 4.66×/2.24× better
//! P50/P99.9 than DiLOS at ~140 KRPS and 1.18× more throughput.

use apps::silo::tpcc::TpccScale;
use apps::TpccWorkload;
use runtime::sim::RunParams;
use runtime::{SystemConfig, SystemKind};

use super::{fmt_x, peak_rps, points_series, sweep, takeoff_index};
use crate::report::{Expectation, FigureReport};
use crate::scale::Scale;

/// Runs the experiment.
pub fn run(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new("Figure 12", "Silo: TPC-C");
    let loads = scale.tpcc_loads();

    let mut per_system = Vec::new();
    for kind in SystemKind::all() {
        // Fresh database per system: the workload mutates its tables.
        let mut wl = TpccWorkload::new(TpccScale::paper_like(scale.tpcc_warehouses()), 71);
        let results = sweep(
            &SystemConfig::for_kind(kind),
            &mut wl,
            &loads,
            RunParams {
                measure: scale.tpcc_measure(),
                ..scale.params(71)
            },
        );
        report.series.push(points_series(kind.name(), &results));
        per_system.push((kind, results, wl.stats()));
    }
    let get = |kind: SystemKind| {
        per_system
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map(|(_, r, s)| (r, s))
            .unwrap()
    };
    let (hermit, _) = get(SystemKind::Hermit);
    let (dilos, _) = get(SystemKind::Dilos);
    let (dilos_p, _) = get(SystemKind::DilosP);
    let (adios, a_stats) = get(SystemKind::Adios);

    // Compare where DiLOS' tail takes off (the paper compares at
    // ~140 KRPS, the start of its saturation).
    let idx = takeoff_index(dilos, |r| r.point().p999_ns);
    let (a, d, p) = (adios[idx].point(), dilos[idx].point(), dilos_p[idx].point());
    // DiLOS-P saturates later than DiLOS on this dispersed mix (its
    // preemption pays off on long Stock-Level scans), so at DiLOS'
    // takeoff it may still be healthy; require parity there and the
    // clear win over DiLOS itself.
    report.expectations.push(Expectation::checked(
        "P50 Adios vs DiLOS / DiLOS-P at DiLOS' takeoff",
        "4.66x / 3.85x",
        format!(
            "{} / {}",
            fmt_x(d.p50_ns as f64 / a.p50_ns as f64),
            fmt_x(p.p50_ns as f64 / a.p50_ns as f64)
        ),
        d.p50_ns > a.p50_ns && p.p50_ns as f64 > a.p50_ns as f64 * 0.75,
    ));
    report.expectations.push(Expectation::checked(
        "P99.9 Adios vs DiLOS / DiLOS-P",
        "2.24x / 2.26x",
        format!(
            "{} / {}",
            fmt_x(d.p999_ns as f64 / a.p999_ns as f64),
            fmt_x(p.p999_ns as f64 / a.p999_ns as f64)
        ),
        d.p999_ns as f64 > a.p999_ns as f64 * 1.2,
    ));
    let t_d = peak_rps(adios) / peak_rps(dilos);
    let t_h = peak_rps(adios) / peak_rps(hermit);
    report.expectations.push(Expectation::checked(
        "throughput Adios vs DiLOS",
        "1.18x",
        fmt_x(t_d),
        t_d > 1.02,
    ));
    report.expectations.push(Expectation::checked(
        "throughput Adios vs Hermit",
        "1.67x",
        fmt_x(t_h),
        t_h > 1.2,
    ));
    report.expectations.push(Expectation::checked(
        "OCC exercised under load",
        "Silo validation with aborts/retries",
        format!(
            "{} commits, {} OCC retries",
            a_stats.commits.iter().sum::<u64>(),
            a_stats.retries
        ),
        a_stats.commits.iter().sum::<u64>() > 0,
    ));
    report.notes.push(format!(
        "TPC-C at {} warehouses (paper: SF 200), standard mix, 4 KB pages",
        scale.tpcc_warehouses()
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
