//! Figure 8 — sensitivity to local DRAM size.
//!
//! The paper varies local DRAM from 10 % of the working set to
//! unlimited: DiLOS loses ~60 % of its throughput while Adios loses
//! only ~25 %, and Adios at 10 % roughly matches DiLOS at 80 %. With
//! everything local, DiLOS' simpler code path wins slightly.

use runtime::sim::RunParams;
use runtime::{ArrayIndexWorkload, SystemConfig};

use super::{fmt_mrps, fmt_us, fmt_x, peak_rps, sweep};
use crate::report::{Expectation, FigureReport, Series};
use crate::scale::Scale;

/// Runs the experiment.
pub fn run(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new("Figure 8", "Sensitivity to local DRAM size");
    let fractions: &[f64] = match scale {
        Scale::Quick => &[0.1, 0.2, 0.6, 0.8, 1.0],
        Scale::Full => &[0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
    };
    let loads: Vec<f64> = match scale {
        Scale::Quick => vec![0.9e6, 1.5e6, 2.1e6, 2.7e6, 3.3e6, 4.2e6],
        Scale::Full => vec![
            0.9e6, 1.3e6, 1.7e6, 2.1e6, 2.5e6, 2.9e6, 3.3e6, 3.8e6, 4.4e6,
        ],
    };
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());

    let mut s = Series::new(
        "peak throughput vs local-memory fraction",
        " local%   DiLOS(MRPS)  DiLOS p99(us)   Adios(MRPS)  Adios p99(us)",
    );
    let mut d_peaks = Vec::new();
    let mut a_peaks = Vec::new();
    let mut p50_at_full = (0u64, 0u64);
    for &frac in fractions {
        let base = RunParams {
            local_mem_fraction: frac,
            ..scale.params(31)
        };
        let d = sweep(&SystemConfig::dilos(), &mut wl, &loads, base.clone());
        let a = sweep(&SystemConfig::adios(), &mut wl, &loads, base);
        let (dp, ap) = (peak_rps(&d), peak_rps(&a));
        // P99 at a common mid load (index 1) for the latency panel.
        s.rows.push(format!(
            "{:>6.0} {:>13.2} {:>14.2} {:>13.2} {:>14.2}",
            frac * 100.0,
            dp / 1e6,
            d[1].point().p99_ns as f64 / 1000.0,
            ap / 1e6,
            a[1].point().p99_ns as f64 / 1000.0,
        ));
        d_peaks.push(dp);
        a_peaks.push(ap);
        if frac == 1.0 {
            p50_at_full = (d[1].point().p50_ns, a[1].point().p50_ns);
        }
    }
    report.series.push(s);

    let d_drop = 1.0 - d_peaks[0] / d_peaks[d_peaks.len() - 1];
    let a_drop = 1.0 - a_peaks[0] / a_peaks[a_peaks.len() - 1];
    report.expectations.push(Expectation::checked(
        "DiLOS throughput loss, 100 % → 10 % local",
        "≈60 %",
        format!("{:.0} %", d_drop * 100.0),
        d_drop > 0.35,
    ));
    report.expectations.push(Expectation::checked(
        "Adios throughput loss, 100 % → 10 % local",
        "≈25 %",
        format!("{:.0} %", a_drop * 100.0),
        a_drop < d_drop && a_drop < 0.45,
    ));
    // Adios at 10 % ≈ DiLOS at 80 % (the second-to-last fraction).
    let d_at_80 = d_peaks[d_peaks.len() - 2];
    report.expectations.push(Expectation::checked(
        "Adios @10 % vs DiLOS @80 %",
        "similar throughput",
        fmt_x(a_peaks[0] / d_at_80),
        a_peaks[0] > 0.7 * d_at_80,
    ));
    report.expectations.push(Expectation::checked(
        "with unlimited local memory DiLOS is (slightly) ahead",
        "simpler code path wins",
        format!(
            "P50: DiLOS {} vs Adios {}",
            fmt_us(p50_at_full.0),
            fmt_us(p50_at_full.1)
        ),
        p50_at_full.0 <= p50_at_full.1,
    ));
    report.notes.push(format!(
        "peaks reported over a grid topping at {}; at 100 % local both systems exceed the grid",
        fmt_mrps(*loads.last().unwrap())
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
