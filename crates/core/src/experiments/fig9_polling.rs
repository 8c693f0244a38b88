//! Figure 9 — effect of polling delegation.
//!
//! Without delegation a worker busy-waits on its reply-TX completion;
//! the paper reports 1.15× peak throughput and 8.05× better P99.9 at
//! the non-delegating variant's peak (1 749 KRPS on its testbed).

use runtime::{ArrayIndexWorkload, SystemConfig};

use super::{fmt_mrps, fmt_x, knee_index, peak_rps, points_series, sweep};
use crate::report::{Expectation, FigureReport};
use crate::scale::Scale;

/// Runs the experiment.
pub fn run(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new("Figure 9", "Effect of polling delegation");
    let loads = scale.microbench_loads();
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());

    let adios = sweep(&SystemConfig::adios(), &mut wl, &loads, scale.params(41));
    let no_deleg_cfg = SystemConfig {
        polling_delegation: false,
        ..SystemConfig::adios()
    };
    let no_deleg = sweep(&no_deleg_cfg, &mut wl, &loads, scale.params(41));

    report.series.push(points_series("Adios", &adios));
    report
        .series
        .push(points_series("Adios w/o polling delegation", &no_deleg));

    let (pk_on, pk_off) = (peak_rps(&adios), peak_rps(&no_deleg));
    report.expectations.push(Expectation::checked(
        "peak throughput with delegation",
        "1.15x",
        fmt_x(pk_on / pk_off),
        (1.03..=1.8).contains(&(pk_on / pk_off)),
    ));
    // P99.9 comparison at the non-delegating variant's knee.
    let knee = knee_index(&no_deleg);
    let (t_on, t_off) = (
        adios[knee].point().p999_ns as f64,
        no_deleg[knee].point().p999_ns as f64,
    );
    report.expectations.push(Expectation::checked(
        format!(
            "P99.9 at the w/o-delegation knee ({})",
            fmt_mrps(no_deleg[knee].offered_rps)
        ),
        "8.05x better with delegation",
        fmt_x(t_off / t_on),
        t_off >= t_on,
    ));
    let spin_off = no_deleg.last().map(|r| r.spin_fraction()).unwrap_or(0.0);
    report.expectations.push(Expectation::checked(
        "TX busy-wait reappears without delegation",
        "workers spin on TX completions",
        format!("{:.0} % spin time at overload", spin_off * 100.0),
        spin_off > 0.05,
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
