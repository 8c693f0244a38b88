//! Figure 13 — Faiss vector similarity search (BIGANN-style).
//!
//! Queries take milliseconds (IVF list sweeps over remote memory), and
//! busy-waiting collapses under them: at 500 RPS the paper measures
//! 43.9× better P50 for Adios over DiLOS — DiLOS is past saturation
//! while Adios overlaps every fetch. "Adios's design also improves
//! systems whose request latency is tens or hundreds of milliseconds."

use apps::FaissWorkload;
use runtime::sim::RunParams;
use runtime::{SystemConfig, SystemKind};

use super::{fmt_x, peak_rps, points_series, sweep};
use crate::report::{Expectation, FigureReport};
use crate::scale::Scale;

/// Runs the experiment.
pub fn run(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new("Figure 13", "Faiss: BIGANN vector search");
    let loads = scale.faiss_loads();
    // Queries are read-only: one index serves every system.
    let mut wl = FaissWorkload::new(
        scale.faiss_vectors(),
        scale.faiss_nlist(),
        scale.faiss_nprobe(),
        81,
    );

    let mut per_system = Vec::new();
    for kind in SystemKind::all() {
        let results = sweep(
            &SystemConfig::for_kind(kind),
            &mut wl,
            &loads,
            RunParams {
                measure: scale.faiss_measure(),
                ..scale.params(81)
            },
        );
        report.series.push(points_series(kind.name(), &results));
        per_system.push((kind, results));
    }
    let get = |kind: SystemKind| &per_system.iter().find(|(k, _)| *k == kind).unwrap().1;
    let hermit = get(SystemKind::Hermit);
    let dilos = get(SystemKind::Dilos);
    let dilos_p = get(SystemKind::DilosP);
    let adios = get(SystemKind::Adios);

    // The paper's 500 RPS comparison point is where DiLOS has already
    // collapsed; use the first load beyond DiLOS' peak.
    let over = dilos
        .iter()
        .position(|r| r.recorder.achieved_rps() < 0.9 * r.offered_rps)
        .unwrap_or(dilos.len() - 1);
    let (a, d, p) = (
        adios[over].point(),
        dilos[over].point(),
        dilos_p[over].point(),
    );
    report.expectations.push(Expectation::checked(
        "P50 Adios vs DiLOS / DiLOS-P past DiLOS' saturation",
        "43.9x / 30.0x",
        format!(
            "{} / {}",
            fmt_x(d.p50_ns as f64 / a.p50_ns as f64),
            fmt_x(p.p50_ns as f64 / a.p50_ns as f64)
        ),
        d.p50_ns as f64 > a.p50_ns as f64 * 2.0,
    ));
    report.expectations.push(Expectation::checked(
        "P99.9 Adios vs DiLOS / DiLOS-P",
        "1.99x / 1.42x",
        format!(
            "{} / {}",
            fmt_x(d.p999_ns as f64 / a.p999_ns as f64),
            fmt_x(p.p999_ns as f64 / a.p999_ns as f64)
        ),
        d.p999_ns > a.p999_ns,
    ));
    let (t_h, t_d, t_p) = (
        peak_rps(adios) / peak_rps(hermit),
        peak_rps(adios) / peak_rps(dilos),
        peak_rps(adios) / peak_rps(dilos_p),
    );
    report.expectations.push(Expectation::checked(
        "throughput Adios vs Hermit / DiLOS / DiLOS-P",
        "5.51x / 1.64x / 1.58x",
        format!("{} / {} / {}", fmt_x(t_h), fmt_x(t_d), fmt_x(t_p)),
        t_d > 1.15 && t_h > t_d,
    ));
    report.expectations.push(Expectation::checked(
        "millisecond-scale requests still benefit",
        "gains persist at ms latencies",
        format!(
            "Adios P50 at low load = {:.2} ms",
            adios[0].point().p50_ns as f64 / 1e6
        ),
        adios[0].point().p50_ns > 200_000,
    ));
    report.notes.push(format!(
        "IVF-Flat, {} vectors × 128 dims, nlist {}, nprobe {} (paper: 100 M vectors, 48 GB)",
        scale.faiss_vectors(),
        scale.faiss_nlist(),
        scale.faiss_nprobe()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "builds a 100k-vector index; run with --ignored"]
    fn quick_run_reproduces_shape() {
        let r = run(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }
}
