//! One function per table/figure of the paper's evaluation, and the
//! one list of them: [`ALL`].
//!
//! Every entry is a `fn(Scale) -> FigureReport`; the `experiments_md`
//! binary of the `bench` crate is the only driver, and
//! `EXPERIMENTS.md` is the collected Markdown of all reports at
//! [`Scale::Full`], in [`ALL`]'s order.

pub mod ablations;
pub mod extensions;
pub mod fig10_memcached;
pub mod fig11_rocksdb;
pub mod fig12_silo;
pub mod fig13_faiss;
pub mod fig2_motivation;
pub mod fig7_microbench;
pub mod fig8_sensitivity;
pub mod fig9_polling;
pub mod table1_ctxswitch;
pub mod table2_workloads;

use runtime::sim::{run_one, RunParams, RunResult};
use runtime::{SystemConfig, Workload};

use crate::report::{FigureReport, Series};
use crate::scale::Scale;

/// One runnable report: its id on the `experiments_md` command line
/// and the function that produces it.
pub type Experiment = (&'static str, fn(Scale) -> FigureReport);

/// Every report of the evaluation, in `EXPERIMENTS.md` order: the
/// paper's tables and figures, the design-choice ablations
/// (DESIGN.md §6), then the extension studies.
#[rustfmt::skip] // one row per line
pub const ALL: &[Experiment] = &[
    ("table1_ctxswitch", table1_ctxswitch::run),
    ("fig2_motivation", fig2_motivation::run),
    ("fig7_microbench", fig7_microbench::run),
    ("fig8_sensitivity", fig8_sensitivity::run),
    ("fig9_polling", fig9_polling::run),
    ("table2_workloads", table2_workloads::run),
    ("fig10_memcached", fig10_memcached::run),
    ("fig11_rocksdb", fig11_rocksdb::run),
    ("fig12_silo", fig12_silo::run),
    ("fig13_faiss", fig13_faiss::run),
    ("ablation_reclaimer", ablations::reclaimer),
    ("ablation_prefetch", ablations::prefetch),
    ("ablation_unithread_memory", ablations::unithread_memory),
    ("ablation_eviction", ablations::eviction),
    ("ablation_write_mix", ablations::write_mix),
    ("extension_infiniswap", extensions::infiniswap),
    ("extension_huge_pages", extensions::huge_pages),
    ("extension_prefetcher_policy", extensions::prefetcher_policy),
    ("extension_work_stealing", extensions::work_stealing),
    ("extension_burst_tolerance", extensions::burst_tolerance),
    ("extension_scalability", extensions::scalability),
    ("extension_colocation", extensions::colocation),
    ("extension_networking", extensions::networking),
    ("extension_faiss_nprobe", extensions::faiss_nprobe),
    ("extension_fault_tolerance", extensions::fault_tolerance),
    ("extension_shard_scaling", extensions::shard_scaling),
    ("extension_tenant_isolation", extensions::tenant_isolation),
    ("extension_dispatcher_scaling", extensions::dispatcher_scaling),
    ("extension_memory_observatory", extensions::memory_observatory),
];

/// The entries whose id starts with one of `prefixes`, in registry
/// order; `Err` names the first prefix that matches no id.
pub fn select<S: AsRef<str>>(prefixes: &[S]) -> Result<Vec<&'static Experiment>, &S> {
    if let Some(miss) = prefixes
        .iter()
        .find(|p| !ALL.iter().any(|(id, _)| id.starts_with(p.as_ref())))
    {
        return Err(miss);
    }
    Ok(ALL
        .iter()
        .filter(|(id, _)| prefixes.iter().any(|p| id.starts_with(p.as_ref())))
        .collect())
}

/// Runs one configuration over an offered-load grid, reusing the
/// workload (datasets build once per sweep). Every point is `base` at
/// its own `offered_rps`; `base` is the report's [`Scale::params`] with
/// only what differs spelled out, so a point runs planes-off — no
/// report reads a sweep point's spans.
pub(crate) fn sweep(
    cfg: &SystemConfig,
    workload: &mut dyn Workload,
    loads: &[f64],
    base: RunParams,
) -> Vec<RunResult> {
    loads
        .iter()
        .map(|&offered_rps| {
            let params = RunParams {
                offered_rps,
                ..base.clone()
            };
            run_one(cfg.clone(), workload, params)
        })
        .collect()
}

/// Formats a sweep as a [`Series`] of [`loadgen::LoadPoint`] rows.
pub(crate) fn points_series(label: &str, results: &[RunResult]) -> Series {
    let mut s = Series::new(label, loadgen::LoadPoint::header());
    for r in results {
        s.rows.push(r.point().row());
    }
    s
}

/// Formats per-class P50/P99.9 columns against achieved throughput.
pub(crate) fn class_series(label: &str, results: &[RunResult], class: u16) -> Series {
    let mut s = Series::new(label, "  achieved   p50(us)  p999(us)   samples");
    for r in results {
        let h = r.recorder.class(class);
        s.rows.push(format!(
            "{:>10.0} {:>9.2} {:>9.2} {:>9}",
            r.recorder.achieved_rps(),
            h.percentile(50.0) as f64 / 1000.0,
            h.percentile(99.9) as f64 / 1000.0,
            h.count(),
        ));
    }
    s
}

/// Peak achieved throughput across a sweep.
pub(crate) fn peak_rps(results: &[RunResult]) -> f64 {
    results
        .iter()
        .map(|r| r.recorder.achieved_rps())
        .fold(0.0, f64::max)
}

/// Index of the highest load the system still serves without loss
/// (achieved ≥ 97 % of offered, no drops); falls back to the best
/// achieved point.
pub(crate) fn knee_index(results: &[RunResult]) -> usize {
    let mut knee = 0;
    for (i, r) in results.iter().enumerate() {
        if r.recorder.achieved_rps() >= 0.97 * r.offered_rps && r.recorder.dropped() == 0 {
            knee = i;
        }
    }
    knee
}

/// The paper's comparison points sit where the baseline's tail *starts*
/// to skyrocket: the first load whose latency metric reaches 3× its
/// lightest-load value, clamped between the baseline's knee (so mild
/// early jitter is not mistaken for the takeoff) and one grid step past
/// it (so coarse grids do not land in deep overload).
pub(crate) fn takeoff_index(results: &[RunResult], metric: impl Fn(&RunResult) -> u64) -> usize {
    let base = metric(&results[0]).max(1);
    let raw = results
        .iter()
        .position(|r| metric(r) >= base * 3)
        .unwrap_or(results.len() - 1);
    let knee = knee_index(results);
    raw.clamp(knee, (knee + 1).min(results.len() - 1))
}

/// Formats a ratio as the paper does ("1.58x").
pub(crate) fn fmt_x(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a throughput in MRPS.
pub(crate) fn fmt_mrps(rps: f64) -> String {
    format!("{:.2} MRPS", rps / 1e6)
}

/// Formats nanoseconds as microseconds.
pub(crate) fn fmt_us(ns: u64) -> String {
    format!("{:.2} us", ns as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use runtime::ArrayIndexWorkload;

    #[test]
    fn sweep_and_knee_work_end_to_end() {
        let mut wl = ArrayIndexWorkload::new(8_192);
        let loads = [200_000.0, 3_000_000.0];
        let base = RunParams {
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(8),
            ..Default::default()
        };
        let results = sweep(&SystemConfig::dilos(), &mut wl, &loads, base);
        assert_eq!(results.len(), 2);
        // Every point ran planes-off.
        for r in &results {
            assert!(r.spans.is_none());
            assert!(r.profile.is_none());
            assert!(r.memory.is_none());
            assert!(r.telemetry.is_none());
            assert!(r.trace.is_none());
        }
        // The low point serves its load; the absurd one cannot.
        assert_eq!(knee_index(&results), 0);
        assert!(peak_rps(&results) > 200_000.0);
        let s = points_series("DiLOS", &results);
        assert_eq!(s.rows.len(), 2);
        let c = class_series("DiLOS", &results, 0);
        assert_eq!(c.rows.len(), 2);
    }

    #[test]
    fn breakdown_runs_need_only_keep_breakdowns() {
        // Figures 2c / 7c: `keep_breakdowns` alone turns on the
        // (stats-only) span layer the breakdown rows are derived from.
        let mut wl = ArrayIndexWorkload::new(8_192);
        let params = RunParams {
            offered_rps: 500_000.0,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(8),
            keep_breakdowns: true,
            ..Default::default()
        };
        let mut res = run_one(SystemConfig::dilos(), &mut wl, params);
        let b = res.recorder.breakdown_at(99.9);
        assert!(b.mean_e2e_ns > 0.0);
        assert!(b.mean.total_ns() > 0.0);
        let spans = res.spans.expect("breakdowns imply the span layer");
        assert!(spans.measured > 0);
    }

    #[test]
    fn registry_ids_are_unique_and_well_formed() {
        assert_eq!(ALL.len(), 29);
        for (i, (id, _)) in ALL.iter().enumerate() {
            assert!(
                !id.is_empty()
                    && id
                        .bytes()
                        .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_')),
                "malformed id {id:?}"
            );
            assert!(
                ALL[..i].iter().all(|(other, _)| other != id),
                "duplicate id {id}"
            );
        }
    }

    #[test]
    fn select_keeps_registry_order_and_names_the_miss() {
        let ids = |prefixes: &[&str]| -> Vec<&str> {
            select(prefixes)
                .expect("every prefix matches")
                .iter()
                .map(|(id, _)| *id)
                .collect()
        };
        // Command-line order and overlap do not matter; `fig1` taking
        // Figures 10–13 is intended.
        assert_eq!(
            ids(&["fig1", "table", "fig10"]),
            [
                "table1_ctxswitch",
                "table2_workloads",
                "fig10_memcached",
                "fig11_rocksdb",
                "fig12_silo",
                "fig13_faiss"
            ]
        );
        assert_eq!(ids(&["extension_shard"]), ["extension_shard_scaling"]);
        assert_eq!(select(&["fig7", "fig3"]).err(), Some(&"fig3"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_x(1.583), "1.58x");
        assert_eq!(fmt_mrps(2_500_000.0), "2.50 MRPS");
        assert_eq!(fmt_us(5_300), "5.30 us");
    }
}
