//! `compare A B`: applies each end-to-end metric's bound per workload
//! to two result files (JSON lines, as `--out` appends them; several
//! runs of a workload per file give the rule its run-to-run spread).

use crate::json::Json;
use crate::metrics;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The parent's own run-to-run spread exceeds the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

/// The rule. `a` are the parent's runs, `b` the change's; medians are
/// compared. Worse than the bound is a regression, better than the
/// bound an improvement. When the parent's quartile spread exceeds the
/// bound the verdict is unresolved, unless every run of the change
/// reads better than every run of the parent.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    if sa.spread() > bound {
        let all_better = if lower_is_better {
            sb.max < sa.min
        } else {
            sb.min > sa.max
        };
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let change = sb.median - sa.median;
    let worse = sign
        * if sa.median != 0.0 {
            change / sa.median.abs()
        } else if change == 0.0 {
            0.0
        } else {
            change.signum() * f64::INFINITY
        };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One parsed result line.
struct Run {
    workload: String,
    traced: bool,
    seed: u64,
    fingerprint: String,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let field = |k: &str| {
                v.get(k)
                    .ok_or_else(|| format!("{path}: result without {k:?}"))
            };
            let metrics = field("metrics")?
                .as_obj()
                .ok_or_else(|| format!("{path}: metrics is not an object"))?
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                traced: field("trace")?.as_f64() == Some(1.0),
                seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
                fingerprint: field("sim_fingerprint")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string(),
                metrics,
            })
        })
        .collect()
}

fn values(runs: &[Run], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// Prints the comparison; `Ok(true)` when no metric regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut ok = true;
    for w in workloads {
        println!("== {w}");
        for d in metrics::end_to_end() {
            let (va, vb) = (values(&a, w, false, &d.name), values(&b, w, false, &d.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let v = verdict(&va, &vb, d.better == "lower", bound);
            ok &= v != Verdict::Regressed;
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            println!(
                "  {:<22} {:>14.6} -> {:>14.6} {:<9} {:+7.2}%  bound {:>4.1}%  parent spread {:>5.2}% (n={}/{})  {:?}",
                d.name,
                sa.median,
                sb.median,
                d.unit,
                (sb.median / sa.median - 1.0) * 100.0,
                bound * 100.0,
                sa.spread() * 100.0,
                sa.n,
                sb.n,
                v
            );
        }
        // Per-layer numbers carry no bound: shown to localise a change.
        for d in metrics::per_layer() {
            let (va, vb) = (values(&a, w, true, &d.name), values(&b, w, true, &d.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (Summary::of(&va).median, Summary::of(&vb).median);
            println!(
                "  {:<44} {ma:>14.6} -> {mb:>14.6} {:<9} {:+7.2}%",
                d.name,
                d.unit,
                (mb / ma - 1.0) * 100.0
            );
        }
        // Equal fingerprints on equal seeds: every simulated statistic
        // is identical between the two commits.
        let print = |runs: &[Run], seed| {
            runs.iter()
                .find(|r| r.workload == w && !r.traced && r.seed == seed)
                .map(|r| r.fingerprint.clone())
        };
        let mut seeds: Vec<u64> = a
            .iter()
            .filter(|r| r.workload == w && !r.traced)
            .map(|r| r.seed)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        for seed in seeds {
            if let (Some(fa), Some(fb)) = (print(&a, seed), print(&b, seed)) {
                let same = if fa == fb { "match" } else { "DIFFER" };
                println!("  sim_fingerprint seed {seed}: {fa} vs {fb}: {same}");
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::Verdict::*;
    use super::*;

    #[test]
    fn within_bound_is_unchanged_beyond_is_a_verdict() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(verdict(&a, &[104.0, 105.0], true, 0.10), Unchanged);
        assert_eq!(verdict(&a, &[112.0, 113.0], true, 0.10), Regressed);
        assert_eq!(verdict(&a, &[80.0, 82.0], true, 0.10), Improved);
        // Direction flips for higher-is-better metrics.
        assert_eq!(verdict(&a, &[80.0, 82.0], false, 0.10), Regressed);
        assert_eq!(verdict(&a, &[120.0, 125.0], false, 0.10), Improved);
    }

    #[test]
    fn noisy_parent_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 90.0, 130.0, 85.0, 150.0];
        assert!(Summary::of(&noisy).spread() > 0.10);
        assert_eq!(verdict(&noisy, &[120.0, 118.0], true, 0.10), Unresolved);
        assert_eq!(verdict(&noisy, &[160.0, 170.0], true, 0.10), Unresolved);
        assert_eq!(verdict(&noisy, &[80.0, 84.0], true, 0.10), Improved);
        assert_eq!(verdict(&noisy, &[151.0, 160.0], false, 0.10), Improved);
    }

    #[test]
    fn exact_metrics_and_single_runs() {
        // A deterministic count: any move beyond the bound is a verdict.
        assert_eq!(verdict(&[0.8344], &[0.8344], true, 0.005), Unchanged);
        assert_eq!(verdict(&[0.8344], &[0.8400], true, 0.005), Regressed);
        assert_eq!(verdict(&[0.0], &[0.0], true, 0.005), Unchanged);
        assert_eq!(verdict(&[0.0], &[0.1], true, 0.005), Regressed);
        assert_eq!(verdict(&[0.0], &[0.1], false, 0.005), Improved);
    }
}
