//! Figure reports: measured series plus paper-vs-measured expectations,
//! and a machine-readable per-run JSON view of [`RunResult`].

use runtime::sim::RunResult;
use std::fmt::Write as _;

/// Renders one run as a deterministic JSON object: load point,
/// latency percentiles, window, utilisations, the full metrics
/// registry, per-stage critical-path histograms (when the span layer
/// was on), the continuous-telemetry block (when the flight recorder
/// was on) and — when the run was traced — the virtual-time event
/// timeline. Field order is fixed and floats use fixed precision, so
/// equal-seed runs serialise byte-identically (see
/// `tests/determinism.rs`).
pub fn run_json(res: &RunResult) -> String {
    let h = res.recorder.overall();
    let mut out = String::new();
    out.push('{');
    let _ = write!(out, "\"offered_rps\":{:.3},", res.offered_rps);
    let _ = write!(out, "\"achieved_rps\":{:.3},", res.recorder.achieved_rps());
    let _ = write!(out, "\"completed\":{},", res.recorder.completed_in_window());
    let _ = write!(out, "\"dropped\":{},", res.recorder.dropped());
    let _ = write!(out, "\"window_ns\":{},", res.window.as_nanos());
    let _ = write!(out, "\"workers\":{},", res.workers);
    let _ = write!(
        out,
        "\"latency_ns\":{{\"p50\":{},\"p99\":{},\"p999\":{},\"mean\":{:.3}}},",
        h.percentile(50.0),
        h.percentile(99.0),
        h.percentile(99.9),
        h.mean()
    );
    let _ = write!(
        out,
        "\"rdma_util\":{{\"data\":{:.6},\"ctrl\":{:.6}}},",
        res.rdma_data_util, res.rdma_ctrl_util
    );
    let _ = write!(out, "\"spin_fraction\":{:.6},", res.spin_fraction());
    let c = &res.cache;
    let _ = write!(
        out,
        "\"cache\":{{\"hits\":{},\"misses\":{},\"coalesced\":{},\"evictions\":{},\"dirty_evictions\":{}}},",
        c.hits, c.misses, c.coalesced, c.evictions, c.dirty_evictions
    );
    // Per-shard window view, only on multi-shard runs: single-shard
    // output stays byte-identical to the pre-sharding format.
    if res.shards.len() > 1 {
        out.push_str("\"shards\":[");
        for (i, s) in res.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"data_bytes\":{},\"data_util\":{:.6},\"fetch_ns\":{{\"p50\":{},\"p999\":{},\"count\":{}}}}}",
                s.shard,
                s.data_bytes,
                s.data_util,
                s.fetch_ns.percentile(50.0),
                s.fetch_ns.percentile(99.9),
                s.fetch_ns.count()
            );
        }
        out.push_str("],");
    }
    // Per-tenant window view, only on multi-tenant runs: single-tenant
    // (and plane-off) output stays byte-identical to the pre-tenant
    // format.
    if res.tenants.len() > 1 {
        out.push_str("\"tenants\":[");
        for (i, t) in res.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let slo = match t.slo_ok {
                Some(true) => "true",
                Some(false) => "false",
                None => "null",
            };
            let _ = write!(
                out,
                "{{\"tenant\":{},\"name\":\"{}\",\"priority\":\"{}\",\"offered_rps\":{:.3},\"arrivals\":{},\"admitted\":{},\"completed\":{},\"sheds\":{},\"drops\":{},\"latency_ns\":{{\"p50\":{},\"p99\":{},\"p999\":{},\"count\":{}}},\"slo_ok\":{}}}",
                t.tenant,
                t.name,
                t.priority,
                t.offered_rps,
                t.arrivals,
                t.admitted,
                t.completed,
                t.sheds,
                t.drops,
                t.latency_ns.percentile(50.0),
                t.latency_ns.percentile(99.0),
                t.latency_ns.percentile(99.9),
                t.latency_ns.count(),
                slo
            );
        }
        out.push_str("],");
        let c = &res.conservation;
        let _ = write!(
            out,
            "\"conservation\":{{\"arrivals\":{},\"completions\":{},\"drops\":{},\"sheds\":{},\"aborts\":{},\"inflight_at_end\":{},\"holds\":{}}},",
            c.arrivals, c.completions, c.drops, c.sheds, c.aborts, c.inflight_at_end, c.holds()
        );
    }
    let _ = write!(out, "\"metrics\":{},", res.metrics.to_json());
    match &res.spans {
        Some(report) => {
            let _ = write!(out, "\"spans_measured\":{},", report.measured);
            let _ = write!(out, "\"stages\":{},", report.stats.to_json());
        }
        None => out.push_str("\"spans_measured\":0,\"stages\":null,"),
    }
    // Telemetry block only when the plane was on: disabled runs keep
    // the exact pre-telemetry byte stream (the golden test pins it).
    if let Some(t) = &res.telemetry {
        let _ = write!(out, "\"telemetry\":{},", t.to_json());
    }
    // Core-profiler block only when the profiler was on, same golden
    // byte-identity contract as the telemetry block above.
    if let Some(p) = &res.profile {
        let _ = write!(out, "\"profile\":{},", p.to_json());
    }
    // Memory-observatory block only when the observatory was on, same
    // golden byte-identity contract as the blocks above.
    if let Some(m) = &res.memory {
        let _ = write!(out, "\"memory\":{},", m.to_json());
    }
    // Always present, trace or not: a truncated (or absent) trace must
    // be distinguishable from a quiet run.
    let _ = write!(out, "\"trace_dropped\":{},", res.trace_dropped);
    match &res.trace {
        Some(log) => {
            let _ = write!(out, "\"trace\":{}", log.to_json());
        }
        None => out.push_str("\"trace\":null"),
    }
    out.push('}');
    out
}

/// Perfetto pid of the memory observatory's counter tracks (telemetry
/// and the profiler own [`desim::PERFETTO_TELEMETRY_PID`] and
/// [`desim::PERFETTO_PROFILE_PID`]; request pids stay far below all three).
const PERFETTO_MEMORY_PID: u64 = 3_000_000;

/// Renders one run as a single Perfetto (Chrome trace event) document,
/// the timeline sibling of [`run_json`]: the span layer's tail
/// exemplars, then the telemetry counter tracks, the profiler's
/// per-core state tracks and the memory observatory's counters, each
/// under its own synthetic process so every view shares one time axis.
/// `None` when no plane with tracks was on.
pub fn perfetto_json(res: &RunResult) -> Option<String> {
    let (telemetry, profile, memory) = (&res.telemetry, &res.profile, &res.memory);
    let mut tracks = (telemetry.iter().flat_map(|t| t.perfetto_counter_events()))
        .chain(profile.iter().flat_map(|p| p.perfetto_events()))
        .chain(
            memory
                .iter()
                .flat_map(|m| m.perfetto_counter_events(PERFETTO_MEMORY_PID)),
        )
        .peekable();
    if res.spans.is_none() && tracks.peek().is_none() {
        return None;
    }
    let exemplars = res.spans.as_ref().map_or(&[][..], |s| &s.exemplars);
    let mut out = desim::span::perfetto_json(exemplars);
    assert!(out.ends_with("]}"), "a Perfetto document closes its array");
    out.truncate(out.len() - "]}".len());
    for ev in tracks {
        if !out.ends_with('[') {
            out.push(',');
        }
        out.push_str(&ev);
    }
    out.push_str("]}");
    Some(out)
}

/// One plotted series (a line of a figure, or a table block).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. `"DiLOS"`).
    pub label: String,
    /// Column header for the rows.
    pub header: String,
    /// Pre-formatted rows.
    pub rows: Vec<String>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, header: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            header: header.into(),
            rows: Vec::new(),
        }
    }

    /// Renders the series as CSV (columns split on whitespace — every
    /// series in this crate uses fixed-width numeric columns).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let cols: Vec<&str> = self.header.split_whitespace().collect();
        out.push_str(&cols.join(","));
        out.push('\n');
        for r in &self.rows {
            let cells: Vec<&str> = r.split_whitespace().collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// One paper-claim vs measured-value row.
#[derive(Debug, Clone)]
pub struct Expectation {
    /// What is being compared.
    pub metric: String,
    /// The paper's number/claim.
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the measured value matches the claim's *shape* (who
    /// wins / rough factor / crossover), when automatically checkable.
    pub ok: Option<bool>,
}

impl Expectation {
    /// Creates a checked expectation.
    pub fn checked(
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        ok: bool,
    ) -> Expectation {
        Expectation {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
            ok: Some(ok),
        }
    }

    /// Creates an informational (unchecked) expectation.
    pub fn info(
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> Expectation {
        Expectation {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
            ok: None,
        }
    }
}

/// A reproduced table or figure.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Identifier, e.g. `"Figure 7"`.
    pub id: String,
    /// Title line.
    pub title: String,
    /// Measured series.
    pub series: Vec<Series>,
    /// Paper-vs-measured rows.
    pub expectations: Vec<Expectation>,
    /// Free-form caveats (scaling notes, model substitutions).
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> FigureReport {
        FigureReport {
            id: id.into(),
            title: title.into(),
            series: Vec::new(),
            expectations: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether every checked expectation held.
    pub fn all_ok(&self) -> bool {
        self.expectations.iter().all(|e| e.ok != Some(false))
    }

    /// Renders the report for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== {} — {} ====", self.id, self.title);
        for s in &self.series {
            let _ = writeln!(out, "\n-- {} --", s.label);
            let _ = writeln!(out, "{}", s.header);
            for r in &s.rows {
                let _ = writeln!(out, "{r}");
            }
        }
        if !self.expectations.is_empty() {
            let _ = writeln!(out, "\npaper vs measured:");
            for e in &self.expectations {
                let mark = match e.ok {
                    Some(true) => "[ok]  ",
                    Some(false) => "[MISS]",
                    None => "[info]",
                };
                let _ = writeln!(
                    out,
                    "  {mark} {:<44} paper: {:<28} measured: {}",
                    e.metric, e.paper, e.measured
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Prints the report to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes one CSV per series into `dir` (for external plotting);
    /// returns the written paths.
    pub fn write_csvs(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let slug = |s: &str| -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect::<String>()
                .split('_')
                .filter(|p| !p.is_empty())
                .collect::<Vec<_>>()
                .join("_")
        };
        let mut paths = Vec::new();
        for series in &self.series {
            let name = format!("{}__{}.csv", slug(&self.id), slug(&series.label));
            let path = dir.join(name);
            std::fs::write(&path, series.to_csv())?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Renders the report as Markdown (for `EXPERIMENTS.md`).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}\n", self.id, self.title);
        for s in &self.series {
            let _ = writeln!(out, "**{}**\n", s.label);
            let _ = writeln!(out, "```text");
            let _ = writeln!(out, "{}", s.header);
            for r in &s.rows {
                let _ = writeln!(out, "{r}");
            }
            let _ = writeln!(out, "```\n");
        }
        if !self.expectations.is_empty() {
            let _ = writeln!(out, "| metric | paper | measured | shape |");
            let _ = writeln!(out, "|---|---|---|---|");
            for e in &self.expectations {
                let mark = match e.ok {
                    Some(true) => "✅",
                    Some(false) => "❌",
                    None => "—",
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} |",
                    e.metric, e.paper, e.measured, mark
                );
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "> {n}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureReport {
        let mut r = FigureReport::new("Figure 7", "microbenchmark");
        let mut s = Series::new("Adios", "x y");
        s.rows.push("1 2".into());
        r.series.push(s);
        r.expectations
            .push(Expectation::checked("peak ratio", "1.58x", "1.49x", true));
        r.expectations
            .push(Expectation::info("absolute peak", "2.5 MRPS", "2.5 MRPS"));
        r.notes.push("scaled working set".into());
        r
    }

    #[test]
    fn render_contains_everything() {
        let text = sample().render();
        assert!(text.contains("Figure 7"));
        assert!(text.contains("Adios"));
        assert!(text.contains("[ok]"));
        assert!(text.contains("[info]"));
        assert!(text.contains("scaled working set"));
    }

    #[test]
    fn markdown_is_wellformed() {
        let md = sample().to_markdown();
        assert!(md.starts_with("## Figure 7"));
        assert!(md.contains("```text"));
        assert!(md.contains("| peak ratio | 1.58x | 1.49x | ✅ |"));
    }

    #[test]
    fn csv_has_matching_columns() {
        let mut s = Series::new("Adios", "  offered   p50(us)  p999(us)");
        s.rows.push("  1300000      5.50     13.82".into());
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "offered,p50(us),p999(us)");
        assert_eq!(lines[1], "1300000,5.50,13.82");
    }

    #[test]
    fn write_csvs_creates_files() {
        let dir = std::env::temp_dir().join(format!("adios_csv_test_{}", std::process::id()));
        let paths = sample().write_csvs(&dir).unwrap();
        assert_eq!(paths.len(), 1);
        let content = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(content.starts_with("x,y"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_json_is_wellformed_and_traced() {
        use desim::SimDuration;
        use runtime::config::SystemConfig;
        use runtime::sim::{run_one, RunParams};
        use runtime::workload::ArrayIndexWorkload;

        let mut w = ArrayIndexWorkload::new(16_384);
        let params = RunParams {
            offered_rps: 400_000.0,
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(2),
            trace_capacity: Some(10_000),
            spans: Some(desim::SpanConfig::stats_only()),
            ..Default::default()
        };
        let res = run_one(SystemConfig::adios(), &mut w, params);
        let json = run_json(&res);
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"offered_rps\":",
            "\"latency_ns\":",
            "\"metrics\":",
            "\"counters\":",
            "\"spans_measured\":",
            "\"stages\":{",
            "\"trace_dropped\":",
            "\"trace\":[",
        ] {
            assert!(json.contains(key), "missing {key} in {json:.120}");
        }
        // Untraced / span-less runs say so explicitly instead of
        // omitting the keys.
        let mut res2 = res;
        res2.trace = None;
        res2.spans = None;
        let json2 = run_json(&res2);
        assert!(json2.contains("\"trace\":null"));
        assert!(json2.contains("\"stages\":null"));
        assert!(json2.contains("\"trace_dropped\":"));
    }

    #[test]
    fn run_json_gates_the_tenant_block_on_plane_width() {
        use desim::SimDuration;
        use loadgen::{TenantPlane, TenantPriority, TenantSpec};
        use runtime::config::SystemConfig;
        use runtime::sim::{run_one, RunParams};
        use runtime::workload::ArrayIndexWorkload;

        let run = |plane: TenantPlane| {
            let mut w = ArrayIndexWorkload::new(16_384);
            let params = RunParams {
                offered_rps: plane.total_rate_rps(),
                warmup: SimDuration::from_millis(1),
                measure: SimDuration::from_millis(2),
                tenants: Some(plane),
                ..Default::default()
            };
            run_json(&run_one(SystemConfig::adios(), &mut w, params))
        };
        let solo = run(TenantPlane::new(vec![TenantSpec::new(
            300_000.0,
            "array",
            TenantPriority::High,
        )]));
        assert!(
            !solo.contains("\"tenants\":["),
            "single-tenant JSON must keep the pre-tenant shape"
        );
        let duo = run(TenantPlane::new(vec![
            TenantSpec::new(300_000.0, "array", TenantPriority::High),
            TenantSpec::new(200_000.0, "array", TenantPriority::Low),
        ]));
        for key in [
            "\"tenants\":[",
            "\"priority\":\"high\"",
            "\"priority\":\"low\"",
            "\"slo_ok\":null",
            "\"conservation\":{",
            "\"holds\":true",
        ] {
            assert!(duo.contains(key), "missing {key}");
        }
    }

    #[test]
    fn all_ok_detects_misses() {
        let mut r = sample();
        assert!(r.all_ok());
        r.expectations
            .push(Expectation::checked("x", "y", "z", false));
        assert!(!r.all_ok());
    }
}
