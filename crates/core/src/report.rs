//! Figure reports: measured series plus paper-vs-measured expectations,
//! and a machine-readable per-run JSON view of [`RunResult`].

use desim::json::{Perfetto, Writer};
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
    let mut w = Writer::default();
    w.object(|w| {
        w.key("offered_rps").f64(res.offered_rps, 3);
        w.key("achieved_rps").f64(res.recorder.achieved_rps(), 3);
        w.key("completed").u64(res.recorder.completed_in_window());
        w.key("dropped").u64(res.recorder.dropped());
        w.key("window_ns").u64(res.window.as_nanos());
        w.key("workers").u64(res.workers as u64);
        w.key("latency_ns").object(|w| {
            w.key("p50").u64(h.percentile(50.0));
            w.key("p99").u64(h.percentile(99.0));
            w.key("p999").u64(h.percentile(99.9));
            w.key("mean").f64(h.mean(), 3);
        });
        w.key("rdma_util").object(|w| {
            w.key("data").f64(res.rdma_data_util, 6);
            w.key("ctrl").f64(res.rdma_ctrl_util, 6);
        });
        w.key("spin_fraction").f64(res.spin_fraction(), 6);
        let c = &res.cache;
        w.key("cache").object(|w| {
            w.key("hits").u64(c.hits);
            w.key("misses").u64(c.misses);
            w.key("coalesced").u64(c.coalesced);
            w.key("evictions").u64(c.evictions);
            w.key("dirty_evictions").u64(c.dirty_evictions);
        });
        // Per-shard window view, only on multi-shard runs: single-shard
        // output stays byte-identical to the pre-sharding format.
        if res.shards.len() > 1 {
            w.key("shards").array(|w| {
                for s in &res.shards {
                    w.object(|w| {
                        w.key("shard").u64(s.shard as u64);
                        w.key("data_bytes").u64(s.data_bytes);
                        w.key("data_util").f64(s.data_util, 6);
                        w.key("fetch_ns").object(|w| {
                            w.key("p50").u64(s.fetch_ns.percentile(50.0));
                            w.key("p999").u64(s.fetch_ns.percentile(99.9));
                            w.key("count").u64(s.fetch_ns.count());
                        });
                    });
                }
            });
        }
        // Per-tenant window view, only on multi-tenant runs: single-tenant
        // (and plane-off) output stays byte-identical to the pre-tenant
        // format.
        if res.tenants.len() > 1 {
            w.key("tenants").array(|w| {
                for t in &res.tenants {
                    w.object(|w| {
                        w.key("tenant").u64(t.tenant as u64);
                        w.key("name").string(&t.name);
                        w.key("priority").string(t.priority);
                        w.key("offered_rps").f64(t.offered_rps, 3);
                        w.key("arrivals").u64(t.arrivals);
                        w.key("admitted").u64(t.admitted);
                        w.key("completed").u64(t.completed);
                        w.key("sheds").u64(t.sheds);
                        w.key("drops").u64(t.drops);
                        w.key("latency_ns").object(|w| {
                            w.key("p50").u64(t.latency_ns.percentile(50.0));
                            w.key("p99").u64(t.latency_ns.percentile(99.0));
                            w.key("p999").u64(t.latency_ns.percentile(99.9));
                            w.key("count").u64(t.latency_ns.count());
                        });
                        match t.slo_ok {
                            Some(ok) => w.key("slo_ok").bool(ok),
                            None => w.key("slo_ok").null(),
                        }
                    });
                }
            });
            let c = &res.conservation;
            w.key("conservation").object(|w| {
                w.key("arrivals").u64(c.arrivals);
                w.key("completions").u64(c.completions);
                w.key("drops").u64(c.drops);
                w.key("sheds").u64(c.sheds);
                w.key("aborts").u64(c.aborts);
                w.key("inflight_at_end").u64(c.inflight_at_end);
                w.key("holds").bool(c.holds());
            });
        }
        w.key("metrics").value(&res.metrics);
        match &res.spans {
            Some(report) => {
                w.key("spans_measured").u64(report.measured);
                w.key("stages").value(&report.stats);
            }
            None => {
                w.key("spans_measured").u64(0);
                w.key("stages").null();
            }
        }
        // Plane blocks only when the plane was on: disabled runs keep
        // the exact pre-plane byte stream (the golden test pins it).
        if let Some(t) = &res.telemetry {
            w.key("telemetry").value(t);
        }
        if let Some(p) = &res.profile {
            w.key("profile").value(p);
        }
        if let Some(m) = &res.memory {
            w.key("memory").value(m);
        }
        // Always present, trace or not: a truncated (or absent) trace must
        // be distinguishable from a quiet run.
        w.key("trace_dropped").u64(res.trace_dropped);
        match &res.trace {
            Some(log) => w.key("trace").value(log),
            None => w.key("trace").null(),
        }
    });
    w.finish()
}

/// Renders one run as a single Perfetto (Chrome trace event) document,
/// the timeline sibling of [`run_json`]: the span layer's tail
/// exemplars, then the telemetry counter tracks, the profiler's
/// per-core state tracks and the memory observatory's counters, each
/// under its own synthetic process so every view shares one time axis.
/// `None` when no plane with tracks was on.
pub fn perfetto_json(res: &RunResult) -> Option<String> {
    let (spans, telemetry, profile, memory) =
        (&res.spans, &res.telemetry, &res.profile, &res.memory);
    if spans.is_none() && telemetry.is_none() && profile.is_none() && memory.is_none() {
        return None;
    }
    let mut doc = Perfetto::default();
    if let Some(s) = spans {
        desim::span::write_perfetto(&mut doc, &s.exemplars);
    }
    if let Some(t) = telemetry {
        t.write_perfetto(&mut doc);
    }
    if let Some(p) = profile {
        p.write_perfetto(&mut doc);
    }
    if let Some(m) = memory {
        m.write_perfetto(&mut doc);
    }
    Some(doc.finish())
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
            spans: Some(desim::SpanConfig::default()),
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
