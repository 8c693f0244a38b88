//! The one driver of [`adios_core::experiments::ALL`]: regenerates
//! `EXPERIMENTS.md` from a complete run, or re-runs single reports.
//!
//! ```text
//! ADIOS_FULL=1 cargo run -p bench --bin experiments_md --release
//! cargo run -p bench --bin experiments_md --release -- fig7 ablation
//! ```
//!
//! Only a Full-scale run writes `EXPERIMENTS.md`; a Quick-scale run (no
//! `ADIOS_FULL`) writes `<out-dir>/EXPERIMENTS.quick.md`, so a quick
//! refactor guard never overwrites the committed Full-scale record.
//! With experiment ids (prefixes of the registry's) it prints the
//! matching reports, writes nothing and exits 1 on a missed shape
//! check.
//!
//! Any flag other than `--help` / `--out-dir` skips the sweep and runs
//! one short instrumented run per system instead (1 ms warm-up + 12 ms
//! measured, DiLOS then Adios). Each writes one report,
//! `<out-dir>/run_<system>.json` ([`run_json`]), and — when a plane
//! with tracks is on — one timeline, `perfetto_<system>.json`
//! ([`perfetto_json`]), next to the planes' own text exports. Run with
//! `--help` for the full flag list.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use adios_core::prelude::*;
use adios_core::{experiments, perfetto_json, run_json, FigureReport, Scale};

const USAGE: &str = "\
usage: experiments_md [FLAGS] [ID...]

With no arguments, runs every experiment and writes EXPERIMENTS.md at
Full scale (ADIOS_FULL=1), <out-dir>/EXPERIMENTS.quick.md otherwise.
With experiment ids (any prefix: fig7, ablation, extension_shard) it
runs the matching experiments at that scale, prints their reports,
writes no Markdown and exits 1 if a shape check missed.
Any other flag than --help / --out-dir skips the sweep and runs one
short instrumented run per system instead (1 ms warm-up + 12 ms
measured), writing <out-dir>/run_<system>.json (the full per-run JSON)
and, with --spans / --profile / --memory-obs / --telemetry,
<out-dir>/perfetto_<system>.json (one timeline of every plane's tracks,
open at https://ui.perfetto.dev); ids and such flags do not combine.

flags:
  --help             print this message and exit
  --trace            record the virtual-time event timeline into the
                     run JSON's `trace` array and print its head
  --trace-cap N      ring-buffer capacity for --trace (default 100000;
                     implies --trace)
  --spans            record per-request span trees: per-stage critical
                     path in the run JSON, tail exemplars in the
                     Perfetto timeline
  --faults <name>    inject a named fault scenario into the runs
                     (none, lossy, flaky, stall, crash) and print the
                     fault-plane / retransmission counters
  --shards N         shard the page space across N >= 1 memnodes in
                     the runs and print the per-shard counters
  --profile          run the virtual-time core profiler: exhaustive
                     per-core state tiling (dispatch/handoff/work/spin/
                     park/ctx-switch/fetch-wait/tx-wait/idle), queue
                     depth/wait probes with a Little's-law consistency
                     score, a per-core utilization table on stdout, and
                     <out-dir>/flame_<system>.folded (render with
                     speedscope or inferno-flamegraph)
  --memory-obs       run the memory-access observatory: prefetch-fate
                     attribution (hit/late/wasted per detector class),
                     page-heat/working-set windows and stride
                     fingerprints; prints the fate table and writes
                     <out-dir>/heatmap_<system>.csv and
                     strides_<system>.csv
  --telemetry        run the continuous-telemetry plane: per-tick
                     counter/gauge series, per-QP/per-shard health
                     scores and SLO breach events; writes
                     <out-dir>/telemetry_<system>.csv,
                     health_<system>.csv and slo_events_<system>.csv
  --tick <us>        telemetry sampling period in microseconds
                     (default 100; implies --telemetry)
  --slo <spec>       comma-separated SLO rules (implies --telemetry):
                     lat<OBJ:BUDGET@WINDOW (e.g. lat<20us:0.05@1ms),
                     err<BUDGET@WINDOW, qgrow>FACTOR@WINDOW
  --tenants <spec>   put the runs under a multi-tenant traffic
                     plane: `;`-separated `RATE[@BUCKET]:APP:PRIO[:SLO]`
                     fields (rates take k/m suffixes, @BUCKET enables
                     token-bucket admission at that rate, APP is
                     array/kvs/llm, PRIO is hi/lo, SLO is a
                     lat<OBJ:BUDGET@WINDOW spec), e.g.
                     `300k:kvs:hi:lat<200us:0.001@10ms;2m@400k:llm:lo`;
                     prints per-tenant admission/latency tables
  --shed-watermark N dispatcher-queue depth beyond which low-priority
                     arrivals are shed (requires --tenants)
  --app <name>       workload for single-stream runs:
                     array (default), kvs, llm, or scan
                     (not with --tenants)
  --dispatchers N    model a proportionally scaled machine with N >= 1
                     dispatcher cores, 8·N workers and >= min(N, 8)
                     memnode shards; the runs go to deep overload and
                     print per-dispatcher admit/steal/combine counters
  --dispatch-policy <name>
                     ingress policy (requires --dispatchers):
                     single-fcfs, work-stealing (default above 1
                     dispatcher) or flat-combining
  --seed N           RNG seed for the runs (unsigned integer, default 1)
  --out-dir <dir>    output directory (default: results)

experiment ids:";

/// [`USAGE`] followed by the registry's ids, one per line.
fn usage() -> String {
    let mut out = String::from(USAGE);
    for (id, _) in experiments::ALL {
        let _ = write!(out, "\n  {id}");
    }
    out
}

/// Parsed command line.
struct Cli {
    /// Any flag but `--help` / `--out-dir` was given: run the
    /// instrumented runs, not the sweep.
    instrumented: bool,
    trace: bool,
    trace_cap: usize,
    spans: bool,
    faults: Option<FaultScenario>,
    shards: Option<usize>,
    telemetry: bool,
    profile: bool,
    memory_obs: bool,
    tick_us: u64,
    slo: Option<Vec<desim::SloRule>>,
    seed: Option<u64>,
    out_dir: PathBuf,
    tenants: Option<TenantPlane>,
    shed_watermark: Option<usize>,
    app: Option<String>,
    dispatchers: Option<usize>,
    dispatch_policy: Option<DispatchPolicy>,
    /// Positional experiment-id prefixes.
    ids: Vec<String>,
}

impl Cli {
    /// `--dispatchers N` models a proportionally scaled machine — N
    /// dispatcher cores, 8·N workers, ≥ min(N, 8) memnode shards — so
    /// the knob measures dispatch-plane scaling instead of running a
    /// wider ingress into the seed machine's 8-worker ceiling. The
    /// policy defaults to work-stealing above one dispatcher.
    fn apply_dispatchers(&self, cfg: &mut SystemConfig) {
        let Some(n) = self.dispatchers else { return };
        cfg.dispatchers = n;
        cfg.workers = 8 * n;
        cfg.memnode_shards = cfg.memnode_shards.max(n.min(8));
        cfg.dispatch_policy = self.dispatch_policy.unwrap_or(if n > 1 {
            DispatchPolicy::WorkStealing
        } else {
            DispatchPolicy::SingleFcfs
        });
    }
}

/// Resolves a tenant/app name to a workload sized for the short runs.
fn app_workload(name: &str) -> Box<dyn Workload> {
    match name {
        "array" => Box::new(ArrayIndexWorkload::new(16_384)),
        "kvs" => Box::new(MemcachedWorkload::new(100_000, 128)),
        "llm" => Box::new(LlmServeWorkload::new(256, 64)),
        "scan" => Box::new(RocksDbWorkload::new(100_000, 1024)),
        other => die(&format!(
            "unknown app: {other} (known: array, kvs, llm, scan)"
        )),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("experiments_md: {msg}\n\n{}", usage());
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Cli {
    let mut cli = Cli {
        instrumented: false,
        trace: false,
        trace_cap: 100_000,
        spans: false,
        faults: None,
        shards: None,
        telemetry: false,
        profile: false,
        memory_obs: false,
        tick_us: 100,
        slo: None,
        seed: None,
        out_dir: PathBuf::from("results"),
        tenants: None,
        shed_watermark: None,
        app: None,
        dispatchers: None,
        dispatch_policy: None,
        ids: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        cli.instrumented |= arg.starts_with('-') && arg != "--out-dir";
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "--trace" => cli.trace = true,
            "--spans" => cli.spans = true,
            "--trace-cap" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--trace-cap requires a value"));
                cli.trace_cap = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("invalid --trace-cap value: {v}")));
                if cli.trace_cap == 0 {
                    die("--trace-cap must be positive");
                }
                cli.trace = true;
            }
            "--faults" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--faults requires a scenario name"));
                cli.faults = Some(FaultScenario::by_name(v).unwrap_or_else(|| {
                    die(&format!(
                        "unknown fault scenario: {v} (known: {})",
                        FaultScenario::names().join(", ")
                    ))
                }));
            }
            "--shards" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--shards requires a value"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("invalid --shards value: {v}")));
                if n == 0 {
                    die("--shards must be positive");
                }
                cli.shards = Some(n);
            }
            "--telemetry" => cli.telemetry = true,
            "--profile" => cli.profile = true,
            "--memory-obs" => cli.memory_obs = true,
            "--tick" => {
                let v = it.next().unwrap_or_else(|| die("--tick requires a value"));
                cli.tick_us = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("invalid --tick value: {v}")));
                if cli.tick_us == 0 {
                    die("--tick must be positive");
                }
                cli.telemetry = true;
            }
            "--slo" => {
                let v = it.next().unwrap_or_else(|| die("--slo requires a spec"));
                cli.slo = Some(
                    desim::parse_slo_spec(v)
                        .unwrap_or_else(|e| die(&format!("invalid --slo spec: {e}"))),
                );
                cli.telemetry = true;
            }
            "--tenants" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--tenants requires a spec"));
                cli.tenants = Some(
                    TenantPlane::parse(v)
                        .unwrap_or_else(|e| die(&format!("invalid --tenants spec: {e}"))),
                );
            }
            "--shed-watermark" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--shed-watermark requires a value"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("invalid --shed-watermark value: {v}")));
                if n == 0 {
                    die("--shed-watermark must be positive");
                }
                cli.shed_watermark = Some(n);
            }
            "--dispatchers" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--dispatchers requires a value"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("invalid --dispatchers value: {v}")));
                if n == 0 {
                    die("--dispatchers must be positive");
                }
                cli.dispatchers = Some(n);
            }
            "--dispatch-policy" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--dispatch-policy requires a name"));
                cli.dispatch_policy = Some(match v.as_str() {
                    "single-fcfs" => DispatchPolicy::SingleFcfs,
                    "work-stealing" => DispatchPolicy::WorkStealing,
                    "flat-combining" => DispatchPolicy::FlatCombining,
                    other => die(&format!(
                        "unknown dispatch policy: {other} \
                         (known: single-fcfs, work-stealing, flat-combining)"
                    )),
                });
            }
            "--app" => {
                let v = it.next().unwrap_or_else(|| die("--app requires a name"));
                if !matches!(v.as_str(), "array" | "kvs" | "llm" | "scan") {
                    die(&format!("unknown app: {v} (known: array, kvs, llm, scan)"));
                }
                cli.app = Some(v.clone());
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| die("--seed requires a value"));
                cli.seed = Some(v.parse::<u64>().unwrap_or_else(|_| {
                    die(&format!(
                        "invalid --seed value: {v} (expected an unsigned integer)"
                    ))
                }));
            }
            "--out-dir" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--out-dir requires a path"));
                cli.out_dir = PathBuf::from(v);
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag: {flag}")),
            id => cli.ids.push(id.to_string()),
        }
    }
    if cli.shed_watermark.is_some() && cli.tenants.is_none() {
        die("--shed-watermark requires --tenants");
    }
    if cli.dispatch_policy.is_some() && cli.dispatchers.is_none() {
        die("--dispatch-policy requires --dispatchers");
    }
    if cli.app.is_some() && cli.tenants.is_some() {
        die("--app does not combine with --tenants (each tenant spec names its app)");
    }
    if cli.instrumented && !cli.ids.is_empty() {
        die("experiment ids do not combine with instrumented-run flags");
    }
    cli
}

/// One short instrumented run per system: the report, the timeline and
/// the planes' text exports on disk, summaries on stdout.
fn instrumented_runs(cli: &Cli) {
    std::fs::create_dir_all(&cli.out_dir).expect("create output directory");
    for kind in [SystemKind::Dilos, SystemKind::Adios] {
        // With a tenant plane, every tenant gets its own app instance
        // behind a partitioned TenantWorkload; otherwise --app picks the
        // single-stream workload (array by default).
        let mut workload: Box<dyn Workload> = match &cli.tenants {
            Some(plane) => Box::new(TenantWorkload::new(
                plane.specs.iter().map(|s| app_workload(&s.app)).collect(),
            )),
            None => app_workload(cli.app.as_deref().unwrap_or("array")),
        };
        let plane = cli.tenants.clone().map(|mut p| {
            if let Some(w) = cli.shed_watermark {
                p = p.with_shed_watermark(w);
            }
            p
        });
        // A tenant plane offers its own rate; a dispatcher sweep goes to
        // deep overload (scaled with the machine) so achieved RPS reads
        // dispatch capacity and the steal/combine counters light up.
        let offered = match (&plane, cli.dispatchers) {
            (Some(p), _) => p.total_rate_rps(),
            (None, Some(n)) => 5_000_000.0 * n as f64,
            (None, None) => 800_000.0,
        };
        let mut params = RunParams {
            offered_rps: offered,
            tenants: plane,
            // One horizon for every run: it covers the first episode of
            // each named fault scenario (stall 3–4 ms, lossy / flaky
            // 5–7 ms, the crash outage from 10 ms) with room for a
            // before/during/after SLO arc around it.
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(12),
            trace_capacity: cli.trace.then_some(cli.trace_cap),
            spans: cli
                .spans
                .then(|| desim::SpanConfig::with_exemplars(99.0, 64)),
            faults: cli.faults.clone(),
            telemetry: cli.telemetry.then(|| desim::TelemetryConfig {
                tick: SimDuration::from_micros(cli.tick_us),
                rules: cli
                    .slo
                    .clone()
                    .unwrap_or_else(desim::telemetry::default_rules),
            }),
            profile: cli.profile.then(desim::ProfileConfig::default),
            memory: cli.memory_obs.then(MemObsConfig::default),
            ..Default::default()
        };
        if let Some(seed) = cli.seed {
            params.seed = seed;
        }
        let mut cfg = SystemConfig::for_kind(kind);
        if cli.faults.is_some() {
            // A secondary replica lets crash scenarios exercise failover
            // instead of aborting every chain.
            cfg.memnode_replicas = 2;
        }
        if let Some(n) = cli.shards {
            cfg.memnode_shards = n;
        }
        cli.apply_dispatchers(&mut cfg);
        let dpolicy = cfg.dispatch_policy;
        let res = run_one(cfg, &mut *workload, params);
        let system = format!("{kind:?}").to_lowercase();
        let export = |name: String, contents: String| {
            let path = cli.out_dir.join(name);
            std::fs::write(&path, contents).expect("write run artifact");
            println!("wrote {}", path.display());
        };

        let cons = &res.conservation;
        println!(
            "==== {kind:?}: {offered:.0} rps offered, {:.0} achieved; conservation: \
             {} arrivals = {} completed + {} dropped + {} shed + {} aborted \
             + {} in flight ({}) ====",
            res.recorder.achieved_rps(),
            cons.arrivals,
            cons.completions,
            cons.drops,
            cons.sheds,
            cons.aborts,
            cons.inflight_at_end,
            if cons.holds() { "holds" } else { "VIOLATED" }
        );
        export(format!("run_{system}.json"), run_json(&res));
        if let Some(timeline) = perfetto_json(&res) {
            export(format!("perfetto_{system}.json"), timeline);
        }
        println!();

        let c = |name: &str| res.metrics.counter(name).unwrap_or(0);
        if let Some(n) = cli.dispatchers {
            println!(
                "==== {kind:?}: dispatcher plane ({n} cores, {}) ====",
                dpolicy.name()
            );
            // Per-dispatcher counters exist only above one dispatcher:
            // single-dispatcher runs keep the pre-scaling registry.
            for d in 0..n {
                if n > 1 {
                    println!(
                        "    dispatcher {d}: {} admitted, {} steals, {} combines",
                        c(&format!("dispatcher{d}.admitted")),
                        c(&format!("dispatcher{d}.steals")),
                        c(&format!("dispatcher{d}.combines"))
                    );
                }
            }
            println!();
        }

        if res.tenants.len() > 1 {
            println!(
                "==== {kind:?}: tenant plane ({} tenants) ====",
                res.tenants.len()
            );
            println!(
                "    {:<10} {:<4} {:>12} {:>9} {:>9} {:>9} {:>6} {:>6} {:>10} {:>5}",
                "tenant",
                "prio",
                "offered_rps",
                "arrivals",
                "admitted",
                "complete",
                "sheds",
                "drops",
                "p99.9_ns",
                "slo"
            );
            for t in &res.tenants {
                println!(
                    "    {:<10} {:<4} {:>12.0} {:>9} {:>9} {:>9} {:>6} {:>6} {:>10} {:>5}",
                    t.name,
                    t.priority,
                    t.offered_rps,
                    t.arrivals,
                    t.admitted,
                    t.completed,
                    t.sheds,
                    t.drops,
                    t.latency_ns.percentile(99.9),
                    match t.slo_ok {
                        Some(true) => "ok",
                        Some(false) => "MISS",
                        None => "-",
                    }
                );
            }
            println!();
        }

        if let Some(n) = cli.shards.filter(|&n| n > 1) {
            let shard = |s: usize, field: &str| c(&format!("shard{s}.{field}"));
            println!("==== {kind:?}: page space over {n} memnode shards ====");
            for s in 0..n {
                println!(
                    "    shard {s}: {} fetches, {} retransmits, {} error cqes, \
                     {} failovers, {} chain failures",
                    shard(s, "fetches"),
                    shard(s, "fetch_retransmits"),
                    shard(s, "fetch_cqe_errors"),
                    shard(s, "fetch_failovers"),
                    shard(s, "fetch_chain_failures")
                );
            }
            println!();
        }

        if let Some(scenario) = &cli.faults {
            println!(
                "==== {kind:?}: fault plane (scenario `{}`) ====",
                scenario.name
            );
            println!(
                "    injected: {} losses, {} cqe errors",
                c("faults.injected_losses"),
                c("faults.injected_cqe_errors")
            );
            println!(
                "    nic: {} retransmits, {} error cqes, {} failovers, \
                 {} chain failures, {} aborts",
                c("fetch_retransmits"),
                c("fetch_cqe_errors"),
                c("fetch_failovers"),
                c("fetch_chain_failures"),
                c("fetch_aborts")
            );
            println!(
                "    completed {} requests, dropped {}\n",
                res.recorder.completed_in_window(),
                res.recorder.dropped()
            );
        }

        if let Some(t) = &res.telemetry {
            println!(
                "==== {kind:?}: continuous telemetry ({} ticks of {} µs, {} SLO events) ====",
                t.ticks,
                t.tick.as_nanos() / 1_000,
                t.events.len()
            );
            for e in &t.events {
                println!(
                    "    slo rule {} ({}) breach {} at {:>10} ns  burn {}.{:03}",
                    e.rule,
                    t.rules[e.rule].kind_name(),
                    e.kind.name(),
                    e.at.as_nanos(),
                    e.value_milli / 1000,
                    e.value_milli % 1000
                );
            }
            for (name, s) in t.health_series() {
                let scores = s.lasts();
                let min = scores.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
                println!(
                    "    health {name:>7}: min {:.1} over {} samples",
                    if min.is_finite() { min } else { 100.0 },
                    scores.len()
                );
            }
            export(format!("telemetry_{system}.csv"), t.series_csv());
            export(format!("health_{system}.csv"), t.health_csv());
            export(format!("slo_events_{system}.csv"), t.events_csv());
            println!();
        }

        if let Some(p) = &res.profile {
            println!(
                "==== {kind:?}: core profiler ({} ns window, {} flame sub-windows) ====",
                p.window.as_nanos(),
                p.flame_windows
            );
            print!("{:>12}", "core");
            for s in desim::CoreState::ALL {
                print!(" {:>10}", s.name());
            }
            println!();
            for c in &p.cores {
                print!("{:>12}", c.label);
                for s in desim::CoreState::ALL {
                    print!("   {:>6.2} %", 100.0 * c.fraction(s));
                }
                println!();
            }
            println!(
                "    worker spin fraction (profiler-derived): {:.4}",
                p.worker_spin_fraction()
            );
            println!(
                "    {:<24} {:>9} {:>11} {:>13} {:>13} {:>8}",
                "queue", "arrivals", "mean_depth", "mean_wait_ns", "p99_wait_ns", "littles"
            );
            for q in &p.queues {
                println!(
                    "    {:<24} {:>9} {:>11.3} {:>13.1} {:>13} {:>8.3}",
                    q.name,
                    q.arrivals,
                    q.mean_depth,
                    q.mean_wait_ns,
                    q.wait_p99_ns,
                    q.littles_consistency
                );
            }
            export(format!("flame_{system}.folded"), p.folded());
            println!();
        }

        if let Some(m) = &res.memory {
            use paging::observe::CLASS_NAMES;
            let t = m.totals();
            println!(
                "==== {kind:?}: memory observatory ({} touches, {} distinct pages, \
                 {} windows of {} µs) ====",
                m.touches,
                m.distinct_pages,
                m.rows.len(),
                m.window_ns / 1_000
            );
            println!(
                "    {:<12} {:>8} {:>8} {:>6} {:>8} {:>9} {:>14}",
                "detector", "issued", "hits", "lates", "wasted", "inflight", "late_saved_ns"
            );
            for (i, c) in m.classes.iter().enumerate() {
                if c.issued == 0 {
                    continue;
                }
                println!(
                    "    {:<12} {:>8} {:>8} {:>6} {:>8} {:>9} {:>14}",
                    CLASS_NAMES[i],
                    c.issued,
                    c.hits,
                    c.lates,
                    c.wasted,
                    c.inflight_at_end,
                    c.late_saved_ns
                );
            }
            println!(
                "    conservation: {} issued = {} hits + {} lates + {} wasted + {} in flight ({})",
                t.issued,
                t.hits,
                t.lates,
                t.wasted,
                t.inflight_at_end,
                if m.holds() { "holds" } else { "VIOLATED" }
            );
            println!(
                "    hit-rate {:.3}; working set mean {:.1} / peak {} pages; \
                 heat skew {:.2}; top stride {}; {} rows dropped",
                m.hit_rate(),
                m.ws_mean(),
                m.ws_peak(),
                m.heat_skew,
                m.strides
                    .first()
                    .map_or_else(|| "-".to_string(), |(d, _)| d.to_string()),
                m.obs_dropped
            );
            if m.obs_dropped > 0 {
                eprintln!(
                    "warning: {kind:?} memory observatory dropped {} rows/records \
                     (bounded-memory caps); series under-report",
                    m.obs_dropped
                );
            }
            export(format!("heatmap_{system}.csv"), m.heatmap_csv());
            export(format!("strides_{system}.csv"), m.fingerprint_csv());
            println!();
        }

        if cli.trace {
            let events = res.trace.as_ref().map_or(0, |t| t.len());
            println!(
                "==== {kind:?}: virtual-time trace ({events} events, {} dropped) ====",
                res.trace_dropped
            );
            if res.trace_dropped > 0 {
                eprintln!(
                    "warning: {kind:?} trace truncated — {} events dropped; \
                     raise --trace-cap (currently {})",
                    res.trace_dropped, cli.trace_cap
                );
            }
            // The full timeline is in the run JSON; print a readable head.
            for ev in res.trace.iter().flatten().take(40) {
                println!(
                    "{:>12} ns  {:<9} {:<12} a={:<8} b={}",
                    ev.at.as_nanos(),
                    ev.component,
                    ev.name,
                    ev.a,
                    ev.b
                );
            }
            if events > 40 {
                println!("… {} more events (see run_{system}.json)", events - 40);
            }
            println!();
        }

        if let Some(report) = &res.spans {
            println!(
                "==== {kind:?}: critical-path stages ({} measured requests, {} tail exemplars) ====",
                report.measured,
                report.exemplars.len()
            );
            for (name, h) in report.stats.iter() {
                if h.count() == 0 {
                    continue;
                }
                println!(
                    "{name:>12}: p50 {:>8} ns  p99 {:>8} ns  p99.9 {:>8} ns",
                    h.percentile(50.0),
                    h.percentile(99.0),
                    h.percentile(99.9)
                );
            }
            println!();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args);
    if cli.instrumented {
        instrumented_runs(&cli);
        return;
    }
    let by_id = !cli.ids.is_empty();
    let selected: Vec<&experiments::Experiment> = if by_id {
        experiments::select(&cli.ids)
            .unwrap_or_else(|miss| die(&format!("no experiment id starts with `{miss}`")))
    } else {
        experiments::ALL.iter().collect()
    };
    let scale = Scale::from_env();
    let start = Instant::now();
    let mut reports: Vec<FigureReport> = Vec::new();
    for (id, run) in selected {
        eprintln!("[experiments-md] {id} at {scale:?} scale…");
        let report = run(scale);
        if by_id {
            report.print();
        }
        reports.push(report);
    }
    let misses = reports.iter().filter(|r| !r.all_ok()).count();
    if by_id {
        if misses > 0 {
            eprintln!("[experiments-md] shape expectation MISSED in {misses} report(s)");
            std::process::exit(1);
        }
        return;
    }

    // The header names the command that matches the scale, and only a
    // Full-scale run may replace the committed record.
    let (env, path) = match scale {
        Scale::Full => ("ADIOS_FULL=1 ", PathBuf::from("EXPERIMENTS.md")),
        Scale::Quick => ("", cli.out_dir.join("EXPERIMENTS.quick.md")),
    };
    let mut md = String::new();
    let _ = writeln!(md, "# Experiments: paper vs measured\n");
    let _ = writeln!(
        md,
        "Generated by `{env}cargo run -p bench --bin experiments_md --release` \
         at `{scale:?}` scale in {:.0} s.\n",
        start.elapsed().as_secs_f64()
    );
    let _ = writeln!(
        md,
        "Absolute numbers are not expected to match the paper's testbed (two Xeon \
         servers with ConnectX-6 Dx 100 GbE RNICs); the *shape* — who wins, by \
         roughly what factor, and where crossovers fall — is what each ✅ checks. \
         Datasets are scaled (DESIGN.md §2) with the paper's 20 % local-memory \
         ratio preserved.\n"
    );
    let _ = writeln!(
        md,
        "**{} / {} reports have every shape check passing.**\n",
        reports.len() - misses,
        reports.len()
    );
    for r in &reports {
        md.push_str(&r.to_markdown());
    }

    std::fs::create_dir_all(&cli.out_dir).expect("create output directory");
    std::fs::write(&path, md).expect("write the experiments report");
    if std::env::var("ADIOS_CSV")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        for r in &reports {
            r.write_csvs(&cli.out_dir).expect("write CSVs");
        }
        eprintln!(
            "[experiments-md] wrote per-series CSVs under {}/",
            cli.out_dir.display()
        );
    }
    eprintln!(
        "[experiments-md] wrote {} ({} reports, {} misses) in {:.0} s",
        path.display(),
        reports.len(),
        misses,
        start.elapsed().as_secs_f64()
    );
}
