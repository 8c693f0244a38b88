//! `perfbench`: the repo's perf ledger. See `benchmark/README.md`.

use std::io::Write as _;
use std::process::ExitCode;

use perfbench::json::Json;
use perfbench::run::{self, Record};
use perfbench::spans::Spans;
use perfbench::workloads::{self, WORKLOADS};
use perfbench::{alloc, compare, metrics, trace};

// Only this binary counts allocations; the library's tests run on the
// plain system allocator.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: perfbench [run|trace] --workload <name>|--all [--seed N] [--seconds S] [--trace 0|1]
                 [--out results.jsonl] [--smoke]
       perfbench list
       perfbench compare <parent.jsonl> <change.jsonl>

  run      end-to-end metrics (the default; same as --trace 0)
  trace    per-layer metrics and a Chrome trace under benchmark/out/ (same as --trace 1)
  --out    append one JSON line per run, the input of `compare`
  --smoke  2 repetitions, horizons and iteration counts / 20: checks names and plumbing only";

/// Horizon and iteration divisor of `--smoke`.
const SMOKE_DIV: u64 = 20;

struct Args {
    /// `None` with `--all`: every workload, one child process each.
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 16.0,
        traced: false,
        out: None,
        smoke: false,
    };
    let mut all = false;
    let mut it = args.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => _ = it.next(),
        Some("trace") => {
            a.traced = true;
            it.next();
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| w.0 == name.as_str());
                let known =
                    known.ok_or_else(|| format!("unknown workload {name:?} (see `list`)"))?;
                a.workload = Some(known.0);
            }
            "--all" => all = true,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = Some(value()?.clone()),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_some() == all {
        return Err("name one workload with --workload, or --all".into());
    }
    Ok(a)
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn metrics_json(rec: &Record) -> Json {
    Json::obj(rec.metrics.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// `--all`: one child process per workload, as the acceptance driver
/// runs them, so no workload sees the heap another left behind
/// (`setup_s` of the sub-millisecond set-ups depends on it).
fn run_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    for (name, _) in WORKLOADS {
        let child_args = args.iter().flat_map(|a| match a.as_str() {
            "--all" => vec!["--workload", name],
            other => vec![other],
        });
        let status = std::process::Command::new(&exe)
            .args(child_args)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("{name}: {status}"));
        }
    }
    Ok(())
}

/// Runs one workload, prints its table and result line, and appends
/// the full record to `--out`.
fn run_workload(name: &'static str, a: &Args) -> Result<(), String> {
    let div = if a.smoke { SMOKE_DIV } else { 1 };
    let seconds = if a.smoke { 0.0 } else { a.seconds };
    let case = workloads::sim_case(name, a.seed, div).expect("name was checked against WORKLOADS");
    let mut spans = Spans::new();
    let rec = if a.traced {
        trace::run(&case, a.seed, seconds, div, &mut spans)?
    } else {
        run::end_to_end(&case, &mut spans, seconds, a.smoke)?
    };

    let kind = if a.traced {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "== {name}: {kind}, seed {}, {} timing slices, sim_fingerprint {:016x}",
        a.seed, rec.reps, rec.fingerprint
    );
    for (metric, value, unit) in &rec.metrics {
        println!("  {metric:<44} {value:>16.6} {unit}");
    }
    for (key, value) in &rec.info {
        println!("  info {key:<39} {value:>16.6}");
    }
    if a.traced {
        println!(
            "  {:<28} {:>6} {:>14} {:>14}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (span, calls, total, own) in spans.by_name() {
            println!(
                "  {span:<28} {calls:>6} {:>14.3} {:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace_{name}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.chrome_trace().to_string()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  trace written to {}", path.display());
    }

    if let Some(path) = &a.out {
        let line = Json::obj([
            ("schema", Json::str("perfbench/1")),
            ("workload", Json::str(name)),
            ("trace", Json::Num(a.traced as u8 as f64)),
            ("seed", Json::Num(a.seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(a.smoke)),
            ("reps", Json::Num(rec.reps as f64)),
            (
                "nproc",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("commit", Json::str(commit())),
            (
                "sim_fingerprint",
                Json::str(format!("{:016x}", rec.fingerprint)),
            ),
            ("attempted", Json::Num(rec.attempted as f64)),
            ("failed", Json::Num(rec.failed as f64)),
            ("metrics", metrics_json(&rec)),
            (
                "info",
                Json::obj(rec.info.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
        ]);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }

    // Every workload runs below its knee: a dropped, shed or aborted
    // request is a wrong output, not a data point.
    if rec.failed != 0 {
        return Err(format!(
            "{name}: {} of {} requests failed",
            rec.failed, rec.attempted
        ));
    }
    // The result line: last on standard output, exactly these keys.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(rec.attempted as f64)),
            ("failed", Json::Num(rec.failed as f64)),
            ("metrics", metrics_json(&rec)),
        ])
    );
    Ok(())
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<16} {why}");
    }
    for (title, defs) in [
        ("end-to-end metrics", metrics::end_to_end()),
        ("per-layer metrics", metrics::per_layer()),
    ] {
        println!("{title}:");
        for d in defs {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!("  bound {:.1}%", b * 100.0));
            println!(
                "  {:<44} {:<10} {} is better{bound}",
                d.name, d.unit, d.better
            );
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::from(if args.is_empty() { 2 } else { 0 });
        }
        Some("list") => {
            list();
            Ok(())
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b)
                .and_then(|ok| ok.then_some(()).ok_or("a metric regressed".into())),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        },
        Some(_) => match parse(&args) {
            Ok(a) => match a.workload {
                Some(w) => run_workload(w, &a),
                None => run_all(&args),
            },
            Err(e) => {
                eprintln!("perfbench: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
