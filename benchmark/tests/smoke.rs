//! `BENCHMARK.json` and the binary agree: same workloads, same metric
//! names, units, directions and bounds; a `--smoke` run of every
//! workload emits exactly the declared names and a well-formed result
//! line, and the traced run writes a well-formed span file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::json::Json;
use perfbench::metrics::{self, Def};
use perfbench::workloads::WORKLOADS;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// The catalogue as `BENCHMARK.json` spells it: exactly the keys
/// `name`, `unit`, `better` and, end to end, `bound`.
fn declared(defs: Vec<Def>) -> Json {
    let metric = |d: Def| {
        let mut fields = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better)),
        ];
        fields.extend(d.bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(fields)
    };
    Json::Arr(defs.into_iter().map(metric).collect())
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| {
            let s = |k| w.get(k).unwrap().as_str().unwrap().to_string();
            (s("name"), s("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, ours);
    assert!(ours
        .iter()
        .all(|(n, why)| metrics::valid_name(n) && why.len() <= 200 && !why.contains('\n')));

    assert_eq!(
        doc.get("end_to_end"),
        Some(&declared(metrics::end_to_end()))
    );
    assert_eq!(doc.get("per_layer"), Some(&declared(metrics::per_layer())));

    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

fn scratch(name: &str) -> PathBuf {
    let dir = manifest_dir().join("out");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs the binary in `--smoke` mode and returns its stdout and the
/// records it appended to `--out`.
fn smoke(args: &[&str], out_name: &str) -> (String, Vec<Json>) {
    let out = scratch(out_name);
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("perfbench starts");
    assert!(
        run.status.success(),
        "perfbench {args:?} failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let records = std::fs::read_to_string(&out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).expect("each --out line is JSON"))
        .collect();
    (String::from_utf8(run.stdout).unwrap(), records)
}

fn names_and_units(record: &Json) -> BTreeSet<(String, String)> {
    record
        .get("metrics")
        .unwrap()
        .as_obj()
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").unwrap().as_f64().is_some_and(f64::is_finite),
                "{name} is a finite number"
            );
            (
                name.clone(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn catalogue(defs: Vec<Def>) -> BTreeSet<(String, String)> {
    defs.into_iter()
        .map(|d| (d.name, d.unit.to_string()))
        .collect()
}

#[test]
fn smoke_run_emits_the_declared_end_to_end_names() {
    let (stdout, records) = smoke(&["run", "--all"], "smoke_e2e.jsonl");
    let ran: Vec<&str> = records
        .iter()
        .map(|r| r.get("workload").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(ran, WORKLOADS.map(|w| w.0));
    for r in &records {
        assert_eq!(names_and_units(r), catalogue(metrics::end_to_end()));
        assert_eq!(r.get("seed").unwrap().as_f64(), Some(7.0));
        assert_eq!(r.get("reps").unwrap().as_f64(), Some(2.0));
        assert_eq!(r.get("failed").unwrap().as_f64(), Some(0.0));
        assert!(r.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(
            r.get("sim_fingerprint").unwrap().as_str().unwrap().len(),
            16
        );
        // Zero would make a relative bound meaningless.
        for (name, m) in r.get("metrics").unwrap().as_obj().unwrap() {
            assert!(
                m.get("value").unwrap().as_f64().unwrap() > 0.0,
                "{name} must never be 0"
            );
        }
    }
    // The result line: last on stdout, exactly the contract's keys.
    let last = Json::parse(stdout.lines().last().unwrap()).expect("last stdout line is JSON");
    let keys: Vec<&str> = last
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert!(last.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(names_and_units(&last), catalogue(metrics::end_to_end()));
}

#[test]
fn smoke_trace_emits_the_declared_per_layer_names_and_a_span_file() {
    let (stdout, records) = smoke(&["trace", "--workload", "scan_mix"], "smoke_trace.jsonl");
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].get("trace").unwrap().as_f64(), Some(1.0));
    assert_eq!(
        names_and_units(&records[0]),
        catalogue(metrics::per_layer())
    );
    let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(names_and_units(&last), catalogue(metrics::per_layer()));

    let trace = std::fs::read_to_string(manifest_dir().join("out/trace_scan_mix.json")).unwrap();
    let doc = Json::parse(&trace).expect("Chrome trace parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let names: BTreeSet<&str> = events
        .iter()
        .map(|e| e.get("name").unwrap().as_str().unwrap())
        .collect();
    for span in [
        "rep",
        "apps.build",
        "runtime.sim_new",
        "runtime.sim_run",
        "core.run_json",
        "apps.tracegen",
    ] {
        assert!(names.contains(span), "span {span} missing from the trace");
    }
    // Children never exceed their parent.
    for e in events {
        let field = |e: &Json, k: &str| e.get(k).unwrap().as_f64().unwrap();
        if let Some(p) = e.get("args").unwrap().get("parent").unwrap().as_f64() {
            let parent = &events[p as usize];
            assert!(field(e, "ts") >= field(parent, "ts"));
            assert!(
                field(e, "ts") + field(e, "dur")
                    <= field(parent, "ts") + field(parent, "dur") + 1e-3
            );
        }
        assert!(
            e.get("args")
                .unwrap()
                .get("self_us")
                .unwrap()
                .as_f64()
                .unwrap()
                >= 0.0
        );
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--bogus"],
        &["--workload", "micro_knee", "--trace", "2"],
        &["compare", "only-one"],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} must not print a result");
    }
}
