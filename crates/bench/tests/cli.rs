//! Drives the `experiments_md` binary from outside: the help text is
//! the registry's id list, bad invocations are rejected with usage, the
//! id form prints its reports without touching the Markdown record, and
//! an instrumented run leaves exactly its documented exports on disk —
//! one report and one timeline per system — each of which parses.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use adios_core::experiments::ALL;

// The perf ledger's std-only JSON parser, included unmodified (its
// writer half goes unused here).
#[allow(dead_code)]
#[path = "../../../benchmark/src/json.rs"]
mod json;
use json::Json;

fn experiments_md(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments_md"))
        .args(args)
        .current_dir(cwd)
        .env_remove("ADIOS_FULL")
        .env_remove("ADIOS_CSV")
        .output()
        .expect("spawn experiments_md")
}

fn here() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn help_and_readme_list_every_registry_id() {
    let out = experiments_md(&["--help"], here());
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    // The README's id table is checked against the same list.
    let readme = std::fs::read_to_string(here().join("../../README.md")).expect("read README.md");
    for (id, _) in ALL {
        assert!(
            help.lines().any(|l| l.trim() == *id),
            "--help lacks id {id}"
        );
        assert!(
            readme.contains(&format!("`{id}`")),
            "README.md lacks id `{id}`"
        );
    }
}

#[test]
fn bad_invocations_exit_2_with_usage() {
    let cases: &[&[&str]] = &[
        &["--no-such-flag"],
        // Removed with their superseded paths; they must not come back
        // as silently accepted no-ops.
        &["--perfetto", "p.json"],
        &["--flame", "f.folded"],
        &["--heatmap", "h.csv"],
        &["--bench"],
        &["--bench-repeats", "5"],
        &["--bench-horizon-ms", "2000"],
        // An id prefix matching nothing, and ids mixed with any flag
        // that selects the instrumented run.
        &["fig3"],
        &["fig7", "--trace"],
        &["fig7", "--seed", "7"],
        // Modifiers without the flag they modify.
        &["--shed-watermark", "64"],
        &["--dispatch-policy", "flat-combining"],
        // A single-stream modifier under a plane whose specs pick the
        // workloads.
        &["--app", "kvs", "--tenants", "300k:kvs:hi"],
        // Counts with no entity to run.
        &["--shards", "0"],
        &["--dispatchers", "0"],
    ];
    for args in cases {
        let out = experiments_md(args, here());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: experiments_md"), "{args:?}: {err}");
        assert!(err.contains("extension_shard_scaling"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn id_form_prints_the_report_and_writes_no_markdown() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments_md_cli");
    std::fs::create_dir_all(&dir).expect("create scratch cwd");
    let out = experiments_md(&["table1_ctxswitch"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("Table 1"), "{stdout}");
    assert!(stdout.contains("unithread context size"), "{stdout}");
    // Neither EXPERIMENTS.md nor results/EXPERIMENTS.quick.md — nothing.
    let left: Vec<_> = std::fs::read_dir(&dir).expect("list scratch cwd").collect();
    assert!(left.is_empty(), "{left:?}");
    std::fs::remove_dir_all(&dir).expect("remove scratch cwd");
}

/// Runs the instrumented form with `args` into a fresh scratch
/// `--out-dir`; returns the directory and the sorted names it holds.
fn instrumented(scratch: &str, args: &[&str]) -> (PathBuf, Vec<String>) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(scratch);
    let _ = std::fs::remove_dir_all(&dir);
    let mut argv = args.to_vec();
    argv.extend(["--out-dir", dir.to_str().expect("utf-8 scratch path")]);
    let out = experiments_md(&argv, here());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("list out-dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .collect();
    names.sort();
    (dir, names)
}

fn parse(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("read export");
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Walks `path` through nested objects; panics naming the missing key.
fn at<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(doc, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("no `{key}` on the way to {path:?}"))
    })
}

const RUN_FILES: [&str; 2] = ["run_adios.json", "run_dilos.json"];

#[test]
fn all_planes_run_leaves_one_report_one_timeline_and_the_text_exports() {
    let (dir, names) = instrumented(
        "all_planes",
        &[
            "--trace",
            "--spans",
            "--profile",
            "--memory-obs",
            "--telemetry",
            "--faults",
            "lossy",
            "--slo",
            "lat<20us:0.05@1ms",
        ],
    );
    let mut want = Vec::new();
    for system in ["adios", "dilos"] {
        want.extend([
            format!("run_{system}.json"),
            format!("perfetto_{system}.json"),
            format!("flame_{system}.folded"),
            format!("telemetry_{system}.csv"),
            format!("health_{system}.csv"),
            format!("slo_events_{system}.csv"),
            format!("heatmap_{system}.csv"),
            format!("strides_{system}.csv"),
        ]);
    }
    want.sort();
    assert_eq!(names, want);

    for system in ["adios", "dilos"] {
        let run = parse(&dir.join(format!("run_{system}.json")));
        assert!(at(&run, &["metrics", "counters"]).as_obj().is_some());
        let episodes = at(&run, &["telemetry", "episodes"]).as_arr().unwrap();
        assert!(
            episodes
                .iter()
                .any(|e| at(e, &["kind"]).as_str() == Some("link_degraded")),
            "{system}: the lossy episode is not annotated"
        );
        let window = at(&run, &["profile", "window_ns"]).as_f64().unwrap();
        assert!(window > 0.0, "{system}");
        let cores = at(&run, &["profile", "cores"]).as_arr().unwrap();
        assert!(!cores.is_empty(), "{system}");
        for core in cores {
            let states = at(core, &["states"]).as_obj().unwrap();
            let tiled: f64 = states.iter().map(|(_, ns)| ns.as_f64().unwrap()).sum();
            assert_eq!(tiled, window, "{system}: {core}");
        }
        assert_eq!(
            at(&run, &["memory", "prefetch", "conserved"]),
            &Json::Bool(true),
            "{system}"
        );
        for series in [
            &["memory", "touches"][..],
            &["memory", "working_set", "windows"],
        ] {
            assert!(
                at(&run, series).as_f64().unwrap() > 0.0,
                "{system}: {series:?}"
            );
        }
        assert!(
            !at(&run, &["trace"]).as_arr().unwrap().is_empty(),
            "{system}"
        );

        let timeline = parse(&dir.join(format!("perfetto_{system}.json")));
        assert!(!at(&timeline, &["traceEvents"]).as_arr().unwrap().is_empty());
    }

    let flame = std::fs::read_to_string(dir.join("flame_adios.folded")).unwrap();
    assert!(!flame.is_empty());
    for line in flame.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight`");
        assert_eq!(stack.matches(';').count(), 2, "{line}");
        assert!(weight.parse::<u64>().expect("integer weight") > 0, "{line}");
    }
    let heat = std::fs::read_to_string(dir.join("heatmap_adios.csv")).unwrap();
    let mut rows = heat.lines();
    assert_eq!(rows.next(), Some("window_start_us,page_bucket,touches"));
    assert!(rows.next().is_some(), "heatmap carries no cells");
    std::fs::remove_dir_all(&dir).expect("remove scratch out-dir");
}

/// Regression (two bugs): a plane-less flag used to write nothing — or,
/// for `--seed`, start the full sweep — and the 3 ms horizon ended
/// before any named scenario's first episode began.
#[test]
fn plane_less_flags_write_the_two_reports_and_every_fault_episode_lands_inside() {
    let (dir, names) = instrumented("seed_alone", &["--seed", "7"]);
    assert_eq!(names, RUN_FILES);
    std::fs::remove_dir_all(&dir).expect("remove scratch out-dir");

    for scenario in ["lossy", "flaky", "stall", "crash"] {
        let (dir, names) = instrumented(scenario, &["--faults", scenario]);
        assert_eq!(names, RUN_FILES, "{scenario}");
        for file in RUN_FILES {
            let run = parse(&dir.join(file));
            let gauge = at(&run, &["metrics", "gauges", "fault_episode_active", "max"]);
            assert_eq!(gauge.as_f64(), Some(1.0), "{scenario}/{file}");
            if scenario == "lossy" {
                let counters = at(&run, &["metrics", "counters"]);
                for name in ["faults.injected_losses", "fetch_retransmits"] {
                    assert!(
                        at(counters, &[name]).as_f64().unwrap() > 0.0,
                        "{file}: {name}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).expect("remove scratch out-dir");
    }
}

/// Shard counts are not capped by a name table: nine shards register
/// `shard8.*` like any other.
#[test]
fn nine_shards_run_and_register_the_ninth() {
    let (dir, names) = instrumented("nine_shards", &["--shards", "9"]);
    assert_eq!(names, RUN_FILES);
    for file in RUN_FILES {
        let run = parse(&dir.join(file));
        let fetches = at(&run, &["metrics", "counters", "shard8.fetches"]);
        assert!(fetches.as_f64().unwrap() > 0.0, "{file}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch out-dir");
}

/// The timeline of a run without span exemplars must still be one
/// well-formed document (the spliced export led with a comma).
#[test]
fn profile_alone_writes_a_timeline_that_parses() {
    let (dir, names) = instrumented("profile_alone", &["--profile"]);
    assert_eq!(
        names.len(),
        6,
        "run_, perfetto_, flame_ per system: {names:?}"
    );
    for system in ["adios", "dilos"] {
        let timeline = parse(&dir.join(format!("perfetto_{system}.json")));
        assert!(!at(&timeline, &["traceEvents"]).as_arr().unwrap().is_empty());
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch out-dir");
}
