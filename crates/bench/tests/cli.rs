//! Drives the `experiments_md` binary from outside: the help text is
//! the registry's id list, bad invocations are rejected with usage, and
//! the id form prints its reports without touching the Markdown record.

use std::path::Path;
use std::process::{Command, Output};

use adios_core::experiments::ALL;

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
        // An id prefix matching nothing, and ids mixed with a smoke flag.
        &["fig3"],
        &["fig7", "--trace"],
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
