//! The harness binaries' bad-input contract: an unreadable config, an
//! unwritable output or a bad command line is reported in one line on
//! stderr with exit status 2, never as a panic.

use std::process::{Command, Output};

/// A path no file can be created at: its parent is not a directory.
const UNWRITABLE: &str = "/dev/null/out";

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn the binary")
}

/// Exit 2 with one stderr line that starts with `prefix`, no panic.
fn assert_refused(out: &Output, prefix: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with(prefix), "{stderr}");
}

#[test]
fn experiment_on_a_missing_config_exits_2_without_a_panic() {
    let missing = std::env::temp_dir().join("clusterio-no-such-config.json");
    let out = run(env!("CARGO_BIN_EXE_experiment"), &[missing.to_str().expect("utf-8 path")]);
    assert_refused(&out, "bad config ");
    assert!(out.stdout.is_empty(), "no run, no summary");
}

#[test]
fn experiment_help_prints_the_usage_line() {
    let out = run(env!("CARGO_BIN_EXE_experiment"), &["--help"]);
    assert_refused(&out, "usage: experiment ");
}

#[test]
fn experiment_reports_an_unwritable_export_after_the_run() {
    let cfg = std::env::temp_dir().join(format!("clusterio-cli-{}.json", std::process::id()));
    std::fs::write(
        &cfg,
        r#"{"apps":[{"name":"a","nodes":[0],"total_mb":1,"request_kb":64,"mode":"read"}]}"#,
    )
    .expect("write the config");
    let out = run(
        env!("CARGO_BIN_EXE_experiment"),
        &[cfg.to_str().expect("utf-8 path"), "--metrics-out", UNWRITABLE],
    );
    std::fs::remove_file(&cfg).ok();
    assert_refused(&out, "cannot write /dev/null/out");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"completed\": true"));
}

#[test]
fn figures_reports_an_unwritable_output_directory() {
    let out = run(env!("CARGO_BIN_EXE_figures"), &["--fig", "4", "--smoke", "--out", UNWRITABLE]);
    assert_refused(&out, "cannot write /dev/null/out");
}
