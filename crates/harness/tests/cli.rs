//! Command-line contract of the `main` binary: malformed invocations exit 2
//! with a one-line error instead of running.
//!
//! Every case names an experiment or fails while its flags are parsed,
//! because an invocation without one runs `all` at Full scale.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_main")).args(args).output().expect("spawn the harness binary")
}

/// Asserts that `args` exit with status 2 and that stderr contains `needle`.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = harness(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {}\n{stderr}", out.status);
    assert!(stderr.contains(needle), "{args:?}: stderr lacks {needle:?}:\n{stderr}");
}

#[test]
fn out_without_a_directory_is_rejected() {
    assert_usage_error(&["table1", "--tiny", "--out"], "--out expects a directory");
}

#[test]
fn perf_is_an_unknown_experiment() {
    assert_usage_error(&["perf", "--tiny"], "unknown experiment: perf");
}

#[test]
fn baseline_is_an_unknown_option() {
    assert_usage_error(&["table1", "--tiny", "--baseline", "x"], "unknown option: --baseline");
}

#[test]
fn obs_is_an_unknown_option() {
    assert_usage_error(&["fig1", "--tiny", "--obs", "full"], "unknown option: --obs");
}

#[test]
fn verbose_is_an_unknown_option() {
    assert_usage_error(&["table1", "--tiny", "-v"], "unknown option: -v");
}

#[test]
fn capacity_curve_is_an_unknown_option() {
    assert_usage_error(&["--capacity-curve", "--tiny"], "unknown option: --capacity-curve");
}

#[test]
fn arrivals_names_its_stride_and_its_fleet_count() {
    assert_usage_error(&["mix", "--tiny", "--arrivals", "x"], "cycle stride");
    assert_usage_error(&["fleet", "--arrivals", "-1"], "number of kernel arrivals");
    let help = harness(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("--arrivals STRIDE|COUNT"));
}
