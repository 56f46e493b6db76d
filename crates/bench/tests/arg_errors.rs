//! Argument errors in the bench binaries: each prints its usage line and
//! exits 2, never 1 (a failed gate) and never with a panic.

use std::process::Command;

/// Runs the binary at `exe` once per argument list and checks the exit
/// code, the usage line on stderr, the absence of a panic and an empty
/// stdout.
fn assert_usage_exit_2(exe: &str, name: &str, cases: &[&[&str]]) {
    for args in cases {
        let out = Command::new(exe).args(*args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name} {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {args:?}");
    }
}

#[test]
fn farm_bench_argument_errors_exit_2() {
    assert_usage_exit_2(
        env!("CARGO_BIN_EXE_farm_bench"),
        "farm_bench",
        &[
            &["--bogus"],
            &["--trajectory"],
            &["--quick", "--flight-dir"],
        ],
    );
}

#[test]
fn fault_sweep_argument_errors_exit_2() {
    assert_usage_exit_2(
        env!("CARGO_BIN_EXE_fault_sweep"),
        "fault_sweep",
        &[
            &["--bogus"],
            &["--seed"],
            &["--seed", "x"],
            &["--schedules"],
            &["--schedules", "0"],
        ],
    );
}

#[test]
fn perf_baseline_argument_errors_exit_2() {
    assert_usage_exit_2(
        env!("CARGO_BIN_EXE_perf_baseline"),
        "perf_baseline",
        &[
            &["--bogus"],
            &["--out"],
            &["--trajectory"],
            &["--quick", "--check"],
        ],
    );
}

#[test]
fn trajectory_dashboard_argument_errors_exit_2() {
    assert_usage_exit_2(
        env!("CARGO_BIN_EXE_trajectory_dashboard"),
        "trajectory_dashboard",
        &[
            &["--bogus"],
            &["--trajectory"],
            &["--check-drift", "--out-dir"],
        ],
    );
}

#[test]
fn flicker_trace_tool_argument_errors_exit_2() {
    assert_usage_exit_2(
        env!("CARGO_BIN_EXE_flicker_trace_tool"),
        "flicker_trace_tool",
        &[
            &[],
            &["bogus"],
            &["export", "--bogus"],
            &["export", "--format"],
            &["export", "--format", "bogus"],
            &["export", "--out"],
            &["audit"],
            &["audit", "--jsonl"],
            &["attribute"],
            &["attribute", "--from"],
            &["flamegraph", "--format"],
            &["flamegraph", "--format", "bogus"],
            &["flamegraph", "--out"],
        ],
    );
}
