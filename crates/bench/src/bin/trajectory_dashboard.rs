//! Renders the append-only bench trajectory (`BENCH_trajectory.jsonl`)
//! into a static HTML dashboard, `github-action-benchmark` style: a
//! `data.js` assigning `window.BENCHMARK_DATA` plus a dependency-free
//! `index.html` that charts every metric series across commits.
//!
//! ```text
//! trajectory_dashboard [--trajectory PATH] [--out-dir DIR]
//! trajectory_dashboard --check-drift [--trajectory PATH]
//! ```
//!
//! `--check-drift` renders nothing: it walks consecutive trajectory
//! entries carrying the `profile` extension and fails if the top stacks'
//! shares of adjacent runs break the share-drift rule
//! [`flicker_bench::profile::share_drift`] (the one `perf_baseline
//! --check` applies) — cost *drift* caught in CI even when absolute
//! latency gates still pass.
//!
//! Defaults read `BENCH_trajectory.jsonl` and write `docs/bench/`. Quick
//! runs are skipped, in both modes (the committed trajectory only carries
//! full runs; CI writes its quick lines under `target/`). Every numeric
//! leaf in a trajectory line becomes one series, named by its JSON path
//! (`apps/ssh/p50_ms`, `farm/p50_ms`, `farm_attr/categories/tpm_ms`, ...).
//!
//! The trajectory is *mixed-schema*: perf_baseline and farm_bench each
//! append their own line shape (older lines carry retired shapes too),
//! and one commit usually appends several. Lines sharing a commit are
//! merged into **one** dashboard entry (last value wins when two lines
//! carry the same leaf), so the x-axis is commits, not lines — and a
//! commit that lacks some series (an older schema, a tool not run) simply
//! has *no* sample there; the chart renders a gap, never a fabricated
//! zero.

use flicker_bench::json::{self, Value};
use flicker_bench::profile::{share_drift, MAX_SHARE_DRIFT};
use std::collections::BTreeMap;
use std::process::ExitCode;

const INDEX_HTML: &str = include_str!("trajectory_dashboard_index.html");

fn main() -> ExitCode {
    let mut trajectory = String::from("BENCH_trajectory.jsonl");
    let mut out_dir = String::from("docs/bench");
    let mut check_drift = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trajectory" => match args.next() {
                Some(path) => trajectory = path,
                None => return usage("--trajectory needs a path"),
            },
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = dir,
                None => return usage("--out-dir needs a directory"),
            },
            "--check-drift" => check_drift = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let text = match std::fs::read_to_string(&trajectory) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {trajectory}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if check_drift {
        return run_check_drift(&trajectory, &text);
    }
    // Merge lines commit-by-commit (in first-appearance order): one
    // dashboard entry per commit, holding the union of every tool's
    // series for it.
    let mut commit_order: Vec<String> = Vec::new();
    let mut by_commit: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{trajectory}:{}: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        };
        if value.get("schema").and_then(Value::as_str) != Some(flicker_bench::trajectory::SCHEMA) {
            eprintln!("{trajectory}:{}: unknown schema", lineno + 1);
            return ExitCode::FAILURE;
        }
        if value.get("quick").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let commit = value
            .get("commit")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let mut benches = Vec::new();
        flatten(&value, "", &mut benches);
        if benches.is_empty() {
            continue;
        }
        if !by_commit.contains_key(&commit) {
            commit_order.push(commit.clone());
        }
        by_commit.entry(commit).or_default().extend(benches);
    }
    let mut entries = Vec::new();
    for commit in &commit_order {
        let benches: Vec<(String, f64)> = by_commit
            .remove(commit)
            .expect("every ordered commit was inserted")
            .into_iter()
            .collect();
        entries.push(entry(commit, entries.len() as u64, benches));
    }
    if entries.is_empty() {
        eprintln!("{trajectory}: no full-run trajectory lines to chart");
        return ExitCode::FAILURE;
    }

    let doc = Value::Object(BTreeMap::from([
        (
            "lastUpdate".into(),
            Value::Number(entries.len() as f64), // monotonic, not wall time
        ),
        ("repoUrl".into(), Value::String(String::new())),
        (
            "entries".into(),
            Value::Object(BTreeMap::from([(
                "Flicker bench trajectory".into(),
                Value::Array(entries),
            )])),
        ),
    ]));

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("creating {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let data_js = format!("window.BENCHMARK_DATA = {};\n", doc.to_pretty());
    for (name, content) in [("data.js", data_js.as_str()), ("index.html", INDEX_HTML)] {
        let path = format!("{out_dir}/{name}");
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// Prints `err` and the usage line. The exit code, 2, tells an argument
/// error apart from a failed gate's 1.
fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: trajectory_dashboard [--trajectory PATH] [--out-dir DIR]\n\
         \x20      trajectory_dashboard --check-drift [--trajectory PATH]"
    );
    ExitCode::from(2)
}

/// The drift detector: compares each full-run trajectory entry's
/// `profile` top-stack shares against the previous full-run entry that
/// has them, by [`share_drift`]. Only the five heaviest stacks are
/// recorded per line, so a stack missing from one side counts as share 0.
fn run_check_drift(trajectory: &str, text: &str) -> ExitCode {
    // The previous entry's line number and top-stack shares.
    let mut prev: Option<(usize, BTreeMap<String, f64>)> = None;
    let mut compared = 0u64;
    let mut failures = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{trajectory}:{}: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        };
        if value.get("quick").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let Some(top) = value
            .get("profile")
            .and_then(|p| p.get("top_stacks"))
            .and_then(Value::as_object)
        else {
            continue; // lines without the profile extension
        };
        let shares: BTreeMap<String, f64> = top
            .iter()
            .filter_map(|(path, v)| Some((path.clone(), v.as_number()?)))
            .collect();
        if let Some((prev_line, before)) = &prev {
            compared += 1;
            for issue in share_drift(before, &shares) {
                failures.push(format!(
                    "{trajectory}:{} vs line {}: {issue}",
                    lineno + 1,
                    prev_line
                ));
            }
        }
        prev = Some((lineno + 1, shares));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("DRIFT {f}");
        }
        eprintln!(
            "profile drift check failed: {} violation(s) over {compared} comparison(s)",
            failures.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "profile drift check passed: {compared} consecutive-run comparison(s) \
         within {:.0}pp",
        MAX_SHARE_DRIFT * 100.0
    );
    ExitCode::SUCCESS
}

/// Collects every numeric leaf under `value` as a `path/to/leaf` series
/// sample, skipping the envelope fields (`schema`, `commit`, `quick`).
fn flatten(value: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                if prefix.is_empty() && matches!(key.as_str(), "schema" | "commit" | "quick") {
                    continue;
                }
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}/{key}")
                };
                flatten(child, &path, out);
            }
        }
        Value::Number(n) => out.push((prefix.to_string(), *n)),
        _ => {}
    }
}

/// One `github-action-benchmark`-shaped entry: commit header, sequence
/// date, and the flattened samples. Virtual-clock latencies are labelled
/// `ms`; counts are unitless.
fn entry(commit: &str, seq: u64, benches: Vec<(String, f64)>) -> Value {
    let benches = benches
        .into_iter()
        .map(|(name, value)| {
            let unit = if name.ends_with("_ms") { "ms" } else { "" };
            Value::Object(BTreeMap::from([
                ("name".into(), Value::String(name)),
                ("value".into(), Value::Number(value)),
                ("unit".into(), Value::String(unit.into())),
            ]))
        })
        .collect();
    Value::Object(BTreeMap::from([
        (
            "commit".into(),
            Value::Object(BTreeMap::from([
                ("id".into(), Value::String(commit.into())),
                ("message".into(), Value::String(String::new())),
                ("url".into(), Value::String(String::new())),
            ])),
        ),
        ("date".into(), Value::Number(seq as f64)),
        ("tool".into(), Value::String("customSmallerIsBetter".into())),
        ("benches".into(), Value::Array(benches)),
    ]))
}
