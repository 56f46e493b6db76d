//! Perf-baseline runner: runs every §6 application under the trace
//! recorder and emits one report, `BENCH_perf_baseline.json`: per-phase /
//! per-TPM-ordinal / per-app latency percentiles plus the profile's
//! folded stacks and their shares of the total virtual time.
//!
//! ```text
//! perf_baseline [--quick] [--out PATH] [--trajectory PATH] [--check PATH]
//! ```
//!
//! Every run records one flight, builds the report, validates it, and
//! audits the flight (a truncated flight fails). `--check PATH` also
//! validates the report at PATH and fails if any stack's share drifted
//! from it (`flicker_bench::profile::share_drift`). The run then prints
//! its tables, writes `--out`, and appends a one-line JSONL summary to the
//! trajectory file (default `BENCH_trajectory.jsonl`) so latency and
//! profile drift across commits is diffable without re-running old
//! revisions.

use flicker_bench::baseline::{audit_flight, run_baseline_traced, validate, BaselineConfig};
use flicker_bench::json::{self, Value};
use flicker_bench::profile::{share_drift, stack_shares, trajectory_extension, MAX_SHARE_DRIFT};
use flicker_bench::{render_table, trajectory};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out = String::from("BENCH_perf_baseline.json");
    let mut trajectory = String::from("BENCH_trajectory.jsonl");
    let mut check: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => return usage("--out needs a path"),
            },
            "--trajectory" => match args.next() {
                Some(path) => trajectory = path,
                None => return usage("--trajectory needs a path"),
            },
            "--check" => match args.next() {
                Some(path) => check = Some(path),
                None => return usage("--check needs a path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let cfg = if quick {
        BaselineConfig::quick()
    } else {
        BaselineConfig::full()
    };
    eprintln!(
        "running perf baseline: {} iterations per app{}",
        cfg.iterations_per_app,
        if cfg.quick { " (quick)" } else { "" },
    );
    let (doc, trace) = run_baseline_traced(&cfg);
    let sessions = match validate(&doc) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("generated baseline failed validation: {e}");
            return ExitCode::FAILURE;
        }
    };
    match audit_flight(&trace) {
        Ok(n) => eprintln!("trace audit clean: {n} events satisfy every Figure-2/§4 invariant"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = check {
        if let Err(e) = check_against(&path, &doc) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    print_summary(&doc);
    if let Err(e) = std::fs::write(&out, doc.to_pretty()) {
        eprintln!("writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = append_trajectory(&trajectory, &doc, sessions) {
        eprintln!("appending {trajectory}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("\nwrote {out} ({sessions} sessions); appended {trajectory}");
    ExitCode::SUCCESS
}

/// Prints `err` and the usage line. The exit code, 2, tells an argument
/// error apart from a failed gate's 1.
fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("usage: perf_baseline [--quick] [--out PATH] [--trajectory PATH] [--check PATH]");
    ExitCode::from(2)
}

/// Validates the committed report at `path` and compares the fresh
/// report's stack shares against it.
fn check_against(path: &str, doc: &Value) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline = json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    let sessions = validate(&baseline).map_err(|e| format!("{path} failed validation: {e}"))?;
    let issues = share_drift(&stack_shares(&baseline), &stack_shares(doc));
    if !issues.is_empty() {
        for issue in &issues {
            eprintln!("DRIFT {issue}");
        }
        return Err(format!(
            "profile drift vs {path}: {} violation(s)",
            issues.len()
        ));
    }
    eprintln!(
        "{path}: schema-valid baseline covering {sessions} sessions; stack shares within \
         {:.0}pp",
        MAX_SHARE_DRIFT * 100.0
    );
    Ok(())
}

/// Appends one JSONL summary line (commit, quick, sessions, per-app
/// p50/p95, plus the compact `profile` extension) to the trajectory file,
/// creating it if absent.
fn append_trajectory(path: &str, doc: &Value, sessions: u64) -> Result<(), String> {
    let mut apps = BTreeMap::new();
    if let Some(entries) = doc.get("apps").and_then(Value::as_object) {
        for (name, stats) in entries {
            let pick = |key: &str| stats.get(key).cloned().unwrap_or(Value::Null);
            apps.insert(
                name.clone(),
                Value::Object(BTreeMap::from([
                    ("p50_ms".into(), pick("p50_ms")),
                    ("p95_ms".into(), pick("p95_ms")),
                ])),
            );
        }
    }
    let line = BTreeMap::from([
        (
            "quick".into(),
            doc.get("quick").cloned().unwrap_or(Value::Null),
        ),
        ("sessions".into(), Value::Number(sessions as f64)),
        ("apps".into(), Value::Object(apps)),
        ("profile".into(), trajectory_extension(doc)),
    ]);
    trajectory::append(path, line)
}

/// Prints one aligned table per latency section, then the hottest stacks.
fn print_summary(doc: &Value) {
    for (section, title) in [
        ("phases", "Per-phase latency (ms)"),
        ("tpm", "Per-TPM-ordinal latency (ms)"),
        ("apps", "Per-application iteration latency (ms)"),
    ] {
        let Some(entries) = doc.get(section).and_then(Value::as_object) else {
            continue;
        };
        let rows: Vec<Vec<String>> = entries
            .iter()
            .map(|(name, stats)| {
                let cell = |key: &str| {
                    stats
                        .get(key)
                        .and_then(Value::as_number)
                        .map_or_else(|| "-".into(), |v| format!("{v:.2}"))
                };
                let count = stats.get("count").and_then(Value::as_number).unwrap_or(0.0);
                vec![
                    name.clone(),
                    format!("{count:.0}"),
                    cell("p50_ms"),
                    cell("p95_ms"),
                    cell("p99_ms"),
                    cell("mean_ms"),
                ]
            })
            .collect();
        let table = render_table(
            title,
            &["name", "count", "p50", "p95", "p99", "mean"],
            &rows,
        );
        print!("{table}");
    }

    let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_number).unwrap_or(0.0);
    let mut stacks: Vec<(&String, f64, f64)> = doc
        .get("stacks")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
        .map(|(path, e)| (path, number(e, "self_ms"), number(e, "share")))
        .collect();
    stacks.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(b.0)));
    let rows: Vec<Vec<String>> = stacks
        .into_iter()
        .take(12)
        .map(|(path, self_ms, share)| {
            vec![
                path.clone(),
                format!("{self_ms:.1}"),
                format!("{:.1}%", share * 100.0),
            ]
        })
        .collect();
    let table = render_table(
        "Hottest stacks (self time)",
        &["stack", "self_ms", "share"],
        &rows,
    );
    print!("{table}");
    println!(
        "\nprofile total: {:.1} ms ({:.1} ms in sessions); reconciliation loss {:.4}%",
        number(doc, "total_ms"),
        number(doc, "session_total_ms"),
        number(doc, "reconciliation_error") * 100.0,
    );
}
