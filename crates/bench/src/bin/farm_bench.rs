//! Farm benchmark: drives the sharded attestation farm under the seeded
//! fault injector and reports throughput, latency percentiles, and the
//! conservation invariant (no request lost, none duplicated).
//!
//! ```text
//! farm_bench [--quick] [--trajectory PATH] [--flight-dir DIR]
//! ```
//!
//! Full mode runs 8 machines against a 200-schedule fault sweep (the same
//! `FaultPlan::seeded` schedules the fault-sweep harness uses); `--quick`
//! runs 2 machines against 15. The run
//! FAILS — non-zero exit — if any request is lost or duplicated, if any
//! attempt bound is exceeded, if any machine's flight record violates a
//! paper invariant or was truncated, if latency attribution covers less
//! than 99% of any request's wall time, or if any workload burns through
//! its SLO error budget. Each run appends one JSONL line (farm metrics +
//! the `farm_attr` attribution/SLO extension) to the trajectory file so
//! farm drift across commits stays diffable. `--flight-dir` additionally
//! persists the full flight record (coordinator + per-machine streams +
//! request outcomes) for offline analysis with
//! `flicker_trace_tool attribute --from DIR`.

use flicker_bench::farmattr::{self, FarmFlight};
use flicker_bench::json::Value;
use flicker_bench::{percentiles, render_table};
use flicker_farm::{Farm, FarmConfig, RequestSpec, Terminal};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut quick = false;
    let mut trajectory = String::from("BENCH_trajectory.jsonl");
    let mut flight_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trajectory" => match args.next() {
                Some(path) => trajectory = path,
                None => return usage("--trajectory needs a path"),
            },
            "--flight-dir" => match args.next() {
                Some(dir) => flight_dir = Some(PathBuf::from(dir)),
                None => return usage("--flight-dir needs a directory"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let (machines, requests) = if quick { (2, 15u64) } else { (8, 200) };
    let config = FarmConfig {
        machines,
        queue_bound: requests as usize, // size the queue for the sweep
        ..FarmConfig::default()
    };
    eprintln!(
        "farm_bench: {machines} machines, {requests} seeded fault schedules{}",
        if quick { " (quick)" } else { "" }
    );

    let wall_start = std::time::Instant::now();
    let farm = Farm::start(config);
    let boot_secs = wall_start.elapsed().as_secs_f64();
    let serve_start = std::time::Instant::now();
    for seed in 0..requests {
        farm.submit(RequestSpec::seeded(seed));
    }
    let report = farm.shutdown();
    let serve_secs = serve_start.elapsed().as_secs_f64();

    // ---- hard invariants -----------------------------------------------
    if let Err(e) = report.verify_conservation() {
        eprintln!("CONSERVATION VIOLATED: {e}");
        return ExitCode::FAILURE;
    }
    let violations = report.audit_shards();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("VIOLATION {v}");
        }
        eprintln!("trace audit failed: {} violation(s)", violations.len());
        return ExitCode::FAILURE;
    }

    // ---- throughput + latency ------------------------------------------
    let ran: Vec<Duration> = report
        .outcomes
        .iter()
        .filter(|o| !matches!(o.terminal, Terminal::Shed))
        .map(|o| o.latency)
        .collect();
    let sessions_per_sec = if serve_secs > 0.0 {
        ran.len() as f64 / serve_secs
    } else {
        0.0
    };
    let (p50, p95, p99) = percentiles(&ran);

    let table = render_table(
        "Farm outcomes",
        &["terminal", "count"],
        &[
            vec!["done".into(), report.done().to_string()],
            vec!["failed".into(), report.failed().to_string()],
            vec!["timed_out".into(), report.timed_out().to_string()],
            vec!["shed".into(), report.shed().to_string()],
        ],
    );
    print!("{table}");
    let table = render_table(
        "Supervision",
        &["metric", "value"],
        &[
            vec!["retries".into(), report.retries().to_string()],
            vec!["requeues".into(), report.requeues().to_string()],
            vec!["quarantines".into(), report.quarantines().to_string()],
            vec![
                "retired machines".into(),
                report
                    .shards
                    .iter()
                    .filter(|s| s.retired)
                    .count()
                    .to_string(),
            ],
        ],
    );
    print!("{table}");
    let table = render_table(
        "Latency (virtual ms, over non-shed requests)",
        &["p50", "p95", "p99"],
        &[vec![ms(p50), ms(p95), ms(p99)]],
    );
    print!("{table}");
    println!(
        "\nzero lost, zero duplicated: {} submitted -> {} terminal outcomes",
        report.submitted,
        report.outcomes.len()
    );
    println!(
        "throughput: {sessions_per_sec:.1} sessions/sec wall \
         ({:.1}s boot, {serve_secs:.1}s serving)",
        boot_secs
    );

    // ---- attribution + SLO ---------------------------------------------
    let flight = FarmFlight::from_report(&report);
    let policy = farmattr::default_slo_policy();
    let (attr, slo) = farmattr::evaluate(&flight, &policy);
    farmattr::print_summary(&attr, &slo);
    if let Some(dir) = &flight_dir {
        if let Err(e) = flight.write(dir) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote flight record to {}", dir.display());
    }
    let failures = farmattr::gate(&flight, &attr, &slo);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ATTRIBUTION GATE: {f}");
        }
        return ExitCode::FAILURE;
    }

    let line = trajectory_line(
        &report,
        machines,
        quick,
        sessions_per_sec,
        p50,
        p95,
        p99,
        farmattr::farm_attr_value(&attr, &slo),
    );
    if let Err(e) = flicker_bench::trajectory::append(&trajectory, line) {
        eprintln!("appending {trajectory}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("appended {trajectory}");
    ExitCode::SUCCESS
}

/// Prints `err` and the usage line. The exit code, 2, tells an argument
/// error apart from a failed gate's 1.
fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("usage: farm_bench [--quick] [--trajectory PATH] [--flight-dir DIR]");
    ExitCode::from(2)
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[allow(clippy::too_many_arguments)]
fn trajectory_line(
    report: &flicker_farm::FarmReport,
    machines: usize,
    quick: bool,
    sessions_per_sec: f64,
    p50: Duration,
    p95: Duration,
    p99: Duration,
    farm_attr: Value,
) -> BTreeMap<String, Value> {
    let num = |v: f64| Value::Number(v);
    let dur_ms = |d: Duration| Value::Number(d.as_secs_f64() * 1e3);
    let farm = Value::Object(BTreeMap::from([
        ("machines".into(), num(machines as f64)),
        ("requests".into(), num(report.submitted as f64)),
        ("done".into(), num(report.done() as f64)),
        ("failed".into(), num(report.failed() as f64)),
        ("timed_out".into(), num(report.timed_out() as f64)),
        ("shed".into(), num(report.shed() as f64)),
        ("retries".into(), num(report.retries() as f64)),
        ("requeues".into(), num(report.requeues() as f64)),
        ("quarantines".into(), num(report.quarantines() as f64)),
        ("sessions_per_sec".into(), num(sessions_per_sec)),
        ("p50_ms".into(), dur_ms(p50)),
        ("p95_ms".into(), dur_ms(p95)),
        ("p99_ms".into(), dur_ms(p99)),
    ]));
    BTreeMap::from([
        ("quick".into(), Value::Bool(quick)),
        ("farm".into(), farm),
        ("farm_attr".into(), farm_attr),
    ])
}
