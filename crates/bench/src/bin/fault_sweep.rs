//! Seeded fault-injection sweep: N schedules across the §6 applications.
//!
//! Every schedule must either survive (correct results despite faults) or
//! recover (clean error, platform fully restored). Any violation — panic,
//! leaked suspend state, secret residue, permanently unreadable sealed
//! storage, or a flight-recorder audit failure — is reported and makes
//! the process exit non-zero. Violating schedules dump their full flight
//! record as JSONL under `target/` (replayable with
//! `flicker_trace_tool audit --jsonl`).
//!
//! Usage: `fault_sweep [--seed N] [--schedules N] [--quick]`; an argument
//! error prints that line and exits 2.

use flicker_apps::AppKind;
use flicker_bench::faultsweep::{run_sweep, Outcome};
use flicker_bench::render_table;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// `--quick` schedule count: enough to exercise every app and fault kind,
/// small enough for a CI gate.
const QUICK_SCHEDULES: u64 = 25;

fn main() -> ExitCode {
    let mut base_seed = 0u64;
    let mut schedules = 200u64;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => base_seed = n,
                None => return usage("--seed needs a number"),
            },
            "--schedules" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => schedules = n,
                _ => return usage("--schedules needs a positive count"),
            },
            "--quick" => quick = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    if quick {
        schedules = QUICK_SCHEDULES;
    }

    let report = run_sweep(base_seed, schedules);

    let rows: Vec<Vec<String>> = AppKind::ALL
        .iter()
        .map(|app| {
            let of_app = report.results.iter().filter(|r| r.app == app.name());
            let (mut survived, mut recovered, mut violations, mut faults) =
                (0u64, 0u64, 0u64, 0u64);
            for r in of_app {
                match &r.outcome {
                    Outcome::Survived => survived += 1,
                    Outcome::Recovered(_) => recovered += 1,
                    Outcome::Violation(_) => violations += 1,
                }
                faults += r.faults.total();
            }
            vec![
                app.name().to_string(),
                survived.to_string(),
                recovered.to_string(),
                violations.to_string(),
                faults.to_string(),
            ]
        })
        .collect();

    let table = render_table(
        &format!(
            "Fault sweep: {schedules} schedules from seed {base_seed} \
             ({} faults fired)",
            report.faults_fired
        ),
        &["App", "Survived", "Recovered", "Violations", "Faults"],
        &rows,
    );
    print!("{table}");

    for r in report.violating() {
        if let Outcome::Violation(why) = &r.outcome {
            eprintln!("VIOLATION seed={} app={}: {why}", r.seed, r.app);
            match dump_flight_record(r.seed, r.app, &r.flight_record) {
                Ok(path) => eprintln!("  flight record: {path}"),
                Err(e) => eprintln!("  flight record dump failed: {e}"),
            }
        }
    }

    println!(
        "\n{} survived, {} recovered, {} violations",
        report.survived, report.recovered, report.violations
    );
    if report.violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints `err` and the usage line. The exit code, 2, tells an argument
/// error apart from a violation's 1.
fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("usage: fault_sweep [--seed N] [--schedules N] [--quick]");
    ExitCode::from(2)
}

/// Writes one violating schedule's events to
/// `target/flight_record_seed<seed>_<app>.jsonl` and returns the path.
fn dump_flight_record(
    seed: u64,
    app: &str,
    events: &[flicker_trace::Event],
) -> Result<String, String> {
    std::fs::create_dir_all("target").map_err(|e| e.to_string())?;
    let path = Path::new("target").join(format!("flight_record_seed{seed}_{app}.jsonl"));
    let mut f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    for e in events {
        writeln!(f, "{}", e.to_jsonl()).map_err(|e| e.to_string())?;
    }
    Ok(path.display().to_string())
}
