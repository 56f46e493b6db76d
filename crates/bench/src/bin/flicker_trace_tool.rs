//! Flight-recorder trace tool: export and profile the perf-baseline
//! flight, audit a saved flight, and re-run the farm attribution gate on
//! a saved farm flight.
//!
//! ```text
//! flicker_trace_tool export [--quick] [--format chrome|jsonl|prom]
//!                           [--out PATH] [--verify]
//! flicker_trace_tool audit --jsonl PATH
//! flicker_trace_tool attribute --from DIR
//! flicker_trace_tool flamegraph [--quick] [--format folded|chrome]
//!                               [--out PATH]
//! ```
//!
//! `export` and `flamegraph` record the perf-baseline workload (all five
//! applications) under one shared trace and render that flight; without
//! `--quick` they record the full-size flight of the committed perf
//! report. `audit` replays a JSONL flight (from `export --format jsonl`
//! or a fault-sweep violation dump) through the parser and the
//! Figure-2/§4 invariant auditor, and exits non-zero on any violation.
//! `attribute` reads a flight directory written by
//! `farm_bench --flight-dir`, breaks each request's latency into named
//! categories and exits non-zero unless every request is ≥ 99% covered,
//! every SLO holds and no stream was truncated.

use flicker_bench::baseline::{run_baseline_traced, BaselineConfig};
use flicker_bench::farmattr::{self, FarmFlight};
use flicker_bench::json;
use flicker_trace::profile as trace_profile;
use flicker_trace::{audit, export, Trace};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage("missing subcommand");
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "export" => cmd_export(&args),
        "audit" => cmd_audit(&args),
        "attribute" => cmd_attribute(&args),
        "flamegraph" => cmd_flamegraph(&args),
        other => usage(&format!("unknown subcommand {other:?}")),
    }
}

/// Prints `err` and the usage line. The exit code, 2, tells an argument
/// error apart from a failed gate's 1.
fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: flicker_trace_tool <subcommand> [options]\n\
         \n\
         subcommands:\n\
         \x20 export     [--quick] [--format chrome|jsonl|prom] [--out PATH] [--verify]\n\
         \x20 audit      --jsonl PATH\n\
         \x20 attribute  --from DIR\n\
         \x20 flamegraph [--quick] [--format folded|chrome] [--out PATH]"
    );
    ExitCode::from(2)
}

fn record_flight(quick: bool) -> Trace {
    eprintln!(
        "recording flight: all five applications{}",
        if quick { " (quick)" } else { "" }
    );
    let config = if quick {
        BaselineConfig::quick()
    } else {
        BaselineConfig::full()
    };
    run_baseline_traced(&config).1
}

// ----- export ---------------------------------------------------------------

fn cmd_export(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut format = String::from("chrome");
    let mut out: Option<String> = None;
    let mut verify = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--verify" => verify = true,
            "--format" => match it.next() {
                Some(f) => format = f.clone(),
                None => return usage("--format needs chrome|jsonl|prom"),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage("--out needs a path"),
            },
            other => return usage(&format!("unknown export argument {other:?}")),
        }
    }
    let render: fn(&Trace) -> String = match format.as_str() {
        "chrome" => export::chrome_trace_json,
        "jsonl" => export::events_jsonl,
        "prom" => export::prometheus_text,
        other => return usage(&format!("unknown format {other:?}")),
    };
    let trace = record_flight(quick);
    let text = render(&trace);
    if verify {
        if let Err(e) = verify_export(&format, &text, &trace) {
            eprintln!("export self-check failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("export self-check passed ({format})");
    }
    write_out(out, &text)
}

/// Writes `text` to the `--out` path, or to stdout without one.
fn write_out(out: Option<String>, text: &str) -> ExitCode {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path} ({} bytes)", text.len());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// Smoke-checks an exported document: it must parse in its own format and
/// agree with the trace it came from.
fn verify_export(format: &str, text: &str, trace: &Trace) -> Result<(), String> {
    match format {
        "chrome" => {
            let doc = json::parse(text).map_err(|e| format!("chrome JSON invalid: {e}"))?;
            let events = doc
                .get("traceEvents")
                .and_then(json::Value::as_array)
                .ok_or("traceEvents missing")?;
            if events.is_empty() {
                return Err("no trace events".into());
            }
            Ok(())
        }
        "jsonl" => {
            let events = export::parse_events_jsonl(text)?;
            if events.len() != trace.event_count() {
                return Err(format!(
                    "round-trip lost events: {} != {}",
                    events.len(),
                    trace.event_count()
                ));
            }
            Ok(())
        }
        "prom" => {
            if !text.lines().any(|l| l.starts_with("# TYPE flicker_")) {
                return Err("no flicker_* metric families".into());
            }
            Ok(())
        }
        other => Err(format!("unknown format {other:?}")),
    }
}

// ----- audit ----------------------------------------------------------------

/// Replays a saved JSONL flight through the parser and the auditor. The
/// file is taken at face value: its writer refuses to export a truncated
/// stream.
fn cmd_audit(args: &[String]) -> ExitCode {
    let path = match args {
        [flag, path] if flag == "--jsonl" => path,
        _ => return usage("audit takes --jsonl PATH"),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match export::parse_events_jsonl(&text) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let violations = audit::audit_events(&events);
    if violations.is_empty() {
        println!(
            "audit clean: {} events satisfy every Figure-2/§4 invariant",
            events.len()
        );
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("VIOLATION {v}");
    }
    eprintln!("audit verdict: {} violation(s)", violations.len());
    ExitCode::FAILURE
}

// ----- attribute ------------------------------------------------------------

/// Re-runs the farm attribution and SLO gates on a flight directory that
/// `farm_bench --flight-dir` wrote.
fn cmd_attribute(args: &[String]) -> ExitCode {
    let dir = match args {
        [flag, dir] if flag == "--from" => dir,
        _ => return usage("attribute takes --from DIR"),
    };
    let flight = match FarmFlight::read(Path::new(dir)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let policy = farmattr::default_slo_policy();
    let (attr, slo) = farmattr::evaluate(&flight, &policy);
    farmattr::print_summary(&attr, &slo);
    let failures = farmattr::gate(&flight, &attr, &slo);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ATTRIBUTION GATE: {f}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "attribution gate passed: every request ≥ {:.0}% covered, SLOs held, \
         streams complete",
        farmattr::MIN_COVERAGE * 100.0
    );
    ExitCode::SUCCESS
}

// ----- flamegraph ---------------------------------------------------------

/// The 1 % gate: collapsed-stack weights must sum back to the profile's
/// inclusive total, and the merged session root must carry the sessions'
/// reported latency.
fn reconcile(profile: &trace_profile::Profile) -> Result<(), String> {
    let folded: u64 = profile.folded_weights().values().sum();
    let total = profile.total().as_nanos() as u64;
    if total == 0 {
        return Err("profile recorded no time".into());
    }
    let err = (total.abs_diff(folded)) as f64 / total as f64;
    if err > 0.01 {
        return Err(format!(
            "folded weights sum to {folded} ns vs profile total {total} ns \
             ({:.2}% off, gate is 1%)",
            err * 100.0
        ));
    }
    if profile.session_total().is_zero() {
        return Err("no session windows in the profile".into());
    }
    Ok(())
}

fn cmd_flamegraph(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut format = String::from("folded");
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--format" => match it.next() {
                Some(f) => format = f.clone(),
                None => return usage("--format needs folded|chrome"),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage("--out needs a path"),
            },
            other => return usage(&format!("unknown flamegraph argument {other:?}")),
        }
    }

    let render: fn(&trace_profile::Profile) -> String = match format.as_str() {
        "folded" => trace_profile::Profile::folded,
        "chrome" => trace_profile::Profile::to_chrome_json,
        other => return usage(&format!("unknown flamegraph format {other:?}")),
    };
    let profile = trace_profile::build(&record_flight(quick));
    if let Err(e) = reconcile(&profile) {
        eprintln!("FLAMEGRAPH GATE: {e}");
        return ExitCode::FAILURE;
    }
    let text = render(&profile);
    write_out(out, &text)
}
