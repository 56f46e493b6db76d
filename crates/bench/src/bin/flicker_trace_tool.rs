//! Flight-recorder trace tool: export, summarise, audit, and analyse a
//! full §6 application run's event stream.
//!
//! ```text
//! flicker_trace_tool export [--quick] [--format chrome|jsonl|prom]
//!                           [--out PATH] [--verify]
//! flicker_trace_tool summary [--quick]
//! flicker_trace_tool audit [--quick | --jsonl PATH]
//! flicker_trace_tool critical-path [--quick]
//! flicker_trace_tool attribute [--quick | --from DIR]
//! flicker_trace_tool farm-timeline [--quick | --from DIR] [--limit N]
//! flicker_trace_tool flamegraph [--quick] [--format folded|chrome]
//!                               [--out PATH] [--diff PATH]
//! ```
//!
//! `export`, `summary`, `audit` (without `--jsonl`), and `critical-path`
//! run the perf-baseline workload (all five applications) under one
//! shared trace and operate on that flight record; `audit` exits non-zero
//! if the stream breaks any of the paper's Figure-2/§4 invariants *or*
//! was truncated by ring-buffer evictions (an incomplete stream proves
//! nothing). `attribute` and `farm-timeline` operate on a *farm* flight —
//! either a fresh quick/full farm run, or a flight directory previously
//! written by `farm_bench --flight-dir` — and respectively break each
//! request's latency into named categories (gated at ≥ 99% coverage, SLO
//! enforced) and render all machines' virtual clocks merged onto the
//! coordinator's wall-time axis through anchor events.

use flicker_bench::baseline::{run_baseline_traced, BaselineConfig};
use flicker_bench::farmattr::{self, FarmFlight};
use flicker_bench::{json, render_table};
use flicker_farm::{Farm, FarmConfig, RequestSpec};
use flicker_trace::profile as trace_profile;
use flicker_trace::{audit, export, phases, DurationHistogram, Trace, DROPPED_EVENTS_COUNTER};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage("missing subcommand");
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "export" => cmd_export(&args),
        "summary" => cmd_summary(&args),
        "audit" => cmd_audit(&args),
        "critical-path" => cmd_critical_path(&args),
        "attribute" => cmd_attribute(&args),
        "farm-timeline" => cmd_farm_timeline(&args),
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
         \x20 export        [--quick] [--format chrome|jsonl|prom] [--out PATH] [--verify]\n\
         \x20 summary       [--quick]\n\
         \x20 audit         [--quick | --jsonl PATH]\n\
         \x20 critical-path [--quick]\n\
         \x20 attribute     [--quick | --from DIR]\n\
         \x20 farm-timeline [--quick | --from DIR] [--limit N]\n\
         \x20 flamegraph    [--quick] [--format folded|chrome] [--out PATH]\n\
         \x20               [--diff PATH]"
    );
    ExitCode::from(2)
}

fn config(quick: bool) -> BaselineConfig {
    if quick {
        BaselineConfig::quick()
    } else {
        BaselineConfig::full()
    }
}

fn record_flight(quick: bool) -> Trace {
    eprintln!(
        "recording flight: all five applications{}",
        if quick { " (quick)" } else { "" }
    );
    run_baseline_traced(&config(quick)).1
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
    let trace = record_flight(quick);
    let text = match format.as_str() {
        "chrome" => export::chrome_trace_json(&trace),
        "jsonl" => export::events_jsonl(&trace),
        "prom" => export::prometheus_text(&trace),
        other => return usage(&format!("unknown format {other:?}")),
    };
    if verify {
        if let Err(e) = verify_export(&format, &text, &trace) {
            eprintln!("export self-check failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("export self-check passed ({format})");
    }
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
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

// ----- summary --------------------------------------------------------------

fn cmd_summary(args: &[String]) -> ExitCode {
    let mut quick = false;
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            other => return usage(&format!("unknown summary argument {other:?}")),
        }
    }
    let trace = record_flight(quick);
    let events = trace.events();
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in &events {
        *by_kind.entry(e.kind.name()).or_insert(0) += 1;
    }
    let rows: Vec<Vec<String>> = by_kind
        .iter()
        .map(|(kind, n)| vec![kind.to_string(), n.to_string()])
        .collect();
    let table = render_table("Flight-recorder events by kind", &["kind", "count"], &rows);
    print!("{table}");
    let sessions = trace.spans_named(phases::SUSPEND).len();
    println!("\nsessions:       {sessions}");
    println!("events kept:    {}", events.len());
    println!(
        "events dropped: {} (ring-buffer evictions, `{DROPPED_EVENTS_COUNTER}`)",
        trace.counter(DROPPED_EVENTS_COUNTER)
    );
    ExitCode::SUCCESS
}

// ----- audit ----------------------------------------------------------------

fn cmd_audit(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut jsonl: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jsonl" => match it.next() {
                Some(p) => jsonl = Some(p.clone()),
                None => return usage("--jsonl needs a path"),
            },
            other => return usage(&format!("unknown audit argument {other:?}")),
        }
    }
    // A live trace knows how many events its ring buffer evicted; a JSONL
    // file is taken at face value (its writer is responsible for refusing
    // to export a truncated stream).
    let (events, dropped) = match jsonl {
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("reading {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match export::parse_events_jsonl(&text) {
                Ok(events) => (events, 0),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let trace = record_flight(quick);
            (trace.events(), trace.dropped_events())
        }
    };
    let verdict = audit::audit_events_with_drops(&events, dropped);
    if verdict.is_clean() {
        println!(
            "audit clean: {} events satisfy every Figure-2/§4 invariant",
            events.len()
        );
        return ExitCode::SUCCESS;
    }
    for v in verdict.violations() {
        eprintln!("VIOLATION {v}");
    }
    if verdict.dropped_events() > 0 {
        eprintln!(
            "stream truncated: {} event(s) evicted before the audit — the \
             verdict is inconclusive at best",
            verdict.dropped_events()
        );
    }
    eprintln!("audit verdict: {verdict}");
    ExitCode::FAILURE
}

// ----- attribute / farm-timeline --------------------------------------------

/// Obtains a farm flight: from a directory written by
/// `farm_bench --flight-dir`, or by driving a fresh farm run (2 machines
/// × 15 seeded schedules quick, 8 × 200 full — farm_bench's sizes).
fn farm_flight(quick: bool, from: Option<&str>) -> Result<FarmFlight, String> {
    if let Some(dir) = from {
        return FarmFlight::read(Path::new(dir));
    }
    let (machines, requests) = if quick { (2, 15u64) } else { (8, 200) };
    eprintln!("driving farm: {machines} machines, {requests} seeded fault schedules");
    let farm = Farm::start(FarmConfig {
        machines,
        queue_bound: requests as usize,
        ..FarmConfig::default()
    });
    for seed in 0..requests {
        farm.submit(RequestSpec::seeded(seed));
    }
    let report = farm.shutdown();
    report.verify_conservation()?;
    let findings = report.audit_shards();
    if !findings.is_empty() {
        return Err(format!("shard audit failed: {findings:?}"));
    }
    Ok(FarmFlight::from_report(&report))
}

/// Handler for subcommand-specific flags in [`flight_args`]: receives the
/// unrecognised argument plus the iterator (to consume a value).
type ExtraArg<'a, 'b> =
    &'b mut dyn FnMut(&str, &mut std::slice::Iter<'a, String>) -> Result<(), String>;

/// Parses the shared `[--quick | --from DIR]` argument pair.
fn flight_args<'a>(
    args: &'a [String],
    extra: ExtraArg<'a, '_>,
) -> Result<(bool, Option<&'a str>), String> {
    let mut quick = false;
    let mut from = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--from" => match it.next() {
                Some(dir) => from = Some(dir.as_str()),
                None => return Err("--from needs a directory".into()),
            },
            other => extra(other, &mut it)?,
        }
    }
    Ok((quick, from))
}

fn cmd_attribute(args: &[String]) -> ExitCode {
    let parsed = flight_args(args, &mut |arg, _| {
        Err(format!("unknown attribute argument {arg:?}"))
    });
    let (quick, from) = match parsed {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    let flight = match farm_flight(quick, from) {
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

fn cmd_farm_timeline(args: &[String]) -> ExitCode {
    let mut limit = 200usize;
    let parsed = flight_args(args, &mut |arg, it| match arg {
        "--limit" => match it.next().and_then(|v| v.parse().ok()) {
            Some(n) => {
                limit = n;
                Ok(())
            }
            None => Err("--limit needs a count".into()),
        },
        other => Err(format!("unknown farm-timeline argument {other:?}")),
    });
    let (quick, from) = match parsed {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    let flight = match farm_flight(quick, from) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", farmattr::render_timeline(&flight, limit));
    ExitCode::SUCCESS
}

// ----- critical-path --------------------------------------------------------

fn cmd_critical_path(args: &[String]) -> ExitCode {
    let mut quick = false;
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            other => return usage(&format!("unknown critical-path argument {other:?}")),
        }
    }
    let trace = record_flight(quick);

    // Where session wall-time goes, by Figure-2 phase.
    let mut phase_totals: Vec<(String, Duration, u64)> = Vec::new();
    let mut grand_total = Duration::ZERO;
    for name in flicker_core::PHASE_SPAN_NAMES {
        let spans = trace.spans_named(name);
        let total: Duration = spans.iter().filter_map(|s| s.duration).sum();
        grand_total += total;
        phase_totals.push((name.to_string(), total, spans.len() as u64));
    }
    phase_totals.sort_by_key(|t| std::cmp::Reverse(t.1));
    let rows: Vec<Vec<String>> = phase_totals
        .iter()
        .map(|(name, total, n)| {
            let share = if grand_total.is_zero() {
                0.0
            } else {
                total.as_secs_f64() / grand_total.as_secs_f64() * 100.0
            };
            vec![
                name.clone(),
                n.to_string(),
                format!("{:.1}", total.as_secs_f64() * 1e3),
                format!("{share:.1}%"),
            ]
        })
        .collect();
    let table = render_table(
        "Critical path: session time by phase",
        &["phase", "spans", "total_ms", "share"],
        &rows,
    );
    print!("{table}");

    // The TPM ordinals behind those phases, by total simulated time.
    let mut ordinals: Vec<(String, DurationHistogram)> = trace
        .histograms()
        .into_iter()
        .filter(|(name, _)| name.starts_with("tpm.TPM_"))
        .collect();
    ordinals.sort_by_key(|o| std::cmp::Reverse(o.1.sum()));
    let rows: Vec<Vec<String>> = ordinals
        .iter()
        .take(8)
        .map(|(name, h)| {
            vec![
                name.to_string(),
                h.count().to_string(),
                format!("{:.1}", h.sum().as_secs_f64() * 1e3),
                format!("{:.1}", h.mean().as_secs_f64() * 1e3),
            ]
        })
        .collect();
    let table = render_table(
        "Dominant TPM ordinals",
        &["ordinal", "count", "total_ms", "mean_ms"],
        &rows,
    );
    print!("{table}");
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
    let mut diff: Option<String> = None;
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
            "--diff" => match it.next() {
                Some(p) => diff = Some(p.clone()),
                None => return usage("--diff needs a folded-stacks file"),
            },
            other => return usage(&format!("unknown flamegraph argument {other:?}")),
        }
    }

    let trace = record_flight(quick);
    let profile = trace_profile::build(&trace);
    if let Err(e) = reconcile(&profile) {
        eprintln!("FLAMEGRAPH GATE: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(path) = diff {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let before = match trace_profile::parse_folded(&text) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let after = profile.folded_weights();
        let deltas = trace_profile::diff_folded(&before, &after);
        if deltas.is_empty() {
            println!("no drift: current folded stacks are identical to {path}");
            return ExitCode::SUCCESS;
        }
        let rows: Vec<Vec<String>> = deltas
            .iter()
            .take(20)
            .map(|d| {
                vec![
                    d.path.clone(),
                    format!("{:.1}", d.before as f64 / 1e6),
                    format!("{:.1}", d.after as f64 / 1e6),
                    format!("{:+.1}", d.delta() as f64 / 1e6),
                ]
            })
            .collect();
        let table = render_table(
            &format!("Folded-stack drift vs {path} (ms)"),
            &["stack", "before_ms", "after_ms", "delta_ms"],
            &rows,
        );
        print!("{table}");
        return ExitCode::SUCCESS;
    }

    let text = match format.as_str() {
        "folded" => profile.folded(),
        "chrome" => profile.to_chrome_json(),
        other => return usage(&format!("unknown flamegraph format {other:?}")),
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path} ({} bytes)", text.len());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}
