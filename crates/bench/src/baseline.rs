//! The perf-baseline harness: traced end-to-end runs of the paper's §6
//! applications, aggregated into a machine-readable latency baseline.
//!
//! One [`Trace`] is threaded through every platform (machine, TPM, network
//! link), so a single run yields:
//!
//! * **per-phase** latency percentiles over every Flicker session (the six
//!   Figure-2 phase spans the recorder folds from `run_session`'s phase
//!   events),
//! * **per-TPM-ordinal** command latency percentiles (`tpm.TPM_*`
//!   histograms folded from the TPM's `tpm_command` events),
//! * **per-application** end-to-end iteration latency, and
//! * every counter the tracer collected (retries, DEV ops, zeroized bytes),
//!   and
//! * the profile fields ([`crate::profile::fields`]): where the virtual
//!   time went, as folded stacks and their shares of the total.
//!
//! The report is emitted as `BENCH_perf_baseline.json` with schema
//! [`SCHEMA`]; [`validate`] checks a parsed document against that schema so
//! CI can reject a malformed or under-sampled baseline, and
//! [`audit_flight`] replays the run's flight record through the auditor.

use crate::json::Value;
use crate::profile::MAX_RECONCILIATION_ERROR;
use crate::{eval_os, provisioned_eval_os};
use flicker_apps::{drivers, known_good_hash, Administrator, AppKind, SshClient};
use flicker_core::PHASE_SPAN_NAMES;
use flicker_crypto::rng::XorShiftRng;
use flicker_os::{NetLink, Os};
use flicker_trace::{audit, DurationHistogram, Trace};
use std::collections::BTreeMap;
use std::time::Duration;

/// Schema identifier stamped into (and required of) every baseline file.
pub const SCHEMA: &str = "flicker-perf-baseline/v2";

/// A full (non-quick) baseline must cover at least this many sessions.
pub const MIN_FULL_SESSIONS: u64 = 200;

/// Sessions one iteration of each application contributes: rootkit 1,
/// ssh 2 (setup + login), distcomp 2 (start + slice), ca 2 (init + sign),
/// storage 3 (init + update + read).
pub const SESSIONS_PER_ITERATION: u64 = 1 + 2 + 2 + 2 + 3;

/// The storage workload's PAL identity and NV index (distinct from any
/// test's or the fault sweep's).
const STORAGE_PAL: &[u8] = b"baseline-storage-pal";
const BASELINE_NV_INDEX: u32 = 0x0001_5000;

const SSH_PASSWORD: &[u8] = b"baseline-hunter2";

/// How much work to run.
#[derive(Debug, Clone, Copy)]
pub struct BaselineConfig {
    /// End-to-end iterations per application.
    pub iterations_per_app: usize,
    /// Marks the emitted report as a quick run (exempt from
    /// [`MIN_FULL_SESSIONS`]).
    pub quick: bool,
}

impl BaselineConfig {
    /// The committed-artifact configuration: 25 iterations × 10 sessions
    /// per iteration = 250 sessions, comfortably over [`MIN_FULL_SESSIONS`].
    pub fn full() -> BaselineConfig {
        BaselineConfig {
            iterations_per_app: 25,
            quick: false,
        }
    }

    /// The CI smoke configuration (~20 sessions).
    pub fn quick() -> BaselineConfig {
        BaselineConfig {
            iterations_per_app: 2,
            quick: true,
        }
    }
}

/// Runs every application workload under one shared trace and returns the
/// aggregated report document.
pub fn run_baseline(cfg: &BaselineConfig) -> Value {
    run_baseline_traced(cfg).0
}

/// Like [`run_baseline`], but also returns the shared [`Trace`] — the
/// flight record the trace tool exports and the invariant auditor replays.
pub fn run_baseline_traced(cfg: &BaselineConfig) -> (Value, Trace) {
    let trace = Trace::new();
    // Raw per-app iteration latencies, kept alongside the trace's
    // log-bucketed histograms: percentiles over a few dozen samples need
    // exact nearest-rank math, not ~6 % bucket midpoints (which collapse
    // p50/p95/p99 into one value for the low-variance apps).
    let mut samples: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
    samples.insert("app.rootkit", run_rootkit(&trace, cfg.iterations_per_app));
    samples.insert("app.ssh", run_ssh(&trace, cfg.iterations_per_app));
    samples.insert("app.distcomp", run_distcomp(&trace, cfg.iterations_per_app));
    samples.insert("app.ca", run_ca(&trace, cfg.iterations_per_app));
    samples.insert("app.storage", run_storage(&trace, cfg.iterations_per_app));
    let doc = report(cfg, &trace, &samples);
    (doc, trace)
}

// ---------------------------------------------------------------------------
// Workloads: the shared §6 drivers on a healthy platform, so every protocol
// step must succeed.
// ---------------------------------------------------------------------------

/// Virtual-clock stopwatch around one application iteration, which must
/// succeed. The latency goes into the trace's histogram (for exporters)
/// *and* comes back raw, so the report can compute exact percentiles.
fn timed_iteration(
    trace: &Trace,
    app: &'static str,
    os: &mut Os,
    f: impl FnOnce(&mut Os) -> Result<(), String>,
) -> Duration {
    let t0 = os.machine().clock().now();
    if let Err(e) = f(os) {
        assert!(
            !crate::vm_safety_fault(&e),
            "verified session hit a VM safety fault: {e}"
        );
        panic!("{app} failed: {e}");
    }
    let dt = os.machine().clock().now() - t0;
    trace.observe(app, dt);
    dt
}

fn run_rootkit(trace: &Trace, iterations: usize) -> Vec<Duration> {
    let (mut os, cert, ca_public) = provisioned_eval_os(11);
    os.set_tracer(trace.clone());
    let mut link = NetLink::paper_verifier_link(11);
    link.set_tracer(trace.clone());
    link.set_clock(os.clock());
    let mut admin = Administrator::new(ca_public, known_good_hash(&os), link);
    // Alternate native / verified-bytecode detectors so the baseline also
    // covers PalVM sessions end to end.
    (0..iterations)
        .map(|i| {
            timed_iteration(trace, "app.rootkit", &mut os, |os| {
                drivers::rootkit(os, &mut admin, &cert, !i.is_multiple_of(2))
            })
        })
        .collect()
}

fn run_ssh(trace: &Trace, iterations: usize) -> Vec<Duration> {
    let (mut os, cert, ca_public) = provisioned_eval_os(12);
    os.set_tracer(trace.clone());
    let mut link = NetLink::paper_verifier_link(12);
    link.set_tracer(trace.clone());
    link.set_clock(os.clock());
    let mut client = SshClient::new(ca_public);
    let mut rng = XorShiftRng::new(0xBA5E_55E8);
    // Each connection gets a fresh server, as each regenerates its session
    // keypair (the Figure-9a workload).
    (0..iterations)
        .map(|_| {
            timed_iteration(trace, "app.ssh", &mut os, |os| {
                drivers::ssh(os, &mut link, &mut client, &cert, SSH_PASSWORD, &mut rng)
            })
        })
        .collect()
}

fn run_distcomp(trace: &Trace, iterations: usize) -> Vec<Duration> {
    let mut os = eval_os(13);
    os.set_tracer(trace.clone());
    (0..iterations)
        .map(|_| timed_iteration(trace, "app.distcomp", &mut os, drivers::distcomp))
        .collect()
}

fn run_ca(trace: &Trace, iterations: usize) -> Vec<Duration> {
    let mut os = eval_os(14);
    os.set_tracer(trace.clone());
    let mut rng = XorShiftRng::new(0xBA5E_00CA);
    (0..iterations)
        .map(|_| {
            timed_iteration(trace, "app.ca", &mut os, |os| {
                drivers::ca(os, "baseline.corp.example", &mut rng)
            })
        })
        .collect()
}

fn run_storage(trace: &Trace, iterations: usize) -> Vec<Duration> {
    let mut os = eval_os(15);
    os.set_tracer(trace.clone());
    (0..iterations)
        .map(|_| {
            timed_iteration(trace, "app.storage", &mut os, |os| {
                drivers::storage(os, STORAGE_PAL, BASELINE_NV_INDEX, &mut None)
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Aggregation and schema.
// ---------------------------------------------------------------------------

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn hist_value(h: &DurationHistogram) -> Value {
    let (p50, p95, p99) = h.percentiles();
    Value::Object(BTreeMap::from([
        ("count".into(), Value::Number(h.count() as f64)),
        ("p50_ms".into(), Value::Number(ms(p50))),
        ("p95_ms".into(), Value::Number(ms(p95))),
        ("p99_ms".into(), Value::Number(ms(p99))),
        ("mean_ms".into(), Value::Number(ms(h.mean()))),
        ("min_ms".into(), Value::Number(ms(h.min()))),
        ("max_ms".into(), Value::Number(ms(h.max()))),
    ]))
}

/// Exact stats over raw samples — same keys as [`hist_value`], but with
/// nearest-rank percentiles instead of log-bucket midpoints (which made
/// p50 == p95 == p99 for every low-variance app).
fn sample_value(samples: &[Duration]) -> Value {
    let (p50, p95, p99) = crate::percentiles(samples);
    let n = samples.len().max(1) as u32;
    let mean = samples.iter().sum::<Duration>() / n;
    let min = samples.iter().min().copied().unwrap_or_default();
    let max = samples.iter().max().copied().unwrap_or_default();
    Value::Object(BTreeMap::from([
        ("count".into(), Value::Number(samples.len() as f64)),
        ("p50_ms".into(), Value::Number(ms(p50))),
        ("p95_ms".into(), Value::Number(ms(p95))),
        ("p99_ms".into(), Value::Number(ms(p99))),
        ("mean_ms".into(), Value::Number(ms(mean))),
        ("min_ms".into(), Value::Number(ms(min))),
        ("max_ms".into(), Value::Number(ms(max))),
    ]))
}

/// Folds the aggregated trace into the report document.
fn report(
    cfg: &BaselineConfig,
    trace: &Trace,
    samples: &BTreeMap<&'static str, Vec<Duration>>,
) -> Value {
    let sessions = trace.spans_named(flicker_trace::phases::SUSPEND).len() as u64;

    let mut phases = BTreeMap::new();
    for name in PHASE_SPAN_NAMES {
        let mut h = DurationHistogram::default();
        for span in trace.spans_named(name) {
            h.observe(span.duration.unwrap_or(Duration::ZERO));
        }
        phases.insert(name.to_string(), hist_value(&h));
    }

    let mut apps = BTreeMap::new();
    for (name, s) in samples {
        let app = name.strip_prefix("app.").unwrap_or(name);
        apps.insert(app.to_string(), sample_value(s));
    }
    let mut tpm = BTreeMap::new();
    let mut ops = BTreeMap::new();
    for (name, h) in trace.histograms() {
        if name.starts_with("app.") {
            // Covered exactly by the raw samples above.
        } else if name.starts_with("tpm.TPM_") {
            tpm.insert(name, hist_value(&h));
        } else {
            ops.insert(name, hist_value(&h));
        }
    }

    let counters: BTreeMap<String, Value> = trace
        .counters()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::Number(v as f64)))
        .collect();

    let mut doc = BTreeMap::from([
        ("schema".into(), Value::String(SCHEMA.into())),
        ("quick".into(), Value::Bool(cfg.quick)),
        (
            "iterations_per_app".into(),
            Value::Number(cfg.iterations_per_app as f64),
        ),
        ("sessions".into(), Value::Number(sessions as f64)),
        ("apps".into(), Value::Object(apps)),
        ("phases".into(), Value::Object(phases)),
        ("tpm".into(), Value::Object(tpm)),
        ("ops".into(), Value::Object(ops)),
        ("counters".into(), Value::Object(counters)),
    ]);
    doc.extend(crate::profile::fields(trace));
    Value::Object(doc)
}

fn check_stats(doc: &Value, section: &str, key: &str) -> Result<u64, String> {
    let entry = doc
        .get(section)
        .and_then(|s| s.get(key))
        .ok_or_else(|| format!("{section}.{key} missing"))?;
    let count = entry
        .get("count")
        .and_then(Value::as_number)
        .ok_or_else(|| format!("{section}.{key}.count missing"))?;
    if count < 1.0 {
        return Err(format!("{section}.{key} has no samples"));
    }
    let mut last = 0.0f64;
    for stat in ["p50_ms", "p95_ms", "p99_ms"] {
        let v = entry
            .get(stat)
            .and_then(Value::as_number)
            .ok_or_else(|| format!("{section}.{key}.{stat} missing"))?;
        if !v.is_finite() || v < last {
            return Err(format!("{section}.{key}.{stat} = {v} not monotone"));
        }
        last = v;
    }
    Ok(count as u64)
}

/// Validates a parsed baseline document against [`SCHEMA`]. Returns the
/// session count on success.
pub fn validate(doc: &Value) -> Result<u64, String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("schema field missing")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let quick = doc
        .get("quick")
        .and_then(Value::as_bool)
        .ok_or("quick field missing")?;
    let sessions = doc
        .get("sessions")
        .and_then(Value::as_number)
        .ok_or("sessions field missing")? as u64;
    if !quick && sessions < MIN_FULL_SESSIONS {
        return Err(format!(
            "full baseline covers only {sessions} sessions (need {MIN_FULL_SESSIONS})"
        ));
    }
    for app in AppKind::ALL {
        check_stats(doc, "apps", app.name())?;
    }
    for phase in PHASE_SPAN_NAMES {
        let count = check_stats(doc, "phases", phase)?;
        if count != sessions {
            return Err(format!(
                "phases.{phase} has {count} samples for {sessions} sessions"
            ));
        }
    }
    let tpm = doc
        .get("tpm")
        .and_then(Value::as_object)
        .ok_or("tpm section missing")?;
    if tpm.is_empty() {
        return Err("tpm section has no ordinals".into());
    }
    let ordinals: Vec<String> = tpm.keys().cloned().collect();
    for ordinal in &ordinals {
        if !ordinal.starts_with("tpm.TPM_") {
            return Err(format!("tpm section key {ordinal:?} is not an ordinal"));
        }
        check_stats(doc, "tpm", ordinal)?;
    }
    doc.get("counters")
        .and_then(Value::as_object)
        .ok_or("counters section missing")?;

    let num = |key: &str| {
        doc.get(key)
            .and_then(Value::as_number)
            .ok_or_else(|| format!("{key} missing or not a number"))
    };
    for key in ["total_ms", "session_total_ms"] {
        let v = num(key)?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("{key} = {v} (no recorded time)"));
        }
    }
    let recon = num("reconciliation_error")?;
    if !(0.0..=MAX_RECONCILIATION_ERROR).contains(&recon) {
        return Err(format!(
            "reconciliation error {recon} exceeds {MAX_RECONCILIATION_ERROR}"
        ));
    }
    let stacks = doc
        .get("stacks")
        .and_then(Value::as_object)
        .ok_or("stacks section missing")?;
    if stacks.is_empty() {
        return Err("stacks section is empty".into());
    }
    let mut share_sum = 0.0;
    for (path, entry) in stacks {
        let share = entry
            .get("share")
            .and_then(Value::as_number)
            .ok_or_else(|| format!("stacks[{path:?}].share missing"))?;
        if !(0.0..=1.0).contains(&share) {
            return Err(format!("stacks[{path:?}].share = {share} out of range"));
        }
        share_sum += share;
    }
    // Shares sum to 1 minus the clamping loss — already bounded above.
    if !((1.0 - MAX_RECONCILIATION_ERROR)..=1.0 + 1e-9).contains(&share_sum) {
        return Err(format!(
            "stack shares sum to {share_sum:.4}, not ~1 (weights don't \
             reconcile with the profile total)"
        ));
    }
    Ok(sessions)
}

/// The runner's audit step: replays the whole flight record through the
/// truncation-aware auditor ([`audit::audit_trace`]). A flight that broke
/// a Figure-2/§4 invariant, or that the ring buffer could not hold (an
/// `Inconclusive` verdict), is an error naming the verdict and its first
/// violation. Returns the number of events audited.
pub fn audit_flight(trace: &Trace) -> Result<usize, String> {
    let verdict = audit::audit_trace(trace);
    if verdict.is_clean() {
        return Ok(trace.event_count());
    }
    let mut msg = format!("trace audit {verdict}");
    if let Some(first) = verdict.violations().first() {
        msg.push_str(&format!("; first: {first}"));
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn quick_baseline_is_schema_valid_and_round_trips() {
        let cfg = BaselineConfig::quick();
        let doc = run_baseline(&cfg);
        let sessions = validate(&doc).expect("quick baseline validates");
        assert_eq!(
            sessions,
            cfg.iterations_per_app as u64 * SESSIONS_PER_ITERATION
        );

        // The emitted text parses back to the same document and still
        // validates — what `perf_baseline --check` relies on.
        let back = json::parse(&doc.to_pretty()).expect("emitted JSON parses");
        assert_eq!(back, doc);
        validate(&back).expect("round-tripped baseline validates");

        // The paper's dominant cost must be visible: a quote-bearing
        // ordinal with ~900 ms latency.
        let quote = doc
            .get("tpm")
            .and_then(|t| t.get("tpm.TPM_Quote"))
            .expect("quote ordinal present");
        let p50 = quote.get("p50_ms").and_then(Value::as_number).unwrap();
        assert!(p50 > 500.0, "TPM_Quote p50 {p50} ms implausibly fast");
    }

    #[test]
    fn validate_rejects_corruptions() {
        let cfg = BaselineConfig::quick();
        let doc = run_baseline(&cfg);

        let corrupt = |f: &dyn Fn(&mut BTreeMap<String, Value>)| {
            let Value::Object(mut map) = doc.clone() else {
                unreachable!()
            };
            f(&mut map);
            Value::Object(map)
        };

        // Wrong schema string.
        let bad = corrupt(&|m| {
            m.insert("schema".into(), Value::String("nope/v0".into()));
        });
        assert!(validate(&bad).is_err());

        // A full run with too few sessions.
        let bad = corrupt(&|m| {
            m.insert("quick".into(), Value::Bool(false));
        });
        assert!(validate(&bad).unwrap_err().contains("200"));

        // A missing application.
        let bad = corrupt(&|m| {
            let Some(Value::Object(apps)) = m.get_mut("apps") else {
                unreachable!()
            };
            apps.remove("ssh");
        });
        assert!(validate(&bad).unwrap_err().contains("apps.ssh"));

        // Phase sample count disagreeing with the session count.
        let bad = corrupt(&|m| {
            m.insert("sessions".into(), Value::Number(9999.0));
        });
        assert!(validate(&bad).is_err());

        // Profile weights that no longer reconcile.
        let bad = corrupt(&|m| {
            m.insert("reconciliation_error".into(), Value::Number(0.02));
        });
        assert!(validate(&bad).unwrap_err().contains("reconciliation"));

        // A vanished stack breaks the share sum.
        let bad = corrupt(&|m| {
            let Some(Value::Object(stacks)) = m.get_mut("stacks") else {
                unreachable!()
            };
            let heaviest = stacks
                .iter()
                .max_by(|a, b| {
                    let s = |e: &Value| e.get("share").and_then(Value::as_number).unwrap_or(0.0);
                    s(a.1).total_cmp(&s(b.1))
                })
                .map(|(k, _)| k.clone())
                .unwrap();
            stacks.remove(&heaviest);
        });
        assert!(validate(&bad).unwrap_err().contains("shares sum"));

        // A profile with no time at all.
        let bad = corrupt(&|m| {
            m.remove("total_ms");
        });
        assert!(validate(&bad).unwrap_err().contains("total_ms"));
    }

    #[test]
    fn folded_views_survive_eviction() {
        // The same flight through the default ring and through one too
        // small to hold it. The recorder folds spans, `tpm.*` histograms
        // and the event-mirroring counters at record time, so the small
        // ring's drops must not show in any of them.
        let views = |capacity: Option<usize>| {
            let trace = Trace::new();
            if let Some(c) = capacity {
                trace.set_event_capacity(c);
            }
            run_storage(&trace, 1);
            let tpm: Vec<_> = trace
                .histograms()
                .into_iter()
                .filter(|(name, _)| name.starts_with("tpm."))
                .map(|(name, h)| (name, h.count(), h.sum(), h.min(), h.max()))
                .collect();
            let counters: Vec<u64> = [
                "dev.protect",
                "dev.release",
                "mem.zeroize_bytes",
                "os.suspend",
                "os.resume",
            ]
            .iter()
            .map(|c| trace.counter(c))
            .collect();
            (trace.dropped_events(), trace.spans(), tpm, counters)
        };
        let (dropped, spans, tpm, counters) = views(None);
        let (small_dropped, small_spans, small_tpm, small_counters) = views(Some(8));
        assert_eq!(dropped, 0);
        assert!(small_dropped > 0);
        assert!(spans.iter().all(|s| s.duration.is_some()) && !tpm.is_empty());
        assert!(counters.iter().all(|&c| c > 0), "{counters:?}");
        assert_eq!(small_spans, spans);
        assert_eq!(small_tpm, tpm);
        assert_eq!(small_counters, counters);
    }

    #[test]
    fn a_truncated_flight_fails_the_audit_step() {
        let roomy = Trace::new();
        run_storage(&roomy, 1);
        assert_eq!(audit_flight(&roomy), Ok(roomy.event_count()));

        // The same flight through a ring too small to hold it: what is
        // left replays clean, so only truncation awareness can fail it.
        let small = Trace::new();
        small.set_event_capacity(8);
        run_storage(&small, 1);
        assert!(small.dropped_events() > 0);
        assert!(audit::audit_events(&small.events()).is_empty());
        let err = audit_flight(&small).unwrap_err();
        assert!(err.contains("inconclusive"), "{err}");
    }

    #[test]
    fn quick_baseline_trace_exports_and_audits_clean() {
        use flicker_trace::{export, DROPPED_EVENTS_COUNTER};

        let cfg = BaselineConfig::quick();
        let (doc, trace) = run_baseline_traced(&cfg);
        validate(&doc).expect("traced quick baseline validates");

        // Chrome trace_event export of the full five-app run is schema-
        // checked: a JSON object with displayTimeUnit and non-empty
        // traceEvents, each a complete ("X") or instant ("i") event
        // carrying a name and timestamp.
        let chrome = json::parse(&export::chrome_trace_json(&trace))
            .expect("chrome trace export is valid JSON");
        assert_eq!(
            chrome.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
        let trace_events = chrome
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!trace_events.is_empty());
        for te in trace_events {
            let ph = te.get("ph").and_then(Value::as_str).expect("ph field");
            assert!(ph == "X" || ph == "i", "unexpected phase type {ph:?}");
            assert!(te.get("name").and_then(Value::as_str).is_some());
            assert!(te.get("ts").and_then(Value::as_number).is_some());
        }

        // The JSONL dump round-trips losslessly.
        let events = export::parse_events_jsonl(&export::events_jsonl(&trace))
            .expect("jsonl export parses back");
        assert_eq!(events.len(), trace.event_count());

        // The acceptance bar: every application's normal sessions replay
        // through the auditor with zero invariant violations, and the
        // quick run fits the ring buffer (nothing dropped).
        assert_eq!(audit_flight(&trace), Ok(events.len()));
        assert_eq!(trace.counter(DROPPED_EVENTS_COUNTER), 0);
    }
}
