//! Farm attribution glue: flight-record persistence, the farm's SLO
//! policy, summary rendering, the `farm_attr` trajectory extension, and
//! the CI gates over attribution quality.
//!
//! The farm layer produces the raw streams (one coordinator trace on wall
//! time, one trace per shard on its own virtual clock); the attribution
//! math lives in [`flicker_trace::attribution`]. This module owns
//! everything harness-shaped around it:
//!
//! * **Flight directories** ([`FarmFlight`]): a farm run serialized as
//!   `coordinator.jsonl`, one `machine-N.jsonl` per shard, a
//!   `requests.jsonl` with per-request outcomes, and a `meta.json`
//!   envelope — enough to re-run attribution offline
//!   (`flicker_trace_tool attribute --from DIR`) without re-driving the
//!   farm.
//! * **SLO policy** ([`default_slo_policy`]): per-workload latency
//!   budgets calibrated against the seeded fault sweep (each budget sits
//!   above the workload's observed faulted tail), with an error budget
//!   sized for the sweep's expected failure mix.
//! * **Gates** ([`gate`]): attribution must cover ≥ 99% of every
//!   request's wall time, per-request attempt walls must sum exactly to
//!   the farm's recorded latency (so the attribution and the latency
//!   percentiles describe the same quantity), streams must be complete
//!   (ring-buffer truncation fails the run), and the SLO report must hold.

use crate::json::Value;
use crate::render_table;
use flicker_farm::FarmReport;
use flicker_trace::attribution::{
    self, FarmAttribution, RequestMeta, ShardStream, SloPolicy, SloReport,
};
use flicker_trace::{export, Event};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Schema tag for a flight directory's `meta.json`. Version 2 dropped the
/// coordinator's clock-alignment anchors, so a version-1 directory is
/// refused by its tag rather than by its first unknown event.
pub const FLIGHT_SCHEMA: &str = "flicker-farm-flight/v2";

/// Attribution must account for at least this fraction of every request's
/// end-to-end wall time (the issue's acceptance bound).
pub const MIN_COVERAGE: f64 = 0.99;

/// One farm run's complete flight record, decoupled from live traces so
/// it can round-trip through a flight directory.
#[derive(Debug, Clone, Default)]
pub struct FarmFlight {
    /// Coordinator events (farm actions, wall-clock stamps).
    pub coordinator: Vec<Event>,
    /// Per-shard event streams (virtual-clock stamps).
    pub shards: Vec<ShardStream>,
    /// Request → workload metadata.
    pub meta: Vec<RequestMeta>,
    /// Per-request recorded outcome: (terminal action, latency, attempts).
    pub outcomes: BTreeMap<u64, (String, Duration, u32)>,
    /// Ring-buffer evictions summed across all traces. Nonzero means the
    /// streams are incomplete and every verdict over them is inconclusive.
    pub dropped_events: u64,
}

impl FarmFlight {
    /// Captures a completed farm run.
    pub fn from_report(report: &FarmReport) -> FarmFlight {
        let dropped_events = report.coordinator.dropped_events()
            + report
                .shards
                .iter()
                .map(|s| s.trace.dropped_events())
                .sum::<u64>();
        FarmFlight {
            coordinator: report.coordinator.events(),
            shards: report.shard_streams(),
            meta: report.request_meta(),
            outcomes: report
                .outcomes
                .iter()
                .map(|o| {
                    (
                        o.id,
                        (o.terminal.action().to_string(), o.latency, o.attempts),
                    )
                })
                .collect(),
            dropped_events,
        }
    }

    /// Runs attribution over the captured streams.
    pub fn attribution(&self) -> FarmAttribution {
        attribution::attribute(&self.coordinator, &self.shards)
    }

    /// Request ids that ran (reached a non-shed terminal).
    fn ran(&self) -> impl Iterator<Item = (&u64, &(String, Duration, u32))> {
        self.outcomes.iter().filter(|(_, (t, _, _))| t != "shed")
    }

    /// Serializes the flight into `dir` (created if missing).
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let write = |name: &str, text: String| -> Result<(), String> {
            std::fs::write(dir.join(name), text)
                .map_err(|e| format!("writing {}: {e}", dir.join(name).display()))
        };
        write("coordinator.jsonl", events_to_jsonl(&self.coordinator))?;
        for s in &self.shards {
            write(
                &format!("machine-{}.jsonl", s.machine),
                events_to_jsonl(&s.events),
            )?;
        }
        let mut requests = String::new();
        for m in &self.meta {
            let (terminal, latency, attempts) = self
                .outcomes
                .get(&m.request)
                .cloned()
                .unwrap_or_else(|| ("unknown".into(), Duration::ZERO, 0));
            let line = Value::Object(BTreeMap::from([
                ("id".into(), Value::Number(m.request as f64)),
                ("app".into(), Value::String(m.workload.clone())),
                ("terminal".into(), Value::String(terminal)),
                (
                    "latency_ns".into(),
                    Value::Number(latency.as_nanos() as f64),
                ),
                ("attempts".into(), Value::Number(attempts as f64)),
            ]));
            requests.push_str(&line.to_compact());
            requests.push('\n');
        }
        write("requests.jsonl", requests)?;
        let meta = Value::Object(BTreeMap::from([
            ("schema".into(), Value::String(FLIGHT_SCHEMA.into())),
            ("machines".into(), Value::Number(self.shards.len() as f64)),
            (
                "dropped_events".into(),
                Value::Number(self.dropped_events as f64),
            ),
        ]));
        write("meta.json", meta.to_pretty())
    }

    /// Reads a flight directory written by [`FarmFlight::write`].
    pub fn read(dir: &Path) -> Result<FarmFlight, String> {
        let read = |name: &str| -> Result<String, String> {
            std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("reading {}: {e}", dir.join(name).display()))
        };
        let meta_doc = crate::json::parse(&read("meta.json")?)?;
        let schema = meta_doc.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != FLIGHT_SCHEMA {
            return Err(format!(
                "{}: flight schema {schema:?}, expected {FLIGHT_SCHEMA:?}",
                dir.display()
            ));
        }
        let machines = meta_doc
            .get("machines")
            .and_then(Value::as_number)
            .ok_or("meta.json: machines missing")? as u64;
        let dropped_events = meta_doc
            .get("dropped_events")
            .and_then(Value::as_number)
            .unwrap_or(0.0) as u64;
        let coordinator = export::parse_events_jsonl(&read("coordinator.jsonl")?)
            .map_err(|e| format!("coordinator.jsonl: {e}"))?;
        let mut shards = Vec::new();
        for machine in 0..machines {
            let name = format!("machine-{machine}.jsonl");
            shards.push(ShardStream {
                machine,
                events: export::parse_events_jsonl(&read(&name)?)
                    .map_err(|e| format!("{name}: {e}"))?,
            });
        }
        let mut meta = Vec::new();
        let mut outcomes = BTreeMap::new();
        for (lineno, line) in read("requests.jsonl")?.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v =
                crate::json::parse(line).map_err(|e| format!("requests.jsonl:{lineno}: {e}"))?;
            let field = |k: &str| {
                v.get(k)
                    .and_then(Value::as_number)
                    .ok_or(format!("requests.jsonl:{lineno}: {k} missing"))
            };
            let id = field("id")? as u64;
            meta.push(RequestMeta {
                request: id,
                workload: v
                    .get("app")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            });
            outcomes.insert(
                id,
                (
                    v.get("terminal")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                    Duration::from_nanos(field("latency_ns")? as u64),
                    field("attempts")? as u32,
                ),
            );
        }
        Ok(FarmFlight {
            coordinator,
            shards,
            meta,
            outcomes,
            dropped_events,
        })
    }
}

fn events_to_jsonl(events: &[Event]) -> String {
    events.iter().map(|e| e.to_jsonl() + "\n").collect()
}

/// The farm's SLO policy, calibrated against the seeded fault sweep on
/// the default (Broadcom-profile) farm: each per-workload budget sits
/// roughly 2× above the workload's observed faulted p95 (retries and
/// backoff included), so a healthy farm passes with headroom and a
/// latency regression of that order trips the gate. The error budget
/// absorbs the sweep's expected hard-failure mix (schedules whose fault
/// plans are unrecoverable by design); the outlier factor flags requests
/// whose wall time blows past their workload's typical cost.
pub fn default_slo_policy() -> SloPolicy {
    let s = Duration::from_secs;
    SloPolicy {
        budgets: BTreeMap::from([
            ("rootkit".into(), s(8)),
            ("ssh".into(), s(12)),
            ("distcomp".into(), s(8)),
            ("ca".into(), s(8)),
            ("storage".into(), s(16)),
        ]),
        default_budget: s(16),
        error_budget: 0.25,
        outlier_factor: 8.0,
    }
}

/// Runs the attribution + SLO pipeline over a flight.
pub fn evaluate(flight: &FarmFlight, policy: &SloPolicy) -> (FarmAttribution, SloReport) {
    let attr = flight.attribution();
    let slo = attribution::evaluate_slo(policy, &attr, &flight.meta);
    (attr, slo)
}

/// The attribution-quality gates (issue acceptance criteria). Returns
/// every failure, so a broken run reports all of them at once.
pub fn gate(flight: &FarmFlight, attr: &FarmAttribution, slo: &SloReport) -> Vec<String> {
    let mut failures = Vec::new();
    if flight.dropped_events > 0 {
        failures.push(format!(
            "truncated streams: {} event(s) dropped — attribution and audit \
             over an incomplete flight are inconclusive",
            flight.dropped_events
        ));
    }
    for r in &attr.requests {
        if r.coverage() < MIN_COVERAGE {
            failures.push(format!(
                "request {}: only {:.4} of wall time attributed \
                 ({:?} unattributed)",
                r.request,
                r.coverage(),
                r.unattributed()
            ));
        }
    }
    for (id, (terminal, latency, _)) in flight.ran() {
        match attr.request(*id) {
            None => failures.push(format!("request {id} ({terminal}) has no attribution")),
            Some(r) if r.active() != *latency => failures.push(format!(
                "request {id}: attempt walls sum to {:?} but the farm \
                 recorded {latency:?}",
                r.active()
            )),
            Some(_) => {}
        }
    }
    for w in &slo.workloads {
        if !w.ok() {
            failures.push(format!(
                "SLO breach: {} burned {:.2}× its error budget \
                 ({}/{} requests over {:?})",
                w.workload, w.burn, w.breaches, w.requests, w.budget
            ));
        }
    }
    failures
}

/// Prints the attribution summary tables.
pub fn print_summary(attr: &FarmAttribution, slo: &SloReport) {
    let totals = attr.category_totals();
    let grand: Duration = totals.values().copied().sum();
    let mut rows: Vec<(String, Duration)> = totals.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, total)| {
            let share = if grand.is_zero() {
                0.0
            } else {
                total.as_secs_f64() / grand.as_secs_f64() * 100.0
            };
            vec![
                name.clone(),
                format!("{:.1}", total.as_secs_f64() * 1e3),
                format!("{share:.1}%"),
            ]
        })
        .collect();
    let table = render_table(
        "Latency attribution (virtual ms across all requests)",
        &["category", "total_ms", "share"],
        &rows,
    );
    print!("{table}");

    let rows: Vec<Vec<String>> = slo
        .workloads
        .iter()
        .map(|w| {
            vec![
                w.workload.clone(),
                w.requests.to_string(),
                format!("{:.0}", w.budget.as_secs_f64() * 1e3),
                w.breaches.to_string(),
                format!("{:.1}", w.worst.as_secs_f64() * 1e3),
                format!("{:.2}", w.burn),
                if w.ok() { "ok" } else { "BREACH" }.to_string(),
            ]
        })
        .collect();
    let table = render_table(
        "SLO verdicts (per workload)",
        &[
            "workload",
            "requests",
            "budget_ms",
            "breaches",
            "worst_ms",
            "burn",
            "verdict",
        ],
        &rows,
    );
    print!("{table}");
    println!(
        "\nattribution coverage: min {:.4} over {} requests \
         ({:.1} ms unattributed farm-wide)",
        attr.min_coverage(),
        attr.requests.len(),
        attr.unattributed().as_secs_f64() * 1e3
    );
    if !slo.outliers.is_empty() {
        println!("latency outliers: {:?}", slo.outliers);
    }
}

/// The `farm_attr` trajectory extension: category shares, coverage, and
/// per-workload SLO burn, flat enough for the dashboard's numeric-leaf
/// flattener.
pub fn farm_attr_value(attr: &FarmAttribution, slo: &SloReport) -> Value {
    let num = Value::Number;
    let mut cats = BTreeMap::new();
    for (name, total) in attr.category_totals() {
        cats.insert(format!("{name}_ms"), num(total.as_secs_f64() * 1e3));
    }
    let mut workloads = BTreeMap::new();
    for w in &slo.workloads {
        workloads.insert(
            w.workload.clone(),
            Value::Object(BTreeMap::from([
                ("breaches".into(), num(w.breaches as f64)),
                ("burn".into(), num(w.burn)),
                ("worst_ms".into(), num(w.worst.as_secs_f64() * 1e3)),
            ])),
        );
    }
    Value::Object(BTreeMap::from([
        ("categories".into(), Value::Object(cats)),
        ("min_coverage".into(), num(attr.min_coverage())),
        (
            "unattributed_ms".into(),
            num(attr.unattributed().as_secs_f64() * 1e3),
        ),
        ("outliers".into(), num(slo.outliers.len() as f64)),
        ("slo_ok".into(), Value::Bool(slo.ok())),
        ("workloads".into(), Value::Object(workloads)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flicker_farm::{Farm, FarmConfig, RequestSpec};

    fn small_run() -> FarmReport {
        let mut config = FarmConfig::fast_for_tests(2);
        config.queue_bound = 16;
        let farm = Farm::start(config);
        for seed in 0..6 {
            farm.submit(RequestSpec::seeded(seed));
        }
        farm.shutdown()
    }

    #[test]
    fn flight_round_trips_through_a_directory() {
        let report = small_run();
        let flight = FarmFlight::from_report(&report);
        let dir = std::env::temp_dir().join(format!("farm-flight-{}", std::process::id()));
        flight.write(&dir).expect("write flight");
        let back = FarmFlight::read(&dir).expect("read flight");
        // A line the reader rejects is named with its file, and a
        // directory of another schema version is refused by its tag.
        let coordinator = dir.join("coordinator.jsonl");
        let mut events = std::fs::read_to_string(&coordinator).unwrap();
        events.push_str("{\"at_ns\":1,\"kind\":\"anchor\",\"machine\":0,\"shard_ns\":5}\n");
        std::fs::write(&coordinator, events).unwrap();
        let bad_line = FarmFlight::read(&dir).map(|_| ()).unwrap_err();
        let meta = std::fs::read_to_string(dir.join("meta.json")).unwrap();
        let v1 = meta.replace(FLIGHT_SCHEMA, "flicker-farm-flight/v1");
        std::fs::write(dir.join("meta.json"), v1).unwrap();
        let old_schema = FarmFlight::read(&dir).map(|_| ()).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(bad_line.starts_with("coordinator.jsonl: "), "{bad_line}");
        assert!(
            old_schema.contains("\"flicker-farm-flight/v1\""),
            "{old_schema}"
        );
        assert_eq!(back.coordinator.len(), flight.coordinator.len());
        assert_eq!(back.shards.len(), flight.shards.len());
        assert_eq!(back.outcomes, flight.outcomes);
        assert_eq!(back.dropped_events, 0);
        // Attribution over the round-tripped streams is identical.
        let a = flight.attribution();
        let b = back.attribution();
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.request, y.request);
            assert_eq!(x.active(), y.active());
            assert_eq!(x.attributed(), y.attributed());
        }
    }

    #[test]
    fn gates_pass_on_a_clean_run_and_fail_on_truncation() {
        let report = small_run();
        let mut flight = FarmFlight::from_report(&report);
        let (attr, slo) = evaluate(&flight, &default_slo_policy());
        let failures = gate(&flight, &attr, &slo);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(attr.min_coverage() >= MIN_COVERAGE);

        // A truncated stream must fail the gate even though the surviving
        // events still attribute cleanly.
        flight.dropped_events = 7;
        let failures = gate(&flight, &attr, &slo);
        assert!(
            failures.iter().any(|f| f.contains("truncated")),
            "{failures:?}"
        );
    }
}
