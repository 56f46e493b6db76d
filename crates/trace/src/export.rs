//! Render a [`Trace`] in formats external tools understand.
//!
//! Three exporters, all hand-rolled (the workspace is dependency-free):
//!
//! * [`chrome_trace_json`] — Chrome `trace_event` JSON. Completed spans
//!   become `ph:"X"` complete events, flight-recorder events become
//!   `ph:"i"` instants; load the file at `chrome://tracing` or in Perfetto.
//! * [`events_jsonl`] — one JSON object per line per flight-recorder event;
//!   [`parse_events_jsonl`] reads the same format back, which is how
//!   `flicker_trace_tool audit --jsonl` replays saved recordings.
//! * [`prometheus_text`] — Prometheus text exposition of counters (as
//!   `_total`) and histograms (cumulative `le` buckets in seconds).

use crate::event::fields_object;
use crate::{escape_json, Event, Trace};
use std::fmt::Write as _;
use std::time::Duration;

/// Microseconds with fractional part, the unit `trace_event` expects.
fn us(d: Duration) -> String {
    let ns = d.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders completed spans and flight-recorder events as Chrome
/// `trace_event` JSON (the object form: `{"traceEvents":[...]}`).
///
/// Spans still open at export time are skipped — they have no duration and
/// `ph:"X"` requires one. Everything lands on `pid` 1 / `tid` 1 so the
/// Figure-2 phase nesting renders as a single flame.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut entries: Vec<String> = Vec::new();
    for span in trace.spans() {
        let Some(duration) = span.duration else {
            continue;
        };
        let mut name = String::new();
        escape_json(span.name, &mut name);
        entries.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"span\",\"pid\":1,\"tid\":1,\
             \"ts\":{},\"dur\":{},\"args\":{}}}",
            us(span.start),
            us(duration),
            fields_object(None, span.ctx),
        ));
    }
    for event in trace.events() {
        entries.push(format!(
            "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"event\",\"pid\":1,\"tid\":1,\
             \"ts\":{},\"s\":\"t\",\"args\":{}}}",
            event.kind.name(),
            us(event.at),
            fields_object(Some(&event.kind), event.ctx),
        ));
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Serializes the flight-recorder event stream as JSONL, oldest first.
pub fn events_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for event in trace.events() {
        out.push_str(&event.to_jsonl());
        out.push('\n');
    }
    out
}

/// Parses text produced by [`events_jsonl`] back into events. Blank lines
/// are skipped; any malformed line fails the whole parse with its line
/// number, because a silently truncated flight record would corrupt audits.
pub fn parse_events_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Event::from_jsonl(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(event);
    }
    Ok(events)
}

/// Maps a trace metric name to a Prometheus-legal one: lowercased,
/// non-alphanumerics collapsed to `_`, prefixed `flicker_`.
fn metric_name(name: &str) -> String {
    let mut out = String::from("flicker_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    out
}

/// Seconds with enough digits to round-trip nanosecond-granular bounds.
fn secs(d: Duration) -> String {
    if d == Duration::from_nanos(u64::MAX) {
        return "+Inf".to_string();
    }
    let s = format!("{:.9}", d.as_secs_f64());
    let trimmed = s.trim_end_matches('0');
    let trimmed = trimmed.strip_suffix('.').unwrap_or(trimmed);
    trimmed.to_string()
}

/// Renders counters and histograms in the Prometheus text exposition
/// format: counters as `<name>_total`, histograms as `<name>_seconds` with
/// cumulative `le` buckets derived from
/// [`DurationHistogram::nonzero_buckets`](crate::DurationHistogram::nonzero_buckets).
pub fn prometheus_text(trace: &Trace) -> String {
    let mut out = String::new();
    for (name, value) in trace.counters() {
        let metric = metric_name(name);
        let _ = writeln!(
            out,
            "# HELP {metric}_total Monotonic flight-recorder count of {name} events."
        );
        let _ = writeln!(out, "# TYPE {metric}_total counter");
        let _ = writeln!(out, "{metric}_total {value}");
    }
    for (name, hist) in trace.histograms() {
        let metric = format!("{}_seconds", metric_name(&name));
        let _ = writeln!(
            out,
            "# HELP {metric} Virtual-clock latency distribution of {name}."
        );
        let _ = writeln!(out, "# TYPE {metric} histogram");
        let mut cumulative = 0u64;
        for (_low, high, count) in hist.nonzero_buckets() {
            cumulative += count;
            let _ = writeln!(out, "{metric}_bucket{{le=\"{}\"}} {cumulative}", secs(high));
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{metric}_sum {}", secs(hist.sum()));
        let _ = writeln!(out, "{metric}_count {}", hist.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{phases, EventKind};

    fn sample_trace() -> Trace {
        let t = Trace::new();
        let phase = |at, kind| t.event(Duration::from_micros(at), kind);
        phase(10, EventKind::PhaseStart { name: phases::PAL });
        phase(250, EventKind::PhaseEnd { name: phases::PAL });
        phase(
            300,
            EventKind::PhaseStart {
                name: phases::CLEANUP,
            },
        );
        t.counter_add("tpm.retry", 3);
        for (at, dur_ns) in [(42, 20_000_000), (45, 21_000_000)] {
            phase(
                at,
                EventKind::TpmCommand {
                    ordinal: "TPM_Seal".into(),
                    locality: 0,
                    dur_ns,
                },
            );
        }
        phase(50, EventKind::OsResume);
        t
    }

    #[test]
    fn chrome_trace_has_complete_and_instant_events() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"phase.pal\""));
        assert!(json.contains("\"dur\":240.000"), "{json}");
        assert!(
            !json.contains("\"ph\":\"X\",\"name\":\"phase.cleanup\""),
            "open spans must be skipped: {json}"
        );
    }

    #[test]
    fn jsonl_round_trips_through_parse() {
        let t = sample_trace();
        let text = events_jsonl(&t);
        let parsed = parse_events_jsonl(&text).expect("parses");
        assert_eq!(parsed, t.events());
    }

    #[test]
    fn jsonl_parse_reports_bad_line_number() {
        let err = parse_events_jsonl("{\"at_ns\":1,\"kind\":\"os_resume\"}\nbroken\n")
            .expect_err("must fail");
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn prometheus_text_exposes_counters_and_histograms() {
        let text = prometheus_text(&sample_trace());
        assert!(text.contains("# TYPE flicker_tpm_retry_total counter"));
        assert!(text.contains("flicker_tpm_retry_total 3"));
        assert!(text.contains("# TYPE flicker_tpm_tpm_seal_seconds histogram"));
        assert!(text.contains("flicker_tpm_tpm_seal_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("flicker_tpm_tpm_seal_seconds_sum 0.041"));
        assert!(text.contains("flicker_tpm_tpm_seal_seconds_count 2"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let t = Trace::new();
        t.observe("h", Duration::from_nanos(3));
        t.observe("h", Duration::from_micros(900));
        let text = prometheus_text(&t);
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.contains("_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.last(), Some(&2));
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn metric_names_sanitize_dots_and_dashes() {
        // Real trace names mix `.` separators and `-` (e.g. ordinal or
        // span names); every exposed metric must be Prometheus-legal:
        // [a-zA-Z_:][a-zA-Z0-9_:]*.
        let t = Trace::new();
        t.counter_add("tpm.nv-write.retry", 1);
        t.counter_add("net.rtt-samples", 2);
        t.observe("phase.seal-unseal", Duration::from_micros(7));
        let text = prometheus_text(&t);
        assert!(
            text.contains("flicker_tpm_nv_write_retry_total 1"),
            "{text}"
        );
        assert!(text.contains("flicker_net_rtt_samples_total 2"), "{text}");
        assert!(
            text.contains("# TYPE flicker_phase_seal_unseal_seconds histogram"),
            "{text}"
        );
        let legal = |name: &str| {
            !name.is_empty()
                && !name.starts_with(|c: char| c.is_ascii_digit())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let metric = line
                .split([' ', '{'])
                .next()
                .expect("every sample line starts with a metric name");
            assert!(legal(metric), "illegal metric name {metric:?} in {line:?}");
        }
    }

    #[test]
    fn prometheus_scrape_format_golden() {
        // Golden test for the exact exposition text of a small trace:
        // catches accidental format drift (ordering, TYPE lines, le
        // rendering) that a contains()-based test would miss.
        let t = Trace::new();
        t.counter_add("tpm.retry", 3);
        t.observe("net.rtt", Duration::from_micros(512));
        t.observe("net.rtt", Duration::from_micros(900));
        let text = prometheus_text(&t);
        let expected = "\
# HELP flicker_tpm_retry_total Monotonic flight-recorder count of tpm.retry events.
# TYPE flicker_tpm_retry_total counter
flicker_tpm_retry_total 3
# HELP flicker_net_rtt_seconds Virtual-clock latency distribution of net.rtt.
# TYPE flicker_net_rtt_seconds histogram
flicker_net_rtt_seconds_bucket{le=\"0.000524288\"} 1
flicker_net_rtt_seconds_bucket{le=\"0.000917504\"} 2
flicker_net_rtt_seconds_bucket{le=\"+Inf\"} 2
flicker_net_rtt_seconds_sum 0.001412
flicker_net_rtt_seconds_count 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn chrome_args_are_the_jsonl_fields() {
        let t = sample_trace();
        t.set_request_ctx(Some(crate::RequestCtx {
            request: 7,
            attempt: 1,
        }));
        t.event(
            Duration::from_micros(60),
            EventKind::FaultInjected {
                fault: "odd \"name\"\n".into(),
            },
        );
        let json = chrome_trace_json(&t);
        for event in t.events() {
            let line = event.to_jsonl();
            let kind = format!("\"kind\":\"{}\"", event.kind.name());
            let fields = &line[line.find(&kind).unwrap() + kind.len()..line.len() - 1];
            let args = match fields.strip_prefix(',') {
                Some(f) => format!("\"args\":{{{f}}}"),
                None => "\"args\":{}".to_string(),
            };
            assert!(json.contains(&args), "{args} missing from {json}");
        }
    }

    #[test]
    fn chrome_args_carry_request_ctx() {
        let t = Trace::new();
        t.set_request_ctx(Some(crate::RequestCtx {
            request: 11,
            attempt: 2,
        }));
        t.event(Duration::from_micros(1), EventKind::OsSuspend);
        t.event(
            Duration::from_micros(2),
            EventKind::PhaseStart {
                name: phases::SKINIT,
            },
        );
        t.event(
            Duration::from_micros(3),
            EventKind::PhaseEnd {
                name: phases::SKINIT,
            },
        );
        let json = chrome_trace_json(&t);
        assert!(
            json.contains("\"args\":{\"req\":11,\"attempt\":2}"),
            "empty-args event must gain ctx fields: {json}"
        );
        assert!(
            json.matches("\"req\":11").count() >= 2,
            "span args must carry ctx too: {json}"
        );
    }
}
