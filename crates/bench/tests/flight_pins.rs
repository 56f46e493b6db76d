//! Byte pins on the quick baseline flight's exports. The simulated clock
//! makes the flight deterministic, so each exported document must repeat
//! byte for byte: the JSONL event stream, the Prometheus text, the Chrome
//! trace, the folded stacks and the perf report. A change that is meant to
//! move one of them updates its pin here and names the cause in CHANGES.md.

use flicker_bench::baseline::{run_baseline_traced, BaselineConfig};
use flicker_crypto::{hex, sha256::sha256};
use flicker_trace::{export, profile};

/// `(artifact, byte length, SHA-256)` of each export of the quick flight.
const PINS: [(&str, usize, &str); 5] = [
    (
        "events_jsonl",
        53_086,
        "a36dbb3779829088f01d8a502782259437d14959429e35bfc68d2a24d4d34282",
    ),
    (
        "prometheus_text",
        11_930,
        "789905c225e712bc34b3c2582110902b795dc18cb24c91f08114f3a686febc7f",
    ),
    (
        "chrome_trace_json",
        109_000,
        "0805f55ae8626fdac66ec1c595352c4db784ddfcdeb0a328d24f5d7fbbeabce7",
    ),
    (
        "folded_stacks",
        894,
        "fa09387b458fea23da375866ac48b3b170f7a4fa19507ffee5cce4b8fe79b58c",
    ),
    (
        "perf_report_json",
        9_658,
        "c2741524f58dfad7f765d644396fea11fa16be0c9af8311b57f81bf24a0d25ee",
    ),
];

#[test]
fn quick_flight_exports_are_pinned() {
    let (doc, trace) = run_baseline_traced(&BaselineConfig::quick());
    let artifacts = [
        export::events_jsonl(&trace),
        export::prometheus_text(&trace),
        export::chrome_trace_json(&trace),
        profile::build(&trace).folded(),
        doc.to_pretty(),
    ];
    let mut mismatches = Vec::new();
    for ((name, len, digest), text) in PINS.iter().zip(&artifacts) {
        let got = hex::encode(&sha256(text.as_bytes()));
        if text.len() != *len || got != *digest {
            mismatches.push(format!(
                "{name}: pinned {len} bytes sha256 {digest}, got {} bytes sha256 {got}",
                text.len()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "quick-flight exports changed:\n{}",
        mismatches.join("\n")
    );
}
