//! Profile determinism and folded-stack round-trip properties.
//!
//! The profile builder promises (a) that building twice from the same
//! trace yields byte-identical artifacts — the property the perf
//! report's share-drift gate relies on — and (b) that the collapsed
//! stack text is a lossless encoding of the self-weight map: parsing
//! what `folded()` emitted reproduces `folded_weights()` exactly, for
//! *any* trace the recorder can produce, including overlapping sessions,
//! dangling spans, and events that attach to no span at all.

use flicker_trace::profile::{self, parse_folded};
use flicker_trace::{EventKind, Trace};
use proptest::prelude::*;
use std::time::Duration;

const SPAN_NAMES: [&str; 4] = ["phase.alpha", "phase.beta", "phase.gamma", "phase.delta"];
const ORDINALS: [&str; 4] = ["TPM_Seal", "TPM_Unseal", "TPM_Quote", "TPM_Extend"];

/// Replays scripted `(selector, param)` ops on a fresh trace: phase
/// starts/ends, session open/close events, and TPM commands stamped at
/// completion (as the simulated chip's drained events are).
fn build_trace(ops: &[(u8, u16)]) -> Trace {
    let trace = Trace::new();
    let mut now_ns: u64 = 0;
    let mut open_spans = Vec::new();
    let mut session_open = false;
    let mut sessions: u64 = 0;

    for &(selector, param) in ops {
        now_ns += u64::from(param % 997) + 1;
        let now = Duration::from_nanos(now_ns);
        match selector % 16 {
            0..=5 => {
                let name = SPAN_NAMES[param as usize % 4];
                trace.event(now, EventKind::PhaseStart { name });
                open_spans.push(name);
            }
            6..=9 => {
                if let Some(name) = open_spans.pop() {
                    trace.event(now, EventKind::PhaseEnd { name });
                }
            }
            10 => {
                let kind = if session_open {
                    EventKind::SessionEnd { id: sessions }
                } else {
                    sessions += 1;
                    EventKind::SessionStart { id: sessions }
                };
                session_open = !session_open;
                trace.event(now, kind);
            }
            _ => {
                let ordinal = ORDINALS[param as usize % 4];
                let dur_ns = u64::from(param) * 1_000;
                trace.event(
                    now,
                    EventKind::TpmCommand {
                        ordinal: ordinal.into(),
                        locality: 2,
                        dur_ns,
                    },
                );
            }
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn folded_text_round_trips_for_arbitrary_traces(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..48),
    ) {
        let trace = build_trace(&ops);
        let p = profile::build(&trace);
        let parsed = parse_folded(&p.folded()).expect("own output parses");
        prop_assert_eq!(parsed, p.folded_weights());
    }

    #[test]
    fn building_twice_is_byte_identical(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..48),
    ) {
        let trace = build_trace(&ops);
        let a = profile::build(&trace);
        let b = profile::build(&trace);
        prop_assert_eq!(a.folded(), b.folded());
        prop_assert_eq!(a.to_chrome_json(), b.to_chrome_json());
        prop_assert_eq!(a.total(), b.total());
        prop_assert_eq!(a.overflow_ns, b.overflow_ns);
        prop_assert_eq!(a.folded_weights(), b.folded_weights());
    }
}
