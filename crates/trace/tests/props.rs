//! Span-tree well-formedness under arbitrary phase-event interleavings,
//! and the in-place audit against the audit of a copied flight record.
//!
//! The recorder folds spans from `PhaseStart` / `PhaseEnd` events and
//! promises a forest invariant: parents precede children, `depth` equals
//! the parent chain length, every `parent` index refers to an earlier
//! span, and (on a monotone clock, which is how the simulator drives it) a
//! child's end never exceeds its parent's. These properties must hold for
//! *any* interleaving of phase events and `reset`, including ends of names
//! with no open span and ends that implicitly close dangling children.

use flicker_trace::audit::{audit_events_with_drops, audit_trace};
use flicker_trace::{EventKind, Span, Trace};
use proptest::prelude::*;
use std::time::Duration;

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One scripted recorder call, decoded from a `(selector, param)` pair.
#[derive(Debug, Clone, Copy)]
enum Op {
    Start(&'static str),
    End(&'static str),
    Reset,
}

fn decode(selector: u8, param: u16) -> Op {
    let name = NAMES[param as usize % NAMES.len()];
    match selector % 16 {
        0..=7 => Op::Start(name),
        8..=14 => Op::End(name),
        _ => Op::Reset,
    }
}

/// Replays `ops` on a fresh trace with a strictly monotone clock, then
/// checks the forest invariants on the resulting snapshot.
fn check_interleaving(ops: &[(u8, u16)]) -> Result<(), String> {
    let trace = Trace::new();
    let mut now_ns: u64 = 0;
    // Spans opened since the last reset: each `PhaseStart` opens exactly one.
    let mut opened = 0usize;

    for &(selector, param) in ops {
        now_ns += u64::from(param % 997) + 1;
        let now = Duration::from_nanos(now_ns);
        match decode(selector, param) {
            Op::Start(name) => {
                trace.event(now, EventKind::PhaseStart { name });
                opened += 1;
            }
            Op::End(name) => trace.event(now, EventKind::PhaseEnd { name }),
            Op::Reset => {
                trace.reset();
                opened = 0;
            }
        }
    }

    let spans = trace.spans();
    if spans.len() != opened {
        return Err(format!(
            "ledger drift: {} spans vs {opened} phase starts",
            spans.len()
        ));
    }
    let end_of = |s: &Span| s.duration.map(|d| s.start + d);
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            None => {
                if span.depth != 0 {
                    return Err(format!("span {i}: no parent but depth {}", span.depth));
                }
            }
            Some(j) => {
                if j >= i {
                    return Err(format!("span {i}: parent at later index {j}"));
                }
                let parent = &spans[j];
                if span.depth != parent.depth + 1 {
                    return Err(format!(
                        "span {i}: depth {} but parent depth {}",
                        span.depth, parent.depth
                    ));
                }
                if span.start < parent.start {
                    return Err(format!("span {i}: starts before its parent"));
                }
                if let (Some(child_end), Some(parent_end)) = (end_of(span), end_of(parent)) {
                    if child_end > parent_end {
                        return Err(format!(
                            "span {i}: ends at {child_end:?}, after parent end {parent_end:?}"
                        ));
                    }
                }
                if end_of(parent).is_some() && end_of(span).is_none() {
                    return Err(format!("span {i}: still open under a closed parent"));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn span_tree_is_well_formed_under_arbitrary_interleavings(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..64),
    ) {
        if let Err(reason) = check_interleaving(&ops) {
            prop_assert!(false, "{}", reason);
        }
    }
}

#[test]
fn targeted_interleaving_dangling_children() {
    // start, start, end(parent) — the classic dangling-child close.
    let ops = [(0u8, 0u16), (0, 1), (8, 0)];
    check_interleaving(&ops).expect("well-formed");
}

/// One flight-recorder event for the audit property, decoded from a
/// `(selector, param)` pair: the kinds the auditor's invariants read, with
/// the parameters that make them pass or fail.
fn audit_event(selector: u8, param: u16) -> EventKind {
    const SLB_BASE: u64 = 0x10_0000;
    let len = u64::from(param % 3) * 0x800;
    match selector % 12 {
        0 => EventKind::SessionStart {
            id: u64::from(param),
        },
        1 => EventKind::OsSuspend,
        2 => EventKind::DevProtect {
            base: SLB_BASE,
            len: 0x1000 + len,
        },
        3 => EventKind::InterruptsChanged {
            enabled: param.is_multiple_of(2),
        },
        4 => EventKind::PcrReset {
            index: 17,
            locality: if param.is_multiple_of(4) { 2 } else { 4 },
        },
        5 => EventKind::PcrExtend {
            index: 17,
            locality: if param.is_multiple_of(4) { 0 } else { 4 },
        },
        6 => EventKind::Skinit {
            slb_base: SLB_BASE,
            slb_len: 0x1000 + len,
        },
        7 => EventKind::TpmCommand {
            ordinal: ["TPM_Unseal", "TPM_Seal"][usize::from(param % 2)].to_string(),
            locality: 0,
            dur_ns: u64::from(param),
        },
        8 => EventKind::Zeroize {
            base: SLB_BASE,
            len: 0x800 + len,
        },
        9 => EventKind::DevRelease { count: 1 },
        10 => EventKind::OsResume,
        _ => EventKind::Reboot,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `audit_trace` audits the ring in place, under the lock that reads
    /// the dropped count; it must reach the verdict the audit of a copied
    /// stream reaches, on whole rings and on rings `set_event_capacity`
    /// truncated and wrapped, audited at any point of the recording.
    #[test]
    fn in_place_audit_matches_the_audit_of_a_copy(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..96),
        capacity in 1usize..48,
        shrink_at in 0usize..128,
    ) {
        let trace = Trace::new();
        for (i, &(selector, param)) in ops.iter().enumerate() {
            if i == shrink_at {
                trace.set_event_capacity(capacity);
            }
            trace.event(Duration::from_micros(i as u64), audit_event(selector, param));
            if param.is_multiple_of(8) {
                prop_assert_eq!(
                    audit_trace(&trace),
                    audit_events_with_drops(&trace.events(), trace.dropped_events())
                );
            }
        }
        prop_assert_eq!(
            audit_trace(&trace),
            audit_events_with_drops(&trace.events(), trace.dropped_events())
        );
    }
}
