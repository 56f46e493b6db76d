//! Replay a flight-recorder event stream against the paper's ordering
//! invariants (Figure 2 / §4).
//!
//! The auditor is a small state machine over [`Event`]s. It tracks the
//! active DEV protections, whether execution is inside a PAL window (from
//! `Skinit` to the `DevRelease` that precedes OS resume), which physical
//! ranges have been zeroized inside that window, and whether PCR 17
//! currently holds a locality-4 measurement of the running PAL. Five
//! invariant classes are checked:
//!
//! 1. [`Invariant::DevBeforeSkinit`] — the SLB must be DEV-protected from
//!    DMA before `SKINIT` measures it (§4.1: otherwise a device could
//!    rewrite the code between measurement and execution).
//! 2. [`Invariant::PcrResetLocality`] — dynamic PCRs may only be reset by
//!    the hardware locality-4 path that `SKINIT` owns; a software-locality
//!    reset would let an OS forge the measurement chain.
//! 3. [`Invariant::InterruptsInPal`] — the interrupt flag must stay clear
//!    for the whole PAL window; re-enabling mid-window hands control to
//!    untrusted handlers with secrets in registers and RAM.
//! 4. [`Invariant::ZeroizeBeforeResume`] — every byte of the SLB must be
//!    zeroized before the platform releases DEV protection and resumes the
//!    OS (§4.2: resume is the moment secrets would leak).
//! 5. [`Invariant::UnsealWithoutMeasurement`] — `TPM_Unseal` must only run
//!    inside a PAL window whose identity has been extended into PCR 17 at
//!    locality 4; anything else means sealed secrets were requested by
//!    unmeasured code.
//!
//! A `Reboot` event clears all state without violation: the platform
//! power-cycle path zeroizes RAM (emitting a covering `Zeroize`) before
//! rebooting, and hardware reset destroys the launch, the DEV setup, and
//! the dynamic PCR values.

use crate::{Event, EventKind, Trace, DROPPED_EVENTS_COUNTER};
use std::time::Duration;

/// The invariant classes the auditor can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// `SKINIT` ran on an SLB range not covered by an active DEV protection.
    DevBeforeSkinit,
    /// Dynamic PCRs were reset from a locality other than 4.
    PcrResetLocality,
    /// Interrupts were re-enabled while still inside the PAL window.
    InterruptsInPal,
    /// DEV protection was released (OS resume) before the whole SLB was
    /// zeroized.
    ZeroizeBeforeResume,
    /// `TPM_Unseal` ran outside a PAL window, or inside one whose PCR-17
    /// measurement is missing.
    UnsealWithoutMeasurement,
}

impl Invariant {
    /// Stable snake_case name, used in reports and violation dumps.
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::DevBeforeSkinit => "dev_before_skinit",
            Invariant::PcrResetLocality => "pcr_reset_locality",
            Invariant::InterruptsInPal => "interrupts_in_pal",
            Invariant::ZeroizeBeforeResume => "zeroize_before_resume",
            Invariant::UnsealWithoutMeasurement => "unseal_without_measurement",
        }
    }
}

/// One audit finding: which invariant broke, where in the stream, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending event in the audited slice.
    pub index: usize,
    /// Virtual timestamp of the offending event.
    pub at: Duration,
    /// Which invariant class was violated.
    pub invariant: Invariant,
    /// Human-readable specifics (addresses, localities, ordinals).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[event {} @ {:?}] {}: {}",
            self.index,
            self.at,
            self.invariant.name(),
            self.detail
        )
    }
}

/// The PCR that `SKINIT` extends with the SLB measurement.
const PCR_SKINIT: u32 = 17;
/// The hardware locality reserved for the `SKINIT` microcode path.
const LOCALITY_HW: u8 = 4;

#[derive(Debug)]
struct PalWindow {
    slb_base: u64,
    slb_len: u64,
    zeroized: Vec<(u64, u64)>, // [start, end) ranges
}

/// Returns true when the union of `ranges` covers `[start, end)`.
fn ranges_cover(ranges: &[(u64, u64)], start: u64, end: u64) -> bool {
    let mut sorted: Vec<(u64, u64)> = ranges.to_vec();
    sorted.sort_unstable();
    let mut covered_to = start;
    for (s, e) in sorted {
        if s > covered_to {
            break;
        }
        covered_to = covered_to.max(e);
        if covered_to >= end {
            return true;
        }
    }
    covered_to >= end
}

#[derive(Debug, Default)]
struct AuditState {
    /// Active DEV protections as [start, end) ranges.
    dev: Vec<(u64, u64)>,
    /// `Some` from `Skinit` until the `DevRelease` that resumes the OS.
    pal: Option<PalWindow>,
    /// PCR 17 holds a locality-4 measurement (set by a locality-4 extend,
    /// cleared by reset/reboot/resume).
    measured: bool,
}

impl AuditState {
    fn clear(&mut self) {
        self.dev.clear();
        self.pal = None;
        self.measured = false;
    }
}

/// Replays `events` through the invariant state machine and returns every
/// violation found, in stream order. An empty result means the recording is
/// consistent with the paper's Figure-2 session discipline.
pub fn audit_events(events: &[Event]) -> Vec<Violation> {
    let mut state = AuditState::default();
    let mut violations = Vec::new();
    let mut report = |index: usize, at: Duration, invariant: Invariant, detail: String| {
        violations.push(Violation {
            index,
            at,
            invariant,
            detail,
        });
    };

    for (index, event) in events.iter().enumerate() {
        let at = event.at;
        match &event.kind {
            EventKind::DevProtect { base, len } => {
                state.dev.push((*base, base.saturating_add(*len)));
            }
            EventKind::Skinit { slb_base, slb_len } => {
                let end = slb_base.saturating_add(*slb_len);
                if !ranges_cover(&state.dev, *slb_base, end) {
                    report(
                        index,
                        at,
                        Invariant::DevBeforeSkinit,
                        format!(
                            "SKINIT measured SLB [{slb_base:#x}, {end:#x}) without DEV \
                             protection covering it (active: {:?})",
                            state.dev
                        ),
                    );
                }
                state.pal = Some(PalWindow {
                    slb_base: *slb_base,
                    slb_len: *slb_len,
                    zeroized: Vec::new(),
                });
            }
            EventKind::PcrReset {
                index: pcr,
                locality,
            } => {
                if *locality != LOCALITY_HW {
                    report(
                        index,
                        at,
                        Invariant::PcrResetLocality,
                        format!("dynamic PCR {pcr} reset at software locality {locality}"),
                    );
                }
                if *pcr == PCR_SKINIT {
                    state.measured = false;
                }
            }
            EventKind::PcrExtend {
                index: pcr,
                locality,
            } => {
                if *pcr == PCR_SKINIT && *locality == LOCALITY_HW {
                    state.measured = true;
                }
            }
            EventKind::TpmCommand { ordinal, .. } => {
                if ordinal == "TPM_Unseal" {
                    if state.pal.is_none() {
                        report(
                            index,
                            at,
                            Invariant::UnsealWithoutMeasurement,
                            "TPM_Unseal issued outside any PAL window".to_string(),
                        );
                    } else if !state.measured {
                        report(
                            index,
                            at,
                            Invariant::UnsealWithoutMeasurement,
                            "TPM_Unseal inside a PAL window but PCR 17 holds no \
                             locality-4 measurement"
                                .to_string(),
                        );
                    }
                }
            }
            EventKind::InterruptsChanged { enabled } => {
                if *enabled && state.pal.is_some() {
                    report(
                        index,
                        at,
                        Invariant::InterruptsInPal,
                        "interrupts re-enabled while still inside the PAL window".to_string(),
                    );
                }
            }
            EventKind::Zeroize { base, len } => {
                if let Some(pal) = state.pal.as_mut() {
                    pal.zeroized.push((*base, base.saturating_add(*len)));
                }
            }
            EventKind::DevRelease { .. } => {
                if let Some(pal) = state.pal.take() {
                    let end = pal.slb_base.saturating_add(pal.slb_len);
                    if !ranges_cover(&pal.zeroized, pal.slb_base, end) {
                        report(
                            index,
                            at,
                            Invariant::ZeroizeBeforeResume,
                            format!(
                                "DEV released (OS resume) with SLB [{:#x}, {end:#x}) \
                                 not fully zeroized (zeroized: {:?})",
                                pal.slb_base, pal.zeroized
                            ),
                        );
                    }
                }
                state.dev.clear();
                state.measured = false;
            }
            EventKind::Reboot => state.clear(),
            EventKind::SessionStart { .. }
            | EventKind::SessionEnd { .. }
            | EventKind::PhaseStart { .. }
            | EventKind::PhaseEnd { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::Farm { .. }
            | EventKind::Charge { .. }
            | EventKind::OsSuspend
            | EventKind::OsResume => {}
        }
    }
    violations
}

/// Outcome of a truncation-aware audit ([`audit_trace`] /
/// [`audit_events_with_drops`]).
///
/// A ring buffer that overflowed has silently discarded its oldest events,
/// so replaying what's left can vacuously pass: the `DevProtect` that never
/// happened and the `Skinit` it should have preceded may both be gone. A
/// truncated stream therefore yields [`AuditVerdict::Inconclusive`] — never
/// `Clean` — and callers that gate on audits (fault sweep, farm bench, CI)
/// must treat it as a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditVerdict {
    /// The complete stream replayed with no violations.
    Clean,
    /// The stream (complete or not) contained violations. When the stream
    /// was also truncated, `dropped_events` is nonzero.
    Violations {
        /// Every violation found, in stream order.
        violations: Vec<Violation>,
        /// Events evicted from the ring buffer before the audit ran.
        dropped_events: u64,
    },
    /// The stream replayed clean, but `dropped_events` events were evicted
    /// before the audit ran, so the verdict proves nothing about the full
    /// execution.
    Inconclusive {
        /// Events evicted from the ring buffer before the audit ran.
        dropped_events: u64,
    },
}

impl AuditVerdict {
    /// True only for a complete, violation-free stream.
    pub fn is_clean(&self) -> bool {
        matches!(self, AuditVerdict::Clean)
    }

    /// The violations found, if any (empty for `Clean` / `Inconclusive`).
    pub fn violations(&self) -> &[Violation] {
        match self {
            AuditVerdict::Violations { violations, .. } => violations,
            _ => &[],
        }
    }

    /// How many events the ring buffer evicted before the audit.
    pub fn dropped_events(&self) -> u64 {
        match self {
            AuditVerdict::Clean => 0,
            AuditVerdict::Violations { dropped_events, .. }
            | AuditVerdict::Inconclusive { dropped_events } => *dropped_events,
        }
    }
}

impl std::fmt::Display for AuditVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditVerdict::Clean => write!(f, "clean"),
            AuditVerdict::Violations {
                violations,
                dropped_events,
            } => {
                write!(f, "{} violation(s)", violations.len())?;
                if *dropped_events > 0 {
                    write!(f, " (stream truncated: {dropped_events} dropped)")?;
                }
                Ok(())
            }
            AuditVerdict::Inconclusive { dropped_events } => write!(
                f,
                "inconclusive: {dropped_events} event(s) dropped from the ring \
                 buffer before audit"
            ),
        }
    }
}

/// Audits an event slice known to be missing `dropped` evicted events.
pub fn audit_events_with_drops(events: &[Event], dropped: u64) -> AuditVerdict {
    let violations = audit_events(events);
    match (violations.is_empty(), dropped) {
        (true, 0) => AuditVerdict::Clean,
        (true, dropped_events) => AuditVerdict::Inconclusive { dropped_events },
        (false, dropped_events) => AuditVerdict::Violations {
            violations,
            dropped_events,
        },
    }
}

/// Audits a live trace's flight record, consulting its
/// [`DROPPED_EVENTS_COUNTER`] so ring-buffer overflow can never masquerade
/// as a clean run.
///
/// The ring is audited where it lies, under one hold of the recorder's
/// lock that also reads the dropped count: a recorder on another thread
/// cannot evict an event between the two, and no event is copied.
pub fn audit_trace(trace: &Trace) -> AuditVerdict {
    let mut inner = trace.lock();
    let dropped = inner.counter(DROPPED_EVENTS_COUNTER);
    audit_events_with_drops(inner.events.make_contiguous(), dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLB_BASE: u64 = 0x10_0000;
    const SLB_MAX: u64 = 0x1_0000;
    const SLB_LEN: u64 = 4736;

    fn ev(ms: u64, kind: EventKind) -> Event {
        Event::new(Duration::from_millis(ms), kind)
    }

    /// The canonical well-formed session stream the substrates emit.
    fn clean_session() -> Vec<Event> {
        vec![
            ev(0, EventKind::SessionStart { id: 1 }),
            ev(1, EventKind::OsSuspend),
            ev(
                2,
                EventKind::DevProtect {
                    base: SLB_BASE,
                    len: SLB_MAX,
                },
            ),
            ev(2, EventKind::InterruptsChanged { enabled: false }),
            ev(
                3,
                EventKind::PcrReset {
                    index: 17,
                    locality: 4,
                },
            ),
            ev(
                3,
                EventKind::PcrExtend {
                    index: 17,
                    locality: 4,
                },
            ),
            ev(
                3,
                EventKind::Skinit {
                    slb_base: SLB_BASE,
                    slb_len: SLB_LEN,
                },
            ),
            ev(
                4,
                EventKind::TpmCommand {
                    ordinal: "TPM_Unseal".into(),
                    locality: 0,
                    dur_ns: 0,
                },
            ),
            ev(
                5,
                EventKind::Zeroize {
                    base: SLB_BASE,
                    len: SLB_MAX,
                },
            ),
            ev(
                6,
                EventKind::PcrExtend {
                    index: 17,
                    locality: 0,
                },
            ),
            ev(7, EventKind::DevRelease { count: 1 }),
            ev(7, EventKind::InterruptsChanged { enabled: true }),
            ev(8, EventKind::OsResume),
            ev(8, EventKind::SessionEnd { id: 1 }),
        ]
    }

    #[test]
    fn clean_stream_has_no_violations() {
        let violations = audit_events(&clean_session());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn two_back_to_back_sessions_stay_clean() {
        let mut events = clean_session();
        events.extend(clean_session());
        assert!(audit_events(&events).is_empty());
    }

    #[test]
    fn skinit_without_dev_protection_is_flagged() {
        let events: Vec<Event> = clean_session()
            .into_iter()
            .filter(|e| !matches!(e.kind, EventKind::DevProtect { .. }))
            .collect();
        let violations = audit_events(&events);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::DevBeforeSkinit),
            "{violations:?}"
        );
    }

    #[test]
    fn dev_protection_too_small_is_flagged() {
        let events: Vec<Event> = clean_session()
            .into_iter()
            .map(|mut e| {
                if let EventKind::DevProtect { len, .. } = &mut e.kind {
                    *len = SLB_LEN / 2; // covers only half the measured SLB
                }
                e
            })
            .collect();
        let violations = audit_events(&events);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::DevBeforeSkinit),
            "{violations:?}"
        );
    }

    #[test]
    fn software_locality_pcr_reset_is_flagged() {
        let events: Vec<Event> = clean_session()
            .into_iter()
            .map(|mut e| {
                if let EventKind::PcrReset { locality, .. } = &mut e.kind {
                    *locality = 0; // the OS pretending to own the dynamic reset
                }
                e
            })
            .collect();
        let violations = audit_events(&events);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::PcrResetLocality),
            "{violations:?}"
        );
    }

    #[test]
    fn interrupts_enabled_inside_pal_is_flagged() {
        let mut events = clean_session();
        // Re-enable interrupts right after the PAL starts running.
        events.insert(8, ev(4, EventKind::InterruptsChanged { enabled: true }));
        let violations = audit_events(&events);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].invariant, Invariant::InterruptsInPal);
    }

    #[test]
    fn missing_zeroize_before_release_is_flagged() {
        let events: Vec<Event> = clean_session()
            .into_iter()
            .filter(|e| !matches!(e.kind, EventKind::Zeroize { .. }))
            .collect();
        let violations = audit_events(&events);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::ZeroizeBeforeResume),
            "{violations:?}"
        );
    }

    #[test]
    fn partial_zeroize_before_release_is_flagged() {
        let events: Vec<Event> = clean_session()
            .into_iter()
            .map(|mut e| {
                if let EventKind::Zeroize { len, .. } = &mut e.kind {
                    *len = SLB_LEN - 1; // one measured byte survives resume
                }
                e
            })
            .collect();
        let violations = audit_events(&events);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::ZeroizeBeforeResume),
            "{violations:?}"
        );
    }

    #[test]
    fn piecewise_zeroize_coverage_is_accepted() {
        let events: Vec<Event> = clean_session()
            .into_iter()
            .flat_map(|e| {
                if matches!(e.kind, EventKind::Zeroize { .. }) {
                    vec![
                        ev(
                            5,
                            EventKind::Zeroize {
                                base: SLB_BASE,
                                len: SLB_LEN / 2,
                            },
                        ),
                        ev(
                            5,
                            EventKind::Zeroize {
                                base: SLB_BASE + SLB_LEN / 2,
                                len: SLB_MAX - SLB_LEN / 2,
                            },
                        ),
                    ]
                } else {
                    vec![e]
                }
            })
            .collect();
        assert!(audit_events(&events).is_empty());
    }

    #[test]
    fn unseal_outside_pal_window_is_flagged() {
        let events = vec![ev(
            0,
            EventKind::TpmCommand {
                ordinal: "TPM_Unseal".into(),
                locality: 0,
                dur_ns: 0,
            },
        )];
        let violations = audit_events(&events);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::UnsealWithoutMeasurement);
    }

    #[test]
    fn unseal_after_software_reset_of_pcr17_is_flagged() {
        let mut events = clean_session();
        // Between SKINIT and the unseal, PCR 17 gets reset (already a
        // locality violation) — the unseal must ALSO be flagged because
        // the running PAL's measurement is gone.
        events.insert(
            7,
            ev(
                4,
                EventKind::PcrReset {
                    index: 17,
                    locality: 0,
                },
            ),
        );
        let violations = audit_events(&events);
        let classes: Vec<Invariant> = violations.iter().map(|v| v.invariant).collect();
        assert!(
            classes.contains(&Invariant::PcrResetLocality),
            "{violations:?}"
        );
        assert!(
            classes.contains(&Invariant::UnsealWithoutMeasurement),
            "{violations:?}"
        );
    }

    #[test]
    fn reboot_resets_audit_state() {
        let mut events = clean_session();
        // Truncate mid-PAL (after the unseal) and power-cycle: RAM zeroize
        // followed by reboot. The next clean session must audit clean and
        // the aborted window must NOT count as a zeroize-before-resume
        // violation (there was no resume).
        events.truncate(8);
        events.push(ev(
            9,
            EventKind::FaultInjected {
                fault: "power_loss".into(),
            },
        ));
        events.push(ev(
            9,
            EventKind::Zeroize {
                base: 0,
                len: 1 << 24,
            },
        ));
        events.push(ev(9, EventKind::Reboot));
        events.extend(clean_session());
        let violations = audit_events(&events);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn overflowed_ring_buffer_is_inconclusive_not_clean() {
        // Regression: a ring buffer small enough to evict the session's
        // DevProtect/Skinit prefix used to replay the truncated suffix
        // clean. The truncation-aware entry points must refuse to call
        // that a pass.
        let trace = Trace::new();
        trace.set_event_capacity(4);
        for e in clean_session() {
            trace.event(e.at, e.kind);
        }
        assert!(
            trace.counter(DROPPED_EVENTS_COUNTER) > 0,
            "test setup must actually overflow the buffer"
        );
        // The truncated suffix happens to replay clean…
        assert!(audit_events(&trace.events()).is_empty());
        // …but the verdict must say so honestly.
        let verdict = audit_trace(&trace);
        assert!(!verdict.is_clean());
        match &verdict {
            AuditVerdict::Inconclusive { dropped_events } => {
                assert_eq!(*dropped_events, trace.counter(DROPPED_EVENTS_COUNTER));
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
        assert!(verdict.to_string().contains("inconclusive"));
    }

    #[test]
    fn complete_stream_audits_clean_and_violations_carry_drop_count() {
        let trace = Trace::new();
        for e in clean_session() {
            trace.event(e.at, e.kind);
        }
        assert_eq!(audit_trace(&trace), AuditVerdict::Clean);

        // A violating stream that ALSO dropped events reports both facts.
        let bad = vec![ev(
            3,
            EventKind::Skinit {
                slb_base: SLB_BASE,
                slb_len: SLB_LEN,
            },
        )];
        let verdict = audit_events_with_drops(&bad, 9);
        assert_eq!(verdict.violations().len(), 1);
        assert_eq!(verdict.dropped_events(), 9);
        assert!(verdict.to_string().contains("truncated"), "{verdict}");
    }

    #[test]
    fn violation_display_is_informative() {
        let events = vec![ev(
            3,
            EventKind::Skinit {
                slb_base: SLB_BASE,
                slb_len: SLB_LEN,
            },
        )];
        let v = &audit_events(&events)[0];
        let text = v.to_string();
        assert!(text.contains("dev_before_skinit"), "{text}");
        assert!(text.contains("0x100000"), "{text}");
    }
}
