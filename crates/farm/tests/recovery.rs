//! Farm recovery invariants: power loss mid-session must neither lose nor
//! duplicate the request, a quarantined machine's in-flight work is
//! re-queued exactly once, a session cut short closes the phases it was
//! in, and — property-tested over seeded fault schedules — every
//! submitted request reaches exactly one terminal state with audit-clean
//! per-machine traces.

use flicker_farm::{request::actions, AppKind, Farm, FarmConfig, RequestSpec, Submitted, Terminal};
use flicker_faults::{Fault, FaultPlan};
use flicker_trace::EventKind;
use proptest::prelude::*;
use std::time::Duration;

/// Counts coordinator farm events with `action` for request `id`.
fn action_count(events: &[flicker_trace::Event], action: &str, id: u64) -> usize {
    events
        .iter()
        .filter(|e| {
            matches!(&e.kind, EventKind::Farm { action: a, request, .. }
                if a == action && *request == id)
        })
        .count()
}

/// Power loss mid-session: the request is retried after the reboot and
/// reaches exactly one terminal state — never lost, never duplicated.
#[test]
fn power_loss_mid_session_conserves_the_request() {
    let mut config = FarmConfig::fast_for_tests(1);
    config.quarantine_after = 10;
    let farm = Farm::start(config);
    let id = farm
        .submit(RequestSpec {
            app: AppKind::Ssh,
            seed: 3,
            faults: FaultPlan::one(Fault::PowerLossAfter {
                after: Duration::from_micros(200),
            }),
        })
        .id();
    let report = farm.shutdown();
    report.verify_conservation().expect("conservation");
    assert_eq!(report.done(), 1, "outcomes: {:?}", report.outcomes);
    let o = &report.outcomes[0];
    assert_eq!(o.id, id);
    assert!(o.attempts >= 2, "the cut attempt plus the clean retry");
    // Exactly one terminal event in the coordinator record.
    let events = report.coordinator.events();
    assert_eq!(action_count(&events, actions::DONE, id), 1);
    assert_eq!(action_count(&events, actions::FAILED, id), 0);
    assert_eq!(action_count(&events, actions::TIMED_OUT, id), 0);
    // The platform's own flight record stays paper-invariant clean across
    // the reboot.
    assert!(
        report.audit_shards().is_empty(),
        "{:?}",
        report.audit_shards()
    );
}

/// A quarantined machine's in-flight work goes back to the queue exactly
/// once per quarantine and still completes after re-admission.
#[test]
fn quarantine_requeues_in_flight_work_exactly_once() {
    let mut config = FarmConfig::fast_for_tests(1);
    config.quarantine_after = 1; // first failure trips the breaker
    let farm = Farm::start(config);
    let id = farm
        .submit(RequestSpec {
            app: AppKind::Distcomp,
            seed: 11,
            faults: FaultPlan::one(Fault::PowerLossAfter {
                after: Duration::from_micros(50),
            }),
        })
        .id();
    let report = farm.shutdown();
    report.verify_conservation().expect("conservation");
    assert_eq!(report.done(), 1, "outcomes: {:?}", report.outcomes);
    let o = &report.outcomes[0];
    assert_eq!(o.requeues, 1, "exactly one requeue for one quarantine");
    let events = report.coordinator.events();
    assert_eq!(action_count(&events, actions::QUARANTINE, id), 1);
    assert_eq!(action_count(&events, actions::REQUEUED, id), 1);
    assert_eq!(action_count(&events, actions::DONE, id), 1);
    // The machine probed its way back and kept serving.
    let shard = &report.shards[0];
    assert_eq!(shard.quarantines, 1);
    assert!(shard.probes >= 1);
    assert!(!shard.retired);
    assert!(
        report.audit_shards().is_empty(),
        "{:?}",
        report.audit_shards()
    );
}

/// A session that an error or a power cut ends early still closes the
/// phases it was in: over 60 seeded fault schedules on two machines, no
/// shard holds an open span at shutdown and no span's interval contains
/// a `Reboot`. An open phase would nest every later span of its recorder
/// under it.
#[test]
fn cut_sessions_leave_no_phase_open() {
    let mut config = FarmConfig::fast_for_tests(2);
    config.queue_bound = 60;
    let farm = Farm::start(config);
    for seed in 0..60 {
        farm.submit(RequestSpec::seeded(seed));
    }
    let report = farm.shutdown();
    report.verify_conservation().expect("conservation");
    let mut reboots = 0;
    for shard in &report.shards {
        assert_eq!(shard.trace.dropped_events(), 0, "machine {}", shard.id);
        let spans = shard.trace.spans();
        if let Some(open) = spans.iter().find(|s| s.duration.is_none()) {
            panic!(
                "machine {}: span {} opened at {:?} never closed",
                shard.id, open.name, open.start
            );
        }
        for e in shard.trace.events() {
            if !matches!(e.kind, EventKind::Reboot) {
                continue;
            }
            reboots += 1;
            for s in &spans {
                let end = s.start + s.duration.expect("closed");
                assert!(
                    !(s.start < e.at && e.at < end),
                    "machine {}: span {} [{:?}, {end:?}] contains the reboot at {:?}",
                    shard.id,
                    s.name,
                    s.start,
                    e.at
                );
            }
        }
    }
    assert!(reboots > 0, "no schedule cut a session");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under arbitrary seeded fault schedules on a multi-machine farm,
    /// the conservation law holds: every submitted request reaches
    /// exactly one terminal state within the attempt bound, and every
    /// machine's flight record audits clean.
    #[test]
    fn fault_schedules_never_lose_or_duplicate_requests(base in 0u64..10_000) {
        let mut config = FarmConfig::fast_for_tests(3);
        config.quarantine_after = 2;
        let farm = Farm::start(config);
        let mut admitted = 0u64;
        for i in 0..12u64 {
            match farm.submit(RequestSpec::seeded(base * 131 + i)) {
                Submitted::Admitted(_) => admitted += 1,
                Submitted::Shed(_) => {}
            }
        }
        let report = farm.shutdown();
        prop_assert_eq!(report.submitted, 12);
        if let Err(e) = report.verify_conservation() {
            prop_assert!(false, "conservation violated: {}", e);
        }
        // Shed + terminal-after-running partition the submissions.
        let ran = report.done() + report.failed() + report.timed_out();
        prop_assert_eq!(ran as u64, admitted);
        prop_assert_eq!(report.shed() as u64, 12 - admitted);
        // Shed requests never ran; everything else ran at least once.
        for o in &report.outcomes {
            match o.terminal {
                Terminal::Shed => prop_assert_eq!(o.attempts, 0),
                _ => prop_assert!(o.attempts >= 1),
            }
        }
        let violations = report.audit_shards();
        prop_assert!(violations.is_empty(), "audit violations: {:?}", violations);
    }
}
