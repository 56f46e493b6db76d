//! The fault-sweep robustness contract as a regression test: 200 seeded
//! schedules across the §6 applications, zero violations.

use flicker_bench::faultsweep::{run_sweep, Outcome};

#[test]
fn two_hundred_seeded_schedules_produce_no_violations() {
    let report = run_sweep(0, 200);
    let violations: Vec<String> = report
        .violating()
        .map(|r| {
            let Outcome::Violation(why) = &r.outcome else {
                unreachable!()
            };
            format!("seed={} app={}: {why}", r.seed, r.app)
        })
        .collect();
    assert!(violations.is_empty(), "{violations:#?}");
    assert_eq!(report.results.len(), 200);
    // The sweep is only meaningful if faults actually fired, and both
    // terminal outcomes should be represented.
    assert!(report.faults_fired > 50, "{} faults", report.faults_fired);
    assert!(report.survived > 0);
    assert!(report.recovered > 0);
}
