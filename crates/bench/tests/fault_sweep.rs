//! The fault-sweep robustness contract as a regression test: 200 seeded
//! schedules across the §6 applications, zero violations, and every
//! schedule's outcome pinned.

use flicker_bench::faultsweep::{run_sweep, Outcome};
use flicker_crypto::{hex, sha256::sha256};

/// Byte length and SHA-256 of one line per schedule of seeds 0–199: seed,
/// app name, outcome with its message, and fault counts. The simulated
/// clock makes each schedule repeat exactly, so a change that turns a
/// `Recovered` into a `Survived`, rewords an error or fires different
/// faults moves this pin. A change meant to move it updates it here and
/// names the cause in CHANGES.md.
const SCHEDULE_LINES_PIN: (usize, &str) = (
    30_677,
    "233672d00862602b7fc325e3335d024ef2bbe2b60b0ea5d1b8be922adcaf328e",
);

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

    let lines: String = report
        .results
        .iter()
        .map(|r| format!("{} {} {:?} {:?}\n", r.seed, r.app, r.outcome, r.faults))
        .collect();
    let got = (lines.len(), hex::encode(&sha256(lines.as_bytes())));
    assert_eq!(
        (got.0, got.1.as_str()),
        SCHEDULE_LINES_PIN,
        "schedule lines changed:\n{lines}"
    );
}

#[test]
fn a_sweep_from_the_last_seed_wraps_to_zero() {
    let report = run_sweep(u64::MAX, 2);
    let seeds: Vec<u64> = report.results.iter().map(|r| r.seed).collect();
    assert_eq!(seeds, [u64::MAX, 0]);
    assert_eq!(report.violations, 0);
}
