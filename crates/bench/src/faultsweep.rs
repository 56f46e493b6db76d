//! Seeded fault-injection sweep across the paper's §6 applications.
//!
//! Each schedule derives a [`FaultPlan`] from its seed, arms a fresh
//! platform (machine, TPM, network link) with the injector, and drives one
//! application through its normal protocol, run by the shared
//! [`flicker_apps::drivers`]. The contract under test:
//!
//! * **Survived** — the protocol completed with *correct* results despite
//!   the injected faults (retries absorbed them).
//! * **Recovered** — the protocol failed with a clean error, but the
//!   platform invariants hold (OS resumed, no suspend state leaked, DEV
//!   protections lifted, no secret residue in RAM), a disarmed follow-up
//!   session succeeds, and any replay-protected state sealed before the
//!   fault is still readable.
//! * **Violation** — anything else: a panic, a leaked invariant, secret
//!   bytes in RAM, permanently unreadable sealed storage, or a flight
//!   record that fails the audit or leaves a phase span open.
//!
//! A correct implementation produces zero violations for every seed.

use flicker_apps::drivers::{self, StoreAction};
use flicker_apps::{known_good_hash, Administrator, AppKind, SshClient};
use flicker_crypto::rng::XorShiftRng;
use flicker_faults::{FaultCounts, FaultInjector, FaultPlan};
use flicker_os::{NetLink, Os};
use flicker_trace::{audit, Event, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The SSH trial's password: a recognisable byte string that must never
/// appear in simulated RAM after a session, faulted or not.
const SSH_PASSWORD: &[u8] = b"SWEEP-SECRET-hunter2";

/// The storage trial's PAL identity and NV index (distinct from any
/// test's).
const STORAGE_PAL: &[u8] = b"sweep-storage-pal";
const SWEEP_NV_INDEX: u32 = 0x0001_4000;

/// How one schedule ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Protocol completed with correct results despite the faults.
    Survived,
    /// Protocol failed cleanly (the carried message) and the platform
    /// recovered fully.
    Recovered(String),
    /// The robustness contract was broken.
    Violation(String),
}

/// One schedule's result.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The schedule's fault-plan seed.
    pub seed: u64,
    /// Which application ran ([`AppKind::name`]).
    pub app: &'static str,
    /// How the schedule ended.
    pub outcome: Outcome,
    /// Faults the plan actually fired.
    pub faults: FaultCounts,
    /// The schedule's flight record, kept only when the outcome is a
    /// violation (so a failing sweep can dump exactly what the platform
    /// did); empty otherwise.
    pub flight_record: Vec<Event>,
}

/// The whole sweep's results plus aggregate counts.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Every schedule's individual result.
    pub results: Vec<ScheduleResult>,
    /// Schedules that completed with no fault landing.
    pub survived: usize,
    /// Schedules that hit faults and recovered correctly.
    pub recovered: usize,
    /// Schedules that broke the robustness contract.
    pub violations: usize,
    /// Total faults fired across the sweep.
    pub faults_fired: u64,
}

impl SweepReport {
    /// The schedules that broke the contract (for failure reports).
    pub fn violating(&self) -> impl Iterator<Item = &ScheduleResult> {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Violation(_)))
    }
}

/// Runs `schedules` seeded schedules starting at `base_seed`; the seeds
/// wrap past `u64::MAX` to 0.
pub fn run_sweep(base_seed: u64, schedules: u64) -> SweepReport {
    let mut report = SweepReport::default();
    for i in 0..schedules {
        let result = run_schedule(base_seed.wrapping_add(i));
        match &result.outcome {
            Outcome::Survived => report.survived += 1,
            Outcome::Recovered(_) => report.recovered += 1,
            Outcome::Violation(_) => report.violations += 1,
        }
        report.faults_fired += result.faults.total();
        report.results.push(result);
    }
    report
}

/// Runs one seeded schedule: provision, arm faults, drive the app, then
/// classify against the recovery contract.
pub fn run_schedule(seed: u64) -> ScheduleResult {
    let app = AppKind::from_seed(seed);
    let mut os = drivers::boot(seed);
    let mut link = NetLink::paper_verifier_link(seed);
    // Every schedule flies with the recorder on: after classification the
    // event stream is replayed through the paper-invariant auditor, and on
    // a violation it is kept for the post-mortem dump.
    let trace = Trace::new();
    os.set_tracer(trace.clone());
    link.set_tracer(trace.clone());
    link.set_clock(os.clock());

    // Provisioning (Privacy-CA interaction, AIK certification) is
    // manufacture-time setup, not the protocol under test: it happens
    // before the faults are armed, and only for the attested apps.
    let provisioned = matches!(app, AppKind::Rootkit | AppKind::Ssh)
        .then(|| drivers::provision(&mut os, seed, "sweep-host"));

    let inj = FaultInjector::new(&FaultPlan::seeded(seed));
    os.machine_mut().set_fault_injector(inj.clone());
    link.set_fault_injector(inj.clone());

    // The storage trial records the newest blob that *escaped* a session
    // (reached the untrusted OS), with the data it should decrypt to.
    let mut last_blob: Option<(Vec<u8>, Vec<u8>)> = None;

    let trial = catch_unwind(AssertUnwindSafe(|| match (app, provisioned) {
        // Alternate between the native detector and the statically
        // verified bytecode one, so the sweep also drives verified PalVM
        // sessions with faults armed (`classify` escalates any VM safety
        // fault).
        (AppKind::Rootkit, Some((cert, ca_public))) => {
            let mut admin = Administrator::new(ca_public, known_good_hash(&os), link);
            drivers::rootkit(&mut os, &mut admin, &cert, !seed.is_multiple_of(2))
        }
        (AppKind::Ssh, Some((cert, ca_public))) => drivers::ssh(
            &mut os,
            &mut link,
            &mut SshClient::new(ca_public),
            &cert,
            SSH_PASSWORD,
            &mut XorShiftRng::new(seed.wrapping_add(4_000)),
        ),
        (AppKind::Distcomp, _) => drivers::distcomp(&mut os),
        (AppKind::Ca, _) => drivers::ca(
            &mut os,
            "sweep.corp.example",
            &mut XorShiftRng::new(seed.wrapping_add(5_000)),
        ),
        (AppKind::Storage, _) => {
            drivers::storage(&mut os, STORAGE_PAL, SWEEP_NV_INDEX, &mut last_blob)
        }
        (AppKind::Rootkit | AppKind::Ssh, None) => unreachable!("attested apps are provisioned"),
    }));

    let faults = inj.counts();
    os.machine_mut().clear_fault_injector();

    let outcome = match trial {
        Err(_) => Outcome::Violation("panic during schedule".into()),
        Ok(Ok(())) if os.machine().power_lost() => {
            // A protocol must never claim success on a machine that died
            // under it.
            Outcome::Violation("protocol succeeded on a dead machine".into())
        }
        Ok(result) => {
            if os.machine().power_lost() {
                // Power died *outside* a session (e.g. during the tqd
                // quote), where no resume guard runs. Restoring power
                // reboots the machine, exactly as the guard does for
                // in-session losses; the invariant and probe checks below
                // then hold the rebooted platform to the same contract.
                os.reboot_after_power_loss();
            }
            classify(&mut os, result, &last_blob)
        }
    };
    // The trace audit is part of the robustness contract: a schedule that
    // "recovered" but whose flight record shows a Figure-2 invariant broken
    // (a resume without erasure, an unmeasured unseal) is a violation. A
    // truncated stream is a violation too — an audit that only saw the
    // surviving suffix of the ring buffer proves nothing, and letting it
    // pass for clean would hide exactly the long, fault-heavy schedules
    // most likely to break an invariant. So is a phase span still open at
    // the end: an error path that skipped its `PhaseEnd` nests every later
    // span of the recorder under it.
    let events = trace.events();
    let outcome = match outcome {
        Outcome::Violation(v) => Outcome::Violation(v),
        other => match audit::audit_trace(&trace) {
            verdict if verdict.is_clean() => {
                match trace.spans().into_iter().find(|s| s.duration.is_none()) {
                    Some(open) => Outcome::Violation(format!(
                        "span {} opened at {:?} never closed",
                        open.name, open.start
                    )),
                    None => other,
                }
            }
            verdict => match verdict.violations().first() {
                Some(v) => Outcome::Violation(format!("trace audit: {v}")),
                None => Outcome::Violation(format!("trace audit {verdict}")),
            },
        },
    };
    let flight_record = if matches!(outcome, Outcome::Violation(_)) {
        events
    } else {
        Vec::new()
    };
    ScheduleResult {
        seed,
        app: app.name(),
        outcome,
        faults,
        flight_record,
    }
}

/// The post-trial contract, shared by success and failure paths.
fn classify(
    os: &mut Os,
    result: Result<(), String>,
    last_blob: &Option<(Vec<u8>, Vec<u8>)>,
) -> Outcome {
    if let Err(v) = platform_invariants(os) {
        return Outcome::Violation(v);
    }
    // Disarmed follow-up: the platform must still run Flicker sessions.
    if let Err(v) = drivers::probe(os) {
        return Outcome::Violation(format!("disarmed follow-up failed: {v}"));
    }
    // And any storage blob that escaped before the fault must still
    // unseal to its data. `ReplayDetected` here means the counter outran
    // every surviving ciphertext — the §4.3.2 desync the two-slot
    // lazy-commit protocol exists to prevent.
    if let Some((blob, expect)) = last_blob {
        let read = StoreAction::Read;
        match drivers::storage_session(os, STORAGE_PAL, SWEEP_NV_INDEX, read, blob.clone()) {
            Ok(out) if out == *expect => {}
            Ok(_) => {
                return Outcome::Violation(
                    "permanent storage loss: wrong data after recovery".into(),
                )
            }
            Err(v) => return Outcome::Violation(format!("permanent storage loss: {v}")),
        }
    }
    match result {
        Ok(()) => Outcome::Survived,
        // Injected faults may abort a protocol, but a *verified* bytecode
        // session ending in a VM safety fault means the static verifier's
        // soundness contract broke — never an acceptable recovery.
        Err(e) if crate::vm_safety_fault(&e) => {
            Outcome::Violation(format!("verified session hit a VM safety fault: {e}"))
        }
        Err(e) => Outcome::Recovered(e),
    }
}

/// Platform invariants that must hold after *every* schedule.
fn platform_invariants(os: &Os) -> Result<(), String> {
    if os.saved_state().is_some() {
        return Err("suspend state leaked".into());
    }
    if os.machine().active_skinit().is_some() {
        return Err("launch left active".into());
    }
    let protections = os.machine().dev().active_protections();
    if protections != 0 {
        return Err(format!("{protections} DEV protections leaked"));
    }
    if os.machine().power_lost() {
        return Err("machine left dead".into());
    }
    let mem = os.machine().memory();
    let ram = mem.read(0, mem.size()).map_err(|e| format!("{e:?}"))?;
    if ram.windows(SSH_PASSWORD.len()).any(|w| w == SSH_PASSWORD) {
        return Err("secret password residue in RAM".into());
    }
    Ok(())
}
