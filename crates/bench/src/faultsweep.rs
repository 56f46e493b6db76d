//! Seeded fault-injection sweep across the paper's §6 applications.
//!
//! Each schedule derives a [`FaultPlan`] from its seed, arms a fresh
//! platform (machine, TPM, network link) with the injector, and drives one
//! application through its normal protocol. The contract under test:
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

use flicker_apps::{
    known_good_hash, Administrator, BoincClient, Csr, FlickerCa, IssuancePolicy, PasswdEntry,
    SshClient, SshServer, WorkUnit,
};
use flicker_core::{
    run_session, FlickerResult, NativePal, PalContext, PalPayload, ReplayProtectedStorage,
    SessionParams, SlbImage, SlbOptions,
};
use flicker_crypto::rng::XorShiftRng;
use flicker_crypto::{RsaPrivateKey, RsaPublicKey};
use flicker_faults::{FaultCounts, FaultInjector, FaultPlan};
use flicker_os::{NetLink, Os, OsConfig};
use flicker_tpm::{AikCertificate, PrivacyCa, SealedBlob};
use flicker_trace::{audit, Event, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// The applications the sweep rotates through, by `seed % 5`. The last is
/// a replay-protected-storage workload — the only one that writes TPM NV,
/// so it is what torn-NV-write faults exercise.
pub const APPS: [&str; 5] = ["rootkit", "ssh", "distcomp", "ca", "storage"];

/// The SSH trial's password: a recognisable byte string that must never
/// appear in simulated RAM after a session, faulted or not.
const SSH_PASSWORD: &[u8] = b"SWEEP-SECRET-hunter2";

/// NV index for the storage trial (distinct from any test's).
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
    /// Which application scenario ran.
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

/// Runs `schedules` seeded schedules starting at `base_seed`.
pub fn run_sweep(base_seed: u64, schedules: u64) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in base_seed..base_seed + schedules {
        let result = run_schedule(seed);
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
    let app = APPS[(seed % APPS.len() as u64) as usize];
    let mut os = Os::boot(OsConfig::fast_for_tests((seed % 211) as u8 + 1));
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
    // before the faults are armed.
    let attested = matches!(app, "rootkit" | "ssh");
    let (cert, ca_public) = if attested {
        let mut rng = XorShiftRng::new(seed.wrapping_add(9_000));
        let mut pca = PrivacyCa::new(512, &mut rng);
        os.provision_attestation(&mut pca, "sweep-host")
            .expect("fault-free provisioning");
        (
            Some(os.aik_certificate().expect("just provisioned").clone()),
            Some(pca.public_key().clone()),
        )
    } else {
        (None, None)
    };

    let inj = FaultInjector::new(&FaultPlan::seeded(seed));
    os.machine_mut().set_fault_injector(inj.clone());
    link.set_fault_injector(inj.clone());

    // The storage trial records the newest blob that *escaped* a session
    // (reached the untrusted OS), with the data it should decrypt to.
    let mut last_blob: Option<(Vec<u8>, Vec<u8>)> = None;

    let trial = catch_unwind(AssertUnwindSafe(|| match app {
        "rootkit" => rootkit_trial(
            &mut os,
            link,
            cert.as_ref().expect("provisioned"),
            ca_public.clone().expect("provisioned"),
            seed,
        ),
        "ssh" => ssh_trial(
            &mut os,
            &mut link,
            seed,
            cert.as_ref().expect("provisioned"),
            ca_public.clone().expect("provisioned"),
        ),
        "distcomp" => distcomp_trial(&mut os),
        "ca" => ca_trial(&mut os, seed),
        _ => storage_trial(&mut os, &mut last_blob),
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
        app,
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
    if let Err(v) = probe_session(os) {
        return Outcome::Violation(format!("disarmed follow-up failed: {v}"));
    }
    // And any storage blob that escaped before the fault must still
    // unseal — a permanent ReplayDetected here is the §4.3.2 desync.
    if let Some((blob, expect)) = last_blob {
        if let Err(v) = storage_read(os, blob, expect) {
            return Outcome::Violation(format!("permanent storage loss: {v}"));
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

// ---------------------------------------------------------------------------
// Trials. Each returns Ok(()) only for a fully correct protocol run.
// ---------------------------------------------------------------------------

fn rootkit_trial(
    os: &mut Os,
    link: NetLink,
    cert: &AikCertificate,
    ca_public: RsaPublicKey,
    seed: u64,
) -> Result<(), String> {
    let known_good = known_good_hash(os);
    let mut admin = Administrator::new(ca_public, known_good, link);
    // Alternate between the native detector and the statically verified
    // bytecode one, so the sweep also drives verified PalVM sessions with
    // faults armed (`classify` escalates any VM safety fault).
    let report = if seed.is_multiple_of(2) {
        admin.query(os, cert).map_err(|e| e.to_string())?
    } else {
        admin.query_bytecode(os, cert).map_err(|e| e.to_string())?
    };
    if !report.clean {
        return Err("pristine kernel reported compromised".into());
    }
    Ok(())
}

fn ssh_trial(
    os: &mut Os,
    link: &mut NetLink,
    seed: u64,
    cert: &AikCertificate,
    ca_public: RsaPublicKey,
) -> Result<(), String> {
    let mut server = SshServer::new(vec![PasswdEntry::new("alice", SSH_PASSWORD, b"fl1ck3r")]);
    let mut client = SshClient::new(ca_public);

    let attestation_nonce = [0x55; 20];
    let transcript = server
        .connection_setup(os, link, attestation_nonce)
        .map_err(|e| e.to_string())?;
    client
        .verify_setup(cert, &transcript)
        .map_err(|e| e.to_string())?;

    let nonce = server.issue_nonce();
    let mut rng = XorShiftRng::new(seed.wrapping_add(4_000));
    let ciphertext = client
        .encrypt_password(SSH_PASSWORD, &nonce, &mut rng)
        .map_err(|e| e.to_string())?;
    let outcome = server
        .login(os, link, "alice", &ciphertext, nonce)
        .map_err(|e| e.to_string())?;
    if !outcome.accepted {
        return Err("correct password rejected".into());
    }
    Ok(())
}

fn distcomp_trial(os: &mut Os) -> Result<(), String> {
    let unit = WorkUnit {
        n: 91,
        lo: 2,
        hi: 64,
    };
    let (mut client, _) = BoincClient::start(os, unit).map_err(|e| e.to_string())?;
    client
        .run_slice(os, Duration::from_millis(50))
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn ca_trial(os: &mut Os, seed: u64) -> Result<(), String> {
    let policy = IssuancePolicy {
        allowed_suffixes: vec![".corp.example".into()],
        max_certificates: 8,
    };
    let (mut ca, _) = FlickerCa::init(os, policy).map_err(|e| e.to_string())?;
    let mut rng = XorShiftRng::new(seed.wrapping_add(5_000));
    let (subject_key, _) = RsaPrivateKey::generate(512, &mut rng);
    let csr = Csr {
        subject: "sweep.corp.example".into(),
        public_key: subject_key.public_key().clone(),
    };
    let report = ca.sign(os, &csr).map_err(|e| e.to_string())?;
    report
        .certificate
        .verify(&ca.public_key)
        .map_err(|e| e.to_string())?;
    Ok(())
}

// ---------------------------------------------------------------------------
// The storage trial: a PAL with replay-protected state (§4.3.2), the one
// workload whose NV-counter writes the torn-write fault can hit.
// ---------------------------------------------------------------------------

enum StoreAction {
    /// Define the counter space and seal the first version.
    Init { data: Vec<u8> },
    /// Unseal (input blob), reseal new data.
    Update { data: Vec<u8> },
    /// Unseal (input blob) and emit the data.
    Read,
}

struct StoragePal {
    action: StoreAction,
}

impl NativePal for StoragePal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let store = ReplayProtectedStorage::new(SWEEP_NV_INDEX);
        match &self.action {
            StoreAction::Init { data } => {
                store.setup(ctx, &[0u8; 20])?;
                let blob = store.seal(ctx, data)?;
                ctx.write_output(blob.as_bytes())
            }
            StoreAction::Update { data } => {
                let old = SealedBlob::from_bytes(ctx.inputs().to_vec());
                let _ = store.unseal(ctx, &old)?;
                let blob = store.seal(ctx, data)?;
                ctx.write_output(blob.as_bytes())
            }
            StoreAction::Read => {
                let blob = SealedBlob::from_bytes(ctx.inputs().to_vec());
                let data = store.unseal(ctx, &blob)?;
                ctx.write_output(&data)
            }
        }
    }
}

fn storage_session(os: &mut Os, action: StoreAction, inputs: Vec<u8>) -> Result<Vec<u8>, String> {
    // The same identity for every action: the NV space is gated on the
    // PAL's PCR 17 value, which only an identical measurement reproduces.
    let slb = SlbImage::build(
        PalPayload::Native {
            identity: b"sweep-storage-pal".to_vec(),
            program: Arc::new(StoragePal { action }),
        },
        SlbOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let rec =
        run_session(os, &slb, &SessionParams::with_inputs(inputs)).map_err(|e| e.to_string())?;
    rec.pal_result.clone().map_err(|e| format!("pal: {e}"))?;
    Ok(rec.outputs)
}

fn storage_trial(os: &mut Os, last: &mut Option<(Vec<u8>, Vec<u8>)>) -> Result<(), String> {
    let blob1 = storage_session(
        os,
        StoreAction::Init {
            data: b"state-v1".to_vec(),
        },
        Vec::new(),
    )?;
    *last = Some((blob1.clone(), b"state-v1".to_vec()));

    let blob2 = storage_session(
        os,
        StoreAction::Update {
            data: b"state-v2".to_vec(),
        },
        blob1,
    )?;
    *last = Some((blob2.clone(), b"state-v2".to_vec()));

    let out = storage_session(os, StoreAction::Read, blob2)?;
    if out != b"state-v2" {
        return Err("read returned wrong data".into());
    }
    Ok(())
}

/// Disarmed recovery read: the given blob must still unseal to the
/// expected data. `ReplayDetected` here means the counter outran every
/// surviving ciphertext — the exact desync the two-slot lazy-commit
/// protocol exists to prevent.
fn storage_read(os: &mut Os, blob: &[u8], expect: &[u8]) -> Result<(), String> {
    let out = storage_session(os, StoreAction::Read, blob.to_vec())?;
    if out != expect {
        return Err("wrong data after recovery".into());
    }
    Ok(())
}

/// Disarmed follow-up: a trivial session that must succeed on any
/// recovered platform.
fn probe_session(os: &mut Os) -> Result<(), String> {
    let slb = SlbImage::build(
        PalPayload::Bytecode(flicker_palvm::progs::hello_world()),
        SlbOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let rec = run_session(os, &slb, &SessionParams::default()).map_err(|e| e.to_string())?;
    rec.pal_result.clone().map_err(|e| format!("pal: {e}"))?;
    if rec.outputs != b"Hello, world" {
        return Err("probe outputs wrong".into());
    }
    Ok(())
}
