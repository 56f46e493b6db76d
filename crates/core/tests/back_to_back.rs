//! Back-to-back PAL sessions on one machine, under seeded TPM faults.
//!
//! Sessions on one machine share state that outlives a PAL run: the auth
//! session parked between commands (continued with rolling nonces, §7.6)
//! and the SKINIT measurement memo. The property: for any seeded schedule
//! of TPM busy gates and torn NV writes, three back-to-back sessions of one
//! PAL each return the PAL's payload, every audit verdict is clean, the
//! memo serves at least two of the three launches, and the TPM holds at
//! most one live auth session afterwards.

use flicker_core::{
    run_session, FlickerResult, NativePal, PalContext, PalPayload, ReplayProtectedStorage,
    SessionParams, SlbImage, SlbOptions,
};
use flicker_faults::{Fault, FaultInjector, FaultPlan};
use flicker_os::{Os, OsConfig};
use flicker_trace::audit::{self, AuditVerdict};
use flicker_trace::{EventKind, Trace};
use proptest::prelude::*;
use std::sync::Arc;

/// NV index for this harness's storage workload (distinct from the fault
/// sweep's `0x0001_4000`, the perf baseline's `0x0001_5000`, and the
/// farm's `0x0001_6000`).
const NV_INDEX: u32 = 0x0001_7000;

const ROUNDTRIP_PAYLOAD: &[u8] = b"back-to-back-payload";
const STORAGE_STATE: &[u8] = b"back-to-back-state";

/// Seals a fixed payload to itself and proves it can get it back: the same
/// image and the same payload every run.
struct SealRoundtripPal;
impl NativePal for SealRoundtripPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let blob = ctx.seal_to_self(ROUNDTRIP_PAYLOAD)?;
        let back = ctx.unseal(&blob)?;
        ctx.write_output(&back)
    }
}

/// A replay-protected storage chain inside one session: setup, seal,
/// unseal. Its NV counter advances every run, so no two seals carry the
/// same payload.
struct StorageChainPal;
impl NativePal for StorageChainPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let store = ReplayProtectedStorage::new(NV_INDEX);
        store.setup(ctx, &[0u8; 20])?;
        let blob = store.seal(ctx, STORAGE_STATE)?;
        let data = store.unseal(ctx, &blob)?;
        ctx.write_output(&data)
    }
}

/// The image to launch and the output every session of it must release
/// (which doubles as the PAL's identity).
fn build_slb(storage: bool) -> (SlbImage, &'static [u8]) {
    let (program, expected): (Arc<dyn NativePal>, &'static [u8]) = if storage {
        (Arc::new(StorageChainPal), STORAGE_STATE)
    } else {
        (Arc::new(SealRoundtripPal), ROUNDTRIP_PAYLOAD)
    };
    let identity = expected.to_vec();
    let slb = SlbImage::build(
        PalPayload::Native { identity, program },
        SlbOptions::default(),
    );
    (slb.unwrap(), expected)
}

/// Decodes a generated `(kind, skip, mag)` triple into a fault plan whose
/// recovery is deterministic: TPM busy gates are absorbed by the bounded
/// backoff, and a torn NV write leaves the other commit slot standing.
/// Power loss is exercised separately (it reboots the machine and drops
/// the parked session).
fn plan(kind: u8, skip: u32, mag: u32) -> FaultPlan {
    match kind {
        1 => FaultPlan::one(Fault::TpmTransient {
            skip,
            failures: mag.clamp(1, 2),
        }),
        2 => FaultPlan::one(Fault::TornNvWrite {
            skip: skip % 4,
            keep: mag as usize * 3,
        }),
        _ => FaultPlan::none(),
    }
}

/// One PAL session's observable result: what the PAL computed (or how it
/// failed) and what the session released.
type Outcome = (Result<(), String>, Vec<u8>);

struct RunRecord {
    outcomes: Vec<Outcome>,
    expected: &'static [u8],
    verdict: AuditVerdict,
    memo_hits: u64,
    open_sessions: usize,
}

/// SKINIT launches the measurement memo served. `warm.hit` also counts
/// parked-session reuses, but every other `warm.miss` opened a
/// `TPM_OIAP`, so the launches that missed are `warm.miss` minus OIAPs.
fn memo_hits(trace: &Trace) -> u64 {
    let launches = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Skinit { .. }))
        .count() as u64;
    let oiaps = trace.histogram("tpm.TPM_OIAP").map_or(0, |h| h.count());
    launches - (trace.counter("warm.miss") - oiaps)
}

/// Runs `iterations` back-to-back sessions of one image on a fresh
/// platform under one armed fault schedule carried across the whole run
/// (consumed gates stay consumed, as in the farm).
fn drive(seed: u8, schedule: &FaultPlan, storage: bool, iterations: usize) -> RunRecord {
    let mut os = Os::boot(OsConfig::fast_for_tests(seed));
    let trace = Trace::new();
    os.set_tracer(trace.clone());
    let (slb, expected) = build_slb(storage);
    os.machine_mut()
        .set_fault_injector(FaultInjector::new(schedule));
    let mut outcomes = Vec::new();
    for _ in 0..iterations {
        match run_session(&mut os, &slb, &SessionParams::default()) {
            Ok(rec) => outcomes.push((
                rec.pal_result.clone().map_err(|e| e.to_string()),
                rec.outputs.clone(),
            )),
            Err(e) => outcomes.push((Err(e.to_string()), Vec::new())),
        }
    }
    os.machine_mut().clear_fault_injector();
    RunRecord {
        outcomes,
        expected,
        verdict: audit::audit_trace(&trace),
        memo_hits: memo_hits(&trace),
        open_sessions: os.machine().tpm().open_session_count(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property (see module docs).
    #[test]
    fn back_to_back_sessions_recover_and_reuse_machine_state(
        seed in 1u8..200,
        kind in 0u8..3,
        skip in 0u32..6,
        mag in 1u32..3,
        storage in any::<bool>(),
    ) {
        let schedule = plan(kind, skip, mag);
        let run = drive(seed, &schedule, storage, 3);
        for (result, output) in &run.outcomes {
            prop_assert!(result.is_ok(), "session failed under {:?}: {:?}", schedule, result);
            prop_assert_eq!(output.as_slice(), run.expected);
        }
        prop_assert!(run.verdict.is_clean(), "audit: {:?}", run.verdict);
        prop_assert!(run.memo_hits >= 2, "memo served {} launches", run.memo_hits);
        prop_assert!(run.open_sessions <= 1, "{} live auth sessions", run.open_sessions);
    }
}
