//! The Flicker session driver: flicker-module + SLB Core.
//!
//! Implements the full timeline of paper Figure 2:
//!
//! ```text
//! accept SLB & inputs → initialize (patch) SLB → suspend OS → SKINIT
//!   → SLB Core init → execute PAL → cleanup (erase secrets)
//!   → extend PCR 17 (I/O, nonce, terminator) → resume OS → return outputs
//! ```
//!
//! The *flicker-module* half (everything outside the SKINIT window) is
//! untrusted: it moves bytes and flips switches, and nothing in the
//! attestation story depends on it behaving. The *SLB Core* half (from
//! SKINIT to resume) is the measured 250-line TCB; its observable actions
//! here are exactly the ones the paper's §4.2 describes.

use crate::attest::{io_measurement, TERMINATOR};
use crate::error::{FlickerError, FlickerResult};
use crate::pal::{vm_regs, PalContext, VmBusAdapter};
use crate::slb::{
    PalPayload, SlbImage, INPUTS_MAX, INPUTS_OFFSET, OUTPUTS_OFFSET, OVERFLOW_OFFSET,
    SAVED_STATE_OFFSET, SLB_MAX,
};
use flicker_machine::{SimClock, Stopwatch};
use flicker_os::Os;
use flicker_palvm::NUM_REGS;
use flicker_trace::{phases, EventKind, OpEvent, Trace};
use std::time::Duration;

/// Default physical address where the flicker-module allocates SLBs (fixed
/// by convention so verifiers can predict the patched measurement).
pub const DEFAULT_SLB_BASE: u64 = 0x10_0000;

/// Extent of the OS-allocated region: the 64 KB SLB plus the two parameter
/// pages.
pub const REGION_LEN: u32 = (SLB_MAX + 0x2000) as u32;

/// Size of the §7.2 hashing-stub SLB (measured value from the paper).
pub const HASHING_STUB_SIZE: usize = 4736;

/// Default instruction budget for bytecode PALs.
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Modelled PalVM execution rate on the paper's hardware, used to convert
/// an `SlbOptions::time_limit` into an instruction budget (a simple
/// interpreter on a 2.2 GHz core executes ~50 M bytecode insns/s).
pub const VM_INSNS_PER_SEC: u64 = 50_000_000;

/// Modelled flicker-module overhead on each side of the session (state
/// save/restore, sysfs traffic).
const SUSPEND_COST: Duration = Duration::from_micros(500);
const RESUME_COST: Duration = Duration::from_micros(500);
/// Modelled SLB Core initialization (GDT/TSS load, segment setup).
const SLBCORE_INIT_COST: Duration = Duration::from_micros(20);

/// Parameters of one Flicker session.
#[derive(Debug, Clone)]
pub struct SessionParams {
    /// Where the flicker-module allocates the SLB.
    pub slb_base: u64,
    /// PAL inputs (copied to the input page).
    pub inputs: Vec<u8>,
    /// Verifier-supplied nonce, extended into PCR 17 with the results
    /// (paper §4.4.1); all-zero when no remote party is involved.
    pub nonce: [u8; 20],
    /// Launch through the 4 736-byte hashing-stub SLB (§7.2 optimisation).
    pub use_hashing_stub: bool,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            slb_base: DEFAULT_SLB_BASE,
            inputs: Vec::new(),
            nonce: [0u8; 20],
            use_hashing_stub: false,
        }
    }
}

impl SessionParams {
    /// Parameters with the given inputs, defaults otherwise.
    pub fn with_inputs(inputs: Vec<u8>) -> Self {
        SessionParams {
            inputs,
            ..Default::default()
        }
    }
}

/// Per-phase virtual-time breakdown (the paper's Table 1 / Figure 9 rows).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionTimings {
    /// Suspend OS (flicker-module).
    pub suspend: Duration,
    /// The `SKINIT` instruction itself.
    pub skinit: Duration,
    /// Hashing-stub measurement of the full window (zero without the stub).
    pub stub_measure: Duration,
    /// PAL execution (application logic including its TPM ops).
    pub pal: Duration,
    /// Cleanup + terminal PCR extends.
    pub cleanup: Duration,
    /// Resume OS.
    pub resume: Duration,
    /// End-to-end session time.
    pub total: Duration,
}

/// Everything a completed session yields.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// PAL outputs (also written to the output page for the OS).
    pub outputs: Vec<u8>,
    /// `Ok` or the PAL's fault, stringified. A faulting PAL still gets
    /// cleanup, terminal extends, and OS resume.
    pub pal_result: Result<(), String>,
    /// SHA-1 of the measured SLB (what SKINIT hashed).
    pub slb_measurement: [u8; 20],
    /// PCR 17 right after `SKINIT` (and stub measurement, if used).
    pub pcr17_entry: [u8; 20],
    /// PCR 17 after the terminal extends — what a quote will show.
    pub pcr17_final: [u8; 20],
    /// Phase timings on the virtual clock.
    pub timings: SessionTimings,
    /// Per-operation timing events from the PAL's context (TPM commands
    /// and charged crypto helpers, in execution order).
    pub ops: Vec<OpEvent>,
}

impl SessionRecord {
    /// The op events as `(operation, simulated duration)` tuples — the
    /// historical shape of this record's log, kept as a view for harness
    /// code that only cares about name + duration.
    pub fn op_log(&self) -> Vec<(&'static str, Duration)> {
        self.ops.iter().map(|e| (e.name, e.duration)).collect()
    }
}

/// The Figure-2 phase names under which [`run_session`] opens one trace
/// span each (in timeline order) when a tracer is installed on the OS.
/// `phase.verify` only appears for bytecode payloads (there is nothing to
/// statically verify about a native PAL's identity manifest).
pub const PHASE_SPAN_NAMES: [&str; 6] = [
    phases::SUSPEND,
    phases::SKINIT,
    phases::STUB_MEASURE,
    phases::PAL,
    phases::CLEANUP,
    phases::RESUME,
];

/// Span name for the pre-launch static-verification phase.
pub const VERIFY_SPAN_NAME: &str = phases::VERIFY;
/// Counter bumped when a bytecode payload passes the static verifier.
pub const VERIFY_ACCEPT_COUNTER: &str = "verify.accept";
/// Counter bumped when a bytecode payload fails the static verifier
/// (possible only via `SlbImage::build_unverified`; the session still
/// runs — the run-time defences are the backstop — but the rejection is
/// on the record).
pub const VERIFY_REJECT_COUNTER: &str = "verify.reject";

/// Span name for the constant-time / secret-flow analysis phase (the
/// `ct-*` checks run as part of verification; this span attributes their
/// verdict separately so dashboards can distinguish a memory-safety
/// rejection from a timing-channel one).
pub const ANALYZE_SPAN_NAME: &str = phases::ANALYZE;
/// Counter bumped when a bytecode payload has no `ct-*` findings.
pub const CT_ACCEPT_COUNTER: &str = "verify.ct_accept";
/// Counter bumped when a bytecode payload has `ct-*` findings (again,
/// reachable only via `SlbImage::build_unverified`).
pub const CT_REJECT_COUNTER: &str = "verify.ct_reject";

/// Counter accumulating bytecode instructions retired inside `phase.pal`
/// (== fuel consumed; the profiler rides the interpreter's hook seam).
/// Per-opcode breakdowns land beside it as `vm.op.<mnemonic>` counters.
pub const VM_INSNS_COUNTER: &str = "vm.insns";
/// Counter accumulating taken loop back-edges across bytecode PAL runs
/// (the hot-loop signal for the profile plane).
pub const VM_LOOP_ITERS_COUNTER: &str = "vm.loop_iters";

/// One open Figure-2 phase. Its `PhaseEnd` is recorded when the phase is
/// ended, or when an early return drops it, so an error can never leave
/// the phase's span open (every later span would nest under it).
struct Phase<'a> {
    tracer: &'a Option<Trace>,
    clock: &'a SimClock,
    name: &'static str,
    start: Duration,
}

impl<'a> Phase<'a> {
    /// Records the `PhaseStart` of `name`.
    fn start(tracer: &'a Option<Trace>, clock: &'a SimClock, name: &'static str) -> Self {
        let start = clock.now();
        if let Some(t) = tracer {
            t.event(start, EventKind::PhaseStart { name });
        }
        Phase {
            tracer,
            clock,
            name,
            start,
        }
    }

    /// Ends the phase and returns its virtual duration.
    fn end(self) -> Duration {
        self.clock.now() - self.start
    }
}

impl Drop for Phase<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.event(self.clock.now(), EventKind::PhaseEnd { name: self.name });
        }
    }
}

/// The deterministic hashing-stub bytes (stands in for the paper's
/// hash+extend stub PAL: "a cryptographic hash function and enough TPM
/// support to perform a PCR Extend", 4 736 bytes).
pub fn hashing_stub_bytes() -> &'static [u8; HASHING_STUB_SIZE] {
    &HASHING_STUB
}

/// Built at compile time: a header (size, entry offset), a marker, and a
/// fixed pattern for the "code".
static HASHING_STUB: [u8; HASHING_STUB_SIZE] = {
    let marker: &[u8] =
        b"FLICKER-HASHING-STUB v1.0: sha1(full 64KB window) -> extend PCR17; then jump to PAL";
    let mut bytes = [0u8; HASHING_STUB_SIZE];
    let size = (HASHING_STUB_SIZE as u16).to_le_bytes();
    bytes[0] = size[0];
    bytes[1] = size[1];
    bytes[2] = 4;
    let mut i = 4;
    while i < HASHING_STUB_SIZE {
        bytes[i] = if i < 4 + marker.len() {
            marker[i - 4]
        } else {
            (i % 251) as u8
        };
        i += 1;
    }
    bytes
};

/// RAII recovery for a suspended OS.
///
/// Created immediately after a successful `suspend_for_session`; disarmed
/// only when the session has resumed the OS itself. If `run_session`
/// returns early through any error path in between, the drop restores the
/// platform to a safe, usable state: scrub the SLB region, cap PCR 17 with
/// the terminator (so the aborted session's measurement chain can never
/// release a sealed secret), resume the OS — or, after a power loss,
/// reboot the machine outright.
struct ResumeGuard<'a> {
    os: &'a mut Os,
    slb_base: u64,
    overflow_len: usize,
    armed: bool,
}

impl ResumeGuard<'_> {
    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for ResumeGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if self.os.machine().power_lost() {
            // Power died mid-session. RAM — and every secret staged in
            // it — is already gone, and PCR 17 resets to -1 at reboot, so
            // nothing can unseal against the dead session's half-built
            // chain. All that is left is to bring the platform back up.
            self.os.reboot_after_power_loss();
            return;
        }
        let machine = self.os.machine_mut();
        // Scrub everything the session staged or the PAL dirtied: the SLB
        // window, both parameter pages, and any overflow region.
        let _ = machine.memory_mut().zeroize(self.slb_base, SLB_MAX);
        let _ = machine
            .memory_mut()
            .zeroize(self.slb_base + INPUTS_OFFSET, 0x2000);
        if self.overflow_len > 0 {
            let _ = machine
                .memory_mut()
                .zeroize(self.slb_base + OVERFLOW_OFFSET, self.overflow_len);
        }
        if machine.active_skinit().is_some() {
            let _ = machine.tpm_op_retrying(|t| t.pcr_extend(17, &TERMINATOR));
            let _ = machine.resume_os();
        } else {
            // SKINIT never ran (or was refused): the APs are still parked
            // from the suspend; bring them back directly.
            machine.cpus_mut().restart_aps();
        }
        let _ = self.os.resume_after_session();
    }
}

/// Runs one complete Flicker session for `slb` on `os`.
///
/// Returns an error only for infrastructure failures (bad SLB placement,
/// machine refusal, injected platform faults); PAL-level faults are
/// reported inside the [`SessionRecord`] because the SLB Core always
/// regains control and resumes the OS. Whenever an error *is* returned,
/// the platform has already been restored: the OS is running again (or
/// rebooted, after a power loss), no suspend state is leaked, the SLB
/// region is scrubbed, and PCR 17 is capped. The trace closes every phase
/// the session opened, before any recovery or reboot event.
pub fn run_session(
    os: &mut Os,
    slb: &SlbImage,
    params: &SessionParams,
) -> FlickerResult<SessionRecord> {
    if params.inputs.len() > INPUTS_MAX {
        return Err(FlickerError::SlbBuild("inputs exceed the input region"));
    }
    if slb.is_large() && !params.use_hashing_stub {
        // SKINIT's header length field cannot describe more than 64 KB;
        // larger PALs need the preparatory (stub) code that extends the
        // DEV and measures the extra region (paper §4.2).
        return Err(FlickerError::SlbBuild(
            "large PALs require the hashing-stub launch path",
        ));
    }
    let clock = os.clock();
    let tracer = os.machine().tracer().cloned();
    let total_sw = Stopwatch::start(&clock);
    let slb_base = params.slb_base;
    let session_id = tracer.as_ref().map(|t| {
        let id = t.next_session_id();
        t.event(clock.now(), EventKind::SessionStart { id });
        id
    });

    // ----- Static verification (observability) ------------------------------
    // `SlbImage::build` already gates on the verifier; re-running it here
    // puts the verdict in the session trace, so a sweep over recorded
    // sessions can assert "no verified PAL ever faulted" — and so images
    // smuggled in through `build_unverified` are visibly on the record.
    if let PalPayload::Bytecode(prog) = slb.payload() {
        let verify = Phase::start(&tracer, &clock, VERIFY_SPAN_NAME);
        let verdict = flicker_verifier::verify_program(prog);
        if let Some(t) = tracer.as_ref() {
            t.counter_add(
                if verdict.is_ok() {
                    VERIFY_ACCEPT_COUNTER
                } else {
                    VERIFY_REJECT_COUNTER
                },
                1,
            );
        }
        verify.end();
        // The ct verdict is a subset of the findings above; a separate
        // span + counter pair keeps timing-channel rejections visible
        // without re-running the analysis.
        let analyze = Phase::start(&tracer, &clock, ANALYZE_SPAN_NAME);
        if let Some(t) = tracer.as_ref() {
            t.counter_add(
                if verdict.ct_clean() {
                    CT_ACCEPT_COUNTER
                } else {
                    CT_REJECT_COUNTER
                },
                1,
            );
        }
        analyze.end();
    }

    // ----- Accept SLB + inputs; initialize (patch) the SLB ------------------
    // (flicker-module, untrusted). The OS is still running here, so a
    // failure only needs the staged bytes scrubbed, not a resume.
    let patched = slb.patched_bytes(slb_base);
    let (measured_at_base, app_offset, overflow) =
        match stage_images(os, slb_base, &patched, params) {
            Ok(staged) => staged,
            Err(e) => {
                scrub_staging(os, slb_base, patched.len(), params.use_hashing_stub);
                return Err(e);
            }
        };

    // ----- Suspend OS ---------------------------------------------------------
    let suspend = Phase::start(&tracer, &clock, phases::SUSPEND);
    if let Err(e) = os.suspend_for_session() {
        scrub_staging(os, slb_base, patched.len(), params.use_hashing_stub);
        return Err(e.into());
    }
    // From here until the OS is back, every early return must restore the
    // platform; the guard's drop does exactly that.
    let mut guard = ResumeGuard {
        os,
        slb_base,
        overflow_len: overflow.len(),
        armed: true,
    };
    // Rebound after the guard so that, on an early return, the phase drops
    // first: its `PhaseEnd` lands before the guard's recovery or reboot.
    let suspend = suspend;
    let saved_state = guard
        .os
        .saved_state()
        .expect("suspend_for_session stores state")
        .to_bytes();
    let machine = guard.os.machine_mut();
    machine
        .memory_mut()
        .write(slb_base + SAVED_STATE_OFFSET, &saved_state)?;
    machine.charge_cpu(SUSPEND_COST);
    machine.check_power()?;
    let t_suspend = suspend.end();

    // ----- SKINIT ---------------------------------------------------------------
    let skinit = Phase::start(&tracer, &clock, phases::SKINIT);
    let launch = machine.skinit(0, slb_base)?;
    let slb_measurement = launch.measurement;
    debug_assert_eq!(
        slb_measurement,
        flicker_crypto::sha1::sha1(measured_at_base)
    );
    machine.check_power()?;
    let t_skinit = skinit.end();

    // ----- Hashing stub (optional §7.2 path) --------------------------------------
    let stub = Phase::start(&tracer, &clock, phases::STUB_MEASURE);
    if params.use_hashing_stub {
        // The stub hashes the full 64 KB window on the main CPU and extends
        // the result into PCR 17.
        let window = machine.memory().read(slb_base, SLB_MAX)?.to_vec();
        // The stub's hashing *time* is always charged (the stub really runs
        // on the main CPU every session); the measurement memo only skips
        // the host-side recomputation for an unchanged window.
        let cost = machine.cpu_cost().sha1(window.len());
        machine.charge_cpu(cost);
        let (window_hash, _) = machine.sha1_memoized(&window);
        machine.tpm_op_retrying(|t| t.pcr_extend(17, &window_hash))?;
        if !overflow.is_empty() {
            // Large PAL: the preparatory code adds the overflow region to
            // the DEV and measures it into PCR 17 before any of it runs
            // (paper §4.2).
            machine.extend_protection(slb_base + OVERFLOW_OFFSET, overflow.len() as u64)?;
            let cost = machine.cpu_cost().sha1(overflow.len());
            machine.charge_cpu(cost);
            let overflow_hash = flicker_crypto::sha1::sha1(&overflow);
            machine.tpm_op_retrying(|t| t.pcr_extend(17, &overflow_hash))?;
        }
    }
    machine.check_power()?;
    let t_stub = stub.end();

    // ----- SLB Core init + PAL execution ---------------------------------------
    let pal = Phase::start(&tracer, &clock, phases::PAL);
    machine.charge_cpu(SLBCORE_INIT_COST);
    // The SLB Core records the entry measurement (PCR 17 after SKINIT and
    // any stub extends) before jumping to the PAL; charging the read here
    // keeps the per-phase durations summing to the session total.
    let pcr17_entry = machine.tpm_op_retrying(|t| t.pcr_read(17))?;
    // Verify the PAL actually sits at its launch offset before jumping to
    // it: the SLB Core's jump target is `slb_base + app_offset`, and if the
    // flicker-module staged the image anywhere else the core must abort
    // rather than execute whatever bytes happen to live there.
    let probe_len = patched.len().min(64);
    let at_offset = machine
        .memory()
        .read(slb_base + app_offset as u64, probe_len)?;
    if at_offset != &patched[..probe_len] {
        return Err(FlickerError::Protocol("PAL image not at its launch offset"));
    }
    let region_len = REGION_LEN.max((OVERFLOW_OFFSET as usize + overflow.len()) as u32);
    let mut ctx = PalContext::new(
        &mut *machine,
        slb_base,
        region_len,
        slb.options.os_protection,
        params.inputs.clone(),
    );
    // The §5.1.2 timing restriction: a wall-time bound becomes an
    // instruction budget for bytecode PALs.
    let fuel = slb.options.fuel.or_else(|| {
        slb.options
            .time_limit
            .map(|t| (t.as_secs_f64() * VM_INSNS_PER_SEC as f64) as u64)
    });
    let pal_start = clock.now();
    let mut pal_result = execute_payload(slb.payload(), &mut ctx, fuel, tracer.as_ref());
    let mut timed_out = false;
    if let (Ok(()), Some(limit)) = (&pal_result, slb.options.time_limit) {
        // Native PALs cannot be preempted; enforce the bound after the
        // fact so a runaway PAL is at least *reported*.
        if clock.now() - pal_start > limit {
            timed_out = true;
            pal_result = Err(format!(
                "PAL exceeded its time limit of {limit:?} (ran {:?})",
                clock.now() - pal_start
            ));
        }
    }
    let mut outputs = ctx.take_outputs();
    if timed_out {
        // A PAL that blew through its timing restriction (§5.1.2) gets no
        // output channel: publishing would let a runaway PAL exfiltrate
        // through a path the session already declared faulted.
        outputs.clear();
    }
    let ops = ctx.take_ops();
    machine.check_power()?;
    let t_pal = pal.end();

    // ----- Cleanup + terminal extends (SLB Core) ---------------------------------
    let cleanup = Phase::start(&tracer, &clock, phases::CLEANUP);
    // Erase every byte the PAL could have dirtied: the 64 KB window, the
    // input page, and the whole output page (so a short or discarded
    // output never leaves a previous session's bytes behind).
    machine.memory_mut().zeroize(slb_base, SLB_MAX)?;
    machine
        .memory_mut()
        .zeroize(slb_base + INPUTS_OFFSET, 0x1000)?;
    machine
        .memory_mut()
        .zeroize(slb_base + OUTPUTS_OFFSET, 0x1000)?;
    if !overflow.is_empty() {
        machine
            .memory_mut()
            .zeroize(slb_base + OVERFLOW_OFFSET, overflow.len())?;
    }
    // Publish outputs through the output page (length header ‖ bytes; both
    // bounded to the page by `OUTPUTS_MAX`).
    machine
        .memory_mut()
        .write_u32_le(slb_base + OUTPUTS_OFFSET, outputs.len() as u32)?;
    machine
        .memory_mut()
        .write(slb_base + OUTPUTS_OFFSET + 4, &outputs)?;
    // Terminal extends (paper §4.4.1): measurements of the inputs and
    // outputs, the verifier nonce, then the fixed public terminator that
    // revokes PAL secrets and closes the PAL's extension authority.
    let io = io_measurement(&params.inputs, &outputs);
    machine.tpm_op_retrying(|t| t.pcr_extend(17, &io))?;
    machine.tpm_op_retrying(|t| t.pcr_extend(17, &params.nonce))?;
    machine.tpm_op_retrying(|t| t.pcr_extend(17, &TERMINATOR))?;
    let pcr17_final = machine.tpm_op_retrying(|t| t.pcr_read(17))?;
    machine.check_power()?;
    let t_cleanup = cleanup.end();

    // ----- Resume OS ---------------------------------------------------------------
    let resume = Phase::start(&tracer, &clock, phases::RESUME);
    machine.resume_os()?;
    machine.charge_cpu(RESUME_COST);
    machine.check_power()?;
    guard.os.resume_after_session()?;
    guard.disarm();
    let t_resume = resume.end();
    if let (Some(t), Some(id)) = (tracer.as_ref(), session_id) {
        t.event(clock.now(), EventKind::SessionEnd { id });
    }

    Ok(SessionRecord {
        outputs,
        pal_result,
        slb_measurement,
        pcr17_entry,
        pcr17_final,
        timings: SessionTimings {
            suspend: t_suspend,
            skinit: t_skinit,
            stub_measure: t_stub,
            pal: t_pal,
            cleanup: t_cleanup,
            resume: t_resume,
            total: total_sw.elapsed(),
        },
        ops,
    })
}

/// Copies the SLB image (or hashing stub + image) and the inputs into the
/// session's physical region. Returns the bytes SKINIT will measure at
/// `slb_base`, the PAL's offset within the window, and any overflow bytes.
fn stage_images<'a>(
    os: &mut Os,
    slb_base: u64,
    patched: &'a [u8],
    params: &SessionParams,
) -> FlickerResult<(&'a [u8], usize, Vec<u8>)> {
    let staged = if params.use_hashing_stub {
        let stub = hashing_stub_bytes();
        os.machine_mut().memory_mut().write(slb_base, stub)?;
        // Zero the rest of the window, then place the app image above the
        // stub (still inside the DEV-protected, stub-measured 64 KB). A
        // large image continues in the overflow region above the parameter
        // pages.
        os.machine_mut()
            .memory_mut()
            .zeroize(slb_base + stub.len() as u64, SLB_MAX - stub.len())?;
        let in_window = patched.len().min(SLB_MAX - HASHING_STUB_SIZE);
        os.machine_mut()
            .memory_mut()
            .write(slb_base + HASHING_STUB_SIZE as u64, &patched[..in_window])?;
        let overflow = patched[in_window..].to_vec();
        if !overflow.is_empty() {
            os.machine_mut()
                .memory_mut()
                .write(slb_base + OVERFLOW_OFFSET, &overflow)?;
        }
        (&stub[..], HASHING_STUB_SIZE, overflow)
    } else {
        os.machine_mut().memory_mut().write(slb_base, patched)?;
        (patched, 0, Vec::new())
    };
    os.machine_mut()
        .memory_mut()
        .write(slb_base + INPUTS_OFFSET, &params.inputs)?;
    Ok(staged)
}

/// Best-effort scrub of everything staging may have written. Used on the
/// pre-SKINIT failure paths, where the OS is still running and nothing
/// else needs restoring.
///
/// The overflow region is only in play on the hashing-stub path (that's
/// the launch mode that displaces the image by the stub size); a direct
/// launch never wrote there, and an image long enough to trip the size
/// arithmetic must not cause a scrub of memory the session never touched.
fn scrub_staging(os: &mut Os, slb_base: u64, image_len: usize, used_stub: bool) {
    let mem = os.machine_mut().memory_mut();
    let _ = mem.zeroize(slb_base, SLB_MAX);
    let _ = mem.zeroize(slb_base + INPUTS_OFFSET, 0x1000);
    if used_stub && image_len > SLB_MAX - HASHING_STUB_SIZE {
        let overflow_len = image_len - (SLB_MAX - HASHING_STUB_SIZE);
        let _ = mem.zeroize(slb_base + OVERFLOW_OFFSET, overflow_len);
    }
}

fn execute_payload(
    payload: &PalPayload,
    ctx: &mut PalContext<'_>,
    fuel: Option<u64>,
    tracer: Option<&Trace>,
) -> Result<(), String> {
    match payload {
        PalPayload::Native { program, .. } => {
            let program = program.clone();
            program.run(ctx).map_err(|e| e.to_string())
        }
        PalPayload::Bytecode(prog) => {
            let mut regs = [0u32; NUM_REGS];
            regs[vm_regs::INPUTS] = ctx.inputs_logical_addr();
            regs[vm_regs::OUTPUTS] = ctx.inputs_logical_addr() + 0x1000;
            regs[vm_regs::INPUT_LEN] = ctx.inputs().len() as u32;
            let mut bus = VmBusAdapter { ctx };
            let fuel = fuel.unwrap_or(DEFAULT_FUEL);
            match tracer {
                // With a recorder installed, run under the instruction
                // profiler and feed the retirement counts into the trace
                // — counts survive a fault, so even a PAL that runs out
                // of fuel shows where the budget went.
                Some(t) => {
                    let mut profiler = flicker_palvm::InsnProfiler::new();
                    let result = flicker_palvm::run_with_hook(
                        &prog.code,
                        &mut bus,
                        fuel,
                        regs,
                        &mut profiler,
                    );
                    for (name, n) in profiler.counter_pairs() {
                        t.counter_add(name, n);
                    }
                    let prof = profiler.finish();
                    t.counter_add(VM_INSNS_COUNTER, prof.executed);
                    t.counter_add(
                        VM_LOOP_ITERS_COUNTER,
                        prof.loops.iter().map(|l| l.iterations).sum(),
                    );
                    result.map(|_| ()).map_err(|e| e.to_string())
                }
                None => flicker_palvm::run_with_regs(&prog.code, &mut bus, fuel, regs)
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
            }
        }
    }
}
