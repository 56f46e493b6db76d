//! The simulated platform: CPU complex + RAM + chipset DEV + TPM.
//!
//! This is the substrate standing in for the paper's HP dc5750 (AMD
//! Athlon64 X2 with SVM, Broadcom v1.2 TPM). The [`Machine::skinit`]
//! method implements the architectural contract of AMD's `SKINIT`
//! instruction (paper §2.4), and the surrounding methods model the
//! machine-level facts Flicker's security argument depends on.

use crate::clock::SimClock;
use crate::cpu::{CpuComplex, CpuMode};
use crate::cpumodel::CpuCostModel;
use crate::dev::{DevProtection, DeviceExclusionVector};
use crate::error::{MachineError, MachineResult};
use crate::memory::PhysMemory;
use crate::retry::RetryPolicy;
use crate::skinit::{SkinitCostModel, SLB_MAX_LEN};
use flicker_crypto::memo::Memo;
use flicker_crypto::sha1::sha1;
use flicker_faults::{fired, FaultInjector};
use flicker_tpm::{ClientSession, Tpm, TpmConfig, TpmError, TpmResult};
use flicker_trace::attribution::categories;
use flicker_trace::{EventKind, Trace};
use std::time::Duration;

/// Backoff schedule for transient TPM busy responses: the driver retries a
/// `TPM_E_RETRY` after these successive waits (then gives up). Four attempts
/// total — generous against the injector's 1–2 consecutive busy responses,
/// and bounded so a hard-failed TPM still surfaces promptly. Kept as a
/// const for callers that budget deadlines; it is definitionally equal to
/// [`RetryPolicy::tpm_default`]'s schedule (a unit test pins the two
/// together).
pub const TPM_RETRY_BACKOFF: [Duration; 3] = [
    Duration::from_millis(1),
    Duration::from_millis(2),
    Duration::from_millis(4),
];

/// Images kept in the measurement memo. Each entry holds a full image copy
/// (up to 64 KB); a handful covers a machine cycling through its PAL set.
const MEASURE_MEMO_CAP: usize = 4;

/// Configuration for building a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Installed physical RAM in bytes.
    pub mem_size: usize,
    /// Number of CPU cores (the paper's machine is a dual-core).
    pub num_cores: usize,
    /// TPM configuration.
    pub tpm: TpmConfig,
    /// `SKINIT` latency model.
    pub skinit_cost: SkinitCostModel,
    /// CPU compute cost model.
    pub cpu_cost: CpuCostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mem_size: 32 * 1024 * 1024,
            num_cores: 2,
            tpm: TpmConfig::default(),
            skinit_cost: SkinitCostModel::default(),
            cpu_cost: CpuCostModel::default(),
        }
    }
}

impl MachineConfig {
    /// Small memory + fast TPM keys, for unit tests.
    pub fn fast_for_tests(seed: u8) -> Self {
        MachineConfig {
            mem_size: 4 * 1024 * 1024,
            tpm: TpmConfig::fast_for_tests(seed),
            ..MachineConfig::default()
        }
    }
}

/// State saved by `SKINIT` entry so `resume_os` can restore the platform.
#[derive(Debug, Clone)]
struct SavedCpuState {
    interrupts_enabled: bool,
    debug_enabled: bool,
    mode: CpuMode,
}

/// An in-progress late launch.
#[derive(Debug)]
pub struct ActiveSkinit {
    /// Physical base of the SLB.
    pub slb_base: u64,
    /// Declared SLB length (from the SLB header).
    pub slb_len: usize,
    /// Declared entry point offset.
    pub entry_point: u16,
    /// SHA-1 measurement of the SLB, as extended into PCR 17.
    pub measurement: [u8; 20],
    dev_token: DevProtection,
    extra_dev_tokens: Vec<DevProtection>,
    saved: SavedCpuState,
}

/// The simulated platform.
pub struct Machine {
    clock: SimClock,
    tpm: Tpm,
    memory: PhysMemory,
    cpus: CpuComplex,
    dev: DeviceExclusionVector,
    skinit_cost: SkinitCostModel,
    cpu_cost: CpuCostModel,
    active: Option<ActiveSkinit>,
    injector: Option<FaultInjector>,
    tracer: Option<Trace>,
    power_lost: bool,
    /// The auth session the last authorized command left open
    /// (`continueAuthSession`), parked for the next command or PAL run so
    /// it need not open a fresh `TPM_OIAP` (§7.6). Dropped by
    /// [`Machine::drop_parked_session`].
    parked_session: Option<ClientSession>,
    /// Image bytes → SHA-1 ([`Machine::sha1_memoized`]).
    measure_memo: Memo<Vec<u8>, [u8; 20], MEASURE_MEMO_CAP>,
}

impl Machine {
    /// Builds a machine from `config`.
    ///
    /// The TPM arrives owned (`TakeOwnership` already run) — the state of
    /// any deployed platform, and required before Seal/Unseal work.
    pub fn new(config: MachineConfig) -> Self {
        let mut tpm = Tpm::manufacture(config.tpm);
        tpm.take_ownership();
        let clock = SimClock::new();
        let mut memory = PhysMemory::new(config.mem_size);
        memory.set_clock(clock.clone());
        Machine {
            clock,
            tpm,
            memory,
            cpus: CpuComplex::new(config.num_cores),
            dev: DeviceExclusionVector::new(),
            skinit_cost: config.skinit_cost,
            cpu_cost: config.cpu_cost,
            active: None,
            injector: None,
            tracer: None,
            power_lost: false,
            parked_session: None,
            measure_memo: Memo::default(),
        }
    }

    // ----- warm path (§7.6) -----------------------------------------------

    /// Takes the parked auth session, if any. The caller parks it back
    /// once a command has left it live and nonce-synchronized.
    pub fn take_parked_session(&mut self) -> Option<ClientSession> {
        self.parked_session.take()
    }

    /// Parks a live auth session for the next authorized command.
    pub fn park_session(&mut self, session: ClientSession) {
        self.parked_session = Some(session);
    }

    /// Drops the parked auth session, bumping `warm.invalidate` if there
    /// was one. Reboot and power-cycle call this; the farm calls it on
    /// quarantine. The measurement memo stays: it is keyed by the exact
    /// bytes, so it cannot go stale.
    pub fn drop_parked_session(&mut self) {
        if self.parked_session.take().is_some() {
            if let Some(t) = &self.tracer {
                t.counter_add("warm.invalidate", 1);
            }
        }
    }

    /// SHA-1 of `bytes` through the measurement memo, and whether the memo
    /// already held it. SKINIT and the hashing stub re-measure the same
    /// image every session; a hit skips only the host-side hashing, so
    /// callers charge the simulated hashing time either way.
    pub fn sha1_memoized(&mut self, bytes: &[u8]) -> ([u8; 20], bool) {
        self.measure_memo.get_or_insert_with(bytes, || sha1(bytes))
    }

    // ----- tracing --------------------------------------------------------

    /// Installs a trace recorder across every substrate, mirroring
    /// [`Machine::set_fault_injector`]: the TPM records per-ordinal command
    /// latency, physical memory counts store/zeroize traffic, and the
    /// machine itself records SKINIT latency, DEV operations, charged CPU
    /// time, and TPM driver retries.
    pub fn set_tracer(&mut self, tracer: Trace) {
        self.tpm.set_tracer(tracer.clone());
        self.memory.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// Removes any installed trace recorder from every substrate.
    pub fn clear_tracer(&mut self) {
        self.tpm.clear_tracer();
        self.memory.clear_tracer();
        self.tracer = None;
    }

    /// The installed trace recorder, if any (cheap cloneable handle).
    pub fn tracer(&self) -> Option<&Trace> {
        self.tracer.as_ref()
    }

    /// Records a flight-recorder event at the current virtual time.
    fn emit(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.event(self.clock.now(), kind);
        }
    }

    /// Drains the TPM's pended flight-recorder events, stamping each with
    /// the current virtual time (the completion time of the command batch
    /// that produced them — the clock has just been advanced by
    /// `take_elapsed`).
    fn drain_tpm_events(&mut self) {
        if self.tracer.is_some() {
            for kind in self.tpm.take_pending_events() {
                self.emit(kind);
            }
        } else {
            self.tpm.take_pending_events();
        }
    }

    // ----- fault injection ------------------------------------------------

    /// Installs a fault injector across every substrate: the TPM's command
    /// gates, physical memory's store gate, and the machine's own power
    /// monitor. The plan's relative power deadline is armed against the
    /// current virtual clock.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        injector.arm_power_base(self.clock.now());
        self.tpm.set_fault_injector(injector.clone());
        self.memory.set_fault_injector(injector.clone());
        self.injector = Some(injector);
        self.power_lost = false;
    }

    /// Removes any installed fault injector from every substrate.
    pub fn clear_fault_injector(&mut self) {
        self.tpm.clear_fault_injector();
        self.memory.clear_fault_injector();
        self.injector = None;
    }

    /// The installed fault injector, if any (cheap cloneable handle).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// True once an injected power loss has struck and the machine has not
    /// yet been power-cycled.
    pub fn power_lost(&self) -> bool {
        self.power_lost
    }

    /// Errors with [`MachineError::PowerLoss`] if power has been lost.
    /// Drivers call this at phase boundaries so a mid-session cut surfaces
    /// as an error instead of silently continuing on a dead platform.
    pub fn check_power(&self) -> MachineResult<()> {
        if self.power_lost {
            Err(MachineError::PowerLoss)
        } else {
            Ok(())
        }
    }

    /// Latches the power-lost flag if the armed deadline has passed.
    fn poll_power(&mut self) {
        if !self.power_lost {
            if let Some(inj) = &self.injector {
                if inj.power_loss_due(self.clock.now()) {
                    self.power_lost = true;
                    self.emit(EventKind::FaultInjected {
                        fault: fired::POWER_LOSS.to_string(),
                    });
                }
            }
        }
    }

    /// Power-cycles the platform after a power loss: RAM contents are gone
    /// (every in-flight secret died with the charge in the cells), the TPM
    /// reboots (dynamic PCRs back to −1), CPUs and chipset reset, and any
    /// active late launch is destroyed.
    pub fn power_cycle(&mut self) {
        let size = self.memory.size();
        self.memory
            .zeroize(0, size)
            .expect("full-RAM zeroize is in range");
        self.tpm.reboot();
        self.cpus = CpuComplex::new(self.cpus.len());
        self.dev = DeviceExclusionVector::new();
        self.active = None;
        self.power_lost = false;
        self.drop_parked_session();
        self.emit(EventKind::Reboot);
    }

    // ----- accessors -----------------------------------------------------

    /// The platform clock (cloneable handle).
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Physical memory, immutably.
    pub fn memory(&self) -> &PhysMemory {
        &self.memory
    }

    /// Physical memory, mutably (CPU-initiated access: not DEV-checked; the
    /// DEV only filters *device* traffic).
    pub fn memory_mut(&mut self) -> &mut PhysMemory {
        &mut self.memory
    }

    /// The CPU complex.
    pub fn cpus(&self) -> &CpuComplex {
        &self.cpus
    }

    /// The CPU complex, mutably.
    pub fn cpus_mut(&mut self) -> &mut CpuComplex {
        &mut self.cpus
    }

    /// The CPU compute cost model.
    pub fn cpu_cost(&self) -> &CpuCostModel {
        &self.cpu_cost
    }

    /// The SKINIT cost model.
    pub fn skinit_cost(&self) -> &SkinitCostModel {
        &self.skinit_cost
    }

    /// The currently active late launch, if any.
    pub fn active_skinit(&self) -> Option<&ActiveSkinit> {
        self.active.as_ref()
    }

    /// Runs a TPM operation (software locality 0–2) and charges the TPM's
    /// consumed time to the platform clock (attributed to the active
    /// request's `tpm` category; the pended per-ordinal events carry the
    /// drill-down durations).
    pub fn tpm_op<T>(&mut self, f: impl FnOnce(&mut Tpm) -> T) -> T {
        let out = f(&mut self.tpm);
        let elapsed = self.tpm.take_elapsed();
        self.clock.advance(elapsed);
        if let Some(t) = &self.tracer {
            t.charge(self.clock.now(), categories::TPM, elapsed);
        }
        self.drain_tpm_events();
        self.poll_power();
        out
    }

    /// Runs a TPM operation with driver-side retry under the default
    /// schedule ([`RetryPolicy::tpm_default`], i.e. [`TPM_RETRY_BACKOFF`]):
    /// a `TPM_E_RETRY` answer is retried after each backoff (charged to
    /// the virtual clock), then surfaced to the caller. Any other result is
    /// returned immediately.
    ///
    /// Authorization discipline: each attempt needs a *fresh odd nonce*
    /// (the TPM rejects a repeated one), so the authorization block must be
    /// produced inside `f`. The session itself may live across attempts —
    /// a transient-busy gate fires before the TPM looks at the session, so
    /// its nonce state is untouched — but a session consumed by a real
    /// authorization failure must be reopened, and continued sessions must
    /// absorb the TPM's response auth after every non-busy attempt.
    pub fn tpm_op_retrying<T>(&mut self, f: impl FnMut(&mut Tpm) -> TpmResult<T>) -> TpmResult<T> {
        self.tpm_op_retrying_with(&RetryPolicy::tpm_default(), f)
    }

    /// [`Machine::tpm_op_retrying`] under a caller-supplied [`RetryPolicy`]
    /// (nominal schedule only — TPM driver retries don't jitter; session
    /// level retry jitter is the farm scheduler's job).
    pub fn tpm_op_retrying_with<T>(
        &mut self,
        policy: &RetryPolicy,
        mut f: impl FnMut(&mut Tpm) -> TpmResult<T>,
    ) -> TpmResult<T> {
        let mut retry = 0u32;
        loop {
            let out = self.tpm_op(&mut f);
            match out {
                Err(TpmError::Retry) => match policy.backoff(retry) {
                    Some(wait) => {
                        retry += 1;
                        if let Some(t) = &self.tracer {
                            t.counter_add("tpm.retry", 1);
                        }
                        self.charge_backoff(wait);
                        if self.power_lost {
                            return Err(TpmError::Retry);
                        }
                    }
                    None => return Err(TpmError::Retry),
                },
                other => return other,
            }
        }
    }

    /// Immutable TPM access (verifier-side inspection in tests).
    pub fn tpm(&self) -> &Tpm {
        &self.tpm
    }

    /// Charges CPU work to the platform clock (attributed to the active
    /// request's `cpu` category).
    pub fn charge_cpu(&mut self, d: Duration) {
        if let Some(t) = &self.tracer {
            t.counter_add("cpu.charged_ns", d.as_nanos().min(u64::MAX as u128) as u64);
        }
        self.clock.advance(d);
        if let Some(t) = &self.tracer {
            t.charge(self.clock.now(), categories::CPU, d);
        }
        self.poll_power();
    }

    /// Charges a driver busy-wait to the platform clock. Same clock effect
    /// as [`Machine::charge_cpu`] but attributed to `tpm_backoff`, so the
    /// farm's latency breakdown separates useful compute from waiting on a
    /// busy TPM.
    pub fn charge_backoff(&mut self, d: Duration) {
        if let Some(t) = &self.tracer {
            t.counter_add("cpu.charged_ns", d.as_nanos().min(u64::MAX as u128) as u64);
        }
        self.clock.advance(d);
        if let Some(t) = &self.tracer {
            t.charge(self.clock.now(), categories::TPM_BACKOFF, d);
        }
        self.poll_power();
    }

    // ----- DMA (device-initiated) access ---------------------------------

    /// Device-initiated read (e.g. a NIC fetching a transmit buffer),
    /// filtered by the DEV.
    pub fn dma_read(&self, addr: u64, len: usize) -> MachineResult<Vec<u8>> {
        if let Err(e) = self.dev.check(addr, len as u64) {
            if let Some(t) = &self.tracer {
                t.counter_add("dev.dma_blocked", 1);
            }
            return Err(e);
        }
        Ok(self.memory.read(addr, len)?.to_vec())
    }

    /// Device-initiated write, filtered by the DEV.
    pub fn dma_write(&mut self, addr: u64, data: &[u8]) -> MachineResult<()> {
        if let Err(e) = self.dev.check(addr, data.len() as u64) {
            if let Some(t) = &self.tracer {
                t.counter_add("dev.dma_blocked", 1);
            }
            return Err(e);
        }
        self.memory.write(addr, data)
    }

    /// The chipset DEV (diagnostics).
    pub fn dev(&self) -> &DeviceExclusionVector {
        &self.dev
    }

    // ----- the late launch ------------------------------------------------

    /// Executes `SKINIT slb_base` on core `core` (paper §2.4).
    ///
    /// Architectural checks, in order:
    /// 1. the caller must be in ring 0 (`SKINIT` is privileged);
    /// 2. the core must be the BSP;
    /// 3. every AP must have received an INIT IPI;
    /// 4. no launch may already be active;
    /// 5. the SLB header (length ‖ entry point, two u16s) must be valid.
    ///
    /// Effects: 64 KB at `slb_base` become DEV-protected, interrupts and
    /// debug access are disabled, dynamic PCRs reset, the SLB is streamed
    /// to the TPM and its hash extended into PCR 17, and the BSP enters
    /// flat 32-bit protected mode at the SLB entry point.
    pub fn skinit(&mut self, core: usize, slb_base: u64) -> MachineResult<&ActiveSkinit> {
        let c = self.cpus.core(core)?;
        if c.ring != 0 {
            return Err(MachineError::NotRing0 { ring: c.ring });
        }
        if !c.is_bsp() {
            return Err(MachineError::NotBsp { core });
        }
        self.cpus.aps_quiesced()?;
        if self.active.is_some() {
            return Err(MachineError::SkinitActive);
        }

        // Parse and validate the SLB header.
        let slb_len = self.memory.read_u16_le(slb_base)? as usize;
        let entry_point = self.memory.read_u16_le(slb_base + 2)?;
        if slb_len == 0 || slb_len > SLB_MAX_LEN {
            return Err(MachineError::InvalidSlb("length out of range"));
        }
        if (entry_point as usize) >= slb_len {
            return Err(MachineError::InvalidSlb("entry point beyond SLB"));
        }

        // Hardware protections: DEV over the full 64 KB window, interrupts
        // and debug off, flat 32-bit protected mode.
        let dev_token = self.dev.protect(slb_base, SLB_MAX_LEN as u64);
        self.emit(EventKind::DevProtect {
            base: slb_base,
            len: SLB_MAX_LEN as u64,
        });
        let saved = {
            let bsp = self.cpus.bsp_mut();
            let saved = SavedCpuState {
                interrupts_enabled: bsp.interrupts_enabled,
                debug_enabled: bsp.debug_enabled,
                mode: bsp.mode,
            };
            bsp.interrupts_enabled = false;
            bsp.debug_enabled = false;
            bsp.mode = CpuMode::Flat32;
            saved
        };
        self.emit(EventKind::InterruptsChanged { enabled: false });

        // Measurement: the TPM resets dynamic PCRs and hashes the SLB. Only
        // the declared `slb_len` bytes are measured (and only they should
        // be: code beyond the header-declared length is unmeasured and must
        // never be trusted).
        let slb = self.memory.read(slb_base, slb_len)?.to_vec();
        // Virtual time is untouched by the memo: the PCR-17 chain and the
        // charged SKINIT transfer cost are identical on a hit.
        let (digest, memoized) = self.sha1_memoized(&slb);
        if let Some(t) = &self.tracer {
            t.counter_add(if memoized { "warm.hit" } else { "warm.miss" }, 1);
        }
        let measurement = self.tpm.skinit_measure_with_hint(4, &slb, Some(digest))?;
        let tpm_time = self.tpm.take_elapsed();
        let instr_time = self.skinit_cost.cost(slb_len);
        self.clock.advance(tpm_time);
        self.clock.advance(instr_time);
        self.drain_tpm_events();
        self.poll_power();
        if let Some(t) = &self.tracer {
            t.observe("machine.skinit", tpm_time + instr_time);
            // SLB transfer + measured launch is its own attribution
            // category (the paper's dominant fixed cost), not `tpm`:
            // skinit_measure_with_hint charges nothing through the
            // ordinal path, so there is no double count.
            t.charge(self.clock.now(), categories::SKINIT, tpm_time + instr_time);
        }
        self.emit(EventKind::Skinit {
            slb_base,
            slb_len: slb_len as u64,
        });

        self.active = Some(ActiveSkinit {
            slb_base,
            slb_len,
            entry_point,
            measurement,
            dev_token,
            extra_dev_tokens: Vec::new(),
            saved,
        });
        Ok(self.active.as_ref().expect("just set"))
    }

    /// Intel TXT's `GETSEC[SENTER]` — the paper (§2.4) notes that "Intel's
    /// TXT technology functions analogously" to SKINIT; this alias models
    /// a TXT platform. (TXT's measured launch environment details — SINIT
    /// ACMs, PCR 18 — are out of scope; the Flicker-relevant contract is
    /// identical.)
    pub fn senter(&mut self, core: usize, mle_base: u64) -> MachineResult<&ActiveSkinit> {
        self.skinit(core, mle_base)
    }

    /// Extends DEV protection over an additional region (paper §4.2: "If
    /// this is done, preparatory code in the first 64 KB must add this
    /// additional memory to the DEV" — the caller is responsible for also
    /// measuring it into PCR 17).
    pub fn extend_protection(&mut self, addr: u64, len: u64) -> MachineResult<()> {
        let token = self.dev.protect(addr, len);
        match &mut self.active {
            Some(a) => {
                a.extra_dev_tokens.push(token);
                self.emit(EventKind::DevProtect { base: addr, len });
                Ok(())
            }
            None => {
                self.dev.release(token);
                Err(MachineError::NoActiveSkinit)
            }
        }
    }

    /// Ends the Flicker session and resumes the previous execution
    /// environment (paper §4.2 "Resume OS"): DEV protections released,
    /// CPU state restored, interrupts re-enabled, APs restarted.
    ///
    /// The *SLB Core* is responsible for having erased secrets before this
    /// point; the machine does not zeroize for it.
    pub fn resume_os(&mut self) -> MachineResult<()> {
        let active = self.active.take().ok_or(MachineError::NoActiveSkinit)?;
        let releases = 1 + active.extra_dev_tokens.len() as u64;
        self.dev.release(active.dev_token);
        for t in active.extra_dev_tokens {
            self.dev.release(t);
        }
        self.emit(EventKind::DevRelease { count: releases });
        let restored_if = active.saved.interrupts_enabled;
        let bsp = self.cpus.bsp_mut();
        bsp.interrupts_enabled = restored_if;
        bsp.debug_enabled = active.saved.debug_enabled;
        bsp.mode = active.saved.mode;
        self.cpus.restart_aps();
        self.emit(EventKind::InterruptsChanged {
            enabled: restored_if,
        });
        Ok(())
    }

    /// Simulates a platform reboot: PCRs to power-on state, CPUs reset, DEV
    /// cleared, any active session destroyed (its secrets died with the
    /// power cycle).
    pub fn reboot(&mut self) {
        self.tpm.reboot();
        self.cpus = CpuComplex::new(self.cpus.len());
        self.dev = DeviceExclusionVector::new();
        self.active = None;
        self.drop_parked_session();
        self.emit(EventKind::Reboot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flicker_crypto::sha1::sha1;
    use flicker_tpm::PcrBank;

    /// Builds a machine with a valid SLB at `base` and APs quiesced.
    fn machine_with_slb(base: u64, body: &[u8]) -> Machine {
        let mut m = Machine::new(MachineConfig::fast_for_tests(1));
        write_slb(&mut m, base, body);
        quiesce(&mut m);
        m
    }

    fn write_slb(m: &mut Machine, base: u64, body: &[u8]) {
        let len = (4 + body.len()) as u16;
        m.memory_mut().write(base, &len.to_le_bytes()).unwrap();
        m.memory_mut().write(base + 2, &4u16.to_le_bytes()).unwrap();
        m.memory_mut().write(base + 4, body).unwrap();
    }

    fn quiesce(m: &mut Machine) {
        for id in 1..m.cpus().len() {
            m.cpus_mut().deschedule(id).unwrap();
            m.cpus_mut().send_init_ipi(id).unwrap();
        }
    }

    #[test]
    fn skinit_happy_path() {
        let mut m = machine_with_slb(0x10_0000, b"pal code here");
        let t0 = m.clock().now();
        let a = m.skinit(0, 0x10_0000).unwrap();
        assert_eq!(a.entry_point, 4);
        assert_eq!(a.slb_len, 4 + 13);

        // PCR 17 holds the predicted post-SKINIT value.
        let slb = m.memory().read(0x10_0000, 17).unwrap();
        let expected = PcrBank::predict_skinit_pcr17(&sha1(slb));
        assert_eq!(m.tpm().pcrs().read(17).unwrap(), expected);

        // Hardware protections in force.
        let bsp = m.cpus().bsp();
        assert!(!bsp.interrupts_enabled);
        assert!(!bsp.debug_enabled);
        assert_eq!(bsp.mode, CpuMode::Flat32);
        assert!(m.dma_read(0x10_0000, 4).is_err(), "DEV blocks DMA to SLB");

        // Time advanced by the model.
        assert!(m.clock().now() > t0);
    }

    #[test]
    fn skinit_requires_ring0() {
        let mut m = machine_with_slb(0x10_0000, b"x");
        m.cpus_mut().bsp_mut().ring = 3;
        assert_eq!(
            m.skinit(0, 0x10_0000).unwrap_err(),
            MachineError::NotRing0 { ring: 3 }
        );
    }

    #[test]
    fn skinit_requires_bsp() {
        let mut m = machine_with_slb(0x10_0000, b"x");
        // Core 1 is in WaitForSipi after quiesce; put it back to running
        // ring-0 to test the BSP check in isolation.
        m.cpus_mut().core_mut(1).unwrap().state = crate::cpu::CoreState::Running;
        assert_eq!(
            m.skinit(1, 0x10_0000).unwrap_err(),
            MachineError::NotBsp { core: 1 }
        );
    }

    #[test]
    fn skinit_requires_quiesced_aps() {
        let mut m = Machine::new(MachineConfig::fast_for_tests(2));
        write_slb(&mut m, 0x10_0000, b"x");
        assert_eq!(
            m.skinit(0, 0x10_0000).unwrap_err(),
            MachineError::ApNotQuiesced { core: 1 }
        );
    }

    #[test]
    fn skinit_validates_header() {
        let mut m = Machine::new(MachineConfig::fast_for_tests(3));
        quiesce(&mut m);
        // Zero length.
        m.memory_mut().write(0x1000, &[0, 0, 0, 0]).unwrap();
        assert!(matches!(
            m.skinit(0, 0x1000),
            Err(MachineError::InvalidSlb(_))
        ));
        // Entry point beyond length.
        m.memory_mut().write(0x1000, &8u16.to_le_bytes()).unwrap();
        m.memory_mut().write(0x1002, &9u16.to_le_bytes()).unwrap();
        assert!(matches!(
            m.skinit(0, 0x1000),
            Err(MachineError::InvalidSlb(_))
        ));
    }

    #[test]
    fn double_skinit_rejected() {
        let mut m = machine_with_slb(0x10_0000, b"x");
        m.skinit(0, 0x10_0000).unwrap();
        assert_eq!(
            m.skinit(0, 0x10_0000).unwrap_err(),
            MachineError::SkinitActive
        );
    }

    #[test]
    fn resume_restores_platform() {
        let mut m = machine_with_slb(0x10_0000, b"x");
        m.skinit(0, 0x10_0000).unwrap();
        m.resume_os().unwrap();
        let bsp = m.cpus().bsp();
        assert!(bsp.interrupts_enabled);
        assert!(bsp.debug_enabled);
        assert_eq!(bsp.mode, CpuMode::Paged);
        assert!(m.dma_read(0x10_0000, 4).is_ok(), "DEV released");
        assert_eq!(
            m.cpus().core(1).unwrap().state,
            crate::cpu::CoreState::Running
        );
        assert_eq!(m.resume_os(), Err(MachineError::NoActiveSkinit));
    }

    #[test]
    fn dev_blocks_dma_during_session_everywhere_in_64k() {
        let mut m = machine_with_slb(0x10_0000, b"small pal");
        m.skinit(0, 0x10_0000).unwrap();
        // Even past the declared SLB length, the full 64 KB window is
        // protected (paper §2.4).
        assert!(m.dma_write(0x10_0000 + 60_000, &[0xEE]).is_err());
        assert!(
            m.dma_write(0x10_0000 + 0x10000, &[0xEE]).is_ok(),
            "just past window"
        );
    }

    #[test]
    fn extend_protection_covers_large_pals() {
        let mut m = machine_with_slb(0x10_0000, b"stub");
        m.skinit(0, 0x10_0000).unwrap();
        m.extend_protection(0x20_0000, 0x10000).unwrap();
        assert!(m.dma_read(0x20_0000, 4).is_err());
        m.resume_os().unwrap();
        assert!(m.dma_read(0x20_0000, 4).is_ok(), "released at resume");
    }

    #[test]
    fn extend_protection_requires_active_session() {
        let mut m = Machine::new(MachineConfig::fast_for_tests(4));
        assert_eq!(
            m.extend_protection(0x20_0000, 0x1000),
            Err(MachineError::NoActiveSkinit)
        );
        assert!(m.dma_read(0x20_0000, 4).is_ok(), "no protection leaked");
    }

    #[test]
    fn skinit_cost_scales_with_slb_size() {
        let mut m1 = machine_with_slb(0x10_0000, &vec![0xAA; 1000]);
        m1.skinit(0, 0x10_0000).unwrap();
        let t_small = m1.clock().now();

        let mut m2 = machine_with_slb(0x10_0000, &vec![0xAA; 60_000]);
        m2.skinit(0, 0x10_0000).unwrap();
        let t_large = m2.clock().now();
        assert!(t_large > t_small);
    }

    #[test]
    fn malicious_os_can_skinit_but_pcr17_tells_the_truth() {
        // Adversary model (§3.1): the OS may invoke SKINIT with arguments
        // of its choosing. It gets a launch — but PCR 17 then reflects the
        // *evil* SLB's measurement, so attestations expose it.
        let mut m = machine_with_slb(0x10_0000, b"evil pal");
        m.skinit(0, 0x10_0000).unwrap();
        let evil_slb = m.memory().read(0x10_0000, 4 + 8).unwrap();
        let honest_hash = sha1(b"honest measured pal");
        assert_ne!(
            m.tpm().pcrs().read(17).unwrap(),
            PcrBank::predict_skinit_pcr17(&honest_hash)
        );
        assert_eq!(
            m.tpm().pcrs().read(17).unwrap(),
            PcrBank::predict_skinit_pcr17(&sha1(evil_slb))
        );
    }

    #[test]
    fn reboot_clears_session_and_resets_pcrs() {
        let mut m = machine_with_slb(0x10_0000, b"x");
        m.skinit(0, 0x10_0000).unwrap();
        m.reboot();
        assert!(m.active_skinit().is_none());
        assert_eq!(m.tpm().pcrs().read(17).unwrap(), [0xFF; 20]);
        assert!(m.dma_read(0x10_0000, 4).is_ok());
    }

    #[test]
    fn senter_behaves_like_skinit() {
        // Intel TXT alias: identical architectural effects.
        let mut m = machine_with_slb(0x10_0000, b"txt mle");
        let a = m.senter(0, 0x10_0000).unwrap();
        assert_eq!(a.entry_point, 4);
        assert!(!m.cpus().bsp().interrupts_enabled);
        assert!(m.dma_read(0x10_0000, 4).is_err());
        m.resume_os().unwrap();
    }

    #[test]
    fn tpm_op_drains_time_into_clock() {
        let mut m = Machine::new(MachineConfig::fast_for_tests(5));
        let t0 = m.clock().now();
        m.tpm_op(|t| t.get_random(16));
        assert!(m.clock().now() > t0);
    }

    #[test]
    fn tpm_op_retrying_rides_out_transient_faults() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut m = Machine::new(MachineConfig::fast_for_tests(6));
        m.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::TpmTransient {
            skip: 0,
            failures: 2,
        })));
        let t0 = m.clock().now();
        let v = m.tpm_op_retrying(|t| t.pcr_read(17)).unwrap();
        assert_eq!(v, [0xFF; 20]);
        // Two backoffs (1 ms + 2 ms) were charged to the virtual clock.
        assert!(m.clock().now() >= t0 + Duration::from_millis(3));
    }

    #[test]
    fn tpm_op_retrying_gives_up_on_persistent_busy() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut m = Machine::new(MachineConfig::fast_for_tests(7));
        m.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::TpmTransient {
            skip: 0,
            failures: 100,
        })));
        assert_eq!(
            m.tpm_op_retrying(|t| t.pcr_read(17)),
            Err(flicker_tpm::TpmError::Retry)
        );
        m.clear_fault_injector();
        assert!(m.tpm_op_retrying(|t| t.pcr_read(17)).is_ok());
    }

    #[test]
    fn tracer_records_skinit_dev_and_retries() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut m = machine_with_slb(0x10_0000, b"traced pal");
        let trace = Trace::default();
        m.set_tracer(trace.clone());

        m.skinit(0, 0x10_0000).unwrap();
        m.extend_protection(0x20_0000, 0x10000).unwrap();
        m.resume_os().unwrap();

        // One SKINIT observed, with the full measured latency.
        let h = trace.histogram("machine.skinit").unwrap();
        assert_eq!(h.count(), 1);
        assert!(h.max() > Duration::ZERO);

        // DEV bookkeeping: SLB window + extension protected, both released.
        assert_eq!(trace.counter("dev.protect"), 2);
        assert_eq!(trace.counter("dev.release"), 2);

        // Blocked DMA during a fresh session increments the counter.
        quiesce(&mut m);
        m.skinit(0, 0x10_0000).unwrap();
        assert!(m.dma_read(0x10_0000, 4).is_err());
        assert_eq!(trace.counter("dev.dma_blocked"), 1);
        m.resume_os().unwrap();

        // Driver retries are counted, and CPU backoff time is charged.
        m.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::TpmTransient {
            skip: 0,
            failures: 2,
        })));
        m.tpm_op_retrying(|t| t.pcr_read(17)).unwrap();
        assert_eq!(trace.counter("tpm.retry"), 2);
        assert!(trace.counter("cpu.charged_ns") >= 3_000_000);

        // Memory traffic counters flow from PhysMemory.
        let before = trace.counter("mem.write_bytes");
        m.memory_mut().write(0x3000, &[1, 2, 3, 4]).unwrap();
        assert_eq!(trace.counter("mem.write_bytes"), before + 4);
        m.memory_mut().zeroize(0x3000, 16).unwrap();
        assert!(trace.counter("mem.zeroize_bytes") >= 16);

        // clear_tracer stops recording everywhere.
        m.clear_tracer();
        let n = trace.counter("mem.write_bytes");
        m.memory_mut().write(0x3000, &[5]).unwrap();
        assert_eq!(trace.counter("mem.write_bytes"), n);
    }

    #[test]
    fn power_loss_latches_and_power_cycle_recovers() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut m = machine_with_slb(0x10_0000, b"secret-bearing pal");
        m.memory_mut().write(0x2000, b"a RAM secret").unwrap();
        m.skinit(0, 0x10_0000).unwrap();
        m.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::PowerLossAfter {
            after: Duration::from_micros(10),
        })));
        assert!(m.check_power().is_ok());
        m.charge_cpu(Duration::from_millis(1));
        assert!(m.power_lost());
        assert_eq!(m.check_power(), Err(MachineError::PowerLoss));

        m.power_cycle();
        assert!(!m.power_lost());
        assert!(m.active_skinit().is_none());
        assert_eq!(m.tpm().pcrs().read(17).unwrap(), [0xFF; 20]);
        assert_eq!(
            m.memory().read(0x2000, 12).unwrap(),
            &[0u8; 12],
            "RAM contents died with the power"
        );
        assert!(m.dma_read(0x10_0000, 4).is_ok(), "DEV cleared");
    }

    #[test]
    fn flight_recorder_event_order_audits_clean() {
        let mut m = machine_with_slb(0x10_0000, b"audited pal");
        let trace = Trace::default();
        m.set_tracer(trace.clone());

        m.skinit(0, 0x10_0000).unwrap();
        m.memory_mut().zeroize(0x10_0000, 0x1_0000).unwrap();
        m.resume_os().unwrap();

        let events = trace.events();
        let names: Vec<&'static str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            [
                "dev_protect",
                "interrupts",
                "pcr_reset",
                "pcr_extend",
                "skinit",
                "zeroize",
                "dev_release",
                "interrupts",
            ]
        );
        assert!(matches!(
            events[4].kind,
            EventKind::Skinit {
                slb_base: 0x10_0000,
                ..
            }
        ));
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at, "timestamps not monotone");
        }
        assert!(events[4].at > Duration::ZERO, "SKINIT stamped post-launch");
        assert_eq!(flicker_trace::audit::audit_events(&events), vec![]);
    }

    #[test]
    fn flight_recorder_catches_resume_without_zeroize() {
        let mut m = machine_with_slb(0x10_0000, b"leaky pal");
        let trace = Trace::default();
        m.set_tracer(trace.clone());

        m.skinit(0, 0x10_0000).unwrap();
        m.resume_os().unwrap(); // no zeroize of the SLB window

        let violations = flicker_trace::audit::audit_events(&trace.events());
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == flicker_trace::audit::Invariant::ZeroizeBeforeResume),
            "expected zeroize-before-resume violation, got {violations:?}"
        );
    }

    #[test]
    fn flight_recorder_catches_unseal_outside_session() {
        use flicker_tpm::{CommandAuth, SealedBlob};
        let mut m = Machine::new(MachineConfig::fast_for_tests(8));
        let trace = Trace::default();
        m.set_tracer(trace.clone());

        // A garbage blob still charges (and records) the TPM_Unseal command
        // before the blob fails to open — exactly what an auditor watching
        // the bus would see.
        let blob = SealedBlob::from_bytes(vec![0u8; 64]);
        let auth = CommandAuth {
            session_handle: 0,
            nonce_odd: [0; 20],
            continue_session: false,
            hmac: [0; 20],
        };
        assert!(m.tpm_op(|t| t.unseal(&blob, &auth)).is_err());

        let violations = flicker_trace::audit::audit_events(&trace.events());
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == flicker_trace::audit::Invariant::UnsealWithoutMeasurement),
            "expected unseal-without-measurement violation, got {violations:?}"
        );
    }

    #[test]
    fn measurement_memo_is_lru_bounded() {
        let mut m = Machine::new(MachineConfig::fast_for_tests(1));
        for i in 0..6u8 {
            assert_eq!(m.sha1_memoized(&[i]), (sha1(&[i]), false));
        }
        // Holds the four newest; a hit refreshes recency.
        assert_eq!(m.sha1_memoized(&[2]), (sha1(&[2]), true));
        assert!(!m.sha1_memoized(&[6]).1);
        assert!(m.sha1_memoized(&[2]).1, "refreshed entry survives");
        assert!(!m.sha1_memoized(&[3]).1, "least recent entry evicted");
    }

    #[test]
    fn reboot_drops_the_parked_session_but_keeps_the_memo() {
        let mut m = Machine::new(MachineConfig::fast_for_tests(1));
        let trace = Trace::default();
        m.set_tracer(trace.clone());
        m.sha1_memoized(b"image");
        let session = m.tpm_op(|t| t.oiap(flicker_tpm::WELL_KNOWN_AUTH));
        m.park_session(session);

        m.reboot();
        assert!(m.take_parked_session().is_none());
        assert_eq!(trace.counter("warm.invalidate"), 1);
        assert!(m.sha1_memoized(b"image").1, "keyed by bytes, never stale");
        m.reboot();
        assert_eq!(trace.counter("warm.invalidate"), 1, "nothing to drop");
    }
}
