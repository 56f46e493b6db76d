//! The untrusted operating system.
//!
//! Wraps the simulated machine with the OS-level facts Flicker interacts
//! with: the kernel image (what the rootkit detector hashes), the
//! suspend/resume dance around a session (paper §4.2), and the TPM Quote
//! Daemon (`tqd`, §6) that produces attestations after sessions end.
//!
//! Everything here is **untrusted** in the paper's threat model (§3.1) —
//! nothing in this crate is inside any PAL's TCB. Its correctness matters
//! for liveness (sessions complete, state is restored), never for the
//! security properties, which the tests in `flicker-core` establish against
//! a *malicious* OS.

use crate::kernel::KernelImage;
use crate::state::SavedKernelState;
use flicker_machine::{Machine, MachineConfig, MachineError, MachineResult, RetryPolicy, SimClock};
use flicker_tpm::{AikCertificate, PcrSelection, PrivacyCa, TpmQuote, TpmResult};
use flicker_trace::{EventKind, Trace};

/// Configuration for the OS simulator.
#[derive(Debug, Clone)]
pub struct OsConfig {
    /// Underlying platform.
    pub machine: MachineConfig,
    /// Seed for the synthetic kernel image.
    pub kernel_seed: u64,
    /// Kernel text size (≈2 MB in the evaluation).
    pub kernel_text_len: usize,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            machine: MachineConfig::default(),
            kernel_seed: 20_620, // "2.6.20"
            kernel_text_len: 2_000_000,
        }
    }
}

impl OsConfig {
    /// Fast configuration for unit tests: small kernel, 512-bit TPM keys.
    pub fn fast_for_tests(seed: u8) -> Self {
        OsConfig {
            machine: MachineConfig::fast_for_tests(seed),
            kernel_seed: seed as u64,
            kernel_text_len: 64 * 1024,
        }
    }
}

/// Physical address where the kernel's measured region is loaded (the
/// simulated analogue of the kernel text mapping; below this sits the
/// conventional SLB allocation at 0x10_0000).
pub const KERNEL_PHYS_BASE: u64 = 0x20_0000;

/// The running (untrusted) operating system.
pub struct Os {
    machine: Machine,
    kernel: KernelImage,
    saved: Option<SavedKernelState>,
    /// AIK handle + certificate once the tqd has been provisioned.
    aik: Option<(u32, AikCertificate)>,
}

impl Os {
    /// Boots the OS on a fresh machine and maps the kernel's measured
    /// region into physical memory at [`KERNEL_PHYS_BASE`].
    pub fn boot(config: OsConfig) -> Self {
        let mut os = Os {
            machine: Machine::new(config.machine),
            kernel: KernelImage::synthetic(config.kernel_seed, config.kernel_text_len),
            saved: None,
            aik: None,
        };
        os.sync_kernel_to_memory();
        os
    }

    /// (Re)writes the kernel's measured region into physical memory —
    /// called at boot and after any kernel mutation (module load, rootkit
    /// installation) so in-memory state matches the [`KernelImage`].
    pub fn sync_kernel_to_memory(&mut self) {
        let region = self.kernel.measured_region();
        self.machine
            .memory_mut()
            .write(KERNEL_PHYS_BASE, &region)
            .expect("kernel region must fit in installed RAM");
    }

    /// Extent of the kernel's measured region in memory:
    /// `(KERNEL_PHYS_BASE, length)`.
    pub fn kernel_region(&self) -> (u64, usize) {
        (KERNEL_PHYS_BASE, self.kernel.measured_len())
    }

    /// The platform.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The platform, mutably.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The platform clock.
    pub fn clock(&self) -> SimClock {
        self.machine.clock()
    }

    /// Installs a trace recorder across the whole platform (delegates to
    /// [`Machine::set_tracer`]); OS-level lifecycle events (`os.*` counters,
    /// tqd quote latency) record into the same trace.
    pub fn set_tracer(&mut self, tracer: Trace) {
        self.machine.set_tracer(tracer);
    }

    /// Removes any installed trace recorder.
    pub fn clear_tracer(&mut self) {
        self.machine.clear_tracer();
    }

    /// The kernel image.
    pub fn kernel(&self) -> &KernelImage {
        &self.kernel
    }

    /// Mutable kernel image (how attack tests install rootkits).
    pub fn kernel_mut(&mut self) -> &mut KernelImage {
        &mut self.kernel
    }

    // ----- suspend / resume (paper §4.2) -----------------------------------

    /// The flicker-module's Suspend OS phase: deschedules every AP via CPU
    /// hotplug, sends INIT IPIs, and records kernel state for the resume
    /// path. Idempotence is not required — a second suspend without resume
    /// is an error.
    pub fn suspend_for_session(&mut self) -> MachineResult<()> {
        if self.saved.is_some() {
            return Err(MachineError::SkinitActive);
        }
        for id in 1..self.machine.cpus().len() {
            self.machine.cpus_mut().deschedule(id)?;
            self.machine.cpus_mut().send_init_ipi(id)?;
        }
        self.saved = Some(SavedKernelState::typical());
        if let Some(t) = self.machine.tracer() {
            t.event(self.machine.clock().now(), EventKind::OsSuspend);
        }
        Ok(())
    }

    /// The saved kernel state, if suspended (the flicker-module copies this
    /// into the SLB's saved-state region).
    pub fn saved_state(&self) -> Option<&SavedKernelState> {
        self.saved.as_ref()
    }

    /// The flicker-module's post-session phase: restores kernel state and
    /// re-enables normal operation. Must follow `Machine::resume_os`.
    pub fn resume_after_session(&mut self) -> MachineResult<()> {
        let _state = self.saved.take().ok_or(MachineError::NoActiveSkinit)?;
        // The SLB Core already rebuilt paging and reloaded descriptors; the
        // flicker-module's remaining work (restore execution state,
        // re-enable interrupts) is represented by the machine-level resume
        // the session driver performed. Nothing further to model.
        if let Some(t) = self.machine.tracer() {
            t.event(self.machine.clock().now(), EventKind::OsResume);
        }
        Ok(())
    }

    /// Boots the OS back up after a platform power loss: power-cycles the
    /// machine (RAM gone, PCRs reset, DEV cleared), discards any saved
    /// suspend state (it died in RAM with everything else), and reloads the
    /// kernel image into memory. TPM NV storage, counters, and keys
    /// persist — that durability is exactly what replay-protected storage
    /// builds on.
    pub fn reboot_after_power_loss(&mut self) {
        self.machine.power_cycle();
        self.saved = None;
        self.sync_kernel_to_memory();
        if let Some(t) = self.machine.tracer() {
            t.counter_add("os.reboot_after_power_loss", 1);
        }
    }

    // ----- tqd: the TPM quote daemon (paper §6) -----------------------------

    /// The tqd's retry schedule for `TPM_E_RETRY` answers — the TPM
    /// driver's default policy, shared rather than re-derived here.
    pub const TQD_RETRY_POLICY: RetryPolicy = RetryPolicy::tpm_default();

    /// Provisions the attestation identity: TPM ownership, EK registration,
    /// `MakeIdentity`, Privacy-CA certification.
    pub fn provision_attestation(
        &mut self,
        privacy_ca: &mut PrivacyCa,
        label: &str,
    ) -> TpmResult<&AikCertificate> {
        let cert = self.machine.tpm_op(|tpm| {
            privacy_ca.register_ek(tpm.ek_public().clone());
            tpm.make_identity(privacy_ca, label)
        })?;
        self.aik = Some(cert);
        Ok(&self.aik.as_ref().expect("just set").1)
    }

    /// The AIK certificate, if provisioned.
    pub fn aik_certificate(&self) -> Option<&AikCertificate> {
        self.aik.as_ref().map(|(_, c)| c)
    }

    /// The tqd's quote service: sign the selected PCRs under the verifier's
    /// nonce. Runs with the OS live (the paper is explicit that the quote
    /// happens *after* the session, under the untrusted OS — §6.1). Like
    /// any real TPM driver, the tqd retries `TPM_E_RETRY` with backoff —
    /// under [`Os::TQD_RETRY_POLICY`], the same shared [`RetryPolicy`] the
    /// machine's driver loop uses, so there is exactly one place the
    /// schedule is defined.
    pub fn tqd_quote(&mut self, nonce: [u8; 20], selection: &PcrSelection) -> TpmResult<TpmQuote> {
        let (handle, _) = *self.aik.as_ref().ok_or(flicker_tpm::TpmError::NoSrk)?;
        let sel = selection.clone();
        let t0 = self.machine.clock().now();
        let quote = self
            .machine
            .tpm_op_retrying_with(&Self::TQD_RETRY_POLICY, move |tpm| {
                tpm.quote(handle, nonce, &sel)
            })?;
        if let Some(t) = self.machine.tracer() {
            t.observe("os.tqd_quote", self.machine.clock().now() - t0);
        }
        // A power cut that lands while the command is in flight takes the
        // answer with it.
        if self.machine.power_lost() {
            return Err(flicker_tpm::TpmError::InterfaceUnavailable);
        }
        Ok(quote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flicker_machine::CoreState;
    use flicker_tpm::PcrSelection;

    fn os(seed: u8) -> Os {
        Os::boot(OsConfig::fast_for_tests(seed))
    }

    /// The default TPM's endorsement key comes from a prime search over
    /// its HMAC-DRBG, so this pin fails on any change to that stream.
    #[test]
    fn default_endorsement_key_is_pinned() {
        let tpm = flicker_tpm::Tpm::manufacture(OsConfig::default().machine.tpm);
        let ek = flicker_crypto::sha1::sha1(&tpm.ek_public().to_bytes());
        assert_eq!(
            flicker_crypto::hex::encode(&ek),
            "8b8f3810cd9ab0c317181d5439ce95d2bc7bee10"
        );
    }

    fn privacy_ca(seed: u64) -> PrivacyCa {
        let mut rng = flicker_crypto::rng::XorShiftRng::new(seed);
        PrivacyCa::new(512, &mut rng)
    }

    #[test]
    fn suspend_quiesces_aps_and_saves_state() {
        let mut os = os(1);
        assert!(os.saved_state().is_none());
        os.suspend_for_session().unwrap();
        assert!(os.saved_state().is_some());
        assert!(os.machine().cpus().aps_quiesced().is_ok());
        assert_eq!(
            os.machine().cpus().core(1).unwrap().state,
            CoreState::WaitForSipi
        );
    }

    #[test]
    fn double_suspend_rejected() {
        let mut os = os(2);
        os.suspend_for_session().unwrap();
        assert_eq!(os.suspend_for_session(), Err(MachineError::SkinitActive));
    }

    #[test]
    fn resume_without_suspend_rejected() {
        let mut os = os(3);
        assert_eq!(os.resume_after_session(), Err(MachineError::NoActiveSkinit));
    }

    #[test]
    fn suspend_resume_cycle() {
        let mut os = os(4);
        os.suspend_for_session().unwrap();
        os.resume_after_session().unwrap();
        assert!(os.saved_state().is_none());
        // Can suspend again.
        os.suspend_for_session().unwrap();
    }

    #[test]
    fn reboot_after_power_loss_restores_a_usable_platform() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        use std::time::Duration;
        let mut os = os(8);
        os.suspend_for_session().unwrap();
        os.machine_mut()
            .set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::PowerLossAfter {
                after: Duration::ZERO,
            })));
        os.machine_mut().charge_cpu(Duration::from_micros(1));
        assert!(os.machine().power_lost());

        os.reboot_after_power_loss();
        assert!(os.saved_state().is_none(), "suspend state died in RAM");
        assert!(!os.machine().power_lost());
        // The kernel image is back in memory and a fresh session can run.
        let (base, len) = os.kernel_region();
        assert_eq!(
            os.machine().memory().read(base, len).unwrap(),
            &os.kernel().measured_region()[..]
        );
        os.suspend_for_session().unwrap();
        os.resume_after_session().unwrap();
    }

    #[test]
    fn tqd_requires_provisioning() {
        let mut os = os(5);
        assert!(os.tqd_quote([0; 20], &PcrSelection::pcr17()).is_err());
    }

    #[test]
    fn tqd_quote_end_to_end() {
        let mut os = os(6);
        let mut ca = privacy_ca(60);
        os.provision_attestation(&mut ca, "dc5750").unwrap();
        let cert = os.aik_certificate().unwrap().clone();
        assert!(cert.verify(ca.public_key()).is_ok());

        let nonce = [9u8; 20];
        let q = os.tqd_quote(nonce, &PcrSelection::pcr17()).unwrap();
        assert!(q.verify(&cert.aik_public, &nonce).is_ok());
        // PCR 17 is -1: no late launch has happened.
        assert_eq!(q.pcr_value(17).unwrap(), &[0xFF; 20]);
    }

    #[test]
    fn tracer_records_lifecycle_and_quote_latency() {
        let mut os = os(9);
        let trace = Trace::default();
        os.set_tracer(trace.clone());

        os.suspend_for_session().unwrap();
        os.resume_after_session().unwrap();
        assert_eq!(trace.counter("os.suspend"), 1);
        assert_eq!(trace.counter("os.resume"), 1);
        let names: Vec<_> = trace.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, ["os_suspend", "os_resume"]);

        let mut ca = privacy_ca(62);
        os.provision_attestation(&mut ca, "traced").unwrap();
        os.tqd_quote([0; 20], &PcrSelection::pcr17()).unwrap();
        let h = trace.histogram("os.tqd_quote").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), os.machine().tpm().timing().quote);
        // The quote's TPM command also landed in the per-ordinal histogram.
        assert_eq!(trace.histogram("tpm.TPM_Quote").unwrap().count(), 1);

        os.reboot_after_power_loss();
        assert_eq!(trace.counter("os.reboot_after_power_loss"), 1);
    }

    #[test]
    fn quote_costs_show_up_on_the_clock() {
        let mut os = os(7);
        let mut ca = privacy_ca(61);
        os.provision_attestation(&mut ca, "x").unwrap();
        let t0 = os.clock().now();
        os.tqd_quote([0; 20], &PcrSelection::pcr17()).unwrap();
        let dt = os.clock().now() - t0;
        // Broadcom profile: 972.7 ms.
        assert_eq!(dt, os.machine().tpm().timing().quote);
    }
}
