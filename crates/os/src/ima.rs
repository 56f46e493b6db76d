//! An IBM-IMA-style integrity measurement architecture (paper §2.1).
//!
//! Implements the *trusted boot* baseline Flicker is contrasted against:
//! every piece of software loaded since power-on — BIOS, bootloader,
//! kernel, modules, every application binary and configuration file — is
//! measured into static PCRs, and a verifier receives the full log.
//! "Typically, the verifier must assess a list of all software loaded
//! since boot time (including the OS) and its configuration information."
//!
//! The `attestation_granularity` experiment (`run_all
//! attestation_granularity` in `flicker-bench`) quantifies the §3.2
//! comparison: the verifier's burden here is the whole log; with Flicker
//! it is one PAL measurement.

use crate::os::Os;
use flicker_crypto::HmacDrbg;
use flicker_tpm::EventLog;

/// PCR that aggregates firmware/bootloader measurements (per TCG PC
/// client conventions, PCRs 0–7 are firmware territory).
pub const PCR_FIRMWARE: u32 = 4;
/// PCR that aggregates the IMA runtime measurement list (IBM IMA uses
/// PCR 10).
pub const PCR_IMA: u32 = 10;

/// Performs a measured boot on `os`: firmware chain, kernel, modules, and
/// `user_apps` synthetic application binaries, all extended into the TPM
/// and recorded in the returned (untrusted) event log.
pub fn measured_boot(os: &mut Os, user_apps: usize, seed: u64) -> EventLog {
    let mut log = EventLog::new();
    let mut drbg = HmacDrbg::new(&seed.to_be_bytes(), b"ima-apps");

    // Firmware chain.
    let firmware: [(&str, &[u8]); 3] = [
        ("BIOS", b"phoenix bios 6.0 for dc5750"),
        ("MBR", b"grub stage1"),
        ("bootloader", b"grub stage2 + menu.lst"),
    ];
    for (desc, content) in firmware {
        let m = log.measure(PCR_FIRMWARE, desc, content);
        os.machine_mut()
            .tpm_op(|t| t.pcr_extend(PCR_FIRMWARE, &m))
            .expect("static PCR extend");
    }

    // Kernel + modules into the IMA PCR.
    let kernel_region = os.kernel().measured_region();
    let m = log.measure(PCR_IMA, "vmlinuz-2.6.20", &kernel_region);
    os.machine_mut()
        .tpm_op(|t| t.pcr_extend(PCR_IMA, &m))
        .expect("extend");
    let module_events: Vec<(String, Vec<u8>)> = os
        .kernel()
        .modules
        .iter()
        .map(|md| (format!("module:{}", md.name), md.text.clone()))
        .collect();
    for (desc, text) in module_events {
        let m = log.measure(PCR_IMA, &desc, &text);
        os.machine_mut()
            .tpm_op(|t| t.pcr_extend(PCR_IMA, &m))
            .expect("extend");
    }

    // Userspace: init, daemons, shells, the works.
    for i in 0..user_apps {
        let mut binary = vec![0u8; 4096];
        drbg.generate(&mut binary);
        let m = log.measure(PCR_IMA, &format!("/usr/bin/app{i}"), &binary);
        os.machine_mut()
            .tpm_op(|t| t.pcr_extend(PCR_IMA, &m))
            .expect("extend");
    }

    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::OsConfig;

    #[test]
    fn measured_boot_log_replays_against_tpm() {
        let mut os = Os::boot(OsConfig::fast_for_tests(90));
        let log = measured_boot(&mut os, 10, 1);
        let pcr10 = os.machine_mut().tpm_op(|t| t.pcr_read(PCR_IMA)).unwrap();
        let pcr4 = os
            .machine_mut()
            .tpm_op(|t| t.pcr_read(PCR_FIRMWARE))
            .unwrap();
        assert!(log.matches_quoted(PCR_IMA, &pcr10));
        assert!(log.matches_quoted(PCR_FIRMWARE, &pcr4));
        // 3 firmware + 1 kernel + 5 modules + 10 apps.
        assert_eq!(log.len(), 19);
    }

    #[test]
    fn any_software_change_perturbs_the_aggregate() {
        let mut os_a = Os::boot(OsConfig::fast_for_tests(91));
        let mut os_b = Os::boot(OsConfig::fast_for_tests(91));
        measured_boot(&mut os_a, 5, 1);
        measured_boot(&mut os_b, 5, 2); // different app binaries
        let a = os_a.machine_mut().tpm_op(|t| t.pcr_read(PCR_IMA)).unwrap();
        let b = os_b.machine_mut().tpm_op(|t| t.pcr_read(PCR_IMA)).unwrap();
        assert_ne!(
            a, b,
            "one changed app binary changes the whole attestation — the \
             brittleness Flicker's fine-grained attestation avoids"
        );
    }

    #[test]
    fn rootkit_also_shows_in_trusted_boot_if_loaded_after_measurement() {
        // Trusted boot catches load-time compromise...
        let mut clean = Os::boot(OsConfig::fast_for_tests(92));
        let clean_log = measured_boot(&mut clean, 3, 1);
        let mut infected = Os::boot(OsConfig::fast_for_tests(92));
        infected
            .kernel_mut()
            .inject_module("suckit", vec![0xCC; 512]);
        let bad_log = measured_boot(&mut infected, 3, 1);
        assert_ne!(clean_log.replay(PCR_IMA), bad_log.replay(PCR_IMA));
        // ...but a *post-boot* compromise (the paper's §8 criticism: "the
        // security of a newly executed piece of code depends on the
        // security of all previously executed code") is invisible to the
        // static PCRs, while Flicker's detector re-measures at query time.
        let pre = infected
            .machine_mut()
            .tpm_op(|t| t.pcr_read(PCR_IMA))
            .unwrap();
        infected.kernel_mut().hook_syscall(1, 0xBAD);
        infected.sync_kernel_to_memory();
        let post = infected
            .machine_mut()
            .tpm_op(|t| t.pcr_read(PCR_IMA))
            .unwrap();
        assert_eq!(pre, post, "runtime hook invisible to trusted boot");
    }
}
