//! The untrusted kernel's measurable state.
//!
//! The rootkit detector PAL (paper §6.1) "computes a SHA-1 hash of the
//! kernel text segment, system call table, and loaded kernel modules".
//! This module models exactly those three regions for a synthetic Linux
//! 2.6.20, along with the kernel-compromise primitives a rootkit would use,
//! so the detector has something real to catch.

use flicker_crypto::HmacDrbg;

/// Number of entries in the syscall table (i386 2.6.20 had ~320).
pub const SYSCALL_COUNT: usize = 320;

/// A loaded kernel module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelModule {
    /// Module name (e.g. `flicker_module`).
    pub name: String,
    /// Module text bytes.
    pub text: Vec<u8>,
}

/// The kernel state the rootkit detector measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelImage {
    /// Kernel text segment.
    pub text: Vec<u8>,
    /// System call table: handler addresses.
    pub syscall_table: Vec<u64>,
    /// Loaded modules, in load order.
    pub modules: Vec<KernelModule>,
}

impl KernelImage {
    /// Builds a deterministic synthetic 2.6.20 kernel: `text_len` bytes of
    /// text, a populated syscall table, and a typical module set.
    ///
    /// The default `text_len` used by the evaluation (2 MB of text plus
    /// modules ≈ 2.2 MB total) makes the detector's hash take the 22 ms
    /// Table 1 reports under the CPU cost model.
    pub fn synthetic(seed: u64, text_len: usize) -> Self {
        let mut drbg = HmacDrbg::new(&seed.to_be_bytes(), b"kernel-image");
        let mut text = vec![0u8; text_len];
        drbg.generate(&mut text);

        let syscall_table = (0..SYSCALL_COUNT)
            .map(|i| 0xC010_0000u64 + (i as u64) * 0x40)
            .collect();

        let module_names = ["flicker_module", "tpm_tis", "e1000", "ext3", "usbcore"];
        let modules = module_names
            .iter()
            .map(|name| {
                let mut text = vec![0u8; 40 * 1024];
                drbg.generate(&mut text);
                KernelModule {
                    name: name.to_string(),
                    text,
                }
            })
            .collect();

        KernelImage {
            text,
            syscall_table,
            modules,
        }
    }

    /// Serializes the measured region in a canonical order: text ‖ syscall
    /// table ‖ each module's name and text. This is the byte string the
    /// detector hashes.
    pub fn measured_region(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.measured_len());
        out.extend_from_slice(&self.text);
        for &entry in &self.syscall_table {
            out.extend_from_slice(&entry.to_le_bytes());
        }
        for m in &self.modules {
            out.extend_from_slice(m.name.as_bytes());
            out.extend_from_slice(&m.text);
        }
        out
    }

    /// Length of the measured region in bytes.
    pub fn measured_len(&self) -> usize {
        self.text.len()
            + self.syscall_table.len() * 8
            + self
                .modules
                .iter()
                .map(|m| m.name.len() + m.text.len())
                .sum::<usize>()
    }

    // ----- compromise primitives (what rootkits actually do) -------------

    /// Hooks a syscall table entry (e.g. an adore-style `sys_getdents`
    /// redirection).
    pub fn hook_syscall(&mut self, index: usize, evil_handler: u64) {
        self.syscall_table[index] = evil_handler;
    }

    /// Patches kernel text in place (inline hook / trampoline).
    pub fn patch_text(&mut self, offset: usize, patch: &[u8]) {
        self.text[offset..offset + patch.len()].copy_from_slice(patch);
    }

    /// Injects a malicious module.
    pub fn inject_module(&mut self, name: &str, text: Vec<u8>) {
        self.modules.push(KernelModule {
            name: name.to_string(),
            text,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flicker_crypto::hex;
    use flicker_crypto::sha1::sha1;

    /// The HMAC-DRBG draws every text and module byte, so these pins fail
    /// on any change to its output stream: the default evaluation kernel
    /// (`OsConfig::default()`) and the 64 KB kernel of the test platforms.
    #[test]
    fn synthetic_bytes_are_pinned() {
        let eval = KernelImage::synthetic(20_620, 2_000_000).measured_region();
        assert_eq!(eval.len(), 2_207_397);
        assert_eq!(
            hex::encode(&sha1(&eval)),
            "07c61e949003fed0d1a33c0a6c6f401c883129b2"
        );
        let small = KernelImage::synthetic(1, 65_536).measured_region();
        assert_eq!(
            hex::encode(&sha1(&small)),
            "0038a12debff87bf375250eb9339077e85a4ea63"
        );
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = KernelImage::synthetic(1, 1 << 20);
        let b = KernelImage::synthetic(1, 1 << 20);
        assert_eq!(a, b);
        let c = KernelImage::synthetic(2, 1 << 20);
        assert_ne!(a, c);
    }

    #[test]
    fn measured_region_covers_everything() {
        let k = KernelImage::synthetic(1, 4096);
        assert_eq!(k.measured_region().len(), k.measured_len());
        // Text + table + 5 modules with names.
        assert!(k.measured_len() > 4096 + SYSCALL_COUNT * 8 + 5 * 40 * 1024);
    }

    #[test]
    fn syscall_hook_changes_measurement() {
        let clean = KernelImage::synthetic(1, 4096);
        let baseline = sha1(&clean.measured_region());
        let mut hooked = clean.clone();
        hooked.hook_syscall(220, 0xDEAD_BEEF);
        assert_ne!(sha1(&hooked.measured_region()), baseline);
    }

    #[test]
    fn text_patch_changes_measurement() {
        let clean = KernelImage::synthetic(1, 4096);
        let baseline = sha1(&clean.measured_region());
        let mut patched = clean.clone();
        patched.patch_text(100, &[0x90, 0x90, 0xE9]);
        assert_ne!(sha1(&patched.measured_region()), baseline);
    }

    #[test]
    fn module_injection_changes_measurement() {
        let clean = KernelImage::synthetic(1, 4096);
        let baseline = sha1(&clean.measured_region());
        let mut infected = clean.clone();
        infected.inject_module("suckit", vec![0xCC; 1024]);
        assert_ne!(sha1(&infected.measured_region()), baseline);
    }

    #[test]
    fn default_eval_kernel_is_about_2_2_mb() {
        // The Table 1 experiment hashes ~2.2 MB in 22 ms at 100 MB/s.
        let k = KernelImage::synthetic(7, 2_000_000);
        let len = k.measured_len() as f64;
        assert!((2.1e6..2.3e6).contains(&len), "measured region = {len}");
    }
}
