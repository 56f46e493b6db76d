//! The PAL module inventory (paper Figure 6).
//!
//! Flicker's TCB argument is quantitative: the mandatory SLB Core is 94
//! lines, and each optional module a PAL links adds a known amount. This
//! module records the paper's inventory and maps each entry to the part of
//! this reproduction that implements it, so the `module_inventory`
//! experiment (`run_all module_inventory` in `flicker-bench`) can
//! regenerate the figure side by side.

/// One row of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleInfo {
    /// Module name as in the paper.
    pub name: &'static str,
    /// The paper's one-line description.
    pub properties: &'static str,
    /// Lines of code reported by the paper.
    pub paper_loc: u32,
    /// Binary size in KB reported by the paper.
    pub paper_size_kb: f64,
    /// Whether every PAL must include it.
    pub mandatory: bool,
    /// Where this reproduction implements the same functionality.
    pub repro_path: &'static str,
}

/// The Figure 6 inventory.
pub fn paper_inventory() -> Vec<ModuleInfo> {
    vec![
        ModuleInfo {
            name: "SLB Core",
            properties: "Prepare environment, execute PAL, clean environment, resume OS",
            paper_loc: 94,
            paper_size_kb: 0.312,
            mandatory: true,
            repro_path: "flicker-core::session (SLB-Core phases) + flicker-core::slb",
        },
        ModuleInfo {
            name: "OS Protection",
            properties: "Memory protection, ring 3 PAL execution",
            paper_loc: 5,
            paper_size_kb: 0.046,
            mandatory: false,
            repro_path: "flicker-core::pal (segment-limited ring-3 PalContext)",
        },
        ModuleInfo {
            name: "TPM Driver",
            properties: "Communication with the TPM",
            paper_loc: 216,
            paper_size_kb: 0.825,
            mandatory: false,
            repro_path: "flicker-core::pal::PalContext::tpm_op (+ flicker-tpm command layer)",
        },
        ModuleInfo {
            name: "TPM Utilities",
            properties: "Performs TPM operations, e.g., Seal, Unseal, GetRand, PCR Extend",
            paper_loc: 889,
            paper_size_kb: 9.427,
            mandatory: false,
            repro_path: "flicker-core::pal seal/unseal/extend helpers + flicker-tpm::auth",
        },
        ModuleInfo {
            name: "Crypto",
            properties: "General purpose cryptographic operations, RSA, SHA-1, SHA-512 etc.",
            paper_loc: 2262,
            paper_size_kb: 31.380,
            mandatory: false,
            repro_path: "flicker-crypto (all modules)",
        },
        ModuleInfo {
            name: "Memory Management",
            properties: "Implementation of malloc/free/realloc",
            paper_loc: 657,
            paper_size_kb: 12.511,
            mandatory: false,
            repro_path: "flicker-core::heap::PalHeap",
        },
        ModuleInfo {
            name: "Secure Channel",
            properties: "Generates a keypair, seals private key, returns public key",
            paper_loc: 292,
            paper_size_kb: 2.021,
            mandatory: false,
            repro_path: "flicker-core::secure_channel",
        },
    ]
}

/// The paper's headline TCB bound: "as few as 250 lines".
pub const MINIMAL_TCB_LOC_BOUND: u32 = 250;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_matches_figure6() {
        let inv = paper_inventory();
        assert_eq!(inv.len(), 7);
        let slb_core = &inv[0];
        assert_eq!(slb_core.paper_loc, 94);
        assert!(slb_core.mandatory);
        assert!(inv[1..].iter().all(|m| !m.mandatory));
        let total_loc: u32 = inv.iter().map(|m| m.paper_loc).sum();
        assert_eq!(total_loc, 94 + 5 + 216 + 889 + 2262 + 657 + 292);
    }

    #[test]
    fn minimal_tcb_under_250_lines() {
        // The abstract's claim: SLB Core (mandatory) + OS Protection +
        // (part of) the TPM driver fit in 250 lines; in particular the
        // mandatory core alone is well under it.
        let inv = paper_inventory();
        let mandatory: u32 = inv
            .iter()
            .filter(|m| m.mandatory)
            .map(|m| m.paper_loc)
            .sum();
        assert!(mandatory < MINIMAL_TCB_LOC_BOUND);
        // Core + OS protection + a minimal detector-style PAL stays under too.
        assert!(mandatory + 5 + 100 < MINIMAL_TCB_LOC_BOUND);
    }
}
