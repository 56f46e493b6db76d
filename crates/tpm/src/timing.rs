//! TPM timing profiles.
//!
//! The paper's evaluation (§7) is dominated by TPM latencies and shows that
//! they are *chip-specific*: the HP dc5750's Broadcom BCM0102 quotes in
//! 972 ms and unseals in ~900 ms, while an Infineon TPM quotes in 331 ms
//! and unseals in 391 ms (§7.2, §7.4.1). This module captures those numbers
//! as profiles so every experiment can be replayed against either chip, plus
//! a "future hardware" profile for the \[19\]-style ablation (the concurrent
//! work referenced throughout §7 reports up to six orders of magnitude of
//! headroom).

use std::time::Duration;

/// Per-command latency model for a TPM chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpmTimingProfile {
    /// Human-readable chip name.
    pub name: &'static str,
    /// `TPM_Quote` (2048-bit AIK signature inside the chip).
    pub quote: Duration,
    /// `TPM_Seal` of a small blob.
    pub seal: Duration,
    /// `TPM_Unseal`.
    pub unseal: Duration,
    /// `TPM_Extend` of one PCR.
    pub pcr_extend: Duration,
    /// `TPM_PCRRead`.
    pub pcr_read: Duration,
    /// Fixed cost of a `TPM_GetRandom` call.
    pub get_random_base: Duration,
    /// Marginal cost per random byte returned.
    pub get_random_per_byte: Duration,
    /// NV define/read/write (flash programming latency).
    pub nv_op: Duration,
    /// Monotonic counter increment (flash write).
    pub counter_op: Duration,
    /// `TPM_LoadKey`-class operations (e.g. loading the AIK before a quote).
    pub load_key: Duration,
    /// `TPM_OIAP`/`TPM_OSAP` session establishment (nonce generation plus a
    /// session-table slot). Paid once per parked session, not per command:
    /// the PAL context continues one session across commands and PAL runs
    /// (§7.6), so Table 4's unseal reads 901.0 ms rather than 902.5 ms.
    pub session_start: Duration,
}

impl TpmTimingProfile {
    /// The Broadcom BCM0102 in the paper's HP dc5750 test machine (§7.1).
    ///
    /// Quote 972.7 ms (Table 1), Seal 10.2 ms / keygen-era GetRandom
    /// 1.3 ms / Extend < 1.2 ms (§7.4.1), Unseal 898–905 ms (Table 4,
    /// Figure 9b).
    pub fn broadcom_bcm0102() -> Self {
        TpmTimingProfile {
            name: "Broadcom BCM0102",
            quote: Duration::from_micros(972_700),
            seal: Duration::from_micros(10_200),
            unseal: Duration::from_micros(901_000),
            pcr_extend: Duration::from_micros(1_200),
            pcr_read: Duration::from_micros(800),
            get_random_base: Duration::from_micros(1_040),
            get_random_per_byte: Duration::from_nanos(2_030),
            nv_op: Duration::from_micros(12_000),
            counter_op: Duration::from_micros(5_000),
            load_key: Duration::from_micros(25_000),
            session_start: Duration::from_micros(1_500),
        }
    }

    /// The Infineon TPM the paper cites as the faster alternative (§7.2:
    /// quote under 331 ms; §7.4.1: unseal in 391 ms).
    pub fn infineon() -> Self {
        TpmTimingProfile {
            name: "Infineon v1.2",
            quote: Duration::from_micros(331_000),
            seal: Duration::from_micros(8_000),
            unseal: Duration::from_micros(391_000),
            pcr_extend: Duration::from_micros(1_000),
            pcr_read: Duration::from_micros(700),
            get_random_base: Duration::from_micros(1_000),
            get_random_per_byte: Duration::from_nanos(1_500),
            nv_op: Duration::from_micros(10_000),
            counter_op: Duration::from_micros(4_000),
            load_key: Duration::from_micros(20_000),
            session_start: Duration::from_micros(1_200),
        }
    }

    /// Hypothetical next-generation hardware per the paper's concurrent
    /// work \[19\] ("improve performance by up to six orders of magnitude"):
    /// TPM functionality at CPU/chipset speeds.
    pub fn future_hardware() -> Self {
        TpmTimingProfile {
            name: "Future (McCune et al. [19])",
            quote: Duration::from_micros(10),
            seal: Duration::from_micros(1),
            unseal: Duration::from_micros(1),
            pcr_extend: Duration::from_nanos(100),
            pcr_read: Duration::from_nanos(50),
            get_random_base: Duration::from_nanos(100),
            get_random_per_byte: Duration::from_nanos(1),
            nv_op: Duration::from_micros(1),
            counter_op: Duration::from_micros(1),
            load_key: Duration::from_micros(1),
            session_start: Duration::from_micros(1),
        }
    }

    /// Cost of `TPM_GetRandom` returning `n` bytes.
    pub fn get_random(&self, n: usize) -> Duration {
        self.get_random_base + self.get_random_per_byte * (n as u32)
    }
}

impl Default for TpmTimingProfile {
    fn default() -> Self {
        Self::broadcom_bcm0102()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcom_matches_paper_table1() {
        let p = TpmTimingProfile::broadcom_bcm0102();
        assert_eq!(p.quote, Duration::from_micros(972_700));
        assert_eq!(p.pcr_extend, Duration::from_micros(1_200));
    }

    #[test]
    fn broadcom_matches_paper_fig9() {
        let p = TpmTimingProfile::broadcom_bcm0102();
        assert_eq!(p.seal, Duration::from_micros(10_200));
        // Unseal modelled at 901 ms, within the paper's 898.3-905.4 ms band.
        assert!(p.unseal >= Duration::from_micros(898_300));
        assert!(p.unseal <= Duration::from_micros(905_400));
    }

    #[test]
    fn infineon_is_faster_where_the_paper_says() {
        let b = TpmTimingProfile::broadcom_bcm0102();
        let i = TpmTimingProfile::infineon();
        assert!(i.quote < b.quote);
        assert!(i.unseal < b.unseal);
    }

    #[test]
    fn getrandom_scales_with_length() {
        let p = TpmTimingProfile::broadcom_bcm0102();
        // 128 bytes averaged 1.3 ms in the paper (§7.4.1).
        let t = p.get_random(128);
        assert!(
            t >= Duration::from_micros(1_250) && t <= Duration::from_micros(1_350),
            "{t:?}"
        );
        assert!(p.get_random(256) > t);
    }

    #[test]
    fn future_hardware_is_orders_faster() {
        let b = TpmTimingProfile::broadcom_bcm0102();
        let f = TpmTimingProfile::future_hardware();
        assert!(b.quote.as_nanos() / f.quote.as_nanos() >= 10_000);
    }
}
