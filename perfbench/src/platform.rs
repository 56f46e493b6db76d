//! What every workload shares: seeds, the provisioned evaluation platform,
//! the counters read from the crates, and host memory.

use crate::metrics::Values;
use crate::spans::Spans;
use flicker_bench::EVAL_TPM_KEY_BITS;
use flicker_crypto::cost::CostSnapshot;
use flicker_crypto::rng::XorShiftRng;
use flicker_crypto::RsaPublicKey;
use flicker_os::{Os, OsConfig};
use flicker_tpm::{AikCertificate, PrivacyCa};
use flicker_trace::{Trace, DROPPED_EVENTS_COUNTER};

/// Root of the platform seeds. Platforms do not depend on `--seed`.
pub const PLATFORM_SEED: u64 = 0xF11C_6E55;

/// Seed of the `k`-th platform a run builds.
pub fn platform_seed(k: u64) -> u64 {
    mix(PLATFORM_SEED, k)
}

/// SplitMix64 of `seed` salted with `salt`: independent streams from one
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` seeded 20-byte values (nonces, payloads).
pub fn seeded_bytes20(seed: u64, n: usize) -> Vec<[u8; 20]> {
    (0..n as u64)
        .map(|i| {
            let mut out = [0u8; 20];
            for (j, chunk) in out.chunks_mut(8).enumerate() {
                let word = mix(seed, i * 3 + j as u64).to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
            out
        })
        .collect()
}

/// The evaluation platform of the paper's §7 (HP dc5750, Broadcom TPM,
/// ~2.2 MB measured kernel) with 1024-bit TPM keys, provisioned for
/// attestation.
pub struct Platform {
    /// The running OS.
    pub os: Os,
    /// The AIK certificate the Privacy CA issued.
    pub cert: AikCertificate,
    /// The Privacy CA's public key, which verifiers trust.
    pub ca_public: RsaPublicKey,
}

/// Boots and provisions the evaluation platform for `seed`, timing each
/// call: `Os::boot` (EK/SRK keygen), `PrivacyCa::new` and
/// `Os::provision_attestation` (AIK keygen and certification).
pub fn eval_platform(seed: u64, spans: &Spans) -> Result<Platform, String> {
    let mut config = OsConfig::default();
    config.machine.tpm.key_bits = EVAL_TPM_KEY_BITS;
    for (i, chunk) in config.machine.tpm.entropy_seed.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(seed, 100 + i as u64).to_le_bytes()[..chunk.len()]);
    }
    config.kernel_seed = seed;
    let mut os = spans.call("os.boot", || Os::boot(config));
    let mut rng = XorShiftRng::new(mix(seed, 200));
    let mut ca = spans.call("tpm.privacy_ca", || {
        PrivacyCa::new(EVAL_TPM_KEY_BITS, &mut rng)
    });
    let cert = spans
        .call("os.provision", || {
            os.provision_attestation(&mut ca, "perfbench-host").cloned()
        })
        .map_err(|e| format!("provisioning failed: {e}"))?;
    Ok(Platform {
        os,
        cert,
        ca_public: ca.public_key().clone(),
    })
}

/// Work counted by the crates over a pass: the thread-local
/// `flicker_crypto::cost` counters and the flight recorder's counters,
/// which the recorder keeps only while it is installed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    /// `flicker_crypto::cost` delta on the benchmark's thread.
    pub crypto: CostSnapshot,
    /// TPM commands (`tpm.TPM_*` histogram samples).
    pub tpm_commands: u64,
    /// `TPM_OIAP` + `TPM_OSAP` commands.
    pub auth_sessions: u64,
    /// `warm.hit`.
    pub warm_hit: u64,
    /// `warm.miss`.
    pub warm_miss: u64,
    /// `mem.zeroize_bytes`.
    pub zeroize_bytes: u64,
    /// `vm.insns`.
    pub vm_insns: u64,
    /// `verify.accept`.
    pub verify_accept: u64,
    /// Events recorded, kept or dropped.
    pub events: u64,
    /// `trace.dropped_events`.
    pub dropped: u64,
}

impl Counts {
    /// Adds one recorder window's counters.
    pub fn add_trace(&mut self, trace: &Trace) {
        for (name, hist) in trace.histograms() {
            if name.starts_with("tpm.TPM_") {
                self.tpm_commands += hist.count();
                if name == "tpm.TPM_OIAP" || name == "tpm.TPM_OSAP" {
                    self.auth_sessions += hist.count();
                }
            }
        }
        self.warm_hit += trace.counter("warm.hit");
        self.warm_miss += trace.counter("warm.miss");
        self.zeroize_bytes += trace.counter("mem.zeroize_bytes");
        self.vm_insns += trace.counter(flicker_core::session::VM_INSNS_COUNTER);
        self.verify_accept += trace.counter(flicker_core::VERIFY_ACCEPT_COUNTER);
        self.dropped += trace.counter(DROPPED_EVENTS_COUNTER);
        self.events += trace.event_count() as u64 + trace.counter(DROPPED_EVENTS_COUNTER);
    }

    /// Records the per-operation metrics over `ops` operations. Crypto
    /// counts are left out when `crypto` is false (they are thread-local,
    /// so a multi-threaded workload cannot read them).
    pub fn record(&self, ops: u64, crypto: bool, values: &mut Values) {
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        if crypto {
            values.set("crypto.modmul_per_op", per_op(self.crypto.modmul));
            values.set(
                "crypto.sha1_blocks_per_op",
                per_op(self.crypto.sha1_compress),
            );
            values.set("crypto.hmac_per_op", per_op(self.crypto.hmac));
            values.set("crypto.aes_blocks_per_op", per_op(self.crypto.aes_block));
        }
        values.set("tpm.commands_per_op", per_op(self.tpm_commands));
        values.set("tpm.auth_sessions_per_op", per_op(self.auth_sessions));
        let lookups = self.warm_hit + self.warm_miss;
        if lookups > 0 {
            values.set(
                "machine.warm_hit_ratio",
                self.warm_hit as f64 / lookups as f64,
            );
        }
        values.set(
            "machine.zeroize_kb_per_op",
            per_op(self.zeroize_bytes) / 1024.0,
        );
        values.set("palvm.insns_per_op", per_op(self.vm_insns));
        values.set("verifier.accepts_per_op", per_op(self.verify_accept));
        values.set("trace.events_per_op", per_op(self.events));
        values.set("trace.dropped_events", self.dropped as f64);
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Mean of |repro − paper| / paper over `(repro, paper)` rows, in percent.
pub fn mean_err_pct(rows: &[(f64, f64)]) -> f64 {
    let sum: f64 = rows.iter().map(|(r, p)| ((r - p) / p).abs()).sum();
    100.0 * sum / rows.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        let a = seeded_bytes20(5, 4);
        assert_eq!(a, seeded_bytes20(5, 4));
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn paper_error_is_mean_relative_error() {
        assert!((mean_err_pct(&[(110.0, 100.0), (45.0, 50.0)]) - 10.0).abs() < 1e-12);
    }
}
