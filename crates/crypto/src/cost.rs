//! Primitive-operation cost counters: measured counts of the work the
//! simulated crypto does.
//!
//! The perf report and the farm attribution answer *which phase* of a
//! Flicker session is slow, in virtual time; this module answers *why* on
//! the host by counting the primitive operations — Montgomery
//! multiplications, SHA-1/SHA-256 compression-function invocations, HMAC
//! computations, AES block operations — that the simulated crypto actually
//! executes. The hot paths ([`crate::montgomery`], [`crate::sha1`],
//! [`crate::sha256`], [`crate::hmac`], [`crate::aes`]) bump these counters
//! inline; profilers take a [`snapshot`] before and after a region and
//! diff the two with [`CostSnapshot::since`]. The host benchmark reports
//! the deltas per operation (`crypto.modmul_per_op`, ...).
//!
//! The counters are thread-local [`Cell`]s: this crate sits at the bottom
//! of the workspace (below `flicker-trace`), so it cannot charge a trace
//! recorder itself, and a thread-local costs one add on paths that run
//! tens of thousands of times per RSA operation.

use std::cell::Cell;

/// The primitive operation classes the counters distinguish.
///
/// These are the units the ROADMAP's hot-path speed pass would optimize:
/// a Montgomery+CRT RSA change pays off proportionally to
/// [`Primitive::ModMul`], an SHA schedule precompute to the compression
/// counts, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// One Montgomery product, the inner loop of every modular
    /// exponentiation: each call of either kernel in [`crate::montgomery`],
    /// the multiply or the dedicated square, counts one.
    ///
    /// An exponentiation by an `L`-bit exponent (`L ≥ 1`) with window
    /// width `w` (chosen from `L`: 2 for the 17-bit public exponent, 5 for
    /// 512-bit, 6 for 1024-bit and longer exponents) costs exactly
    /// `2^w + (⌈L/w⌉ − 1)·(w + 1)` of these, whatever the exponent's bits:
    /// `2^w − 2` to fill the table, `w` squarings and one multiply for
    /// each window below the top one, and one each for the conversions
    /// into and out of Montgomery form. Building a context costs one more.
    /// A modulus wider than the widest kernel (64 limbs) exponentiates by
    /// division and counts none.
    ModMul,
    /// One SHA-1 compression-function invocation (64-byte block).
    Sha1Compress,
    /// One SHA-256 compression-function invocation (64-byte block).
    Sha256Compress,
    /// One complete HMAC computation (keyed setup + finalize).
    Hmac,
    /// One AES-128 block encryption or decryption (16 bytes).
    AesBlock,
}

impl Primitive {
    /// Every primitive class, in canonical (stable) report order.
    pub const ALL: [Primitive; 5] = [
        Primitive::ModMul,
        Primitive::Sha1Compress,
        Primitive::Sha256Compress,
        Primitive::Hmac,
        Primitive::AesBlock,
    ];

    /// Stable snake_case name. Profiles recorded before TPM commands lost
    /// their modeled per-primitive split carry it as a frame name under
    /// each ordinal; the bench share-drift rule folds such frames away.
    pub fn name(&self) -> &'static str {
        match self {
            Primitive::ModMul => "modmul",
            Primitive::Sha1Compress => "sha1_compress",
            Primitive::Sha256Compress => "sha256_compress",
            Primitive::Hmac => "hmac",
            Primitive::AesBlock => "aes_block",
        }
    }
}

impl std::fmt::Display for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A point-in-time reading of every primitive counter on this thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Montgomery multiplications performed.
    pub modmul: u64,
    /// SHA-1 compression-function invocations.
    pub sha1_compress: u64,
    /// SHA-256 compression-function invocations.
    pub sha256_compress: u64,
    /// Complete HMAC computations.
    pub hmac: u64,
    /// AES block operations (encrypt + decrypt).
    pub aes_block: u64,
}

impl CostSnapshot {
    /// Per-class delta `self - earlier` (saturating, so a [`reset`]
    /// between the two snapshots degrades to zero, not garbage).
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            modmul: self.modmul.saturating_sub(earlier.modmul),
            sha1_compress: self.sha1_compress.saturating_sub(earlier.sha1_compress),
            sha256_compress: self.sha256_compress.saturating_sub(earlier.sha256_compress),
            hmac: self.hmac.saturating_sub(earlier.hmac),
            aes_block: self.aes_block.saturating_sub(earlier.aes_block),
        }
    }

    /// The count for one primitive class.
    pub fn get(&self, p: Primitive) -> u64 {
        match p {
            Primitive::ModMul => self.modmul,
            Primitive::Sha1Compress => self.sha1_compress,
            Primitive::Sha256Compress => self.sha256_compress,
            Primitive::Hmac => self.hmac,
            Primitive::AesBlock => self.aes_block,
        }
    }

    /// Total operations across every class.
    pub fn total(&self) -> u64 {
        Primitive::ALL.iter().map(|&p| self.get(p)).sum()
    }

    /// `(primitive, count)` pairs for the non-zero classes, in canonical
    /// order.
    pub fn nonzero(&self) -> Vec<(Primitive, u64)> {
        Primitive::ALL
            .into_iter()
            .map(|p| (p, self.get(p)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

thread_local! {
    static COUNTS: Cell<CostSnapshot> = const { Cell::new(CostSnapshot {
        modmul: 0,
        sha1_compress: 0,
        sha256_compress: 0,
        hmac: 0,
        aes_block: 0,
    }) };
}

/// Reads the current counters for this thread.
pub fn snapshot() -> CostSnapshot {
    COUNTS.with(Cell::get)
}

/// Zeroes the counters for this thread. Profilers normally prefer
/// snapshot-and-diff ([`CostSnapshot::since`]) so nested measurements
/// compose; `reset` exists for test isolation.
pub fn reset() {
    COUNTS.with(|c| c.set(CostSnapshot::default()));
}

/// Adds one operation of class `p` (saturating). `pub` so sibling crates
/// layering new primitives over this one (e.g. the TPM's storage root)
/// stay attributable, but the expected callers are this crate's own hot
/// paths.
#[inline]
pub fn count(p: Primitive) {
    COUNTS.with(|c| {
        let mut s = c.get();
        let slot = match p {
            Primitive::ModMul => &mut s.modmul,
            Primitive::Sha1Compress => &mut s.sha1_compress,
            Primitive::Sha256Compress => &mut s.sha256_compress,
            Primitive::Hmac => &mut s.hmac,
            Primitive::AesBlock => &mut s.aes_block,
        };
        *slot = slot.saturating_add(1);
        c.set(s);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;

    #[test]
    fn snapshot_diff_isolates_a_region() {
        let before = snapshot();
        count(Primitive::ModMul);
        count(Primitive::ModMul);
        count(Primitive::AesBlock);
        let delta = snapshot().since(&before);
        assert_eq!(delta.modmul, 2);
        assert_eq!(delta.aes_block, 1);
        assert_eq!(delta.sha1_compress, 0);
        assert_eq!(delta.total(), 3);
    }

    #[test]
    fn sha1_counts_compressions() {
        let before = snapshot();
        // 3 blocks of message + 1 padding block.
        crate::sha1::Sha1::digest(&[0u8; 192]);
        let delta = snapshot().since(&before);
        assert_eq!(delta.sha1_compress, 4);
    }

    #[test]
    fn sha256_counts_compressions() {
        let before = snapshot();
        crate::sha256::Sha256::digest(&[0u8; 64]);
        let delta = snapshot().since(&before);
        assert_eq!(delta.sha256_compress, 2, "one data block + one padding");
    }

    #[test]
    fn hmac_counts_one_mac_plus_compressions() {
        let before = snapshot();
        crate::hmac::Hmac::<crate::sha1::Sha1>::mac(b"key", b"message");
        let delta = snapshot().since(&before);
        assert_eq!(delta.hmac, 1);
        assert!(delta.sha1_compress >= 2, "inner + outer hash compress");
    }

    #[test]
    fn aes_counts_blocks() {
        let aes = crate::aes::Aes128::new(&[0u8; 16]);
        let before = snapshot();
        let ct = aes.cbc_encrypt(&[0u8; 16], &[0u8; 32]);
        let delta = snapshot().since(&before);
        assert_eq!(delta.aes_block, 3, "two data blocks + PKCS#7 pad block");
        let before = snapshot();
        aes.cbc_decrypt(&[0u8; 16], &ct).unwrap();
        assert_eq!(snapshot().since(&before).aes_block, 3);
    }

    #[test]
    fn modexp_counts_montmuls() {
        let m = crate::mpint::Mpint::from_bytes_be(&0xFFFF_FFFBu64.to_be_bytes());
        let ctx = crate::montgomery::MontgomeryCtx::new(&m).unwrap();
        let base = crate::mpint::Mpint::from_bytes_be(&[3]);
        let exp = crate::mpint::Mpint::from_bytes_be(&65537u64.to_be_bytes());
        let before = snapshot();
        ctx.mod_exp(&base, &exp);
        let delta = snapshot().since(&before);
        // e = 65537 has 17 bits: window width 2, nine windows, so
        // 2^2 + 8·3 = 28 Montgomery multiplications.
        assert_eq!(delta.modmul, 28);
    }

    #[test]
    fn saturating_since_survives_reset() {
        count(Primitive::Hmac);
        let before = snapshot();
        reset();
        count(Primitive::ModMul);
        let delta = snapshot().since(&before);
        assert_eq!(delta.hmac, 0, "saturates instead of wrapping");
    }
}
