//! Montgomery-form modular multiplication and exponentiation.
//!
//! RSA-1024/2048 exponentiation with plain multiply-then-divide reduction
//! spends most of its time in Knuth division. Montgomery's method (CIOS
//! variant — Koç, Acar, Kaliski, "Analyzing and Comparing Montgomery
//! Multiplication Algorithms") replaces every reduction with shifts and
//! adds. [`crate::mpint::Mpint::mod_exp`] switches to this path for odd
//! moduli (every RSA modulus and prime is odd); the
//! `mpint/modexp_1024_{montgomery,division}` Criterion benches quantify
//! the win.
//!
//! A [`MontgomeryCtx`] is built once per modulus and reused: the RSA keys
//! keep one per prime (and one for the public modulus, built on first
//! use), and Miller–Rabin keeps one per candidate across all its rounds.
//! Exponentiation runs a fixed window over the exponent, so the sequence
//! of multiplications depends only on the exponent's bit length, never on
//! its bits.

use crate::mpint::Mpint;

/// Precomputed context for arithmetic modulo an odd `n`.
///
/// Deliberately not `Debug`: a context for an RSA prime holds the prime.
#[derive(Clone)]
pub struct MontgomeryCtx {
    /// The modulus (odd, > 1); its limbs are the `k` limbs every
    /// Montgomery-form value is padded to.
    modulus: Mpint,
    /// `-n⁻¹ mod 2⁶⁴`.
    n_prime: u64,
    /// `R² mod n` where `R = 2^(64·k)`, for conversion into Montgomery
    /// form.
    r2: Vec<u64>,
    /// `R mod n`: the number 1 in Montgomery form.
    one: Vec<u64>,
}

/// Computes `-n⁻¹ mod 2⁶⁴` for odd `n` via Newton iteration (5 rounds
/// double the precision each time: 2 → 4 → 8 → 16 → 32 → 64 bits).
fn neg_inv_u64(n0: u64) -> u64 {
    debug_assert!(n0 & 1 == 1);
    let mut inv: u64 = n0; // correct mod 2^3 for odd n0 (n*n ≡ 1 mod 8)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
    }
    debug_assert_eq!(n0.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

/// Window width for an exponent of `bits` bits: the width that minimizes
/// the multiplication count `2^w + (⌈bits/w⌉ − 1)·(w + 1)` at the RSA
/// sizes (17-bit public exponent, 512/1024/2048-bit private and
/// Miller–Rabin exponents), capped at 6 so the table stays at 64 entries.
pub(crate) fn window_bits(bits: usize) -> usize {
    match bits {
        0..=3 => 1,
        4..=20 => 2,
        21..=63 => 3,
        64..=244 => 4,
        245..=815 => 5,
        _ => 6,
    }
}

/// Bits `[lo, lo + w)` of the little-endian limbs `e` (zero past the end).
fn window_value(e: &[u64], lo: usize, w: usize) -> usize {
    let (limb, off) = (lo / 64, lo % 64);
    let mut v = e.get(limb).map_or(0, |&l| l >> off);
    if off + w > 64 {
        v |= e.get(limb + 1).map_or(0, |&l| l << (64 - off));
    }
    (v & ((1 << w) - 1)) as usize
}

/// Copies table entry `idx` (of `k` limbs each) into `out` by reading every
/// entry and keeping one through a mask, so the memory access pattern does
/// not depend on `idx`.
fn select_entry(table: &[u64], idx: usize, out: &mut [u64]) {
    out.fill(0);
    for (i, entry) in table.chunks_exact(out.len()).enumerate() {
        let diff = (i ^ idx) as u64;
        // All ones iff diff == 0: (diff | -diff) has its top bit set
        // exactly when diff != 0.
        let mask = ((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1);
        for (o, &v) in out.iter_mut().zip(entry) {
            *o |= v & mask;
        }
    }
}

/// Copies `v` into `dst`, zero-padding the high limbs.
fn load(dst: &mut [u64], v: &Mpint) {
    let limbs = v.limbs();
    dst[..limbs.len()].copy_from_slice(limbs);
    dst[limbs.len()..].fill(0);
}

impl MontgomeryCtx {
    /// Builds a context for odd `modulus > 1`; `None` for even or trivial
    /// moduli.
    pub fn new(modulus: &Mpint) -> Option<MontgomeryCtx> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let k = modulus.limbs().len();
        let mut r2 = vec![0u64; k];
        load(&mut r2, &Mpint::one().shl(128 * k).rem(modulus));
        let mut ctx = MontgomeryCtx {
            modulus: modulus.clone(),
            n_prime: neg_inv_u64(modulus.limbs()[0]),
            r2,
            one: vec![0u64; k],
        };
        // R mod n = montmul(R², 1).
        let mut one = vec![0u64; k];
        one[0] = 1;
        ctx.mont_mul(&mut one, &ctx.r2, &mut vec![0u64; k + 1]);
        ctx.one = one;
        Some(ctx)
    }

    /// The modulus this context reduces by.
    pub(crate) fn modulus(&self) -> &Mpint {
        &self.modulus
    }

    /// CIOS Montgomery product of `k`-limb inputs `a, b < n`: leaves
    /// `a·b·R⁻¹` (`< 2n`, so at most `k + 1` significant limbs) in
    /// `t[..=k]`. `t` is caller-owned scratch of `k + 1` limbs.
    ///
    /// Each outer step adds `a[i]·b` and `m·n` in one pass (two carry
    /// chains), where `m` makes the low limb vanish, and shifts down a limb.
    fn cios(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        crate::cost::count(crate::cost::Primitive::ModMul);
        let n = self.modulus.limbs();
        let k = n.len();
        let (a, b, t) = (&a[..k], &b[..k], &mut t[..k + 1]);
        t.fill(0);
        for &ai in a {
            let s = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (s as u64).wrapping_mul(self.n_prime);
            let r = (s as u64) as u128 + m as u128 * n[0] as u128;
            let (mut c_ab, mut c_mn) = (s >> 64, r >> 64);
            for j in 1..k {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + c_ab;
                let r = (s as u64) as u128 + m as u128 * n[j] as u128 + c_mn;
                t[j - 1] = r as u64;
                (c_ab, c_mn) = (s >> 64, r >> 64);
            }
            let s = t[k] as u128 + c_ab + c_mn;
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
        }
    }

    /// Final reduction of a CIOS result `t < 2n` into `out`, without a
    /// branch on the value: always computes `t − n`, then keeps it or `t`
    /// by a mask taken from the borrow.
    fn reduce_into(&self, t: &[u64], out: &mut [u64]) {
        let n = self.modulus.limbs();
        let k = n.len();
        let mut borrow = 0u64;
        for ((o, &ti), &ni) in out.iter_mut().zip(&t[..k]).zip(n) {
            let (d1, b1) = ti.overflowing_sub(ni);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 | b2) as u64;
        }
        // t < n exactly when the borrow runs through the top limb t[k].
        let keep_t = (t[k] < borrow) as u64;
        let mask = keep_t.wrapping_neg();
        for (o, &ti) in out.iter_mut().zip(&t[..k]) {
            *o = (ti & mask) | (*o & !mask);
        }
    }

    /// `a ← a·b·R⁻¹ mod n` for `k`-limb Montgomery-form values; `t` is
    /// scratch of `k + 1` limbs, so no multiply allocates.
    fn mont_mul(&self, a: &mut [u64], b: &[u64], t: &mut [u64]) {
        self.cios(a, b, t);
        self.reduce_into(t, a);
    }

    /// `a ← a²·R⁻¹ mod n` (one counted Montgomery multiplication).
    fn mont_sqr(&self, a: &mut [u64], t: &mut [u64]) {
        self.cios(a, a, t);
        self.reduce_into(t, a);
    }

    /// Modular exponentiation `base^exp mod n`: a fixed window of
    /// `w = window_bits(exp.bit_len())` bits over Montgomery products.
    ///
    /// The table holds `base⁰ … base^(2^w − 1)` in Montgomery form. The
    /// top window loads its entry; every further window does `w`
    /// squarings and one multiplication by the entry for its bits (zero
    /// windows multiply by 1), and every entry is fetched with a masked
    /// scan of the whole table. The work is therefore fixed by the
    /// exponent's bit length `L`: with `W = ⌈L/w⌉` windows it is
    /// `2^w + (W − 1)·(w + 1)` Montgomery multiplications (two of them
    /// convert into and out of Montgomery form), whatever the exponent's
    /// bits.
    pub fn mod_exp(&self, base: &Mpint, exp: &Mpint) -> Mpint {
        self.mod_exp_window(base, exp, window_bits(exp.bit_len()))
    }

    /// [`Self::mod_exp`] with an explicit window width `w` (1..=6).
    pub(crate) fn mod_exp_window(&self, base: &Mpint, exp: &Mpint, w: usize) -> Mpint {
        let bits = exp.bit_len();
        if bits == 0 {
            return Mpint::one();
        }
        let k = self.one.len();
        let mut t = vec![0u64; k + 1];
        let mut table = vec![0u64; k << w];
        table[..k].copy_from_slice(&self.one);
        // Into Montgomery form: base·R = montmul(base, R²).
        load(&mut table[k..2 * k], &base.rem(&self.modulus));
        self.mont_mul(&mut table[k..2 * k], &self.r2, &mut t);
        for i in 2..(1 << w) {
            let (done, rest) = table.split_at_mut(i * k);
            let entry = &mut rest[..k];
            entry.copy_from_slice(&done[(i - 1) * k..]);
            self.mont_mul(entry, &done[k..2 * k], &mut t);
        }

        let e = exp.limbs();
        let windows = bits.div_ceil(w);
        let mut acc = vec![0u64; k];
        let mut entry = vec![0u64; k];
        select_entry(&table, window_value(e, (windows - 1) * w, w), &mut acc);
        for win in (0..windows - 1).rev() {
            for _ in 0..w {
                self.mont_sqr(&mut acc, &mut t);
            }
            select_entry(&table, window_value(e, win * w, w), &mut entry);
            self.mont_mul(&mut acc, &entry, &mut t);
        }
        // Out of Montgomery form: montmul(acc, 1).
        load(&mut entry, &Mpint::one());
        self.mont_mul(&mut acc, &entry, &mut t);
        Mpint::from_limbs_le(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;
    use proptest::prelude::*;

    fn mp(v: u128) -> Mpint {
        Mpint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn neg_inv_correct_for_odd_values() {
        for n in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            let ninv = neg_inv_u64(n);
            assert_eq!(n.wrapping_mul(ninv), 1u64.wrapping_neg());
        }
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryCtx::new(&mp(10)).is_none());
        assert!(MontgomeryCtx::new(&Mpint::one()).is_none());
        assert!(MontgomeryCtx::new(&Mpint::zero()).is_none());
        assert!(MontgomeryCtx::new(&mp(9)).is_some());
    }

    #[test]
    fn matches_plain_mod_exp_small() {
        let m = mp(497);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.mod_exp(&mp(4), &mp(13)), mp(445));
        assert_eq!(ctx.mod_exp(&mp(2), &mp(0)), Mpint::one());
        assert_eq!(ctx.mod_exp(&mp(0), &mp(5)), Mpint::zero());
    }

    #[test]
    fn matches_plain_mod_exp_large() {
        let mut rng = XorShiftRng::new(77);
        for _ in 0..10 {
            let mut m = Mpint::random_bits(&mut rng, 512);
            m.set_bit(0); // odd
            let base = Mpint::random_below(&mut rng, &m);
            let exp = Mpint::random_bits(&mut rng, 128);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            assert_eq!(ctx.mod_exp(&base, &exp), base.mod_exp_plain(&exp, &m));
        }
    }

    #[test]
    fn fermat_little_theorem() {
        // 2^126 primes-ish check with a known prime: 2^127 - 1.
        let p = Mpint::one().shl(127).sub(&Mpint::one());
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let pm1 = p.sub(&Mpint::one());
        for a in [2u128, 3, 65537] {
            assert_eq!(ctx.mod_exp(&mp(a), &pm1), Mpint::one());
        }
    }

    /// Random odd modulus of exactly `bits` bits.
    fn odd_modulus(rng: &mut XorShiftRng, bits: usize) -> Mpint {
        let mut m = Mpint::random_bits(rng, bits);
        m.set_bit(0);
        m
    }

    /// Random exponent of exactly `bits` bits (zero for `bits == 0`).
    fn exponent(rng: &mut XorShiftRng, bits: usize) -> Mpint {
        if bits == 0 {
            Mpint::zero()
        } else {
            Mpint::random_bits(rng, bits)
        }
    }

    #[test]
    fn matches_plain_at_rsa_sizes() {
        let mut rng = XorShiftRng::new(78);
        for bits in [512usize, 1024, 2048] {
            let m = odd_modulus(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let w = window_bits(bits);
            for len in [0, 1, w - 1, w, w + 1, 17, 64, bits] {
                let base = Mpint::random_below(&mut rng, &m);
                let exp = exponent(&mut rng, len);
                let want = base.mod_exp_plain(&exp, &m);
                assert_eq!(ctx.mod_exp(&base, &exp), want, "{bits}-bit n, {len}-bit e");
                assert_eq!(base.mod_exp(&exp, &m), want, "{bits}-bit n, {len}-bit e");
            }
        }
    }

    #[test]
    fn every_width_matches_plain_across_window_boundaries() {
        // Exponent lengths straddling every window boundary of every width,
        // including windows that cross a 64-bit limb boundary.
        let mut rng = XorShiftRng::new(79);
        let m = odd_modulus(&mut rng, 512);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for w in 1..=6 {
            for len in (1..=3 * w + 1).chain([63, 64, 65, 127, 128, 129, 511]) {
                let base = Mpint::random_below(&mut rng, &m);
                let exp = exponent(&mut rng, len);
                assert_eq!(
                    ctx.mod_exp_window(&base, &exp, w),
                    base.mod_exp_plain(&exp, &m),
                    "w = {w}, {len}-bit e"
                );
            }
        }
    }

    #[test]
    fn base_at_or_above_modulus_is_reduced() {
        let mut rng = XorShiftRng::new(80);
        let m = odd_modulus(&mut rng, 1024);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let exp = exponent(&mut rng, 1024);
        for base in [m.clone(), m.add(&Mpint::one()), m.mul(&m).add(&mp(12345))] {
            assert_eq!(ctx.mod_exp(&base, &exp), base.mod_exp_plain(&exp, &m));
        }
    }

    #[test]
    fn final_subtraction_selects_reduced_value() {
        // n = 2^64 - 59 (one limb). CIOS results t < 2n land on both sides
        // of n and above R = 2^64 (t[1] = 1).
        let n = mp(0xFFFF_FFFF_FFFF_FFC5);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let nv = 0xFFFF_FFFF_FFFF_FFC5u64;
        for (t, want) in [
            ([5u64, 0], 5u64),
            ([nv - 1, 0], nv - 1),
            ([nv, 0], 0),
            ([u64::MAX, 0], u64::MAX - nv),
            ([3, 1], 3 + 59),
        ] {
            let mut out = [0u64; 1];
            ctx.reduce_into(&t, &mut out);
            assert_eq!(out[0], want, "t = {t:?}");
        }
    }

    /// Montgomery multiplications made by one `mod_exp` call.
    fn modmuls(ctx: &MontgomeryCtx, base: &Mpint, exp: &Mpint) -> u64 {
        let before = crate::cost::snapshot();
        ctx.mod_exp(base, exp);
        crate::cost::snapshot().since(&before).modmul
    }

    #[test]
    fn exponent_bits_do_not_change_the_work() {
        // The counted-work twin of `ct_eq_examined`: at a fixed exponent
        // length, a one-bit-set exponent and an all-ones exponent make the
        // same number of Montgomery multiplications (square-and-multiply
        // would multiply only on set bits).
        let mut rng = XorShiftRng::new(81);
        let m = odd_modulus(&mut rng, 1024);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = Mpint::random_below(&mut rng, &m);
        for len in [17usize, 512, 1024] {
            let one_bit = Mpint::one().shl(len - 1);
            let all_ones = Mpint::one().shl(len).sub(&Mpint::one());
            let random = exponent(&mut rng, len);
            let sparse = modmuls(&ctx, &base, &one_bit);
            assert_eq!(sparse, modmuls(&ctx, &base, &all_ones), "{len}-bit e");
            assert_eq!(sparse, modmuls(&ctx, &base, &random), "{len}-bit e");
            // 2^w + (⌈len/w⌉ − 1)·(w + 1), as `mod_exp` documents.
            let w = window_bits(len);
            let expected = (1u64 << w) + (len.div_ceil(w) as u64 - 1) * (w as u64 + 1);
            assert_eq!(sparse, expected, "{len}-bit e, w = {w}");
        }
    }

    #[test]
    fn window_widths_at_rsa_exponent_lengths() {
        // The widths the `cost::Primitive::ModMul` doc quotes.
        let widths = [17, 512, 1024, 2048].map(window_bits);
        assert_eq!(widths, [2, 5, 6, 6]);
    }

    proptest! {
        #[test]
        fn prop_matches_plain(
            base in any::<u128>(),
            exp in any::<u64>(),
            modulus in any::<u128>(),
        ) {
            let m = mp(modulus | 1); // force odd
            prop_assume!(!m.is_one());
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let b = mp(base);
            let e = Mpint::from(exp);
            prop_assert_eq!(ctx.mod_exp(&b, &e), b.mod_exp_plain(&e, &m));
        }

        #[test]
        fn prop_mont_mul_reduces(seed in any::<u64>()) {
            let mut rng = XorShiftRng::new(seed);
            let mut m = Mpint::random_bits(&mut rng, 256);
            m.set_bit(0);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let a = Mpint::random_below(&mut rng, &m);
            let b = Mpint::random_below(&mut rng, &m);
            let r = ctx.mod_exp(&a, &b);
            prop_assert!(r < m, "result fully reduced");
        }
    }
}
