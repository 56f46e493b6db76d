//! Montgomery-form modular multiplication and exponentiation.
//!
//! RSA-1024/2048 exponentiation with plain multiply-then-divide reduction
//! spends most of its time in Knuth division. Montgomery's method replaces
//! every reduction with shifts and adds. [`crate::mpint::Mpint::mod_exp`]
//! switches to this path for odd moduli (every RSA modulus and prime is
//! odd); the `mpint/modexp_1024_{montgomery,division}` Criterion benches
//! quantify the win.
//!
//! **Widths.** A [`MontgomeryCtx`] pads its modulus to `K` limbs, the next
//! power of two up to 64 (a 4096-bit modulus), so `R = 2^(64·K)`, and
//! every kernel is compiled once per width over `[u64; K]`. Padding leaves
//! every result unchanged, since the padded limbs are zero. A modulus
//! wider than 64 limbs keeps no Montgomery constants, and
//! [`MontgomeryCtx::mod_exp`] takes the division path
//! ([`Mpint::mod_exp_plain`]) for it, as even moduli do.
//!
//! **Kernels.** Multiplication is CIOS (Koç, Acar, Kaliski, "Analyzing and
//! Comparing Montgomery Multiplication Algorithms"): `2K²` limb multiplies.
//! Squaring forms the full square first, each cross product `a[i]·a[j]`
//! (`i < j`) once, doubled by one shift, plus the diagonal `a[i]²`, then
//! runs a separate reduction: `K(K − 1)/2 + K + K²` limb multiplies, 100
//! against 128 at `K = 8`. Both end in the same branch-free final
//! subtraction, and each counts one [`crate::cost::Primitive::ModMul`].
//!
//! **Constant-time shape.** A context is built once per modulus and
//! reused: the RSA keys keep one per prime (and one for the public
//! modulus, built on first use), and Miller–Rabin keeps one per candidate
//! across all its rounds. Exponentiation runs a fixed window over the
//! exponent and fetches every table entry with a masked scan of the whole
//! table, so the sequence of products and the memory accesses depend only
//! on the exponent's bit length, never on its bits; no kernel branches or
//! indexes on a limb's value.

use crate::cost::{self, Primitive};
use crate::mpint::Mpint;

/// The widest kernel, in 64-bit limbs (a 4096-bit modulus).
const MAX_LIMBS: usize = 64;

/// Evaluates `$body` with the constant `$K` bound to `$width` when that is
/// a kernel width (a power of two up to [`MAX_LIMBS`]), else `$wide`.
macro_rules! with_width {
    ($width:expr, $K:ident => $body:expr, _ => $wide:expr) => {
        with_width!([1, 2, 4, 8, 16, 32, MAX_LIMBS] $width, $K => $body, _ => $wide)
    };
    ([$($k:tt),*] $width:expr, $K:ident => $body:expr, _ => $wide:expr) => {
        match $width {
            $($k => {
                const $K: usize = $k;
                $body
            })*
            _ => $wide,
        }
    };
}

/// Precomputed context for arithmetic modulo an odd `n`.
///
/// Deliberately not `Debug`: a context for an RSA prime holds the prime.
#[derive(Clone)]
pub struct MontgomeryCtx {
    /// The modulus (odd, > 1).
    modulus: Mpint,
    /// The modulus's limbs zero-padded to the kernel width `K`; empty when
    /// the modulus is wider than [`MAX_LIMBS`].
    n: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴`.
    n_prime: u64,
    /// `R² mod n` where `R = 2^(64·K)`, for conversion into Montgomery
    /// form (`K` limbs).
    r2: Vec<u64>,
    /// `R mod n`: the number 1 in Montgomery form (`K` limbs).
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

/// Returns table entry `idx` by reading every entry and keeping one
/// through a mask, so the memory access pattern does not depend on `idx`.
fn select_entry<const K: usize>(table: &[[u64; K]], idx: usize) -> [u64; K] {
    let mut out = [0u64; K];
    for (i, entry) in table.iter().enumerate() {
        let diff = (i ^ idx) as u64;
        // All ones iff diff == 0: (diff | -diff) has its top bit set
        // exactly when diff != 0.
        let mask = ((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1);
        for (o, &v) in out.iter_mut().zip(entry) {
            *o |= v & mask;
        }
    }
    out
}

/// `v` zero-padded to `K` limbs (`v` has at most `K`).
fn load<const K: usize>(v: &Mpint) -> [u64; K] {
    let mut out = [0u64; K];
    out[..v.limbs().len()].copy_from_slice(v.limbs());
    out
}

/// The number 1 in `K` limbs.
fn unit<const K: usize>() -> [u64; K] {
    let mut out = [0u64; K];
    out[0] = 1;
    out
}

/// A context vector as a `K`-limb array.
fn fixed<const K: usize>(v: &[u64]) -> &[u64; K] {
    v.try_into().expect("context vectors have the kernel width")
}

/// The final subtraction both kernels end in. The Montgomery result `t`
/// (with `top` as its limb `K`) is below `2n`; this always computes
/// `t − n`, then keeps it or `t` by a mask taken from the borrow, so it
/// does not branch on the value.
fn final_sub<const K: usize>(t: &[u64; K], top: u64, n: &[u64; K]) -> [u64; K] {
    let mut out = [0u64; K];
    let mut borrow = 0u64;
    for ((o, &ti), &ni) in out.iter_mut().zip(t).zip(n) {
        let (d1, b1) = ti.overflowing_sub(ni);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *o = d2;
        borrow = (b1 | b2) as u64;
    }
    // t < n exactly when the borrow runs through the top limb.
    let mask = ((top < borrow) as u64).wrapping_neg();
    for (o, &ti) in out.iter_mut().zip(t) {
        *o = (ti & mask) | (*o & !mask);
    }
    out
}

/// CIOS Montgomery product `a·b·R⁻¹ mod n` of `K`-limb values `a, b < n`.
///
/// Each outer step adds `a[i]·b` and `m·n` in one pass (two carry
/// chains), where `m` makes the low limb vanish, and shifts down a limb.
fn mont_mul<const K: usize>(a: &[u64; K], b: &[u64; K], n: &[u64; K], n_prime: u64) -> [u64; K] {
    cost::count(Primitive::ModMul);
    let mut t = [0u64; K];
    let mut top = 0u64;
    for &ai in a {
        let s = t[0] as u128 + ai as u128 * b[0] as u128;
        let m = (s as u64).wrapping_mul(n_prime);
        let r = (s as u64) as u128 + m as u128 * n[0] as u128;
        let (mut c_ab, mut c_mn) = (s >> 64, r >> 64);
        for j in 1..K {
            let s = t[j] as u128 + ai as u128 * b[j] as u128 + c_ab;
            let r = (s as u64) as u128 + m as u128 * n[j] as u128 + c_mn;
            t[j - 1] = r as u64;
            (c_ab, c_mn) = (s >> 64, r >> 64);
        }
        let s = top as u128 + c_ab + c_mn;
        t[K - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    final_sub(&t, top, n)
}

/// Montgomery square `a²·R⁻¹ mod n` of a `K`-limb value `a < n`.
///
/// Forms the `2K`-limb square (cross products once, doubled, plus the
/// diagonal), then reduces it one limb at a time: each step adds the `m·n`
/// that clears the lowest remaining limb, so the top `K` limbs and a carry
/// are left holding `a²·R⁻¹ < 2n`.
fn mont_sqr<const K: usize>(a: &[u64; K], n: &[u64; K], n_prime: u64) -> [u64; K] {
    cost::count(Primitive::ModMul);
    let mut wide = [[0u64; K]; 2];
    let t = wide.as_flattened_mut();
    // Cross products a[i]·a[j], i < j; row i ends in the untouched t[i + K].
    for i in 0..K {
        let mut c = 0u64;
        for j in i + 1..K {
            let s = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + c as u128;
            t[i + j] = s as u64;
            c = (s >> 64) as u64;
        }
        t[i + K] = c;
    }
    // Double them and add the diagonal; a² < 2^(128·K) leaves no carry.
    let (mut shifted, mut c) = (0u64, 0u64);
    for (i, &ai) in a.iter().enumerate() {
        let sq = ai as u128 * ai as u128;
        for (limb, half) in [(2 * i, sq as u64), (2 * i + 1, (sq >> 64) as u64)] {
            let v = t[limb];
            let s = ((v << 1) | shifted) as u128 + half as u128 + c as u128;
            shifted = v >> 63;
            t[limb] = s as u64;
            c = (s >> 64) as u64;
        }
    }
    // Reduce: row i clears limb i and carries into limb i + K + 1.
    let mut top = 0u64;
    for i in 0..K {
        let m = t[i].wrapping_mul(n_prime);
        let mut c = 0u64;
        for (j, &nj) in n.iter().enumerate() {
            let s = t[i + j] as u128 + m as u128 * nj as u128 + c as u128;
            t[i + j] = s as u64;
            c = (s >> 64) as u64;
        }
        let s = t[i + K] as u128 + c as u128 + top as u128;
        t[i + K] = s as u64;
        top = (s >> 64) as u64;
    }
    final_sub(&wide[1], top, n)
}

impl MontgomeryCtx {
    /// Builds a context for odd `modulus > 1`; `None` for even or trivial
    /// moduli. Costs one Montgomery product (none for a modulus wider than
    /// the widest kernel).
    pub fn new(modulus: &Mpint) -> Option<MontgomeryCtx> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let mut ctx = MontgomeryCtx {
            modulus: modulus.clone(),
            n: Vec::new(),
            n_prime: neg_inv_u64(modulus.limbs()[0]),
            r2: Vec::new(),
            one: Vec::new(),
        };
        with_width!(
            modulus.limbs().len().next_power_of_two(),
            K => ctx.set_constants::<K>(),
            _ => ()
        );
        Some(ctx)
    }

    /// Fills the `K`-limb constants: `R²` from one shift and division, and
    /// `R mod n = montmul(R², 1)`.
    fn set_constants<const K: usize>(&mut self) {
        let n = load::<K>(&self.modulus);
        let r2 = load::<K>(&Mpint::one().shl(128 * K).rem(&self.modulus));
        let one = mont_mul(&r2, &unit(), &n, self.n_prime);
        (self.n, self.r2, self.one) = (n.to_vec(), r2.to_vec(), one.to_vec());
    }

    /// The modulus this context reduces by.
    pub(crate) fn modulus(&self) -> &Mpint {
        &self.modulus
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
    /// `2^w + (W − 1)·(w + 1)` Montgomery products (two of them convert
    /// into and out of Montgomery form), whatever the exponent's bits.
    pub fn mod_exp(&self, base: &Mpint, exp: &Mpint) -> Mpint {
        self.mod_exp_window(base, exp, window_bits(exp.bit_len()))
    }

    /// [`Self::mod_exp`] with an explicit window width `w` (1..=6).
    pub(crate) fn mod_exp_window(&self, base: &Mpint, exp: &Mpint, w: usize) -> Mpint {
        with_width!(
            self.n.len(),
            K => self.mod_exp_fixed::<K>(base, exp, w),
            _ => base.mod_exp_plain(exp, &self.modulus)
        )
    }

    /// The exponentiation loop at kernel width `K`.
    fn mod_exp_fixed<const K: usize>(&self, base: &Mpint, exp: &Mpint, w: usize) -> Mpint {
        let bits = exp.bit_len();
        if bits == 0 {
            return Mpint::one();
        }
        let (n, np) = (fixed::<K>(&self.n), self.n_prime);
        let mut table = vec![*fixed::<K>(&self.one); 1 << w];
        // Into Montgomery form: base·R = montmul(base, R²).
        table[1] = mont_mul(&load(&base.rem(&self.modulus)), fixed(&self.r2), n, np);
        for i in 2..(1 << w) {
            table[i] = mont_mul(&table[i - 1], &table[1], n, np);
        }

        let e = exp.limbs();
        let windows = bits.div_ceil(w);
        let mut acc = select_entry(&table, window_value(e, (windows - 1) * w, w));
        for win in (0..windows - 1).rev() {
            for _ in 0..w {
                acc = mont_sqr(&acc, n, np);
            }
            let entry = select_entry(&table, window_value(e, win * w, w));
            acc = mont_mul(&acc, &entry, n, np);
        }
        // Out of Montgomery form: montmul(acc, 1).
        Mpint::from_limbs_le(mont_mul(&acc, &unit(), n, np).to_vec())
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

    /// The slice CIOS the fixed-width kernels replaced, kept as their
    /// oracle: leaves `a·b·R⁻¹` (`< 2n`) in the `k + 1` limbs of `t`, where
    /// `k = n.len()` is read at run time and `R = 2^(64·k)`.
    fn cios(a: &[u64], b: &[u64], n: &[u64], n_prime: u64, t: &mut [u64]) {
        let k = n.len();
        let (a, b, t) = (&a[..k], &b[..k], &mut t[..k + 1]);
        t.fill(0);
        for &ai in a {
            let s = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (s as u64).wrapping_mul(n_prime);
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

    /// The slice kernel's final reduction of a CIOS result `t < 2n`.
    fn reduce_into(t: &[u64], n: &[u64], out: &mut [u64]) {
        let k = n.len();
        let mut borrow = 0u64;
        for ((o, &ti), &ni) in out.iter_mut().zip(&t[..k]).zip(n) {
            let (d1, b1) = ti.overflowing_sub(ni);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 | b2) as u64;
        }
        let mask = ((t[k] < borrow) as u64).wrapping_neg();
        for (o, &ti) in out.iter_mut().zip(&t[..k]) {
            *o = (ti & mask) | (*o & !mask);
        }
    }

    /// The slice kernel's reduced product, for the oracle tests.
    fn slice_mont_mul(a: &[u64], b: &[u64], n: &[u64], n_prime: u64) -> Vec<u64> {
        let mut t = vec![0u64; n.len() + 1];
        cios(a, b, n, n_prime, &mut t);
        let mut out = vec![0u64; n.len()];
        reduce_into(&t, n, &mut out);
        out
    }

    /// Checks both width-`K` kernels on `modulus` against the slice oracle
    /// and against `x·R ≡ a·b (mod n)`, for random operands below `n` and
    /// for 0, 1 and `n − 1`.
    fn check_kernels<const K: usize>(modulus: &Mpint, rng: &mut XorShiftRng) {
        let ctx = MontgomeryCtx::new(modulus).unwrap();
        let (n, np) = (fixed::<K>(&ctx.n), ctx.n_prime);
        let r = Mpint::one().shl(64 * K);
        let mut operands = vec![Mpint::zero(), Mpint::one(), modulus.sub(&Mpint::one())];
        operands.extend((0..3).map(|_| Mpint::random_below(rng, modulus)));
        let what = |a: &Mpint, b: &Mpint| format!("K = {K}, n = {modulus:?}, {a:?} · {b:?}");
        for a in &operands {
            let al = load::<K>(a);
            for b in &operands {
                let bl = load::<K>(b);
                let got = mont_mul(&al, &bl, n, np);
                assert_eq!(got[..], slice_mont_mul(&al, &bl, n, np), "{}", what(a, b));
                let got = Mpint::from_limbs_le(got.to_vec());
                assert!(&got < modulus, "{}", what(a, b));
                let want = a.mul_mod(b, modulus);
                assert_eq!(got.mul(&r).rem(modulus), want, "{}", what(a, b));
            }
            let sq = mont_sqr(&al, n, np);
            assert_eq!(sq[..], slice_mont_mul(&al, &al, n, np), "{}", what(a, a));
        }
    }

    #[test]
    fn kernels_match_the_slice_oracle() {
        let mut rng = XorShiftRng::new(82);
        for limbs in (1..=9).chain(15..=17).chain(31..=33).chain([MAX_LIMBS]) {
            let all_ones = Mpint::one().shl(64 * limbs).sub(&Mpint::one());
            let random = odd_modulus(&mut rng, 64 * limbs);
            let mut moduli = vec![all_ones, random];
            if limbs > 1 {
                // Top limb 1: the smallest modulus of its length, so the
                // most padding relative to R.
                let mut top_one = Mpint::one().shl(64 * (limbs - 1));
                top_one = top_one.add(&Mpint::random_bits(&mut rng, 64));
                top_one.set_bit(0);
                moduli.push(top_one);
            }
            for m in &moduli {
                assert_eq!(m.limbs().len(), limbs);
                with_width!(
                    limbs.next_power_of_two(),
                    K => check_kernels::<K>(m, &mut rng),
                    _ => unreachable!("{limbs} limbs have a kernel")
                );
            }
        }
    }

    #[test]
    fn wider_than_the_widest_kernel_takes_the_division_path() {
        let mut rng = XorShiftRng::new(83);
        let m = odd_modulus(&mut rng, 64 * MAX_LIMBS + 1);
        let ctx = MontgomeryCtx::new(&m).expect("odd moduli of any width get a context");
        let base = Mpint::random_below(&mut rng, &m);
        let exp = exponent(&mut rng, 40);
        assert_eq!(modmuls(&ctx, &base, &exp), 0);
        assert_eq!(ctx.mod_exp(&base, &exp), base.mod_exp_plain(&exp, &m));
        assert_eq!(base.mod_exp(&exp, &m), base.mod_exp_plain(&exp, &m));
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
        // n = 2^64 - 59 (one limb). Kernel results t < 2n land on both sides
        // of n and above R = 2^64 (t[1] = 1).
        let nv = 0xFFFF_FFFF_FFFF_FFC5u64;
        for (t, want) in [
            ([5u64, 0], 5u64),
            ([nv - 1, 0], nv - 1),
            ([nv, 0], 0),
            ([u64::MAX, 0], u64::MAX - nv),
            ([3, 1], 3 + 59),
        ] {
            assert_eq!(final_sub(&[t[0]], t[1], &[nv]), [want], "t = {t:?}");
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
