//! Primality testing and prime generation for RSA key generation.
//!
//! RSA-1024 key generation is the single most expensive CPU operation in the
//! paper's evaluation (185.7 ms average with a 14 % standard deviation in
//! Figure 9a — the variance comes from the geometric number of candidates
//! tried before a prime is found). This module reports how many candidates
//! and Miller–Rabin rounds were consumed so the simulator's cost model can
//! reproduce exactly that distribution.
//!
//! A candidate first meets trial division by the 60 primes up to 281,
//! which computes each remainder from the candidate's limbs without
//! allocating; about four in five odd candidates stop there. The survivors
//! run Miller–Rabin over one [`MontgomeryCtx`] for all their rounds, and
//! each round is one fixed-window exponentiation (644 Montgomery products
//! for a 512-bit candidate, the RSA-1024 prime size).

use crate::montgomery::MontgomeryCtx;
use crate::mpint::Mpint;
use crate::rng::CryptoRng;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

/// Cost accounting for one prime-generation call, consumed by the
/// simulator's timing model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrimeSearchStats {
    /// Candidates drawn (including the successful one).
    pub candidates_tried: u64,
    /// Total Miller–Rabin rounds executed across all candidates.
    pub mr_rounds: u64,
}

/// Returns true if `n` is probably prime (trial division + `rounds` rounds
/// of Miller–Rabin with random bases).
pub fn is_probable_prime<R: CryptoRng + ?Sized>(n: &Mpint, rounds: u32, rng: &mut R) -> bool {
    is_probable_prime_counted(n, rounds, rng, &mut 0)
}

fn is_probable_prime_counted<R: CryptoRng + ?Sized>(
    n: &Mpint,
    rounds: u32,
    rng: &mut R,
    mr_rounds: &mut u64,
) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if let Some(verdict) = trial_division(n) {
        return verdict;
    }

    // Write n - 1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&Mpint::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }

    let two = Mpint::from(2u64);
    let n_minus_3 = n.sub(&Mpint::from(3u64));
    // One context serves every round: n is odd and > 281 past the sieve.
    let ctx = MontgomeryCtx::new(n).expect("sieved candidate is odd");
    'witness: for _ in 0..rounds {
        *mr_rounds += 1;
        // Random base in [2, n-2].
        let a = Mpint::random_below(rng, &n_minus_3).add(&two);
        let mut x = ctx.mod_exp(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = x.mul_mod(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Trial division by [`SMALL_PRIMES`] in order: `Some(true)` when `n` is
/// one of them, `Some(false)` when one divides `n`, `None` when none does.
fn trial_division(n: &Mpint) -> Option<bool> {
    let limbs = n.limbs();
    for &p in &SMALL_PRIMES {
        if limbs == [p] {
            return Some(true);
        }
        if rem_small(limbs, p) == 0 {
            return Some(false);
        }
    }
    None
}

/// `n mod p` for the little-endian `limbs` of `n` and `p > 0`: one
/// remainder of a 128-bit value by `p` per limb, from the top limb down.
fn rem_small(limbs: &[u64], p: u64) -> u64 {
    let p = u128::from(p);
    limbs.iter().rev().fold(0, |r, &l| {
        (((u128::from(r) << 64) | u128::from(l)) % p) as u64
    })
}

/// Generates a random probable prime of exactly `bits` bits.
///
/// The top two bits are forced to 1 (so an RSA modulus built from two such
/// primes has the full `2*bits` length) and the candidate is forced odd.
/// Returns the prime together with [`PrimeSearchStats`] for cost modelling.
///
/// # Panics
///
/// Panics if `bits < 16` (no cryptographic use and the top-two-bits trick
/// needs headroom).
pub fn generate_prime<R: CryptoRng + ?Sized>(
    bits: usize,
    mr_rounds: u32,
    rng: &mut R,
) -> (Mpint, PrimeSearchStats) {
    assert!(bits >= 16, "prime size too small");
    let mut stats = PrimeSearchStats::default();
    loop {
        stats.candidates_tried += 1;
        let mut candidate = Mpint::random_bits(rng, bits);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        if is_probable_prime_counted(&candidate, mr_rounds, rng, &mut stats.mr_rounds) {
            return (candidate, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    fn mp(v: u64) -> Mpint {
        Mpint::from(v)
    }

    /// The trial division the sieve replaced: an `Mpint` per prime and a
    /// limb division per remainder.
    fn trial_division_by_mpint(n: &Mpint) -> Option<bool> {
        for &p in &SMALL_PRIMES {
            let pm = Mpint::from(p);
            if n == &pm {
                return Some(true);
            }
            if n.rem(&pm).is_zero() {
                return Some(false);
            }
        }
        None
    }

    #[test]
    fn sieve_agrees_with_mpint_division() {
        let mut rng = XorShiftRng::new(7);
        let mut cases = vec![mp(0), mp(1), mp(283 * 283)];
        for &p in &SMALL_PRIMES {
            cases.push(mp(p));
            cases.extend(SMALL_PRIMES.iter().map(|&q| mp(p * q)));
        }
        for limbs in 1..=9 {
            for i in 0..40 {
                let mut n = Mpint::random_bits(&mut rng, 64 * limbs);
                n.set_bit(0);
                // Also n times a small prime, cycling through all of them,
                // so every prime divides some multi-limb case.
                let p = SMALL_PRIMES[(40 * limbs + i) % SMALL_PRIMES.len()];
                cases.push(n.mul(&mp(p)));
                cases.push(n);
            }
        }
        for n in &cases {
            assert_eq!(trial_division(n), trial_division_by_mpint(n), "{n:?}");
        }
        // 283² has no factor up to 281: the sieve passes it to Miller–Rabin.
        assert_eq!(trial_division(&mp(283 * 283)), None);
        assert!(!is_probable_prime(&mp(283 * 283), 20, &mut rng));
    }

    #[test]
    fn small_primes_recognized() {
        let mut rng = XorShiftRng::new(1);
        for p in [2u64, 3, 5, 7, 11, 101, 257, 65537, 1_000_000_007] {
            assert!(
                is_probable_prime(&mp(p), 20, &mut rng),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn composites_rejected() {
        let mut rng = XorShiftRng::new(2);
        for c in [1u64, 4, 6, 9, 15, 21, 100, 65536, 1_000_000_008] {
            assert!(!is_probable_prime(&mp(c), 20, &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller-Rabin.
        let mut rng = XorShiftRng::new(3);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(
                !is_probable_prime(&mp(c), 20, &mut rng),
                "{c} is Carmichael"
            );
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let mut rng = XorShiftRng::new(4);
        let m127 = Mpint::one().shl(127).sub(&Mpint::one());
        assert!(is_probable_prime(&m127, 16, &mut rng));
        // 2^128 - 1 factors as 3 * 5 * 17 * ...
        let m128 = Mpint::one().shl(128).sub(&Mpint::one());
        assert!(!is_probable_prime(&m128, 16, &mut rng));
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut rng = XorShiftRng::new(5);
        for bits in [64usize, 128, 256] {
            let (p, stats) = generate_prime(bits, 8, &mut rng);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            // Top two bits set.
            assert!(p.bit(bits - 1) && p.bit(bits - 2));
            assert!(stats.candidates_tried >= 1);
            assert!(stats.mr_rounds >= 8, "successful candidate runs all rounds");
        }
    }

    #[test]
    fn distinct_invocations_yield_distinct_primes() {
        let mut rng = XorShiftRng::new(6);
        let (p, _) = generate_prime(128, 8, &mut rng);
        let (q, _) = generate_prime(128, 8, &mut rng);
        assert_ne!(p, q);
    }
}
