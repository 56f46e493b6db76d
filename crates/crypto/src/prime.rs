//! Primality testing and prime generation for RSA key generation.
//!
//! RSA-1024 key generation is the single most expensive CPU operation in the
//! paper's evaluation (185.7 ms average with a 14 % standard deviation in
//! Figure 9a — the variance comes from the geometric number of candidates
//! tried before a prime is found). This module reports how many candidates
//! and Miller–Rabin rounds were consumed so the simulator's cost model can
//! reproduce exactly that distribution.

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
    for &p in &SMALL_PRIMES {
        let pm = Mpint::from(p);
        if n == &pm {
            return true;
        }
        if n.rem(&pm).is_zero() {
            return false;
        }
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
