//! RSA key generation and raw (textbook) modular operations.
//!
//! The paper's applications use 1024-bit RSA keys inside PALs (secure
//! channel, CA signing) and the TPM itself holds 2048-bit keys (SRK, AIK,
//! sealing keys). Padding lives in [`crate::pkcs1`]; this module supplies
//! keys and the raw `m^e mod n` primitives, using CRT for the private
//! operation like every production implementation.
//!
//! Keys carry their Montgomery contexts: a private key builds one per
//! prime when it is generated or parsed, and a public key builds one for
//! `n` on its first operation, so parsing an untrusted public key does no
//! bignum work.

use std::sync::OnceLock;

use crate::montgomery::MontgomeryCtx;
use crate::mpint::Mpint;
use crate::prime::{generate_prime, PrimeSearchStats};
use crate::rng::CryptoRng;
use crate::CryptoError;

/// Default public exponent (F4).
pub const PUBLIC_EXPONENT: u64 = 65537;
/// Miller-Rabin rounds used during key generation (error < 2^-80).
pub const MR_ROUNDS: u32 = 40;

/// An RSA public key `(n, e)`.
///
/// Equality and `Debug` cover `(n, e)` only; the cached context is derived
/// from `n`.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: Mpint,
    e: Mpint,
    /// Montgomery context for `n`, built on the first [`Self::raw_encrypt`]
    /// (`None` for an even or trivial `n`, which takes the division path).
    ctx: OnceLock<Option<MontgomeryCtx>>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl core::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: Mpint,
    /// Context for the prime `p` (which it holds as its modulus).
    p: MontgomeryCtx,
    /// Context for the prime `q`.
    q: MontgomeryCtx,
    d_p: Mpint,
    d_q: Mpint,
    q_inv: Mpint,
}

impl core::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey")
            .field("bits", &self.public.n.bit_len())
            .finish_non_exhaustive()
    }
}

/// Cost accounting for a key generation, consumed by the timing model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeygenStats {
    /// Search statistics for the first prime.
    pub p_stats: PrimeSearchStats,
    /// Search statistics for the second prime.
    pub q_stats: PrimeSearchStats,
}

impl RsaPublicKey {
    /// Constructs a public key from raw components.
    pub fn new(n: Mpint, e: Mpint) -> Self {
        RsaPublicKey {
            n,
            e,
            ctx: OnceLock::new(),
        }
    }

    /// The modulus `n`.
    pub fn n(&self) -> &Mpint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn e(&self) -> &Mpint {
        &self.e
    }

    /// Modulus length in bytes (k in PKCS#1 terms).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Raw public operation `m^e mod n`.
    ///
    /// Returns [`CryptoError::OutOfRange`] if `m >= n`.
    pub fn raw_encrypt(&self, m: &Mpint) -> Result<Mpint, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::OutOfRange("message >= modulus"));
        }
        Ok(match self.ctx.get_or_init(|| MontgomeryCtx::new(&self.n)) {
            Some(ctx) => ctx.mod_exp(m, &self.e),
            None => m.mod_exp_plain(&self.e, &self.n),
        })
    }

    /// Serializes as `len(n) || n || len(e) || e` (big-endian u32 lengths).
    ///
    /// This is the wire format the secure-channel protocol sends to remote
    /// parties and the format measured into PCR 17 as PAL output.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the [`RsaPublicKey::to_bytes`] format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let take = |bytes: &[u8], off: &mut usize| -> Result<Vec<u8>, CryptoError> {
            if bytes.len() < *off + 4 {
                return Err(CryptoError::Encoding("truncated length"));
            }
            let len =
                u32::from_be_bytes(bytes[*off..*off + 4].try_into().expect("4 bytes")) as usize;
            *off += 4;
            if bytes.len() < *off + len {
                return Err(CryptoError::Encoding("truncated field"));
            }
            let v = bytes[*off..*off + len].to_vec();
            *off += len;
            Ok(v)
        };
        let mut off = 0;
        let n = take(bytes, &mut off)?;
        let e = take(bytes, &mut off)?;
        if off != bytes.len() {
            return Err(CryptoError::Encoding("trailing bytes"));
        }
        Ok(RsaPublicKey::new(
            Mpint::from_bytes_be(&n),
            Mpint::from_bytes_be(&e),
        ))
    }
}

impl RsaPrivateKey {
    /// Generates a fresh keypair with modulus length `bits`.
    ///
    /// Returns the key and [`KeygenStats`] so callers can charge the
    /// simulated clock for the work actually performed.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not an even number >= 64.
    pub fn generate<R: CryptoRng + ?Sized>(bits: usize, rng: &mut R) -> (Self, KeygenStats) {
        assert!(
            bits >= 64 && bits.is_multiple_of(2),
            "unsupported RSA modulus size"
        );
        let e = Mpint::from(PUBLIC_EXPONENT);
        loop {
            let (p, p_stats) = generate_prime(bits / 2, MR_ROUNDS, rng);
            let (q, q_stats) = generate_prime(bits / 2, MR_ROUNDS, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = Mpint::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            // e must be invertible mod phi(n).
            let Some(d) = e.mod_inverse(&phi) else {
                continue;
            };
            let key = Self::with_crt(RsaPublicKey::new(n, e), d, &p, &q)
                .expect("p, q distinct odd primes");
            return (key, KeygenStats { p_stats, q_stats });
        }
    }

    /// Derives the CRT parameters and per-prime contexts for odd `p, q > 1`
    /// with `p·q = n`; `None` if `q` is not invertible mod `p`.
    fn with_crt(public: RsaPublicKey, d: Mpint, p: &Mpint, q: &Mpint) -> Option<Self> {
        let one = Mpint::one();
        let q_inv = q.mod_inverse(p)?;
        Some(RsaPrivateKey {
            d_p: d.rem(&p.sub(&one)),
            d_q: d.rem(&q.sub(&one)),
            q_inv,
            p: MontgomeryCtx::new(p)?,
            q: MontgomeryCtx::new(q)?,
            public,
            d,
        })
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw private operation `c^d mod n`, computed via CRT.
    ///
    /// Returns [`CryptoError::OutOfRange`] if `c >= n`.
    pub fn raw_decrypt(&self, c: &Mpint) -> Result<Mpint, CryptoError> {
        if c >= &self.public.n {
            return Err(CryptoError::OutOfRange("ciphertext >= modulus"));
        }
        let (p, q) = (self.p.modulus(), self.q.modulus());
        // CRT: m1 = c^dP mod p, m2 = c^dQ mod q,
        // h = qInv (m1 - m2) mod p, m = m2 + h q.
        let m1 = self.p.mod_exp(c, &self.d_p);
        let m2 = self.q.mod_exp(c, &self.d_q);
        let diff = if m1 >= m2 {
            m1.sub(&m2)
        } else {
            // (m1 - m2) mod p with m1 < m2: add enough multiples of p.
            p.sub(&m2.sub(&m1).rem(p)).rem(p)
        };
        let h = self.q_inv.mul_mod(&diff, p);
        Ok(m2.add(&h.mul(q)))
    }

    /// The private exponent (exposed for serialization into TPM key blobs).
    pub fn d(&self) -> &Mpint {
        &self.d
    }

    /// Serializes the full private key (used only inside simulated TPM
    /// storage, which models a hardware-protected boundary).
    pub fn to_bytes(&self) -> Vec<u8> {
        let fields = [
            self.public.n.to_bytes_be(),
            self.public.e.to_bytes_be(),
            self.d.to_bytes_be(),
            self.p.modulus().to_bytes_be(),
            self.q.modulus().to_bytes_be(),
        ];
        let mut out = Vec::new();
        for f in fields {
            out.extend_from_slice(&(f.len() as u32).to_be_bytes());
            out.extend_from_slice(&f);
        }
        out
    }

    /// Reconstructs a private key serialized by [`RsaPrivateKey::to_bytes`].
    ///
    /// The bytes may come from an unsealed blob, so every field is checked
    /// before use: [`CryptoError::Encoding`] if the framing is wrong, if
    /// `p` or `q` is even or below 3, if `p·q ≠ n`, or if `q` has no
    /// inverse mod `p`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut off = 0usize;
        let mut fields = Vec::with_capacity(5);
        for _ in 0..5 {
            if bytes.len() < off + 4 {
                return Err(CryptoError::Encoding("truncated length"));
            }
            let len = u32::from_be_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
            off += 4;
            if bytes.len() < off + len {
                return Err(CryptoError::Encoding("truncated field"));
            }
            fields.push(Mpint::from_bytes_be(&bytes[off..off + len]));
            off += len;
        }
        if off != bytes.len() {
            return Err(CryptoError::Encoding("trailing bytes"));
        }
        let [n, e, d, p, q]: [Mpint; 5] = fields.try_into().expect("5 fields");
        let unusable = |f: &Mpint| f.is_even() || f < &Mpint::from(3u64);
        if unusable(&p) || unusable(&q) {
            return Err(CryptoError::Encoding("p or q even or below 3"));
        }
        if p.mul(&q) != n {
            return Err(CryptoError::Encoding("p·q != n"));
        }
        Self::with_crt(RsaPublicKey::new(n, e), d, &p, &q)
            .ok_or(CryptoError::Encoding("q not invertible mod p"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    fn test_key(bits: usize, seed: u64) -> RsaPrivateKey {
        let mut rng = XorShiftRng::new(seed);
        RsaPrivateKey::generate(bits, &mut rng).0
    }

    #[test]
    fn keygen_produces_working_keypair() {
        let key = test_key(512, 11);
        assert_eq!(key.public_key().n().bit_len(), 512);
        let m = Mpint::from(0x1234_5678_9abc_def0u64);
        let c = key.public_key().raw_encrypt(&m).unwrap();
        assert_ne!(c, m);
        assert_eq!(key.raw_decrypt(&c).unwrap(), m);
    }

    #[test]
    fn decrypt_encrypt_composes_both_ways() {
        // Sign direction: decrypt (private op) then encrypt (public op).
        let key = test_key(512, 12);
        let m = Mpint::from_hex("deadbeefcafebabe0123456789").unwrap();
        let s = key.raw_decrypt(&m).unwrap();
        assert_eq!(key.public_key().raw_encrypt(&s).unwrap(), m);
    }

    #[test]
    fn rejects_oversized_inputs() {
        let key = test_key(256, 13);
        let too_big = key.public_key().n().clone();
        assert!(key.public_key().raw_encrypt(&too_big).is_err());
        assert!(key.raw_decrypt(&too_big).is_err());
    }

    #[test]
    fn public_key_serialization_round_trip() {
        let key = test_key(256, 14);
        let bytes = key.public_key().to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, key.public_key());
    }

    #[test]
    fn public_key_rejects_malformed() {
        assert!(RsaPublicKey::from_bytes(&[]).is_err());
        assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 200, 1]).is_err());
        let key = test_key(256, 15);
        let mut bytes = key.public_key().to_bytes();
        bytes.push(0);
        assert!(RsaPublicKey::from_bytes(&bytes).is_err());
    }

    #[test]
    fn private_key_serialization_round_trip() {
        let key = test_key(256, 16);
        let back = RsaPrivateKey::from_bytes(&key.to_bytes()).unwrap();
        let m = Mpint::from(42u64);
        let c = key.public_key().raw_encrypt(&m).unwrap();
        assert_eq!(back.raw_decrypt(&c).unwrap(), m);
        assert_eq!(back.public_key(), key.public_key());
    }

    /// A private-key blob in the [`RsaPrivateKey::to_bytes`] layout with
    /// arbitrary field values.
    fn blob(n: &Mpint, e: &Mpint, d: &Mpint, p: &Mpint, q: &Mpint) -> Vec<u8> {
        let mut out = Vec::new();
        for f in [n, e, d, p, q] {
            let b = f.to_bytes_be();
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(&b);
        }
        out
    }

    /// Parses a valid key's blob with `p` set to the given value and `n`
    /// to `p·q`, so only the checks on `p` itself can reject it.
    fn parse_with_p(p: u64) -> Result<RsaPrivateKey, CryptoError> {
        let key = test_key(256, 23);
        let q = key.q.modulus();
        let p = Mpint::from(p);
        RsaPrivateKey::from_bytes(&blob(&p.mul(q), key.public.e(), key.d(), &p, q))
    }

    #[test]
    fn private_key_rejects_zero_p() {
        assert!(matches!(parse_with_p(0), Err(CryptoError::Encoding(_))));
    }

    #[test]
    fn private_key_rejects_p_of_one() {
        assert!(matches!(parse_with_p(1), Err(CryptoError::Encoding(_))));
    }

    #[test]
    fn private_key_rejects_even_p() {
        assert!(matches!(parse_with_p(4), Err(CryptoError::Encoding(_))));
    }

    #[test]
    fn private_key_rejects_n_other_than_pq() {
        let key = test_key(256, 24);
        let (p, q) = (key.p.modulus(), key.q.modulus());
        let wrong_n = key.public.n().add(&Mpint::from(2u64));
        let bytes = blob(&wrong_n, key.public.e(), key.d(), p, q);
        assert!(matches!(
            RsaPrivateKey::from_bytes(&bytes),
            Err(CryptoError::Encoding(_))
        ));
        // The same fields with the right n parse.
        let bytes = blob(key.public.n(), key.public.e(), key.d(), p, q);
        assert!(RsaPrivateKey::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn crt_decrypt_matches_plain_exponentiation() {
        // The cached per-prime contexts and CRT recombination must agree
        // with the textbook c^d mod n.
        for (bits, seed) in [(512usize, 25u64), (1024, 26)] {
            let key = test_key(bits, seed);
            let n = key.public_key().n();
            let mut rng = XorShiftRng::new(seed);
            for _ in 0..4 {
                let c = Mpint::random_below(&mut rng, n);
                assert_eq!(key.raw_decrypt(&c).unwrap(), c.mod_exp(key.d(), n));
            }
            let parsed = RsaPrivateKey::from_bytes(&key.to_bytes()).unwrap();
            let c = Mpint::random_below(&mut rng, n);
            assert_eq!(parsed.raw_decrypt(&c).unwrap(), c.mod_exp(key.d(), n));
        }
    }

    #[test]
    fn keygen_1024_is_pinned() {
        // SHA-1 of n and the search statistics for fixed seeds. The
        // statistics drive the simulated keygen time (Figure 9a), so any
        // change in how key generation draws from its RNG fails here.
        let stats = |pc, pr, qc, qr| KeygenStats {
            p_stats: PrimeSearchStats {
                candidates_tried: pc,
                mr_rounds: pr,
            },
            q_stats: PrimeSearchStats {
                candidates_tried: qc,
                mr_rounds: qr,
            },
        };
        for (seed, n_sha1, want) in [
            (
                1,
                "b2460f5b7d39f08f4674edb2fe103a616027b028",
                stats(365, 101, 352, 103),
            ),
            (
                2,
                "e0ed80101c42f58b71dfa15cf0e598fab6a6492d",
                stats(461, 125, 13, 42),
            ),
            (
                3,
                "1648e8c21c8e1b8092104054087a5b5bb1366084",
                stats(245, 84, 72, 51),
            ),
        ] {
            let (key, got) = RsaPrivateKey::generate(1024, &mut XorShiftRng::new(seed));
            let n = key.public_key().n().to_bytes_be();
            assert_eq!(
                crate::hex::encode(&crate::sha1::sha1(&n)),
                n_sha1,
                "seed {seed}"
            );
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn keys_are_clone_send_sync() {
        fn assert_traits<T: Clone + Send + Sync>() {}
        assert_traits::<RsaPublicKey>();
        assert_traits::<RsaPrivateKey>();
    }

    #[test]
    fn public_key_context_is_lazy_and_outside_equality() {
        let key = test_key(256, 27);
        let parsed = RsaPublicKey::from_bytes(&key.public_key().to_bytes()).unwrap();
        assert!(parsed.ctx.get().is_none(), "parsing builds no context");
        let used = parsed.clone();
        used.raw_encrypt(&Mpint::from(7u64)).unwrap();
        assert!(used.ctx.get().is_some());
        assert_eq!(used, parsed);
        assert_eq!(format!("{used:?}"), format!("{parsed:?}"));
    }

    #[test]
    fn even_public_modulus_takes_the_division_path() {
        // A malformed (even) modulus from untrusted bytes has no
        // Montgomery context; the public operation still works.
        let n = Mpint::from(1_000_000u64);
        let key = RsaPublicKey::new(n.clone(), Mpint::from(65537u64));
        let m = Mpint::from(12345u64);
        assert_eq!(
            key.raw_encrypt(&m).unwrap(),
            m.mod_exp_plain(&Mpint::from(65537u64), &n)
        );
    }

    #[test]
    fn primes_wider_than_the_widest_kernel_take_the_division_path() {
        // p = 2^4161 − 1 has 66 limbs, past the 64-limb Montgomery kernel;
        // q = 3 does not divide it. The blob must parse, and both
        // operations must give the textbook results.
        let p = Mpint::one().shl(4161).sub(&Mpint::one());
        let q = Mpint::from(3u64);
        let (n, e, d) = (p.mul(&q), Mpint::from(PUBLIC_EXPONENT), Mpint::from(5u64));
        let key = RsaPrivateKey::from_bytes(&blob(&n, &e, &d, &p, &q)).expect("wide key parses");
        let c = Mpint::from_hex("0123456789abcdef0123456789abcdef").unwrap();
        // CRT: c^5 mod p, and c^(5 mod 2) = c ≡ c^5 (mod 3).
        assert_eq!(key.raw_decrypt(&c).unwrap(), c.mod_exp_plain(&d, &n));
        assert_eq!(
            key.public_key().raw_encrypt(&c).unwrap(),
            c.mod_exp_plain(&e, &n)
        );
    }

    #[test]
    fn keygen_stats_populated() {
        let mut rng = XorShiftRng::new(17);
        let (_, stats) = RsaPrivateKey::generate(256, &mut rng);
        assert!(stats.p_stats.candidates_tried >= 1);
        assert!(stats.q_stats.candidates_tried >= 1);
        assert!(stats.p_stats.mr_rounds >= MR_ROUNDS as u64);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = test_key(256, 18);
        let b = test_key(256, 19);
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn debug_does_not_leak_private_material() {
        let key = test_key(256, 20);
        let s = format!("{key:?}");
        assert!(!s.contains(&crate::hex::encode(&key.d().to_bytes_be())));
        assert!(s.contains("bits"));
    }

    #[test]
    fn crt_handles_m1_less_than_m2() {
        // Exercise the borrow path in raw_decrypt repeatedly with varied
        // ciphertexts; correctness is checked via round-trip.
        let key = test_key(256, 21);
        let mut rng = XorShiftRng::new(22);
        for _ in 0..20 {
            let m = Mpint::random_below(&mut rng, key.public_key().n());
            let c = key.public_key().raw_encrypt(&m).unwrap();
            assert_eq!(key.raw_decrypt(&c).unwrap(), m);
        }
    }
}
