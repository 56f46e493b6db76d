//! HMAC-DRBG (NIST SP 800-90A) over SHA-256.
//!
//! The software TPM's `GetRandom` (paper §2.2: "The TPM includes a random
//! number generator that can be used for key generation") is backed by this
//! generator, seeded from the simulated platform's entropy at manufacture
//! time. Determinism under a fixed seed is a feature here: it makes every
//! experiment in the evaluation harness reproducible bit-for-bit.
//!
//! It is also a measured host hot path: it draws every platform's 2.2 MB
//! synthetic kernel, the TPM's key searches and a session nonce per
//! continued authorized command. The generator holds HMAC keyed with K
//! rather than K's bytes, and keys each new K once: that keyed state
//! computes the next V and serves every HMAC(K, ·) until K changes (SP
//! 800-90A §10.1.2.5 holds K fixed across the output loop). A call for `n`
//! 32-byte blocks costs `2n + 6` SHA-256 compressions and no heap
//! allocation: 2 per block, then 2 for the new K, 2 to key it and 2 for
//! the new V.

use crate::hmac::Hmac;
use crate::rng::CryptoRng;
use crate::sha256::{Sha256, OUTPUT_LEN};

const SEED_INTERVAL: u64 = 1 << 24;

/// HMAC-DRBG instance (SHA-256 variant).
///
/// # Examples
///
/// ```
/// use flicker_crypto::{HmacDrbg, CryptoRng};
/// let mut a = HmacDrbg::new(b"seed", b"nonce");
/// let mut b = HmacDrbg::new(b"seed", b"nonce");
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub struct HmacDrbg {
    /// HMAC keyed with K, cloned for each HMAC(K, ·).
    k: Hmac<Sha256>,
    v: [u8; OUTPUT_LEN],
    reseed_counter: u64,
}

impl HmacDrbg {
    /// Instantiates the DRBG from `entropy` and a `nonce` (SP 800-90A §10.1.2.3).
    pub fn new(entropy: &[u8], nonce: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            k: Hmac::new(&[0; OUTPUT_LEN]),
            v: [1; OUTPUT_LEN],
            reseed_counter: 1,
        };
        let mut seed = entropy.to_vec();
        seed.extend_from_slice(nonce);
        drbg.update(Some(&seed));
        drbg
    }

    /// Mixes fresh entropy into the state (SP 800-90A reseed).
    pub fn reseed(&mut self, entropy: &[u8]) {
        self.update(Some(entropy));
        self.reseed_counter = 1;
    }

    /// The HMAC_DRBG_Update function (SP 800-90A §10.1.2.2).
    fn update(&mut self, provided: Option<&[u8]>) {
        self.rekey(0x00, provided);
        if let Some(data) = provided {
            self.rekey(0x01, Some(data));
        }
    }

    /// One round of Update: K = HMAC(K, V ‖ round ‖ provided), keyed once,
    /// then V = HMAC(K, V) under that keyed state.
    fn rekey(&mut self, round: u8, provided: Option<&[u8]>) {
        let mut h = self.k.clone();
        h.update(&self.v);
        h.update(&[round]);
        if let Some(data) = provided {
            h.update(data);
        }
        let mut k = [0; OUTPUT_LEN];
        h.finalize_into(&mut k);
        self.k = Hmac::new(&k);
        next_v(&self.k, &mut self.v);
    }

    /// Generates `out.len()` pseudorandom bytes.
    ///
    /// # Panics
    ///
    /// Panics if the generator exceeds the SP 800-90A reseed interval
    /// without a reseed (2^24 generate calls — unreachable in this
    /// workspace's workloads, and a hard failure is safer than silently
    /// degrading).
    pub fn generate(&mut self, out: &mut [u8]) {
        assert!(
            self.reseed_counter <= SEED_INTERVAL,
            "HMAC-DRBG requires reseed"
        );
        for block in out.chunks_mut(OUTPUT_LEN) {
            next_v(&self.k, &mut self.v);
            block.copy_from_slice(&self.v[..block.len()]);
        }
        self.update(None);
        self.reseed_counter += 1;
    }
}

/// V = HMAC(K, V), given an HMAC keyed with K.
fn next_v(k: &Hmac<Sha256>, v: &mut [u8; OUTPUT_LEN]) {
    let mut h = k.clone();
    h.update(v);
    h.finalize_into(v);
}

impl CryptoRng for HmacDrbg {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.generate(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// NIST CAVP HMAC-DRBG SHA-256 test vector (no personalization, no
    /// additional input; `pr=false`), from the published DRBG test files.
    #[test]
    fn cavp_vector() {
        let entropy =
            hex::decode("ca851911349384bffe89de1cbdc46e6831e44d34a4fb935ee285dd14b71a7488")
                .unwrap();
        let nonce = hex::decode("659ba96c601dc69fc902940805ec0ca8").unwrap();
        let mut drbg = HmacDrbg::new(&entropy, &nonce);
        let mut out = vec![0u8; 128];
        drbg.generate(&mut out);
        drbg.generate(&mut out);
        assert_eq!(
            hex::encode(&out),
            "e528e9abf2dece54d47c7e75e5fe302149f817ea9fb4bee6f4199697d04d5b89\
             d54fbb978a15b5c443c9ec21036d2460b6f73ebad0dc2aba6e624abf07745bc1\
             07694bb7547bb0995f70de25d6b29e2d3011bb19d27676c07162c8b5ccde0668\
             961df86803482cb37ed6d5c0bb8d50cf1f50d476aa0458bdaba806f48be9dcb8"
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = HmacDrbg::new(b"entropy", b"n");
        let mut b = HmacDrbg::new(b"entropy", b"n");
        let mut oa = [0u8; 64];
        let mut ob = [0u8; 64];
        a.generate(&mut oa);
        b.generate(&mut ob);
        assert_eq!(oa, ob);
    }

    #[test]
    fn different_nonce_diverges() {
        let mut a = HmacDrbg::new(b"entropy", b"n1");
        let mut b = HmacDrbg::new(b"entropy", b"n2");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::new(b"entropy", b"n");
        let mut b = HmacDrbg::new(b"entropy", b"n");
        b.reseed(b"more entropy");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    /// SP 800-90A's HMAC_DRBG as written, over K's bytes: every HMAC is a
    /// one-shot `Hmac::mac` with its own key set-up. The oracle the
    /// keyed-state generator is checked against.
    struct Reference {
        k: [u8; OUTPUT_LEN],
        v: [u8; OUTPUT_LEN],
    }

    impl Reference {
        fn new(entropy: &[u8], nonce: &[u8]) -> Self {
            let mut r = Reference {
                k: [0; OUTPUT_LEN],
                v: [1; OUTPUT_LEN],
            };
            r.update(Some(&[entropy, nonce].concat()));
            r
        }

        fn update(&mut self, provided: Option<&[u8]>) {
            for round in [0x00, 0x01] {
                let data = [&self.v[..], &[round], provided.unwrap_or_default()].concat();
                self.k = mac(&self.k, &data);
                self.v = mac(&self.k, &self.v);
                if provided.is_none() {
                    return;
                }
            }
        }

        fn generate(&mut self, out: &mut [u8]) {
            for block in out.chunks_mut(OUTPUT_LEN) {
                self.v = mac(&self.k, &self.v);
                block.copy_from_slice(&self.v[..block.len()]);
            }
            self.update(None);
        }
    }

    fn mac(key: &[u8], data: &[u8]) -> [u8; OUTPUT_LEN] {
        Hmac::<Sha256>::mac(key, data)
            .try_into()
            .expect("a 32-byte tag")
    }

    #[test]
    fn generate_matches_the_per_block_reference() {
        let mut got = HmacDrbg::new(b"entropy", b"nonce");
        let mut want = Reference::new(b"entropy", b"nonce");
        let lengths = [0, 1, 20, 31, 32, 33, 64, 65, 1_000, 2_000_000, 8];
        for (i, len) in lengths.into_iter().enumerate() {
            let (mut a, mut b) = (vec![0; len], vec![0; len]);
            got.generate(&mut a);
            want.generate(&mut b);
            assert!(a == b, "len={len}");
            if i % 3 == 2 {
                got.reseed(&len.to_be_bytes());
                want.update(Some(&len.to_be_bytes()));
            }
        }
    }

    /// The cost the module doc states: 2 compressions per output block
    /// plus 6 per call, and one HMAC per block plus 2 per call.
    #[test]
    fn generate_costs_two_compressions_per_block() {
        let mut drbg = HmacDrbg::new(b"e", b"n");
        for len in [0u64, 1, 32, 33, 2_000_000] {
            let before = crate::cost::snapshot();
            drbg.generate(&mut vec![0; len as usize]);
            let cost = crate::cost::snapshot().since(&before);
            let blocks = len.div_ceil(OUTPUT_LEN as u64);
            assert_eq!(cost.sha256_compress, 2 * blocks + 6, "len={len}");
            assert_eq!(cost.hmac, blocks + 2, "len={len}");
        }
    }

    #[test]
    fn odd_length_requests() {
        let mut drbg = HmacDrbg::new(b"e", b"n");
        let mut out = vec![0u8; 33];
        drbg.generate(&mut out);
        let mut out2 = vec![0u8; 1];
        drbg.generate(&mut out2);
        // Just exercising the partial-block copy path; values are arbitrary.
        assert_eq!(out.len(), 33);
    }
}
