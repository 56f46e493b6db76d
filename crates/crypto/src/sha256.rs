//! SHA-256 (FIPS 180-4).
//!
//! Used by the HMAC-DRBG ([`crate::drbg`]) that stands in for the TPM's
//! internal random number generator, and available to PALs that want a
//! stronger hash than the TPM-mandated SHA-1. Through the DRBG it is a
//! measured host hot path, so its compression function is unrolled like
//! SHA-1's.

use crate::digest::{self, BlockBuffer, Digest};

/// Length in bytes of a SHA-256 digest.
pub const OUTPUT_LEN: usize = 32;
/// SHA-256 compression block length in bytes.
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

// The functions of FIPS 180-4 §4.1.2. Ch and Maj are written with one
// operation fewer than the standard's form.
fn ch(e: u32, f: u32, g: u32) -> u32 {
    g ^ (e & (f ^ g))
}

fn maj(a: u32, b: u32, c: u32) -> u32 {
    (a & b) | (c & (a | b))
}

fn big_sigma0(a: u32) -> u32 {
    a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22)
}

fn big_sigma1(e: u32) -> u32 {
    e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25)
}

fn small_sigma0(w: u32) -> u32 {
    w.rotate_right(7) ^ w.rotate_right(18) ^ (w >> 3)
}

fn small_sigma1(w: u32) -> u32 {
    w.rotate_right(17) ^ w.rotate_right(19) ^ (w >> 10)
}

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use flicker_crypto::digest::Digest;
/// let d = flicker_crypto::sha256::Sha256::digest(b"abc");
/// assert_eq!(
///     flicker_crypto::hex::encode(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: BlockBuffer<BLOCK_LEN>,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: H0,
            buffer: BlockBuffer::default(),
        }
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// The SHA-256 compression function (FIPS 180-4 §6.2.2), unrolled: a
    /// 16-word rolling message schedule, and round groups that rename the
    /// working variables instead of shifting them, so every round's constant
    /// and message index is fixed at compile time.
    fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        crate::cost::count(crate::cost::Primitive::Sha256Compress);
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        // Message word `i`: the block's own for the first 16 rounds, then
        // W[i] = σ1(W[i-2]) + W[i-7] + σ0(W[i-15]) + W[i-16], stored over
        // W[i-16].
        macro_rules! w {
            ($i:expr) => {{
                if $i >= 16 {
                    w[$i & 15] = w[$i & 15]
                        .wrapping_add(small_sigma0(w[($i + 1) & 15]))
                        .wrapping_add(w[($i + 9) & 15])
                        .wrapping_add(small_sigma1(w[($i + 14) & 15]));
                }
                w[$i & 15]
            }};
        }
        // One round: T1 goes into `h` and onto `d`, then T2 onto `h`; the
        // next round names (h, a, b, c, d, e, f, g) as (a, b, ..., h).
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident,
             $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
                $h = $h
                    .wrapping_add(big_sigma1($e))
                    .wrapping_add(ch($e, $f, $g))
                    .wrapping_add(const { K[$i] })
                    .wrapping_add(w!($i));
                $d = $d.wrapping_add($h);
                $h = $h
                    .wrapping_add(big_sigma0($a))
                    .wrapping_add(maj($a, $b, $c));
            };
        }
        // Eight rounds bring the names back to (a, b, c, d, e, f, g, h).
        macro_rules! rounds {
            ($($i:literal)+) => {$(
                round!(a, b, c, d, e, f, g, h, $i);
                round!(h, a, b, c, d, e, f, g, $i + 1);
                round!(g, h, a, b, c, d, e, f, $i + 2);
                round!(f, g, h, a, b, c, d, e, $i + 3);
                round!(e, f, g, h, a, b, c, d, $i + 4);
                round!(d, e, f, g, h, a, b, c, $i + 5);
                round!(c, d, e, f, g, h, a, b, $i + 6);
                round!(b, c, d, e, f, g, h, a, $i + 7);
            )+};
        }
        rounds!(0 8 16 24 32 40 48 56);

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Sha256 {
    const OUTPUT_LEN: usize = OUTPUT_LEN;
    const BLOCK_LEN: usize = BLOCK_LEN;

    fn update(&mut self, data: &[u8]) {
        self.buffer
            .update(data, |block| Self::compress(&mut self.state, block));
    }

    fn finalize_into(mut self, out: &mut [u8]) {
        let bit_len = self.buffer.message_len().wrapping_mul(8);
        self.buffer.finish(bit_len.to_be_bytes(), |block| {
            Self::compress(&mut self.state, block)
        });
        digest::store_words(out, &self.state, u32::to_be_bytes);
    }
}

/// One-shot SHA-256 returning a fixed-size array.
pub fn sha256(data: &[u8]) -> [u8; OUTPUT_LEN] {
    let mut h = Sha256::default();
    h.update(data);
    let mut out = [0u8; OUTPUT_LEN];
    h.finalize_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::reference;
    use crate::hex;

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex::encode(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex::encode(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex::encode(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex::encode(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The rolled form of [`Sha256::compress`], the oracle the unrolled
    /// one is checked against: a 64-word message schedule and one loop over
    /// the rounds, with the standard's Ch and Maj.
    fn compress_reference(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// SHA-256 of the whole padded message, block by block, through
    /// [`compress_reference`].
    fn reference_digest(message: &[u8]) -> Vec<u8> {
        let bit_len = (message.len() as u64 * 8).to_be_bytes();
        let padded = reference::pad(message, BLOCK_LEN, &bit_len);
        let mut state = H0;
        for block in padded.as_chunks::<BLOCK_LEN>().0 {
            compress_reference(&mut state, block);
        }
        state.iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    #[test]
    fn compress_matches_the_rolled_reference() {
        for (state, block) in reference::random_inputs::<8>(0x256, 1_000) {
            let (mut got, mut want) = (state, state);
            Sha256::compress(&mut got, &block);
            compress_reference(&mut want, &block);
            assert_eq!(got, want, "state={state:08x?}");
        }
    }

    #[test]
    fn streaming_matches_the_padded_reference() {
        reference::check_streaming::<Sha256>(reference_digest);
    }
}
