//! SHA-1 (FIPS 180-4).
//!
//! SHA-1 is the measurement hash mandated by the TPM v1.2 specification and
//! therefore the one Flicker's whole attestation chain is built on: PCR
//! extends, SLB measurement during `SKINIT`, quote composites, and sealed
//! storage PCR bindings all use 20-byte SHA-1 digests. It is implemented
//! here for protocol fidelity, not as an endorsement of SHA-1's residual
//! collision resistance.

use crate::digest::{self, BlockBuffer, Digest};

/// Length in bytes of a SHA-1 digest.
pub const OUTPUT_LEN: usize = 20;
/// SHA-1 compression block length in bytes.
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 5] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0];

// The round functions of FIPS 180-4 §4.1.1. Ch and Maj are written with
// one operation fewer than the standard's form.
fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// Streaming SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use flicker_crypto::digest::Digest;
/// let d = flicker_crypto::sha1::Sha1::digest(b"abc");
/// assert_eq!(flicker_crypto::hex::encode(&d), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: BlockBuffer<BLOCK_LEN>,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1 {
            state: H0,
            buffer: BlockBuffer::default(),
        }
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// The SHA-1 compression function (FIPS 180-4 §6.1.2), unrolled: a
    /// 16-word rolling message schedule, and round groups that rename the
    /// working variables instead of shifting them, so every round's function,
    /// constant and message index is fixed at compile time.
    fn compress(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
        crate::cost::count(crate::cost::Primitive::Sha1Compress);
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;

        // Message word `i`: the block's own for the first 16 rounds, then
        // W[i] = ROTL1(W[i-3] ^ W[i-8] ^ W[i-14] ^ W[i-16]), stored over W[i-16].
        macro_rules! w {
            ($i:expr) => {{
                if $i >= 16 {
                    w[$i & 15] =
                        (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15])
                            .rotate_left(1);
                }
                w[$i & 15]
            }};
        }
        // One round: `e` takes the new value and `b` rotates; the next round
        // names (e, a, b, c, d) as (a, b, c, d, e).
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $i:expr) => {
                $e = $e
                    .wrapping_add($a.rotate_left(5))
                    .wrapping_add($f($b, $c, $d))
                    .wrapping_add($k)
                    .wrapping_add(w!($i));
                $b = $b.rotate_left(30);
            };
        }
        // Five rounds bring the names back to (a, b, c, d, e).
        macro_rules! rounds {
            ($f:ident, $k:expr; $($i:literal)+) => {$(
                round!(a, b, c, d, e, $f, $k, $i);
                round!(e, a, b, c, d, $f, $k, $i + 1);
                round!(d, e, a, b, c, $f, $k, $i + 2);
                round!(c, d, e, a, b, $f, $k, $i + 3);
                round!(b, c, d, e, a, $f, $k, $i + 4);
            )+};
        }
        rounds!(ch, 0x5a82_7999; 0 5 10 15);
        rounds!(parity, 0x6ed9_eba1; 20 25 30 35);
        rounds!(maj, 0x8f1b_bcdc; 40 45 50 55);
        rounds!(parity, 0xca62_c1d6; 60 65 70 75);

        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Sha1 {
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

/// One-shot SHA-1 returning a fixed-size array.
pub fn sha1(data: &[u8]) -> [u8; OUTPUT_LEN] {
    let mut h = Sha1::default();
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

    fn hexdigest(data: &[u8]) -> String {
        hex::encode(&sha1(data))
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hexdigest(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hexdigest(b"abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hexdigest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex::encode(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn byte_at_a_time_matches() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha1::new();
        for b in data.iter() {
            h.update(&[*b]);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    /// The rolled form of [`Sha1::compress`], the oracle the unrolled one
    /// is checked against: an 80-word message schedule and one loop over
    /// the rounds.
    fn compress_reference(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5a827999),
                20..=39 => (b ^ c ^ d, 0x6ed9eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
                _ => (b ^ c ^ d, 0xca62c1d6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }

    /// SHA-1 of the whole padded message, block by block, through
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
        for (state, block) in reference::random_inputs::<5>(0x5a1, 1_000) {
            let (mut got, mut want) = (state, state);
            Sha1::compress(&mut got, &block);
            compress_reference(&mut want, &block);
            assert_eq!(got, want, "state={state:08x?}");
        }
    }

    #[test]
    fn streaming_matches_the_padded_reference() {
        reference::check_streaming::<Sha1>(reference_digest);
    }

    #[test]
    fn one_compression_per_padded_block() {
        for len in reference::lengths().chain([2_210_000]) {
            let data = vec![0x5a; len];
            let before = crate::cost::snapshot();
            Sha1::digest(&data);
            let blocks = crate::cost::snapshot().since(&before).sha1_compress;
            assert_eq!(blocks, (len as u64 + 8) / 64 + 1, "len={len}");
        }
    }
}
