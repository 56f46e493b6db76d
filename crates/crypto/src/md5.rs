//! MD5 (RFC 1321).
//!
//! Present for one reason: the SSH password application (paper §6.3.1)
//! compares against `/etc/passwd` entries produced by `md5crypt`, which is
//! built on MD5. MD5 is cryptographically broken and must not be used for
//! anything but that compatibility path.

use crate::digest::{self, BlockBuffer, Digest};

/// Length in bytes of an MD5 digest.
pub const OUTPUT_LEN: usize = 16;
/// MD5 compression block length in bytes.
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

// The four auxiliary functions of RFC 1321 §3.4. F and G are bitwise
// selects, written with one operation fewer than the RFC's form.
fn f(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

fn g(b: u32, c: u32, d: u32) -> u32 {
    c ^ (d & (b ^ c))
}

fn h(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

fn i(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// The message word step `i` adds (RFC 1321 §3.4).
const fn word(i: usize) -> usize {
    match i / 16 {
        0 => i,
        1 => (5 * i + 1) % 16,
        2 => (3 * i + 5) % 16,
        _ => (7 * i) % 16,
    }
}

/// Streaming MD5 hasher.
///
/// # Examples
///
/// ```
/// use flicker_crypto::digest::Digest;
/// let d = flicker_crypto::md5::Md5::digest(b"abc");
/// assert_eq!(flicker_crypto::hex::encode(&d), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: BlockBuffer<BLOCK_LEN>,
}

impl Default for Md5 {
    fn default() -> Self {
        Md5 {
            state: H0,
            buffer: BlockBuffer::default(),
        }
    }
}

impl Md5 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// The MD5 compression function (RFC 1321 §3.4), unrolled: step groups
    /// rename the working variables instead of shifting them, so every step's
    /// function, constant, rotation and message index is fixed at compile
    /// time.
    fn compress(state: &mut [u32; 4], block: &[u8; BLOCK_LEN]) {
        let mut m = [0u32; 16];
        for (word, bytes) in m.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_le_bytes(*bytes);
        }
        let [mut a, mut b, mut c, mut d] = *state;

        // One step: a = b + ((a + F(b, c, d) + K[i] + M[word(i)]) <<< S[i]);
        // the next step names (d, a, b, c) as (a, b, c, d).
        macro_rules! step {
            ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $i:expr) => {
                $a = $b.wrapping_add(
                    $a.wrapping_add($f($b, $c, $d))
                        .wrapping_add(const { K[$i] })
                        .wrapping_add(m[const { word($i) }])
                        .rotate_left(const { S[$i] }),
                );
            };
        }
        // Four steps bring the names back to (a, b, c, d).
        macro_rules! steps {
            ($f:ident; $($i:literal)+) => {$(
                step!($f, a, b, c, d, $i);
                step!($f, d, a, b, c, $i + 1);
                step!($f, c, d, a, b, $i + 2);
                step!($f, b, c, d, a, $i + 3);
            )+};
        }
        steps!(f; 0 4 8 12);
        steps!(g; 16 20 24 28);
        steps!(h; 32 36 40 44);
        steps!(i; 48 52 56 60);

        for (s, v) in state.iter_mut().zip([a, b, c, d]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Md5 {
    const OUTPUT_LEN: usize = OUTPUT_LEN;
    const BLOCK_LEN: usize = BLOCK_LEN;

    fn update(&mut self, data: &[u8]) {
        self.buffer
            .update(data, |block| Self::compress(&mut self.state, block));
    }

    fn finalize_into(mut self, out: &mut [u8]) {
        // MD5 appends the bit length little-endian, unlike the SHA family.
        let bit_len = self.buffer.message_len().wrapping_mul(8);
        self.buffer.finish(bit_len.to_le_bytes(), |block| {
            Self::compress(&mut self.state, block)
        });
        digest::store_words(out, &self.state, u32::to_le_bytes);
    }
}

/// One-shot MD5 returning a fixed-size array.
pub fn md5(data: &[u8]) -> [u8; OUTPUT_LEN] {
    let mut h = Md5::default();
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
        hex::encode(&md5(data))
    }

    #[test]
    fn rfc1321_vectors() {
        assert_eq!(hexdigest(b""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hexdigest(b"a"), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hexdigest(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            hexdigest(b"message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            hexdigest(b"abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            hexdigest(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            hexdigest(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    /// The rolled form of [`Md5::compress`], the oracle the unrolled one
    /// is checked against: one loop over the 64 steps.
    fn compress_reference(state: &mut [u32; 4], block: &[u8; BLOCK_LEN]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }

        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i {
                0..=15 => ((b & c) | ((!b) & d), i),
                16..=31 => ((d & b) | ((!d) & c), (5 * i + 1) % 16),
                32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(K[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]),
            );
            a = tmp;
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d]) {
            *s = s.wrapping_add(v);
        }
    }

    /// MD5 of the whole padded message, block by block, through
    /// [`compress_reference`].
    fn reference_digest(message: &[u8]) -> Vec<u8> {
        let bit_len = (message.len() as u64 * 8).to_le_bytes();
        let padded = reference::pad(message, BLOCK_LEN, &bit_len);
        let mut state = H0;
        for block in padded.as_chunks::<BLOCK_LEN>().0 {
            compress_reference(&mut state, block);
        }
        state.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn compress_matches_the_rolled_reference() {
        for (state, block) in reference::random_inputs::<4>(0x3d5, 1_000) {
            let (mut got, mut want) = (state, state);
            Md5::compress(&mut got, &block);
            compress_reference(&mut want, &block);
            assert_eq!(got, want, "state={state:08x?}");
        }
    }

    #[test]
    fn streaming_matches_the_padded_reference() {
        reference::check_streaming::<Md5>(reference_digest);
    }
}
