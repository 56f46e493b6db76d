//! Common interface implemented by every hash function in this crate, and
//! the block buffer they share.

/// A streaming cryptographic hash function.
///
/// Implementations are value types: clone a partially-updated hasher to fork
/// the computation (used by [`crate::hmac`] and the TPM's PCR logic).
pub trait Digest: Default + Clone {
    /// Digest output length in bytes.
    const OUTPUT_LEN: usize;
    /// Internal compression-function block length in bytes (needed by HMAC).
    const BLOCK_LEN: usize;

    /// Absorbs `data` into the hash state.
    fn update(&mut self, data: &[u8]);

    /// Consumes the hasher and writes the digest into `out`, without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics unless `out` is exactly `OUTPUT_LEN` bytes long.
    fn finalize_into(self, out: &mut [u8]);

    /// Consumes the hasher and returns the digest (`OUTPUT_LEN` bytes).
    fn finalize(self) -> Vec<u8> {
        let mut out = vec![0; Self::OUTPUT_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// Convenience one-shot helper: hash `data` in a single call.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::default();
        h.update(data);
        h.finalize()
    }
}

/// The Merkle–Damgård front end of every hash here: it cuts the message
/// into `N`-byte blocks for a compression function and pads the last one
/// (FIPS 180-4 §5.1, RFC 1321 §3.1–3.2).
#[derive(Clone)]
pub(crate) struct BlockBuffer<const N: usize> {
    block: [u8; N],
    /// Leading bytes of `block` that hold message data (always `< N`).
    filled: usize,
    /// Message length so far, in bytes.
    message_len: u64,
}

impl<const N: usize> Default for BlockBuffer<N> {
    fn default() -> Self {
        BlockBuffer {
            block: [0; N],
            filled: 0,
            message_len: 0,
        }
    }
}

impl<const N: usize> BlockBuffer<N> {
    /// Message length so far, in bytes.
    pub(crate) fn message_len(&self) -> u64 {
        self.message_len
    }

    /// Absorbs `data`, handing each completed block to `compress`. Whole
    /// blocks of `data` go to `compress` in place, without a copy.
    pub(crate) fn update(&mut self, mut data: &[u8], mut compress: impl FnMut(&[u8; N])) {
        self.message_len = self.message_len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = (N - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < N {
                return;
            }
            compress(&self.block);
            self.filled = 0;
        }
        let (blocks, rest) = data.as_chunks::<N>();
        for block in blocks {
            compress(block);
        }
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// Pads the message in one step and compresses what is left: the
    /// `0x80` marker, the zero fill and the `L`-byte `length` field (the
    /// message's bit length in the hash's byte order). That is one block,
    /// or two when the marker leaves no room for the length field.
    pub(crate) fn finish<const L: usize>(
        &mut self,
        length: [u8; L],
        mut compress: impl FnMut(&[u8; N]),
    ) {
        self.block[self.filled] = 0x80;
        self.block[self.filled + 1..].fill(0);
        if self.filled >= N - L {
            compress(&self.block);
            self.block.fill(0);
        }
        self.block[N - L..].copy_from_slice(&length);
        compress(&self.block);
    }
}

/// Writes `words` into `out` one after another, each as `to_bytes`
/// serialises it: how every hash here emits its final chaining state.
///
/// # Panics
///
/// Panics unless `out` holds exactly the words' bytes.
pub(crate) fn store_words<W: Copy, const B: usize>(
    out: &mut [u8],
    words: &[W],
    to_bytes: fn(W) -> [u8; B],
) {
    assert_eq!(out.len(), words.len() * B, "digest output length");
    for (bytes, &word) in out.as_chunks_mut::<B>().0.iter_mut().zip(words) {
        *bytes = to_bytes(word);
    }
}

/// Test-only oracles shared by the four hashes' test modules.
#[cfg(test)]
pub(crate) mod reference {
    use super::Digest;
    use crate::rng::{CryptoRng, XorShiftRng};

    /// Pads `message` whole, as FIPS 180-4 §5.1 and RFC 1321 §3.1–3.2
    /// specify: a `1` bit, then the fewest zero bits that leave exactly
    /// room for `length` at the end of a `block_len`-byte block, then
    /// `length`.
    pub(crate) fn pad(message: &[u8], block_len: usize, length: &[u8]) -> Vec<u8> {
        let mut padded = message.to_vec();
        padded.push(0x80);
        while !(padded.len() + length.len()).is_multiple_of(block_len) {
            padded.push(0);
        }
        padded.extend_from_slice(length);
        padded
    }

    /// The message lengths every hash is checked at: each of 0–300 (all
    /// the one- and two-block padding cases for 64- and 128-byte blocks),
    /// then 1,000 bytes and 8 MiB.
    pub(crate) fn lengths() -> impl Iterator<Item = usize> {
        (0..=300).chain([1_000, 8 << 20])
    }

    /// A deterministic test message of `len` bytes.
    pub(crate) fn message(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 13) as u8)
            .collect()
    }

    /// `count` seeded random (chaining state, block) pairs: the inputs a
    /// differential test feeds to two compression functions.
    pub(crate) fn random_inputs<const W: usize>(
        seed: u64,
        count: usize,
    ) -> Vec<([u32; W], [u8; 64])> {
        let mut rng = XorShiftRng::new(seed);
        (0..count)
            .map(|_| {
                let state = std::array::from_fn(|_| rng.next_u64() as u32);
                let mut block = [0u8; 64];
                rng.fill_bytes(&mut block);
                (state, block)
            })
            .collect()
    }

    /// Checks `D` against `reference` on every length of [`lengths`]: the
    /// whole message in one `update`, one byte per `update`, and split in
    /// two at 0, 1, 63, 64, 65, `len / 2`, `len − 1` and `len` bytes; the
    /// whole message also through [`Digest::finalize_into`].
    pub(crate) fn check_streaming<D: Digest>(reference: impl Fn(&[u8]) -> Vec<u8>) {
        for len in lengths() {
            let data = message(len);
            let want = reference(&data);
            assert_eq!(want.len(), D::OUTPUT_LEN);
            assert_eq!(D::digest(&data), want, "whole, len={len}");
            let mut h = D::default();
            h.update(&data);
            let mut into = vec![0xa5; D::OUTPUT_LEN];
            h.finalize_into(&mut into);
            assert_eq!(into, want, "finalize_into, len={len}");
            let mut h = D::default();
            for byte in data.chunks(1) {
                h.update(byte);
            }
            assert_eq!(h.finalize(), want, "byte at a time, len={len}");
            for split in [0, 1, 63, 64, 65, len / 2, len.saturating_sub(1), len] {
                let split = split.min(len);
                let mut h = D::default();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), want, "split={split}, len={len}");
            }
        }
    }
}
