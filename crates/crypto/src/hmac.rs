//! HMAC (RFC 2104), generic over any [`Digest`] in this crate.
//!
//! The distributed-computing application (paper §6.2) MACs its
//! integrity-protected state with HMAC under a TPM-sealed symmetric key;
//! the TPM's OIAP/OSAP authorization sessions (paper §5.1.2) also compute
//! HMAC-SHA-1 over command parameters.

use crate::digest::Digest;

/// Streaming HMAC instance over hash `D`.
///
/// # Examples
///
/// ```
/// use flicker_crypto::{hmac::Hmac, sha1::Sha1};
/// let tag = Hmac::<Sha1>::mac(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     flicker_crypto::hex::encode(&tag),
///     "de7c9b85b8b78aa6bc8a7a36f70a90701c9db4d9"
/// );
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    outer: D,
}

/// The longest block of any hash in this crate (SHA-512's), which also
/// bounds every digest: the size of HMAC's stack buffers.
const MAX_BLOCK_LEN: usize = 128;

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC instance keyed with `key`, without allocating.
    ///
    /// Keys longer than the hash block length are first hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        const { assert!(D::BLOCK_LEN <= MAX_BLOCK_LEN && D::OUTPUT_LEN <= D::BLOCK_LEN) };
        let mut pad = [0u8; MAX_BLOCK_LEN];
        let pad = &mut pad[..D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let mut h = D::default();
            h.update(key);
            h.finalize_into(&mut pad[..D::OUTPUT_LEN]);
        } else {
            pad[..key.len()].copy_from_slice(key);
        }

        let mut inner = D::default();
        pad.iter_mut().for_each(|b| *b ^= 0x36);
        inner.update(pad);

        let mut outer = D::default();
        pad.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        outer.update(pad);

        Hmac { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and writes the authentication tag into `out`, without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics unless `out` is exactly `D::OUTPUT_LEN` bytes long.
    pub fn finalize_into(mut self, out: &mut [u8]) {
        crate::cost::count(crate::cost::Primitive::Hmac);
        let mut inner_hash = [0u8; MAX_BLOCK_LEN];
        let inner_hash = &mut inner_hash[..D::OUTPUT_LEN];
        self.inner.finalize_into(inner_hash);
        self.outer.update(inner_hash);
        self.outer.finalize_into(out);
    }

    /// Finishes and returns the authentication tag (`D::OUTPUT_LEN` bytes).
    pub fn finalize(self) -> Vec<u8> {
        let mut out = vec![0; D::OUTPUT_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// One-shot HMAC computation.
    pub fn mac(key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verifies `tag` against the HMAC of `data` in constant time.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        crate::ct_eq(&Self::mac(key, data), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::md5::Md5;
    use crate::sha1::Sha1;
    use crate::sha256::Sha256;
    use crate::sha512::Sha512;

    #[test]
    fn rfc2202_sha1_case1() {
        let key = [0x0b; 20];
        let tag = Hmac::<Sha1>::mac(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn rfc2202_sha1_case2() {
        let tag = Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn rfc2202_sha1_long_key() {
        // Case 6: 80-byte key exercises the hash-the-key path.
        let key = [0xaa; 80];
        let tag = Hmac::<Sha1>::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    #[test]
    fn rfc2202_md5_case1() {
        let key = [0x0b; 16];
        let tag = Hmac::<Md5>::mac(&key, b"Hi There");
        assert_eq!(hex::encode(&tag), "9294727a3638bb1c13f48ef8158bfc9d");
    }

    #[test]
    fn rfc4231_sha256_case1() {
        let tag = Hmac::<Sha256>::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_sha256_case2() {
        let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 case 6's 131-byte key and message: the key is longer than
    /// the block, so it is hashed into the stack pad first.
    const LONG_KEY: [u8; 131] = [0xaa; 131];
    const CASE6_DATA: &[u8] = b"Test Using Larger Than Block-Size Key - Hash Key First";

    #[test]
    fn rfc4231_sha256_case6_long_key() {
        let tag = Hmac::<Sha256>::mac(&LONG_KEY, CASE6_DATA);
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_sha256_case7_long_key_and_data() {
        let tag = Hmac::<Sha256>::mac(
            &LONG_KEY,
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm.",
        );
        assert_eq!(
            hex::encode(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// SHA-512's 128-byte block fills the whole stack pad.
    #[test]
    fn rfc4231_sha512_case6_long_key() {
        let tag = Hmac::<Sha512>::mac(&LONG_KEY, CASE6_DATA);
        assert_eq!(
            hex::encode(&tag),
            "80b24263c7c1a3ebb71493c1dd7be8b49b46d1f41b4aeec1121b013783f8f352\
             6b56d037e05f2598bd0fd2215d6a1e5295e64f73f63f0aec8b915a985d786598"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let key = b"0123456789abcdef";
        let data = b"some state to protect across flicker sessions";
        let mut h = Hmac::<Sha1>::new(key);
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finalize(), Hmac::<Sha1>::mac(key, data));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = Hmac::<Sha1>::mac(b"k", b"m");
        assert!(Hmac::<Sha1>::verify(b"k", b"m", &tag));
        assert!(!Hmac::<Sha1>::verify(b"k", b"m2", &tag));
        assert!(!Hmac::<Sha1>::verify(b"k2", b"m", &tag));
        let mut bad = tag.clone();
        bad[0] ^= 1;
        assert!(!Hmac::<Sha1>::verify(b"k", b"m", &bad));
    }
}
