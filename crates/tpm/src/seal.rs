//! TPM sealed storage (paper §2.2, §4.3.1).
//!
//! `Seal` binds data to a PCR configuration: the TPM emits an opaque blob
//! that it will only decrypt (`Unseal`) when the named PCRs hold the values
//! fixed at seal time. Flicker uses this to hand secrets from one PAL
//! session to a future session of the same (or a designated different) PAL:
//! seal under `digestAtRelease = composite(PCR17 = H(0^20 ‖ H(P')))`.
//!
//! **Substitution note** (see DESIGN.md): a hardware TPM encrypts sealed
//! blobs with the 2048-bit RSA SRK. Here the blob is protected with
//! AES-128-CTR + HMAC-SHA-1 under secrets derived from a per-TPM storage
//! root that never leaves the [`crate::Tpm`] struct. The externally
//! observable behaviour is identical — blobs are opaque, bound to one TPM,
//! integrity-protected, and PCR-gated — and the *cost* of the RSA operation
//! is still charged via [`crate::timing::TpmTimingProfile`]. The storage
//! root expands its AES key and keys its MAC once, when the TPM is
//! manufactured; each `Seal` and `Unseal` reuses both schedules.

use crate::auth::AuthData;
use crate::error::{TpmError, TpmResult};
use crate::pcr::{composite_hash_of, PcrBank, PcrSelection, PcrValue};
use flicker_crypto::aes::Aes128;
use flicker_crypto::hmac::Hmac;
use flicker_crypto::sha1::Sha1;

/// Magic tag marking sealed blobs (helps tests catch blob corruption).
const BLOB_TAG: &[u8; 4] = b"SEAL";

/// An opaque sealed blob, held by *untrusted* software between sessions
/// (paper: "Software is responsible for keeping it on a non-volatile
/// storage medium").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    bytes: Vec<u8>,
}

impl SealedBlob {
    /// Raw serialized form (what the OS writes to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs a blob from its serialized form.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        SealedBlob { bytes }
    }

    /// Total blob size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the blob is empty (never produced by `seal`).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Internal storage-root secrets; derived from the TPM's DRBG at
/// manufacture. Models the SRK's protected-storage role.
#[derive(Clone)]
pub(crate) struct StorageRoot {
    /// The expanded encryption key.
    aes: Aes128,
    /// HMAC keyed with the MAC key.
    mac: Hmac<Sha1>,
}

impl StorageRoot {
    pub(crate) fn new(enc_key: [u8; 16], mac_key: [u8; 20]) -> Self {
        StorageRoot {
            aes: Aes128::new(&enc_key),
            mac: Hmac::new(&mac_key),
        }
    }

    /// The blob MAC over `bytes`.
    fn mac(&self, bytes: &[u8]) -> [u8; 20] {
        let mut h = self.mac.clone();
        h.update(bytes);
        let mut tag = [0; 20];
        h.finalize_into(&mut tag);
        tag
    }

    /// Seals `data` so it is released only when the selected PCRs hash to
    /// `digest_at_release`, and only to a caller proving `blob_auth`.
    /// `nonce` must never repeat under this root (the TPM passes a
    /// counter), or two blobs would share a CTR keystream.
    pub(crate) fn seal(
        &self,
        data: &[u8],
        selection: &PcrSelection,
        digest_at_release: [u8; 20],
        blob_auth: &AuthData,
        nonce: [u8; 8],
    ) -> SealedBlob {
        // Plaintext payload: blob_auth ‖ data (auth travels inside the
        // encrypted envelope, like TPM_STORED_DATA's sealInfo/encData).
        let mut payload = Vec::with_capacity(20 + data.len());
        payload.extend_from_slice(blob_auth);
        payload.extend_from_slice(data);

        self.aes.ctr_apply(&nonce, 0, &mut payload);

        let sel_enc = selection.encode();
        let mut bytes = Vec::with_capacity(4 + sel_enc.len() + 20 + 8 + 4 + payload.len() + 20);
        bytes.extend_from_slice(BLOB_TAG);
        bytes.push(sel_enc.len() as u8);
        bytes.extend_from_slice(&sel_enc);
        bytes.extend_from_slice(&digest_at_release);
        bytes.extend_from_slice(&nonce);
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&payload);

        let mac = self.mac(&bytes);
        bytes.extend_from_slice(&mac);
        SealedBlob { bytes }
    }

    /// Parses and integrity-checks a blob, returning
    /// `(selection, digest_at_release, blob_auth, data)`.
    pub(crate) fn open(
        &self,
        blob: &SealedBlob,
    ) -> TpmResult<(PcrSelection, [u8; 20], AuthData, Vec<u8>)> {
        let b = &blob.bytes;
        if b.len() < 4 + 1 + 20 {
            return Err(TpmError::DecryptError);
        }
        if &b[..4] != BLOB_TAG {
            return Err(TpmError::DecryptError);
        }
        let mac_off = b.len() - 20;
        if !flicker_crypto::ct_eq(&self.mac(&b[..mac_off]), &b[mac_off..]) {
            return Err(TpmError::DecryptError);
        }

        let mut off = 4usize;
        let sel_len = b[off] as usize;
        off += 1;
        if b.len() < off + sel_len + 20 + 8 + 4 {
            return Err(TpmError::DecryptError);
        }
        let selection = decode_selection(&b[off..off + sel_len])?;
        off += sel_len;
        let mut digest_at_release = [0u8; 20];
        digest_at_release.copy_from_slice(&b[off..off + 20]);
        off += 20;
        let mut nonce = [0u8; 8];
        nonce.copy_from_slice(&b[off..off + 8]);
        off += 8;
        let payload_len = u32::from_be_bytes(b[off..off + 4].try_into().expect("4 bytes")) as usize;
        off += 4;
        if mac_off != off + payload_len || payload_len < 20 {
            return Err(TpmError::DecryptError);
        }
        let mut payload = b[off..off + payload_len].to_vec();
        self.aes.ctr_apply(&nonce, 0, &mut payload);

        let mut blob_auth = [0u8; 20];
        blob_auth.copy_from_slice(&payload[..20]);
        Ok((
            selection,
            digest_at_release,
            blob_auth,
            payload[20..].to_vec(),
        ))
    }
}

fn decode_selection(enc: &[u8]) -> TpmResult<PcrSelection> {
    // Inverse of PcrSelection::encode: u16 size (always 3) + bitmap.
    if enc.len() != 5 || enc[0] != 0 || enc[1] != 3 {
        return Err(TpmError::DecryptError);
    }
    let mut idx = Vec::new();
    for i in 0..24u32 {
        if enc[2 + (i / 8) as usize] & (1 << (i % 8)) != 0 {
            idx.push(i);
        }
    }
    PcrSelection::new(&idx)
}

/// Checks whether the current `bank` satisfies a blob's release policy.
pub(crate) fn pcrs_satisfy(
    bank: &PcrBank,
    selection: &PcrSelection,
    digest_at_release: &[u8; 20],
) -> TpmResult<bool> {
    if selection.is_empty() {
        // No PCR binding: release unconditionally (spec allows sealing
        // without PCR constraints).
        return Ok(true);
    }
    let current = bank.composite_hash(selection)?;
    Ok(flicker_crypto::ct_eq(&current, digest_at_release))
}

/// Computes a `digestAtRelease` for explicit target values (sealing for a
/// future PAL).
pub fn digest_at_release_for(selection: &PcrSelection, values: &[PcrValue]) -> [u8; 20] {
    composite_hash_of(selection, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> StorageRoot {
        StorageRoot::new([1; 16], [2; 20])
    }

    fn sel17() -> PcrSelection {
        PcrSelection::pcr17()
    }

    #[test]
    fn seal_open_round_trip() {
        let r = root();
        let digest = [5u8; 20];
        let blob = r.seal(b"secret key material", &sel17(), digest, &[9; 20], [3; 8]);
        let (sel, dar, auth, data) = r.open(&blob).unwrap();
        assert_eq!(sel, sel17());
        assert_eq!(dar, digest);
        assert_eq!(auth, [9; 20]);
        assert_eq!(data, b"secret key material");
    }

    /// A seal and an open each cost the blob MAC under the root's kept
    /// keyed state (the body's compressions plus 1 outer) and the CTR
    /// blocks under its expanded key; no key schedule is rebuilt.
    #[test]
    fn seal_and_open_reuse_the_root_schedules() {
        let r = root();
        // (data length, SHA-1 compressions, AES blocks): the MAC covers a
        // 62-byte header-and-auth body plus the data.
        for (len, sha1, aes) in [(0, 3, 2), (32, 3, 4), (200, 6, 14)] {
            let before = flicker_crypto::cost::snapshot();
            let blob = r.seal(&vec![7; len], &sel17(), [0; 20], &[9; 20], [1; 8]);
            let sealed = flicker_crypto::cost::snapshot().since(&before);
            let before = flicker_crypto::cost::snapshot();
            r.open(&blob).unwrap();
            let opened = flicker_crypto::cost::snapshot().since(&before);
            for cost in [sealed, opened] {
                assert_eq!(cost.sha1_compress, sha1, "len={len}");
                assert_eq!(cost.sha256_compress, 0, "len={len}");
                assert_eq!(cost.aes_block, aes, "len={len}");
            }
        }
    }

    #[test]
    fn blob_is_opaque() {
        let r = root();
        let secret = b"super secret password";
        let blob = r.seal(secret, &sel17(), [0; 20], &[0; 20], [1; 8]);
        // The plaintext must not appear in the blob.
        let bytes = blob.as_bytes();
        assert!(!bytes.windows(secret.len()).any(|w| w == secret.as_slice()));
    }

    #[test]
    fn different_tpm_cannot_open() {
        let blob = root().seal(b"data", &sel17(), [0; 20], &[0; 20], [1; 8]);
        let other = StorageRoot::new([7; 16], [8; 20]);
        assert_eq!(other.open(&blob), Err(TpmError::DecryptError));
    }

    #[test]
    fn tampering_detected() {
        let r = root();
        let blob = r.seal(b"data", &sel17(), [0; 20], &[0; 20], [1; 8]);
        for i in [0, 5, 10, blob.len() - 1] {
            let mut bytes = blob.as_bytes().to_vec();
            bytes[i] ^= 1;
            assert_eq!(
                r.open(&SealedBlob::from_bytes(bytes)),
                Err(TpmError::DecryptError),
                "byte {i}"
            );
        }
        // Truncation detected too.
        let bytes = blob.as_bytes()[..blob.len() - 1].to_vec();
        assert_eq!(
            r.open(&SealedBlob::from_bytes(bytes)),
            Err(TpmError::DecryptError)
        );
    }

    #[test]
    fn pcr_policy_check() {
        let mut bank = PcrBank::at_reboot();
        bank.dynamic_reset(4).unwrap();
        let slb_hash = flicker_crypto::sha1::sha1(b"pal");
        bank.extend(17, &slb_hash).unwrap();

        let digest = bank.composite_hash(&sel17()).unwrap();
        assert!(pcrs_satisfy(&bank, &sel17(), &digest).unwrap());

        // Extending PCR17 again (e.g. the SLB Core's termination extend)
        // revokes access.
        bank.extend(17, &[0u8; 20]).unwrap();
        assert!(!pcrs_satisfy(&bank, &sel17(), &digest).unwrap());
    }

    #[test]
    fn empty_selection_always_releases() {
        let bank = PcrBank::at_reboot();
        let sel = PcrSelection::new(&[]).unwrap();
        assert!(pcrs_satisfy(&bank, &sel, &[0xab; 20]).unwrap());
    }

    #[test]
    fn selection_codec_round_trip() {
        for idx in [vec![], vec![17], vec![0, 17, 23], vec![1, 2, 3, 4, 5]] {
            let sel = PcrSelection::new(&idx).unwrap();
            let enc = sel.encode();
            assert_eq!(decode_selection(&enc).unwrap(), sel);
        }
    }

    #[test]
    fn empty_data_seals() {
        let r = root();
        let blob = r.seal(b"", &sel17(), [0; 20], &[4; 20], [1; 8]);
        let (_, _, auth, data) = r.open(&blob).unwrap();
        assert_eq!(auth, [4; 20]);
        assert!(data.is_empty());
    }

    #[test]
    fn nonce_varies_ciphertext() {
        let r = root();
        let a = r.seal(b"same data", &sel17(), [0; 20], &[0; 20], [1; 8]);
        let b = r.seal(b"same data", &sel17(), [0; 20], &[0; 20], [2; 8]);
        assert_ne!(a, b);
    }
}
