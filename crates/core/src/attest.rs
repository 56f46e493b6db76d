//! Attestation: the PCR 17 measurement chain and the remote verifier.
//!
//! Paper §4.4.1: PCR 17 tells the whole story of a session. `SKINIT` sets
//! it to `H(0^20 ‖ H(SLB))`; the SLB Core then extends measurements of the
//! inputs and outputs, the verifier's nonce, and finally a fixed public
//! constant that (i) stops anyone attributing later extends to the PAL and
//! (ii) revokes access to secrets sealed to the in-session PCR value. A
//! verifier who knows the PAL and the I/O can recompute the expected final
//! value and compare it against a TPM quote.

use crate::error::{FlickerError, FlickerResult};
use crate::session::hashing_stub_bytes;
use crate::slb::{SlbImage, SLB_MAX};
use flicker_crypto::digest::Digest;
use flicker_crypto::memo::Memo;
use flicker_crypto::rsa::RsaPublicKey;
use flicker_crypto::sha1::{sha1, Sha1};
use flicker_tpm::{AikCertificate, PcrBank, TpmQuote};
use std::sync::Mutex;

/// The fixed public constant the SLB Core extends last (paper §4.4.1's
/// "fixed public constant").
pub const TERMINATOR: [u8; 20] = [
    0x46, 0x4c, 0x49, 0x43, 0x4b, 0x45, 0x52, 0x2d, 0x45, 0x4e, 0x44, 0x2d, 0x4f, 0x46, 0x2d, 0x50,
    0x41, 0x4c, 0x21, 0x21,
]; // "FLICKER-END-OF-PAL!!"

/// Measurement of a session's inputs and outputs, as extended into PCR 17:
/// `SHA-1("flicker-io" ‖ len(in) ‖ in ‖ len(out) ‖ out)`.
pub fn io_measurement(inputs: &[u8], outputs: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(b"flicker-io");
    h.update(&(inputs.len() as u32).to_be_bytes());
    h.update(inputs);
    h.update(&(outputs.len() as u32).to_be_bytes());
    h.update(outputs);
    let d = h.finalize();
    let mut out = [0u8; 20];
    out.copy_from_slice(&d);
    out
}

fn extend(pcr: [u8; 20], m: &[u8; 20]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(&pcr);
    h.update(m);
    let d = h.finalize();
    let mut out = [0u8; 20];
    out.copy_from_slice(&d);
    out
}

/// What the verifier believes about a session, sufficient to recompute the
/// final PCR 17 value.
#[derive(Debug, Clone)]
pub struct ExpectedSession<'a> {
    /// The PAL's SLB (the verifier "must know the measurement of the PAL").
    pub slb: &'a SlbImage,
    /// The conventional load address.
    pub slb_base: u64,
    /// Input bytes the challenger claims were supplied.
    pub inputs: &'a [u8],
    /// Output bytes the challenger returned.
    pub outputs: &'a [u8],
    /// The verifier's own nonce.
    pub nonce: [u8; 20],
    /// Whether the §7.2 hashing-stub launch path was used.
    pub used_hashing_stub: bool,
}

/// The PCR 17 value right after launch: `SKINIT`'s measurement of the SLB,
/// plus the stub's full-window measurement when the §7.2 launch path is in
/// use.
pub fn launch_pcr17(s: &ExpectedSession<'_>) -> [u8; 20] {
    if s.used_hashing_stub {
        stub_launch_pcr17(&s.slb.patched_bytes(s.slb_base))
    } else {
        s.slb.expected_pcr17_after_skinit(s.slb_base)
    }
}

/// [`launch_pcr17`] on the hashing-stub path, from the patched app image
/// alone: the stub and the window size are constants.
fn stub_launch_pcr17(app: &[u8]) -> [u8; 20] {
    // SKINIT measured the stub; the stub then measured the full window
    // (stub ‖ patched app SLB ‖ zero fill) and, for a large PAL, the
    // overflow region above the parameter pages.
    let stub = hashing_stub_bytes();
    let in_window = app.len().min(SLB_MAX - stub.len());
    let mut window = vec![0u8; SLB_MAX];
    window[..stub.len()].copy_from_slice(stub);
    window[stub.len()..stub.len() + in_window].copy_from_slice(&app[..in_window]);
    let after_skinit = PcrBank::predict_skinit_pcr17(&sha1(stub));
    let mut pcr = extend(after_skinit, &sha1(&window));
    if in_window < app.len() {
        pcr = extend(pcr, &sha1(&app[in_window..]));
    }
    pcr
}

/// Recomputes the PCR 17 value a faithful session must end with.
pub fn expected_pcr17_final(s: &ExpectedSession<'_>) -> [u8; 20] {
    expected_pcr17_final_with_extends(s, &[])
}

/// Like [`expected_pcr17_final`], for PALs that perform their own PCR 17
/// extends during execution (e.g. the rootkit detector extending the
/// kernel hash, §6.1). `pal_extends` lists those measurements in order.
pub fn expected_pcr17_final_with_extends(
    s: &ExpectedSession<'_>,
    pal_extends: &[[u8; 20]],
) -> [u8; 20] {
    final_from_launch(launch_pcr17(s), s, pal_extends)
}

/// The session's extends on top of its launch value of PCR 17.
fn final_from_launch(
    launch: [u8; 20],
    s: &ExpectedSession<'_>,
    pal_extends: &[[u8; 20]],
) -> [u8; 20] {
    let mut pcr = launch;
    for m in pal_extends {
        pcr = extend(pcr, m);
    }
    pcr = extend(pcr, &io_measurement(s.inputs, s.outputs));
    pcr = extend(pcr, &s.nonce);
    extend(pcr, &TERMINATOR)
}

/// Hashing-stub launch values a [`Verifier`] keeps.
const LAUNCH_MEMO_CAP: usize = 4;

/// The remote verifier (paper §4.4.1's challenger-side checks).
///
/// A long-lived verifier does each fixed check once: it keeps the
/// hashing-stub launch value of PCR 17 for the last few PALs, keyed by
/// their exact patched bytes (the only input of that value), and the last
/// AIK certificate whose Privacy-CA signature verified, matched by exact
/// equality. Neither can go stale, so neither is ever dropped.
pub struct Verifier {
    privacy_ca_public: RsaPublicKey,
    /// Patched SLB bytes → [`launch_pcr17`] on the hashing-stub path.
    stub_launches: Mutex<Memo<Vec<u8>, [u8; 20], LAUNCH_MEMO_CAP>>,
    /// The last certificate that chained to `privacy_ca_public`.
    checked_cert: Mutex<Memo<AikCertificate, (), 1>>,
}

impl Verifier {
    /// A verifier trusting the given Privacy CA.
    pub fn new(privacy_ca_public: RsaPublicKey) -> Self {
        Verifier {
            privacy_ca_public,
            stub_launches: Mutex::default(),
            checked_cert: Mutex::default(),
        }
    }

    /// [`launch_pcr17`], kept for the session's PAL on the hashing-stub
    /// path. The direct launch hashes only the image, so it is not kept.
    pub fn launch_pcr17(&self, s: &ExpectedSession<'_>) -> [u8; 20] {
        if !s.used_hashing_stub {
            return launch_pcr17(s);
        }
        let app = s.slb.patched_bytes(s.slb_base);
        let mut memo = self.stub_launches.lock().expect("verifier memo poisoned");
        memo.get_or_insert_with(&app[..], || stub_launch_pcr17(&app))
            .0
    }

    /// Checks that `cert` chains to the trusted Privacy CA, once per
    /// certificate.
    fn check_certificate(&self, cert: &AikCertificate) -> FlickerResult<()> {
        let mut checked = self.checked_cert.lock().expect("verifier memo poisoned");
        if checked.get(cert).is_none() {
            cert.verify(&self.privacy_ca_public)
                .map_err(|_| FlickerError::Attestation("AIK certificate invalid"))?;
            checked.insert(cert.clone(), ());
        }
        Ok(())
    }

    /// Full attestation check:
    ///
    /// 1. the AIK certificate chains to the trusted Privacy CA;
    /// 2. the quote's signature verifies under that AIK and covers the
    ///    verifier's nonce;
    /// 3. the quoted PCR 17 equals the recomputed expectation — proving the
    ///    intended PAL ran under Flicker protection with exactly the
    ///    claimed inputs and outputs.
    pub fn verify(
        &self,
        cert: &AikCertificate,
        quote: &TpmQuote,
        expected: &ExpectedSession<'_>,
    ) -> FlickerResult<()> {
        self.verify_with_extends(cert, quote, expected, &[])
    }

    /// [`Verifier::verify`] for sessions whose PAL performed its own
    /// PCR 17 extends (supplied in order in `pal_extends`).
    pub fn verify_with_extends(
        &self,
        cert: &AikCertificate,
        quote: &TpmQuote,
        expected: &ExpectedSession<'_>,
        pal_extends: &[[u8; 20]],
    ) -> FlickerResult<()> {
        self.check_certificate(cert)?;
        quote
            .verify(&cert.aik_public, &expected.nonce)
            .map_err(|_| FlickerError::Attestation("quote signature/nonce invalid"))?;
        let quoted = quote
            .pcr_value(17)
            .ok_or(FlickerError::Attestation("PCR 17 not quoted"))?;
        let want = final_from_launch(self.launch_pcr17(expected), expected, pal_extends);
        if !flicker_crypto::ct_eq(quoted, &want) {
            return Err(FlickerError::Attestation("PCR 17 mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_measurement_is_injective_on_boundaries() {
        // Length framing prevents input/output boundary confusion.
        let a = io_measurement(b"ab", b"c");
        let b = io_measurement(b"a", b"bc");
        assert_ne!(a, b);
        let c = io_measurement(b"", b"abc");
        assert_ne!(b, c);
    }

    #[test]
    fn terminator_is_public_and_fixed() {
        assert_eq!(&TERMINATOR[..], b"FLICKER-END-OF-PAL!!");
    }

    fn nop_slb(identity: &[u8]) -> SlbImage {
        use crate::slb::{PalPayload, SlbOptions};
        use std::sync::Arc;
        struct Nop;
        impl crate::pal::NativePal for Nop {
            fn run(&self, _: &mut crate::pal::PalContext<'_>) -> FlickerResult<()> {
                Ok(())
            }
        }
        SlbImage::build(
            PalPayload::Native {
                identity: identity.to_vec(),
                program: Arc::new(Nop),
            },
            SlbOptions::default(),
        )
        .unwrap()
    }

    fn launch(slb: &SlbImage, slb_base: u64, used_hashing_stub: bool) -> ExpectedSession<'_> {
        ExpectedSession {
            slb,
            slb_base,
            inputs: b"",
            outputs: b"",
            nonce: [0; 20],
            used_hashing_stub,
        }
    }

    fn verifier() -> Verifier {
        let small = |b: u8| flicker_crypto::Mpint::from_bytes_be(&[b]);
        Verifier::new(RsaPublicKey::new(small(0xC5), small(3)))
    }

    /// SHA-1 compressions `f` runs on this thread.
    fn compressions<T>(f: impl FnOnce() -> T) -> u64 {
        let before = flicker_crypto::cost::snapshot();
        f();
        flicker_crypto::cost::snapshot()
            .since(&before)
            .sha1_compress
    }

    #[test]
    fn verifier_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Verifier>();
    }

    /// Each kept launch value is the one [`launch_pcr17`] computes, for
    /// images one byte apart, two load bases and both launch paths; the
    /// second pass finds every stub-launched value kept.
    #[test]
    fn kept_launch_values_match_the_free_function() {
        let (a, b) = (nop_slb(b"pal-a"), nop_slb(b"pal-b"));
        let claims = [
            launch(&a, 0x10_0000, true),
            launch(&b, 0x10_0000, true),
            launch(&a, 0x30_0000, true),
            launch(&a, 0x10_0000, false),
        ];
        let v = verifier();
        for pass in 0..2 {
            for s in &claims {
                let want = launch_pcr17(s);
                let hashed = compressions(|| assert_eq!(v.launch_pcr17(s), want));
                assert_eq!(hashed == 0, pass == 1 && s.used_hashing_stub);
            }
        }
    }

    #[test]
    fn a_verifier_keeps_four_launch_values() {
        let slbs: Vec<SlbImage> = (0..5u8).map(|i| nop_slb(&[i])).collect();
        let v = verifier();
        let window = compressions(|| v.launch_pcr17(&launch(&slbs[0], 0x10_0000, true)));
        assert_eq!(window, 1_102, "stub, 64 KB window and two extends");
        for slb in &slbs[1..4] {
            v.launch_pcr17(&launch(slb, 0x10_0000, true));
        }
        let kept = |i: usize| compressions(|| v.launch_pcr17(&launch(&slbs[i], 0x10_0000, true)));
        assert_eq!(kept(0), 0, "a hit refreshes the oldest value");
        assert_eq!(kept(4), window, "a fifth PAL evicts the least recent");
        assert_eq!((kept(0), kept(1)), (0, window));
    }

    #[test]
    fn expected_chain_changes_with_every_component() {
        let slb = nop_slb(b"pal");
        let base = ExpectedSession {
            slb: &slb,
            slb_base: 0x10_0000,
            inputs: b"in",
            outputs: b"out",
            nonce: [1; 20],
            used_hashing_stub: false,
        };
        let v0 = expected_pcr17_final(&base);

        let mut x = base.clone();
        x.inputs = b"in2";
        assert_ne!(expected_pcr17_final(&x), v0);

        let mut x = base.clone();
        x.outputs = b"out2";
        assert_ne!(expected_pcr17_final(&x), v0);

        let mut x = base.clone();
        x.nonce = [2; 20];
        assert_ne!(expected_pcr17_final(&x), v0);

        let mut x = base.clone();
        x.slb_base = 0x20_0000;
        assert_ne!(expected_pcr17_final(&x), v0);

        let mut x = base.clone();
        x.used_hashing_stub = true;
        assert_ne!(expected_pcr17_final(&x), v0);
    }
}
