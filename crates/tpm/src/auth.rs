//! OIAP / OSAP authorization sessions.
//!
//! The paper's TPM Utilities module implements "the OIAP and OSAP sessions
//! necessary to authorize Seal and Unseal" (§5.1.2). A session proves
//! knowledge of a 20-byte authorization secret by HMACing rolling nonces
//! and the command parameter digest, without ever sending the secret.
//!
//! This module reproduces the protocol shape:
//!
//! * **OIAP** (Object-Independent): HMAC key is the object's authdata
//!   directly; one session can authorize commands on many objects.
//! * **OSAP** (Object-Specific): a shared secret
//!   `HMAC(authdata, nonceEvenOSAP ‖ nonceOddOSAP)` is derived at session
//!   start and used as the HMAC key, so the raw authdata is never an HMAC
//!   key for command traffic.
//!
//! Both halves keep their HMAC keyed: the client from session start, the
//! TPM from session start for OSAP and from the first command for OIAP
//! (it re-keys only when a command names an object with another auth).
//! A command's four HMACs (authorize, verify, respond, absorb) then
//! clone a keyed state instead of rebuilding its key schedule, and the
//! session types print no secret in `Debug`.
//!
//! A session stays live across commands when the caller sets
//! `continueAuthSession` (Flicker's PAL context parks one such session per
//! machine and reuses it across commands and PAL runs, §7.6): the TPM's
//! response carries a fresh even nonce plus a response HMAC
//! ([`ResponseAuth`]), the client verifies it with
//! [`ClientSession::absorb_response`] and rolls its own nonce, and the
//! next command authorizes under the rolled pair. One-shot
//! callers pass `continue_session = false` and the TPM evicts the session
//! with the command — leaving it live with no client half is exactly the
//! session-table leak this handshake exists to prevent.

use crate::error::{TpmError, TpmResult};
use flicker_crypto::hmac::Hmac;
use flicker_crypto::rng::CryptoRng;
use flicker_crypto::sha1::Sha1;

/// A 20-byte authorization secret (e.g. the TPM Owner Authorization Data of
/// paper §4.3.2, or per-object usage auth).
pub type AuthData = [u8; 20];
/// A 20-byte anti-replay nonce.
pub type Nonce = [u8; 20];

/// The "well-known secret" (all zeroes) used for objects without real
/// authorization, per the TCG convention.
pub const WELL_KNOWN_AUTH: AuthData = [0u8; 20];

/// Kind of authorization session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Object-Independent Authorization Protocol.
    Oiap,
    /// Object-Specific Authorization Protocol.
    Osap,
}

/// Server-side (TPM-side) session state.
#[derive(Clone)]
pub(crate) struct AuthSession {
    /// Most recent even nonce generated by the TPM.
    pub(crate) nonce_even: Nonce,
    /// The odd nonce of the last accepted command on this session; a
    /// repeat is rejected outright, so a client that re-seeds its nonce
    /// generator per retry attempt (the bug this guards against) fails
    /// loudly instead of silently weakening the anti-replay guarantee.
    pub(crate) last_nonce_odd: Option<Nonce>,
    key: SessionKey,
}

/// The HMAC key of a server-side session, kept keyed.
#[derive(Clone)]
enum SessionKey {
    /// Keyed with the object auth of the last command verified, kept to
    /// match the next command's; `None` before the first command.
    Oiap(Option<(AuthData, Hmac<Sha1>)>),
    /// Keyed with the shared secret derived at session start.
    Osap(Hmac<Sha1>),
}

/// Computes the authorization HMAC over a command,
/// `HMAC(key, paramDigest ‖ nonceEven ‖ nonceOdd ‖ continueSession)`,
/// given an HMAC keyed with `key`.
pub fn auth_hmac(
    key: &Hmac<Sha1>,
    param_digest: &[u8; 20],
    nonce_even: &Nonce,
    nonce_odd: &Nonce,
    continue_session: bool,
) -> [u8; 20] {
    let mut h = key.clone();
    h.update(param_digest);
    h.update(nonce_even);
    h.update(nonce_odd);
    h.update(&[continue_session as u8]);
    let mut out = [0u8; 20];
    h.finalize_into(&mut out);
    out
}

/// Derives the OSAP shared secret:
/// `HMAC(authdata, nonceEvenOSAP ‖ nonceOddOSAP)`.
pub fn osap_shared_secret(
    auth: &AuthData,
    nonce_even_osap: &Nonce,
    nonce_odd_osap: &Nonce,
) -> AuthData {
    let mut h = Hmac::<Sha1>::new(auth);
    h.update(nonce_even_osap);
    h.update(nonce_odd_osap);
    let v = h.finalize();
    let mut out = [0u8; 20];
    out.copy_from_slice(&v);
    out
}

/// Client-side helper mirroring what the PAL's TPM Utilities do: track
/// nonces and produce per-command HMACs.
#[derive(Clone)]
pub struct ClientSession {
    kind: SessionKind,
    handle: u32,
    /// HMAC keyed with the session secret: the object auth for OIAP, the
    /// shared secret for OSAP.
    key: Hmac<Sha1>,
    nonce_even: Nonce,
}

impl std::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSession")
            .field("kind", &self.kind)
            .field("handle", &self.handle)
            .field("nonce_even", &self.nonce_even)
            .finish_non_exhaustive()
    }
}

impl ClientSession {
    pub(crate) fn new(kind: SessionKind, handle: u32, key: AuthData, nonce_even: Nonce) -> Self {
        ClientSession {
            kind,
            handle,
            key: Hmac::new(&key),
            nonce_even,
        }
    }

    /// The TPM-assigned session handle.
    pub fn handle(&self) -> u32 {
        self.handle
    }

    /// Session kind.
    pub fn kind(&self) -> SessionKind {
        self.kind
    }

    /// The current even nonce. Exposed so clients can derive their odd
    /// nonces deterministically from session state (handle ‖ nonceEven
    /// rolls every command) without drawing from the PAL's RNG, whose
    /// stream must not depend on auth traffic.
    pub fn nonce_even(&self) -> &Nonce {
        &self.nonce_even
    }

    /// Produces the authorization block for a command whose parameters hash
    /// to `param_digest`, generating a fresh odd nonce from `rng`.
    ///
    /// `continue_session` is the TPM 1.2 `continueAuthSession` flag: `true`
    /// keeps the session live for another command (the caller must then
    /// [`ClientSession::absorb_response`] the TPM's [`ResponseAuth`] to
    /// stay nonce-synchronized), `false` tells the TPM to evict the
    /// session with this command — the right choice for one-shot auths,
    /// where leaving the server half live would leak a table entry.
    pub fn authorize<R: CryptoRng + ?Sized>(
        &mut self,
        param_digest: &[u8; 20],
        rng: &mut R,
        continue_session: bool,
    ) -> CommandAuth {
        let mut nonce_odd = [0u8; 20];
        rng.fill_bytes(&mut nonce_odd);
        let hmac = auth_hmac(
            &self.key,
            param_digest,
            &self.nonce_even,
            &nonce_odd,
            continue_session,
        );
        CommandAuth {
            session_handle: self.handle,
            nonce_odd,
            continue_session,
            hmac,
        }
    }

    /// Rolls the even nonce after the TPM responds.
    pub fn roll_nonce(&mut self, new_even: Nonce) {
        self.nonce_even = new_even;
    }

    /// Verifies the TPM's response authorization for the command that sent
    /// `auth`, then rolls the even nonce so the next [`Self::authorize`]
    /// uses the fresh pair. Fails with [`TpmError::AuthFail`] if the
    /// response HMAC does not verify (a spoofed or replayed response, or a
    /// client already out of sync) — the session must then be abandoned.
    pub fn absorb_response(
        &mut self,
        param_digest: &[u8; 20],
        auth: &CommandAuth,
        response: &ResponseAuth,
    ) -> TpmResult<()> {
        let expected = auth_hmac(
            &self.key,
            param_digest,
            &response.nonce_even,
            &auth.nonce_odd,
            response.continue_session,
        );
        if !flicker_crypto::ct_eq(&expected, &response.hmac) {
            return Err(TpmError::AuthFail);
        }
        self.roll_nonce(response.nonce_even);
        Ok(())
    }
}

/// The authorization trailer a caller attaches to an authorized command.
#[derive(Debug, Clone)]
pub struct CommandAuth {
    /// Session this authorization belongs to.
    pub session_handle: u32,
    /// Caller-chosen nonce.
    pub nonce_odd: Nonce,
    /// Whether to keep the session alive after this command.
    pub continue_session: bool,
    /// `HMAC(key, paramDigest ‖ nonceEven ‖ nonceOdd ‖ continue)`.
    pub hmac: [u8; 20],
}

/// The authorization trailer the TPM attaches to the *response* of a
/// continued-session command: the fresh even nonce for the next command,
/// authenticated under the session key so the client can tell a genuine
/// roll from a spoofed one. This is the `nonceEven` plumbing that keeps
/// [`ClientSession::roll_nonce`] fed across a multi-command session.
#[derive(Debug, Clone)]
pub struct ResponseAuth {
    /// The TPM's next even nonce.
    pub nonce_even: Nonce,
    /// Echo of the command's `continueAuthSession` decision.
    pub continue_session: bool,
    /// `HMAC(key, paramDigest ‖ newNonceEven ‖ nonceOdd ‖ continue)`.
    pub hmac: [u8; 20],
}

impl AuthSession {
    /// An OIAP session, keyed by its first command.
    pub(crate) fn oiap(nonce_even: Nonce) -> Self {
        AuthSession {
            nonce_even,
            last_nonce_odd: None,
            key: SessionKey::Oiap(None),
        }
    }

    /// An OSAP session keyed with its `shared_secret`.
    pub(crate) fn osap(shared_secret: &AuthData, nonce_even: Nonce) -> Self {
        AuthSession {
            nonce_even,
            last_nonce_odd: None,
            key: SessionKey::Osap(Hmac::new(shared_secret)),
        }
    }

    /// Verifies a command authorization against this session; returns the
    /// keyed HMAC on success so response authentication can be computed.
    pub(crate) fn verify(
        &mut self,
        object_auth: &AuthData,
        param_digest: &[u8; 20],
        auth: &CommandAuth,
    ) -> TpmResult<&Hmac<Sha1>> {
        if self.last_nonce_odd.as_ref() == Some(&auth.nonce_odd) {
            // An odd nonce may never repeat within a session: a client
            // re-deriving the same nonce (e.g. re-seeding its generator
            // per retry) is indistinguishable from a replay.
            return Err(TpmError::AuthFail);
        }
        let key = match &mut self.key {
            SessionKey::Osap(key) => &*key,
            SessionKey::Oiap(last) => {
                let kept = last
                    .take()
                    .filter(|(last_auth, _)| flicker_crypto::ct_eq(last_auth, object_auth));
                &last
                    .insert(kept.unwrap_or_else(|| (*object_auth, Hmac::new(object_auth))))
                    .1
            }
        };
        let expected = auth_hmac(
            key,
            param_digest,
            &self.nonce_even,
            &auth.nonce_odd,
            auth.continue_session,
        );
        if flicker_crypto::ct_eq(&expected, &auth.hmac) {
            Ok(key)
        } else {
            Err(TpmError::AuthFail)
        }
    }
}

impl std::fmt::Debug for AuthSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.key {
            SessionKey::Oiap(_) => SessionKind::Oiap,
            SessionKey::Osap(_) => SessionKind::Osap,
        };
        f.debug_struct("AuthSession")
            .field("kind", &kind)
            .field("nonce_even", &self.nonce_even)
            .field("last_nonce_odd", &self.last_nonce_odd)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flicker_crypto::rng::XorShiftRng;

    fn nonce(b: u8) -> Nonce {
        [b; 20]
    }

    #[test]
    fn oiap_hmac_round_trip() {
        let auth: AuthData = [7; 20];
        let mut session = AuthSession::oiap(nonce(1));
        let mut client = ClientSession::new(SessionKind::Oiap, 0x100, auth, nonce(1));
        let mut rng = XorShiftRng::new(60);
        let pd = [9u8; 20];
        let ca = client.authorize(&pd, &mut rng, true);
        assert!(session.verify(&auth, &pd, &ca).is_ok());
    }

    #[test]
    fn wrong_secret_fails() {
        let auth: AuthData = [7; 20];
        let mut session = AuthSession::oiap(nonce(1));
        let mut client = ClientSession::new(SessionKind::Oiap, 0x100, [8; 20], nonce(1));
        let mut rng = XorShiftRng::new(61);
        let pd = [9u8; 20];
        let ca = client.authorize(&pd, &mut rng, true);
        assert_eq!(
            session.verify(&auth, &pd, &ca).err(),
            Some(TpmError::AuthFail)
        );
    }

    #[test]
    fn tampered_params_fail() {
        let auth: AuthData = [7; 20];
        let mut session = AuthSession::oiap(nonce(1));
        let mut client = ClientSession::new(SessionKind::Oiap, 0x100, auth, nonce(1));
        let mut rng = XorShiftRng::new(62);
        let ca = client.authorize(&[9u8; 20], &mut rng, true);
        assert_eq!(
            session.verify(&auth, &[10u8; 20], &ca).err(),
            Some(TpmError::AuthFail),
            "changing command parameters invalidates the HMAC"
        );
    }

    #[test]
    fn stale_nonce_fails() {
        // Replaying an authorization after the even nonce rolled must fail.
        let auth: AuthData = [7; 20];
        let mut client = ClientSession::new(SessionKind::Oiap, 0x100, auth, nonce(1));
        let mut rng = XorShiftRng::new(63);
        let pd = [9u8; 20];
        let ca = client.authorize(&pd, &mut rng, true);
        let mut rolled = AuthSession::oiap(nonce(2));
        assert_eq!(
            rolled.verify(&auth, &pd, &ca).err(),
            Some(TpmError::AuthFail)
        );
    }

    #[test]
    fn osap_uses_shared_secret_not_raw_auth() {
        let auth: AuthData = [3; 20];
        let ne_osap = nonce(0xA);
        let no_osap = nonce(0xB);
        let shared = osap_shared_secret(&auth, &ne_osap, &no_osap);
        assert_ne!(shared, auth);

        let mut session = AuthSession::osap(&shared, nonce(1));
        let mut client = ClientSession::new(SessionKind::Osap, 0x200, shared, nonce(1));
        let mut rng = XorShiftRng::new(64);
        let pd = [5u8; 20];
        let ca = client.authorize(&pd, &mut rng, true);
        assert!(session.verify(&auth, &pd, &ca).is_ok());

        // A client that (incorrectly) HMACs with the raw authdata fails.
        let mut raw_client = ClientSession::new(SessionKind::Osap, 0x200, auth, nonce(1));
        let ca = raw_client.authorize(&pd, &mut rng, true);
        assert_eq!(
            session.verify(&auth, &pd, &ca).err(),
            Some(TpmError::AuthFail)
        );
    }

    #[test]
    fn response_auth_round_trip_rolls_nonce() {
        let auth: AuthData = [7; 20];
        let mut session = AuthSession::oiap(nonce(1));
        let mut client = ClientSession::new(SessionKind::Oiap, 0x100, auth, nonce(1));
        let mut rng = XorShiftRng::new(65);
        let pd = [9u8; 20];
        let ca = client.authorize(&pd, &mut rng, true);
        let key = session.verify(&auth, &pd, &ca).unwrap();
        let hmac = auth_hmac(key, &pd, &nonce(2), &ca.nonce_odd, true);

        // TPM side: record the odd nonce, roll the even, answer.
        session.last_nonce_odd = Some(ca.nonce_odd);
        session.nonce_even = nonce(2);
        let resp = ResponseAuth {
            nonce_even: nonce(2),
            continue_session: true,
            hmac,
        };
        client.absorb_response(&pd, &ca, &resp).unwrap();

        // The next command authorizes under the rolled pair.
        let ca2 = client.authorize(&pd, &mut rng, true);
        assert!(session.verify(&auth, &pd, &ca2).is_ok());
    }

    #[test]
    fn spoofed_response_auth_rejected_and_nonce_not_rolled() {
        let auth: AuthData = [7; 20];
        let mut client = ClientSession::new(SessionKind::Oiap, 0x100, auth, nonce(1));
        let mut rng = XorShiftRng::new(66);
        let pd = [9u8; 20];
        let ca = client.authorize(&pd, &mut rng, true);
        let resp = ResponseAuth {
            nonce_even: nonce(2),
            continue_session: true,
            hmac: [0xEE; 20],
        };
        assert_eq!(
            client.absorb_response(&pd, &ca, &resp),
            Err(TpmError::AuthFail)
        );
        // Client nonce is unchanged: a genuine response under the original
        // even nonce still verifies.
        let mut session = AuthSession::oiap(nonce(1));
        let ca2 = client.authorize(&pd, &mut rng, true);
        assert!(session.verify(&auth, &pd, &ca2).is_ok());
    }

    #[test]
    fn repeated_odd_nonce_rejected() {
        // The per-retry nonce-reuse bug: identical nonce_odd on a session
        // that has already accepted it must fail, even with a valid HMAC.
        let auth: AuthData = [7; 20];
        let mut client = ClientSession::new(SessionKind::Oiap, 0x100, auth, nonce(1));
        let mut rng = XorShiftRng::new(67);
        let pd = [9u8; 20];
        let ca = client.authorize(&pd, &mut rng, true);
        let mut session = AuthSession::oiap(nonce(1));
        session.last_nonce_odd = Some(ca.nonce_odd);
        assert_eq!(
            session.verify(&auth, &pd, &ca).err(),
            Some(TpmError::AuthFail)
        );
    }

    #[test]
    fn oiap_rekeys_when_the_object_auth_changes() {
        // One OIAP session authorizes commands on objects with different
        // auths: the key the TPM half keeps must follow the object, so A's
        // auth never authorizes a command on B.
        let (a, b): (AuthData, AuthData) = ([7; 20], [8; 20]);
        let mut session = AuthSession::oiap(nonce(1));
        let mut clients = [a, b].map(|k| ClientSession::new(SessionKind::Oiap, 0x100, k, nonce(1)));
        let mut rng = XorShiftRng::new(69);
        let pd = [9u8; 20];
        // (object auth, client holding a's or b's auth, verifies)
        for (object, client, ok) in [
            (a, 0, true),
            (b, 0, false),
            (b, 1, true),
            (a, 1, false),
            (a, 0, true),
        ] {
            let ca = clients[client].authorize(&pd, &mut rng, true);
            assert_eq!(session.verify(&object, &pd, &ca).is_ok(), ok);
        }
    }

    #[test]
    fn keyed_auth_hmac_matches_the_one_shot_mac() {
        let mut rng = XorShiftRng::new(68);
        for _ in 0..32 {
            let mut fields = [[0u8; 20]; 4];
            fields.iter_mut().for_each(|f| rng.fill_bytes(f));
            let [key, pd, even, odd] = fields;
            let keyed = Hmac::<Sha1>::new(&key);
            for continue_session in [false, true] {
                let message = [&pd[..], &even, &odd, &[continue_session as u8]].concat();
                assert_eq!(
                    auth_hmac(&keyed, &pd, &even, &odd, continue_session).to_vec(),
                    Hmac::<Sha1>::mac(&key, &message)
                );
            }
        }
    }

    #[test]
    fn debug_prints_no_secret() {
        let auth: AuthData = [0x5A; 20];
        let shared = osap_shared_secret(&auth, &nonce(0xA), &nonce(0xB));
        let printed = [
            format!(
                "{:?}",
                ClientSession::new(SessionKind::Osap, 0x200, shared, nonce(1))
            ),
            format!("{:?}", AuthSession::osap(&shared, nonce(1))),
        ];
        for text in printed {
            assert!(text.contains("Osap"), "{text}");
            for secret in [auth, shared] {
                assert!(!text.contains(&format!("{secret:?}")), "{text}");
                let hex = flicker_crypto::hex::encode(&secret);
                assert!(!text.to_lowercase().contains(&hex), "{text}");
            }
        }
    }

    #[test]
    fn shared_secret_depends_on_both_nonces() {
        let auth: AuthData = [3; 20];
        let a = osap_shared_secret(&auth, &nonce(1), &nonce(2));
        let b = osap_shared_secret(&auth, &nonce(1), &nonce(3));
        let c = osap_shared_secret(&auth, &nonce(4), &nonce(2));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
