//! The top-level software TPM: command surface, key slots, time accounting.

use crate::auth::{
    auth_hmac, osap_shared_secret, AuthData, AuthSession, ClientSession, CommandAuth, Nonce,
    ResponseAuth, SessionKind,
};
use crate::counter::Counters;
use crate::error::{TpmError, TpmResult};
use crate::keys::{key_digest, AikCertificate, PrivacyCa, TpmKey, KH_AIK_BASE, KH_SRK};
use crate::nv::{NvPcrPolicy, NvStorage};
use crate::pcr::{PcrBank, PcrSelection, PcrValue, LOCALITY_HW};
use crate::quote::{sign_quote, TpmQuote};
use crate::seal::{digest_at_release_for, pcrs_satisfy, SealedBlob, StorageRoot};
use crate::timing::TpmTimingProfile;
use flicker_crypto::digest::Digest;
use flicker_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use flicker_crypto::sha1::{sha1, Sha1};
use flicker_crypto::HmacDrbg;
use flicker_faults::{fired, FaultInjector};
use flicker_trace::{EventKind, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Upper bound on concurrently open authorization sessions. Real v1.2
/// chips expose a handful of session slots (the spec minimum is 3; common
/// parts have ~16) and evict via `TPM_SaveContext` pressure; we model the
/// bound directly by evicting the oldest session. A correct client is
/// never bitten by this — it either continues a session (keeping it busy)
/// or closes it with `continue_session = false` — but a leaky client now
/// sees `InvalidAuthHandle` instead of unbounded table growth.
pub const MAX_AUTH_SESSIONS: usize = 16;

/// Configuration for manufacturing a [`Tpm`].
#[derive(Debug, Clone)]
pub struct TpmConfig {
    /// RSA modulus size for EK/SRK/AIK keys. The spec mandates 2048; tests
    /// may use smaller keys to keep key generation fast. Security of the
    /// *simulation* does not depend on this (the simulated TPM boundary
    /// does), so it is a speed knob only.
    pub key_bits: usize,
    /// Latency model for command costs.
    pub timing: TpmTimingProfile,
    /// Owner authorization data installed at `TakeOwnership`.
    pub owner_auth: AuthData,
    /// Seed for the TPM's internal DRBG (models the hardware entropy
    /// source; fix it for reproducible experiments).
    pub entropy_seed: [u8; 32],
}

impl Default for TpmConfig {
    fn default() -> Self {
        TpmConfig {
            key_bits: 2048,
            timing: TpmTimingProfile::default(),
            owner_auth: [0u8; 20],
            entropy_seed: [0x42; 32],
        }
    }
}

impl TpmConfig {
    /// A fast configuration for unit tests: 512-bit keys, Broadcom timing.
    pub fn fast_for_tests(seed: u8) -> Self {
        TpmConfig {
            key_bits: 512,
            entropy_seed: [seed; 32],
            ..TpmConfig::default()
        }
    }
}

/// A software TPM v1.2 exposing the command subset Flicker uses.
///
/// All commands charge simulated time to an internal accumulator; the
/// platform (machine/OS simulator) drains it with [`Tpm::take_elapsed`] and
/// advances its clock accordingly. This keeps the TPM reusable under any
/// clock discipline.
pub struct Tpm {
    config: TpmConfig,
    pcrs: PcrBank,
    drbg: HmacDrbg,
    storage_root: StorageRoot,
    ek: TpmKey,
    srk: Option<TpmKey>,
    aiks: BTreeMap<u32, TpmKey>,
    next_aik_handle: u32,
    nv: NvStorage,
    counters: Counters,
    sessions: BTreeMap<u32, AuthSession>,
    /// Monotonic across the TPM's whole life, *including* reboots: a shard
    /// recovering from power loss may still hold pre-reboot client session
    /// halves, and handle reuse would let its stale HMACs alias a fresh
    /// session. Stale handles must resolve to `InvalidAuthHandle`, never to
    /// somebody else's session.
    next_session_handle: u32,
    /// CTR nonce for the next `TPM_Seal`. Like `next_session_handle` it
    /// survives reboots, so no two blobs under the storage root ever share
    /// a keystream, and it draws nothing from `drbg`.
    next_seal_nonce: u64,
    /// DRBG dedicated to session nonces. Separate from the main `drbg` so
    /// how many sessions a client opens (one per command, or one parked
    /// across commands) does not shift the `TPM_GetRandom` stream PAL
    /// outputs are derived from.
    session_drbg: HmacDrbg,
    /// Response authorization produced by the most recent continued-session
    /// command, awaiting pickup via [`Tpm::take_response_auth`].
    pending_response_auth: Option<ResponseAuth>,
    /// Key handles currently loaded in TPM key slots (§7.6 warm streak:
    /// `load_key` is charged once per streak, not once per quote).
    loaded_keys: BTreeSet<u32>,
    elapsed: Duration,
    injector: Option<FaultInjector>,
    tracer: Option<Trace>,
    pending_events: Vec<EventKind>,
}

impl Tpm {
    /// Manufactures a TPM: generates the EK, derives the storage root, and
    /// initializes PCRs to the reboot state.
    pub fn manufacture(config: TpmConfig) -> Self {
        let mut drbg = HmacDrbg::new(&config.entropy_seed, b"tpm-manufacture");
        let session_drbg = HmacDrbg::new(&config.entropy_seed, b"tpm-sessions");
        let (ek_key, _) = RsaPrivateKey::generate(config.key_bits, &mut drbg);
        let mut enc_key = [0u8; 16];
        drbg.generate(&mut enc_key);
        let mut mac_key = [0u8; 20];
        drbg.generate(&mut mac_key);
        Tpm {
            config,
            pcrs: PcrBank::at_reboot(),
            drbg,
            storage_root: StorageRoot::new(enc_key, mac_key),
            ek: TpmKey { private: ek_key },
            srk: None,
            aiks: BTreeMap::new(),
            next_aik_handle: KH_AIK_BASE,
            nv: NvStorage::default(),
            counters: Counters::default(),
            sessions: BTreeMap::new(),
            next_session_handle: 0x0200_0000,
            next_seal_nonce: 0,
            session_drbg,
            pending_response_auth: None,
            loaded_keys: BTreeSet::new(),
            elapsed: Duration::ZERO,
            injector: None,
            tracer: None,
            pending_events: Vec::new(),
        }
    }

    /// Manufactures a TPM, takes ownership, and registers the EK with
    /// `privacy_ca` — the state a deployed platform is in.
    pub fn provisioned(config: TpmConfig, privacy_ca: &mut PrivacyCa) -> Self {
        let mut tpm = Self::manufacture(config);
        tpm.take_ownership();
        privacy_ca.register_ek(tpm.ek_public().clone());
        tpm
    }

    // ----- platform lifecycle -------------------------------------------

    /// Simulates a platform reboot: static PCRs to 0, dynamic PCRs to −1,
    /// sessions flushed, loaded key slots flushed, counter latch cleared.
    /// NV and persistent keys survive. `next_session_handle` deliberately
    /// does *not* reset (see the field doc): a recovering client holding a
    /// pre-reboot session half gets `InvalidAuthHandle`, never a collision
    /// with a session opened after the reboot. Nor does `next_seal_nonce`.
    pub fn reboot(&mut self) {
        self.pcrs = PcrBank::at_reboot();
        self.sessions.clear();
        self.pending_response_auth = None;
        if !self.loaded_keys.is_empty() {
            if let Some(t) = &self.tracer {
                t.counter_add("warm.invalidate", 1);
            }
        }
        self.loaded_keys.clear();
        self.counters.on_reboot();
    }

    /// Installs the SRK (models `TPM_TakeOwnership`).
    pub fn take_ownership(&mut self) {
        let (srk, _) = RsaPrivateKey::generate(self.config.key_bits, &mut self.drbg);
        self.srk = Some(TpmKey { private: srk });
    }

    /// Drains the simulated time consumed by commands since the last call.
    pub fn take_elapsed(&mut self) -> Duration {
        std::mem::take(&mut self.elapsed)
    }

    /// The timing profile in force.
    pub fn timing(&self) -> &TpmTimingProfile {
        &self.config.timing
    }

    fn charge(&mut self, d: Duration) {
        self.elapsed += d;
    }

    /// Charges `d` for `ordinal` (the command's spec name, e.g.
    /// `TPM_Seal`) and, when a tracer is installed, pends a `TpmCommand`
    /// flight-recorder event carrying it. Every ordinal-gated command
    /// funnels its cost through here, so the recorder's `tpm.<ordinal>`
    /// histograms, folded from those events, see the complete per-command
    /// latency picture.
    fn charge_traced(&mut self, ordinal: &'static str, d: Duration) {
        self.elapsed += d;
        if self.tracer.is_some() {
            self.pending_events.push(EventKind::TpmCommand {
                ordinal: ordinal.to_string(),
                locality: 0,
                dur_ns: u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }

    /// Queues a flight-recorder event. The TPM has no clock (it sits below
    /// `machine` in the crate stack), so events wait here untimestamped;
    /// the platform drains them via [`Tpm::take_pending_events`] right
    /// after it advances its clock by [`Tpm::take_elapsed`], stamping each
    /// with the command's completion time. No tracer, no queue: without a
    /// drain loop the buffer would otherwise grow unbounded.
    fn pend(&mut self, kind: EventKind) {
        if self.tracer.is_some() {
            self.pending_events.push(kind);
        }
    }

    /// Drains flight-recorder events pended since the last call. The
    /// caller (the machine simulator) owns the clock and is responsible
    /// for recording them with a timestamp.
    pub fn take_pending_events(&mut self) -> Vec<EventKind> {
        std::mem::take(&mut self.pending_events)
    }

    // ----- tracing --------------------------------------------------------

    /// Installs a trace recorder; subsequent commands pend flight-recorder
    /// events for the platform to record into it.
    pub fn set_tracer(&mut self, tracer: Trace) {
        self.tracer = Some(tracer);
    }

    /// Removes any installed trace recorder.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    // ----- fault injection ------------------------------------------------

    /// Installs a fault injector; subsequent commands consult its gates.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Removes any installed fault injector.
    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// Transient-busy gate, consulted at the head of every Result-returning
    /// command. When it fires, the command has no effect beyond a short
    /// busy-poll charge and the caller sees `TPM_E_RETRY`.
    fn gate(&mut self, command: &'static str) -> TpmResult<()> {
        if let Some(inj) = &self.injector {
            if inj.tpm_command_gate(command) {
                let cost = self.config.timing.pcr_read;
                self.charge(cost);
                self.pend(EventKind::FaultInjected {
                    fault: fired::TPM_TRANSIENT.to_string(),
                });
                return Err(TpmError::Retry);
            }
        }
        Ok(())
    }

    // ----- key material --------------------------------------------------

    /// The endorsement public key.
    pub fn ek_public(&self) -> &RsaPublicKey {
        self.ek.public()
    }

    /// Generates an AIK inside the TPM (`TPM_MakeIdentity`) and obtains a
    /// certificate from `privacy_ca`. Returns the loaded key handle and
    /// the certificate.
    pub fn make_identity(
        &mut self,
        privacy_ca: &PrivacyCa,
        label: &str,
    ) -> TpmResult<(u32, AikCertificate)> {
        if self.srk.is_none() {
            return Err(TpmError::NoSrk);
        }
        let (aik, _) = RsaPrivateKey::generate(self.config.key_bits, &mut self.drbg);
        let cert = privacy_ca
            .certify_aik(self.ek.public(), aik.public_key(), label)
            .map_err(|_| TpmError::BadParameter("EK not registered with Privacy CA"))?;
        let handle = self.next_aik_handle;
        self.next_aik_handle += 1;
        self.aiks.insert(handle, TpmKey { private: aik });
        // The fresh identity key starts loaded; it stays warm until the
        // next reboot flushes the key slots.
        self.loaded_keys.insert(handle);
        let load_cost = self.config.timing.load_key;
        self.charge_traced("TPM_MakeIdentity", load_cost);
        Ok((handle, cert))
    }

    /// SHA-1 fingerprint of a loaded AIK's public key.
    pub fn aik_digest(&self, handle: u32) -> TpmResult<[u8; 20]> {
        self.aiks
            .get(&handle)
            .map(|k| key_digest(k.public()))
            .ok_or(TpmError::InvalidKeyHandle(handle))
    }

    // ----- PCR commands --------------------------------------------------

    /// `TPM_PCRRead`.
    pub fn pcr_read(&mut self, index: u32) -> TpmResult<PcrValue> {
        self.gate("TPM_PCRRead")?;
        let cost = self.config.timing.pcr_read;
        self.charge_traced("TPM_PCRRead", cost);
        self.pcrs.read(index)
    }

    /// `TPM_Extend`.
    pub fn pcr_extend(&mut self, index: u32, measurement: &[u8; 20]) -> TpmResult<PcrValue> {
        self.gate("TPM_Extend")?;
        let cost = self.config.timing.pcr_extend;
        self.charge_traced("TPM_Extend", cost);
        let value = self.pcrs.extend(index, measurement)?;
        self.pend(EventKind::PcrExtend { index, locality: 0 });
        Ok(value)
    }

    /// The locality-4 dynamic-launch path driven by `SKINIT` (paper §2.4):
    /// resets PCRs 17–23 to zero, measures the SLB bytes, and extends the
    /// measurement into PCR 17. Returns the measurement.
    ///
    /// Only the CPU may invoke this; the machine simulator enforces that by
    /// being the only caller that can present locality 4.
    pub fn skinit_measure(&mut self, locality: u8, slb: &[u8]) -> TpmResult<[u8; 20]> {
        self.skinit_measure_with_hint(locality, slb, None)
    }

    /// [`Tpm::skinit_measure`] with an optional precomputed SLB digest.
    ///
    /// The hint is a *simulator* shortcut, not a trust decision: the
    /// machine's measurement memo keys SHA-1 by the exact image bytes it
    /// hands us, so passing the memoized digest skips redundant host-side
    /// hashing work while the simulated PCR-17 chain (reset, extend,
    /// charged SKINIT transfer cost) is identical either way. A real chip
    /// has no such entry point — callers outside the machine simulator
    /// should use [`Tpm::skinit_measure`].
    pub fn skinit_measure_with_hint(
        &mut self,
        locality: u8,
        slb: &[u8],
        known_digest: Option<[u8; 20]>,
    ) -> TpmResult<[u8; 20]> {
        if locality != LOCALITY_HW {
            return Err(TpmError::BadLocality {
                required: LOCALITY_HW,
                actual: locality,
            });
        }
        self.pcrs.dynamic_reset(locality)?;
        self.pend(EventKind::PcrReset {
            index: crate::pcr::PCR_SKINIT,
            locality,
        });
        let measurement = known_digest.unwrap_or_else(|| sha1(slb));
        debug_assert_eq!(measurement, sha1(slb), "hint must match the bytes");
        // No separate charge: the TPM-side hashing latency is part of the
        // platform's calibrated SKINIT transfer model (Table 2), which the
        // machine applies around this call.
        self.pcrs.extend(crate::pcr::PCR_SKINIT, &measurement)?;
        self.pend(EventKind::PcrExtend {
            index: crate::pcr::PCR_SKINIT,
            locality,
        });
        Ok(measurement)
    }

    /// Read-only view of the PCR bank (for the verifier-side test harness;
    /// a real platform reads PCRs via `pcr_read`).
    pub fn pcrs(&self) -> &PcrBank {
        &self.pcrs
    }

    // ----- randomness -----------------------------------------------------

    /// `TPM_GetRandom`.
    pub fn get_random(&mut self, n: usize) -> Vec<u8> {
        let cost = self.config.timing.get_random(n);
        self.charge_traced("TPM_GetRandom", cost);
        let mut out = vec![0u8; n];
        self.drbg.generate(&mut out);
        out
    }

    // ----- authorization sessions ----------------------------------------

    /// `TPM_OIAP`: starts an object-independent session. The returned
    /// [`ClientSession`] is the caller-side state (keyed by the object's
    /// authdata, which the caller must know).
    pub fn oiap(&mut self, object_auth: AuthData) -> ClientSession {
        let cost = self.config.timing.session_start;
        self.charge_traced("TPM_OIAP", cost);
        let nonce_even = fresh_nonce(&mut self.session_drbg);
        let handle = self.next_session_handle;
        self.next_session_handle += 1;
        self.insert_session(handle, AuthSession::oiap(nonce_even));
        ClientSession::new(SessionKind::Oiap, handle, object_auth, nonce_even)
    }

    /// `TPM_OSAP`: starts an object-specific session bound to `object_auth`
    /// via the derived shared secret.
    pub fn osap(&mut self, object_auth: AuthData, nonce_odd_osap: Nonce) -> ClientSession {
        let cost = self.config.timing.session_start;
        self.charge_traced("TPM_OSAP", cost);
        let nonce_even = fresh_nonce(&mut self.session_drbg);
        let nonce_even_osap = fresh_nonce(&mut self.session_drbg);
        let shared = osap_shared_secret(&object_auth, &nonce_even_osap, &nonce_odd_osap);
        let handle = self.next_session_handle;
        self.next_session_handle += 1;
        self.insert_session(handle, AuthSession::osap(&shared, nonce_even));
        ClientSession::new(SessionKind::Osap, handle, shared, nonce_even)
    }

    /// Inserts a session, evicting the oldest (lowest handle — handles are
    /// monotonic) when the table is at [`MAX_AUTH_SESSIONS`].
    fn insert_session(&mut self, handle: u32, session: AuthSession) {
        while self.sessions.len() >= MAX_AUTH_SESSIONS {
            let oldest = *self.sessions.keys().next().expect("non-empty");
            self.sessions.remove(&oldest);
            if let Some(t) = &self.tracer {
                t.counter_add("tpm.session_evicted", 1);
            }
        }
        self.sessions.insert(handle, session);
    }

    /// `TPM_Terminate_Handle`: drops a session without running a command on
    /// it. Ungated and uncharged — it is a pure table operation that must
    /// succeed even while the chip reports busy, or cleanup paths would
    /// leak the very sessions they exist to close. Unknown handles are
    /// ignored (already evicted, or flushed by a reboot).
    pub fn terminate_handle(&mut self, handle: u32) {
        self.sessions.remove(&handle);
    }

    /// Number of live server-side authorization sessions. Regression
    /// surface for the session-table leak: a well-behaved client keeps
    /// at most one, the session it parks between commands.
    pub fn open_session_count(&self) -> usize {
        self.sessions.len()
    }

    fn verify_auth(
        &mut self,
        object_auth: &AuthData,
        param_digest: &[u8; 20],
        auth: &CommandAuth,
    ) -> TpmResult<()> {
        self.pending_response_auth = None;
        let session = self
            .sessions
            .get_mut(&auth.session_handle)
            .ok_or(TpmError::InvalidAuthHandle(auth.session_handle))?;
        match session.verify(object_auth, param_digest, auth) {
            Err(e) => {
                self.sessions.remove(&auth.session_handle);
                Err(e)
            }
            Ok(key) if auth.continue_session => {
                // Roll the even nonce, remember the odd one (anti-replay),
                // and leave a response authorization so the client can roll
                // in lockstep.
                let new_even = fresh_nonce(&mut self.session_drbg);
                let hmac = auth_hmac(key, param_digest, &new_even, &auth.nonce_odd, true);
                session.nonce_even = new_even;
                session.last_nonce_odd = Some(auth.nonce_odd);
                self.pending_response_auth = Some(ResponseAuth {
                    nonce_even: new_even,
                    continue_session: true,
                    hmac,
                });
                Ok(())
            }
            Ok(_) => {
                // One-shot authorization: the session ends with the command
                // (this eviction is what bounds the table under the
                // seal/unseal-per-request workload).
                self.sessions.remove(&auth.session_handle);
                Ok(())
            }
        }
    }

    /// Drains the response authorization pended by the most recent
    /// continued-session command, if any. Mirrors the
    /// [`Tpm::take_pending_events`] idiom: the transport (machine
    /// simulator) delivers it to the client, which must
    /// [`ClientSession::absorb_response`] it to stay nonce-synchronized.
    /// Commands that fail *after* authorization (e.g. `TPM_Unseal` against
    /// wrong PCRs) still roll the session, so callers must drain this on
    /// every attempt, not only on success.
    pub fn take_response_auth(&mut self) -> Option<ResponseAuth> {
        self.pending_response_auth.take()
    }

    // ----- sealed storage --------------------------------------------------

    /// `TPM_Seal`: seals `data` under the *current* values of `selection`.
    pub fn seal(
        &mut self,
        data: &[u8],
        selection: &PcrSelection,
        blob_auth: &AuthData,
        auth: &CommandAuth,
    ) -> TpmResult<SealedBlob> {
        let digest = if selection.is_empty() {
            [0u8; 20]
        } else {
            self.pcrs.composite_hash(selection)?
        };
        self.seal_with_digest(data, selection, digest, blob_auth, auth)
    }

    /// `TPM_Seal` with an explicit `digestAtRelease` — how a PAL seals data
    /// for a *different future* PAL (paper §4.3.1: specify that PCR 17 must
    /// have `V = H(0x0020 ‖ H(P'))`).
    pub fn seal_for_future(
        &mut self,
        data: &[u8],
        selection: &PcrSelection,
        release_values: &[PcrValue],
        blob_auth: &AuthData,
        auth: &CommandAuth,
    ) -> TpmResult<SealedBlob> {
        if release_values.len() != selection.indices().len() {
            return Err(TpmError::BadParameter("one value per selected PCR"));
        }
        let digest = digest_at_release_for(selection, release_values);
        self.seal_with_digest(data, selection, digest, blob_auth, auth)
    }

    fn seal_with_digest(
        &mut self,
        data: &[u8],
        selection: &PcrSelection,
        digest: [u8; 20],
        blob_auth: &AuthData,
        auth: &CommandAuth,
    ) -> TpmResult<SealedBlob> {
        self.gate("TPM_Seal")?;
        if self.srk.is_none() {
            return Err(TpmError::NoSrk);
        }
        let param_digest = Self::param_digest(&[b"TPM_Seal", data, &selection.encode(), &digest]);
        self.verify_auth(&self.srk_auth(), &param_digest, auth)?;
        let nonce = self.next_seal_nonce.to_be_bytes();
        self.next_seal_nonce += 1;
        let blob = self
            .storage_root
            .seal(data, selection, digest, blob_auth, nonce);
        let cost = self.config.timing.seal;
        self.charge_traced("TPM_Seal", cost);
        Ok(blob)
    }

    /// `TPM_Unseal`: releases the data iff the PCR policy holds and the
    /// caller authorizes with the blob's auth secret.
    pub fn unseal(&mut self, blob: &SealedBlob, auth: &CommandAuth) -> TpmResult<Vec<u8>> {
        self.gate("TPM_Unseal")?;
        if self.srk.is_none() {
            return Err(TpmError::NoSrk);
        }
        let cost = self.config.timing.unseal;
        self.charge_traced("TPM_Unseal", cost);
        let (selection, digest_at_release, blob_auth, data) = self.storage_root.open(blob)?;
        let param_digest = Self::param_digest(&[b"TPM_Unseal", blob.as_bytes()]);
        self.verify_auth(&blob_auth, &param_digest, auth)?;
        if !pcrs_satisfy(&self.pcrs, &selection, &digest_at_release)? {
            return Err(TpmError::WrongPcrVal);
        }
        Ok(data)
    }

    /// The canonical parameter digest for authorized commands:
    /// `SHA-1(field₀ ‖ field₁ ‖ …)`.
    pub fn param_digest(fields: &[&[u8]]) -> [u8; 20] {
        let mut h = Sha1::new();
        for f in fields {
            h.update(f);
        }
        let d = h.finalize();
        let mut out = [0u8; 20];
        out.copy_from_slice(&d);
        out
    }

    fn srk_auth(&self) -> AuthData {
        // The SRK uses well-known auth in this platform (standard TrouSerS
        // deployment choice); per-blob auth provides the real secrecy.
        crate::auth::WELL_KNOWN_AUTH
    }

    // ----- quote ------------------------------------------------------------

    /// `TPM_Quote` over `selection` with the verifier's `nonce`.
    ///
    /// Charges `load_key` (as `TPM_LoadKey2`) only when the AIK is not
    /// already in a key slot — §7.6's warm streak: back-to-back quotes on
    /// the same shard pay the load once, and a reboot flushes the slots.
    pub fn quote(
        &mut self,
        aik_handle: u32,
        nonce: [u8; 20],
        selection: &PcrSelection,
    ) -> TpmResult<TpmQuote> {
        self.gate("TPM_Quote")?;
        if !self.aiks.contains_key(&aik_handle) {
            return Err(TpmError::InvalidKeyHandle(aik_handle));
        }
        if self.loaded_keys.insert(aik_handle) {
            let load_cost = self.config.timing.load_key;
            self.charge_traced("TPM_LoadKey2", load_cost);
            if let Some(t) = &self.tracer {
                t.counter_add("warm.miss", 1);
            }
        } else if let Some(t) = &self.tracer {
            t.counter_add("warm.hit", 1);
        }
        let aik = self
            .aiks
            .get(&aik_handle)
            .ok_or(TpmError::InvalidKeyHandle(aik_handle))?;
        let values: Vec<PcrValue> = selection
            .indices()
            .iter()
            .map(|&i| self.pcrs.read(i))
            .collect::<TpmResult<_>>()?;
        let q = sign_quote(&aik.private, selection.clone(), values, nonce)
            .map_err(|_| TpmError::BadParameter("quote signing failed"))?;
        let cost = self.config.timing.quote;
        self.charge_traced("TPM_Quote", cost);
        Ok(q)
    }

    // ----- NV storage ---------------------------------------------------------

    /// `TPM_NV_DefineSpace`, authorized by the owner auth (paper §4.3.2).
    pub fn nv_define_space(
        &mut self,
        index: u32,
        size: usize,
        policy: Option<NvPcrPolicy>,
        presented_owner_auth: &AuthData,
    ) -> TpmResult<()> {
        self.gate("TPM_NV_DefineSpace")?;
        if !flicker_crypto::ct_eq(presented_owner_auth, &self.config.owner_auth) {
            return Err(TpmError::AuthFail);
        }
        self.nv.define(index, size, policy);
        let cost = self.config.timing.nv_op;
        self.charge_traced("TPM_NV_DefineSpace", cost);
        Ok(())
    }

    /// `TPM_NV_ReadValue`.
    pub fn nv_read(&mut self, index: u32) -> TpmResult<Vec<u8>> {
        self.gate("TPM_NV_ReadValue")?;
        let cost = self.config.timing.nv_op;
        self.charge_traced("TPM_NV_ReadValue", cost);
        self.nv.read(index, &self.pcrs)
    }

    /// `TPM_NV_WriteValue`.
    ///
    /// Under an armed torn-write fault, only a prefix of `data` reaches the
    /// NV cells before the command fails — the power-dropped-mid-write case
    /// that crash-consistent layouts above must tolerate.
    pub fn nv_write(&mut self, index: u32, offset: usize, data: &[u8]) -> TpmResult<()> {
        self.gate("TPM_NV_WriteValue")?;
        let cost = self.config.timing.nv_op;
        self.charge_traced("TPM_NV_WriteValue", cost);
        if let Some(keep) = self
            .injector
            .as_ref()
            .and_then(|inj| inj.torn_nv_write(data.len()))
        {
            self.pend(EventKind::FaultInjected {
                fault: fired::TORN_NV_WRITE.to_string(),
            });
            self.nv.write(index, offset, &data[..keep], &self.pcrs)?;
            return Err(TpmError::Retry);
        }
        self.nv.write(index, offset, data, &self.pcrs)
    }

    /// True if an NV index is defined.
    pub fn nv_is_defined(&self, index: u32) -> bool {
        self.nv.is_defined(index)
    }

    // ----- monotonic counters ---------------------------------------------------

    /// `TPM_CreateCounter`.
    pub fn create_counter(&mut self) -> (u32, u64) {
        let cost = self.config.timing.counter_op;
        self.charge_traced("TPM_CreateCounter", cost);
        self.counters.create()
    }

    /// `TPM_IncrementCounter`.
    pub fn increment_counter(&mut self, id: u32) -> TpmResult<u64> {
        self.gate("TPM_IncrementCounter")?;
        let cost = self.config.timing.counter_op;
        self.charge_traced("TPM_IncrementCounter", cost);
        self.counters.increment(id)
    }

    /// `TPM_ReadCounter`.
    pub fn read_counter(&mut self, id: u32) -> TpmResult<u64> {
        self.gate("TPM_ReadCounter")?;
        let cost = self.config.timing.counter_op;
        self.charge_traced("TPM_ReadCounter", cost);
        self.counters.read(id)
    }

    /// The SRK handle constant, for callers that log key provenance.
    pub fn srk_handle(&self) -> u32 {
        KH_SRK
    }
}

/// Draws a session nonce from the TPM's session DRBG.
fn fresh_nonce(session_drbg: &mut HmacDrbg) -> Nonce {
    let mut n = [0u8; 20];
    session_drbg.generate(&mut n);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use flicker_crypto::rng::XorShiftRng;

    fn tpm() -> Tpm {
        let mut t = Tpm::manufacture(TpmConfig::fast_for_tests(1));
        t.take_ownership();
        t
    }

    fn authorize_seal(
        tpm: &mut Tpm,
        data: &[u8],
        sel: &PcrSelection,
        blob_auth: AuthData,
    ) -> SealedBlob {
        let digest = if sel.is_empty() {
            [0u8; 20]
        } else {
            tpm.pcrs().composite_hash(sel).unwrap()
        };
        let pd = Tpm::param_digest(&[b"TPM_Seal", data, &sel.encode(), &digest]);
        let mut session = tpm.oiap(crate::auth::WELL_KNOWN_AUTH);
        let mut rng = XorShiftRng::new(80);
        let ca = session.authorize(&pd, &mut rng, false);
        tpm.seal(data, sel, &blob_auth, &ca).unwrap()
    }

    fn authorize_unseal(
        tpm: &mut Tpm,
        blob: &SealedBlob,
        blob_auth: AuthData,
    ) -> TpmResult<Vec<u8>> {
        let pd = Tpm::param_digest(&[b"TPM_Unseal", blob.as_bytes()]);
        let mut session = tpm.oiap(blob_auth);
        let mut rng = XorShiftRng::new(81);
        let ca = session.authorize(&pd, &mut rng, false);
        tpm.unseal(blob, &ca)
    }

    #[test]
    fn seal_unseal_round_trip_same_pcrs() {
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        let blob = authorize_seal(&mut t, b"secret", &sel, [3; 20]);
        assert_eq!(authorize_unseal(&mut t, &blob, [3; 20]).unwrap(), b"secret");
    }

    #[test]
    fn unseal_fails_after_pcr_change() {
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        let blob = authorize_seal(&mut t, b"secret", &sel, [3; 20]);
        t.pcr_extend(17, &[0xAA; 20]).unwrap();
        assert_eq!(
            authorize_unseal(&mut t, &blob, [3; 20]),
            Err(TpmError::WrongPcrVal)
        );
    }

    #[test]
    fn unseal_fails_with_wrong_blob_auth() {
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        let blob = authorize_seal(&mut t, b"secret", &sel, [3; 20]);
        assert_eq!(
            authorize_unseal(&mut t, &blob, [4; 20]),
            Err(TpmError::AuthFail)
        );
    }

    #[test]
    fn unseal_on_other_tpm_fails() {
        let mut t1 = tpm();
        let mut t2 = Tpm::manufacture(TpmConfig::fast_for_tests(2));
        t2.take_ownership();
        let sel = PcrSelection::pcr17();
        let blob = authorize_seal(&mut t1, b"secret", &sel, [3; 20]);
        assert_eq!(
            authorize_unseal(&mut t2, &blob, [3; 20]),
            Err(TpmError::DecryptError)
        );
    }

    #[test]
    fn seal_for_future_pal() {
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        // Predict PCR17 for a future PAL.
        let pal_hash = sha1(b"the future PAL");
        let predicted = PcrBank::predict_skinit_pcr17(&pal_hash);

        let digest = digest_at_release_for(&sel, &[predicted]);
        let pd = Tpm::param_digest(&[b"TPM_Seal", b"handoff", &sel.encode(), &digest]);
        let mut session = t.oiap(crate::auth::WELL_KNOWN_AUTH);
        let mut rng = XorShiftRng::new(82);
        let ca = session.authorize(&pd, &mut rng, false);
        let blob = t
            .seal_for_future(b"handoff", &sel, &[predicted], &[0; 20], &ca)
            .unwrap();

        // Not unsealable now (PCR17 is -1 from reboot).
        assert_eq!(
            authorize_unseal(&mut t, &blob, [0; 20]),
            Err(TpmError::WrongPcrVal)
        );

        // After SKINIT with the right PAL, it unseals.
        t.skinit_measure(4, b"the future PAL").unwrap();
        assert_eq!(
            authorize_unseal(&mut t, &blob, [0; 20]).unwrap(),
            b"handoff"
        );

        // A different PAL cannot unseal it.
        t.skinit_measure(4, b"an evil PAL").unwrap();
        assert_eq!(
            authorize_unseal(&mut t, &blob, [0; 20]),
            Err(TpmError::WrongPcrVal)
        );
    }

    #[test]
    fn skinit_requires_locality_4() {
        let mut t = tpm();
        assert!(matches!(
            t.skinit_measure(0, b"slb"),
            Err(TpmError::BadLocality { .. })
        ));
    }

    #[test]
    fn quote_end_to_end() {
        let mut rng = XorShiftRng::new(83);
        let mut ca = PrivacyCa::new(512, &mut rng);
        let mut t = Tpm::provisioned(TpmConfig::fast_for_tests(3), &mut ca);
        let (aik, cert) = t.make_identity(&ca, "host").unwrap();
        assert!(cert.verify(ca.public_key()).is_ok());

        t.skinit_measure(4, b"a PAL").unwrap();
        let sel = PcrSelection::pcr17();
        let nonce = [7u8; 20];
        let q = t.quote(aik, nonce, &sel).unwrap();
        assert!(q.verify(&cert.aik_public, &nonce).is_ok());
        assert_eq!(
            q.pcr_value(17).unwrap(),
            &PcrBank::predict_skinit_pcr17(&sha1(b"a PAL"))
        );
    }

    /// Host cost of one `TPM_Quote`: the AIK signs by CRT, one
    /// exponentiation per prime by an exponent of about half the key's
    /// length. An `L`-bit exponent costs `2^w + (⌈L/w⌉ − 1)·(w + 1)`
    /// Montgomery products, with `w = 5` at both sizes here; nothing else
    /// in the command multiplies. So a 1024-bit AIK whose two exponents
    /// have 511 or 512 bits costs `2 · (32 + 102 · 6) = 1,288` (attest's
    /// quote), one with a 506–510-bit exponent `644 + 638 = 1,282`, and a
    /// 512-bit AIK with two 256-bit exponents `2 · (32 + 51 · 6) = 676`.
    #[test]
    fn quote_costs_two_crt_exponentiations() {
        for (key_bits, seed, modmuls) in [(1024, 1, 1_288), (1024, 3, 1_282), (512, 1, 676)] {
            let mut rng = XorShiftRng::new(85);
            let mut ca = PrivacyCa::new(512, &mut rng);
            let config = TpmConfig {
                key_bits,
                ..TpmConfig::fast_for_tests(seed)
            };
            let mut t = Tpm::provisioned(config, &mut ca);
            let (aik, _) = t.make_identity(&ca, "host").unwrap();
            let before = flicker_crypto::cost::snapshot();
            t.quote(aik, [5; 20], &PcrSelection::pcr17()).unwrap();
            let cost = flicker_crypto::cost::snapshot().since(&before);
            assert_eq!(cost.modmul, modmuls, "{key_bits}-bit AIK, seed {seed}");
        }
    }

    #[test]
    fn quote_with_bad_handle_fails() {
        let mut t = tpm();
        assert_eq!(
            t.quote(0xdead, [0; 20], &PcrSelection::pcr17()),
            Err(TpmError::InvalidKeyHandle(0xdead))
        );
    }

    #[test]
    fn make_identity_requires_ownership_and_registration() {
        let mut rng = XorShiftRng::new(84);
        let ca = PrivacyCa::new(512, &mut rng);
        let mut t = Tpm::manufacture(TpmConfig::fast_for_tests(4));
        assert_eq!(t.make_identity(&ca, "x").unwrap_err(), TpmError::NoSrk);
        t.take_ownership();
        // EK not registered with this CA.
        assert!(t.make_identity(&ca, "x").is_err());
    }

    #[test]
    fn nv_define_requires_owner_auth() {
        let mut t = tpm();
        assert_eq!(
            t.nv_define_space(0x10, 4, None, &[1; 20]),
            Err(TpmError::AuthFail)
        );
        t.nv_define_space(0x10, 4, None, &[0; 20]).unwrap();
        assert!(t.nv_is_defined(0x10));
        t.nv_write(0x10, 0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(t.nv_read(0x10).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn get_random_is_deterministic_per_seed_and_charges_time() {
        let mut a = Tpm::manufacture(TpmConfig::fast_for_tests(7));
        let mut b = Tpm::manufacture(TpmConfig::fast_for_tests(7));
        assert_eq!(a.get_random(32), b.get_random(32));
        assert!(a.take_elapsed() > Duration::ZERO);
        assert_eq!(a.take_elapsed(), Duration::ZERO, "drained");
    }

    #[test]
    fn reboot_resets_pcrs_but_keeps_nv_and_counters() {
        let mut t = tpm();
        t.nv_define_space(0x20, 4, None, &[0; 20]).unwrap();
        t.nv_write(0x20, 0, &[9, 9, 9, 9]).unwrap();
        let (cid, _) = t.create_counter();
        t.increment_counter(cid).unwrap();
        t.skinit_measure(4, b"pal").unwrap();

        t.reboot();
        assert_eq!(
            t.pcr_read(17).unwrap(),
            [0xFF; 20],
            "dynamic PCR back to -1"
        );
        assert_eq!(t.nv_read(0x20).unwrap(), vec![9, 9, 9, 9]);
        assert_eq!(t.read_counter(cid).unwrap(), 1);
    }

    #[test]
    fn session_consumed_on_auth_failure() {
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        let blob = authorize_seal(&mut t, b"secret", &sel, [3; 20]);
        // Wrong auth terminates the session; reusing its handle fails with
        // InvalidAuthHandle.
        let pd = Tpm::param_digest(&[b"TPM_Unseal", blob.as_bytes()]);
        let mut bad = t.oiap([9; 20]);
        let mut rng = XorShiftRng::new(85);
        let ca = bad.authorize(&pd, &mut rng, true);
        assert_eq!(t.unseal(&blob, &ca), Err(TpmError::AuthFail));
        let ca2 = bad.authorize(&pd, &mut rng, true);
        assert_eq!(
            t.unseal(&blob, &ca2),
            Err(TpmError::InvalidAuthHandle(ca2.session_handle))
        );
    }

    #[test]
    fn session_table_is_bounded() {
        let mut t = tpm();
        let trace = flicker_trace::Trace::new();
        t.set_tracer(trace.clone());
        for _ in 0..40 {
            // Leaky client: opens a session and never uses or closes it.
            let _ = t.oiap([0; 20]);
        }
        assert_eq!(t.open_session_count(), MAX_AUTH_SESSIONS);
        assert_eq!(
            trace.counter("tpm.session_evicted"),
            40 - MAX_AUTH_SESSIONS as u64
        );
    }

    #[test]
    fn one_shot_auth_evicts_session() {
        let mut t = tpm();
        assert_eq!(t.open_session_count(), 0);
        let sel = PcrSelection::pcr17();
        let blob = authorize_seal(&mut t, b"secret", &sel, [3; 20]);
        assert_eq!(
            t.open_session_count(),
            0,
            "seal session closed with the command"
        );
        authorize_unseal(&mut t, &blob, [3; 20]).unwrap();
        assert_eq!(
            t.open_session_count(),
            0,
            "unseal session closed with the command"
        );
        assert!(
            t.take_response_auth().is_none(),
            "no response auth for one-shot"
        );
    }

    #[test]
    fn one_session_authorizes_seal_then_unseal_with_rolled_nonces() {
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        let digest = t.pcrs().composite_hash(&sel).unwrap();
        let mut session = t.oiap(crate::auth::WELL_KNOWN_AUTH);
        let mut rng = XorShiftRng::new(90);

        // Command 1: seal, keeping the session alive.
        let pd_seal = Tpm::param_digest(&[b"TPM_Seal", b"secret", &sel.encode(), &digest]);
        let ca = session.authorize(&pd_seal, &mut rng, true);
        // Blob auth = WELL_KNOWN so the same OIAP session can authorize the
        // unseal (OIAP keys on the object's authdata).
        let blob = t
            .seal(b"secret", &sel, &crate::auth::WELL_KNOWN_AUTH, &ca)
            .unwrap();
        let resp = t.take_response_auth().expect("continued session answers");
        session.absorb_response(&pd_seal, &ca, &resp).unwrap();
        assert_eq!(t.open_session_count(), 1);

        // Command 2: unseal on the *same* session under the rolled pair.
        let pd_unseal = Tpm::param_digest(&[b"TPM_Unseal", blob.as_bytes()]);
        let ca2 = session.authorize(&pd_unseal, &mut rng, false);
        assert_eq!(t.unseal(&blob, &ca2).unwrap(), b"secret");
        assert_eq!(t.open_session_count(), 0, "closed by continue=false");
    }

    /// The host cost of one `TPM_Unseal` round trip on a continued OIAP
    /// session whose TPM half already holds the blob's auth (the
    /// well-known one, as in replay-protected storage): each of the four
    /// HMACs (authorize, verify, respond, absorb) clones a kept keyed
    /// state, and the next even nonce is one 20-byte DRBG draw.
    #[test]
    fn continued_unseal_round_trip_costs() {
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        let digest = t.pcrs().composite_hash(&sel).unwrap();
        let wk = crate::auth::WELL_KNOWN_AUTH;
        let mut session = t.oiap(wk);
        let mut rng = XorShiftRng::new(91);
        let pd = Tpm::param_digest(&[b"TPM_Seal", &[7; 32], &sel.encode(), &digest]);
        let ca = session.authorize(&pd, &mut rng, true);
        let blob = t.seal(&[7; 32], &sel, &wk, &ca).unwrap();
        let resp = t.take_response_auth().unwrap();
        session.absorb_response(&pd, &ca, &resp).unwrap();

        let pd = Tpm::param_digest(&[b"TPM_Unseal", blob.as_bytes()]);
        let before = flicker_crypto::cost::snapshot();
        let ca = session.authorize(&pd, &mut rng, true);
        assert_eq!(t.unseal(&blob, &ca).unwrap(), [7; 32]);
        let resp = t.take_response_auth().unwrap();
        session.absorb_response(&pd, &ca, &resp).unwrap();
        let cost = flicker_crypto::cost::snapshot().since(&before);
        // SHA-1: 3 per HMAC (2 for the 61-byte message, 1 outer), 3 for
        // the blob MAC, 3 for the TPM's parameter digest over the ordinal
        // and the 114-byte blob, and 1 for the PCR composite.
        assert_eq!(blob.len(), 114);
        assert_eq!(cost.sha1_compress, 4 * 3 + 3 + 3 + 1);
        // SHA-256: 2 for the nonce block and 6 to update the DRBG state.
        assert_eq!(cost.sha256_compress, 8);
    }

    #[test]
    fn stale_even_nonce_fails_across_commands() {
        // A client that does NOT absorb the response (so its even nonce is
        // stale) must fail HMAC verification on the next command.
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        let digest = t.pcrs().composite_hash(&sel).unwrap();
        let mut session = t.oiap(crate::auth::WELL_KNOWN_AUTH);
        let mut rng = XorShiftRng::new(91);

        let pd = Tpm::param_digest(&[b"TPM_Seal", b"x", &sel.encode(), &digest]);
        let ca = session.authorize(&pd, &mut rng, true);
        t.seal(b"x", &sel, &crate::auth::WELL_KNOWN_AUTH, &ca)
            .unwrap();
        let _ignored = t.take_response_auth();

        let ca2 = session.authorize(&pd, &mut rng, true);
        assert_eq!(
            t.seal(b"x", &sel, &crate::auth::WELL_KNOWN_AUTH, &ca2),
            Err(TpmError::AuthFail),
            "stale nonceEven breaks the HMAC"
        );
        assert_eq!(
            t.open_session_count(),
            0,
            "failed auth consumed the session"
        );
    }

    #[test]
    fn repeated_odd_nonce_rejected_within_session() {
        // The per-retry nonce-reuse bug: replaying the same CommandAuth on
        // a live session must fail even though its HMAC once verified.
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        let digest = t.pcrs().composite_hash(&sel).unwrap();
        let mut session = t.oiap(crate::auth::WELL_KNOWN_AUTH);
        let mut rng = XorShiftRng::new(92);

        let pd = Tpm::param_digest(&[b"TPM_Seal", b"x", &sel.encode(), &digest]);
        let ca = session.authorize(&pd, &mut rng, true);
        t.seal(b"x", &sel, &crate::auth::WELL_KNOWN_AUTH, &ca)
            .unwrap();
        let resp = t.take_response_auth().unwrap();
        session.absorb_response(&pd, &ca, &resp).unwrap();

        // Forge an attempt that reuses the consumed odd nonce under the
        // rolled even nonce (what the old retry closures effectively did).
        let replay = crate::auth::CommandAuth {
            session_handle: ca.session_handle,
            nonce_odd: ca.nonce_odd,
            continue_session: true,
            hmac: crate::auth::auth_hmac(
                &flicker_crypto::hmac::Hmac::new(&crate::auth::WELL_KNOWN_AUTH),
                &pd,
                &resp.nonce_even,
                &ca.nonce_odd,
                true,
            ),
        };
        assert_eq!(
            t.seal(b"x", &sel, &crate::auth::WELL_KNOWN_AUTH, &replay),
            Err(TpmError::AuthFail)
        );
    }

    #[test]
    fn reboot_flushes_sessions_and_keeps_handles_monotonic() {
        let mut t = tpm();
        let mut pre = t.oiap([0; 20]);
        let pre_handle = pre.handle();
        t.reboot();
        assert_eq!(t.open_session_count(), 0, "reboot flushes sessions");

        let post = t.oiap([0; 20]);
        assert!(
            post.handle() > pre_handle,
            "post-reboot handles never collide with pre-reboot client state"
        );

        // The recovering client's stale handle resolves to InvalidAuthHandle.
        let sel = PcrSelection::pcr17();
        let digest = t.pcrs().composite_hash(&sel).unwrap();
        let pd = Tpm::param_digest(&[b"TPM_Seal", b"x", &sel.encode(), &digest]);
        let mut rng = XorShiftRng::new(93);
        let ca = pre.authorize(&pd, &mut rng, true);
        assert_eq!(
            t.seal(b"x", &sel, &crate::auth::WELL_KNOWN_AUTH, &ca),
            Err(TpmError::InvalidAuthHandle(pre_handle))
        );
    }

    #[test]
    fn terminate_handle_closes_session_quietly() {
        let mut t = tpm();
        let s = t.oiap([0; 20]);
        assert_eq!(t.open_session_count(), 1);
        t.terminate_handle(s.handle());
        assert_eq!(t.open_session_count(), 0);
        t.terminate_handle(s.handle()); // idempotent
        assert_eq!(
            t.take_elapsed(),
            t.timing().session_start,
            "only OIAP charged"
        );
    }

    #[test]
    fn every_seal_takes_a_fresh_nonce_outside_the_random_stream() {
        // TPM 1.2 sealed blobs are randomized: re-sealing one payload under
        // one policy gives a new blob, even across a reboot.
        let mut t = tpm();
        let sel = PcrSelection::pcr17();
        let a = authorize_seal(&mut t, b"same", &sel, [3; 20]);
        let b = authorize_seal(&mut t, b"same", &sel, [3; 20]);
        t.reboot();
        let c = authorize_seal(&mut t, b"same", &sel, [3; 20]);
        assert_ne!(a.as_bytes(), b.as_bytes());
        assert_ne!(a.as_bytes(), c.as_bytes());
        assert_ne!(b.as_bytes(), c.as_bytes());
        for blob in [&a, &b, &c] {
            assert_eq!(authorize_unseal(&mut t, blob, [3; 20]).unwrap(), b"same");
        }
        // The nonce is not drawn from the TPM_GetRandom stream, which PAL
        // RNG seeds (and so their RSA key searches) come from.
        let mut untouched = tpm();
        assert_eq!(t.get_random(32), untouched.get_random(32));
    }

    #[test]
    fn quote_charges_load_key_once_per_boot_streak() {
        let mut rng = XorShiftRng::new(94);
        let mut ca = PrivacyCa::new(512, &mut rng);
        let mut t = Tpm::provisioned(TpmConfig::fast_for_tests(9), &mut ca);
        let (aik, _) = t.make_identity(&ca, "host").unwrap();
        let sel = PcrSelection::pcr17();

        // Fresh identity starts loaded: first quote is already warm.
        t.take_elapsed();
        t.quote(aik, [1; 20], &sel).unwrap();
        assert_eq!(t.take_elapsed(), t.timing().quote);

        // Reboot flushes key slots: next quote pays the load once…
        t.reboot();
        t.quote(aik, [2; 20], &sel).unwrap();
        assert_eq!(t.take_elapsed(), t.timing().quote + t.timing().load_key);

        // …and the streak stays warm afterwards.
        t.quote(aik, [3; 20], &sel).unwrap();
        assert_eq!(t.take_elapsed(), t.timing().quote);
    }

    #[test]
    fn transient_fault_reports_retry_then_clears() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut t = tpm();
        t.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::TpmTransient {
            skip: 1,
            failures: 2,
        })));
        assert!(t.pcr_read(17).is_ok(), "skipped command executes");
        assert_eq!(t.pcr_read(17), Err(TpmError::Retry));
        assert_eq!(t.pcr_extend(17, &[1; 20]), Err(TpmError::Retry));
        // Fault exhausted: commands execute again, and the busy responses
        // had no effect on PCR state.
        let before = t.pcr_read(17).unwrap();
        assert_eq!(t.pcrs().read(17).unwrap(), before);
    }

    #[test]
    fn torn_nv_write_persists_prefix_and_fails() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut t = tpm();
        t.nv_define_space(0x30, 8, None, &[0; 20]).unwrap();
        t.nv_write(0x30, 0, &[0xAA; 8]).unwrap();
        t.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::TornNvWrite {
            skip: 0,
            keep: 3,
        })));
        assert_eq!(t.nv_write(0x30, 0, &[0xBB; 8]), Err(TpmError::Retry));
        // Exactly the first 3 bytes made it to the cells.
        assert_eq!(
            t.nv_read(0x30).unwrap(),
            vec![0xBB, 0xBB, 0xBB, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA]
        );
        // One-shot: the retried write goes through whole.
        t.nv_write(0x30, 0, &[0xCC; 8]).unwrap();
        assert_eq!(t.nv_read(0x30).unwrap(), vec![0xCC; 8]);
    }

    #[test]
    fn disarmed_injector_leaves_timing_exact() {
        let mut t = tpm();
        t.set_fault_injector(flicker_faults::FaultInjector::disarmed());
        t.take_elapsed();
        t.pcr_extend(17, &[0; 20]).unwrap();
        assert_eq!(t.take_elapsed(), t.timing().pcr_extend);
    }

    /// Records the TPM's pended events into `trace`, as the platform's
    /// drain does after each command.
    fn drain(t: &mut Tpm, trace: &flicker_trace::Trace) {
        for kind in t.take_pending_events() {
            trace.event(Duration::ZERO, kind);
        }
    }

    #[test]
    fn recorded_commands_fold_into_per_ordinal_latency() {
        let mut t = tpm();
        let trace = flicker_trace::Trace::new();
        t.set_tracer(trace.clone());
        t.pcr_extend(17, &[0; 20]).unwrap();
        t.pcr_extend(17, &[1; 20]).unwrap();
        t.pcr_read(17).unwrap();
        drain(&mut t, &trace);

        let extend = trace.histogram("tpm.TPM_Extend").expect("extend traced");
        assert_eq!(extend.count(), 2);
        assert_eq!(extend.max(), t.timing().pcr_extend);
        let read = trace.histogram("tpm.TPM_PCRRead").expect("read traced");
        assert_eq!(read.count(), 1);
        assert!(trace.histogram("tpm.TPM_Seal").is_none());

        t.clear_tracer();
        t.pcr_read(17).unwrap();
        drain(&mut t, &trace);
        assert_eq!(
            trace.histogram("tpm.TPM_PCRRead").unwrap().count(),
            1,
            "cleared tracer records nothing"
        );
    }

    #[test]
    fn busy_responses_are_faults_not_commands() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut t = tpm();
        let trace = flicker_trace::Trace::new();
        t.set_tracer(trace.clone());
        t.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::TpmTransient {
            skip: 0,
            failures: 2,
        })));
        assert_eq!(t.pcr_read(17), Err(TpmError::Retry));
        assert_eq!(t.pcr_read(17), Err(TpmError::Retry));
        t.pcr_read(17).unwrap();
        drain(&mut t, &trace);
        let busy = trace
            .events()
            .iter()
            .filter(|e| {
                matches!(&e.kind, EventKind::FaultInjected { fault }
                    if fault == fired::TPM_TRANSIENT)
            })
            .count();
        assert_eq!(busy, 2);
        // Busy responses are not command completions: only the successful
        // read lands in the latency histogram.
        assert_eq!(trace.histogram("tpm.TPM_PCRRead").unwrap().count(), 1);
    }

    #[test]
    fn commands_pend_flight_recorder_events() {
        let mut t = tpm();
        // No tracer: nothing queues (the platform may never drain).
        t.pcr_read(17).unwrap();
        assert!(t.take_pending_events().is_empty());

        t.set_tracer(flicker_trace::Trace::new());
        let extend_ns = t.timing().pcr_extend.as_nanos() as u64;
        t.pcr_extend(17, &[0; 20]).unwrap();
        t.skinit_measure(4, b"a PAL").unwrap();
        let events = t.take_pending_events();
        assert_eq!(
            events,
            vec![
                EventKind::TpmCommand {
                    ordinal: "TPM_Extend".to_string(),
                    locality: 0,
                    dur_ns: extend_ns,
                },
                EventKind::PcrExtend {
                    index: 17,
                    locality: 0,
                },
                EventKind::PcrReset {
                    index: 17,
                    locality: 4,
                },
                EventKind::PcrExtend {
                    index: 17,
                    locality: 4,
                },
            ]
        );
        assert!(t.take_pending_events().is_empty(), "drained");
    }

    #[test]
    fn fired_faults_pend_events() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut t = tpm();
        t.set_tracer(flicker_trace::Trace::new());
        t.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::TpmTransient {
            skip: 0,
            failures: 1,
        })));
        assert_eq!(t.pcr_read(17), Err(TpmError::Retry));
        let events = t.take_pending_events();
        assert_eq!(
            events,
            vec![EventKind::FaultInjected {
                fault: "tpm_transient".to_string(),
            }]
        );
    }

    #[test]
    fn timing_charged_per_command() {
        let mut t = tpm();
        t.take_elapsed();
        t.pcr_extend(17, &[0; 20]).unwrap();
        assert_eq!(t.take_elapsed(), t.timing().pcr_extend);
        let sel = PcrSelection::pcr17();
        let blob = authorize_seal(&mut t, b"x", &sel, [0; 20]);
        t.take_elapsed();
        let _ = authorize_unseal(&mut t, &blob, [0; 20]);
        assert!(t.take_elapsed() >= t.timing().unseal);
    }
}
