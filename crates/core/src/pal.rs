//! PAL execution: the trait native PALs implement and the mediated
//! environment both native and bytecode PALs run in.
//!
//! Everything a PAL can touch flows through [`PalContext`]:
//!
//! * **Memory** — logical (segment-relative) accesses checked against the
//!   GDT descriptors the SLB Core installed. With the OS-Protection module
//!   (paper §5.1.2) those descriptors are ring-3 with base `slb_base` and a
//!   limit at the end of the OS-allocated region, so the PAL physically
//!   cannot name other memory. Without it, the PAL runs ring 0 with flat
//!   segments — full physical access, exactly the danger the module
//!   exists to contain.
//! * **TPM** — the TPM Driver + TPM Utilities modules (paper Figure 6):
//!   PCR extend/read, GetRandom, Seal/Unseal with OIAP authorization.
//! * **Time** — CPU work is charged to the virtual clock through the
//!   calibrated cost model, so the evaluation harness sees realistic
//!   durations for hashing, key generation, and RSA operations.

use crate::error::{FlickerError, FlickerResult};
use crate::slb::{INPUTS_OFFSET, OUTPUTS_MAX};
use flicker_crypto::rng::XorShiftRng;
use flicker_crypto::rsa::{KeygenStats, RsaPrivateKey};
use flicker_crypto::sha1::Sha1;
use flicker_machine::{pal_segments, Machine, RetryPolicy, SegmentDescriptor, SegmentKind};
use flicker_tpm::{
    ClientSession, CommandAuth, PcrSelection, PcrValue, SealedBlob, Tpm, TpmError, TpmResult,
    WELL_KNOWN_AUTH,
};
use flicker_trace::OpEvent;
use std::time::Duration;

/// The behaviour of a native (Rust-implemented) PAL.
pub trait NativePal: Send + Sync {
    /// Runs the PAL's application-specific logic inside the session.
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()>;
}

/// VM start-up register conventions for bytecode PALs.
pub mod vm_regs {
    /// Register holding the logical address of the PAL input region.
    pub const INPUTS: usize = 14;
    /// Register holding the logical address of the PAL output region
    /// (outputs normally flow through hypercalls instead).
    pub const OUTPUTS: usize = 13;
    /// Register holding the input length in bytes.
    pub const INPUT_LEN: usize = 12;
}

/// The mediated execution environment of one Flicker session.
pub struct PalContext<'a> {
    machine: &'a mut Machine,
    code_seg: SegmentDescriptor,
    data_seg: SegmentDescriptor,
    ring: u8,
    slb_base: u64,
    inputs: Vec<u8>,
    outputs: Vec<u8>,
    rng: Option<XorShiftRng>,
    ops: Vec<OpEvent>,
}

impl<'a> PalContext<'a> {
    /// Builds the context the SLB Core hands to the PAL.
    ///
    /// `region_len` is the extent of the OS-allocated region (SLB plus
    /// parameter pages) used as the segment limit under OS protection.
    pub(crate) fn new(
        machine: &'a mut Machine,
        slb_base: u64,
        region_len: u32,
        os_protection: bool,
        inputs: Vec<u8>,
    ) -> Self {
        let (code_seg, data_seg, ring) = if os_protection {
            let (c, d) = pal_segments(slb_base, region_len, 3);
            (c, d, 3)
        } else {
            (
                SegmentDescriptor::flat(SegmentKind::Code, 0),
                SegmentDescriptor::flat(SegmentKind::Data, 0),
                0,
            )
        };
        PalContext {
            machine,
            code_seg,
            data_seg,
            ring,
            slb_base,
            inputs,
            outputs: Vec::new(),
            rng: None,
            ops: Vec::new(),
        }
    }

    // ----- parameters ------------------------------------------------------

    /// The PAL's input bytes (already copied in from the input page).
    pub fn inputs(&self) -> &[u8] {
        &self.inputs
    }

    /// Appends bytes to the PAL output (bounded by the 4 KB output page).
    pub fn write_output(&mut self, data: &[u8]) -> FlickerResult<()> {
        if self.outputs.len() + data.len() > OUTPUTS_MAX {
            return Err(FlickerError::OutputOverflow {
                len: self.outputs.len() + data.len(),
                capacity: OUTPUTS_MAX,
            });
        }
        self.outputs.extend_from_slice(data);
        Ok(())
    }

    /// The output accumulated so far.
    pub fn outputs(&self) -> &[u8] {
        &self.outputs
    }

    pub(crate) fn take_outputs(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.outputs)
    }

    /// Per-operation timing events for every charged TPM command and
    /// crypto helper, in execution order. This is the observability hook
    /// behind the Figure 9-style breakdowns in the evaluation harness.
    pub fn ops(&self) -> &[OpEvent] {
        &self.ops
    }

    pub(crate) fn take_ops(&mut self) -> Vec<OpEvent> {
        std::mem::take(&mut self.ops)
    }

    /// [`PalContext::logged_self`] for an operation that needs only the
    /// machine.
    fn logged<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Machine) -> T) -> T {
        self.logged_self(name, |s| f(s.machine))
    }

    /// The privilege ring the PAL executes in.
    pub fn ring(&self) -> u8 {
        self.ring
    }

    /// The logical address of the input region under the current segment
    /// setup (for bytecode PALs).
    pub fn inputs_logical_addr(&self) -> u32 {
        if self.ring == 3 {
            INPUTS_OFFSET as u32
        } else {
            (self.slb_base + INPUTS_OFFSET) as u32
        }
    }

    // ----- memory (segment-checked) ----------------------------------------

    /// Reads `len` bytes at logical (data-segment-relative) address
    /// `offset`.
    pub fn read_logical(&mut self, offset: u32, len: u32) -> FlickerResult<Vec<u8>> {
        let phys = self.data_seg.translate(offset, len, self.ring)?;
        Ok(self.machine.memory().read(phys, len as usize)?.to_vec())
    }

    /// [`PalContext::sha1`] of `len` bytes at logical address `offset`, hashed
    /// in place ([`flicker_machine::PhysMemory::sha1`]; Table 1's "Hash of
    /// Kernel"). A failed segment or range check charges and logs nothing.
    pub fn sha1_logical(&mut self, offset: u32, len: u32) -> FlickerResult<[u8; 20]> {
        let phys = self.data_seg.translate(offset, len, self.ring)?;
        let digest = self.machine.memory_mut().sha1(phys, len as usize)?;
        Ok(self.logged("sha1", |m| {
            let cost = m.cpu_cost().sha1(len as usize);
            m.charge_cpu(cost);
            digest
        }))
    }

    /// Writes bytes at logical address `offset`.
    pub fn write_logical(&mut self, offset: u32, data: &[u8]) -> FlickerResult<()> {
        let phys = self
            .data_seg
            .translate(offset, data.len() as u32, self.ring)?;
        self.machine.memory_mut().write(phys, data)?;
        Ok(())
    }

    /// The installed code segment (diagnostics / SLB Core).
    pub fn code_segment(&self) -> SegmentDescriptor {
        self.code_seg
    }

    // ----- TPM driver + utilities (paper Figure 6) ---------------------------

    /// Extends PCR 17 with `measurement`.
    pub fn pcr17_extend(&mut self, measurement: &[u8; 20]) -> FlickerResult<PcrValue> {
        Ok(self.logged("pcr_extend", |m| {
            m.tpm_op_retrying(|t| t.pcr_extend(17, measurement))
        })?)
    }

    /// Reads a PCR.
    pub fn pcr_read(&mut self, index: u32) -> FlickerResult<PcrValue> {
        Ok(self.machine.tpm_op_retrying(|t| t.pcr_read(index))?)
    }

    /// `TPM_GetRandom` (charges the TPM latency).
    pub fn tpm_get_random(&mut self, n: usize) -> Vec<u8> {
        self.logged("get_random", |m| m.tpm_op(|t| t.get_random(n)))
    }

    fn rng(&mut self) -> &mut XorShiftRng {
        if self.rng.is_none() {
            // Seed a cheap local PRNG from the TPM once (the paper's SSH
            // PAL makes exactly one GetRandom call to seed a PRNG, §7.4.1).
            let seed_bytes = self.tpm_get_random(8);
            let seed = u64::from_be_bytes(seed_bytes.try_into().expect("8 bytes"));
            self.rng = Some(XorShiftRng::new(seed));
        }
        self.rng.as_mut().expect("just set")
    }

    /// Runs an operation on the whole context (e.g. the authorized helpers
    /// below), recording its simulated duration in the op log under `name`
    /// and in the platform trace's histogram of the same name, when one is
    /// installed. Every logged PAL operation goes through here.
    fn logged_self<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = self.machine.clock().now();
        let out = f(self);
        let dt = self.machine.clock().now() - start;
        self.ops.push(OpEvent {
            name,
            at: start,
            duration: dt,
        });
        if let Some(t) = self.machine.tracer() {
            t.observe(name, dt);
        }
        out
    }

    /// Seed for a client-side odd-nonce generator, derived purely from
    /// session state: the handle is unique for the TPM's lifetime, the
    /// even nonce rolls with every accepted command, and the attempt index
    /// separates driver retries — so no odd nonce repeats on a session,
    /// and the PAL-visible randomness stream (`rng()`) is never consumed
    /// for auth traffic.
    fn auth_nonce_seed(session: &ClientSession, attempt: u32) -> u64 {
        let mut buf = Vec::with_capacity(28);
        buf.extend_from_slice(&session.handle().to_be_bytes());
        buf.extend_from_slice(session.nonce_even());
        buf.extend_from_slice(&attempt.to_be_bytes());
        let d = flicker_crypto::sha1::sha1(&buf);
        u64::from_be_bytes(d[..8].try_into().expect("8 bytes"))
    }

    /// Runs an authorized TPM command with driver-side busy retry, under
    /// the machine's parked auth session when there is one (else a fresh
    /// OIAP). The session is continued and parked again afterwards, so one
    /// session serves every command and PAL run on the machine and the
    /// TPM's table holds at most one live session for it. Fresh odd nonce
    /// per attempt; the TPM's response authorization is absorbed after
    /// every non-busy attempt so the session stays nonce-synchronized; a
    /// stale parked session (evicted or flushed server-side) is dropped and
    /// recovered once with a fresh session.
    fn authorized_retrying<T>(
        &mut self,
        pd: [u8; 20],
        f: impl Fn(&mut Tpm, &CommandAuth) -> TpmResult<T>,
    ) -> TpmResult<T> {
        let mut recovered = false;
        'session: loop {
            let (mut session, reused) = match self.machine.take_parked_session() {
                Some(s) => (s, true),
                None => (self.machine.tpm_op(|t| t.oiap(WELL_KNOWN_AUTH)), false),
            };
            if let Some(t) = self.machine.tracer() {
                t.counter_add(if reused { "warm.hit" } else { "warm.miss" }, 1);
            }
            let policy = RetryPolicy::tpm_default();
            let mut attempt = 0u32;
            let mut retries = 0u32;
            loop {
                let mut r = XorShiftRng::new(Self::auth_nonce_seed(&session, attempt));
                attempt += 1;
                let auth = session.authorize(&pd, &mut r, true);
                let (out, resp) = self.machine.tpm_op(|t| {
                    let out = f(t, &auth);
                    (out, t.take_response_auth())
                });
                // Absorb on every attempt that produced a response — a
                // command can fail *after* authorization (e.g. Unseal
                // against wrong PCRs) and the session still rolls.
                if let Some(resp) = &resp {
                    if session.absorb_response(&pd, &auth, resp).is_err() {
                        let handle = session.handle();
                        self.machine.tpm_op(|t| t.terminate_handle(handle));
                        return Err(TpmError::AuthFail);
                    }
                }
                match out {
                    Err(TpmError::Retry) => {
                        // Busy gate fires before the TPM looks at the
                        // session, so its nonce state is untouched; the
                        // next attempt still uses a fresh odd nonce via
                        // the attempt index.
                        let Some(wait) = policy.backoff(retries) else {
                            self.machine.park_session(session);
                            return Err(TpmError::Retry);
                        };
                        retries += 1;
                        if let Some(t) = self.machine.tracer() {
                            t.counter_add("tpm.retry", 1);
                        }
                        self.machine.charge_backoff(wait);
                        if self.machine.power_lost() {
                            self.machine.park_session(session);
                            return Err(TpmError::Retry);
                        }
                    }
                    Err(e @ (TpmError::AuthFail | TpmError::InvalidAuthHandle(_))) => {
                        // The server half is gone. A reused parked session
                        // may simply have gone stale (evicted under table
                        // pressure, flushed by a reboot we did not cause):
                        // drop it and recover once with a fresh session.
                        if reused && !recovered {
                            recovered = true;
                            if let Some(t) = self.machine.tracer() {
                                t.counter_add("warm.invalidate", 1);
                            }
                            continue 'session;
                        }
                        return Err(e);
                    }
                    other => {
                        // Success, or a post-authorization failure: the
                        // session is live and in sync (absorbed above).
                        self.machine.park_session(session);
                        return other;
                    }
                }
            }
        }
    }

    /// Seals `data` under the *current* value of PCR 17 — i.e. for a future
    /// session of this same PAL (paper §4.3.1).
    pub fn seal_to_self(&mut self, data: &[u8]) -> FlickerResult<SealedBlob> {
        let sel = PcrSelection::pcr17();
        let digest = self.machine.tpm_op(|t| t.pcrs().composite_hash(&sel))?;
        let pd = Tpm::param_digest(&[b"TPM_Seal", data, &sel.encode(), &digest]);
        Ok(self.logged_self("seal", |s| {
            s.authorized_retrying(pd, |t, auth| t.seal(data, &sel, &WELL_KNOWN_AUTH, auth))
        })?)
    }

    /// Seals `data` so that only a PAL whose post-`SKINIT` PCR 17 equals
    /// `target_pcr17` can unseal it (a *different* future PAL, §4.3.1).
    pub fn seal_for_pal(
        &mut self,
        data: &[u8],
        target_pcr17: PcrValue,
    ) -> FlickerResult<SealedBlob> {
        let sel = PcrSelection::pcr17();
        let digest = flicker_tpm::seal::digest_at_release_for(&sel, &[target_pcr17]);
        let pd = Tpm::param_digest(&[b"TPM_Seal", data, &sel.encode(), &digest]);
        Ok(self.logged_self("seal", |s| {
            s.authorized_retrying(pd, |t, auth| {
                t.seal_for_future(data, &sel, &[target_pcr17], &WELL_KNOWN_AUTH, auth)
            })
        })?)
    }

    /// Unseals a blob (succeeds only if PCR 17 currently matches the
    /// blob's release policy). Never cached: the PCR policy check must run
    /// against the TPM's *current* state.
    pub fn unseal(&mut self, blob: &SealedBlob) -> FlickerResult<Vec<u8>> {
        let pd = Tpm::param_digest(&[b"TPM_Unseal", blob.as_bytes()]);
        Ok(self.logged_self("unseal", |s| {
            s.authorized_retrying(pd, |t, auth| t.unseal(blob, auth))
        })?)
    }

    /// Raw TPM access with automatic clock charging, for operations the
    /// helpers above do not cover (NV storage, counters).
    pub fn tpm_op<T>(&mut self, f: impl FnOnce(&mut Tpm) -> T) -> T {
        self.machine.tpm_op(f)
    }

    /// Raw TPM access with driver-side `TPM_E_RETRY` retry and backoff
    /// (see [`flicker_machine::TPM_RETRY_BACKOFF`]). `f` runs once per
    /// attempt, so any authorization session must be built inside it.
    pub fn tpm_op_retrying<T>(&mut self, f: impl FnMut(&mut Tpm) -> TpmResult<T>) -> TpmResult<T> {
        self.machine.tpm_op_retrying(f)
    }

    // ----- CPU work (charged crypto helpers) ---------------------------------

    /// Charges arbitrary CPU time (application-specific work).
    pub fn charge_cpu(&mut self, d: Duration) {
        self.machine.charge_cpu(d);
    }

    /// SHA-1 of bytes the PAL holds, with the hashing cost charged.
    pub fn sha1(&mut self, data: &[u8]) -> [u8; 20] {
        self.logged("sha1", |m| {
            let cost = m.cpu_cost().sha1(data.len());
            m.charge_cpu(cost);
            flicker_crypto::sha1::sha1(data)
        })
    }

    /// HMAC-SHA1 with cost charged.
    pub fn hmac_sha1(&mut self, key: &[u8], data: &[u8]) -> Vec<u8> {
        let cost = self.machine.cpu_cost().sha1(data.len() + 128);
        self.machine.charge_cpu(cost);
        flicker_crypto::hmac::Hmac::<Sha1>::mac(key, data)
    }

    /// Generates an RSA-1024 keypair inside the PAL, seeded from the TPM,
    /// with the measured keygen cost charged (Figure 9a's 185.7 ms mean).
    pub fn rsa1024_keygen(&mut self) -> (RsaPrivateKey, KeygenStats) {
        // One TPM GetRandom to seed (the paper's PALs do the same).
        let _ = self.rng();
        let mut rng = self.rng.clone().expect("seeded");
        let out = self.logged("rsa1024_keygen", |m| {
            let (key, stats) = RsaPrivateKey::generate(1024, &mut rng);
            let cost = m.cpu_cost().rsa1024_keygen(&stats);
            m.charge_cpu(cost);
            (key, stats)
        });
        self.rng = Some(rng);
        out
    }

    /// PKCS#1 v1.5 decryption with the private-op cost charged (Figure 9b).
    pub fn rsa1024_decrypt(
        &mut self,
        key: &RsaPrivateKey,
        ciphertext: &[u8],
    ) -> FlickerResult<Vec<u8>> {
        self.logged("rsa1024_decrypt", |m| {
            let cost = m.cpu_cost().rsa1024_decrypt;
            m.charge_cpu(cost);
            flicker_crypto::pkcs1::decrypt(key, ciphertext)
                .map_err(|e| FlickerError::PalFault(format!("decrypt: {e}")))
        })
    }

    /// PKCS#1 v1.5 signature with the signing cost charged (§7.4.2).
    pub fn rsa1024_sign(&mut self, key: &RsaPrivateKey, msg: &[u8]) -> FlickerResult<Vec<u8>> {
        self.logged("rsa1024_sign", |m| {
            let cost = m.cpu_cost().rsa1024_sign;
            m.charge_cpu(cost);
            flicker_crypto::pkcs1::sign(key, msg)
                .map_err(|e| FlickerError::PalFault(format!("sign: {e}")))
        })
    }

    /// `md5crypt` with its cost charged (the SSH PAL's hash step).
    pub fn md5crypt(&mut self, password: &[u8], salt: &[u8]) -> String {
        self.logged("md5crypt", |m| {
            let cost = m.cpu_cost().md5crypt;
            m.charge_cpu(cost);
            flicker_crypto::md5crypt::md5crypt(password, salt)
        })
    }

    /// Symmetric processing cost helper (AES/RC4 bulk work).
    pub fn charge_symmetric(&mut self, len: usize) {
        let cost = self.machine.cpu_cost().symmetric(len);
        self.machine.charge_cpu(cost);
    }
}

/// Adapter running a PalVM program against a [`PalContext`].
pub(crate) struct VmBusAdapter<'c, 'm> {
    pub(crate) ctx: &'c mut PalContext<'m>,
}

impl flicker_palvm::VmBus for VmBusAdapter<'_, '_> {
    fn load_u8(&mut self, addr: u32) -> Result<u8, String> {
        self.ctx
            .read_logical(addr, 1)
            .map(|v| v[0])
            .map_err(|e| e.to_string())
    }

    fn store_u8(&mut self, addr: u32, v: u8) -> Result<(), String> {
        self.ctx
            .write_logical(addr, &[v])
            .map_err(|e| e.to_string())
    }

    fn hcall(&mut self, num: u32, regs: &mut [u32; flicker_palvm::NUM_REGS]) -> Result<(), String> {
        match num {
            // 0: emit one output byte from r0.
            0 => self
                .ctx
                .write_output(&[regs[0] as u8])
                .map_err(|e| e.to_string()),
            // 1: report a 32-bit word from r0 (little-endian).
            1 => self
                .ctx
                .write_output(&regs[0].to_le_bytes())
                .map_err(|e| e.to_string()),
            // 2: SHA-1 of logical memory [r1, r1+r2), digest written to
            //    logical r3 (the TPM-utilities hashing service; cost
            //    charged at the modelled CPU rate).
            2 => {
                let digest = self
                    .ctx
                    .sha1_logical(regs[1], regs[2])
                    .map_err(|e| e.to_string())?;
                self.ctx
                    .write_logical(regs[3], &digest)
                    .map_err(|e| e.to_string())
            }
            // 3: r0 <- 4 random bytes from the TPM.
            3 => {
                let bytes = self.ctx.tpm_get_random(4);
                regs[0] = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
                Ok(())
            }
            // 4: extend PCR 17 with the 20-byte digest at logical r1.
            4 => {
                let digest: [u8; 20] = self
                    .ctx
                    .read_logical(regs[1], 20)
                    .map_err(|e| e.to_string())?
                    .try_into()
                    .expect("20 bytes");
                self.ctx.pcr17_extend(&digest).map_err(|e| e.to_string())?;
                Ok(())
            }
            // 5: emit r2 bytes at logical r1 as PAL output.
            5 => {
                let data = self
                    .ctx
                    .read_logical(regs[1], regs[2])
                    .map_err(|e| e.to_string())?;
                self.ctx.write_output(&data).map_err(|e| e.to_string())
            }
            // 6: unseal the blob at logical [r1, r1+r2) (succeeds only
            //    when PCR 17 matches its release policy), write the
            //    plaintext at logical r3, and return its length in r0.
            //    The verifier treats the plaintext region as tainted:
            //    secret bytes may only leave through a release point.
            6 => {
                let blob_bytes = self
                    .ctx
                    .read_logical(regs[1], regs[2])
                    .map_err(|e| e.to_string())?;
                let blob = SealedBlob::from_bytes(blob_bytes);
                let plain = self.ctx.unseal(&blob).map_err(|e| e.to_string())?;
                self.ctx
                    .write_logical(regs[3], &plain)
                    .map_err(|e| e.to_string())?;
                regs[0] = plain.len() as u32;
                Ok(())
            }
            other => Err(format!("unknown hypercall {other}")),
        }
    }
}
