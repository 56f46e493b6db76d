//! One end-to-end protocol run of each §6 application, plus §4.3.2's
//! replay-protected storage, shared by every harness that drives them:
//! the fault sweep, the farm's shards and the perf baseline.
//!
//! Each driver returns `Ok(())` only for a fully correct run and the
//! error's text otherwise. The harness keeps its own part around the
//! run: fault arming and classification, attempt windows, virtual-clock
//! timing. Everything that reaches simulated bytes or time (the PAL
//! identity, the NV index, the password, the CSR subject, the RNG stream,
//! the `Administrator` or `SshClient` a run reuses) is an argument, so
//! each harness keeps its own values.

use crate::{
    Administrator, BoincClient, Csr, FlickerCa, IssuancePolicy, PasswdEntry, SshClient, SshServer,
    WorkUnit,
};
use flicker_core::{
    run_session, FlickerResult, NativePal, PalContext, PalPayload, ReplayProtectedStorage,
    SessionParams, SlbImage, SlbOptions,
};
use flicker_crypto::rng::XorShiftRng;
use flicker_crypto::{RsaPrivateKey, RsaPublicKey};
use flicker_os::{NetLink, Os, OsConfig};
use flicker_tpm::{AikCertificate, PrivacyCa, SealedBlob};
use std::sync::Arc;
use std::time::Duration;

/// Which §6 application protocol a run drives. The last is a
/// replay-protected-storage workload — the only one that writes TPM NV,
/// so it is what torn-NV-write faults exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Remote rootkit detection (kernel hash + attestation).
    Rootkit,
    /// SSH password handling with attested setup.
    Ssh,
    /// Distributed-computing work slice (BOINC-style).
    Distcomp,
    /// Certificate authority signing inside a PAL.
    Ca,
    /// Replay-protected sealed storage (init → update → read).
    Storage,
}

impl AppKind {
    /// All kinds, in rotation order.
    pub const ALL: [AppKind; 5] = [
        AppKind::Rootkit,
        AppKind::Ssh,
        AppKind::Distcomp,
        AppKind::Ca,
        AppKind::Storage,
    ];

    /// Deterministic rotation: kind `seed % 5` of [`AppKind::ALL`].
    pub fn from_seed(seed: u64) -> Self {
        Self::ALL[(seed % Self::ALL.len() as u64) as usize]
    }

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Rootkit => "rootkit",
            AppKind::Ssh => "ssh",
            AppKind::Distcomp => "distcomp",
            AppKind::Ca => "ca",
            AppKind::Storage => "storage",
        }
    }
}

/// Boots the small test platform for `seed`.
pub fn boot(seed: u64) -> Os {
    Os::boot(OsConfig::fast_for_tests((seed % 211) as u8 + 1))
}

/// Certifies the platform's AIK under a 512-bit Privacy CA drawn from
/// `seed + 9_000` and returns the certificate and the CA's public key.
/// This is manufacture-time setup, so it runs before any fault is armed.
///
/// # Panics
///
/// Panics if provisioning fails, which it cannot on a healthy platform.
pub fn provision(os: &mut Os, seed: u64, label: &str) -> (AikCertificate, RsaPublicKey) {
    let mut rng = XorShiftRng::new(seed.wrapping_add(9_000));
    let mut pca = PrivacyCa::new(512, &mut rng);
    let cert = os
        .provision_attestation(&mut pca, label)
        .expect("fault-free provisioning")
        .clone();
    (cert, pca.public_key().clone())
}

/// One rootkit query (§6.1): the native detector, or the statically
/// verified bytecode one when `bytecode` is set. A report that calls the
/// pristine kernel compromised is an error.
pub fn rootkit(
    os: &mut Os,
    admin: &mut Administrator,
    cert: &AikCertificate,
    bytecode: bool,
) -> Result<(), String> {
    let report = if bytecode {
        admin.query_bytecode(os, cert)
    } else {
        admin.query(os, cert)
    }
    .map_err(|e| e.to_string())?;
    if !report.clean {
        return Err("pristine kernel reported compromised".into());
    }
    Ok(())
}

/// One SSH connection (§6.3.1): a fresh server for user `alice` with
/// `password` runs the attested setup, `client` verifies it and encrypts
/// the password under `rng`, and the server's login PAL must accept it.
pub fn ssh(
    os: &mut Os,
    link: &mut NetLink,
    client: &mut SshClient,
    cert: &AikCertificate,
    password: &[u8],
    rng: &mut XorShiftRng,
) -> Result<(), String> {
    let mut server = SshServer::new(vec![PasswdEntry::new("alice", password, b"fl1ck3r")]);
    let transcript = server
        .connection_setup(os, link, [0x55; 20])
        .map_err(|e| e.to_string())?;
    client
        .verify_setup(cert, &transcript)
        .map_err(|e| e.to_string())?;
    let nonce = server.issue_nonce();
    let ciphertext = client
        .encrypt_password(password, &nonce, rng)
        .map_err(|e| e.to_string())?;
    let outcome = server
        .login(os, link, "alice", &ciphertext, nonce)
        .map_err(|e| e.to_string())?;
    if !outcome.accepted {
        return Err("correct password rejected".into());
    }
    Ok(())
}

/// One BOINC-style work slice (§6.2): start a client on a small factoring
/// unit and run one 50 ms slice.
pub fn distcomp(os: &mut Os) -> Result<(), String> {
    let unit = WorkUnit {
        n: 91,
        lo: 2,
        hi: 64,
    };
    let (mut client, _) = BoincClient::start(os, unit).map_err(|e| e.to_string())?;
    client
        .run_slice(os, Duration::from_millis(50))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// One CA run (§6.3.2): initialize a CA, sign a CSR for `subject` over a
/// 512-bit key drawn from `rng`, and check the certificate.
pub fn ca(os: &mut Os, subject: &str, rng: &mut XorShiftRng) -> Result<(), String> {
    let policy = IssuancePolicy {
        allowed_suffixes: vec![".corp.example".into()],
        max_certificates: 8,
    };
    let (mut ca, _) = FlickerCa::init(os, policy).map_err(|e| e.to_string())?;
    let (subject_key, _) = RsaPrivateKey::generate(512, rng);
    let csr = Csr {
        subject: subject.into(),
        public_key: subject_key.public_key().clone(),
    };
    let report = ca.sign(os, &csr).map_err(|e| e.to_string())?;
    report
        .certificate
        .verify(&ca.public_key)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// One step of the replay-protected-storage PAL.
pub enum StoreAction {
    /// Define the counter space and seal the first version of the data.
    Init(Vec<u8>),
    /// Unseal the input blob, reseal new data.
    Update(Vec<u8>),
    /// Unseal the input blob and emit its data.
    Read,
}

/// The replay-protected-storage PAL (§4.3.2), rooting its counter at one
/// NV index. Each action writes its new blob, or the read data, to the
/// outputs.
struct StoragePal {
    nv_index: u32,
    action: StoreAction,
}

impl NativePal for StoragePal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let store = ReplayProtectedStorage::new(self.nv_index);
        match &self.action {
            StoreAction::Init(data) => {
                store.setup(ctx, &[0u8; 20])?;
                let blob = store.seal(ctx, data)?;
                ctx.write_output(blob.as_bytes())
            }
            StoreAction::Update(data) => {
                let old = SealedBlob::from_bytes(ctx.inputs().to_vec());
                let _ = store.unseal(ctx, &old)?;
                let blob = store.seal(ctx, data)?;
                ctx.write_output(blob.as_bytes())
            }
            StoreAction::Read => {
                let blob = SealedBlob::from_bytes(ctx.inputs().to_vec());
                let data = store.unseal(ctx, &blob)?;
                ctx.write_output(&data)
            }
        }
    }
}

/// Builds `payload` into an SLB and runs one session of it on `inputs`,
/// returning its outputs. A failed build, session or PAL is an error.
fn session(os: &mut Os, payload: PalPayload, inputs: Vec<u8>) -> Result<Vec<u8>, String> {
    let slb = SlbImage::build(payload, SlbOptions::default()).map_err(|e| e.to_string())?;
    let params = SessionParams::with_inputs(inputs);
    let rec = run_session(os, &slb, &params).map_err(|e| e.to_string())?;
    rec.pal_result.map_err(|e| format!("pal: {e}"))?;
    Ok(rec.outputs)
}

/// Runs one storage-PAL session under `identity` and returns its outputs.
/// Every action of one store must use the same identity: the NV space is
/// gated on the PAL's PCR 17 value, which only an identical measurement
/// reproduces.
pub fn storage_session(
    os: &mut Os,
    identity: &[u8],
    nv_index: u32,
    action: StoreAction,
    inputs: Vec<u8>,
) -> Result<Vec<u8>, String> {
    let program = Arc::new(StoragePal { nv_index, action });
    let identity = identity.to_vec();
    session(os, PalPayload::Native { identity, program }, inputs)
}

/// One storage chain: init `state-v1`, update to `state-v2`, read it back.
/// `escaped` holds the newest blob that reached the untrusted OS, with the
/// data it must decrypt to, for a recovery read after a fault. Init
/// redefines the NV space, so the chain restarts cleanly after a
/// mid-chain fault and many chains can share one machine.
pub fn storage(
    os: &mut Os,
    identity: &[u8],
    nv_index: u32,
    escaped: &mut Option<(Vec<u8>, Vec<u8>)>,
) -> Result<(), String> {
    let mut blob = Vec::new();
    for (action, data) in [
        (StoreAction::Init(b"state-v1".to_vec()), b"state-v1"),
        (StoreAction::Update(b"state-v2".to_vec()), b"state-v2"),
    ] {
        blob = storage_session(os, identity, nv_index, action, blob)?;
        *escaped = Some((blob.clone(), data.to_vec()));
    }
    if storage_session(os, identity, nv_index, StoreAction::Read, blob)? != b"state-v2" {
        return Err("read returned wrong data".into());
    }
    Ok(())
}

/// A disarmed probe session: the hello-world bytecode PAL must run end to
/// end and produce its known output on any healthy or recovered platform.
pub fn probe(os: &mut Os) -> Result<(), String> {
    let hello = PalPayload::Bytecode(flicker_palvm::progs::hello_world());
    if session(os, hello, Vec::new())? != b"Hello, world" {
        return Err("probe outputs wrong".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_rotation_matches_sweep_order() {
        assert_eq!(AppKind::from_seed(0), AppKind::Rootkit);
        assert_eq!(AppKind::from_seed(1), AppKind::Ssh);
        assert_eq!(AppKind::from_seed(2), AppKind::Distcomp);
        assert_eq!(AppKind::from_seed(3), AppKind::Ca);
        assert_eq!(AppKind::from_seed(4), AppKind::Storage);
        assert_eq!(AppKind::from_seed(5), AppKind::Rootkit);
    }
}
