//! `keygen`: RSA key generation inside PALs.
//!
//! Even operations are one Figure-9 SSH connection with a fresh server
//! (`connection_setup` → `verify_setup` → `login`); odd operations are one
//! CA `init` + `sign`. The flight recorder is off. An SSH operation is
//! correct when the setup attestation verifies and the correct password is
//! accepted; a CA operation when the issued certificate verifies under the
//! CA's key and names the requested subject.

use crate::closed_loop::{record_call, Workload};
use crate::metrics::Values;
use crate::platform::{eval_platform, mean_err_pct, mix, seeded_bytes20, Platform};
use crate::spans::Spans;
use flicker_apps::{
    Csr, FlickerCa, IssuancePolicy, LoginOutcome, PasswdEntry, SetupTranscript, SigningReport,
    SshClient, SshServer,
};
use flicker_bench::{op_total, paper};
use flicker_crypto::rng::XorShiftRng;
use flicker_crypto::RsaPrivateKey;
use flicker_os::{NetLink, Os};
use std::time::Duration;

/// Distinct SSH accounts (password + attestation nonce) made per run.
const ACCOUNTS: usize = 64;
/// Distinct certificate requests made per run. Each subject key is a
/// 512-bit RSA key generated before timing; CA operations cycle through
/// them (every operation initialises a fresh CA, so reuse saves no work).
const CSRS: usize = 16;
const USER: &str = "alice";
const SUBJECT_SUFFIX: &str = ".corp.example";

/// One SSH account: the server's `/etc/passwd` entry, the client's
/// password and the client's attestation nonce.
struct Account {
    entry: PasswdEntry,
    password: Vec<u8>,
    nonce: [u8; 20],
}

/// Client-side inputs.
pub struct Inputs {
    accounts: Vec<Account>,
    csrs: Vec<Csr>,
}

/// The platform plus the client-side trust anchors.
pub struct Keygen {
    platform: Platform,
    link: NetLink,
    /// The client's password-encryption padding.
    rng: XorShiftRng,
    policy: IssuancePolicy,
}

impl Keygen {
    fn ssh(
        &mut self,
        account: &Account,
        spans: &Spans,
    ) -> Result<(SetupTranscript, LoginOutcome), String> {
        let os = &mut self.platform.os;
        let mut server = SshServer::new(vec![account.entry.clone()]);
        let mut client = SshClient::new(self.platform.ca_public.clone());
        let transcript = spans
            .call("apps.ssh_setup", || {
                server.connection_setup(os, &mut self.link, account.nonce)
            })
            .map_err(|e| format!("ssh setup: {e}"))?;
        spans
            .call("apps.ssh_verify", || {
                client.verify_setup(&self.platform.cert, &transcript)
            })
            .map_err(|e| format!("ssh setup does not verify: {e}"))?;
        let nonce = server.issue_nonce();
        let ciphertext = client
            .encrypt_password(&account.password, &nonce, &mut self.rng)
            .map_err(|e| format!("ssh encrypt: {e}"))?;
        let outcome = spans
            .call("apps.ssh_login", || {
                server.login(os, &mut self.link, USER, &ciphertext, nonce)
            })
            .map_err(|e| format!("ssh login: {e}"))?;
        if !outcome.accepted {
            return Err("the correct password was rejected".into());
        }
        Ok((transcript, outcome))
    }

    fn ca(&mut self, csr: &Csr, spans: &Spans) -> Result<SigningReport, String> {
        let os = &mut self.platform.os;
        let (mut ca, _) = spans
            .call("apps.ca_init", || FlickerCa::init(os, self.policy.clone()))
            .map_err(|e| format!("ca init: {e}"))?;
        let report = spans
            .call("apps.ca_sign", || ca.sign(os, csr))
            .map_err(|e| format!("ca sign: {e}"))?;
        report
            .certificate
            .verify(&ca.public_key)
            .map_err(|e| format!("certificate does not verify: {e}"))?;
        if report.certificate.subject != csr.subject {
            return Err("certificate names another subject".into());
        }
        Ok(report)
    }
}

impl Workload for Keygen {
    const WINDOW_OPS: u64 = 16;
    const NOMINAL_OPS_PER_S: f64 = 12.0;
    type Inputs = Inputs;

    fn inputs(seed: u64) -> Inputs {
        let nonces = seeded_bytes20(mix(seed, 1), ACCOUNTS);
        let secrets = seeded_bytes20(mix(seed, 2), ACCOUNTS);
        let accounts = nonces
            .into_iter()
            .zip(secrets)
            .map(|(nonce, secret)| {
                let letters = |b: &[u8]| -> Vec<u8> { b.iter().map(|b| b'a' + b % 26).collect() };
                let (password, salt) = (letters(&secret[..12]), letters(&secret[12..20]));
                Account {
                    entry: PasswdEntry::new(USER, &password, &salt),
                    password,
                    nonce,
                }
            })
            .collect();
        let mut rng = XorShiftRng::new(mix(seed, 3));
        let csrs = (0..CSRS)
            .map(|i| {
                let (key, _) = RsaPrivateKey::generate(512, &mut rng);
                Csr {
                    subject: format!("host{i}{SUBJECT_SUFFIX}"),
                    public_key: key.public_key().clone(),
                }
            })
            .collect();
        Inputs { accounts, csrs }
    }

    fn setup(seed: u64, spans: &Spans) -> Result<Keygen, String> {
        let platform = eval_platform(seed, spans)?;
        let mut link = NetLink::paper_verifier_link(mix(seed, 2));
        link.set_clock(platform.os.clock());
        Ok(Keygen {
            platform,
            link,
            rng: XorShiftRng::new(mix(seed, 3)),
            policy: IssuancePolicy {
                allowed_suffixes: vec![SUBJECT_SUFFIX.into()],
                max_certificates: 8,
            },
        })
    }

    fn os(&mut self) -> &mut Os {
        &mut self.platform.os
    }

    fn op(&mut self, i: u64, inputs: &Inputs, spans: &Spans) -> Result<(), String> {
        let k = (i / 2) as usize;
        if i.is_multiple_of(2) {
            self.ssh(&inputs.accounts[k % ACCOUNTS], spans).map(|_| ())
        } else {
            self.ca(&inputs.csrs[k % CSRS], spans).map(|_| ())
        }
    }

    /// Figure 9a/9b, the §7.4.1 client latencies and the §7.4.2 signing
    /// latency, averaged over four connections and four CA requests.
    fn paper_err_pct(&mut self, inputs: &Inputs) -> Result<f64, String> {
        const TRIALS: usize = 4;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let mut repro: Vec<Vec<f64>> = vec![Vec::new(); 11];
        for t in 0..TRIALS {
            let (setup, login) = self.ssh(&inputs.accounts[t], &Spans::off())?;
            let (s1, s2) = (&setup.session, &login.session);
            let (log1, log2) = (s1.op_log(), s2.op_log());
            let signed = self.ca(&inputs.csrs[t], &Spans::off())?;
            let row = [
                ms(s1.timings.skinit),
                ms(op_total(&log1, "rsa1024_keygen")),
                ms(op_total(&log1, "seal")),
                ms(s1.timings.total),
                ms(s2.timings.skinit),
                ms(op_total(&log2, "unseal")),
                ms(op_total(&log2, "rsa1024_decrypt")),
                ms(s2.timings.total),
                ms(setup.time_to_prompt),
                ms(login.time_to_session),
                ms(signed.latency),
            ];
            for (acc, v) in repro.iter_mut().zip(row) {
                acc.push(v);
            }
        }
        let papers = paper::FIG9A
            .iter()
            .chain(paper::FIG9B)
            .map(|(_, p)| *p)
            .chain([paper::SSH_CLIENT.0, paper::SSH_CLIENT.1, paper::CA_SIGN]);
        let rows: Vec<(f64, f64)> = repro.iter().map(|v| mean(v)).zip(papers).collect();
        Ok(mean_err_pct(&rows))
    }

    fn record_calls(spans: &Spans, values: &mut Values) {
        for (span, metric) in [
            ("apps.ssh_setup", "apps.ssh_setup_ms"),
            ("apps.ssh_verify", "apps.ssh_verify_ms"),
            ("apps.ssh_login", "apps.ssh_login_ms"),
            ("apps.ca_init", "apps.ca_init_ms"),
            ("apps.ca_sign", "apps.ca_sign_ms"),
        ] {
            record_call(spans, values, span, metric, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::{run_pass, Budget};

    #[test]
    fn a_wrong_password_or_ca_key_fails_the_operation() {
        let mut inputs = Keygen::inputs(6);
        let mut w = Keygen::setup(6, &Spans::off()).unwrap();
        let ok = run_pass(&mut w, &inputs, Budget::Ops(2), false, &Spans::off());
        assert_eq!((ok.attempted, ok.failed), (2, 0), "{:?}", ok.first_error);

        // The client types a password the server does not hold.
        for a in &mut inputs.accounts {
            a.password[0] ^= 1;
        }
        let err = w.ssh(&inputs.accounts[0], &Spans::off()).unwrap_err();
        assert!(err.contains("rejected"), "{err}");

        // A certificate checked under another key does not verify.
        let signed = w.ca(&inputs.csrs[0], &Spans::off()).unwrap();
        let other = Keygen::inputs(7).csrs.remove(0).public_key;
        assert!(signed.certificate.verify(&other).is_err());
    }
}
