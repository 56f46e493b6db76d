//! Regenerates the **§7.4.2 CA evaluation**: certificate-signing latency
//! (paper: 906.2 ms average over 100 trials, dominated by Unseal; the RSA
//! signature itself ≈ 4.7 ms).

use crate::{eval_os, op_total, paper, render_table, Stats};
use flicker_apps::{Csr, FlickerCa, IssuancePolicy};
use flicker_crypto::rng::XorShiftRng;
use flicker_crypto::rsa::RsaPrivateKey;
use std::fmt::{self, Write};

pub fn ca_eval(out: &mut String) -> fmt::Result {
    const TRIALS: usize = 100;

    let mut os = eval_os(10);
    let policy = IssuancePolicy {
        allowed_suffixes: vec![".corp.example".to_string()],
        max_certificates: u64::MAX,
    };
    let (mut ca, init_rec) = FlickerCa::init(&mut os, policy).expect("CA init");
    writeln!(
        out,
        "CA initialization session: {:.1} ms (keygen {:.1} ms, seal {:.1} ms)",
        init_rec.timings.total.as_secs_f64() * 1e3,
        op_total(&init_rec.op_log(), "rsa1024_keygen").as_secs_f64() * 1e3,
        op_total(&init_rec.op_log(), "seal").as_secs_f64() * 1e3,
    )?;

    let mut rng = XorShiftRng::new(1010);
    let mut latency = Vec::new();
    let mut unseal = Vec::new();
    let mut sign_op = Vec::new();
    for i in 0..TRIALS {
        let (subject_key, _) = RsaPrivateKey::generate(512, &mut rng);
        let csr = Csr {
            subject: format!("host{i}.corp.example"),
            public_key: subject_key.public_key().clone(),
        };
        let report = ca.sign(&mut os, &csr).expect("sign");
        report
            .certificate
            .verify(&ca.public_key)
            .expect("valid cert");
        latency.push(report.latency);
        unseal.push(op_total(&report.session.op_log(), "unseal"));
        sign_op.push(op_total(&report.session.op_log(), "rsa1024_sign"));
    }

    let rows = vec![
        vec![
            "Total signing latency".to_string(),
            format!("{:.1}", paper::CA_SIGN),
            format!("{:.1}", Stats::of(&latency).mean_ms()),
            format!("{:.2}", Stats::of(&latency).std_ms()),
        ],
        vec![
            "Unseal".to_string(),
            "~905".to_string(),
            format!("{:.1}", Stats::of(&unseal).mean_ms()),
            format!("{:.2}", Stats::of(&unseal).std_ms()),
        ],
        vec![
            "RSA signature op".to_string(),
            format!("{:.1}", paper::CA_SIGN_OP),
            format!("{:.1}", Stats::of(&sign_op).mean_ms()),
            format!("{:.2}", Stats::of(&sign_op).std_ms()),
        ],
    ];
    out.push_str(&render_table(
        "§7.4.2: Certificate Authority signing (ms, 100 trials)",
        &["Operation", "paper", "repro mean", "repro std"],
        &rows,
    ));
    Ok(())
}
