//! Regenerates **Figure 9**: server-side breakdown of the two SSH PALs,
//! plus the §7.4.1 client-perceived latencies.

use crate::{op_total, paper, provisioned_eval_os, render_table, Stats};
use flicker_crypto::rng::XorShiftRng;
use flicker_os::NetLink;
use std::fmt::{self, Write};
use std::time::Duration;

pub fn fig9(out: &mut String) -> fmt::Result {
    const TRIALS: usize = 100;

    let (mut os, cert, ca_pub) = provisioned_eval_os(9);
    let mut link = NetLink::paper_verifier_link(9);
    let mut rng = XorShiftRng::new(909);

    let mut pal1_skinit = Vec::new();
    let mut pal1_keygen = Vec::new();
    let mut pal1_seal = Vec::new();
    let mut pal1_total = Vec::new();
    let mut to_prompt = Vec::new();

    let mut pal2_skinit = Vec::new();
    let mut pal2_unseal = Vec::new();
    let mut pal2_decrypt = Vec::new();
    let mut pal2_total = Vec::new();
    let mut to_session = Vec::new();

    for trial in 0..TRIALS {
        let mut server = flicker_apps::SshServer::new(vec![flicker_apps::PasswdEntry::new(
            "alice", b"hunter2", b"fl1ck3r",
        )]);
        let mut client = flicker_apps::SshClient::new(ca_pub.clone());

        let mut att_nonce = [0u8; 20];
        att_nonce[..8].copy_from_slice(&(trial as u64).to_be_bytes());
        let transcript = server
            .connection_setup(&mut os, &mut link, att_nonce)
            .expect("setup");
        client.verify_setup(&cert, &transcript).expect("verified");

        pal1_skinit.push(transcript.session.timings.skinit);
        pal1_keygen.push(op_total(&transcript.session.op_log(), "rsa1024_keygen"));
        pal1_seal.push(op_total(&transcript.session.op_log(), "seal"));
        pal1_total.push(transcript.session.timings.total);
        to_prompt.push(transcript.time_to_prompt);

        let nonce = server.issue_nonce();
        let ct = client
            .encrypt_password(b"hunter2", &nonce, &mut rng)
            .expect("encrypt");
        let outcome = server
            .login(&mut os, &mut link, "alice", &ct, nonce)
            .expect("login runs");
        assert!(outcome.accepted);

        pal2_skinit.push(outcome.session.timings.skinit);
        pal2_unseal.push(op_total(&outcome.session.op_log(), "unseal"));
        pal2_decrypt.push(op_total(&outcome.session.op_log(), "rsa1024_decrypt"));
        pal2_total.push(outcome.session.timings.total);
        to_session.push(outcome.time_to_session);
    }

    let render = |title: &str, rows: &[(&str, &Vec<Duration>)], paper_rows: &[(&str, f64)]| {
        let table: Vec<Vec<String>> = rows
            .iter()
            .zip(paper_rows.iter())
            .map(|((name, samples), (pname, pval))| {
                assert_eq!(name, pname);
                let s = Stats::of(samples);
                vec![
                    name.to_string(),
                    format!("{pval:.1}"),
                    format!("{:.1}", s.mean_ms()),
                    format!("{:.1}", s.std_ms()),
                ]
            })
            .collect();
        render_table(
            title,
            &["Operation", "paper", "repro mean", "repro std"],
            &table,
        )
    };

    out.push_str(&render(
        "Figure 9a: SSH PAL 1 (setup) server-side breakdown (ms)",
        &[
            ("SKINIT", &pal1_skinit),
            ("Key Gen", &pal1_keygen),
            ("Seal", &pal1_seal),
            ("Total Time", &pal1_total),
        ],
        paper::FIG9A,
    ));
    let kg = Stats::of(&pal1_keygen);
    writeln!(
        out,
        "Key Gen coefficient of variation: {:.0}% (paper: ~14%; the repro's \
         variance comes from the same geometric prime search, charged per \
         Miller-Rabin round)",
        100.0 * kg.std_ms() / kg.mean_ms()
    )?;

    out.push_str(&render(
        "Figure 9b: SSH PAL 2 (login) server-side breakdown (ms)",
        &[
            ("SKINIT", &pal2_skinit),
            ("Unseal", &pal2_unseal),
            ("Decrypt", &pal2_decrypt),
            ("Total Time", &pal2_total),
        ],
        paper::FIG9B,
    ));

    writeln!(
        out,
        "\nClient-perceived latencies (ms): to password prompt paper {:.0} / repro {:.0}; \
         password-to-session paper {:.0} / repro {:.0}.",
        paper::SSH_CLIENT.0,
        Stats::of(&to_prompt).mean_ms(),
        paper::SSH_CLIENT.1,
        Stats::of(&to_session).mean_ms(),
    )?;
    writeln!(
        out,
        "(Unmodified OpenSSH: 210 ms / 10 ms — the delta is the price of a \
         password that never exists in cleartext outside a PAL.)"
    )
}
