//! Hardware-outlook ablation (§7's recurring "in concurrent work \[19\] we
//! identify hardware modifications that improve performance by up to six
//! orders of magnitude"): reruns the headline experiments under three
//! hardware profiles — the paper's Broadcom TPM, the faster Infineon the
//! paper cites, and the \[19\]-style future hardware.

use super::distcomp_slice;
use crate::{render_table, EVAL_TPM_KEY_BITS};
use flicker_apps::rootkit::{known_good_hash, Administrator};
use flicker_apps::{PasswdEntry, SshClient, SshServer};
use flicker_crypto::rng::XorShiftRng;
use flicker_machine::SkinitCostModel;
use flicker_os::{NetLink, Os, OsConfig};
use flicker_tpm::{PrivacyCa, TpmTimingProfile};
use std::fmt::{self, Write};
use std::time::Duration;

struct ProfileResult {
    name: &'static str,
    rootkit_query: Duration,
    ssh_login: Duration,
    distcomp_overhead: Duration,
    fig8_crossover_s: f64,
}

fn run_profile(
    name: &'static str,
    timing: TpmTimingProfile,
    skinit_cost: SkinitCostModel,
) -> ProfileResult {
    let mut config = OsConfig::default();
    config.machine.tpm.key_bits = EVAL_TPM_KEY_BITS;
    config.machine.tpm.timing = timing;
    config.machine.skinit_cost = skinit_cost;
    if name == "Future [19]" {
        // Future hardware also accelerates the CPU-side SHA-1 (measurement
        // engines at memory bandwidth).
        config.machine.cpu_cost.sha1_per_byte = Duration::from_nanos(1);
    }
    let mut rng = XorShiftRng::new(4242);
    let mut ca = PrivacyCa::new(EVAL_TPM_KEY_BITS, &mut rng);
    let mut os = Os::boot(config);
    os.provision_attestation(&mut ca, "ablation").unwrap();
    let cert = os.aik_certificate().unwrap().clone();

    // Rootkit query.
    let mut admin = Administrator::new(
        ca.public_key().clone(),
        known_good_hash(&os),
        NetLink::paper_verifier_link(1),
    );
    let rootkit_query = admin.query(&mut os, &cert).unwrap().query_latency;

    // SSH login (PAL 2 total).
    let mut server = SshServer::new(vec![PasswdEntry::new("alice", b"pw", b"salt")]);
    let mut client = SshClient::new(ca.public_key().clone());
    let mut link = NetLink::paper_verifier_link(2);
    let transcript = server
        .connection_setup(&mut os, &mut link, [1; 20])
        .unwrap();
    client.verify_setup(&cert, &transcript).unwrap();
    let nonce = server.issue_nonce();
    let ct = client.encrypt_password(b"pw", &nonce, &mut rng).unwrap();
    let ssh_login = server
        .login(&mut os, &mut link, "alice", &ct, nonce)
        .unwrap()
        .session
        .timings
        .total;

    // Distributed-computing per-session overhead + Figure 8 crossover.
    let overhead = distcomp_slice(&mut os, Duration::from_secs(1)).overhead;
    // Crossover with 3-way replication: eff(L) = 1/3 ⇒ L = 1.5 * overhead.
    let fig8_crossover_s = 1.5 * overhead.as_secs_f64();

    ProfileResult {
        name,
        rootkit_query,
        ssh_login,
        distcomp_overhead: overhead,
        fig8_crossover_s,
    }
}

pub fn ablation_hw(out: &mut String) -> fmt::Result {
    let profiles = [
        run_profile(
            "Broadcom (paper)",
            TpmTimingProfile::broadcom_bcm0102(),
            SkinitCostModel::amd_dc5750(),
        ),
        run_profile(
            "Infineon",
            TpmTimingProfile::infineon(),
            SkinitCostModel::amd_dc5750(),
        ),
        run_profile(
            "Future [19]",
            TpmTimingProfile::future_hardware(),
            SkinitCostModel::future_hardware(),
        ),
    ];

    let rows: Vec<Vec<String>> = profiles
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.1}", p.rootkit_query.as_secs_f64() * 1e3),
                format!("{:.1}", p.ssh_login.as_secs_f64() * 1e3),
                format!("{:.1}", p.distcomp_overhead.as_secs_f64() * 1e3),
                format!("{:.3}", p.fig8_crossover_s),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Hardware ablation: headline results under three TPM/launch profiles (ms)",
        &[
            "Profile",
            "rootkit query",
            "SSH login PAL",
            "distcomp ovh/session",
            "Fig8 crossover [s]",
        ],
        &rows,
    ));

    let speedup =
        profiles[0].distcomp_overhead.as_secs_f64() / profiles[2].distcomp_overhead.as_secs_f64();
    writeln!(
        out,
        "\nFuture-hardware speedup on per-session overhead: {speedup:.0}x — \
         with [19]-style support the Figure 8 crossover collapses from \
         ~1.4 s to ~{:.0} ms, making Flicker strictly better than \
         replication at any practical latency.",
        profiles[2].fig8_crossover_s * 1e3
    )
}
