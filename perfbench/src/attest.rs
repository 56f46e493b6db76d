//! `attest`: the Table-1 remote rootkit query, the read path.
//!
//! One operation: build the detector SLB (native and verified bytecode in
//! turn), run it through the §7.2 hashing stub, quote PCR 17 with the
//! tqd's AIK, and verify the quote against the expected PCR-17 chain. The
//! flight recorder is off. The operation is correct when the quote
//! verifies and the reported kernel hash is the known-good one.

use crate::closed_loop::{record_call, Workload};
use crate::metrics::Values;
use crate::platform::{eval_platform, mean_err_pct, mix, seeded_bytes20, Platform};
use crate::spans::Spans;
use flicker_apps::rootkit::{detector_slb, detector_slb_bytecode, known_good_hash};
use flicker_bench::{op_total, paper};
use flicker_core::{run_session, ExpectedSession, SessionParams, SessionRecord, Verifier};
use flicker_os::{NetLink, Os};
use flicker_tpm::PcrSelection;
use std::time::Duration;

/// Distinct verifier nonces made per run (operations cycle through them).
const NONCES: usize = 256;

/// Client-side inputs: the verifier's nonces.
pub struct Inputs {
    nonces: Vec<[u8; 20]>,
}

/// The attested platform and the remote verifier's state.
pub struct Attest {
    platform: Platform,
    verifier: Verifier,
    link: NetLink,
    known_good: [u8; 20],
}

/// Virtual-clock timings of one query, for the Table 1 rows.
struct Query {
    session: SessionRecord,
    quote: Duration,
    total: Duration,
}

impl Attest {
    fn query(&mut self, i: u64, nonce: [u8; 20], spans: &Spans) -> Result<Query, String> {
        let slb = spans.call("core.slb_build", || {
            if i.is_multiple_of(2) {
                detector_slb()
            } else {
                detector_slb_bytecode()
            }
        });
        let os = &mut self.platform.os;
        let clock = os.clock();
        let start = clock.now();
        self.link.deliver(&clock);
        let (kbase, klen) = os.kernel_region();
        let mut inputs = Vec::with_capacity(16);
        inputs.extend_from_slice(&kbase.to_le_bytes());
        inputs.extend_from_slice(&(klen as u64).to_le_bytes());
        let params = SessionParams {
            inputs,
            nonce,
            use_hashing_stub: true,
            ..Default::default()
        };
        let session = spans
            .call("core.run_session", || run_session(os, &slb, &params))
            .map_err(|e| format!("session: {e}"))?;
        session
            .pal_result
            .clone()
            .map_err(|e| format!("detector PAL: {e}"))?;
        let quote_start = clock.now();
        let quote = spans
            .call("os.tqd_quote", || {
                os.tqd_quote(nonce, &PcrSelection::pcr17())
            })
            .map_err(|e| format!("quote: {e}"))?;
        let quote_time = clock.now() - quote_start;
        self.link.deliver(&clock);

        let kernel_hash: [u8; 20] = session
            .outputs
            .as_slice()
            .try_into()
            .map_err(|_| "detector output is not a SHA-1 digest".to_string())?;
        let expected = ExpectedSession {
            slb: &slb,
            slb_base: params.slb_base,
            inputs: &params.inputs,
            outputs: &session.outputs,
            nonce,
            used_hashing_stub: true,
        };
        spans
            .call("core.verify_quote", || {
                self.verifier.verify_with_extends(
                    &self.platform.cert,
                    &quote,
                    &expected,
                    &[kernel_hash],
                )
            })
            .map_err(|e| format!("quote does not verify: {e}"))?;
        if kernel_hash != self.known_good {
            return Err("kernel hash differs from the known-good hash".into());
        }
        Ok(Query {
            session,
            quote: quote_time,
            total: clock.now() - start,
        })
    }
}

impl Workload for Attest {
    const WINDOW_OPS: u64 = 32;
    const NOMINAL_OPS_PER_S: f64 = 70.0;
    type Inputs = Inputs;

    fn inputs(seed: u64) -> Inputs {
        Inputs {
            nonces: seeded_bytes20(mix(seed, 1), NONCES),
        }
    }

    fn setup(seed: u64, spans: &Spans) -> Result<Attest, String> {
        let platform = eval_platform(seed, spans)?;
        let mut link = NetLink::paper_verifier_link(mix(seed, 2));
        link.set_clock(platform.os.clock());
        // The administrator's record of the fleet's pristine kernel.
        let known_good = known_good_hash(&platform.os);
        Ok(Attest {
            verifier: Verifier::new(platform.ca_public.clone()),
            platform,
            link,
            known_good,
        })
    }

    fn os(&mut self) -> &mut Os {
        &mut self.platform.os
    }

    fn op(&mut self, i: u64, inputs: &Inputs, spans: &Spans) -> Result<(), String> {
        let nonce = inputs.nonces[i as usize % NONCES];
        self.query(i, nonce, spans).map(|_| ())
    }

    /// Table 1 over one native and one bytecode query.
    fn paper_err_pct(&mut self, inputs: &Inputs) -> Result<f64, String> {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut rows = Vec::new();
        for i in 0..2 {
            let q = self.query(i, inputs.nonces[i as usize], &Spans::off())?;
            let log = q.session.op_log();
            let repro = [
                ms(q.session.timings.skinit),
                ms(op_total(&log, "pcr_extend")),
                ms(op_total(&log, "sha1")),
                ms(q.quote),
                ms(q.total),
            ];
            rows.extend(repro.iter().zip(paper::TABLE1).map(|(r, (_, p))| (*r, *p)));
        }
        Ok(mean_err_pct(&rows))
    }

    fn record_calls(spans: &Spans, values: &mut Values) {
        for (span, metric, p90) in [
            (
                "core.slb_build",
                "core.slb_build_ms",
                "core.slb_build_ms_p90",
            ),
            (
                "core.run_session",
                "core.run_session_ms",
                "core.run_session_ms_p90",
            ),
            ("os.tqd_quote", "os.tqd_quote_ms", "os.tqd_quote_ms_p90"),
            (
                "core.verify_quote",
                "core.verify_quote_ms",
                "core.verify_quote_ms_p90",
            ),
        ] {
            record_call(spans, values, span, metric, Some(p90));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::{run_pass, Budget};

    #[test]
    fn a_wrong_known_good_hash_fails_every_operation() {
        let inputs = Attest::inputs(3);
        let mut w = Attest::setup(3, &Spans::off()).unwrap();
        let ok = run_pass(&mut w, &inputs, Budget::Ops(2), false, &Spans::off());
        assert_eq!((ok.attempted, ok.failed), (2, 0), "{:?}", ok.first_error);
        w.known_good[0] ^= 1;
        let bad = run_pass(&mut w, &inputs, Budget::Ops(2), false, &Spans::off());
        assert_eq!((bad.attempted, bad.failed), (2, 2));
        assert!(bad.first_error.unwrap().contains("known-good"));
    }

    #[test]
    fn a_quote_from_another_platform_fails_verification() {
        let inputs = Attest::inputs(4);
        let mut w = Attest::setup(4, &Spans::off()).unwrap();
        // A verifier trusting a different Privacy CA rejects the AIK.
        w.verifier = Verifier::new(Attest::setup(5, &Spans::off()).unwrap().platform.ca_public);
        let bad = run_pass(&mut w, &inputs, Budget::Ops(1), false, &Spans::off());
        assert_eq!(bad.failed, 1);
        assert!(bad.first_error.unwrap().contains("does not verify"));
    }
}
