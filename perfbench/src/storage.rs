//! `storage`: §4.3.2 replay-protected storage on one long-lived counter,
//! the write path.
//!
//! Operations alternate an update session (unseal the current blob, seal
//! a new value under the next counter version; the counter's NV write
//! lands when that blob is first unsealed) with a read session (unseal).
//! The flight recorder is on, as in every harness of the repository: each
//! window of [`Storage::WINDOW_OPS`] sessions gets a fresh recorder, well
//! under its ring capacity, and is audited when it closes. A read is
//! correct when it returns the last value written.

use crate::closed_loop::{record_call, Workload};
use crate::metrics::Values;
use crate::platform::{eval_platform, mean_err_pct, mix, seeded_bytes20, Platform};
use crate::spans::Spans;
use flicker_bench::{op_total, paper};
use flicker_core::{
    run_session, FlickerError, FlickerResult, NativePal, PalContext, PalPayload,
    ReplayProtectedStorage, SessionParams, SessionRecord, SlbImage, SlbOptions,
};
use flicker_os::Os;
use flicker_tpm::SealedBlob;
use std::sync::Arc;

/// NV index of the benchmark's counter.
const NV_INDEX: u32 = 0x0001_7000;
/// Distinct values written per run (updates cycle through them).
const VALUES: usize = 512;

const INIT: u8 = 0;
const UPDATE: u8 = 1;
const READ: u8 = 2;

/// The storage PAL. Inputs: a kind byte, then for `INIT` and `UPDATE` the
/// 20-byte value to seal, then for `UPDATE` and `READ` the current blob.
struct StoragePal;

impl NativePal for StoragePal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let store = ReplayProtectedStorage::new(NV_INDEX);
        let inputs = ctx.inputs().to_vec();
        let (&kind, rest) = inputs
            .split_first()
            .ok_or(FlickerError::Protocol("empty storage request"))?;
        match kind {
            INIT => {
                store.setup(ctx, &[0u8; 20])?;
                let blob = store.seal(ctx, rest)?;
                ctx.write_output(blob.as_bytes())
            }
            UPDATE if rest.len() > 20 => {
                let (value, blob) = rest.split_at(20);
                store.unseal(ctx, &SealedBlob::from_bytes(blob.to_vec()))?;
                let blob = store.seal(ctx, value)?;
                ctx.write_output(blob.as_bytes())
            }
            READ => {
                let value = store.unseal(ctx, &SealedBlob::from_bytes(rest.to_vec()))?;
                ctx.write_output(&value)
            }
            _ => Err(FlickerError::Protocol("bad storage request")),
        }
    }
}

/// Client-side inputs: the values to write.
pub struct Inputs {
    values: Vec<[u8; 20]>,
}

/// The platform, the storage SLB, and the client's view of the store.
pub struct Storage {
    platform: Platform,
    slb: SlbImage,
    /// The blob holding the latest value.
    blob: Vec<u8>,
    /// The latest value written.
    last: Vec<u8>,
}

impl Storage {
    fn session(
        &mut self,
        inputs: Vec<u8>,
        span: &'static str,
        spans: &Spans,
    ) -> Result<SessionRecord, String> {
        let os = &mut self.platform.os;
        let rec = spans
            .call(span, || {
                run_session(os, &self.slb, &SessionParams::with_inputs(inputs))
            })
            .map_err(|e| format!("session: {e}"))?;
        rec.pal_result
            .clone()
            .map_err(|e| format!("storage PAL: {e}"))?;
        Ok(rec)
    }

    fn update(&mut self, value: &[u8; 20], spans: &Spans) -> Result<SessionRecord, String> {
        let mut req = vec![UPDATE];
        req.extend_from_slice(value);
        req.extend_from_slice(&self.blob);
        let rec = self.session(req, "core.run_session_update", spans)?;
        self.blob = rec.outputs.clone();
        self.last = value.to_vec();
        Ok(rec)
    }

    fn read(&mut self, spans: &Spans) -> Result<SessionRecord, String> {
        let mut req = vec![READ];
        req.extend_from_slice(&self.blob);
        let rec = self.session(req, "core.run_session_read", spans)?;
        if rec.outputs != self.last {
            return Err("read returned a value other than the last one written".into());
        }
        Ok(rec)
    }
}

impl Workload for Storage {
    const WINDOW_OPS: u64 = 1000;
    const NOMINAL_OPS_PER_S: f64 = 15_000.0;
    const RECORDED: bool = true;
    type Inputs = Inputs;

    fn inputs(seed: u64) -> Inputs {
        Inputs {
            values: seeded_bytes20(mix(seed, 1), VALUES),
        }
    }

    fn setup(seed: u64, spans: &Spans) -> Result<Storage, String> {
        let platform = eval_platform(seed, spans)?;
        let slb = SlbImage::build(
            PalPayload::Native {
                identity: b"perfbench replay-protected storage".to_vec(),
                program: Arc::new(StoragePal),
            },
            SlbOptions::default(),
        )
        .map_err(|e| format!("storage SLB: {e}"))?;
        let mut w = Storage {
            platform,
            slb,
            blob: Vec::new(),
            last: Vec::new(),
        };
        let first = [0u8; 20];
        let mut req = vec![INIT];
        req.extend_from_slice(&first);
        w.blob = w.session(req, "core.run_session_init", spans)?.outputs;
        w.last = first.to_vec();
        Ok(w)
    }

    fn os(&mut self) -> &mut Os {
        &mut self.platform.os
    }

    fn op(&mut self, i: u64, inputs: &Inputs, spans: &Spans) -> Result<(), String> {
        if i.is_multiple_of(2) {
            self.update(&inputs.values[(i / 2) as usize % VALUES], spans)
        } else {
            self.read(spans)
        }
        .map(|_| ())
    }

    /// Table 4's unseal, over one update and one read session.
    fn paper_err_pct(&mut self, inputs: &Inputs) -> Result<f64, String> {
        let update = self.update(&inputs.values[0], &Spans::off())?;
        let read = self.read(&Spans::off())?;
        let rows: Vec<(f64, f64)> = [update, read]
            .iter()
            .map(|rec| {
                let unseal = op_total(&rec.op_log(), "unseal");
                (unseal.as_secs_f64() * 1e3, paper::TABLE4_UNSEAL)
            })
            .collect();
        Ok(mean_err_pct(&rows))
    }

    fn record_calls(spans: &Spans, values: &mut Values) {
        for (span, metric, p90) in [
            (
                "core.run_session_update",
                "core.run_session_update_ms",
                "core.run_session_update_ms_p90",
            ),
            (
                "core.run_session_read",
                "core.run_session_read_ms",
                "core.run_session_read_ms_p90",
            ),
        ] {
            record_call(spans, values, span, metric, Some(p90));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::{audit_window, run_pass, Budget};
    use flicker_trace::Trace;

    #[test]
    fn a_stale_read_fails() {
        let inputs = Storage::inputs(8);
        let mut w = Storage::setup(8, &Spans::off()).unwrap();
        let ok = run_pass(&mut w, &inputs, Budget::Ops(4), true, &Spans::off());
        assert_eq!((ok.attempted, ok.failed), (4, 0), "{:?}", ok.first_error);
        assert_eq!(ok.counts.dropped, 0);
        // The client expects a value it never wrote.
        w.last[0] ^= 1;
        assert!(w
            .read(&Spans::off())
            .unwrap_err()
            .contains("last one written"));
    }

    #[test]
    fn a_replayed_blob_fails() {
        let inputs = Storage::inputs(9);
        let mut w = Storage::setup(9, &Spans::off()).unwrap();
        let old = w.blob.clone();
        w.update(&inputs.values[1], &Spans::off()).unwrap();
        w.read(&Spans::off()).unwrap();
        w.update(&inputs.values[2], &Spans::off()).unwrap();
        w.read(&Spans::off()).unwrap();
        w.blob = old;
        assert!(
            w.read(&Spans::off()).is_err(),
            "an old blob must not unseal"
        );
    }

    #[test]
    fn a_truncated_window_fails_its_audit() {
        let inputs = Storage::inputs(10);
        let mut w = Storage::setup(10, &Spans::off()).unwrap();
        // A recorder too small for one session drops events, so the
        // window's audit is inconclusive and its operations fail.
        let trace = Trace::new();
        trace.set_event_capacity(8);
        w.os().set_tracer(trace.clone());
        w.op(0, &inputs, &Spans::off()).unwrap();
        w.os().clear_tracer();
        let err = audit_window(&trace, &Spans::off()).unwrap_err();
        assert!(err.contains("Inconclusive"), "{err}");
    }
}
