//! The closed loop shared by the single-platform workloads
//! (`attest`, `keygen`, `storage`): one client thread, one provisioned
//! platform, one operation at a time.

use crate::metrics::Values;
use crate::platform::{peak_rss_mb, platform_seed, Counts, PLATFORM_SEED};
use crate::spans::{median, percentile, Spans};
use crate::{Config, Outcome};
use flicker_os::Os;
use flicker_trace::{audit, Trace};
use std::time::Instant;

/// Platforms built per run; `setup_s` is their median set-up time.
const SETUPS: u64 = 9;

/// A workload driven one operation at a time on one platform.
pub trait Workload: Sized {
    /// Operations per measurement window. A recorded window gets a fresh
    /// flight recorder, so it must stay below the ring's capacity.
    const WINDOW_OPS: u64;
    /// Host operations per second assumed when sizing the fixed-count
    /// passes of the layer-timing run. Only run length depends on it.
    const NOMINAL_OPS_PER_S: f64;
    /// Whether the end-to-end pass runs with the flight recorder on, each
    /// window audited.
    const RECORDED: bool = false;
    /// Inputs made on the client side, from the seed, before timing.
    type Inputs;

    /// Makes the client-side inputs for `seed`.
    fn inputs(seed: u64) -> Self::Inputs;
    /// Builds the platform for `seed` (the set-up that `setup_s` times).
    fn setup(seed: u64, spans: &Spans) -> Result<Self, String>;
    /// The platform's OS, where the flight recorder is installed.
    fn os(&mut self) -> &mut Os;
    /// Runs operation `i` and checks its result.
    fn op(&mut self, i: u64, inputs: &Self::Inputs, spans: &Spans) -> Result<(), String>;
    /// Runs the paper-row operations and returns the mean error against
    /// the paper, in percent, on the virtual clock.
    fn paper_err_pct(&mut self, inputs: &Self::Inputs) -> Result<f64, String>;
    /// Records the medians of this workload's timed calls.
    fn record_calls(spans: &Spans, values: &mut Values);
}

/// How long a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole windows until this many host seconds have passed.
    Seconds(f64),
    /// Exactly this many operations.
    Ops(u64),
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations run.
    pub attempted: u64,
    /// Operations whose check failed, or whose window's audit did.
    pub failed: u64,
    /// Correct operations per second, one entry per window.
    pub window_rates: Vec<f64>,
    /// Host seconds of the whole pass.
    pub secs: f64,
    /// Work the crates counted.
    pub counts: Counts,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

impl Pass {
    /// Correct operations per host second over the whole pass.
    pub fn rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.secs
    }
}

/// Runs operations on `w` until `budget` is spent. With `recorded`, each
/// window runs under a fresh flight recorder whose counters are added up;
/// for a [`Workload::RECORDED`] workload each window's recording is also
/// audited, and every operation of a window that is not `Clean` fails.
pub fn run_pass<W: Workload>(
    w: &mut W,
    inputs: &W::Inputs,
    budget: Budget,
    recorded: bool,
    spans: &Spans,
) -> Pass {
    let mut pass = Pass::default();
    let crypto_before = flicker_crypto::cost::snapshot();
    let start = Instant::now();
    let mut i = 0;
    loop {
        let n = match budget {
            Budget::Seconds(s) if start.elapsed().as_secs_f64() >= s => break,
            Budget::Seconds(_) => W::WINDOW_OPS,
            Budget::Ops(total) if i >= total => break,
            Budget::Ops(total) => W::WINDOW_OPS.min(total - i),
        };
        let window = Instant::now();
        let trace = recorded.then(|| {
            let trace = Trace::new();
            w.os().set_tracer(trace.clone());
            trace
        });
        let mut failed = 0;
        for _ in 0..n {
            if let Err(e) = spans.op(i, || w.op(i, inputs, spans)) {
                failed += 1;
                pass.first_error.get_or_insert(format!("op {i}: {e}"));
            }
            i += 1;
        }
        if let Some(trace) = trace {
            w.os().clear_tracer();
            if W::RECORDED {
                if let Err(e) = audit_window(&trace, spans) {
                    failed = n;
                    pass.first_error
                        .get_or_insert(format!("window ending at op {i}: {e}"));
                }
            }
            pass.counts.add_trace(&trace);
        }
        pass.window_rates
            .push((n - failed) as f64 / window.elapsed().as_secs_f64());
        pass.attempted += n;
        pass.failed += failed;
    }
    pass.secs = start.elapsed().as_secs_f64();
    pass.counts.crypto = flicker_crypto::cost::snapshot().since(&crypto_before);
    pass
}

/// Audits one window's flight record; anything but `Clean` (violations,
/// or events dropped from the ring) is an error.
pub fn audit_window(trace: &Trace, spans: &Spans) -> Result<(), String> {
    let verdict = spans.call("trace.audit", || audit::audit_trace(trace));
    if verdict.is_clean() {
        Ok(())
    } else {
        Err(format!("audit not clean: {verdict:?}"))
    }
}

/// Runs workload `W` as `cfg` asks: the end-to-end run with `--trace 0`,
/// the layer-timing run with `--trace 1`.
pub fn run<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    let inputs = W::inputs(cfg.seed);
    let spans = if cfg.trace { Spans::on() } else { Spans::off() };
    let mut out = Outcome::default();

    // Set-up, several times, over a fixed set of platforms: the platform is
    // the system under test and the seed makes only the client's inputs, so
    // every run repeats the same RSA key searches in set-up and in PALs.
    // The first platform also measures `paper_err_pct` on fixed inputs; the
    // last one serves the operations.
    let mut setup_secs = Vec::new();
    let mut paper_err = None;
    let mut platform = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let mut w = spans.setup(|| W::setup(platform_seed(k), &spans))?;
        setup_secs.push(t.elapsed().as_secs_f64());
        if k == 0 && !cfg.trace {
            paper_err = Some(w.paper_err_pct(&W::inputs(PLATFORM_SEED))?);
        }
        platform = Some(w);
    }
    let mut platform = platform.expect("at least one set-up");
    let last_seed = platform_seed(SETUPS - 1);

    if !cfg.trace {
        let pass = run_pass(
            &mut platform,
            &inputs,
            Budget::Seconds(cfg.seconds),
            W::RECORDED,
            &Spans::off(),
        );
        out.add(&pass);
        out.values.set("ops_per_s", pass.rate());
        out.values.set("setup_s", median(&setup_secs));
        out.values.set("peak_rss_mb", peak_rss_mb()?);
        out.values
            .set("paper_err_pct", paper_err.expect("measured when untraced"));
        let q = |p| percentile(&pass.window_rates, p);
        out.log.push(format!(
            "{} windows, {:.3} s, mean rate {:.3}/s, window rate p10/p25/p50/p75/p90 \
             {:.3}/{:.3}/{:.3}/{:.3}/{:.3}; set-up samples {:?}",
            pass.window_rates.len(),
            pass.secs,
            pass.rate(),
            q(10.0),
            q(25.0),
            q(50.0),
            q(75.0),
            q(90.0),
            setup_secs
        ));
        return Ok(out);
    }

    // Layer-timing run: fixed-count passes over identical platforms, so the
    // counts repeat exactly for a seed and the passes compare like for like.
    let passes = if W::RECORDED { 3.0 } else { 2.0 };
    let ops = ((W::NOMINAL_OPS_PER_S * cfg.seconds / passes).round() as u64).max(2);
    let plain = run_pass(
        &mut platform,
        &inputs,
        Budget::Ops(ops),
        W::RECORDED,
        &Spans::off(),
    );
    out.add(&plain);
    if W::RECORDED {
        let mut bare = W::setup(last_seed, &Spans::off())?;
        let unrecorded = run_pass(&mut bare, &inputs, Budget::Ops(ops), false, &Spans::off());
        out.add(&unrecorded);
        out.values.set(
            "trace.recorder_overhead_pct",
            100.0 * (unrecorded.rate() / plain.rate() - 1.0),
        );
    }
    let mut traced = spans.setup(|| W::setup(last_seed, &spans))?;
    let pass = run_pass(&mut traced, &inputs, Budget::Ops(ops), true, &spans);
    out.add(&pass);
    out.values.set(
        "bench.tracing_overhead_pct",
        100.0 * (plain.rate() / pass.rate() - 1.0),
    );
    for (span, metric) in [
        ("os.boot", "os.boot_ms"),
        ("os.provision", "os.provision_ms"),
        ("tpm.privacy_ca", "tpm.privacy_ca_ms"),
        ("trace.audit", "trace.audit_ms"),
    ] {
        record_call(&spans, &mut out.values, span, metric, None);
    }
    W::record_calls(&spans, &mut out.values);
    pass.counts.record(ops, true, &mut out.values);
    let by_layer = spans.self_secs_by_layer();
    out.values.set(
        "bench.self_ms_per_op",
        1e3 * by_layer.get("bench").copied().unwrap_or(0.0) / ops as f64,
    );
    out.log.push(format!(
        "layer-timing: {ops} ops per pass; untraced {:.3}/s, traced {:.3}/s",
        plain.rate(),
        pass.rate()
    ));
    out.log.push(format!(
        "self time per op by layer (ms): {}",
        by_layer
            .iter()
            .map(|(l, s)| format!("{l} {:.4}", 1e3 * s / ops as f64))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.log
        .push(format!("counts over {ops} traced ops: {:?}", pass.counts));
    out.spans = Some(spans);
    Ok(out)
}

/// Records the median (and, with `p90`, the 90th percentile) of the
/// spans named `span`, in milliseconds, under `metric`.
pub fn record_call(
    spans: &Spans,
    values: &mut Values,
    span: &str,
    metric: &'static str,
    p90: Option<&'static str>,
) {
    let d = spans.durations(span);
    if d.is_empty() {
        return;
    }
    values.set(metric, 1e3 * median(&d));
    if let Some(p90) = p90 {
        values.set(p90, 1e3 * percentile(&d, 90.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::Attest;
    use crate::keygen::Keygen;
    use crate::storage::Storage;

    /// Two layer-timing passes of `ops` operations on the same seed count
    /// exactly the same work, and two reference platforms give the same
    /// `paper_err_pct`.
    fn repeats_exactly<W: Workload>(ops: u64) {
        let inputs = W::inputs(77);
        let traced_pass = || {
            let mut w = W::setup(platform_seed(SETUPS - 1), &Spans::off()).unwrap();
            run_pass(&mut w, &inputs, Budget::Ops(ops), true, &Spans::on())
        };
        let (a, b) = (traced_pass(), traced_pass());
        assert_eq!((a.attempted, a.failed), (ops, 0), "{:?}", a.first_error);
        assert_eq!(a.counts, b.counts);
        assert!(a.counts.tpm_commands > 0 && a.counts.events > 0);

        let paper_err = || {
            let mut w = W::setup(platform_seed(0), &Spans::off()).unwrap();
            w.paper_err_pct(&W::inputs(PLATFORM_SEED)).unwrap()
        };
        let err = paper_err();
        assert!(err > 0.0);
        assert_eq!(err.to_bits(), paper_err().to_bits());
    }

    #[test]
    fn attest_repeats_exactly() {
        repeats_exactly::<Attest>(4);
    }

    #[test]
    fn keygen_repeats_exactly() {
        repeats_exactly::<Keygen>(4);
    }

    #[test]
    fn storage_repeats_exactly() {
        repeats_exactly::<Storage>(40);
    }
}
