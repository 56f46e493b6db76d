//! Regenerates **Table 3**: impact of periodic rootkit detection on a
//! kernel build (7:22.6 of build work on the dual-core test machine).
//!
//! The detector session pauses the whole platform for ~37 ms (hashing-stub
//! SKINIT + kernel hash + extends); the 972.7 ms TPM quote runs *under the
//! resumed OS* and costs the build nothing (the TPM is not a CPU). The
//! paper's finding — detection "has negligible impact", with differences
//! lost in build-to-build noise — re-emerges from the model: we add the
//! same ±σ build noise the paper measured (its no-detection row has a
//! 2.6 s std-dev) and report mean ± std over five trials per period.

use crate::{eval_os, min_sec, paper, render_table};
use flicker_apps::rootkit::detector_slb;
use flicker_core::{run_session, SessionParams};
use flicker_crypto::{CryptoRng, HmacDrbg};
use flicker_os::{Job, Scheduler};
use std::fmt::{self, Write};
use std::time::Duration;

/// CPU work of the kernel build: 7:22.6 wall on 2 cores.
const BUILD_WALL: Duration = Duration::from_millis(442_600);
const TRIALS: usize = 5;

/// Simulates one build with detection every `period` (None = no detection);
/// returns wall time.
fn simulate_build(period: Option<Duration>, trial: u64) -> Duration {
    let mut os = eval_os(3);
    let clock = os.clock();

    // Build-to-build noise (cold caches, disk): ±N(0, ~1.2 s), matching the
    // paper's observed per-row std-devs (0.9-2.6 s).
    let mut drbg = HmacDrbg::new(&trial.to_be_bytes(), b"table3-noise");
    let noise_s = {
        // Sum of 12 uniforms ≈ normal(6, 1); scale to σ ≈ 1.2 s.
        let mut acc = 0.0f64;
        for _ in 0..12 {
            acc += drbg.next_u64() as f64 / u64::MAX as f64;
        }
        (acc - 6.0) * 1.2
    };
    let noisy_build = Duration::from_secs_f64((BUILD_WALL.as_secs_f64() + noise_s).max(1.0));
    // 2 cores x wall time of build CPU work.
    let mut sched = Scheduler::new(clock.clone(), 2);
    let job = sched.submit(Job::new("make -j2 vmlinux", noisy_build * 2));

    let (kbase, klen) = os.kernel_region();
    let mut inputs = Vec::new();
    inputs.extend_from_slice(&kbase.to_le_bytes());
    inputs.extend_from_slice(&(klen as u64).to_le_bytes());
    let slb = detector_slb();

    loop {
        let slice = period.unwrap_or(Duration::from_secs(3600));
        sched.run_for(slice);
        if sched.job(job).is_done() {
            return sched.job(job).finished_at.expect("done");
        }
        if period.is_some() {
            // The Flicker session pauses everything (cores descheduled,
            // interrupts off); the scheduler simply does not run during it
            // because the session advances the shared clock while the
            // scheduler is not granted time.
            let params = SessionParams {
                inputs: inputs.clone(),
                use_hashing_stub: true,
                ..Default::default()
            };
            let rec = run_session(&mut os, &slb, &params).expect("detector runs");
            assert!(rec.pal_result.is_ok());
            // The quote happens under the resumed OS and does not pause the
            // build; nothing to do here.
        }
    }
}

pub fn table3(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for &(period_s, paper_time, paper_std) in paper::TABLE3 {
        let period = period_s.map(Duration::from_secs);
        let samples: Vec<Duration> = (0..TRIALS as u64)
            .map(|t| simulate_build(period, t + period_s.unwrap_or(0)))
            .collect();
        let stats = crate::Stats::of(&samples);
        let label = match period_s {
            None => "No Detection".to_string(),
            Some(s) => format!("{}:{:02}", s / 60, s % 60),
        };
        rows.push(vec![
            label,
            paper_time.to_string(),
            format!("{paper_std:.1}"),
            min_sec(stats.mean),
            format!("{:.1}", stats.std_dev.as_secs_f64()),
        ]);
    }
    out.push_str(&render_table(
        "Table 3: Impact of the Rootkit Detector on kernel build time",
        &[
            "Detection Period",
            "paper [m:s]",
            "paper std [s]",
            "repro [m:s]",
            "repro std [s]",
        ],
        &rows,
    ));
    writeln!(
        out,
        "\nAs in the paper, the detector's ~37 ms pauses are far below the \
         build's run-to-run noise; even a 30 s period costs < 0.6 s of a \
         442 s build (0.13 %)."
    )
}
