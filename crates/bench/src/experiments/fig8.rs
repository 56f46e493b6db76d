//! Regenerates **Figure 8**: Flicker efficiency vs k-way replication as a
//! function of user latency.
//!
//! The per-session overhead is *measured* (one real session of the BOINC
//! PAL), then the efficiency curve `(L - overhead) / L` is swept over the
//! figure's 1-10 s x-axis and compared with the flat `1/k` replication
//! lines.

use super::distcomp_slice;
use crate::{eval_os, render_table};
use flicker_apps::{flicker_efficiency, replication_efficiency};
use std::fmt::{self, Write};
use std::time::Duration;

pub fn fig8(out: &mut String) -> fmt::Result {
    // Measure the real per-session overhead of a continuation session.
    let overhead = distcomp_slice(&mut eval_os(8), Duration::from_secs(1)).overhead;
    writeln!(
        out,
        "Measured per-session Flicker overhead: {:.1} ms (paper: ~912.6 ms \
         = 14.3 SKINIT + 898.3 Unseal)",
        overhead.as_secs_f64() * 1e3
    )?;

    let mut rows = Vec::new();
    for latency_s in 1..=10u64 {
        let latency = Duration::from_secs(latency_s);
        let f = flicker_efficiency(latency, overhead);
        rows.push(vec![
            format!("{latency_s}"),
            format!("{:.2}", f),
            format!("{:.2}", replication_efficiency(3)),
            format!("{:.2}", replication_efficiency(5)),
            format!("{:.2}", replication_efficiency(7)),
            if f > replication_efficiency(3) {
                "Flicker"
            } else {
                "3-way"
            }
            .to_string(),
        ]);
    }
    out.push_str(&render_table(
        "Figure 8: Efficiency vs user latency",
        &[
            "Latency [s]",
            "Flicker",
            "3-way",
            "5-way",
            "7-way",
            "winner",
        ],
        &rows,
    ));

    // Locate the crossover with 3-way replication.
    let mut lo = 0.0f64;
    let mut hi = 10.0f64;
    for _ in 0..50 {
        let mid = (lo + hi) / 2.0;
        if flicker_efficiency(Duration::from_secs_f64(mid), overhead) > replication_efficiency(3) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    writeln!(
        out,
        "\nFlicker overtakes 3-way replication at a user latency of {:.2} s \
         (paper: 'a two second user latency allows a more efficient \
         distributed application than replicating to three or more \
         machines').",
        hi
    )
}
