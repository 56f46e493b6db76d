//! Regenerates **Table 4**: Flicker overhead for the distributed-computing
//! application at varying work-slice lengths.

use super::distcomp_slice;
use crate::{eval_os, op_total, paper, render_table};
use std::fmt::{self, Write};
use std::time::Duration;

pub fn table4(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for &(work_ms, paper_overhead_pct) in paper::TABLE4 {
        let report = distcomp_slice(&mut eval_os(4), Duration::from_millis(work_ms));

        let skinit = report.session.timings.skinit;
        let unseal = op_total(&report.session.op_log(), "unseal");
        let overhead_pct =
            100.0 * report.overhead.as_secs_f64() / report.session.timings.total.as_secs_f64();

        rows.push(vec![
            format!("{work_ms}"),
            format!("{:.1}", skinit.as_secs_f64() * 1e3),
            format!("{:.1}", unseal.as_secs_f64() * 1e3),
            format!("{paper_overhead_pct:.0}%"),
            format!("{overhead_pct:.0}%"),
        ]);
    }
    out.push_str(&render_table(
        "Table 4: Distributed-computing operations vs work-slice length",
        &[
            "App work [ms]",
            "SKINIT [ms]",
            "Unseal [ms]",
            "paper overhead",
            "repro overhead",
        ],
        &rows,
    ));
    writeln!(
        out,
        "\nPaper constants: SKINIT {} ms (hashing-stub launch), Unseal {} ms.",
        paper::TABLE4_SKINIT,
        paper::TABLE4_UNSEAL
    )
}
