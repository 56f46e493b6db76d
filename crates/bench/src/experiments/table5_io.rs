//! Regenerates the **§7.5 suspended-OS experiment**: large file copies
//! while the distributed-computing application runs in back-to-back
//! Flicker sessions (paper: 8.3 s sessions, ~37 ms OS windows, kernel
//! reported no I/O errors and `md5sum` confirmed every copy intact).
//!
//! Adds the failure-injection rows the paper only argues about: a
//! free-running (non-host-paced) source overflows its device buffer during
//! long suspensions, corrupting the stream — the reason Flicker-aware
//! drivers are proposed as future work.
//!
//! The "md5 integrity" column keeps the paper's name for the check; the
//! model decides it by delivery order, which agrees with comparing MD5
//! digests of its offset-determined bytes (see `flicker_os::blockdev`).

use crate::render_table;
use flicker_os::{CopyConfig, CopyExperiment, CopyReport, Pacing};
use std::fmt::{self, Write};
use std::time::Duration;

/// Paper cadence: 8.3 s sessions, 37 ms OS windows.
const SESSION: Duration = Duration::from_millis(8_300);
const OS_WINDOW: Duration = Duration::from_millis(37);

fn run_copy(total: u64, rate: u64, pacing: Pacing, buffer: u64) -> CopyReport {
    let mut copy = CopyExperiment::new(CopyConfig {
        total_bytes: total,
        rate,
        buffer_capacity: buffer,
        pacing,
    });
    let mut guard = 0u32;
    while !copy.is_done() {
        copy.advance(SESSION, false);
        copy.advance(OS_WINDOW, true);
        guard += 1;
        assert!(guard < 2_000_000, "copy does not terminate");
    }
    copy.finish()
}

fn baseline(total: u64, rate: u64) -> Duration {
    let mut copy = CopyExperiment::new(CopyConfig {
        total_bytes: total,
        rate,
        buffer_capacity: 1 << 21,
        pacing: Pacing::HostPaced,
    });
    while !copy.is_done() {
        copy.advance(Duration::from_millis(100), true);
    }
    copy.finish().elapsed
}

pub fn table5_io(out: &mut String) -> fmt::Result {
    // The paper's transfers: 1 GB HDD<->USB, 50-200 MB AVI files from
    // CD-ROM. Scaled to 1/8 size to keep the harness fast; rates are
    // era-appropriate.
    let cases: [(&str, u64, u64); 4] = [
        ("CD-ROM -> HDD (AVI files)", 128 << 20, 7_800_000),
        ("CD-ROM -> USB (AVI files)", 128 << 20, 7_800_000),
        ("HDD -> USB (urandom file)", 128 << 20, 18_000_000),
        ("USB -> HDD (urandom file)", 128 << 20, 18_000_000),
    ];

    let mut rows = Vec::new();
    for (name, total, rate) in cases {
        let base = baseline(total, rate);
        let r = run_copy(total, rate, Pacing::HostPaced, 2 << 20);
        rows.push(vec![
            name.to_string(),
            if r.integrity_ok {
                "OK".into()
            } else {
                "CORRUPT".into()
            },
            format!("{}", r.lost),
            format!("{:.1}", base.as_secs_f64()),
            format!("{:.1}", r.elapsed.as_secs_f64()),
            format!("{:.1}x", r.elapsed.as_secs_f64() / base.as_secs_f64()),
        ]);
    }
    out.push_str(&render_table(
        "§7.5: File copies during back-to-back 8.3 s Flicker sessions (host-paced devices)",
        &[
            "Transfer",
            "md5 integrity",
            "bytes lost",
            "baseline [s]",
            "with Flicker [s]",
            "slowdown",
        ],
        &rows,
    ));
    writeln!(
        out,
        "\nPaper result reproduced: host-paced block devices lose *time*, \
         never *data* — the kernel saw no I/O errors and every md5 matched. \
         (The paper reports only integrity, not copy wall-time; with a \
         0.44% OS duty cycle the slowdown is necessarily ~225x, which is \
         why §7.5 recommends scheduling transfers outside sessions.)"
    )?;

    // Failure injection: a free-running source (what §7.5's warning is
    // really about).
    let mut rows = Vec::new();
    for (buffer_label, buffer) in [
        ("256 KB", 256u64 << 10),
        ("2 MB", 2 << 20),
        ("256 MB", 256 << 20),
    ] {
        let r = run_copy(64 << 20, 1_500_000, Pacing::FreeRunning, buffer);
        rows.push(vec![
            format!("1.5 MB/s stream, {buffer_label} device buffer"),
            if r.integrity_ok {
                "OK".into()
            } else {
                "CORRUPT".into()
            },
            format!("{}", r.lost),
        ]);
    }
    out.push_str(&render_table(
        "Failure injection: free-running source across 8.3 s suspensions",
        &["Configuration", "md5 integrity", "bytes lost"],
        &rows,
    ));
    writeln!(
        out,
        "\nAn 8.3 s suspension at 1.5 MB/s produces ~12.5 MB the host never \
         fetches: only an impractically large device buffer saves the \
         stream. This is the case for Flicker-aware drivers / quiescing \
         the paper raises as future work."
    )
}
