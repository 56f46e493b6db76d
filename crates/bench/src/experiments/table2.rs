//! Regenerates **Table 2**: `SKINIT` duration vs SLB size, and the §7.2
//! hashing-stub optimisation measurement.

use crate::{paper, render_table};
use flicker_core::HASHING_STUB_SIZE;
use flicker_machine::{Machine, MachineConfig, Stopwatch};
use std::fmt::{self, Write};

/// Runs a raw SKINIT with an SLB of exactly `size` bytes and returns the
/// measured virtual duration.
fn measure_skinit(size: usize) -> f64 {
    let mut config = MachineConfig::default();
    config.tpm.key_bits = crate::EVAL_TPM_KEY_BITS;
    let mut m = Machine::new(config);
    // Quiesce the AP.
    for id in 1..m.cpus().len() {
        m.cpus_mut().deschedule(id).unwrap();
        m.cpus_mut().send_init_ipi(id).unwrap();
    }
    let base = 0x10_0000u64;
    // Header: length = size, entry = 4. The header length field is a u16,
    // so the 64 KB row uses the largest expressible SLB (4 bytes short —
    // a 0.01 ms difference, far below the table's precision).
    let len = size.clamp(8, 0xFFFC) as u16;
    m.memory_mut().write(base, &len.to_le_bytes()).unwrap();
    m.memory_mut().write(base + 2, &4u16.to_le_bytes()).unwrap();
    let sw = Stopwatch::start(&m.clock());
    m.skinit(0, base).unwrap();
    let t = sw.elapsed();
    m.resume_os().unwrap();
    t.as_secs_f64() * 1e3
}

pub fn table2(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for &(kb, paper_ms) in paper::TABLE2 {
        let model = if kb == 0 {
            // The architectural fixed cost; the paper reports "<1 ms".
            MachineConfig::default().skinit_cost.cost(0).as_secs_f64() * 1e3
        } else {
            measure_skinit(kb * 1024)
        };
        rows.push(vec![
            format!("{kb}"),
            format!("{paper_ms:.1}"),
            format!("{model:.1}"),
        ]);
    }
    out.push_str(&render_table(
        "Table 2: SKINIT duration vs SLB size (ms)",
        &["SLB KB", "paper", "repro"],
        &rows,
    ));

    // §7.2 optimisation: the 4 736-byte hashing stub.
    let stub = measure_skinit(HASHING_STUB_SIZE);
    let full = measure_skinit(64 * 1024);
    writeln!(
        out,
        "\n§7.2 optimisation: {HASHING_STUB_SIZE}-byte hashing-stub SKINIT = {stub:.1} ms \
         (paper: 14 ms); saving vs 64 KB SLB = {:.0} ms (paper: 164 ms).",
        full - stub
    )
}
