//! The paper's §7 evaluation: one function per table or figure.
//!
//! Each experiment writes its tables and notes into a `String`. [`run`]
//! runs a selection of [`ALL`] on one scoped thread each and joins their
//! text in list order; `run_all` prints it, and `tests/golden.rs` holds it
//! byte for byte to the committed `experiments_output.txt`.
//!
//! Running them together is safe: no experiment reads arguments, files or
//! the environment, and the workspace keeps no process-global mutable
//! state (the `flicker_crypto::cost` counters are thread-local and the
//! RSA Montgomery cache is per key).

use flicker_apps::{BoincClient, SliceReport, WorkUnit};
use flicker_os::Os;
use std::fmt;
use std::thread;
use std::time::Duration;

mod ablation_hw;
mod attestation_granularity;
mod ca_eval;
mod fig8;
mod fig9;
mod module_inventory;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5_io;

/// An experiment: writes its text into `out`.
pub type Experiment = fn(&mut String) -> fmt::Result;

/// Every experiment, in the order `run_all` prints them.
pub const ALL: &[(&str, Experiment)] = &[
    ("table1", table1::table1),
    ("table2", table2::table2),
    ("table3", table3::table3),
    ("table4", table4::table4),
    ("fig8", fig8::fig8),
    ("fig9", fig9::fig9),
    ("ca_eval", ca_eval::ca_eval),
    ("table5_io", table5_io::table5_io),
    ("module_inventory", module_inventory::module_inventory),
    (
        "attestation_granularity",
        attestation_granularity::attestation_granularity,
    ),
    ("ablation_hw", ablation_hw::ablation_hw),
];

/// Runs the experiments of `list` named in `names` (all of them when
/// `names` is empty) on one scoped thread each, and joins them in list
/// order. Returns the text to print, each experiment's under a
/// `################ NAME ################` header and closed by
/// `All N experiments completed.` when none failed, and the names of
/// those that panicked, whose sections hold only the header.
///
/// # Errors
///
/// A name that `list` lacks; the message lists the valid names. Nothing
/// runs then.
pub fn run(
    list: &[(&'static str, Experiment)],
    names: &[String],
) -> Result<(String, Vec<&'static str>), String> {
    if let Some(bad) = names
        .iter()
        .find(|n| list.iter().all(|(name, _)| name != n))
    {
        let valid: Vec<&str> = list.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown experiment {bad:?}; valid names: {}",
            valid.join(" ")
        ));
    }
    let chosen: Vec<_> = list
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name))
        .collect();
    let (mut text, mut failed) = (String::new(), Vec::new());
    thread::scope(|s| {
        let handles: Vec<_> = chosen
            .iter()
            .map(|(_, experiment)| {
                s.spawn(move || {
                    let mut out = String::new();
                    experiment(&mut out).map(|()| out)
                })
            })
            .collect();
        for ((name, _), handle) in chosen.iter().zip(handles) {
            text += &format!("\n################ {name} ################\n");
            match handle.join() {
                Ok(Ok(out)) => text += &out,
                _ => failed.push(*name),
            }
        }
    });
    if failed.is_empty() {
        text += &format!("\nAll {} experiments completed.\n", chosen.len());
    }
    Ok((text, failed))
}

/// One distributed-computing session of `work` by a fresh client. The
/// unit's `n` is a large prime, so the scan never runs out of work.
fn distcomp_slice(os: &mut Os, work: Duration) -> SliceReport {
    let unit = WorkUnit {
        n: 0xFFFF_FFFF_FFFF_FFC5,
        lo: 2,
        hi: u64::MAX,
    };
    let (mut client, _) = BoincClient::start(os, unit).expect("init");
    client.run_slice(os, work).expect("slice")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    fn writes_x(out: &mut String) -> fmt::Result {
        write!(out, "x")
    }

    fn writes_y(out: &mut String) -> fmt::Result {
        writeln!(out, "y")
    }

    fn panics(_: &mut String) -> fmt::Result {
        panic!("boom")
    }

    fn names(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn a_panicking_experiment_fails_alone() {
        let list: &[(&str, Experiment)] = &[("ok", writes_x), ("boom", panics)];
        let (text, failed) = run(list, &[]).expect("valid names");
        assert_eq!(failed, ["boom"]);
        assert_eq!(
            text,
            "\n################ ok ################\nx\
             \n################ boom ################\n"
        );
    }

    #[test]
    fn selected_names_run_alone_in_list_order() {
        let list: &[(&str, Experiment)] = &[("a", writes_x), ("b", panics), ("c", writes_y)];
        let (text, failed) = run(list, &names(&["c", "a"])).expect("valid names");
        assert!(failed.is_empty());
        assert_eq!(
            text,
            "\n################ a ################\nx\
             \n################ c ################\ny\n\
             \nAll 2 experiments completed.\n"
        );
    }

    #[test]
    fn unknown_names_are_rejected_with_the_valid_ones() {
        let list: &[(&str, Experiment)] = &[("a", writes_x), ("b", panics)];
        let err = run(list, &names(&["a", "nope"])).expect_err("unknown name");
        assert!(err.contains("\"nope\""), "{err}");
        assert!(err.ends_with("valid names: a b"), "{err}");
    }
}
