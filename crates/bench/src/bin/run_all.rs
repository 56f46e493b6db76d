//! Regenerates the paper's §7 evaluation: `run_all [NAME...]` runs the
//! named experiments (all of them by default) and prints their tables in
//! a fixed order. Its full output is the committed
//! `experiments_output.txt`, regenerated with
//! `cargo run --release -p flicker-bench --bin run_all > experiments_output.txt`.

use flicker_bench::experiments::{self, ALL};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match experiments::run(ALL, &names) {
        Err(e) => {
            eprintln!("run_all: {e}");
            ExitCode::from(2)
        }
        Ok((text, failed)) => {
            print!("{text}");
            if failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("\nFailed experiments: {failed:?}");
                ExitCode::FAILURE
            }
        }
    }
}
