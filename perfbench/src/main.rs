//! Host-clock benchmark of the Flicker reproduction.
//!
//! ```text
//! perfbench --workload attest|keygen|storage|farm_faults
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the end-to-end measurement and prints `ops_per_s`,
//! `setup_s`, `peak_rss_mb` and `paper_err_pct`; `--trace 1` runs the
//! layer-timing passes on the same seed and prints the per-layer metrics.
//! The human-readable report goes to standard error; the last line of
//! standard output is the JSON result. A layer-timing run also writes its
//! spans to `perfbench/out/spans-<workload>.jsonl`. The exit code is
//! 0 when every operation's check passed, 1 otherwise, 2 on bad arguments.

mod attest;
mod closed_loop;
mod farm;
mod keygen;
mod metrics;
mod platform;
mod spans;
mod storage;

use metrics::{json_line, table, Values, END_TO_END, PER_LAYER};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by command-line name.
const WORKLOADS: [&str; 4] = ["attest", "keygen", "storage", "farm_faults"];

/// One invocation's settings.
pub struct Config {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every input the run makes.
    pub seed: u64,
    /// Host seconds the end-to-end pass measures.
    pub seconds: f64,
    /// Run the layer-timing passes instead of the end-to-end one.
    pub trace: bool,
    /// Run only this end-to-end `farm_faults` round (a child process).
    pub round: Option<u64>,
}

impl Config {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            round: None,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => cfg.workload = value.clone(),
                "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                farm::ROUND_FLAG => cfg.round = Some(value.parse().map_err(|_| bad())?),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if !WORKLOADS.contains(&cfg.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(cfg)
    }
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations run and checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: Values,
    /// Lines for the human-readable report.
    pub log: Vec<String>,
    /// The layer-timing run's spans.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Adds one pass's operation counts and its first failure.
    pub fn add(&mut self, pass: &closed_loop::Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        if let Some(e) = &pass.first_error {
            self.log
                .push(format!("{} failed operation(s); first: {e}", pass.failed));
        }
    }
}

fn main() -> ExitCode {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(round) = cfg.round {
        return match farm::print_round(cfg.seed, round) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: farm round {round}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match cfg.workload.as_str() {
        "attest" => closed_loop::run::<attest::Attest>(&cfg),
        "keygen" => closed_loop::run::<keygen::Keygen>(&cfg),
        "storage" => closed_loop::run::<storage::Storage>(&cfg),
        _ => farm::run(&cfg),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "perfbench {} seed {} ({}):",
        cfg.workload,
        cfg.seed,
        if cfg.trace {
            "layer timing"
        } else {
            "end to end"
        }
    );
    for line in &out.log {
        eprintln!("  {line}");
    }
    eprint!("{}", table(defs, &out.values));
    if let Some(spans) = &out.spans {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("spans-{}.jsonl", cfg.workload));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("  spans written to {}", path.display());
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        json_line(correct, out.attempted, out.failed, defs, &out.values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
