//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! this minimal, dependency-free implementation of the criterion API subset
//! the repo's benches use. Behaviour:
//!
//! * invoked with `--bench` (what `cargo bench` passes): each benchmark
//!   runs doubling batches until they have taken 300 ms and prints its
//!   mean iteration time;
//! * invoked any other way (e.g. built-and-run by `cargo test`): each
//!   benchmark body runs exactly once, as a smoke test.

use std::time::{Duration, Instant};

/// How long the measurement loop runs per benchmark in `--bench` mode.
const MEASURE_BUDGET: Duration = Duration::from_millis(300);

/// Execution mode, decided once from argv.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full timed runs (`cargo bench`).
    Measure,
    /// One iteration per benchmark (`cargo test` smoke run).
    Smoke,
}

fn mode_from_args() -> Mode {
    if std::env::args().any(|a| a == "--bench") {
        Mode::Measure
    } else {
        Mode::Smoke
    }
}

/// Per-benchmark driver handed to the closure.
pub struct Bencher {
    mode: Mode,
    /// Mean iteration time recorded by [`Bencher::iter`].
    mean: Option<Duration>,
    iters: u64,
}

impl Bencher {
    /// Times `f`, running it once in smoke mode or in a bounded loop in
    /// measure mode. The closure's return value is discarded (it exists so
    /// the compiler cannot optimise the body away).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        match self.mode {
            Mode::Smoke => {
                std::hint::black_box(f());
                self.iters = 1;
            }
            Mode::Measure => {
                // Warm-up.
                std::hint::black_box(f());
                // Batches of 1, 1, 2, 4, ... iterations: the clock is read
                // once per batch, and the last batch is half the work timed.
                let start = Instant::now();
                let mut iters = 0u64;
                while start.elapsed() < MEASURE_BUDGET {
                    for _ in 0..iters.max(1) {
                        std::hint::black_box(f());
                    }
                    iters += iters.max(1);
                }
                self.mean = Some(start.elapsed().div_f64(iters as f64));
                self.iters = iters;
            }
        }
    }
}

/// Throughput annotation (accepted and echoed, not analysed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id made of the parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// The top-level benchmark harness.
pub struct Criterion {
    mode: Mode,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            mode: mode_from_args(),
        }
    }
}

fn run_one(mode: Mode, label: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        mode,
        mean: None,
        iters: 0,
    };
    f(&mut b);
    match (mode, b.mean) {
        (Mode::Measure, Some(mean)) => {
            println!("bench {label:<50} {mean:>12.2?}/iter ({} iters)", b.iters);
        }
        (Mode::Measure, None) => println!("bench {label:<50} (no iter call)"),
        (Mode::Smoke, _) => println!("bench {label:<50} ok (smoke)"),
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(self.mode, name, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let mode = self.mode;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            mode,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    mode: Mode,
}

impl BenchmarkGroup<'_> {
    /// Records the per-iteration throughput (echoed only).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(self.mode, &label, &mut f);
        self
    }

    /// Runs one parameterised benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.id);
        run_one(self.mode, &label, &mut |b| f(b, input));
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("add", |b| b.iter(|| 1u64 + 2));
        let mut g = c.benchmark_group("group");
        g.throughput(Throughput::Bytes(64));
        g.bench_function("inner", |b| b.iter(|| vec![0u8; 64]));
        g.bench_with_input(BenchmarkId::from_parameter(16), &16usize, |b, &n| {
            b.iter(|| vec![0u8; n])
        });
        g.finish();
    }

    #[test]
    fn smoke_mode_runs_everything_once() {
        let mut c = Criterion { mode: Mode::Smoke };
        sample_bench(&mut c);
    }

    #[test]
    fn measure_mode_times_the_whole_budget() {
        let mut b = Bencher {
            mode: Mode::Measure,
            mean: None,
            iters: 0,
        };
        // About 0.1-1 µs an iteration, so the mean's nanosecond
        // resolution loses under 1 % of the time timed.
        b.iter(|| (0..256u64).map(std::hint::black_box).sum::<u64>());
        assert!(b.iters > 1_000, "{} iterations", b.iters);
        assert!(b.iters.is_power_of_two());
        let mean = b.mean.expect("iter records a mean");
        assert!(mean.mul_f64(b.iters as f64) >= MEASURE_BUDGET.mul_f64(0.99));
    }
}
