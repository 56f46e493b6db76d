#!/usr/bin/env bash
# Full offline CI gate: format, lints, build, tests, fault sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: every intra-doc link resolves, none is ambiguous, and no
# public doc links a private item (so a link to a deleted API fails here).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release
# The workspace tests are also the paper-table gate: crates/bench/tests/
# golden.rs runs every §7 experiment in-process and fails on any byte that
# differs from the committed experiments_output.txt.
cargo test --workspace -q
# The bignum kernel again in release: debug_assert! compiled out and
# integer arithmetic wrapping instead of trapping.
cargo test --release -p flicker-crypto -q
# Every Criterion bench body once, in release: `cargo test --workspace`
# skips bench targets, and without `--bench` the in-repo shim runs each
# body a single time, so a bench that panics fails here.
cargo test --release -q -p flicker-bench --benches
# The host-clock benchmark is a package of its own that builds the
# workspace crates as path dependencies: build it and run its tests, so a
# workspace API change that breaks it fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q
# Deterministic robustness gate: 200 seeded fault schedules across the §6
# applications; every schedule's flight record is replayed through the
# trace auditor, and any violation exits non-zero. The --quick sweep runs
# first so a broken auditor fails in seconds, not after the full sweep.
cargo run --release -p flicker-bench --bin fault_sweep -- --quick
cargo run --release -p flicker-bench --bin fault_sweep -- --seed 0 --schedules 200
# Static-verification gate: every bytecode PAL the repo ships must pass
# the verifier (`SlbImage::build` would refuse them at run time anyway;
# this fails fast with the per-check report).
cargo run --release -p flicker-verifier --bin palvm_tool -- verify --builtin
# Constant-time gate: the same library must also be free of ct-* findings
# (secret-dependent branches / indices / loop bounds / hypercall operands),
# and a bounded differential-oracle run must show zero soundness
# divergences between the static ct pass and the runtime shadow-taint
# monitor (any divergence prints its JSONL repro record and fails).
cargo run --release -p flicker-verifier --bin palvm_tool -- analyze --builtin
cargo run --release -p flicker-verifier --bin palvm_tool -- analyze --differential 200
# Perf-report gate: a quick traced run must produce a schema-valid report
# (profile reconciliation within 1%) from an audit-clean, untruncated
# flight record; the committed full-run report must stay valid, and no
# stack's share of virtual time may drift more than 5pp from it. Outputs
# go under target/ so the committed report and trajectory are never
# clobbered.
cargo run --release -p flicker-bench --bin perf_baseline -- --quick \
  --check BENCH_perf_baseline.json \
  --out target/BENCH_perf_baseline_quick.json \
  --trajectory target/BENCH_trajectory_quick.jsonl
# Farm gate: a quick farm run (2 machines, seeded faults) must finish with
# zero lost / zero duplicated requests, audit-clean (untruncated)
# per-machine flight records, >=99% of every request's wall time
# attributed, and every workload inside its SLO error budget; the
# trajectory line goes under target/ so the committed file only carries
# full runs, and the flight record is persisted for the offline
# attribution pass below.
cargo run --release -p flicker-bench --bin farm_bench -- --quick \
  --trajectory target/BENCH_trajectory_quick.jsonl \
  --flight-dir target/farm_flight_quick
# Attribution gate: re-run the attribution + SLO checks offline from the
# persisted flight record, proving the on-disk format round-trips and the
# standalone tool reaches the same verdict as the live run.
cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  attribute --from target/farm_flight_quick
# Dashboard gate: the committed trajectory must still render (regenerated
# under target/ so the committed docs/bench/ artifact stays full-run only).
cargo run --release -p flicker-bench --bin trajectory_dashboard -- \
  --out-dir target/bench_dashboard
# Flight-recorder gates: each exporter must emit a self-consistent
# document, and the saved JSONL flight must replay through the parser and
# the paper-invariant auditor.
for fmt in chrome jsonl prom; do
  cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
    export --quick --format "$fmt" --verify --out "target/trace_smoke.$fmt" >/dev/null
done
cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  audit --jsonl target/trace_smoke.jsonl
# Profiling gates: both flamegraph exports must pass the 1% reconciliation
# check, and the committed trajectory's top-stack shares must be
# drift-free between adjacent runs.
cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  flamegraph --quick --out target/profile_smoke.folded >/dev/null
cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  flamegraph --quick --format chrome --out target/profile_smoke.chrome.json >/dev/null
cargo run --release -p flicker-bench --bin trajectory_dashboard -- --check-drift
