#!/usr/bin/env bash
# Full offline CI gate: format, lints, build, tests, fault sweep. Each step
# prints its wall time to stderr as it finishes.
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs one step and prints how long it took; a failing step still stops
# the script (errexit holds inside the function).
step() {
  local start=$EPOCHREALTIME
  "$@"
  awk -v a="$start" -v b="$EPOCHREALTIME" -v cmd="$*" \
    'BEGIN { printf "ci: %7.1fs  %s\n", b - a, cmd }' >&2
}

step cargo fmt --all -- --check
step cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: every intra-doc link resolves, none is ambiguous, and no
# public doc links a private item (so a link to a deleted API fails here).
RUSTDOCFLAGS="-D warnings" step cargo doc --workspace --no-deps
step cargo build --release
# The workspace tests are also the paper-table gate: crates/bench/tests/
# golden.rs runs every §7 experiment in-process and fails on any byte that
# differs from the committed experiments_output.txt.
step cargo test --workspace -q
# README gate: every example the README tells a reader to run must run to
# completion (each asserts its outcome and panics otherwise). The test
# step above already compiled them.
for example in examples/*.rs; do
  step cargo run -q --example "$(basename "$example" .rs)" >/dev/null
done
# The bignum kernel again in release: debug_assert! compiled out and
# integer arithmetic wrapping instead of trapping.
step cargo test --release -p flicker-crypto -q
# Every Criterion bench body once, in release: `cargo test --workspace`
# skips bench targets, and without `--bench` the in-repo shim runs each
# body a single time, so a bench that panics fails here.
step cargo test --release -q -p flicker-bench --benches
# The host-clock benchmark is a package of its own that builds the
# workspace crates as path dependencies: build it and run its tests, so a
# workspace API change that breaks it fails here.
step cargo test --release --offline --manifest-path perfbench/Cargo.toml -q
# Deterministic robustness gate: 200 seeded fault schedules across the §6
# applications; every schedule's flight record is replayed through the
# trace auditor and must close every phase span, and any violation exits
# non-zero. The --quick sweep runs first so a broken auditor fails in
# seconds, not after the full sweep.
step cargo run --release -p flicker-bench --bin fault_sweep -- --quick
step cargo run --release -p flicker-bench --bin fault_sweep -- --seed 0 --schedules 200
# Static-verification gate: every bytecode PAL the repo ships must pass
# the verifier (`SlbImage::build` would refuse them at run time anyway;
# this fails fast with the per-check report).
step cargo run --release -p flicker-verifier --bin palvm_tool -- verify --builtin
# Constant-time gate: the same library must also be free of ct-* findings
# (secret-dependent branches / indices / loop bounds / hypercall operands),
# and a bounded differential-oracle run must show zero soundness
# divergences between the static ct pass and the runtime shadow-taint
# monitor (any divergence prints its JSONL repro record and fails).
step cargo run --release -p flicker-verifier --bin palvm_tool -- analyze --builtin
step cargo run --release -p flicker-verifier --bin palvm_tool -- analyze --differential 200
# §5.2 extraction gate: the README's extraction command must still pull a
# standalone PAL out of the example module (an extraction error exits
# non-zero).
step cargo run --release -p flicker-verifier --bin palvm_tool -- \
  extract examples/pal_asm/crypto_module.pal checksum_pal >/dev/null
# Perf-report gate: a quick traced run must produce a schema-valid report
# (profile reconciliation within 1%) from an audit-clean, untruncated
# flight record; the committed full-run report must stay valid, and no
# stack's share of virtual time may drift more than 5pp from it. Outputs
# go under target/ so the committed report and trajectory are never
# clobbered.
step cargo run --release -p flicker-bench --bin perf_baseline -- --quick \
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
step cargo run --release -p flicker-bench --bin farm_bench -- --quick \
  --trajectory target/BENCH_trajectory_quick.jsonl \
  --flight-dir target/farm_flight_quick
# Attribution gate: re-run the attribution + SLO checks offline from the
# persisted flight record, proving the on-disk format round-trips and the
# standalone tool reaches the same verdict as the live run.
step cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  attribute --from target/farm_flight_quick
# Dashboard gate: the committed trajectory must still render (regenerated
# under target/ so the committed docs/bench/ artifact stays full-run only),
# and the committed docs/bench/ must be exactly what it renders to, so a
# trajectory line appended without regenerating the dashboard fails.
rm -rf target/bench_dashboard
step cargo run --release -p flicker-bench --bin trajectory_dashboard -- \
  --out-dir target/bench_dashboard
step diff -r docs/bench target/bench_dashboard
# Flight-recorder gates: each exporter must emit a self-consistent
# document, and the saved JSONL flight must replay through the parser and
# the paper-invariant auditor.
for fmt in chrome jsonl prom; do
  step cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
    export --quick --format "$fmt" --verify --out "target/trace_smoke.$fmt" >/dev/null
done
step cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  audit --jsonl target/trace_smoke.jsonl
# Profiling gates: both flamegraph exports must pass the 1% reconciliation
# check, and the committed trajectory's top-stack shares must be
# drift-free between adjacent runs.
step cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  flamegraph --quick --out target/profile_smoke.folded >/dev/null
step cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  flamegraph --quick --format chrome --out target/profile_smoke.chrome.json >/dev/null
step cargo run --release -p flicker-bench --bin trajectory_dashboard -- --check-drift
