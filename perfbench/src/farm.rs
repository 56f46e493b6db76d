//! `farm_faults`: the sharded attestation farm under seeded faults.
//!
//! One operation is one farm request, `RequestSpec::seeded`, which rotates
//! the five §6 apps and arms `FaultPlan::seeded` faults. The farm runs one
//! machine per host CPU. A run is a series of rounds; each round starts a
//! farm, waits until every shard serves (set-up), submits its whole batch,
//! drains it with `Farm::shutdown`, and checks the report: conservation,
//! a `Clean` audit of every shard, and the latency attribution. A batch
//! stays well under the flight recorder's ring capacity on every shard.

use crate::metrics::Values;
use crate::platform::{mean_err_pct, mix, peak_rss_mb, platform_seed, Counts};
use crate::spans::{median, percentile, Spans};
use crate::{Config, Outcome};
use flicker_bench::paper;
use flicker_farm::request::actions;
use flicker_farm::{AppKind, Farm, FarmConfig, FarmReport, RequestSpec, Submitted, Terminal};
use flicker_faults::FaultPlan;
use flicker_trace::EventKind;
use std::collections::BTreeSet;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Requests per machine in one round. A request records ≈200 events, so
/// even a round that lands wholly on one shard stays far below the
/// 65,536-event ring.
const REQUESTS_PER_MACHINE: usize = 50;
/// Host seconds one round is assumed to take when sizing the layer-timing
/// run's fixed number of rounds. Only run length depends on it.
const NOMINAL_ROUND_S: f64 = 2.2;
/// Flag that makes the binary run one end-to-end round and print its
/// [`RoundLine`] (each end-to-end round runs in a process of its own).
pub const ROUND_FLAG: &str = "--farm-round";
/// How long a farm may take to bring every shard up.
const PROVISION_LIMIT: Duration = Duration::from_secs(60);

/// What one round measured.
struct Round {
    /// `Farm::start` until every shard served a request.
    provision_secs: f64,
    /// First submit until the report is checked.
    secs: f64,
    /// Requests of the batch.
    attempted: u64,
    /// Batch requests that were shed, or all of them when a check failed.
    failed: u64,
    first_error: Option<String>,
}

/// What the rounds' reports said, kept after each report is dropped.
#[derive(Default)]
struct Tally {
    counts: Counts,
    warmups: u64,
    ops: u64,
    attempts: u64,
    done: u64,
    requeues: u64,
    quarantines: u64,
    latency_ms: Vec<f64>,
    quote_ms: Vec<f64>,
    unseal_ms: Vec<f64>,
}

impl Tally {
    /// Adds a report whose requests from `first_id` on are the batch (the
    /// ones before are readiness warm-ups; the shard counters include
    /// them).
    fn add(&mut self, report: &FarmReport, first_id: u64) {
        self.warmups += first_id;
        for shard in &report.shards {
            self.counts.add_trace(&shard.trace);
            for e in shard.trace.events() {
                if let EventKind::TpmCommand {
                    ordinal, dur_ns, ..
                } = &e.kind
                {
                    match ordinal.as_str() {
                        "TPM_Quote" => self.quote_ms.push(*dur_ns as f64 * 1e-6),
                        "TPM_Unseal" => self.unseal_ms.push(*dur_ns as f64 * 1e-6),
                        _ => {}
                    }
                }
            }
        }
        self.quarantines += report.quarantines();
        for o in report.outcomes.iter().filter(|o| o.id >= first_id) {
            self.ops += 1;
            self.attempts += u64::from(o.attempts);
            self.requeues += u64::from(o.requeues);
            self.done += u64::from(o.terminal == Terminal::Done);
            self.latency_ms.push(o.latency.as_secs_f64() * 1e3);
        }
    }

    /// Medians of the shards' recorded `TPM_Quote` and `TPM_Unseal`
    /// commands, in virtual milliseconds.
    fn tpm_medians(&self) -> Result<(f64, f64), String> {
        if self.quote_ms.is_empty() || self.unseal_ms.is_empty() {
            return Err("no recorded TPM_Quote or TPM_Unseal".into());
        }
        Ok((median(&self.quote_ms), median(&self.unseal_ms)))
    }

    fn record(&self, values: &mut Values) {
        self.counts.record(self.ops, false, values);
        let per_op = |n: u64| n as f64 / self.ops.max(1) as f64;
        values.set("farm.attempts_per_op", per_op(self.attempts));
        values.set(
            "farm.done_per_attempt",
            self.done as f64 / self.attempts.max(1) as f64,
        );
        values.set("farm.requeues", per_op(self.requeues));
        values.set("farm.quarantines", per_op(self.quarantines));
        values.set("farm.virt_ms_p50", percentile(&self.latency_ms, 50.0));
        values.set("farm.virt_ms_p95", percentile(&self.latency_ms, 95.0));
    }
}

/// The round's requests, made before timing.
fn batch(seed: u64, round: u64, n: usize) -> Vec<RequestSpec> {
    let base = mix(seed, round);
    (0..n as u64)
        .map(|i| RequestSpec::seeded(base.wrapping_add(i)))
        .collect()
}

/// Machine ids that have admitted a request, and the number of requests
/// that reached a terminal state, from the coordinator's trace.
fn progress(farm: &Farm) -> (BTreeSet<u64>, u64) {
    let mut serving = BTreeSet::new();
    let mut terminal = 0;
    for e in farm.coordinator_trace().events() {
        if let EventKind::Farm {
            action, machine, ..
        } = &e.kind
        {
            match action.as_str() {
                actions::ADMITTED => {
                    serving.insert(*machine);
                }
                actions::DONE | actions::FAILED | actions::TIMED_OUT | actions::SHED => {
                    terminal += 1
                }
                _ => {}
            }
        }
    }
    (serving, terminal)
}

/// Blocks until every shard of `farm` has served a request. The farm has
/// no readiness call, so this keeps a fault-free warm-up request queued
/// until every machine has admitted one, then lets the warm-ups finish.
/// A warm-up is an SSH request, whose in-PAL RSA key generation keeps a
/// shard that is already serving busy for tens of milliseconds, so the
/// next warm-up waits for a shard that has not served yet instead of
/// going to the same one again. Returns the number of warm-ups submitted.
fn wait_until_serving(farm: &Farm, machines: usize) -> Result<u64, String> {
    let started = Instant::now();
    let mut warmups = 0;
    loop {
        let (serving, terminal) = progress(farm);
        if serving.len() == machines && terminal == warmups {
            return Ok(warmups);
        }
        if started.elapsed() > PROVISION_LIMIT {
            return Err(format!(
                "only {} of {machines} shards serving",
                serving.len()
            ));
        }
        if serving.len() < machines && farm.queue_depth() == 0 {
            farm.submit(RequestSpec {
                app: AppKind::Ssh,
                seed: warmups,
                faults: FaultPlan::none(),
            });
            warmups += 1;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The round's checks: conservation and a `Clean` audit of every shard.
/// The latency attribution is computed too, as every farm harness does.
fn check(report: &FarmReport, spans: &Spans) -> Result<(), String> {
    let mut verdict = report.verify_conservation();
    let findings = spans.call("trace.audit", || report.audit_shards());
    if let (Ok(()), Some(first)) = (&verdict, findings.first()) {
        verdict = Err(format!(
            "{} audit finding(s), first: {first}",
            findings.len()
        ));
    }
    std::hint::black_box(spans.call("trace.attribution", || report.attribution()));
    verdict
}

/// Runs one round of `specs` and adds its report to `tally`.
fn run_round(
    machines: usize,
    round: u64,
    specs: Vec<RequestSpec>,
    spans: &Spans,
    tally: &mut Tally,
) -> Result<Round, String> {
    let n = specs.len();
    let config = FarmConfig {
        machines,
        queue_bound: 2 * n,
        base_seed: platform_seed(round),
        ..FarmConfig::default()
    };
    let start = Instant::now();
    let (farm, first_id) = spans.call("farm.provision", || {
        let farm = Farm::start(config);
        wait_until_serving(&farm, machines).map(|w| (farm, w))
    })?;
    let provision_secs = start.elapsed().as_secs_f64();

    let timed = Instant::now();
    let mut shed = 0;
    for spec in specs {
        if let Submitted::Shed(_) = spans.call("farm.submit", || farm.submit(spec)) {
            shed += 1;
        }
    }
    let report = spans.call("farm.drain", || farm.shutdown());
    let mut first_error = check(&report, spans).err();
    let secs = timed.elapsed().as_secs_f64();
    if shed > 0 {
        first_error.get_or_insert(format!("{shed} request(s) shed"));
    }
    tally.add(&report, first_id);
    Ok(Round {
        provision_secs,
        secs,
        attempted: n as u64,
        failed: if first_error.is_some() { n as u64 } else { 0 },
        first_error,
    })
}

/// Table 1's TPM Quote and Table 4's Unseal against the farm's recorded
/// `TPM_Quote` and `TPM_Unseal` latencies (virtual milliseconds).
fn paper_err_pct(quote_ms: f64, unseal_ms: f64) -> Result<f64, String> {
    let table1_quote = paper::TABLE1
        .iter()
        .find(|(row, _)| *row == "TPM Quote")
        .map(|(_, ms)| *ms)
        .ok_or("Table 1 has no TPM Quote row")?;
    Ok(mean_err_pct(&[
        (quote_ms, table1_quote),
        (unseal_ms, paper::TABLE4_UNSEAL),
    ]))
}

/// One end-to-end round, as the process that ran it reports it on its
/// last line of standard output: the fields in order, space-separated.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RoundLine {
    provision_secs: f64,
    secs: f64,
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
    done: u64,
    attempts: u64,
    quote_ms: f64,
    unseal_ms: f64,
}

impl RoundLine {
    fn to_line(self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {}",
            self.provision_secs,
            self.secs,
            self.attempted,
            self.failed,
            self.peak_rss_mb,
            self.done,
            self.attempts,
            self.quote_ms,
            self.unseal_ms
        )
    }

    fn parse(line: &str) -> Result<RoundLine, String> {
        let v: Vec<f64> = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad round line {line:?}: {e}"))?;
        let &[provision_secs, secs, attempted, failed, peak_rss_mb, done, attempts, quote_ms, unseal_ms] =
            v.as_slice()
        else {
            return Err(format!("bad round line {line:?}"));
        };
        Ok(RoundLine {
            provision_secs,
            secs,
            attempted: attempted as u64,
            failed: failed as u64,
            peak_rss_mb,
            done: done as u64,
            attempts: attempts as u64,
            quote_ms,
            unseal_ms,
        })
    }
}

fn machines_and_batch() -> (usize, usize) {
    let machines = std::thread::available_parallelism().map_or(1, |n| n.get());
    (machines, REQUESTS_PER_MACHINE * machines)
}

/// Runs end-to-end round `round` in this process and prints its
/// [`RoundLine`]; returns whether every check passed.
pub fn print_round(seed: u64, round: u64) -> Result<bool, String> {
    let (machines, n) = machines_and_batch();
    let mut tally = Tally::default();
    let r = run_round(
        machines,
        round,
        batch(seed, round, n),
        &Spans::off(),
        &mut tally,
    )?;
    if let Some(e) = &r.first_error {
        eprintln!("perfbench: farm round {round} failed: {e}");
    }
    let (quote_ms, unseal_ms) = tally.tpm_medians()?;
    let line = RoundLine {
        provision_secs: r.provision_secs,
        secs: r.secs,
        attempted: r.attempted,
        failed: r.failed,
        peak_rss_mb: peak_rss_mb()?,
        done: tally.done,
        attempts: tally.attempts,
        quote_ms,
        unseal_ms,
    };
    println!("{}", line.to_line());
    Ok(r.failed == 0)
}

/// Runs round `round` in a child process: every farm instance starts from
/// a fresh allocator, so its peak memory does not inherit the
/// fragmentation that earlier rounds' worker threads left behind.
fn round_in_child(seed: u64, round: u64) -> Result<RoundLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (seed, round) = (seed.to_string(), round.to_string());
    let child = Command::new(exe)
        .args([
            "--workload",
            "farm_faults",
            "--seed",
            &seed,
            ROUND_FLAG,
            &round,
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run round {round}: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    RoundLine::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("round {round} ({}): {e}", child.status))
}

fn add(out: &mut Outcome, round: &Round) {
    out.attempted += round.attempted;
    out.failed += round.failed;
    if let Some(e) = &round.first_error {
        out.log.push(format!("round failed: {e}"));
    }
}

/// Runs `farm_faults` as `cfg` asks.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (machines, n) = machines_and_batch();
    let mut out = Outcome::default();
    out.log
        .push(format!("{machines} machines, {n} requests per round"));

    if !cfg.trace {
        let started = Instant::now();
        let mut rounds = Vec::new();
        while rounds.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
            let round = round_in_child(cfg.seed, rounds.len() as u64)?;
            out.attempted += round.attempted;
            out.failed += round.failed;
            rounds.push(round);
        }
        let ok: u64 = rounds.iter().map(|r| r.attempted - r.failed).sum();
        let secs: f64 = rounds.iter().map(|r| r.secs).sum();
        let field = |f: fn(&RoundLine) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
        let provision = field(|r| r.provision_secs);
        let rss = field(|r| r.peak_rss_mb);
        out.values.set("ops_per_s", ok as f64 / secs);
        out.values.set("setup_s", median(&provision));
        out.values.set("peak_rss_mb", median(&rss));
        out.values.set(
            "paper_err_pct",
            paper_err_pct(
                median(&field(|r| r.quote_ms)),
                median(&field(|r| r.unseal_ms)),
            )?,
        );
        let rates: Vec<String> = rounds
            .iter()
            .map(|r| format!("{:.3}", (r.attempted - r.failed) as f64 / r.secs))
            .collect();
        let (done, attempts) = rounds
            .iter()
            .fold((0, 0), |(d, a), r| (d + r.done, a + r.attempts));
        out.log.push(format!(
            "round rates [{}]/s; provisioning {provision:?} s; peak RSS {rss:?} MB; \
             {done} done of {} requests in {attempts} attempts",
            rates.join(", "),
            out.attempted
        ));
        return Ok(out);
    }

    // Layer-timing run: the same rounds untraced, then traced.
    let count = ((cfg.seconds / (2.0 * NOMINAL_ROUND_S)).round() as u64).max(1);
    let untraced = Spans::off();
    let spans = Spans::on();
    let mut rates = [0.0; 2];
    let mut traced = Tally::default();
    for (pass, s) in [&untraced, &spans].into_iter().enumerate() {
        let mut tally = Tally::default();
        let (mut ok, mut secs) = (0, 0.0);
        for r in 0..count {
            let round = run_round(machines, r, batch(cfg.seed, r, n), s, &mut tally)?;
            add(&mut out, &round);
            ok += round.attempted - round.failed;
            secs += round.secs;
        }
        rates[pass] = ok as f64 / secs;
        traced = tally;
    }
    out.values.set(
        "bench.tracing_overhead_pct",
        100.0 * (rates[0] / rates[1] - 1.0),
    );
    let ms = |name: &str| 1e3 * median(&spans.durations(name));
    out.values.set(
        "farm.provision_s",
        median(&spans.durations("farm.provision")),
    );
    out.values
        .set("farm.drain_s", median(&spans.durations("farm.drain")));
    out.values.set("trace.audit_ms", ms("trace.audit"));
    out.values
        .set("trace.attribution_ms", ms("trace.attribution"));
    let submit_us: Vec<f64> = spans
        .durations("farm.submit")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    out.values.set("farm.submit_us", median(&submit_us));
    out.values
        .set("farm.submit_us_p90", percentile(&submit_us, 90.0));
    traced.record(&mut out.values);
    out.log.push(format!(
        "layer-timing: {count} round(s) per pass; untraced {:.3}/s, traced {:.3}/s; \
         traced pass: {} done of {} requests in {} attempts, {} readiness warm-ups",
        rates[0], rates[1], traced.done, traced.ops, traced.attempts, traced.warmups
    ));
    out.spans = Some(spans);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_lines_round_trip() {
        let line = RoundLine {
            provision_secs: 0.125,
            secs: 4.5,
            attempted: 200,
            failed: 0,
            peak_rss_mb: 19.25,
            done: 199,
            attempts: 270,
            quote_ms: 972.7,
            unseal_ms: 901.0,
        };
        assert_eq!(RoundLine::parse(&line.to_line()), Ok(line));
        assert!(RoundLine::parse("1 2 3").is_err());
    }

    #[test]
    fn a_lost_request_or_a_truncated_shard_record_fails_the_round() {
        let farm = Farm::start(FarmConfig {
            machines: 1,
            queue_bound: 8,
            ..FarmConfig::default()
        });
        for spec in batch(1, 0, 3) {
            farm.submit(spec);
        }
        let report = farm.shutdown();
        assert_eq!(check(&report, &Spans::off()), Ok(()));

        let mut lost = report.clone();
        lost.outcomes.pop();
        assert!(check(&lost, &Spans::off()).is_err());

        // Evicting recorded events leaves the audit inconclusive.
        report.shards[0].trace.set_event_capacity(4);
        let err = check(&report, &Spans::off()).unwrap_err();
        assert!(err.contains("audit"), "{err}");
    }
}
