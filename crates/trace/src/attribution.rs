//! Farm-wide latency attribution over request-scoped trace streams.
//!
//! The farm records into one [`Trace`](crate::Trace) per shard (each on its
//! own virtual clock) plus a coordinator stream stamped with wall time
//! since farm start. This module folds those streams into:
//!
//! * **Per-request critical-path breakdowns** ([`attribute`]): for every
//!   request, queue wait (from coordinator `enqueued → admitted` and
//!   `requeued → readmitted` deltas) plus per-attempt category totals from
//!   [`EventKind::Charge`] events. The substrate charges every virtual
//!   nanosecond an attempt spends on a shard to exactly one category —
//!   [`categories::CPU`], [`categories::TPM`], [`categories::NET`],
//!   [`categories::SKINIT`], [`categories::TPM_BACKOFF`] (the TPM driver's
//!   busy-wait retries), or [`categories::RETRY_BACKOFF`] (the farm
//!   worker's between-attempt backoff) — so the categories sum to the
//!   attempt wall delimited by the shard's `attempt_start`/`attempt_end`
//!   markers, and request coverage is 1.0 up to charge rounding.
//!   Per-ordinal [`EventKind::TpmCommand`] durations are a drill-down
//!   *within* the `tpm` category, not an addition to it.
//! * **SLO verdicts** ([`evaluate_slo`]): per-workload latency budgets,
//!   breach counting (a request breaches by missing its terminal `done`
//!   or by exceeding its budget), error-budget burn, and an outlier
//!   detector that flags requests whose wall time deviates from their
//!   workload's median by more than a factor.

use crate::{Event, EventKind, RequestCtx};
use std::collections::BTreeMap;
use std::time::Duration;

/// The named attribution categories that partition an attempt's wall time.
pub mod categories {
    /// Wall time between a request's enqueue and its (re)admission.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Simulated instruction execution (PAL bytecode, hashing, protocol
    /// glue) charged through the machine's CPU cost model.
    pub const CPU: &str = "cpu";
    /// TPM command execution (per-ordinal drill-down comes from
    /// `TpmCommand` event durations).
    pub const TPM: &str = "tpm";
    /// Network round-trip time on simulated links.
    pub const NET: &str = "net";
    /// The SKINIT instruction: SLB transfer to the TPM plus measured-launch
    /// latency (the paper's dominant fixed cost).
    pub const SKINIT: &str = "skinit";
    /// TPM driver busy-wait while the device reports busy.
    pub const TPM_BACKOFF: &str = "tpm_backoff";
    /// Farm worker backoff between failed attempts.
    pub const RETRY_BACKOFF: &str = "retry_backoff";

    /// Every on-shard category (excludes `QUEUE_WAIT`, which is measured
    /// at the coordinator).
    pub const ON_SHARD: [&str; 6] = [CPU, TPM, NET, SKINIT, TPM_BACKOFF, RETRY_BACKOFF];
}

/// Farm-action names this module interprets (mirrors
/// `flicker_farm::actions`; duplicated here because `flicker-trace` sits
/// below the farm crate).
mod actions {
    pub const ENQUEUED: &str = "enqueued";
    pub const ADMITTED: &str = "admitted";
    pub const READMITTED: &str = "readmitted";
    pub const REQUEUED: &str = "requeued";
    pub const DONE: &str = "done";
    pub const ATTEMPT_START: &str = "attempt_start";
    pub const ATTEMPT_END: &str = "attempt_end";
}

/// One shard's flight record, tagged with its machine index.
#[derive(Debug, Clone)]
pub struct ShardStream {
    /// Machine/shard index (matches `Farm` event `machine` fields).
    pub machine: u64,
    /// The shard's events, oldest first, on its own virtual clock.
    pub events: Vec<Event>,
}

/// Category breakdown of one attempt (one `attempt_start`/`attempt_end`
/// window on one shard).
#[derive(Debug, Clone, Default)]
pub struct AttemptBreakdown {
    /// 1-based attempt number within the request.
    pub attempt: u32,
    /// Shard that ran the attempt.
    pub machine: u64,
    /// Shard-clock wall time of the attempt window.
    pub wall: Duration,
    /// Charged time per category (keys from [`categories`]).
    pub by_category: BTreeMap<String, Duration>,
    /// Per-TPM-ordinal drill-down within [`categories::TPM`].
    pub tpm_ordinals: BTreeMap<String, Duration>,
}

impl AttemptBreakdown {
    /// Sum of all category charges.
    pub fn attributed(&self) -> Duration {
        self.by_category.values().copied().sum()
    }
}

/// Complete attribution for one request.
#[derive(Debug, Clone, Default)]
pub struct RequestAttribution {
    /// The request id (trace id).
    pub request: u64,
    /// Coordinator-measured wall time spent queued (initial admission plus
    /// any requeue→readmission gaps).
    pub queue_wait: Duration,
    /// Per-attempt breakdowns, in attempt order.
    pub attempts: Vec<AttemptBreakdown>,
    /// Whether the coordinator recorded a `done` terminal for the request.
    pub done: bool,
}

impl RequestAttribution {
    /// Total on-shard time (sum of attempt walls).
    pub fn active(&self) -> Duration {
        self.attempts.iter().map(|a| a.wall).sum()
    }

    /// Total time charged to named categories across all attempts.
    pub fn attributed(&self) -> Duration {
        self.attempts.iter().map(|a| a.attributed()).sum()
    }

    /// End-to-end wall time: queue wait plus on-shard time.
    pub fn wall(&self) -> Duration {
        self.queue_wait + self.active()
    }

    /// On-shard time not charged to any category.
    pub fn unattributed(&self) -> Duration {
        self.active().saturating_sub(self.attributed())
    }

    /// Fraction of end-to-end wall time accounted for by named categories
    /// (queue wait counts as the `queue_wait` category). 1.0 for a request
    /// with zero wall time.
    pub fn coverage(&self) -> f64 {
        let wall = self.wall();
        if wall.is_zero() {
            return 1.0;
        }
        let named = self.queue_wait + self.attributed().min(self.active());
        named.as_secs_f64() / wall.as_secs_f64()
    }

    /// Farm-level category totals for this request, including queue wait.
    pub fn category_totals(&self) -> BTreeMap<String, Duration> {
        let mut totals: BTreeMap<String, Duration> = BTreeMap::new();
        if !self.queue_wait.is_zero() {
            totals.insert(categories::QUEUE_WAIT.to_string(), self.queue_wait);
        }
        for a in &self.attempts {
            for (k, v) in &a.by_category {
                *totals.entry(k.clone()).or_default() += *v;
            }
        }
        totals
    }
}

/// Attribution for a whole farm run.
#[derive(Debug, Clone, Default)]
pub struct FarmAttribution {
    /// Per-request attributions, sorted by request id.
    pub requests: Vec<RequestAttribution>,
}

impl FarmAttribution {
    /// Farm-wide totals per category (including queue wait).
    pub fn category_totals(&self) -> BTreeMap<String, Duration> {
        let mut totals: BTreeMap<String, Duration> = BTreeMap::new();
        for r in &self.requests {
            for (k, v) in r.category_totals() {
                *totals.entry(k).or_default() += v;
            }
        }
        totals
    }

    /// The worst per-request coverage (1.0 for an empty farm).
    pub fn min_coverage(&self) -> f64 {
        self.requests
            .iter()
            .map(|r| r.coverage())
            .fold(1.0f64, f64::min)
    }

    /// Total unattributed on-shard time across all requests.
    pub fn unattributed(&self) -> Duration {
        self.requests.iter().map(|r| r.unattributed()).sum()
    }

    /// Looks up one request's attribution.
    pub fn request(&self, id: u64) -> Option<&RequestAttribution> {
        self.requests.iter().find(|r| r.request == id)
    }
}

/// Builds per-request attributions from the coordinator stream (wall-clock
/// stamps) and the per-shard streams (virtual-clock stamps).
///
/// Requests that never reached a shard (shed at admission) appear with no
/// attempts and only their queue-side timings.
pub fn attribute(coordinator: &[Event], shards: &[ShardStream]) -> FarmAttribution {
    let mut reqs: BTreeMap<u64, RequestAttribution> = BTreeMap::new();
    let mut waiting_since: BTreeMap<u64, Duration> = BTreeMap::new();

    for e in coordinator {
        let EventKind::Farm {
            action, request, ..
        } = &e.kind
        else {
            continue;
        };
        if *request == u64::MAX {
            continue; // machine-level decisions (quarantine probes etc.)
        }
        let r = reqs.entry(*request).or_insert_with(|| RequestAttribution {
            request: *request,
            ..RequestAttribution::default()
        });
        match action.as_str() {
            actions::ENQUEUED | actions::REQUEUED => {
                waiting_since.insert(*request, e.at);
            }
            actions::ADMITTED | actions::READMITTED => {
                if let Some(since) = waiting_since.remove(request) {
                    r.queue_wait += e.at.saturating_sub(since);
                }
            }
            actions::DONE => r.done = true,
            _ => {}
        }
    }

    // Per-shard pass: attempt windows, charges, and TPM drill-down, all
    // grouped by the (request, attempt) stamp on each event.
    for shard in shards {
        let mut open: BTreeMap<RequestCtx, Duration> = BTreeMap::new();
        for e in &shard.events {
            let Some(ctx) = e.ctx else { continue };
            match &e.kind {
                EventKind::Farm { action, .. } if action == actions::ATTEMPT_START => {
                    open.insert(ctx, e.at);
                }
                EventKind::Farm { action, .. } if action == actions::ATTEMPT_END => {
                    let Some(started) = open.remove(&ctx) else {
                        continue;
                    };
                    let a = attempt_entry(&mut reqs, ctx, shard.machine);
                    a.wall += e.at.saturating_sub(started);
                }
                EventKind::Charge { op, ns } => {
                    let a = attempt_entry(&mut reqs, ctx, shard.machine);
                    *a.by_category.entry(op.to_string()).or_default() += Duration::from_nanos(*ns);
                }
                EventKind::TpmCommand {
                    ordinal, dur_ns, ..
                } => {
                    let a = attempt_entry(&mut reqs, ctx, shard.machine);
                    *a.tpm_ordinals.entry(ordinal.clone()).or_default() +=
                        Duration::from_nanos(*dur_ns);
                }
                _ => {}
            }
        }
    }

    FarmAttribution {
        requests: reqs.into_values().collect(),
    }
}

/// Finds or creates the [`AttemptBreakdown`] for `ctx`.
fn attempt_entry(
    reqs: &mut BTreeMap<u64, RequestAttribution>,
    ctx: RequestCtx,
    machine: u64,
) -> &mut AttemptBreakdown {
    let r = reqs
        .entry(ctx.request)
        .or_insert_with(|| RequestAttribution {
            request: ctx.request,
            ..RequestAttribution::default()
        });
    if let Some(pos) = r.attempts.iter().position(|a| a.attempt == ctx.attempt) {
        return &mut r.attempts[pos];
    }
    r.attempts.push(AttemptBreakdown {
        attempt: ctx.attempt,
        machine,
        ..AttemptBreakdown::default()
    });
    r.attempts.sort_by_key(|a| a.attempt);
    let pos = r
        .attempts
        .iter()
        .position(|a| a.attempt == ctx.attempt)
        .expect("just inserted");
    &mut r.attempts[pos]
}

// ---------------------------------------------------------------------------
// SLO monitoring
// ---------------------------------------------------------------------------

/// Workload identity and terminal state of one request, supplied by the
/// farm layer (this crate does not know workload kinds).
#[derive(Debug, Clone)]
pub struct RequestMeta {
    /// The request id.
    pub request: u64,
    /// Stable workload name (e.g. `rootkit`, `ssh`).
    pub workload: String,
}

/// Per-workload latency budgets plus the farm-wide error-budget allowance.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// Wall-time budget per workload name. Workloads without an entry use
    /// `default_budget`.
    pub budgets: BTreeMap<String, Duration>,
    /// Budget applied to workloads with no explicit entry.
    pub default_budget: Duration,
    /// Allowed breach fraction per workload (e.g. 0.05 = 5% of requests
    /// may breach before the error budget is burned through).
    pub error_budget: f64,
    /// A request is an outlier when its wall time exceeds this multiple of
    /// its workload's median wall time.
    pub outlier_factor: f64,
}

impl SloPolicy {
    /// The budget for `workload`.
    pub fn budget(&self, workload: &str) -> Duration {
        self.budgets
            .get(workload)
            .copied()
            .unwrap_or(self.default_budget)
    }
}

/// SLO verdict for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadSlo {
    /// Workload name.
    pub workload: String,
    /// The latency budget applied.
    pub budget: Duration,
    /// Requests of this workload seen in the attribution.
    pub requests: u64,
    /// Requests that breached (missed `done` or exceeded the budget).
    pub breaches: u64,
    /// Worst observed wall time.
    pub worst: Duration,
    /// Error-budget burn: breach fraction divided by the allowed fraction
    /// (1.0 = exactly at the error budget; > 1.0 = burned through).
    pub burn: f64,
}

impl WorkloadSlo {
    /// Whether this workload is within its error budget.
    pub fn ok(&self) -> bool {
        self.burn <= 1.0
    }
}

/// Farm-wide SLO report.
#[derive(Debug, Clone, Default)]
pub struct SloReport {
    /// Per-workload verdicts, sorted by workload name.
    pub workloads: Vec<WorkloadSlo>,
    /// Request ids whose wall time deviated from their workload median by
    /// more than the policy's outlier factor.
    pub outliers: Vec<u64>,
}

impl SloReport {
    /// True when every workload is within its error budget.
    pub fn ok(&self) -> bool {
        self.workloads.iter().all(|w| w.ok())
    }
}

/// Evaluates `policy` over an attribution, using `meta` to group requests
/// by workload. Requests present in the attribution but missing from
/// `meta` are ignored (and vice versa).
pub fn evaluate_slo(policy: &SloPolicy, attr: &FarmAttribution, meta: &[RequestMeta]) -> SloReport {
    let mut by_workload: BTreeMap<&str, Vec<&RequestAttribution>> = BTreeMap::new();
    for m in meta {
        if let Some(r) = attr.request(m.request) {
            by_workload.entry(m.workload.as_str()).or_default().push(r);
        }
    }

    let mut workloads = Vec::new();
    let mut outliers = Vec::new();
    for (workload, rs) in by_workload {
        let budget = policy.budget(workload);
        let mut walls: Vec<Duration> = rs.iter().map(|r| r.wall()).collect();
        walls.sort();
        let median = walls[walls.len() / 2];
        let breaches = rs.iter().filter(|r| !r.done || r.wall() > budget).count() as u64;
        let requests = rs.len() as u64;
        let breach_frac = breaches as f64 / requests as f64;
        let burn = if policy.error_budget > 0.0 {
            breach_frac / policy.error_budget
        } else if breaches == 0 {
            0.0
        } else {
            f64::INFINITY
        };
        for r in &rs {
            if !median.is_zero()
                && r.wall().as_secs_f64() > policy.outlier_factor * median.as_secs_f64()
            {
                outliers.push(r.request);
            }
        }
        workloads.push(WorkloadSlo {
            workload: workload.to_string(),
            budget,
            requests,
            breaches,
            worst: walls.last().copied().unwrap_or_default(),
            burn,
        });
    }
    outliers.sort_unstable();
    SloReport {
        workloads,
        outliers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn farm(at: Duration, action: &str, request: u64, machine: u64) -> Event {
        Event::new(
            at,
            EventKind::Farm {
                action: action.into(),
                request,
                machine,
            },
        )
    }

    fn ctxed(mut e: Event, request: u64, attempt: u32) -> Event {
        e.ctx = Some(RequestCtx { request, attempt });
        e
    }

    fn charge(at: Duration, op: &'static str, ns: u64, request: u64, attempt: u32) -> Event {
        ctxed(
            Event::new(at, EventKind::Charge { op, ns }),
            request,
            attempt,
        )
    }

    /// One request: enqueued at 0, admitted at 2ms, one attempt of 10ms
    /// fully charged across categories.
    fn simple_streams() -> (Vec<Event>, Vec<ShardStream>) {
        let coordinator = vec![
            farm(ms(0), "enqueued", 1, u64::MAX),
            farm(ms(2), "admitted", 1, 0),
            farm(ms(12), "done", 1, 0),
        ];
        let shard = ShardStream {
            machine: 0,
            events: vec![
                ctxed(farm(ms(100), "attempt_start", 1, 0), 1, 1),
                charge(ms(101), "cpu", ms(3).as_nanos() as u64, 1, 1),
                charge(ms(105), "tpm", ms(6).as_nanos() as u64, 1, 1),
                ctxed(
                    Event::new(
                        ms(105),
                        EventKind::TpmCommand {
                            ordinal: "TPM_Seal".into(),
                            locality: 0,
                            dur_ns: ms(6).as_nanos() as u64,
                        },
                    ),
                    1,
                    1,
                ),
                charge(ms(109), "skinit", ms(1).as_nanos() as u64, 1, 1),
                ctxed(farm(ms(110), "attempt_end", 1, 0), 1, 1),
            ],
        };
        (coordinator, vec![shard])
    }

    #[test]
    fn attribution_partitions_wall_time() {
        let (coordinator, shards) = simple_streams();
        let attr = attribute(&coordinator, &shards);
        assert_eq!(attr.requests.len(), 1);
        let r = &attr.requests[0];
        assert_eq!(r.queue_wait, ms(2));
        assert_eq!(r.active(), ms(10));
        assert_eq!(r.attributed(), ms(10));
        assert_eq!(r.wall(), ms(12));
        assert_eq!(r.unattributed(), Duration::ZERO);
        assert!((r.coverage() - 1.0).abs() < 1e-12, "{}", r.coverage());
        assert!(r.done);
        let a = &r.attempts[0];
        assert_eq!(a.tpm_ordinals.get("TPM_Seal"), Some(&ms(6)));
        assert_eq!(
            a.by_category.get(categories::TPM),
            Some(&ms(6)),
            "ordinal drill-down must not double-count"
        );
        let totals = r.category_totals();
        assert_eq!(totals.get(categories::QUEUE_WAIT), Some(&ms(2)));
        assert_eq!(
            totals.values().copied().sum::<Duration>(),
            ms(12),
            "totals partition the wall"
        );
    }

    #[test]
    fn uncharged_time_is_reported_as_unattributed() {
        let (coordinator, mut shards) = simple_streams();
        // Drop the tpm charge: 6ms of the attempt goes dark.
        shards[0]
            .events
            .retain(|e| !matches!(&e.kind, EventKind::Charge { op, .. } if *op == categories::TPM));
        let attr = attribute(&coordinator, &shards);
        let r = &attr.requests[0];
        assert_eq!(r.unattributed(), ms(6));
        assert!(r.coverage() < 0.99, "{}", r.coverage());
        assert!(attr.min_coverage() < 0.99);
        assert_eq!(attr.unattributed(), ms(6));
    }

    #[test]
    fn requeue_gap_counts_as_queue_wait_and_attempts_stay_separate() {
        let coordinator = vec![
            farm(ms(0), "enqueued", 7, u64::MAX),
            farm(ms(1), "admitted", 7, 0),
            farm(ms(20), "requeued", 7, 0),
            farm(ms(25), "readmitted", 7, 1),
            farm(ms(40), "done", 7, 1),
        ];
        let shards = vec![
            ShardStream {
                machine: 0,
                events: vec![
                    ctxed(farm(ms(50), "attempt_start", 7, 0), 7, 1),
                    charge(ms(51), "cpu", ms(5).as_nanos() as u64, 7, 1),
                    ctxed(farm(ms(55), "attempt_end", 7, 0), 7, 1),
                ],
            },
            ShardStream {
                machine: 1,
                events: vec![
                    ctxed(farm(ms(10), "attempt_start", 7, 1), 7, 2),
                    charge(ms(11), "cpu", ms(8).as_nanos() as u64, 7, 2),
                    ctxed(farm(ms(18), "attempt_end", 7, 1), 7, 2),
                ],
            },
        ];
        let attr = attribute(&coordinator, &shards);
        let r = attr.request(7).unwrap();
        assert_eq!(r.queue_wait, ms(1) + ms(5));
        assert_eq!(r.attempts.len(), 2);
        assert_eq!(r.attempts[0].attempt, 1);
        assert_eq!(r.attempts[0].machine, 0);
        assert_eq!(r.attempts[1].attempt, 2);
        assert_eq!(r.attempts[1].machine, 1);
        assert_eq!(r.active(), ms(13));
    }

    #[test]
    fn shed_request_has_queue_side_only() {
        let coordinator = vec![
            farm(ms(0), "enqueued", 3, u64::MAX),
            farm(ms(1), "shed", 3, u64::MAX),
        ];
        let attr = attribute(&coordinator, &[]);
        let r = attr.request(3).unwrap();
        assert!(r.attempts.is_empty());
        assert!(!r.done);
        assert_eq!(r.active(), Duration::ZERO);
        assert_eq!(r.coverage(), 1.0, "no wall time, nothing uncovered");
    }

    #[test]
    fn slo_counts_breaches_burn_and_outliers() {
        // Three requests in one workload: walls 10, 10, 50ms; budget 20ms.
        let mk = |id: u64, wall_ms: u64, done: bool| {
            let coordinator = vec![
                farm(ms(0), "enqueued", id, u64::MAX),
                farm(ms(0), "admitted", id, 0),
                farm(ms(wall_ms), if done { "done" } else { "failed" }, id, 0),
            ];
            let shard = ShardStream {
                machine: 0,
                events: vec![
                    ctxed(farm(ms(0), "attempt_start", id, 0), id, 1),
                    charge(ms(1), "cpu", ms(wall_ms).as_nanos() as u64, id, 1),
                    ctxed(farm(ms(wall_ms), "attempt_end", id, 0), id, 1),
                ],
            };
            (coordinator, shard)
        };
        let mut coordinator = Vec::new();
        let mut shards = Vec::new();
        for (id, wall, done) in [(1, 10, true), (2, 10, true), (3, 50, true)] {
            let (c, s) = mk(id, wall, done);
            coordinator.extend(c);
            shards.push(s);
        }
        // Separate shards share machine 0 in this synthetic setup; merge
        // their event lists so attribute sees one stream.
        let merged = ShardStream {
            machine: 0,
            events: shards.into_iter().flat_map(|s| s.events).collect(),
        };
        let attr = attribute(&coordinator, &[merged]);
        let meta: Vec<RequestMeta> = (1..=3)
            .map(|request| RequestMeta {
                request,
                workload: "ssh".into(),
            })
            .collect();
        let policy = SloPolicy {
            budgets: BTreeMap::from([("ssh".to_string(), ms(20))]),
            default_budget: ms(100),
            error_budget: 0.05,
            outlier_factor: 3.0,
        };
        let report = evaluate_slo(&policy, &attr, &meta);
        assert_eq!(report.workloads.len(), 1);
        let w = &report.workloads[0];
        assert_eq!(w.requests, 3);
        assert_eq!(w.breaches, 1, "the 50ms request breaches its 20ms budget");
        assert_eq!(w.worst, ms(50));
        assert!(!w.ok(), "1/3 breaches >> 5% error budget");
        assert!(!report.ok());
        assert_eq!(report.outliers, vec![3], "50 > 3 × median(10)");

        // A generous budget passes and flags no outage.
        let lax = SloPolicy {
            budgets: BTreeMap::new(),
            default_budget: ms(60),
            error_budget: 0.05,
            outlier_factor: 10.0,
        };
        let report = evaluate_slo(&lax, &attr, &meta);
        assert!(report.ok());
        assert!(report.outliers.is_empty());
    }

    #[test]
    fn failed_request_breaches_regardless_of_latency() {
        let coordinator = vec![
            farm(ms(0), "enqueued", 1, u64::MAX),
            farm(ms(0), "admitted", 1, 0),
            farm(ms(1), "failed", 1, 0),
        ];
        let attr = attribute(&coordinator, &[]);
        let meta = [RequestMeta {
            request: 1,
            workload: "ca".into(),
        }];
        let policy = SloPolicy {
            budgets: BTreeMap::new(),
            default_budget: ms(1000),
            error_budget: 0.0,
            outlier_factor: 3.0,
        };
        let report = evaluate_slo(&policy, &attr, &meta);
        assert_eq!(report.workloads[0].breaches, 1);
        assert!(!report.ok(), "zero error budget: any breach burns through");
    }
}
