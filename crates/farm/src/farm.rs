//! The farm: a supervised, sharded pool of Flicker machines behind a
//! deadline-aware work queue.
//!
//! The paper's §7.4–7.5 observe that Flicker monopolizes the platform — a
//! session freezes the whole machine, so attestation throughput comes from
//! *many* machines, not faster ones. This module builds that service layer
//! over the simulated substrate:
//!
//! * **Admission control** — a bounded queue; submissions past the bound
//!   are shed immediately (graceful degradation beats unbounded latency).
//! * **Per-machine workers** — each worker thread owns one [`Shard`]
//!   outright (machine, TPM, OS, clock, flight recorder) and drives
//!   sessions to completion.
//! * **Retries** — a retryable failure schedules another attempt after a
//!   [`RetryPolicy`] backoff with deterministic jitter, charged to the
//!   shard's virtual clock.
//! * **Deadlines** — each request carries a total virtual-time budget
//!   across all attempts; exhausting it cancels further retries
//!   (terminal [`Terminal::TimedOut`]).
//! * **Quarantine** — repeated consecutive failures trip the shard's
//!   circuit breaker: its in-flight request is re-queued (exactly once per
//!   quarantine, attempts preserved) and the machine earns re-admission
//!   through probe sessions.
//!
//! Every decision — enqueue, shed, admit, run, retry, requeue, quarantine,
//! probe, readmit, and each terminal — is emitted as an
//! [`EventKind::Farm`] flight-recorder event on the coordinator trace.
//! Coordinator events are stamped with *wall time since farm start* (there
//! is no farm-wide virtual clock; each shard keeps its own virtual time),
//! which makes queue wait directly measurable from `enqueued → admitted`
//! deltas.
//!
//! Request-scoped tracing: the worker installs a
//! [`flicker_trace::RequestCtx`] (trace id = request id, plus the attempt
//! number) on the shard's trace for the whole attempt window — including
//! the crash-reboot recovery and the between-attempt retry backoff — so
//! every substrate event, span, and `Charge` the attempt produces carries
//! the owning request's id. Requeued-after-quarantine work keeps its
//! original trace id; only the attempt number advances.

use crate::health::CircuitBreaker;
use crate::request::{actions, RequestOutcome, RequestSpec, Terminal, NO_MACHINE, NO_REQUEST};
use crate::shard::Shard;
use flicker_faults::FaultInjector;
use flicker_machine::RetryPolicy;
use flicker_trace::attribution::{self, FarmAttribution, RequestMeta, ShardStream};
use flicker_trace::{audit, EventKind, RequestCtx, Trace};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Farm sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Machines (= worker threads = shards).
    pub machines: usize,
    /// Admission bound: submissions finding this many requests already
    /// queued are shed.
    pub queue_bound: usize,
    /// Session-level retry policy (backoff waits are charged to the
    /// serving shard's virtual clock, with deterministic jitter).
    pub retry: RetryPolicy,
    /// Per-request virtual-time budget across all attempts and waits.
    pub deadline: Duration,
    /// Consecutive failures that quarantine a machine.
    pub quarantine_after: u32,
    /// Virtual wait a quarantined machine charges before each probe.
    pub probe_backoff: Duration,
    /// Probes before a machine gives up and retires (its queue work is
    /// already safe — requeued at quarantine time).
    pub max_probes: u32,
    /// Base seed for shard construction (kernel images, AIK provisioning).
    pub base_seed: u64,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            machines: 8,
            queue_bound: 256,
            retry: RetryPolicy::new(3, Duration::from_millis(5), 2, Duration::from_millis(40))
                .with_jitter_pct(20),
            deadline: Duration::from_secs(30),
            quarantine_after: 3,
            probe_backoff: Duration::from_millis(50),
            max_probes: 8,
            base_seed: 0xFA_12,
        }
    }
}

impl FarmConfig {
    /// A small farm for unit tests.
    pub fn fast_for_tests(machines: usize) -> Self {
        FarmConfig {
            machines,
            queue_bound: 32,
            ..FarmConfig::default()
        }
    }
}

/// A request travelling through the farm.
struct Pending {
    id: u64,
    spec: RequestSpec,
    /// Attempts already executed.
    attempts: u32,
    /// Virtual time consumed so far (attempts + backoff waits, summed
    /// across every shard that has held this request).
    consumed: Duration,
    /// Times a quarantine pushed this request back to the queue.
    requeues: u32,
    /// The armed injector, created at the first attempt and carried across
    /// requeues so one-shot fault gates are never re-armed.
    injector: Option<FaultInjector>,
    /// Last error message (becomes the `Failed` terminal's payload).
    last_error: String,
}

struct QueueState {
    queue: VecDeque<Pending>,
    /// Requests popped but not yet terminal (a quarantine may still
    /// requeue them) — workers only exit when queue AND in-flight are
    /// empty under drain.
    in_flight: usize,
    draining: bool,
    outcomes: Vec<RequestOutcome>,
    submitted: u64,
}

struct Inner {
    state: Mutex<QueueState>,
    cv: Condvar,
    coordinator: Trace,
    /// Wall-clock epoch: coordinator events are stamped with the elapsed
    /// time since this instant.
    started: Instant,
    config: FarmConfig,
}

impl Inner {
    /// Emits a farm lifecycle event, stamped with wall time since farm
    /// start (the coordinator is the only farm-wide clock; shard events
    /// stay on their own virtual clocks).
    fn emit(&self, action: &str, request: u64, machine: u64) {
        self.coordinator.event(
            self.started.elapsed(),
            EventKind::Farm {
                action: action.to_string(),
                request,
                machine,
            },
        );
    }

    /// Records a terminal state for `p` and releases its in-flight slot.
    fn finish(&self, p: Pending, terminal: Terminal, machine: u64) {
        self.emit(terminal.action(), p.id, machine);
        let outcome = RequestOutcome {
            id: p.id,
            app: p.spec.app.name(),
            seed: p.spec.seed,
            terminal,
            attempts: p.attempts,
            requeues: p.requeues,
            machine,
            latency: p.consumed,
        };
        let mut st = self.state.lock().expect("farm state poisoned");
        st.outcomes.push(outcome);
        st.in_flight -= 1;
        // Wake everyone: the drain-exit condition depends on in_flight.
        self.cv.notify_all();
    }
}

/// Whether a submission was accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// Queued; the id will reach a non-shed terminal state.
    Admitted(u64),
    /// Rejected at admission; the id's terminal state is already recorded
    /// as [`Terminal::Shed`].
    Shed(u64),
}

impl Submitted {
    /// The request id either way.
    pub fn id(&self) -> u64 {
        match *self {
            Submitted::Admitted(id) | Submitted::Shed(id) => id,
        }
    }
}

/// One machine's service record, returned by its worker at shutdown.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Shard id.
    pub id: u64,
    /// Sessions completed successfully.
    pub completed: u64,
    /// Attempts that failed.
    pub failures: u64,
    /// Times the breaker opened.
    pub quarantines: u64,
    /// Probe sessions run.
    pub probes: u64,
    /// True if the shard exhausted `max_probes` and stopped serving.
    pub retired: bool,
    /// Auth sessions still live in the shard's TPM session table at
    /// shutdown. A healthy machine parks at most one, so the farm-wide sum
    /// stays ≤ the machine count (the session-leak bound).
    pub open_sessions: usize,
    /// The shard's flight record (auditable independently).
    pub trace: Trace,
    /// The shard's final virtual time.
    pub virtual_time: Duration,
}

/// Aggregate results of a farm run.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// Every request's outcome, sorted by id.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-machine service records.
    pub shards: Vec<ShardSummary>,
    /// Total requests submitted (admitted + shed).
    pub submitted: u64,
    /// The attempt bound the farm enforced (`1 + max_retries`).
    pub max_attempts: u32,
    /// The coordinator's farm-event trace.
    pub coordinator: Trace,
}

impl FarmReport {
    /// Outcomes matching a terminal predicate.
    fn count(&self, f: impl Fn(&Terminal) -> bool) -> usize {
        self.outcomes.iter().filter(|o| f(&o.terminal)).count()
    }

    /// Requests that completed correctly.
    pub fn done(&self) -> usize {
        self.count(|t| matches!(t, Terminal::Done))
    }

    /// Requests that exhausted retries.
    pub fn failed(&self) -> usize {
        self.count(|t| matches!(t, Terminal::Failed(_)))
    }

    /// Requests shed at admission.
    pub fn shed(&self) -> usize {
        self.count(|t| matches!(t, Terminal::Shed))
    }

    /// Requests whose budget expired.
    pub fn timed_out(&self) -> usize {
        self.count(|t| matches!(t, Terminal::TimedOut))
    }

    /// Total retry attempts (attempts beyond each request's first).
    pub fn retries(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.attempts.saturating_sub(1)))
            .sum()
    }

    /// Total quarantine requeues.
    pub fn requeues(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.requeues)).sum()
    }

    /// Total machine quarantines.
    pub fn quarantines(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantines).sum()
    }

    /// Auth sessions still live across all shards at shutdown. Anything
    /// beyond one parked session per machine is a leak (the bug this
    /// bound regression-tests: one-shot auths that never closed their
    /// OIAP session and grew the table without limit).
    pub fn open_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.open_sessions).sum()
    }

    /// The farm's conservation law: every submitted id reached **exactly
    /// one** terminal state (none lost, none duplicated), within the
    /// attempt bound, and shed requests never ran.
    pub fn verify_conservation(&self) -> Result<(), String> {
        if self.outcomes.len() as u64 != self.submitted {
            return Err(format!(
                "{} submitted but {} terminal outcomes",
                self.submitted,
                self.outcomes.len()
            ));
        }
        for (i, o) in self.outcomes.iter().enumerate() {
            if o.id != i as u64 {
                return Err(format!(
                    "request {} lost or duplicated (slot {i} holds id {})",
                    i, o.id
                ));
            }
            if o.attempts > self.max_attempts {
                return Err(format!(
                    "request {} ran {} attempts (bound {})",
                    o.id, o.attempts, self.max_attempts
                ));
            }
            if matches!(o.terminal, Terminal::Shed) && o.attempts != 0 {
                return Err(format!("shed request {} ran {} attempts", o.id, o.attempts));
            }
        }
        Ok(())
    }

    /// The per-shard flight records as attribution input streams.
    pub fn shard_streams(&self) -> Vec<ShardStream> {
        self.shards
            .iter()
            .map(|s| ShardStream {
                machine: s.id,
                events: s.trace.events(),
            })
            .collect()
    }

    /// Request → workload metadata for SLO evaluation.
    pub fn request_meta(&self) -> Vec<RequestMeta> {
        self.outcomes
            .iter()
            .map(|o| RequestMeta {
                request: o.id,
                workload: o.app.to_string(),
            })
            .collect()
    }

    /// Folds the coordinator and shard streams into per-request latency
    /// attributions (queue wait + per-attempt category breakdowns).
    pub fn attribution(&self) -> FarmAttribution {
        attribution::attribute(&self.coordinator.events(), &self.shard_streams())
    }

    /// Replays every shard's flight record through the paper-invariant
    /// auditor; returns all findings (empty = every shard audit-clean on a
    /// *complete* stream). Shards are audited independently — each trace
    /// is one platform's Figure-2 timeline. A truncated stream (ring-
    /// buffer evictions) is a finding even when the surviving suffix
    /// replays clean: an `Inconclusive` verdict proves nothing about the
    /// full execution and must never pass for clean.
    pub fn audit_shards(&self) -> Vec<String> {
        let mut findings = Vec::new();
        for shard in &self.shards {
            let verdict = audit::audit_trace(&shard.trace);
            for v in verdict.violations() {
                findings.push(format!("machine {}: {v}", shard.id));
            }
            if verdict.dropped_events() > 0 {
                findings.push(format!(
                    "machine {}: audit inconclusive — {} event(s) dropped from \
                     the ring buffer before the audit",
                    shard.id,
                    verdict.dropped_events()
                ));
            }
        }
        findings
    }
}

/// The running farm: submit requests, then [`Farm::shutdown`] to drain and
/// collect the report.
pub struct Farm {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<ShardSummary>>,
}

impl Farm {
    /// Boots `config.machines` shards (each on its own worker thread,
    /// provisioning in parallel) and starts serving.
    pub fn start(config: FarmConfig) -> Self {
        assert!(config.machines > 0, "a farm needs at least one machine");
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                in_flight: 0,
                draining: false,
                outcomes: Vec::new(),
                submitted: 0,
            }),
            cv: Condvar::new(),
            coordinator: Trace::new(),
            started: Instant::now(),
            config: config.clone(),
        });
        let workers = (0..config.machines as u64)
            .map(|id| {
                let inner = Arc::clone(&inner);
                let base_seed = config.base_seed;
                let quarantine_after = config.quarantine_after;
                std::thread::spawn(move || {
                    let mut shard = Shard::new(id, base_seed);
                    shard.breaker = CircuitBreaker::new(quarantine_after);
                    worker_loop(&inner, shard)
                })
            })
            .collect();
        Farm { inner, workers }
    }

    /// Admission control: queues the request, or sheds it (recording the
    /// terminal outcome immediately) when the queue is at its bound.
    pub fn submit(&self, spec: RequestSpec) -> Submitted {
        let mut st = self.inner.state.lock().expect("farm state poisoned");
        let id = st.submitted;
        st.submitted += 1;
        if st.queue.len() >= self.inner.config.queue_bound {
            let outcome = RequestOutcome {
                id,
                app: spec.app.name(),
                seed: spec.seed,
                terminal: Terminal::Shed,
                attempts: 0,
                requeues: 0,
                machine: NO_MACHINE,
                latency: Duration::ZERO,
            };
            st.outcomes.push(outcome);
            drop(st);
            self.inner.emit(actions::SHED, id, NO_MACHINE);
            return Submitted::Shed(id);
        }
        st.queue.push_back(Pending {
            id,
            spec,
            attempts: 0,
            consumed: Duration::ZERO,
            requeues: 0,
            injector: None,
            last_error: String::new(),
        });
        drop(st);
        self.inner.emit(actions::ENQUEUED, id, NO_MACHINE);
        self.inner.cv.notify_one();
        Submitted::Admitted(id)
    }

    /// Current queue depth (observability; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("farm state poisoned")
            .queue
            .len()
    }

    /// The coordinator's farm-event trace handle.
    pub fn coordinator_trace(&self) -> Trace {
        self.inner.coordinator.clone()
    }

    /// Drains the queue (every admitted request reaches a terminal state),
    /// stops the workers, and returns the full report.
    pub fn shutdown(self) -> FarmReport {
        {
            let mut st = self.inner.state.lock().expect("farm state poisoned");
            st.draining = true;
        }
        self.inner.cv.notify_all();
        let mut shards: Vec<ShardSummary> = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("farm worker panicked"))
            .collect();
        shards.sort_by_key(|s| s.id);
        let mut st = self.inner.state.lock().expect("farm state poisoned");
        let mut outcomes = std::mem::take(&mut st.outcomes);
        outcomes.sort_by_key(|o| o.id);
        let submitted = st.submitted;
        drop(st);
        FarmReport {
            outcomes,
            shards,
            submitted,
            max_attempts: self.inner.config.retry.max_attempts(),
            coordinator: self.inner.coordinator.clone(),
        }
    }
}

/// One worker: claim → attempt loop → terminal / requeue, until drained.
fn worker_loop(inner: &Inner, mut shard: Shard) -> ShardSummary {
    let policy = inner.config.retry.clone();
    let mut retired = false;
    'serve: while !retired {
        // ----- claim -----------------------------------------------------
        let mut p = {
            let mut st = inner.state.lock().expect("farm state poisoned");
            loop {
                if let Some(p) = st.queue.pop_front() {
                    st.in_flight += 1;
                    break p;
                }
                if st.draining && st.in_flight == 0 {
                    break 'serve;
                }
                st = inner.cv.wait(st).expect("farm state poisoned");
            }
        };
        inner.emit(actions::ADMITTED, p.id, shard.id());

        // ----- attempt loop (same shard until terminal or quarantine) ----
        loop {
            if p.consumed >= inner.config.deadline {
                inner.finish(p, Terminal::TimedOut, shard.id());
                continue 'serve;
            }
            // Arm the request's injector: created once, carried across
            // requeues so consumed one-shot gates stay consumed.
            let inj = p
                .injector
                .get_or_insert_with(|| FaultInjector::new(&p.spec.faults))
                .clone();
            shard.arm(inj);
            inner.emit(actions::RUNNING, p.id, shard.id());
            // Open the attempt window: from here until `end_attempt`,
            // every event the substrate records (including crash-reboot
            // recovery and the retry backoff) carries this request's
            // trace id and attempt number.
            let start = shard.begin_attempt(RequestCtx {
                request: p.id,
                attempt: p.attempts + 1,
            });
            let result = shard.run_attempt(p.spec.app, p.spec.seed);
            p.attempts += 1;
            p.consumed += shard.clock().now().saturating_sub(start);
            shard.disarm();
            match result {
                Ok(()) => {
                    shard.breaker.record_success();
                    shard.end_attempt(p.id);
                    inner.finish(p, Terminal::Done, shard.id());
                    continue 'serve;
                }
                Err(msg) => {
                    if shard.power_lost() {
                        // The cut landed outside a session (in-session
                        // losses reboot via the resume guard).
                        shard.reboot();
                    }
                    p.last_error = msg;
                    let tripped = shard.breaker.record_failure();
                    if tripped {
                        shard.end_attempt(p.id);
                        inner.emit(actions::QUARANTINE, p.id, shard.id());
                        // A quarantined machine forfeits its parked auth
                        // session: live session state on a sick machine
                        // must not survive into the probe/re-admission
                        // cycle (dropped on quarantine, as on reboot and
                        // power loss).
                        shard.drop_parked_session();
                        if p.attempts >= policy.max_attempts() {
                            // Terminal anyway: record it rather than
                            // requeueing a request with no attempts left.
                            let err = p.last_error.clone();
                            inner.finish(p, Terminal::Failed(err), shard.id());
                        } else {
                            // The quarantined machine's in-flight work is
                            // re-queued exactly once, attempts preserved —
                            // and so is its trace id: the next attempt
                            // continues the same request's span tree.
                            p.requeues += 1;
                            inner.emit(actions::REQUEUED, p.id, shard.id());
                            let mut st = inner.state.lock().expect("farm state poisoned");
                            st.queue.push_back(p);
                            st.in_flight -= 1;
                            drop(st);
                            inner.cv.notify_all();
                        }
                        retired = !probe_until_readmitted(inner, &mut shard);
                        continue 'serve;
                    }
                    if p.attempts >= policy.max_attempts() {
                        shard.end_attempt(p.id);
                        let err = p.last_error.clone();
                        inner.finish(p, Terminal::Failed(err), shard.id());
                        continue 'serve;
                    }
                    // Deterministic jittered backoff, charged to this
                    // shard's virtual clock; the deadline bounds the wait.
                    let wait = policy
                        .backoff_jittered(p.attempts - 1, p.spec.seed ^ p.id)
                        .expect("attempts < max_attempts implies a backoff");
                    if p.consumed + wait >= inner.config.deadline {
                        shard.end_attempt(p.id);
                        inner.finish(p, Terminal::TimedOut, shard.id());
                        continue 'serve;
                    }
                    // Charged inside the attempt window so the request's
                    // attributed wall time covers the wait.
                    shard.charge_retry_backoff(wait);
                    p.consumed += wait;
                    shard.end_attempt(p.id);
                    inner.emit(actions::RETRY, p.id, shard.id());
                }
            }
        }
    }
    ShardSummary {
        id: shard.id(),
        completed: shard.completed,
        failures: shard.failures,
        quarantines: shard.breaker.quarantines(),
        probes: shard.breaker.probes(),
        retired,
        open_sessions: shard.open_session_count(),
        virtual_time: shard.clock().now(),
        trace: shard.trace().clone(),
    }
}

/// Half-open probing: charge a backoff, run the trivial probe session,
/// close the breaker on success. Returns `false` when `max_probes` is
/// exhausted (the shard retires).
fn probe_until_readmitted(inner: &Inner, shard: &mut Shard) -> bool {
    for _ in 0..inner.config.max_probes {
        shard.clock().advance(inner.config.probe_backoff);
        shard.breaker.begin_probe();
        inner.emit(actions::PROBE, NO_REQUEST, shard.id());
        let ok = shard.probe().is_ok();
        shard.breaker.probe_result(ok);
        if ok {
            inner.emit(actions::READMITTED, NO_REQUEST, shard.id());
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AppKind;
    use flicker_faults::{Fault, FaultPlan};

    fn friendly(app: AppKind, seed: u64) -> RequestSpec {
        RequestSpec {
            app,
            seed,
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn friendly_farm_completes_every_request() {
        let farm = Farm::start(FarmConfig::fast_for_tests(2));
        for (i, app) in AppKind::ALL.iter().enumerate() {
            assert!(matches!(
                farm.submit(friendly(*app, i as u64)),
                Submitted::Admitted(_)
            ));
        }
        let report = farm.shutdown();
        assert_eq!(report.submitted, 5);
        assert_eq!(report.done(), 5, "outcomes: {:?}", report.outcomes);
        report.verify_conservation().expect("conservation");
        assert!(report.audit_shards().is_empty());
        // Every request leaves an enqueued and a done farm event.
        let events = report.coordinator.events();
        for id in 0..5u64 {
            let of = |action: &str| {
                events
                    .iter()
                    .filter(|e| {
                        matches!(&e.kind, EventKind::Farm { action: a, request, .. }
                            if a == action && *request == id)
                    })
                    .count()
            };
            assert_eq!(of(actions::ENQUEUED), 1);
            assert_eq!(of(actions::DONE), 1);
        }
    }

    #[test]
    fn zero_bound_sheds_everything() {
        let mut config = FarmConfig::fast_for_tests(1);
        config.queue_bound = 0;
        let farm = Farm::start(config);
        for seed in 0..4 {
            assert!(matches!(
                farm.submit(friendly(AppKind::Distcomp, seed)),
                Submitted::Shed(_)
            ));
        }
        let report = farm.shutdown();
        assert_eq!(report.shed(), 4);
        report
            .verify_conservation()
            .expect("shed requests still conserved");
        assert!(report.outcomes.iter().all(|o| o.attempts == 0));
        assert!(report.outcomes.iter().all(|o| o.machine == NO_MACHINE));
    }

    #[test]
    fn power_loss_is_retried_on_the_same_machine() {
        let mut config = FarmConfig::fast_for_tests(1);
        config.quarantine_after = 10; // keep the breaker out of the way
        let farm = Farm::start(config);
        let spec = RequestSpec {
            app: AppKind::Distcomp,
            seed: 7,
            faults: FaultPlan::one(Fault::PowerLossAfter {
                after: Duration::from_micros(50),
            }),
        };
        farm.submit(spec);
        let report = farm.shutdown();
        assert_eq!(report.done(), 1, "outcomes: {:?}", report.outcomes);
        let o = &report.outcomes[0];
        assert!(o.attempts >= 2, "power cut must cost at least one retry");
        assert_eq!(o.requeues, 0);
        assert_eq!(o.machine, 0);
        assert_eq!(report.retries(), u64::from(o.attempts) - 1);
        report.verify_conservation().expect("conservation");
        assert!(
            report.audit_shards().is_empty(),
            "{:?}",
            report.audit_shards()
        );
    }

    /// The §7.6 leak bound, end to end: 200 requests through a small farm
    /// must leave at most one parked auth session per machine. Before the
    /// session-table fix, every seal/unseal retry closure opened a fresh
    /// OIAP session and never closed it, so a run like this grew the
    /// table monotonically.
    #[test]
    fn two_hundred_requests_leave_sessions_bounded_by_machines() {
        let machines = 4;
        let mut config = FarmConfig::fast_for_tests(machines);
        config.queue_bound = 256;
        let farm = Farm::start(config);
        for i in 0..200u64 {
            let app = AppKind::ALL[(i % AppKind::ALL.len() as u64) as usize];
            assert!(matches!(
                farm.submit(friendly(app, 31_000 + i)),
                Submitted::Admitted(_)
            ));
        }
        let report = farm.shutdown();
        assert_eq!(report.done(), 200, "failed: {:?}", report.failed());
        report.verify_conservation().expect("conservation");
        assert!(
            report.audit_shards().is_empty(),
            "{:?}",
            report.audit_shards()
        );
        for s in &report.shards {
            assert!(
                s.open_sessions <= 1,
                "machine {} holds {} live sessions after the run \
                 (parking allows exactly one)",
                s.id,
                s.open_sessions
            );
        }
        assert!(
            report.open_sessions() <= machines,
            "{} live sessions across {machines} machines",
            report.open_sessions()
        );
    }

    /// Farm recovery with an auth session open across a power cut: the
    /// first SSH request parks a session, the cut kills the platform
    /// mid-protocol, and the rebooted machine must serve the retry with
    /// fresh handles (monotonic allocation means the stale parked handle
    /// can never be re-issued to collide with post-reboot state).
    #[test]
    fn session_open_across_power_loss_recovers() {
        let mut config = FarmConfig::fast_for_tests(1);
        config.quarantine_after = 10; // keep the breaker out of the way
        let farm = Farm::start(config);
        // A clean SSH run leaves one parked session.
        farm.submit(friendly(AppKind::Ssh, 41));
        // Then a run whose power fails mid-protocol, with the parked
        // session still live from the previous request.
        farm.submit(RequestSpec {
            app: AppKind::Ssh,
            seed: 42,
            faults: FaultPlan::one(Fault::PowerLossAfter {
                after: Duration::from_micros(50),
            }),
        });
        let report = farm.shutdown();
        assert_eq!(report.done(), 2, "outcomes: {:?}", report.outcomes);
        report.verify_conservation().expect("conservation");
        assert!(
            report.audit_shards().is_empty(),
            "{:?}",
            report.audit_shards()
        );
        assert!(
            report.shards[0].open_sessions <= 1,
            "reboot must flush pre-cut sessions, found {}",
            report.shards[0].open_sessions
        );
    }

    /// TPM busy responses inside one request are retried with a fresh odd
    /// nonce per attempt. The old code re-seeded the nonce RNG identically
    /// inside the retry closure; the TPM now rejects a repeated odd nonce
    /// outright, so this run only completes if every retry rolls.
    #[test]
    fn tpm_busy_retries_roll_fresh_nonces() {
        let mut config = FarmConfig::fast_for_tests(1);
        config.quarantine_after = 10;
        let farm = Farm::start(config);
        farm.submit(RequestSpec {
            app: AppKind::Ssh,
            seed: 43,
            faults: FaultPlan::one(Fault::TpmTransient {
                skip: 2,
                failures: 2,
            }),
        });
        let report = farm.shutdown();
        assert_eq!(report.done(), 1, "outcomes: {:?}", report.outcomes);
        assert!(
            report.audit_shards().is_empty(),
            "{:?}",
            report.audit_shards()
        );
    }
}
