//! Requests, their lifecycle vocabulary, and terminal outcomes.
//!
//! A farm request names one §6 application protocol to drive end-to-end on
//! some machine, under a seeded fault plan. Every request submitted to the
//! farm reaches **exactly one** terminal state — that conservation law is
//! what [`FarmReport::verify_conservation`](crate::FarmReport::verify_conservation)
//! checks and what the recovery tests prove under fault sweeps.

pub use flicker_apps::AppKind;
use flicker_faults::FaultPlan;
use std::time::Duration;

/// Stable action names for `EventKind::Farm` flight-recorder events, in
/// lifecycle order. Kept here (next to the state machine that emits them)
/// so the emitting code, the exporters, and any audit tooling agree on
/// spelling.
pub mod actions {
    /// Request accepted into the queue.
    pub const ENQUEUED: &str = "enqueued";
    /// Request rejected at admission (queue at its bound).
    pub const SHED: &str = "shed";
    /// A worker claimed the request from the queue.
    pub const ADMITTED: &str = "admitted";
    /// An attempt is starting on a machine.
    pub const RUNNING: &str = "running";
    /// Shard-trace marker opening an attempt window (stamped with the
    /// shard's virtual clock and the request's [`RequestCtx`]; the
    /// attribution layer measures attempt wall time between this and
    /// [`ATTEMPT_END`]).
    ///
    /// [`RequestCtx`]: flicker_trace::RequestCtx
    pub const ATTEMPT_START: &str = "attempt_start";
    /// Shard-trace marker closing an attempt window. On the retry path it
    /// is emitted *after* the between-attempt backoff, so the window spans
    /// exactly the virtual time the attempt charged to the request's
    /// budget.
    pub const ATTEMPT_END: &str = "attempt_end";
    /// An attempt failed retryably; the next attempt is scheduled.
    pub const RETRY: &str = "retry";
    /// Terminal: the protocol completed correctly.
    pub const DONE: &str = "done";
    /// Terminal: retries exhausted without success.
    pub const FAILED: &str = "failed";
    /// Terminal: the virtual-time budget ran out (no further retries).
    pub const TIMED_OUT: &str = "timed_out";
    /// In-flight work pushed back to the queue by a quarantine.
    pub const REQUEUED: &str = "requeued";
    /// A machine's circuit breaker opened.
    pub const QUARANTINE: &str = "quarantine";
    /// A quarantined machine ran a probe session.
    pub const PROBE: &str = "probe";
    /// A probe succeeded; the machine is serving again.
    pub const READMITTED: &str = "readmitted";
}

/// `machine` field value for farm events that happen at the coordinator
/// (enqueue/shed), before any machine is involved.
pub const NO_MACHINE: u64 = u64::MAX;

/// `request` field value for farm events about a machine rather than any
/// request (probe/readmitted).
pub const NO_REQUEST: u64 = u64::MAX;

/// What a client submits: the protocol to run and the fault schedule the
/// platform will be armed with for its first attempt.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    /// The application protocol to drive.
    pub app: AppKind,
    /// Per-request determinism seed (nonces, keys, link latency).
    pub seed: u64,
    /// Faults armed on the serving machine when the first attempt starts.
    /// `FaultPlan::none()` for a friendly run.
    pub faults: FaultPlan,
}

impl RequestSpec {
    /// The sweep-equivalent request for `seed`: app by rotation, faults by
    /// [`FaultPlan::seeded`].
    pub fn seeded(seed: u64) -> Self {
        RequestSpec {
            app: AppKind::from_seed(seed),
            seed,
            faults: FaultPlan::seeded(seed),
        }
    }
}

/// The one terminal state every submitted request must reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminal {
    /// Protocol completed correctly.
    Done,
    /// Retries exhausted; the carried message is the last attempt's error.
    Failed(String),
    /// Rejected at admission (queue bound reached). Zero attempts ran.
    Shed,
    /// Virtual-time budget exhausted before success.
    TimedOut,
}

impl Terminal {
    /// The [`actions`] name this terminal state emits.
    pub fn action(&self) -> &'static str {
        match self {
            Terminal::Done => actions::DONE,
            Terminal::Failed(_) => actions::FAILED,
            Terminal::Shed => actions::SHED,
            Terminal::TimedOut => actions::TIMED_OUT,
        }
    }
}

/// The farm's record of one request's complete history.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Farm-wide request id (dense, in submission order).
    pub id: u64,
    /// Application name.
    pub app: &'static str,
    /// The fault-plan seed the request carried.
    pub seed: u64,
    /// How the request ended.
    pub terminal: Terminal,
    /// Attempts actually run (0 for shed requests; at most
    /// `1 + retry.max_retries` otherwise).
    pub attempts: u32,
    /// Times the request was pushed back to the queue by a quarantine.
    pub requeues: u32,
    /// Machine that produced the terminal state ([`NO_MACHINE`] for shed).
    pub machine: u64,
    /// Virtual time consumed across all attempts and backoff waits.
    pub latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_spec_is_deterministic() {
        let a = RequestSpec::seeded(17);
        let b = RequestSpec::seeded(17);
        assert_eq!(a.app, b.app);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn terminal_actions_are_stable() {
        assert_eq!(Terminal::Done.action(), "done");
        assert_eq!(Terminal::Failed("x".into()).action(), "failed");
        assert_eq!(Terminal::Shed.action(), "shed");
        assert_eq!(Terminal::TimedOut.action(), "timed_out");
    }
}
