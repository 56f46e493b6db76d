//! A farm shard: one self-contained simulated platform that runs the §6
//! application protocols through the shared [`flicker_apps::drivers`].
//!
//! Each shard owns everything it needs — machine, TPM, OS, its own virtual
//! clock, its own flight recorder, its own provisioned AIK — and shares no
//! mutable state with any other shard, so a worker thread can move one in
//! and drive sessions independently (the `Send` bound is asserted by a
//! test). Per-shard traces matter for more than isolation: the paper-
//! invariant auditor models *one* platform's Figure-2 state machine, so
//! interleaving two machines' events in one recording would read as
//! violations. Farm-level scheduling events go to the coordinator's
//! separate trace instead.

use crate::health::CircuitBreaker;
use crate::request::{actions, AppKind};
use flicker_apps::{drivers, known_good_hash, Administrator, SshClient};
use flicker_crypto::rng::XorShiftRng;
use flicker_crypto::RsaPublicKey;
use flicker_faults::FaultInjector;
use flicker_machine::SimClock;
use flicker_os::{NetLink, Os};
use flicker_tpm::AikCertificate;
use flicker_trace::attribution::categories;
use flicker_trace::{EventKind, RequestCtx, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// The storage workload's PAL identity.
const STORAGE_PAL: &[u8] = b"farm-storage-pal";

/// NV index the farm's storage workload roots its counter at (distinct
/// from the fault sweep's `0x0001_4000` and the perf baseline's
/// `0x0001_5000`, so harnesses sharing a TPM image can never collide).
pub const FARM_NV_INDEX: u32 = 0x0001_6000;

/// The SSH workload's password (a recognisable string, as in the sweep,
/// so leak checks grep for it).
pub const FARM_SSH_PASSWORD: &[u8] = b"FARM-SECRET-hunter2";

/// One self-contained farm machine.
pub struct Shard {
    id: u64,
    os: Os,
    cert: AikCertificate,
    ca_public: RsaPublicKey,
    /// The provisioned kernel's hash, which every rootkit report must match.
    known_good: [u8; 20],
    trace: Trace,
    /// Per-machine health state (owned here so a shard and its history
    /// travel together between threads).
    pub breaker: CircuitBreaker,
    /// Sessions completed successfully on this machine.
    pub completed: u64,
    /// Attempts that failed on this machine.
    pub failures: u64,
}

impl Shard {
    /// Boots and provisions shard `id`. Provisioning (Privacy-CA
    /// interaction, AIK certification) is manufacture-time setup: it runs
    /// before any fault plan is armed, exactly as in the fault sweep.
    pub fn new(id: u64, base_seed: u64) -> Self {
        let seed = base_seed.wrapping_add(id);
        let mut os = drivers::boot(seed);
        let trace = Trace::new();
        os.set_tracer(trace.clone());
        let (cert, ca_public) = drivers::provision(&mut os, seed, "farm-host");
        Shard {
            id,
            known_good: known_good_hash(&os),
            os,
            cert,
            ca_public,
            trace,
            breaker: CircuitBreaker::new(u32::MAX),
            completed: 0,
            failures: 0,
        }
    }

    /// This shard's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shard's virtual clock (retry backoff is charged here).
    pub fn clock(&self) -> SimClock {
        self.os.clock()
    }

    /// The shard's flight recorder.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Opens an attempt window: installs `ctx` as the trace's request
    /// context (every event and span recorded until [`Shard::end_attempt`]
    /// carries it) and emits the `attempt_start` marker. Returns the
    /// shard-clock reading the marker was stamped with, so the worker can
    /// charge the same interval to the request's budget.
    pub fn begin_attempt(&self, ctx: RequestCtx) -> Duration {
        let now = self.clock().now();
        self.trace.set_request_ctx(Some(ctx));
        self.trace.event(
            now,
            EventKind::Farm {
                action: actions::ATTEMPT_START.into(),
                request: ctx.request,
                machine: self.id,
            },
        );
        now
    }

    /// Closes the current attempt window: emits the `attempt_end` marker
    /// (still stamped with the request context) and clears the context, so
    /// later machine-scoped activity (probes, idling) is not mis-charged.
    pub fn end_attempt(&self, request: u64) {
        self.trace.event(
            self.clock().now(),
            EventKind::Farm {
                action: actions::ATTEMPT_END.into(),
                request,
                machine: self.id,
            },
        );
        self.trace.set_request_ctx(None);
    }

    /// Charges a between-attempt retry backoff to this shard's clock and
    /// to the open request context under
    /// [`categories::RETRY_BACKOFF`]. Must be called inside the attempt
    /// window (before [`Shard::end_attempt`]) so the wait stays inside the
    /// request's attributed wall time.
    pub fn charge_retry_backoff(&self, wait: Duration) {
        let clock = self.clock();
        clock.advance(wait);
        self.trace
            .charge(clock.now(), categories::RETRY_BACKOFF, wait);
    }

    /// Arms a fault injector on the platform.
    pub fn arm(&mut self, injector: FaultInjector) {
        self.os.machine_mut().set_fault_injector(injector);
    }

    /// Disarms fault injection.
    pub fn disarm(&mut self) {
        self.os.machine_mut().clear_fault_injector();
    }

    /// Whether the platform is currently dead from an injected power cut.
    pub fn power_lost(&self) -> bool {
        self.os.machine().power_lost()
    }

    /// Brings a power-lost platform back up (RAM gone, NV/keys persist).
    pub fn reboot(&mut self) {
        self.os.reboot_after_power_loss();
    }

    /// Drops the machine's parked auth session (§7.6). The farm calls this
    /// when the breaker quarantines a shard: a machine sick enough to
    /// quarantine cannot be trusted to still hold live TPM session state,
    /// and probes must earn re-admission with a fresh session.
    pub fn drop_parked_session(&mut self) {
        self.os.machine_mut().drop_parked_session();
    }

    /// Auth sessions currently live in this shard's TPM session table. A
    /// healthy machine parks at most one reusable session between
    /// commands, so the farm-wide total stays bounded by the machine count.
    pub fn open_session_count(&self) -> usize {
        self.os.machine().tpm().open_session_count()
    }

    /// Runs one attempt of `app` on this shard. `Ok(())` only for a fully
    /// correct protocol run; the error string otherwise. A panic anywhere
    /// in the protocol stack is converted into an error — a farm worker
    /// must survive anything a workload does.
    pub fn run_attempt(&mut self, app: AppKind, seed: u64) -> Result<(), String> {
        let trial = catch_unwind(AssertUnwindSafe(|| match app {
            AppKind::Rootkit => {
                let link = self.link(seed);
                let mut admin = Administrator::new(self.ca_public.clone(), self.known_good, link);
                let bytecode = !seed.is_multiple_of(2);
                drivers::rootkit(&mut self.os, &mut admin, &self.cert, bytecode)
            }
            AppKind::Ssh => {
                let mut link = self.link(seed);
                drivers::ssh(
                    &mut self.os,
                    &mut link,
                    &mut SshClient::new(self.ca_public.clone()),
                    &self.cert,
                    FARM_SSH_PASSWORD,
                    &mut XorShiftRng::new(seed.wrapping_add(4_000)),
                )
            }
            AppKind::Distcomp => drivers::distcomp(&mut self.os),
            AppKind::Ca => drivers::ca(
                &mut self.os,
                "farm.corp.example",
                &mut XorShiftRng::new(seed.wrapping_add(5_000)),
            ),
            AppKind::Storage => {
                drivers::storage(&mut self.os, STORAGE_PAL, FARM_NV_INDEX, &mut None)
            }
        }));
        let result = match trial {
            Ok(r) => r,
            Err(_) => Err("panic during attempt".into()),
        };
        match &result {
            Ok(()) if self.power_lost() => {
                // Never report success on a machine that died under the
                // protocol (same contract as the sweep's classifier).
                self.failures += 1;
                Err("protocol claimed success on a dead machine".into())
            }
            Ok(()) => {
                self.completed += 1;
                result
            }
            Err(_) => {
                self.failures += 1;
                result
            }
        }
    }

    /// Disarmed probe session for re-admission: the trivial bytecode PAL
    /// must run end-to-end and produce its known output.
    pub fn probe(&mut self) -> Result<(), String> {
        if self.power_lost() {
            self.reboot();
        }
        drivers::probe(&mut self.os)
    }

    /// A verifier link seeded per request, wired to this shard's clock,
    /// trace, and (if armed) injector. Fresh per attempt, as in the sweep:
    /// the protocol objects consume the link.
    fn link(&self, seed: u64) -> NetLink {
        let mut link = NetLink::paper_verifier_link(seed);
        link.set_clock(self.os.clock());
        link.set_tracer(self.trace.clone());
        if let Some(inj) = self.os.machine().fault_injector() {
            link.set_fault_injector(inj.clone());
        }
        link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flicker_crypto::{hex, sha256::sha256};
    use flicker_faults::FaultPlan;

    #[test]
    fn shards_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Shard>();
    }

    #[test]
    fn every_workload_succeeds_unfaulted() {
        let mut shard = Shard::new(0, 1000);
        for (i, app) in AppKind::ALL.into_iter().enumerate() {
            shard
                .run_attempt(app, 1000 + i as u64)
                .unwrap_or_else(|e| panic!("{} failed clean: {e}", app.name()));
        }
        assert_eq!(shard.completed, 5);
        assert_eq!(shard.failures, 0);
        assert_eq!(
            flight_pin(&shard),
            (
                26_645,
                "e9d398abd285869fb395d02c7879c2df17f3438cf4d2657d434964eaa7693880".into()
            )
        );
    }

    /// Byte length and SHA-256 of the shard's flight as JSONL. One shard on
    /// its own virtual clock repeats byte for byte, so these pins catch a
    /// workload that records differently; a change meant to move one
    /// updates it and names the cause in CHANGES.md.
    fn flight_pin(shard: &Shard) -> (usize, String) {
        let jsonl = flicker_trace::export::events_jsonl(shard.trace());
        (jsonl.len(), hex::encode(&sha256(jsonl.as_bytes())))
    }

    #[test]
    fn a_faulted_pass_repeats_byte_for_byte() {
        // Seeds 10–14 cut the power outside a session on the rootkit and
        // SSH attempts (the shard reboots each time) and fail distcomp and
        // CA; storage completes.
        let mut shard = Shard::new(3, 10);
        for (i, app) in AppKind::ALL.into_iter().enumerate() {
            let seed = 10 + i as u64;
            shard.arm(FaultInjector::new(&FaultPlan::seeded(seed)));
            let _ = shard.run_attempt(app, seed);
            shard.disarm();
            if shard.power_lost() {
                shard.reboot();
            }
        }
        assert_eq!((shard.completed, shard.failures), (1, 4));
        assert_eq!(
            flight_pin(&shard),
            (
                17_223,
                "a11a6b36424547cf2878c1820d03fb2b8ef77c303944b013b6d5b3b52b999d1f".into()
            )
        );
    }

    #[test]
    fn rootkit_attempt_fails_on_a_kernel_hooked_after_provisioning() {
        let mut shard = Shard::new(2, 3000);
        shard.os.kernel_mut().hook_syscall(59, 0xEE11);
        shard.os.sync_kernel_to_memory();
        for seed in [0, 1] {
            let result = shard.run_attempt(AppKind::Rootkit, seed);
            assert!(
                result.is_err(),
                "seed {seed} reported a hooked kernel clean"
            );
        }
    }

    #[test]
    fn probe_succeeds_on_healthy_shard() {
        let mut shard = Shard::new(1, 2000);
        shard.probe().expect("probe on healthy shard");
    }

    #[test]
    fn shards_have_independent_clocks() {
        let a = Shard::new(0, 1);
        let b = Shard::new(1, 1);
        let b_before = b.clock().now();
        a.clock().advance(Duration::from_secs(5));
        assert_eq!(b.clock().now(), b_before, "b's clock must not move");
    }
}
