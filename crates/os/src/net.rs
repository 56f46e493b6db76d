//! Network latency model.
//!
//! The paper's remote verifier sits "12 hops away ... with minimum,
//! maximum, and average ping times of 9.33 ms, 10.10 ms, and 9.45 ms over
//! 50 trials" (§7.1). The rootkit-query and SSH end-to-end numbers include
//! that link. This model draws per-message one-way delays from a
//! triangular-ish distribution matching those statistics, deterministically
//! from a seed.

use flicker_crypto::{CryptoRng, HmacDrbg};
use flicker_faults::{fired, FaultInjector, NetFault};
use flicker_machine::{RetryPolicy, SimClock};
use flicker_trace::attribution::categories;
use flicker_trace::{EventKind, Trace};
use std::time::Duration;

/// Ceiling on the retransmission timeout, as a multiple of the link's max
/// RTT: the RTO doubles per consecutive drop and stops growing here.
pub const RTO_CAP_FACTOR: u32 = 8;

/// A bidirectional latency-modelled link.
pub struct NetLink {
    min_rtt: Duration,
    avg_rtt: Duration,
    max_rtt: Duration,
    drbg: HmacDrbg,
    injector: Option<FaultInjector>,
    tracer: Option<Trace>,
    clock: Option<SimClock>,
}

impl NetLink {
    /// A link with explicit RTT statistics.
    pub fn new(min_rtt: Duration, avg_rtt: Duration, max_rtt: Duration, seed: u64) -> Self {
        assert!(min_rtt <= avg_rtt && avg_rtt <= max_rtt, "rtt ordering");
        NetLink {
            min_rtt,
            avg_rtt,
            max_rtt,
            drbg: HmacDrbg::new(&seed.to_be_bytes(), b"netlink"),
            injector: None,
            tracer: None,
            clock: None,
        }
    }

    /// Shares the platform clock so injected-drop flight-recorder events
    /// carry virtual timestamps; without it they are stamped zero.
    pub fn set_clock(&mut self, clock: SimClock) {
        self.clock = Some(clock);
    }

    /// Installs a fault injector; subsequent messages consult its gate for
    /// drops and added delay.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Installs a tracer; sampled RTTs land in the `net.rtt` histogram and
    /// each injected drop is recorded as a `net_drop` fault event.
    pub fn set_tracer(&mut self, tracer: Trace) {
        self.tracer = Some(tracer);
    }

    /// Removes any installed tracer.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    /// The paper's 12-hop verifier link (§7.1).
    pub fn paper_verifier_link(seed: u64) -> Self {
        NetLink::new(
            Duration::from_micros(9_330),
            Duration::from_micros(9_450),
            Duration::from_micros(10_100),
            seed,
        )
    }

    /// Samples a round-trip time.
    ///
    /// Most samples land near the average (the paper's distribution is
    /// tight); an exponential-ish tail reaches toward the max.
    pub fn sample_rtt(&mut self) -> Duration {
        let span_lo = self.avg_rtt - self.min_rtt;
        let span_hi = self.max_rtt - self.avg_rtt;
        // Average of two uniforms gives a triangular kernel around avg.
        let u1 = self.drbg.next_u64() as f64 / u64::MAX as f64;
        let u2 = self.drbg.next_u64() as f64 / u64::MAX as f64;
        let t = (u1 + u2) / 2.0; // mean 0.5
        let rtt = if t < 0.5 {
            self.avg_rtt - span_lo.mul_f64((0.5 - t) * 2.0)
        } else {
            self.avg_rtt + span_hi.mul_f64((t - 0.5) * 2.0)
        };
        if let Some(tr) = &self.tracer {
            tr.observe("net.rtt", rtt);
        }
        rtt
    }

    /// One-way delay for a message (half an RTT sample; payload size is
    /// negligible at these message sizes and era bandwidths).
    pub fn one_way(&mut self) -> Duration {
        self.sample_rtt() / 2
    }

    /// One-way delivery attempt under fault injection: `None` if the
    /// message was dropped (the sender must retransmit), otherwise the
    /// delay, including any injected extra latency.
    pub fn try_one_way(&mut self) -> Option<Duration> {
        let base = self.one_way();
        match self.injector.as_ref().map(|i| i.net_fault()) {
            Some(NetFault::Drop) => {
                if let Some(tr) = &self.tracer {
                    let at = self.clock.as_ref().map(SimClock::now).unwrap_or_default();
                    tr.event(
                        at,
                        EventKind::FaultInjected {
                            fault: fired::NET_DROP.to_string(),
                        },
                    );
                }
                None
            }
            Some(NetFault::Delay(extra)) => Some(base + extra),
            Some(NetFault::Deliver) | None => Some(base),
        }
    }

    /// The sender's retransmission-timeout schedule: the first RTO is one
    /// max RTT, doubling on each consecutive drop and capped at
    /// [`RTO_CAP_FACTOR`]× max RTT — standard capped exponential backoff,
    /// expressed through the shared [`RetryPolicy`]. Retransmission never
    /// gives up (armed drops are finite), so the attempt bound is `u32::MAX`.
    fn rto_policy(&self) -> RetryPolicy {
        RetryPolicy::new(
            u32::MAX,
            self.max_rtt,
            2,
            self.max_rtt.saturating_mul(RTO_CAP_FACTOR),
        )
    }

    /// One-way delivery with sender-side retransmission: each consecutive
    /// drop charges the next wait of the capped exponential RTO schedule
    /// (`NetLink::rto_policy`) before the resend — a lone drop still costs
    /// exactly one max RTT, while a burst backs off instead of hammering
    /// the link at a fixed cadence. Returns the total time from first
    /// transmission to delivery. With no injector (or no armed drops) this
    /// draws exactly the same DRBG samples as [`NetLink::one_way`], so
    /// fault-free timings are unchanged.
    ///
    /// Terminates because armed drops are finite one-shots.
    pub fn one_way_reliable(&mut self) -> Duration {
        let rto = self.rto_policy();
        let mut drops = 0u32;
        let mut total = Duration::ZERO;
        loop {
            match self.try_one_way() {
                Some(delay) => return total + delay,
                None => {
                    total += rto.backoff(drops).expect("RTO schedule is unbounded");
                    drops += 1;
                }
            }
        }
    }

    /// Reliable one-way delivery that also advances `clock` by the delay
    /// and charges it to the active request's `net` attribution category.
    /// The preferred call for protocol code that was previously writing
    /// `clock.advance(link.one_way_reliable())` by hand.
    pub fn deliver(&mut self, clock: &SimClock) -> Duration {
        let d = self.one_way_reliable();
        clock.advance(d);
        if let Some(tr) = &self.tracer {
            tr.charge(clock.now(), categories::NET, d);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_respect_bounds() {
        let mut link = NetLink::paper_verifier_link(1);
        for _ in 0..500 {
            let rtt = link.sample_rtt();
            assert!(rtt >= Duration::from_micros(9_330), "{rtt:?}");
            assert!(rtt <= Duration::from_micros(10_100), "{rtt:?}");
        }
    }

    #[test]
    fn mean_is_near_avg() {
        let mut link = NetLink::paper_verifier_link(2);
        let n = 1000;
        let total: Duration = (0..n).map(|_| link.sample_rtt()).sum();
        let mean = total / n;
        let err = mean.abs_diff(Duration::from_micros(9_450));
        assert!(err < Duration::from_micros(300), "mean {mean:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = NetLink::paper_verifier_link(3);
        let mut b = NetLink::paper_verifier_link(3);
        for _ in 0..10 {
            assert_eq!(a.sample_rtt(), b.sample_rtt());
        }
    }

    #[test]
    fn one_way_is_half_rtt_scale() {
        let mut link = NetLink::paper_verifier_link(4);
        let ow = link.one_way();
        assert!(ow > Duration::from_millis(4) && ow < Duration::from_millis(6));
    }

    #[test]
    fn reliable_matches_plain_when_disarmed() {
        let mut a = NetLink::paper_verifier_link(5);
        let mut b = NetLink::paper_verifier_link(5);
        for _ in 0..10 {
            assert_eq!(a.one_way(), b.one_way_reliable());
        }
    }

    #[test]
    fn drops_cost_a_retransmission_timeout() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut faulty = NetLink::paper_verifier_link(6);
        let mut clean = NetLink::paper_verifier_link(6);
        faulty.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::NetDrop {
            skip: 1,
        })));
        assert_eq!(faulty.one_way_reliable(), clean.one_way_reliable());
        let t_faulty = faulty.one_way_reliable();
        // The drop costs one max-RTT RTO plus the redelivery sample.
        assert!(t_faulty > Duration::from_micros(10_100));
        assert!(faulty.try_one_way().is_some(), "drop was one-shot");
    }

    #[test]
    fn drop_bursts_charge_capped_exponential_rto() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        // A degenerate link (min = avg = max = 10 ms) makes every sample
        // exactly 10 ms, so the RTO arithmetic is checked precisely.
        let rtt = Duration::from_millis(10);
        let fixed_link = || NetLink::new(rtt, rtt, rtt, 9);
        let total_after_burst = |count: u32| {
            let mut link = fixed_link();
            link.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::NetDropBurst {
                skip: 0,
                count,
            })));
            link.one_way_reliable()
        };
        let delivery = rtt / 2;
        // 1 drop: one base RTO. 2 drops: base + doubled. 3 drops: +4x.
        assert_eq!(total_after_burst(1), rtt + delivery);
        assert_eq!(total_after_burst(2), rtt * 3 + delivery);
        assert_eq!(total_after_burst(3), rtt * 7 + delivery);
        // Per-drop waits strictly increase until the cap (8x max RTT)...
        let mut prev = Duration::ZERO;
        for count in 1..=4u32 {
            let wait = total_after_burst(count) - total_after_burst(count - 1);
            assert!(wait > prev, "RTO must grow per consecutive drop");
            prev = wait;
        }
        // ...then plateaus: drops 4, 5, 6 each cost exactly the cap.
        let cap = rtt * RTO_CAP_FACTOR;
        assert_eq!(total_after_burst(5) - total_after_burst(4), cap);
        assert_eq!(total_after_burst(6) - total_after_burst(5), cap);
    }

    #[test]
    fn delay_fault_adds_latency() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut link = NetLink::paper_verifier_link(7);
        link.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::NetDelay {
            extra: Duration::from_millis(50),
        })));
        assert!(link.one_way_reliable() > Duration::from_millis(50));
    }

    #[test]
    fn tracer_records_rtts_and_drops() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut link = NetLink::paper_verifier_link(8);
        let trace = Trace::default();
        link.set_tracer(trace.clone());
        link.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::NetDrop {
            skip: 0,
        })));
        link.one_way_reliable();
        let events = trace.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0].kind,
            flicker_trace::EventKind::FaultInjected { fault } if fault == "net_drop"
        ));
        let h = trace.histogram("net.rtt").unwrap();
        assert_eq!(h.count(), 2, "dropped send + successful resend");
        assert!(h.min() >= Duration::from_micros(9_330));
        assert!(h.max() <= Duration::from_micros(10_100));
    }

    #[test]
    #[should_panic(expected = "rtt ordering")]
    fn bad_ordering_rejected() {
        let _ = NetLink::new(
            Duration::from_millis(10),
            Duration::from_millis(5),
            Duration::from_millis(20),
            0,
        );
    }
}
