//! Structured trace recorder for the Flicker reproduction.
//!
//! The simulator runs on a virtual clock (`SimClock` in `flicker-machine`),
//! so this crate deliberately knows nothing about clocks: every recording
//! call takes an explicit [`Duration`] timestamp ("virtual nanoseconds since
//! boot"). That keeps `flicker-trace` dependency-free and lets it sit below
//! every other crate in the workspace.
//!
//! One write, three views. [`Trace::event`] records a typed [`Event`]
//! into a bounded ring buffer, the **flight recorder**: session and phase
//! transitions, TPM commands, PCR extends/resets, DEV protect/release,
//! interrupt-flag changes, zeroize sweeps, injected faults. The [`audit`]
//! module replays that stream against the paper's Figure-2/§4 ordering
//! invariants, and [`export`] renders it as Chrome `trace_event` JSON,
//! JSONL, or Prometheus-style text. The views the perf-baseline harness
//! consumes are folded from the same events:
//!
//! * **Spans**: named, nested intervals. [`EventKind::PhaseStart`] opens
//!   one; [`EventKind::PhaseEnd`] closes the innermost open span of its
//!   name, with any span opened after it. `run_session` records one pair
//!   per Figure-2 phase ([`phases`]).
//! * **Counters**: saturating named totals. `dev.protect`, `dev.release`,
//!   `mem.zeroize_bytes`, `os.suspend` and `os.resume` are folded from
//!   the events of those names; counts no event carries (e.g. `tpm.retry`)
//!   are written with [`Trace::counter_add`].
//! * **Histograms**: duration samples in a log-bucketed
//!   [`DurationHistogram`]. `tpm.<ordinal>` is folded from each
//!   [`EventKind::TpmCommand`]'s `dur_ns`; durations no event carries
//!   (e.g. net RTTs) are written with [`Trace::observe`].
//!
//! The fold happens at record time, under the recorder's lock, before the
//! ring can evict the event: a view never loses what a full ring drops,
//! and no fact an event carries is written a second time.
//!
//! A [`Trace`] is a cheap cloneable handle (`Arc<Mutex<..>>`, `Send + Sync`
//! like the fault injector); every component that wants to record clones
//! the same handle. Because the handle is `Send`, a whole machine — clock,
//! TPM, memory, recorder — can move onto a worker thread, which is what the
//! farm's sharded service layer does: one private trace per machine shard,
//! audited independently (per-shard virtual clocks mean timestamps are only
//! comparable within one shard's stream).
//!
//! For the farm, the recorder is also *request-scoped*: the coordinator
//! installs a [`RequestCtx`] on the serving shard's handle for the duration
//! of each attempt ([`Trace::set_request_ctx`]), every event and span is
//! stamped with it, and substrates charge virtual time to named attribution
//! categories via [`Trace::charge`]. The [`attribution`] module folds those
//! per-shard streams into per-request critical-path breakdowns and SLO
//! verdicts.

pub mod attribution;
pub mod audit;
mod event;
pub mod export;
mod hist;
pub mod profile;

pub use event::{escape_json, phases, Event, EventKind, RequestCtx};
pub use hist::DurationHistogram;

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Counter incremented once per event evicted from a full ring buffer, so
/// truncated flight records are never mistaken for quiet runs.
pub const DROPPED_EVENTS_COUNTER: &str = "trace.dropped_events";

/// Default flight-recorder capacity: comfortably holds a full 250-session
/// perf-baseline run (~60 events/session) with an order of magnitude to
/// spare.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// A completed (or still-open) named interval, folded from a
/// [`EventKind::PhaseStart`] and its [`EventKind::PhaseEnd`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Static span name, e.g. `"phase.skinit"`.
    pub name: &'static str,
    /// Virtual time at which the span was opened.
    pub start: Duration,
    /// `Some(end - start)` once closed, `None` while open.
    pub duration: Option<Duration>,
    /// Nesting depth: 0 for a root span.
    pub depth: usize,
    /// The enclosing span's index in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// The farm request the span belongs to, when one was in force on the
    /// recorder at open time.
    pub ctx: Option<RequestCtx>,
}

/// One logged PAL/session operation: a typed replacement for the old
/// `(&'static str, Duration)` tuples in `op_log`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEvent {
    /// Operation name, e.g. `"seal"` or `"rsa1024_sign"`.
    pub name: &'static str,
    /// Virtual time at which the operation started.
    pub at: Duration,
    /// How long the operation took on the virtual clock.
    pub duration: Duration,
}

struct Inner {
    spans: Vec<Span>,
    /// Indices into `spans` of the open spans, outermost first.
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<String, DurationHistogram>,
    /// Reused buffer for `tpm.<ordinal>` histogram names.
    histogram_key: String,
    events: VecDeque<Event>,
    event_capacity: usize,
    next_session_id: u64,
    current_ctx: Option<RequestCtx>,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl Inner {
    /// An empty recorder whose ring has all `event_capacity` slots
    /// allocated up front, so filling it never reallocates.
    fn with_event_capacity(event_capacity: usize) -> Inner {
        Inner {
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            histogram_key: String::new(),
            events: VecDeque::with_capacity(event_capacity),
            event_capacity,
            next_session_id: 0,
            current_ctx: None,
        }
    }

    /// Evicts oldest events until at most `keep` remain, counting drops.
    fn evict_to(&mut self, keep: usize) {
        while self.events.len() > keep {
            self.events.pop_front();
            self.counter_add(DROPPED_EVENTS_COUNTER, 1);
        }
    }

    /// Folds an event into the views, then appends it, evicting the oldest
    /// first when the ring is full, so the ring never outgrows its
    /// allocation.
    fn record(&mut self, event: Event) {
        self.fold(&event);
        self.evict_to(self.event_capacity - 1);
        self.events.push_back(event);
    }

    /// Folds the facts `event` carries into the spans, the `tpm.<ordinal>`
    /// histograms and the event-mirroring counters.
    fn fold(&mut self, event: &Event) {
        match &event.kind {
            EventKind::PhaseStart { name } => {
                self.spans.push(Span {
                    name,
                    start: event.at,
                    duration: None,
                    depth: self.open.len(),
                    parent: self.open.last().copied(),
                    ctx: event.ctx,
                });
                self.open.push(self.spans.len() - 1);
            }
            EventKind::PhaseEnd { name } => {
                // A span cannot outlive its parent: closing one closes every
                // span opened after it. No open span of the name: a no-op.
                let Some(pos) = self.open.iter().rposition(|&i| self.spans[i].name == *name) else {
                    return;
                };
                for &i in &self.open[pos..] {
                    let span = &mut self.spans[i];
                    span.duration = Some(event.at.saturating_sub(span.start));
                }
                self.open.truncate(pos);
            }
            EventKind::TpmCommand {
                ordinal, dur_ns, ..
            } => {
                self.histogram_key.clear();
                self.histogram_key.push_str("tpm.");
                self.histogram_key.push_str(ordinal);
                let sample = Duration::from_nanos(*dur_ns);
                observe(&mut self.histograms, &self.histogram_key, sample);
            }
            EventKind::DevProtect { .. } => self.counter_add("dev.protect", 1),
            EventKind::DevRelease { count } => self.counter_add("dev.release", *count),
            EventKind::Zeroize { len, .. } => self.counter_add("mem.zeroize_bytes", *len),
            EventKind::OsSuspend => self.counter_add("os.suspend", 1),
            EventKind::OsResume => self.counter_add("os.resume", 1),
            _ => {}
        }
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Adds a sample to the named histogram, allocating only for a new one.
fn observe(histograms: &mut BTreeMap<String, DurationHistogram>, name: &str, sample: Duration) {
    match histograms.get_mut(name) {
        Some(h) => h.observe(sample),
        None => {
            let mut h = DurationHistogram::default();
            h.observe(sample);
            histograms.insert(name.to_string(), h);
        }
    }
}

/// Cloneable recorder handle. All clones share the same buffers.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Arc<Mutex<Inner>>,
}

impl Trace {
    /// Locks the shared recorder state (poisoning is not recoverable for a
    /// recorder — a panicking recorder thread already lost its data).
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("trace recorder poisoned")
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Adds to a named counter, saturating at `u64::MAX`. For counts no
    /// event carries: a counter an event mirrors is folded from it.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.lock().counter_add(name, delta);
    }

    /// Records a duration sample into the named histogram. For durations
    /// no event carries: `tpm.<ordinal>` is folded from `TpmCommand`.
    pub fn observe(&self, name: &'static str, sample: Duration) {
        observe(&mut self.lock().histograms, name, sample);
    }

    /// Snapshot of all spans in creation order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Completed spans with the given name, in creation order. Spans still
    /// open at snapshot time are excluded (they have no duration yet); use
    /// [`Trace::spans`] for the raw list including open spans.
    pub fn spans_named(&self, name: &str) -> Vec<Span> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name && s.duration.is_some())
            .cloned()
            .collect()
    }

    /// Records a flight-recorder event at virtual time `at`, stamped with
    /// the current request context (if one is in force), and folds it into
    /// the views (see the crate docs). When the ring buffer is full the
    /// oldest event is evicted and [`DROPPED_EVENTS_COUNTER`] is
    /// incremented.
    pub fn event(&self, at: Duration, kind: EventKind) {
        let mut inner = self.lock();
        let ctx = inner.current_ctx;
        inner.record(Event { at, kind, ctx });
    }

    /// Sets (or with `None`, clears) the request context stamped onto every
    /// subsequent event and span. The farm worker installs the admitted
    /// request's context on the shard's recorder just before each attempt
    /// and clears it when the attempt leaves the shard, so the whole
    /// substrate below — machine, TPM, OS, network — attributes its work
    /// without knowing requests exist.
    pub fn set_request_ctx(&self, ctx: Option<RequestCtx>) {
        self.lock().current_ctx = ctx;
    }

    /// The request context currently in force, if any.
    pub fn request_ctx(&self) -> Option<RequestCtx> {
        self.lock().current_ctx
    }

    /// Charges virtual time against the active request under the named
    /// attribution category (see [`attribution`]). A no-op when no request
    /// context is in force: machine-scoped work (provisioning, probes) is
    /// not part of any request's latency, and skipping the event keeps the
    /// non-farm paths' flight records unchanged.
    ///
    /// The context is read under the recorder's lock, so a no-op charge
    /// still takes the lock once: about 20 ns on a 2-vCPU x86-64 host,
    /// about 1 % of a replay-protected-storage session's host time at 13
    /// such charges per session. A lock-free copy of the context would have
    /// to be kept in step by `set_request_ctx` and `reset` for that 1 %.
    pub fn charge(&self, at: Duration, op: &'static str, d: Duration) {
        let mut inner = self.lock();
        let Some(ctx) = inner.current_ctx else {
            return;
        };
        if d.is_zero() {
            return;
        }
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        inner.record(Event {
            at,
            kind: EventKind::Charge { op, ns },
            ctx: Some(ctx),
        });
    }

    /// Snapshot of the flight-recorder ring buffer, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.iter().cloned().collect()
    }

    /// Number of events currently buffered.
    pub fn event_count(&self) -> usize {
        self.lock().events.len()
    }

    /// Changes the ring-buffer bound and allocates (or releases) the
    /// ring's slots to match. Shrinking below the current length evicts
    /// the oldest events (counted as drops). A capacity of 0 keeps room for
    /// a single event, the smallest useful flight record.
    pub fn set_event_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        let capacity = capacity.max(1);
        inner.event_capacity = capacity;
        inner.evict_to(capacity);
        let len = inner.events.len();
        inner.events.reserve_exact(capacity - len);
        inner.events.shrink_to(capacity);
    }

    /// Allocates the next session id (1, 2, …) for `SessionStart` events.
    pub fn next_session_id(&self) -> u64 {
        let mut inner = self.lock();
        inner.next_session_id += 1;
        inner.next_session_id
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counter(name)
    }

    /// Events evicted from the ring buffer so far (the
    /// [`DROPPED_EVENTS_COUNTER`] counter). Nonzero means [`Trace::events`]
    /// returns a truncated stream and any audit over it is inconclusive.
    pub fn dropped_events(&self) -> u64 {
        self.counter(DROPPED_EVENTS_COUNTER)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.lock().counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Clone of the named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<DurationHistogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, DurationHistogram)> {
        self.lock()
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Discards all recorded data, keeping the handle (and its clones) live.
    /// The configured event capacity survives the reset.
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = Inner::with_event_capacity(inner.event_capacity);
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Trace")
            .field("spans", &inner.spans.len())
            .field("open", &inner.open.len())
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .field("events", &inner.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn event_ring_is_allocated_up_front() {
        let slots = |t: &Trace| t.lock().events.capacity();
        let t = Trace::new();
        let reserved = slots(&t);
        assert!(reserved >= DEFAULT_EVENT_CAPACITY, "reserved at creation");
        for i in 0..=DEFAULT_EVENT_CAPACITY as u64 {
            t.event(us(i), EventKind::Reboot);
        }
        assert_eq!(t.dropped_events(), 1);
        assert_eq!(slots(&t), reserved, "a full ring never reallocates");

        t.set_event_capacity(100);
        let reserved = slots(&t);
        assert!((100..DEFAULT_EVENT_CAPACITY).contains(&reserved));
        for i in 0..250 {
            t.event(us(i), EventKind::Reboot);
            assert_eq!(slots(&t), reserved, "ring grew at event {i}");
        }
        t.reset();
        assert_eq!(slots(&t), reserved, "reset reserves the configured ring");
    }

    fn open(t: &Trace, name: &'static str, at: u64) {
        t.event(us(at), EventKind::PhaseStart { name });
    }

    fn close(t: &Trace, name: &'static str, at: u64) {
        t.event(us(at), EventKind::PhaseEnd { name });
    }

    #[test]
    fn phase_events_fold_into_nested_spans() {
        let t = Trace::new();
        open(&t, "outer", 0);
        open(&t, "inner", 10);
        close(&t, "inner", 25);
        close(&t, "outer", 40);

        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].duration, Some(us(40)));
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].duration, Some(us(15)));
    }

    #[test]
    fn closing_parent_closes_dangling_children() {
        let t = Trace::new();
        open(&t, "outer", 0);
        open(&t, "inner", 5);
        close(&t, "outer", 20);
        let spans = t.spans();
        assert_eq!(spans[1].duration, Some(us(15)), "child closed with parent");
        assert_eq!(spans[0].duration, Some(us(20)));
    }

    #[test]
    fn phase_end_closes_the_innermost_span_of_its_name() {
        let t = Trace::new();
        open(&t, "a", 0);
        open(&t, "a", 3);
        close(&t, "a", 7);
        let spans = t.spans();
        assert_eq!(spans[1].duration, Some(us(4)));
        assert_eq!(spans[0].duration, None, "the outer one stays open");
        close(&t, "a", 9);
        assert_eq!(t.spans()[0].duration, Some(us(9)));
    }

    #[test]
    fn phase_end_without_an_open_span_is_a_noop() {
        let t = Trace::new();
        open(&t, "s", 0);
        close(&t, "s", 10);
        close(&t, "s", 99);
        close(&t, "never_opened", 99);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].duration, Some(us(10)));
    }

    #[test]
    fn sibling_spans_share_depth() {
        let t = Trace::new();
        open(&t, "a", 0);
        close(&t, "a", 1);
        open(&t, "b", 1);
        close(&t, "b", 2);
        let spans = t.spans();
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn mirrored_events_fold_into_histograms_and_counters() {
        let t = Trace::new();
        for dur_ns in [1_000, 3_000] {
            t.event(
                us(1),
                EventKind::TpmCommand {
                    ordinal: "TPM_Seal".into(),
                    locality: 0,
                    dur_ns,
                },
            );
        }
        t.event(us(2), EventKind::DevProtect { base: 0, len: 64 });
        t.event(us(3), EventKind::DevRelease { count: 2 });
        t.event(us(4), EventKind::Zeroize { base: 0, len: 4096 });
        t.event(us(5), EventKind::OsSuspend);
        t.event(us(6), EventKind::OsResume);
        t.event(us(7), EventKind::OsResume);

        let seal = t.histogram("tpm.TPM_Seal").expect("folded histogram");
        assert_eq!((seal.count(), seal.sum()), (2, us(4)));
        assert_eq!(
            t.counters(),
            vec![
                ("dev.protect", 1),
                ("dev.release", 2),
                ("mem.zeroize_bytes", 4096),
                ("os.resume", 2),
                ("os.suspend", 1),
            ]
        );
    }

    #[test]
    fn folded_views_survive_eviction() {
        let t = Trace::new();
        t.set_event_capacity(1);
        open(&t, "s", 0);
        t.event(
            us(1),
            EventKind::TpmCommand {
                ordinal: "TPM_Quote".into(),
                locality: 0,
                dur_ns: 500,
            },
        );
        t.event(us(2), EventKind::OsSuspend);
        close(&t, "s", 3);
        assert_eq!(t.dropped_events(), 3);
        assert_eq!(t.spans()[0].duration, Some(us(3)));
        assert_eq!(t.histogram("tpm.TPM_Quote").map(|h| h.count()), Some(1));
        assert_eq!(t.counter("os.suspend"), 1);
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let t = Trace::new();
        t.counter_add("c", u64::MAX - 1);
        t.counter_add("c", 5);
        assert_eq!(t.counter("c"), u64::MAX);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn observations_build_histograms() {
        let t = Trace::new();
        for ms in [1u64, 2, 3, 4, 100] {
            t.observe("tpm.TPM_Seal", Duration::from_millis(ms));
        }
        let h = t.histogram("tpm.TPM_Seal").expect("histogram exists");
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Duration::from_millis(100));
        assert!(t.histogram("tpm.TPM_Quote").is_none());
    }

    #[test]
    fn clones_share_state() {
        let a = Trace::new();
        let b = a.clone();
        b.counter_add("shared", 2);
        assert_eq!(a.counter("shared"), 2);
        open(&a, "s", 0);
        close(&b, "s", 7);
        assert_eq!(a.spans()[0].duration, Some(us(7)));
    }

    #[test]
    fn reset_clears_everything() {
        let t = Trace::new();
        t.counter_add("c", 1);
        open(&t, "s", 0);
        t.observe("h", us(1));
        t.event(us(2), EventKind::OsSuspend);
        t.reset();
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0);
        assert!(t.histogram("h").is_none());
        assert!(t.events().is_empty());
    }

    #[test]
    fn spans_named_returns_only_completed_spans() {
        let t = Trace::new();
        open(&t, phases::SUSPEND, 0);
        close(&t, phases::SUSPEND, 5);
        open(&t, phases::SUSPEND, 6);
        let named = t.spans_named(phases::SUSPEND);
        assert_eq!(named.len(), 1, "open span must not be returned");
        assert_eq!(named[0].duration, Some(us(5)));
        assert_eq!(t.spans().len(), 2, "raw view still shows both");
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let t = Trace::new();
        t.set_event_capacity(3);
        for id in 1..=5u64 {
            t.event(us(id), EventKind::SessionStart { id });
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::SessionStart { id: 3 });
        assert_eq!(events[2].kind, EventKind::SessionStart { id: 5 });
        assert_eq!(t.counter(DROPPED_EVENTS_COUNTER), 2);
    }

    #[test]
    fn shrinking_capacity_evicts_and_counts() {
        let t = Trace::new();
        for id in 1..=4u64 {
            t.event(us(id), EventKind::SessionEnd { id });
        }
        t.set_event_capacity(2);
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.counter(DROPPED_EVENTS_COUNTER), 2);
    }

    #[test]
    fn reset_preserves_event_capacity() {
        let t = Trace::new();
        t.set_event_capacity(2);
        t.reset();
        for id in 1..=3u64 {
            t.event(us(id), EventKind::SessionStart { id });
        }
        assert_eq!(t.event_count(), 2, "capacity survives reset");
        assert_eq!(t.counter(DROPPED_EVENTS_COUNTER), 1);
    }

    #[test]
    fn request_ctx_stamps_events_and_spans() {
        let t = Trace::new();
        t.event(us(1), EventKind::OsSuspend);
        let ctx = RequestCtx {
            request: 7,
            attempt: 2,
        };
        t.set_request_ctx(Some(ctx));
        t.event(us(2), EventKind::OsResume);
        open(&t, phases::SKINIT, 3);
        close(&t, phases::SKINIT, 4);
        t.set_request_ctx(None);
        t.event(us(5), EventKind::Reboot);

        let events = t.events();
        assert_eq!(events[0].ctx, None);
        assert_eq!(events[1].ctx, Some(ctx));
        assert_eq!(events[4].ctx, None);
        assert_eq!(t.spans()[0].ctx, Some(ctx));
    }

    #[test]
    fn charge_requires_active_ctx_and_skips_zero() {
        let t = Trace::new();
        t.charge(us(1), "cpu", us(10));
        assert_eq!(t.event_count(), 0, "no ctx: charge is a no-op");
        t.set_request_ctx(Some(RequestCtx {
            request: 1,
            attempt: 1,
        }));
        t.charge(us(2), "cpu", Duration::ZERO);
        assert_eq!(t.event_count(), 0, "zero charge is elided");
        t.charge(us(3), "tpm", us(4));
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            EventKind::Charge {
                op: "tpm",
                ns: 4_000,
            }
        );
        assert!(events[0].ctx.is_some());
    }

    #[test]
    fn session_ids_are_monotone_from_one() {
        let t = Trace::new();
        assert_eq!(t.next_session_id(), 1);
        assert_eq!(t.next_session_id(), 2);
        t.reset();
        assert_eq!(t.next_session_id(), 1, "reset restarts the id sequence");
    }
}
