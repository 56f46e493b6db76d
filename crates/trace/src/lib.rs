//! Structured trace recorder for the Flicker reproduction.
//!
//! The simulator runs on a virtual clock (`SimClock` in `flicker-machine`),
//! so this crate deliberately knows nothing about clocks: every recording
//! call takes an explicit [`Duration`] timestamp ("virtual nanoseconds since
//! boot"). That keeps `flicker-trace` dependency-free and lets it sit below
//! every other crate in the workspace.
//!
//! Three primitives, mirroring what the perf-baseline harness consumes:
//!
//! * **Spans** — named intervals with nesting ([`Trace::span_start`] /
//!   [`Trace::span_end`]). `run_session` opens one span per Figure-2 phase.
//! * **Counters** — saturating named totals ([`Trace::counter_add`]), e.g.
//!   `tpm.retry` or `mem.zeroize_bytes`.
//! * **Observations** — named duration samples ([`Trace::observe`]) folded
//!   into a log-bucketed [`DurationHistogram`], e.g. per-TPM-ordinal command
//!   latency or net RTTs.
//!
//! A fourth primitive turns the trace into a **flight recorder**: a bounded
//! ring buffer of typed [`Event`]s ([`Trace::event`]) — session and phase
//! transitions, TPM commands, PCR extends/resets, DEV protect/release,
//! interrupt-flag changes, zeroize sweeps, injected faults. The [`audit`]
//! module replays that stream against the paper's Figure-2/§4 ordering
//! invariants, and [`export`] renders it as Chrome `trace_event` JSON,
//! JSONL, or Prometheus-style text.
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
//! per-shard streams into per-request critical-path breakdowns, a farm-wide
//! timeline (aligned through coordinator [`EventKind::Anchor`] events), and
//! SLO verdicts.

pub mod attribution;
pub mod audit;
mod event;
pub mod export;
mod hist;
pub mod profile;

pub use event::{Event, EventKind, RequestCtx};
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

/// Identifies a span within one [`Trace`]; returned by [`Trace::span_start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(usize);

/// A completed (or still-open) named interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Static span name, e.g. `"phase.skinit"`.
    pub name: &'static str,
    /// Virtual time at which the span was opened.
    pub start: Duration,
    /// `Some(end - start)` once closed, `None` while open.
    pub duration: Option<Duration>,
    /// Nesting depth: 0 for a root span.
    pub depth: usize,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
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
    open: Vec<SpanId>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, DurationHistogram>,
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
            let c = self.counters.entry(DROPPED_EVENTS_COUNTER).or_insert(0);
            *c = c.saturating_add(1);
        }
    }

    /// Appends an event, evicting the oldest first when the ring is full,
    /// so the ring never outgrows its allocation.
    fn push_event(&mut self, event: Event) {
        self.evict_to(self.event_capacity - 1);
        self.events.push_back(event);
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

    /// Opens a span at virtual time `now`, nested under the innermost open
    /// span (if any).
    pub fn span_start(&self, name: &'static str, now: Duration) -> SpanId {
        let mut inner = self.lock();
        let parent = inner.open.last().copied();
        let depth = inner.open.len();
        let id = SpanId(inner.spans.len());
        let ctx = inner.current_ctx;
        inner.spans.push(Span {
            name,
            start: now,
            duration: None,
            depth,
            parent,
            ctx,
        });
        inner.open.push(id);
        id
    }

    /// Closes `id` at virtual time `now`. Any spans opened after `id` that
    /// are still open are closed with it (a span cannot outlive its parent).
    /// Closing an already-closed span is a no-op.
    pub fn span_end(&self, id: SpanId, now: Duration) {
        let mut inner = self.lock();
        let Some(pos) = inner.open.iter().position(|&o| o == id) else {
            return;
        };
        for open_id in inner.open.split_off(pos) {
            let span = &mut inner.spans[open_id.0];
            span.duration = Some(now.saturating_sub(span.start));
        }
    }

    /// Records a fully-formed span in one call (used when start and end are
    /// both known, e.g. when converting a stopwatch measurement).
    pub fn span_closed(&self, name: &'static str, start: Duration, duration: Duration) {
        let mut inner = self.lock();
        let parent = inner.open.last().copied();
        let depth = inner.open.len();
        let ctx = inner.current_ctx;
        inner.spans.push(Span {
            name,
            start,
            duration: Some(duration),
            depth,
            parent,
            ctx,
        });
    }

    /// Adds to a named counter, saturating at `u64::MAX`.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let mut inner = self.lock();
        let c = inner.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Records a duration sample into the named histogram.
    pub fn observe(&self, name: &'static str, sample: Duration) {
        let mut inner = self.lock();
        inner.histograms.entry(name).or_default().observe(sample);
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
    /// the current request context (if one is in force). When the ring
    /// buffer is full the oldest event is evicted and
    /// [`DROPPED_EVENTS_COUNTER`] is incremented.
    pub fn event(&self, at: Duration, kind: EventKind) {
        let mut inner = self.lock();
        let ctx = inner.current_ctx;
        inner.push_event(Event { at, kind, ctx });
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
    pub fn charge(&self, at: Duration, op: &'static str, d: Duration) {
        let mut inner = self.lock();
        let Some(ctx) = inner.current_ctx else {
            return;
        };
        if d.is_zero() {
            return;
        }
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        inner.push_event(Event {
            at,
            kind: EventKind::Charge { op: op.into(), ns },
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
        self.lock().counters.get(name).copied().unwrap_or(0)
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
    pub fn histograms(&self) -> Vec<(&'static str, DurationHistogram)> {
        self.lock()
            .histograms
            .iter()
            .map(|(&k, v)| (k, v.clone()))
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

    #[test]
    fn span_nesting_tracks_depth_and_parent() {
        let t = Trace::new();
        let outer = t.span_start("outer", us(0));
        let inner = t.span_start("inner", us(10));
        t.span_end(inner, us(25));
        t.span_end(outer, us(40));

        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].duration, Some(us(40)));
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].duration, Some(us(15)));
    }

    #[test]
    fn closing_parent_closes_dangling_children() {
        let t = Trace::new();
        let outer = t.span_start("outer", us(0));
        let _inner = t.span_start("inner", us(5));
        t.span_end(outer, us(20));
        let spans = t.spans();
        assert_eq!(spans[1].duration, Some(us(15)), "child closed with parent");
        assert_eq!(spans[0].duration, Some(us(20)));
    }

    #[test]
    fn double_close_is_noop() {
        let t = Trace::new();
        let s = t.span_start("s", us(0));
        t.span_end(s, us(10));
        t.span_end(s, us(99));
        assert_eq!(t.spans()[0].duration, Some(us(10)));
    }

    #[test]
    fn sibling_spans_share_depth() {
        let t = Trace::new();
        let a = t.span_start("a", us(0));
        t.span_end(a, us(1));
        let b = t.span_start("b", us(1));
        t.span_end(b, us(2));
        let spans = t.spans();
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn span_closed_records_under_open_parent() {
        let t = Trace::new();
        let outer = t.span_start("outer", us(0));
        t.span_closed("leaf", us(3), us(4));
        t.span_end(outer, us(10));
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].duration, Some(us(4)));
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
        let s = a.span_start("s", us(0));
        b.span_end(s, us(7));
        assert_eq!(a.spans()[0].duration, Some(us(7)));
    }

    #[test]
    fn reset_clears_everything() {
        let t = Trace::new();
        t.counter_add("c", 1);
        t.span_start("s", us(0));
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
        let done = t.span_start("phase.suspend", us(0));
        t.span_end(done, us(5));
        let _still_open = t.span_start("phase.suspend", us(6));
        let named = t.spans_named("phase.suspend");
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
        let s = t.span_start("phase.skinit", us(3));
        t.span_end(s, us(4));
        t.set_request_ctx(None);
        t.event(us(5), EventKind::Reboot);

        let events = t.events();
        assert_eq!(events[0].ctx, None);
        assert_eq!(events[1].ctx, Some(ctx));
        assert_eq!(events[2].ctx, None);
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
                op: "tpm".into(),
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
