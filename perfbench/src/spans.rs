//! Layer timing: spans the benchmark records around its own calls into the
//! workspace crates.
//!
//! Each span holds its name (`layer.call`), start, end, parent and the id
//! of the operation it belongs to. Spans stay in memory for the whole pass
//! and are written out as JSON lines when the run ends. A disabled recorder
//! ([`Spans::off`]) calls straight through, so the end-to-end passes run
//! the same code without tracing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the span that wraps one whole operation.
pub const OP_SPAN: &str = "bench.op";

/// One timed call, or one whole operation.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `core.run_session`.
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation the span belongs to, if any.
    pub op: Option<u64>,
    /// Recorded while building a platform, not while measuring.
    pub setup: bool,
}

impl Span {
    /// The crate the call goes into: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<Option<u64>>,
    setup: Cell<bool>,
}

impl Spans {
    /// A recorder that records nothing: every call runs untimed.
    pub fn off() -> Spans {
        Spans::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Spans {
        Spans::new(true)
    }

    fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(None),
            setup: Cell::new(false),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op: self.op.get(),
                setup: self.setup.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Runs operation `id` inside an [`OP_SPAN`]; the calls it makes
    /// become its children.
    pub fn op<T>(&self, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.op.set(Some(id));
        let out = self.call(OP_SPAN, f);
        self.op.set(None);
        out
    }

    /// Runs `f` as set-up: its spans are timed but left out of
    /// [`Spans::self_secs_by_layer`].
    pub fn setup<T>(&self, f: impl FnOnce() -> T) -> T {
        self.setup.set(true);
        let out = f();
        self.setup.set(false);
        out
    }

    /// Durations in seconds of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time per span: its duration minus the time its children cover.
    fn self_secs(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Self seconds summed per layer over every span recorded outside
    /// set-up.
    pub fn self_secs_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.borrow().iter().zip(self.self_secs()) {
            if !s.setup {
                *by_layer.entry(s.layer()).or_insert(0.0) += own;
            }
        }
        by_layer
    }

    /// Writes every span as one JSON line: name, layer, start, end, self
    /// time (all in host nanoseconds), parent index, operation id and
    /// whether it was set-up.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.borrow().iter().zip(self.self_secs()).enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{},\"parent\":{},\"op\":{},\"setup\":{}}}",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                (own * 1e9).round() as i64,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op.map_or("null".to_string(), |o| o.to_string()),
                s.setup,
            )?;
        }
        out.flush()
    }
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile (`p` in percent); 0 for an empty set.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).max(1);
    v[rank.min(v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_setup() {
        let spans = Spans::on();
        spans.setup(|| {
            spans.call("os.boot", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        spans.op(0, || {
            spans.call("core.run_session", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let by_layer = spans.self_secs_by_layer();
        assert!(!by_layer.contains_key("os"), "set-up spans are not op time");
        assert!(by_layer["core"] >= 0.005);
        let op_total = spans.durations(OP_SPAN)[0];
        assert!((by_layer["bench"] + by_layer["core"] - op_total).abs() < 1e-9);
        assert!(by_layer["bench"] < by_layer["core"]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::off();
        assert_eq!(spans.op(3, || spans.call("core.x", || 7)), 7);
        assert!(spans.durations(OP_SPAN).is_empty());
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&[]), 0.0);
    }
}
