//! Profile trees and folded-stack (flamegraph) rendering over a recorded
//! [`Trace`].
//!
//! This is the fourth observability layer: spans say how long each
//! Figure-2 phase took, events say what the platform did, attribution
//! says where a request's wall time went — the profile says where the
//! time *inside* the phases goes, down to the TPM ordinal that charged
//! it. Every weight is a measured virtual-clock charge: a span's duration
//! or a [`EventKind::TpmCommand`]'s `dur_ns`. The tree goes no deeper
//! than the ordinal; the primitive work behind a command is counted on
//! the host side by `flicker_crypto::cost`.
//!
//! A [`Profile`] is a merged tree: every session contributes to the same
//! `session` root, every `phase.pal` instance to the same child, every
//! `TPM_Seal` under it to the same grandchild. Node weights are inclusive
//! virtual time; the *self* weight (inclusive minus children) is what the
//! folded-stack export emits, so the folded weights sum back to the root
//! totals — the reconciliation property the CI gate checks.
//!
//! The folded format is the collapsed-stack interchange text every
//! flamegraph renderer reads: one `frame;frame;frame weight` line per
//! stack, weights in virtual nanoseconds.

use crate::{escape_json, EventKind, Trace};
use std::collections::BTreeMap;
use std::time::Duration;

/// Synthetic root merging every `SessionStart`..`SessionEnd` window.
pub const SESSION_ROOT: &str = "session";
/// Synthetic root for events recorded outside any span or session window
/// (provisioning, probes).
pub const UNTRACED_ROOT: &str = "(untraced)";

/// One merged node of a profile tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Inclusive virtual time, in nanoseconds, across every merged
    /// instance of this stack.
    pub total_ns: u64,
    /// How many instances merged into this node (0 for containers that
    /// only exist because a descendant was recorded).
    pub count: u64,
    /// Child frames by name (deterministic order).
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// Inclusive time of the children.
    fn children_ns(&self) -> u64 {
        self.children.values().map(|c| c.total_ns).sum()
    }

    /// Self weight: inclusive minus children, clamped at zero.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.children_ns())
    }
}

/// A merged profile tree built from one recorded trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Root frames by name.
    pub roots: BTreeMap<String, ProfileNode>,
    /// Nanoseconds by which children exceeded their parent's inclusive
    /// time somewhere in the tree (clamped out of the folded output). A
    /// non-trivial overflow means the trace's nesting model is wrong —
    /// the reconciliation gate fails when it passes 1 % of the total.
    pub overflow_ns: u64,
}

/// Builds the merged profile tree for `trace`.
///
/// Structure: completed spans nest by their parent links; spans and
/// events inside a `SessionStart`..`SessionEnd` window nest under the
/// [`SESSION_ROOT`]; each [`EventKind::TpmCommand`] becomes a
/// `tpm.<ordinal>` frame under its innermost enclosing span.
pub fn build(trace: &Trace) -> Profile {
    let spans = trace.spans();
    let events = trace.events();

    // Session windows, paired by id.
    let mut starts: BTreeMap<u64, Duration> = BTreeMap::new();
    let mut windows: Vec<(Duration, Duration)> = Vec::new();
    for e in &events {
        match &e.kind {
            EventKind::SessionStart { id } => {
                starts.insert(*id, e.at);
            }
            EventKind::SessionEnd { id } => {
                if let Some(s) = starts.remove(id) {
                    windows.push((s, e.at));
                }
            }
            _ => {}
        }
    }
    let in_window = |at: Duration| windows.iter().any(|&(s, e)| s <= at && at <= e);

    // Root-first name path per span instance, with the session prefix
    // decided at the root of each chain.
    let mut paths: Vec<Vec<String>> = Vec::with_capacity(spans.len());
    for s in &spans {
        let mut path = match s.parent {
            Some(p) => paths[p].clone(),
            None => {
                if in_window(s.start) {
                    vec![SESSION_ROOT.to_string()]
                } else {
                    Vec::new()
                }
            }
        };
        path.push(s.name.to_string());
        paths.push(path);
    }

    let mut profile = Profile::default();
    for (s, e) in &windows {
        insert(
            &mut profile.roots,
            &[SESSION_ROOT.to_string()],
            (*e - *s).as_nanos() as u64,
            1,
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let Some(d) = s.duration else { continue };
        insert(&mut profile.roots, &paths[i], d.as_nanos() as u64, 1);
    }

    // Innermost completed span instance containing the whole interval
    // `[start, end]`. An event's weight covers its full duration, and
    // events are stamped at completion (drain) time — so containment of
    // the completion *point* is not enough: a 901 ms unseal draining
    // inside a 10 ms phase span must climb to an ancestor that can hold
    // it, or the tree's weights stop reconciling.
    let enclosing = |start: Duration, end: Duration| -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, s) in spans.iter().enumerate() {
            let Some(d) = s.duration else { continue };
            if s.start <= start && end <= s.start + d {
                let deeper = match best {
                    None => true,
                    Some(b) => {
                        s.depth > spans[b].depth
                            || (s.depth == spans[b].depth && s.start >= spans[b].start)
                    }
                };
                if deeper {
                    best = Some(i);
                }
            }
        }
        best
    };

    let event_path = |at: Duration, dur_ns: u64, leaf: String| -> Vec<String> {
        let start = at.saturating_sub(Duration::from_nanos(dur_ns));
        let mut path = match enclosing(start, at) {
            Some(i) => paths[i].clone(),
            // No span holds the whole interval; the merged session root
            // can, whenever a session window holds it. Work that only
            // *completes* inside a window (e.g. the OS-level quote that
            // runs between sessions and drains at the next one) is not
            // session time and must not inflate the session root.
            None if windows.iter().any(|&(ws, we)| ws <= start && at <= we) => {
                vec![SESSION_ROOT.to_string()]
            }
            None => vec![UNTRACED_ROOT.to_string()],
        };
        path.push(leaf);
        path
    };

    for e in &events {
        if let EventKind::TpmCommand {
            ordinal, dur_ns, ..
        } = &e.kind
        {
            let path = event_path(e.at, *dur_ns, format!("tpm.{ordinal}"));
            insert(&mut profile.roots, &path, *dur_ns, 1);
        }
    }

    // Containers that only exist because of descendants inherit their
    // children's total; then account clamping losses.
    for node in profile.roots.values_mut() {
        fill_containers(node);
    }
    let mut overflow = 0u64;
    for node in profile.roots.values() {
        sum_overflow(node, &mut overflow);
    }
    profile.overflow_ns = overflow;
    profile
}

fn insert(roots: &mut BTreeMap<String, ProfileNode>, path: &[String], ns: u64, count: u64) {
    debug_assert!(!path.is_empty());
    let mut node = roots.entry(path[0].clone()).or_default();
    for name in &path[1..] {
        node = node.children.entry(name.clone()).or_default();
    }
    node.total_ns = node.total_ns.saturating_add(ns);
    node.count = node.count.saturating_add(count);
}

fn fill_containers(node: &mut ProfileNode) {
    for c in node.children.values_mut() {
        fill_containers(c);
    }
    if node.count == 0 && node.total_ns == 0 {
        node.total_ns = node.children_ns();
    }
}

fn sum_overflow(node: &ProfileNode, overflow: &mut u64) {
    let children = node.children_ns();
    *overflow += children.saturating_sub(node.total_ns);
    for c in node.children.values() {
        sum_overflow(c, overflow);
    }
}

impl Profile {
    /// Sum of the root frames' inclusive time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.roots.values().map(|r| r.total_ns).sum())
    }

    /// Inclusive time of the merged [`SESSION_ROOT`] (zero when the trace
    /// recorded no sessions).
    pub fn session_total(&self) -> Duration {
        Duration::from_nanos(self.roots.get(SESSION_ROOT).map_or(0, |r| r.total_ns))
    }

    /// Fraction of the total weight lost to child-exceeds-parent
    /// clamping; the reconciliation gate requires `< 0.01`.
    pub fn reconciliation_error(&self) -> f64 {
        let total = self.roots.values().map(|r| r.total_ns).sum::<u64>();
        if total == 0 {
            return 0.0;
        }
        self.overflow_ns as f64 / total as f64
    }

    /// Looks a node up by path.
    pub fn get(&self, path: &[&str]) -> Option<&ProfileNode> {
        let mut node = self.roots.get(*path.first()?)?;
        for name in &path[1..] {
            node = node.children.get(*name)?;
        }
        Some(node)
    }

    /// Per-stack *self* weights, keyed by `;`-joined path — exactly the
    /// content of [`Profile::folded`], in map form.
    pub fn folded_weights(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, node) in &self.roots {
            collect_folded(name, node, &mut out);
        }
        out
    }

    /// Collapsed-stack text: one `path;frame weight` line per stack with
    /// non-zero self time, weights in virtual nanoseconds, lines in
    /// deterministic path order. The weights sum to [`Profile::total`]
    /// minus clamping losses.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, w) in self.folded_weights() {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }

    /// The `n` heaviest stacks by self weight, heaviest first (path
    /// breaks ties).
    pub fn top_self(&self, n: usize) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self.folded_weights().into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Renders the merged tree as Chrome `trace_event` JSON: one `X`
    /// slice per node, children laid out sequentially inside their
    /// parent, so `chrome://tracing` / Perfetto draw the merged flame.
    pub fn to_chrome_json(&self) -> String {
        let mut entries: Vec<String> = Vec::new();
        let mut offset = 0u64;
        for (name, node) in &self.roots {
            chrome_node(name, node, offset, &mut entries);
            offset += node.total_ns;
        }
        format!("{{\"traceEvents\":[{}]}}", entries.join(","))
    }
}

fn collect_folded(path: &str, node: &ProfileNode, out: &mut BTreeMap<String, u64>) {
    let own = node.self_ns();
    if own > 0 {
        *out.entry(path.to_string()).or_insert(0) += own;
    }
    for (name, c) in &node.children {
        collect_folded(&format!("{path};{name}"), c, out);
    }
}

fn chrome_node(name: &str, node: &ProfileNode, start_ns: u64, entries: &mut Vec<String>) {
    let mut escaped = String::new();
    escape_json(name, &mut escaped);
    entries.push(format!(
        "{{\"ph\":\"X\",\"name\":\"{escaped}\",\"cat\":\"profile\",\"pid\":1,\"tid\":1,\
         \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"count\":{},\"self_ns\":{}}}}}",
        start_ns as f64 / 1e3,
        node.total_ns as f64 / 1e3,
        node.count,
        node.self_ns(),
    ));
    let mut offset = start_ns;
    for (cname, c) in &node.children {
        chrome_node(cname, c, offset, entries);
        offset += c.total_ns;
    }
}

/// Parses collapsed-stack text (the exact format [`Profile::folded`]
/// emits; blank lines tolerated) back into a path → weight map.
pub fn parse_folded(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (path, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no weight in {line:?}", i + 1))?;
        let w: u64 = weight
            .parse()
            .map_err(|_| format!("line {}: bad weight {weight:?}", i + 1))?;
        if path.is_empty() {
            return Err(format!("line {}: empty stack", i + 1));
        }
        *out.entry(path.to_string()).or_insert(0) += w;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases;

    fn session_trace() -> Trace {
        let t = Trace::new();
        let ms = Duration::from_millis;
        t.event(ms(0), EventKind::SessionStart { id: 1 });
        t.event(ms(10), EventKind::PhaseStart { name: phases::PAL });
        t.event(
            ms(30),
            EventKind::TpmCommand {
                ordinal: "TPM_Unseal".into(),
                locality: 0,
                dur_ns: 15_000_000,
            },
        );
        t.event(ms(50), EventKind::PhaseEnd { name: phases::PAL });
        let cleanup = phases::CLEANUP;
        t.event(ms(50), EventKind::PhaseStart { name: cleanup });
        t.event(ms(60), EventKind::PhaseEnd { name: cleanup });
        t.event(ms(70), EventKind::SessionEnd { id: 1 });
        t
    }

    #[test]
    fn tree_nests_spans_and_ordinals() {
        let p = build(&session_trace());
        assert_eq!(p.session_total(), Duration::from_millis(70));
        let pal = p.get(&[SESSION_ROOT, "phase.pal"]).unwrap();
        assert_eq!(pal.total_ns, 40_000_000);
        let unseal = p
            .get(&[SESSION_ROOT, "phase.pal", "tpm.TPM_Unseal"])
            .unwrap();
        assert_eq!(unseal.total_ns, 15_000_000);
        assert_eq!(unseal.count, 1);
        assert!(unseal.children.is_empty(), "ordinals are leaves");
        assert_eq!(p.overflow_ns, 0);
        assert_eq!(p.reconciliation_error(), 0.0);
    }

    #[test]
    fn folded_weights_sum_to_total() {
        let p = build(&session_trace());
        let sum: u64 = p.folded_weights().values().sum();
        assert_eq!(Duration::from_nanos(sum), p.total());
        assert_eq!(p.total(), Duration::from_millis(70));
    }

    #[test]
    fn folded_round_trips_through_parse() {
        let p = build(&session_trace());
        let parsed = parse_folded(&p.folded()).unwrap();
        assert_eq!(parsed, p.folded_weights());
        assert!(!parsed.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_folded("stack-without-weight").is_err());
        assert!(parse_folded("a;b notanumber").is_err());
        assert!(parse_folded(" 12").is_err());
        assert_eq!(parse_folded("\n\n").unwrap().len(), 0);
    }

    #[test]
    fn untraced_events_get_their_own_root() {
        let t = Trace::new();
        t.event(
            Duration::from_millis(5),
            EventKind::TpmCommand {
                ordinal: "TPM_MakeIdentity".into(),
                locality: 0,
                dur_ns: 1_000_000,
            },
        );
        let p = build(&t);
        assert!(p.get(&[UNTRACED_ROOT, "tpm.TPM_MakeIdentity"]).is_some());
        assert_eq!(p.session_total(), Duration::ZERO);
    }

    #[test]
    fn overflow_is_detected_not_hidden() {
        let t = Trace::new();
        t.event(Duration::ZERO, EventKind::PhaseStart { name: phases::PAL });
        // An event claiming more time than its enclosing span has.
        t.event(
            Duration::from_millis(1),
            EventKind::TpmCommand {
                ordinal: "TPM_Quote".into(),
                locality: 0,
                dur_ns: 5_000_000,
            },
        );
        t.event(
            Duration::from_millis(2),
            EventKind::PhaseEnd { name: phases::PAL },
        );
        let p = build(&t);
        assert_eq!(p.overflow_ns, 3_000_000);
        assert!(p.reconciliation_error() > 0.01);
    }

    #[test]
    fn chrome_export_contains_nested_slices() {
        let p = build(&session_trace());
        let json = p.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"session\""));
        assert!(json.contains("\"name\":\"tpm.TPM_Unseal\""));

        // A control character in a frame name must not reach the JSON raw.
        let t = session_trace();
        t.event(
            Duration::from_millis(65),
            EventKind::TpmCommand {
                ordinal: "TPM\nX".into(),
                locality: 0,
                dur_ns: 1_000_000,
            },
        );
        let json = build(&t).to_chrome_json();
        assert!(json.contains("\"name\":\"tpm.TPM\\nX\""), "{json}");
        assert!(!json.contains('\n'));
    }

    #[test]
    fn identical_traces_build_identical_profiles() {
        let a = build(&session_trace());
        let b = build(&session_trace());
        assert_eq!(a, b);
        assert_eq!(a.folded(), b.folded());
        assert_eq!(a.to_chrome_json(), b.to_chrome_json());
    }
}
