//! The profile half of the perf report, and the one share-drift rule.
//!
//! `BENCH_perf_baseline.json` answers "how long did it take" (the latency
//! sections built in [`crate::baseline`]) and "where did the time go": the
//! fields this module builds from the run's merged profile tree
//! ([`flicker_trace::profile`]) — its total and session time, its
//! reconciliation error, and every folded stack's self time and share of
//! the total. Every weight is a measured virtual-clock charge: a phase
//! span or a TPM command's charged latency.
//!
//! [`share_drift`] is the regression rule over those shares. Both
//! `perf_baseline --check` (a fresh run against a committed report) and
//! `trajectory_dashboard --check-drift` (adjacent trajectory lines) call
//! it. Shares are scale-free, so a quick run compares against a full
//! report.

use crate::json::Value;
use flicker_crypto::cost::Primitive;
use flicker_trace::profile::build;
use flicker_trace::Trace;
use std::collections::BTreeMap;

/// Maximum tolerated folded-weight reconciliation loss (child-exceeds-
/// parent clamping is the only loss channel, so more means the trace's
/// nesting model is broken).
pub const MAX_RECONCILIATION_ERROR: f64 = 0.01;

/// Maximum tolerated absolute drift in any load-bearing stack's share of
/// total time.
pub const MAX_SHARE_DRIFT: f64 = 0.05;

/// A stack is load-bearing (compared across runs) when its share of total
/// time is at least this much in the earlier run.
pub const SHARE_FLOOR: f64 = 0.01;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The profile fields of the perf report for a traced run: `total_ms`,
/// `session_total_ms`, `reconciliation_error` and `stacks` (per folded
/// path, `{self_ms, share}`).
pub fn fields(trace: &Trace) -> [(String, Value); 4] {
    let profile = build(trace);
    let total_ns: u64 = profile.roots.values().map(|r| r.total_ns).sum();
    let stacks = profile
        .folded_weights()
        .into_iter()
        .map(|(path, w)| {
            let share = if total_ns == 0 {
                0.0
            } else {
                w as f64 / total_ns as f64
            };
            let entry = Value::Object(BTreeMap::from([
                ("self_ms".into(), Value::Number(ms(w))),
                ("share".into(), Value::Number(share)),
            ]));
            (path, entry)
        })
        .collect();
    [
        ("total_ms".into(), Value::Number(ms(total_ns))),
        (
            "session_total_ms".into(),
            Value::Number(profile.session_total().as_secs_f64() * 1e3),
        ),
        (
            "reconciliation_error".into(),
            Value::Number(profile.reconciliation_error()),
        ),
        ("stacks".into(), Value::Object(stacks)),
    ]
}

/// Every stack's share from a report's `stacks` section (empty when the
/// section is missing; `validate` rejects such a report).
pub fn stack_shares(doc: &Value) -> BTreeMap<String, f64> {
    doc.get("stacks")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
        .filter_map(|(path, e)| Some((path.clone(), e.get("share")?.as_number()?)))
        .collect()
}

/// Folds every frame named after a [`Primitive`] into its parent frame.
/// Profiles recorded before the modeled crypto-cost channel was retired
/// carry such frames under their ordinal (`…;tpm.TPM_Quote;modmul`);
/// folded, their shares compare with today's ordinal-leaf stacks.
fn fold_primitive_frames(shares: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (path, &share) in shares {
        let mut frames = path.split(';');
        let mut folded = frames.next().unwrap_or_default().to_string();
        for frame in frames.filter(|f| !Primitive::ALL.iter().any(|p| p.name() == *f)) {
            folded.push(';');
            folded.push_str(frame);
        }
        *out.entry(folded).or_insert(0.0) += share;
    }
    out
}

/// The one share-drift rule between an earlier and a later run's stack
/// shares. After `fold_primitive_frames` on both sides:
///
/// * every stack holding at least [`SHARE_FLOOR`] of `before` must stay
///   within [`MAX_SHARE_DRIFT`] of that share, a stack missing from
///   `after` counting as share 0;
/// * a stack missing from `before` fails once it carries
///   `SHARE_FLOOR + MAX_SHARE_DRIFT` (6 %) of `after`.
///
/// Returns one message per violation; empty means no drift.
pub fn share_drift(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Vec<String> {
    compare_shares(
        &fold_primitive_frames(before),
        &fold_primitive_frames(after),
    )
}

/// [`share_drift`] without the fold.
fn compare_shares(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Vec<String> {
    let mut issues = Vec::new();
    for (path, &b) in before.iter().filter(|(_, &b)| b >= SHARE_FLOOR) {
        let a = after.get(path).copied().unwrap_or(0.0);
        if (a - b).abs() > MAX_SHARE_DRIFT {
            issues.push(format!(
                "stack {path:?} share drifted {b:.3} -> {a:.3} (> {MAX_SHARE_DRIFT})"
            ));
        }
    }
    for (path, &a) in after {
        if a >= SHARE_FLOOR + MAX_SHARE_DRIFT && !before.contains_key(path) {
            issues.push(format!(
                "new stack {path:?} carries {a:.3} of total time, absent before"
            ));
        }
    }
    issues
}

/// The `profile` object for a trajectory JSONL line: the report's totals
/// and its five heaviest stack shares — compact numeric leaves the
/// dashboard charts and `--check-drift` compares.
pub fn trajectory_extension(doc: &Value) -> Value {
    let mut out = BTreeMap::new();
    for key in ["total_ms", "session_total_ms", "reconciliation_error"] {
        if let Some(v) = doc.get(key) {
            out.insert(key.to_string(), v.clone());
        }
    }
    let mut top: Vec<(String, f64)> = stack_shares(doc).into_iter().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.insert(
        "top_stacks".into(),
        Value::Object(
            top.into_iter()
                .take(5)
                .map(|(p, s)| (p, Value::Number(s)))
                .collect(),
        ),
    );
    Value::Object(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{run_baseline, BaselineConfig};

    fn shares(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|&(p, s)| (p.to_string(), s)).collect()
    }

    #[test]
    fn a_run_shows_no_drift_until_its_heaviest_stack_vanishes() {
        let doc = run_baseline(&BaselineConfig::quick());
        let before = stack_shares(&doc);
        assert_eq!(share_drift(&before, &before), Vec::<String>::new());
        let mut after = before.clone();
        let heaviest = before
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k.clone())
            .unwrap();
        after.remove(&heaviest);
        let issues = share_drift(&before, &after);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains(&heaviest), "{issues:?}");
    }

    #[test]
    fn a_move_just_past_the_bound_fails() {
        let eps = 1e-6;
        let before = shares(&[("a", 0.40), ("b", 0.60)]);
        let within = shares(&[("a", 0.40 + MAX_SHARE_DRIFT - eps), ("b", 0.55 + eps)]);
        assert!(share_drift(&before, &within).is_empty());
        let past = shares(&[("a", 0.40 + MAX_SHARE_DRIFT + eps), ("b", 0.55 - eps)]);
        let issues = share_drift(&before, &past);
        assert_eq!(issues.len(), 2, "{issues:?}");
        assert!(issues[0].contains("\"a\""), "{issues:?}");
    }

    #[test]
    fn new_stacks_fail_from_six_percent_and_light_ones_are_ignored() {
        let before = shares(&[("a", 0.995), ("tiny", 0.005)]);
        // "tiny" is below the floor, so its growth is judged through the
        // stacks it takes time from.
        let after = shares(&[("a", 0.96), ("tiny", 0.04)]);
        assert!(share_drift(&before, &after).is_empty());
        let after = shares(&[("a", 0.96), ("tiny", 0.005), ("new", 0.059)]);
        assert!(share_drift(&before, &after).is_empty());
        let after = shares(&[("a", 0.96), ("tiny", 0.005), ("new", 0.061)]);
        let issues = share_drift(&before, &after);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].starts_with("new stack \"new\""), "{issues:?}");
    }

    #[test]
    fn last_modeled_trajectory_line_compares_clean_only_when_folded() {
        // `top_stacks` of the last trajectory line recorded while TPM
        // commands still carried modeled primitive frames, and of the
        // first one without them.
        let before = shares(&[
            ("(untraced);tpm.TPM_Quote;modmul", 0.2543518002011694),
            ("session;phase.pal", 0.05573735930731914),
            ("session;phase.pal;tpm.TPM_Unseal", 0.0375962125572688),
            (
                "session;phase.pal;tpm.TPM_Unseal;modmul",
                0.5764752592114549,
            ),
            ("session;phase.skinit", 0.014045079867325679),
        ]);
        let after = shares(&[
            ("(untraced);tpm.TPM_Quote", 0.2705870214906057),
            ("session;phase.pal", 0.05573735930731914),
            ("session;phase.pal;tpm.TPM_Seal", 0.008455601012880077),
            ("session;phase.pal;tpm.TPM_Unseal", 0.6266035426211467),
            ("session;phase.skinit", 0.014045079867325679),
        ]);
        assert_eq!(share_drift(&before, &after), Vec::<String>::new());
        // Compared frame by frame, the same two lines look like drift.
        let issues = compare_shares(&before, &after);
        assert!(
            issues
                .iter()
                .any(|i| i.contains("\"session;phase.pal;tpm.TPM_Unseal\" share drifted 0.038")),
            "{issues:?}"
        );
    }

    #[test]
    fn a_real_drift_under_a_primitive_frame_still_fails() {
        let before = shares(&[("X", 0.03), ("X;modmul", 0.57)]);
        let after = shares(&[("X", 0.50)]);
        let issues = share_drift(&before, &after);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(
            issues[0].contains("\"X\" share drifted 0.600 -> 0.500"),
            "{issues:?}"
        );
    }

    #[test]
    fn trajectory_extension_keeps_totals_and_the_five_heaviest_stacks() {
        let stacks = (1..=6)
            .map(|i| {
                let entry = Value::Object(BTreeMap::from([
                    ("self_ms".into(), Value::Number(f64::from(i))),
                    ("share".into(), Value::Number(f64::from(i) / 21.0)),
                ]));
                (format!("s{i}"), entry)
            })
            .collect();
        let doc = Value::Object(BTreeMap::from([
            ("total_ms".into(), Value::Number(21.0)),
            ("session_total_ms".into(), Value::Number(20.0)),
            ("reconciliation_error".into(), Value::Number(0.0)),
            ("stacks".into(), Value::Object(stacks)),
        ]));
        let ext = trajectory_extension(&doc);
        let Value::Object(map) = &ext else {
            panic!("extension is an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "reconciliation_error",
                "session_total_ms",
                "top_stacks",
                "total_ms"
            ]
        );
        let top = ext.get("top_stacks").and_then(Value::as_object).unwrap();
        let names: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(names, ["s2", "s3", "s4", "s5", "s6"]);
        assert_eq!(top["s6"].as_number(), Some(6.0 / 21.0));
    }
}
