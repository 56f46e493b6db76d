//! The bench trajectory (`BENCH_trajectory.jsonl`): one compact JSON line
//! per bench run, appended, so drift across commits stays diffable without
//! re-running old revisions. `perf_baseline` and `farm_bench` each write
//! their own kind of line through [`append`]; `trajectory_dashboard` reads
//! them all.

use crate::json::Value;
use std::collections::BTreeMap;
use std::io::Write as _;

/// The schema tag every trajectory line carries.
pub const SCHEMA: &str = "flicker-bench-trajectory/v1";

/// Appends one line to the trajectory file at `path`, creating it if
/// absent: `fields` plus `schema` ([`SCHEMA`]) and `commit` (the short
/// hash of `HEAD`), as compact JSON with sorted keys.
pub fn append(path: &str, mut fields: BTreeMap<String, Value>) -> Result<(), String> {
    fields.insert("schema".into(), Value::String(SCHEMA.into()));
    fields.insert("commit".into(), Value::String(current_commit()));
    let mut text = Value::Object(fields).to_compact();
    text.push('\n');
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| e.to_string())?;
    f.write_all(text.as_bytes()).map_err(|e| e.to_string())
}

/// Best-effort current commit (`git rev-parse --short HEAD`); benches must
/// run in exported tarballs too, so a missing `git` degrades to
/// `"unknown"`.
fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
        Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// One line of each kind, in the shape its binary builds: the written
    /// bytes are the fields plus `schema` and `commit`, keys sorted, and
    /// each line parses back to what was written.
    #[test]
    fn each_line_kind_round_trips() {
        let baseline = BTreeMap::from([
            ("quick".into(), Value::Bool(true)),
            ("sessions".into(), Value::Number(25.0)),
            (
                "apps".into(),
                object([(
                    "ssh",
                    object([
                        ("p50_ms", Value::Number(1.5)),
                        ("p95_ms", Value::Number(2.25)),
                    ]),
                )]),
            ),
            ("profile".into(), object([("top", Value::Array(vec![]))])),
        ]);
        let farm = BTreeMap::from([
            ("quick".into(), Value::Bool(false)),
            ("farm".into(), object([("machines", Value::Number(8.0))])),
            ("farm_attr".into(), object([("slo", Value::Null)])),
        ]);
        let path = std::env::temp_dir().join(format!("trajectory-{}.jsonl", std::process::id()));
        let path = path.to_str().expect("temp path is UTF-8");
        std::fs::remove_file(path).ok();
        append(path, baseline.clone()).expect("append baseline line");
        append(path, farm.clone()).expect("append farm line");
        let text = std::fs::read_to_string(path).expect("read trajectory");
        std::fs::remove_file(path).ok();

        let commit = current_commit();
        let head = format!(r#""commit":"{commit}""#);
        let schema = format!(r#""schema":"{SCHEMA}""#);
        assert_eq!(
            text,
            format!(
                "{{\"apps\":{{\"ssh\":{{\"p50_ms\":1.5,\"p95_ms\":2.25}}}},{head},\
                 \"profile\":{{\"top\":[]}},\"quick\":true,{schema},\"sessions\":25}}\n\
                 {{{head},\"farm\":{{\"machines\":8}},\"farm_attr\":{{\"slo\":null}},\
                 \"quick\":false,{schema}}}\n"
            )
        );
        for (line, mut fields) in text.lines().zip([baseline, farm]) {
            fields.insert("schema".into(), Value::String(SCHEMA.into()));
            fields.insert("commit".into(), Value::String(commit.clone()));
            assert_eq!(json::parse(line), Ok(Value::Object(fields)));
        }
    }
}
