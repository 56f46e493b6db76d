//! The benchmark's metrics: names, units, direction, what clock each one
//! reads, and — for layer metrics — which end-to-end metric and workload it
//! should move. `BENCHMARK.json` lists the same names (a test keeps the
//! two in step).

use std::collections::BTreeMap;

/// One reported metric.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Which clock it reads and whether it is measured or modelled.
    pub label: &'static str,
    /// The end-to-end metric and workloads it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    label: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        label,
        moves,
    }
}

const HOST: &str = "host, measured";
const COUNT: &str = "host, counted";
const VIRT: &str = "virtual, modelled";

/// Printed by `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s", "higher", HOST, "-"),
    m("setup_s", "s", "lower", HOST, "-"),
    m("peak_rss_mb", "MB", "lower", HOST, "-"),
    m("paper_err_pct", "%", "lower", VIRT, "-"),
];

const SETUP_1: &str = "setup_s: attest, keygen, storage";
const ATTEST: &str = "ops_per_s: attest";
const KEYGEN: &str = "ops_per_s: keygen";
const STORAGE: &str = "ops_per_s: storage";
const FARM: &str = "ops_per_s: farm_faults";

/// Printed by `--trace 1` (the layer-timing run). A workload that makes no
/// such call, or cannot read such a counter, prints 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("os.boot_ms", "ms", "lower", HOST, SETUP_1),
    m("os.provision_ms", "ms", "lower", HOST, SETUP_1),
    m("tpm.privacy_ca_ms", "ms", "lower", HOST, SETUP_1),
    m(
        "farm.provision_s",
        "s",
        "lower",
        HOST,
        "setup_s: farm_faults",
    ),
    m("core.slb_build_ms", "ms", "lower", HOST, ATTEST),
    m("core.slb_build_ms_p90", "ms", "lower", HOST, ATTEST),
    m("core.run_session_ms", "ms", "lower", HOST, ATTEST),
    m("core.run_session_ms_p90", "ms", "lower", HOST, ATTEST),
    m("os.tqd_quote_ms", "ms", "lower", HOST, ATTEST),
    m("os.tqd_quote_ms_p90", "ms", "lower", HOST, ATTEST),
    m("core.verify_quote_ms", "ms", "lower", HOST, ATTEST),
    m("core.verify_quote_ms_p90", "ms", "lower", HOST, ATTEST),
    m("apps.ssh_setup_ms", "ms", "lower", HOST, KEYGEN),
    m("apps.ssh_verify_ms", "ms", "lower", HOST, KEYGEN),
    m("apps.ssh_login_ms", "ms", "lower", HOST, KEYGEN),
    m("apps.ca_init_ms", "ms", "lower", HOST, KEYGEN),
    m("apps.ca_sign_ms", "ms", "lower", HOST, KEYGEN),
    m("core.run_session_update_ms", "ms", "lower", HOST, STORAGE),
    m(
        "core.run_session_update_ms_p90",
        "ms",
        "lower",
        HOST,
        STORAGE,
    ),
    m("core.run_session_read_ms", "ms", "lower", HOST, STORAGE),
    m("core.run_session_read_ms_p90", "ms", "lower", HOST, STORAGE),
    m(
        "trace.audit_ms",
        "ms",
        "lower",
        HOST,
        "ops_per_s: storage, farm_faults",
    ),
    m("trace.recorder_overhead_pct", "%", "lower", HOST, STORAGE),
    m("trace.attribution_ms", "ms", "lower", HOST, FARM),
    m("farm.submit_us", "us", "lower", HOST, FARM),
    m("farm.submit_us_p90", "us", "lower", HOST, FARM),
    m("farm.drain_s", "s", "lower", HOST, FARM),
    m(
        "crypto.modmul_per_op",
        "count/op",
        "lower",
        COUNT,
        "ops_per_s: keygen, attest; setup_s: all but farm_faults",
    ),
    m(
        "crypto.sha1_blocks_per_op",
        "count/op",
        "lower",
        COUNT,
        ATTEST,
    ),
    m("crypto.hmac_per_op", "count/op", "lower", COUNT, STORAGE),
    m(
        "crypto.aes_blocks_per_op",
        "count/op",
        "lower",
        COUNT,
        STORAGE,
    ),
    m("tpm.commands_per_op", "count/op", "lower", COUNT, STORAGE),
    m(
        "tpm.auth_sessions_per_op",
        "count/op",
        "lower",
        COUNT,
        STORAGE,
    ),
    m(
        "machine.warm_hit_ratio",
        "ratio",
        "higher",
        COUNT,
        "ops_per_s: attest, storage",
    ),
    m(
        "machine.zeroize_kb_per_op",
        "KB/op",
        "lower",
        COUNT,
        STORAGE,
    ),
    m("palvm.insns_per_op", "count/op", "lower", COUNT, ATTEST),
    m(
        "verifier.accepts_per_op",
        "count/op",
        "lower",
        COUNT,
        ATTEST,
    ),
    m(
        "trace.events_per_op",
        "count/op",
        "lower",
        COUNT,
        "ops_per_s, peak_rss_mb: storage, farm_faults",
    ),
    m(
        "trace.dropped_events",
        "count",
        "lower",
        COUNT,
        "ops_per_s, peak_rss_mb: storage, farm_faults",
    ),
    m("farm.attempts_per_op", "count/op", "lower", COUNT, FARM),
    m("farm.done_per_attempt", "ratio", "higher", COUNT, FARM),
    m("farm.requeues", "count/op", "lower", COUNT, FARM),
    m("farm.quarantines", "count/op", "lower", COUNT, FARM),
    m(
        "farm.virt_ms_p50",
        "ms",
        "lower",
        VIRT,
        "none (informational)",
    ),
    m(
        "farm.virt_ms_p95",
        "ms",
        "lower",
        VIRT,
        "none (informational)",
    ),
    m(
        "bench.self_ms_per_op",
        "ms",
        "lower",
        HOST,
        "ops_per_s: attest, keygen, storage",
    ),
    m(
        "bench.tracing_overhead_pct",
        "%",
        "lower",
        HOST,
        "none (cost of this run)",
    ),
];

/// Metric values gathered by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: every metric of `defs`, 0 for those the workload does
/// not record.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A human-readable table of `defs` with their labels, for stderr.
pub fn table(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::new();
    for d in defs {
        let shown = match values.get(d.name) {
            Some(v) => format!("{v:.4}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "  {:<32} {:>14} {:<9} {:<7} {:<18} {}\n",
            d.name, shown, d.unit, d.better, d.label, d.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let end = json[start..]
            .find(']')
            .map(|e| start + e)
            .expect("list closes");
        json[start..end]
            .split("\"name\"")
            .skip(1)
            .map(|chunk| {
                let q1 = chunk.find('"').expect("opening quote") + 1;
                let q2 = q1 + chunk[q1..].find('"').expect("closing quote");
                chunk[q1..q2].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name, d.unit, d.better
                )),
                "{} differs in BENCHMARK.json",
                d.name
            );
        }
    }

    #[test]
    fn readme_documents_every_metric() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
            .expect("README.md");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                readme.contains(&format!("`{}`", d.name)),
                "{} undocumented",
                d.name
            );
        }
    }

    #[test]
    fn json_line_prints_every_metric_with_its_unit() {
        let mut v = Values::default();
        v.set("ops_per_s", 12.5);
        let line = json_line(true, 3, 0, END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
