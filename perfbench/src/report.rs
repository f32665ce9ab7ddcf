//! Metric records, the contract lists and the printed report.

use crate::stats::median;
use std::fmt::Write;

/// End-to-end metrics every workload reports from its untraced run, with
/// their units.  `BENCHMARK.json` bounds each of them.  The workload-specific
/// ones (`gc_s`, `recovery_s`, latency percentiles, `requests_per_s`) and
/// `rss_growth_mb`, which the allocator makes too noisy to bound, are
/// printed but not part of the JSON result.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("backup_mbps", "MB/s"),
    ("restore_mbps", "MB/s"),
    ("dedup_ratio", "ratio"),
    ("stored_bytes_per_logical_byte", "ratio"),
];

/// Per-layer metrics every workload reports from its traced run.  Counts of
/// a layer a workload never enters read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chunking.build_s", "s"),
    ("chunking.scan_s", "s"),
    ("chunking.chunks", "count"),
    ("hashkit.sha1_s", "s"),
    ("hashkit.bytes", "bytes"),
    ("core.super_chunk_build_s", "s"),
    ("core.handprint_s", "s"),
    ("core.route_s", "s"),
    ("core.prerouting_lookups", "count"),
    ("core.nodes_contacted", "count"),
    ("core.node_dedup_s", "s"),
    ("core.duplicate_chunk_share", "ratio"),
    ("core.register_file_s", "s"),
    ("core.pipeline_speedup", "ratio"),
    ("storage.flush_s", "s"),
    ("storage.fingerprint_cache.hit_ratio", "ratio"),
    ("storage.fingerprint_cache.evictions", "count"),
    ("storage.similarity_index.hit_ratio", "ratio"),
    ("storage.chunk_index.lookups", "count"),
    ("storage.containers_sealed", "count"),
    ("storage.journal_bytes_per_logical_byte", "ratio"),
    ("storage.object_bytes_per_logical_byte", "ratio"),
    ("core.restore_s", "s"),
    ("restore.read_amplification", "ratio"),
    ("restore.cache_hit_ratio", "ratio"),
    ("restore.containers_read", "count"),
    ("restore.coalesced_runs", "count"),
    ("restore.serial_fallback_chunks", "count"),
    ("recovery.journal_bytes", "bytes"),
    ("recovery.backend_objects_verified", "count"),
    ("recovery.backend_objects_repaired", "count"),
    ("gc.bytes_reclaimed", "bytes"),
    ("gc.containers_compacted", "count"),
    ("gc.disk_bytes_delta", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One reported number: the median of `samples` measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations issued (backups, restores, requests, GC and restart steps).
    pub attempted: u64,
    /// Operations that errored, were rejected or returned wrong bytes.
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records the median of `values` under `name`.
    pub fn median(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        self.value(name, unit, median(values), values.len());
    }

    /// Records a value derived from `samples` measurements.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Records a single measured value.
    pub fn single(&mut self, name: &str, unit: &'static str, value: f64) {
        self.value(name, unit, value, 1);
    }

    /// Counts one operation and whether its output check passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts `attempted` operations of which `failures` failed.
    pub fn tally(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(failures.iter().take(room).cloned());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The human-readable lines: every metric with its unit and sample count.
pub fn human_lines(workload: &str, outcome: &Outcome) -> Vec<String> {
    let mut lines: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{workload} {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            )
        })
        .collect();
    lines.push(format!(
        "{workload} failed_share = {} ratio (n={})",
        outcome.failed_share(),
        outcome.attempted
    ));
    lines.extend(
        outcome
            .failures
            .iter()
            .map(|f| format!("{workload} check failed: {f}")),
    );
    lines
}

/// The final JSON line, holding exactly the metrics of `contract`.  A metric
/// of the contract that is missing or not finite makes the run incorrect.
pub fn json_line(outcome: &Outcome, contract: &[(&str, &str)]) -> (String, bool) {
    let mut correct = outcome.failed == 0 && outcome.failures.is_empty() && outcome.attempted > 0;
    let mut metrics = String::new();
    for (i, (name, unit)) in contract.iter().enumerate() {
        let value = match outcome.get(name) {
            Some(m) if m.value.is_finite() && m.unit == *unit => m.value,
            _ => {
                correct = false;
                0.0
            }
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    (line, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_exactly_the_contract_metrics() {
        let mut o = Outcome::default();
        o.single("a", "s", 1.5);
        o.median("b", "count", &[1.0, 3.0, 2.0]);
        o.single("extra", "s", 9.0);
        o.check(true, String::new);
        let (line, correct) = json_line(&o, &[("a", "s"), ("b", "count")]);
        assert!(correct);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn failed_check_or_missing_metric_is_incorrect() {
        let mut o = Outcome::default();
        o.single("a", "s", 1.0);
        o.check(false, || "restore 3 differs".into());
        assert!(!json_line(&o, &[("a", "s")]).1);
        assert_eq!(o.failed_share(), 1.0);
        assert!(human_lines("w", &o)
            .iter()
            .any(|l| l.contains("restore 3 differs")));

        let mut o = Outcome::default();
        o.check(true, String::new);
        assert!(!json_line(&o, &[("a", "s")]).1, "missing metric");
        o.single("a", "s", f64::NAN);
        assert!(!json_line(&o, &[("a", "s")]).1, "non-finite metric");
    }

    #[test]
    fn contract_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the bare benchmark directory has no manifest beside it
        };
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"name\":").count();
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(listed - workloads, END_TO_END.len() + PER_LAYER.len());
    }
}
