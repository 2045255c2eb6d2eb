//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("read_ops_s", "1/s"),
    ("insert_p50_us", "us"),
    ("insert_p99_us", "us"),
    ("delete_p50_us", "us"),
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("write_ops_s", "1/s"),
    ("recovery_s", "s"),
    ("space_amp", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.plan_us", "us"),
    ("core.index_searches_per_read", "count"),
    ("core.hot_tier.hit_ratio", "ratio"),
    ("core.hot_tier.hit_us", "us"),
    ("core.hot_tier.miss_us", "us"),
    ("core.hot_tier.wasted_admission_share", "ratio"),
    ("core.hot_tier.invalidations_per_write", "count"),
    ("core.hot_tier.evicted_blocks", "count"),
    ("relstore.execute_us", "us"),
    ("relstore.exec_self_us", "us"),
    ("relstore.rows_examined_per_result", "ratio"),
    ("btree.scan_us", "us"),
    ("btree.entries_per_scan", "count"),
    ("btree.height", "count"),
    ("btree.splits_per_insert", "ratio"),
    ("btree.latches_per_write", "count"),
    ("btree.right_link_chases", "count"),
    ("pagestore.logical_reads_per_read", "count"),
    ("pagestore.hit_ns", "ns"),
    ("pagestore.hit_ratio", "ratio"),
    ("pagestore.physical_reads_per_read", "count"),
    ("pagestore.device_read_us", "us"),
    ("pagestore.physical_writes_per_write", "count"),
    ("pagestore.device_write_us", "us"),
    ("pagestore.coalesced_faults", "count"),
    ("pagestore.pages_per_live_interval", "ratio"),
    ("wal.bytes_per_commit", "B"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.syncs_per_commit", "ratio"),
    ("wal.sync_us", "us"),
    ("wal.device_write_us", "us"),
    ("wal.commit_self_us", "us"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoint_bytes", "B"),
    ("layer_share.core", "share"),
    ("layer_share.relstore", "share"),
    ("layer_share.btree", "share"),
    ("layer_share.pagestore", "share"),
    ("layer_share.wal", "share"),
    ("layer_share.mem", "share"),
    ("trace.overhead_share", "share"),
    ("trace.overruns", "count"),
    ("failed_share", "share"),
];

/// Metrics and notes gathered by one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric; `name` must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `list`. Per-layer metrics a workload does not exercise read 0;
    /// a missing end-to-end metric is an error.
    pub fn result_line(
        &self,
        list: &[(&'static str, &'static str)],
        zero_if_missing: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut parts = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if zero_if_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_listed_in_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Every metric in BENCHMARK.json is one this program prints.
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_listed_metric() {
        let mut r = Report::default();
        r.set("setup_s", 0.25);
        let line = r.result_line(&END_TO_END[..1], false, true, 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(r.result_line(&END_TO_END, false, true, 3, 0).is_err());
        assert!(r.result_line(&PER_LAYER, true, true, 3, 0).unwrap().contains("\"btree.height\""));
    }
}
