//! Metric names and units, and the result line.

use std::fmt::Write as _;

/// The untraced run's metrics (`--trace 0`), as BENCHMARK.json lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qa_p50_ms", "ms"),
    ("qa_tail_ms", "ms"),
    ("qb_p50_ms", "ms"),
    ("qb_tail_ms", "ms"),
    ("qps", "1/s"),
    ("scan_mbps", "MB/s"),
    ("peak_rss_mb", "MiB"),
];

/// The traced run's metrics (`--trace 1`), as BENCHMARK.json lists them:
/// the layer metrics every workload measures. Those that only some
/// workloads have are printed but left out of the result line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("jsoniq.parse_us", "us"),
    ("jsoniq.translate_us", "us"),
    ("algebra.optimize_us", "us"),
    ("algebra.rule_firings", "count"),
    ("vxq_core.compile_us", "us"),
    ("vxq_core.exec_ms", "ms"),
    ("dataflow.run_ms", "ms"),
    ("dataflow.cpu_ms", "ms"),
    ("dataflow.busy_share", "ratio"),
    ("dataflow.split_skew", "ratio"),
    ("dataflow.peak_mem_bytes", "bytes"),
    ("dataflow.select.busy_ms", "ms"),
    ("dataflow.select.tuples_out", "count"),
    ("dataflow.assign.busy_ms", "ms"),
    ("dataflow.assign.tuples_out", "count"),
    ("scan.read_ms", "ms"),
    ("scan.bytes", "bytes"),
    ("jdm.index_ms", "ms"),
    ("jdm.index_gbps", "GB/s"),
    ("jdm.tape_entries", "count"),
    ("jdm.record_table_ms", "ms"),
    ("jdm.records", "count"),
    ("jdm.materialize_ms", "ms"),
    ("jdm.items", "count"),
    ("jdm.encode_ms", "ms"),
    ("jdm.encoded_bytes", "bytes"),
    ("jdm.field_decode_ms", "ms"),
    ("jdm.field_get_key_ms", "ms"),
    ("jdm.replay_vs_engine_index", "ratio"),
    ("trace_overhead", "ratio"),
];

/// A run's metrics, each printed as it is measured.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64)>,
}

impl Report {
    pub fn line(&self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
    }

    /// Record and print a metric; `note` says how it was measured.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, note: impl AsRef<str>) {
        match note.as_ref() {
            "" => println!("{name} = {value} {unit}"),
            note => println!("{name} = {value} {unit}  [{note}]"),
        }
        self.metrics.push((name.to_string(), value));
    }

    /// The result line, holding every metric of `names`; each must have
    /// been measured and be finite.
    pub fn result_json(
        &self,
        names: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_needs_every_metric_finite() {
        let mut r = Report::default();
        r.metric("a", 1.5, "ms", "");
        let names = [("a", "ms")];
        assert_eq!(
            r.result_json(&names, true, 2, 0).unwrap(),
            r#"{"correct": true, "attempted": 2, "failed": 0, "metrics": {"a": {"value": 1.5, "unit": "ms"}}}"#
        );
        assert!(r.result_json(&[("b", "s")], true, 1, 0).is_err());
        r.metric("a", f64::NAN, "ms", "");
        assert!(r.result_json(&names, true, 1, 0).is_err());
    }
}
