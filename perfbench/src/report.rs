//! The metric tables and the one-line JSON result.
//!
//! Every workload reports every metric of its mode: the end-to-end table
//! when untraced, the per-layer table when traced. A per-layer metric of
//! a layer the workload never enters reads `0`.

use std::collections::BTreeMap;

use crate::stats::Tally;

/// End-to-end metrics: (name, unit). Each workload's meaning of the
/// generic `op_*` and `rows_per_s` metrics is in `LAYERS.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("ami", "ratio"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics from the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("grid.bounds_s", "s"),
    ("grid.quantize_s", "s"),
    ("grid.assign_s", "s"),
    ("grid.components_s", "s"),
    ("grid.quantize_ns_per_point", "ns"),
    ("grid.assign_ns_per_point", "ns"),
    ("grid.quantize_ns_per_point.n_div2", "ns"),
    ("grid.assign_ns_per_point.n_div2", "ns"),
    ("grid.quantize_ns_per_point.n_div4", "ns"),
    ("grid.assign_ns_per_point.n_div4", "ns"),
    ("grid.occupied_cells", "count"),
    ("grid.occupied_cells.n_div2", "count"),
    ("grid.occupied_cells.n_div4", "count"),
    ("grid.labeled_cells", "count"),
    ("grid.point_share", "ratio"),
    ("core.transform_s", "s"),
    ("core.transformed_cells", "count"),
    ("core.transform_ns_per_cell", "ns"),
    ("core.transform_ns_per_cell.n_div2", "ns"),
    ("core.transform_ns_per_cell.n_div4", "ns"),
    ("core.cell_survival_ratio", "ratio"),
    ("core.threshold_s", "s"),
    ("core.grid_stage_s", "s"),
    ("core.transform_share", "ratio"),
    ("runtime.threads", "count"),
    ("runtime.nproc", "count"),
    ("runtime.quantize_speedup", "ratio"),
    ("runtime.fit_speedup", "ratio"),
    ("stream.ingest_s", "s"),
    ("stream.ingest_rows", "count"),
    ("stream.outliers", "count"),
    ("stream.snapshot_s", "s"),
    ("stream.snapshot_bytes", "bytes"),
    ("stream.checkpoint_s", "s"),
    ("stream.refit_model_s", "s"),
    ("stream.refit_labels_s", "s"),
    ("stream.merge_s", "s"),
    ("stream.restore_s", "s"),
    ("api.save_model_s", "s"),
    ("api.load_model_s", "s"),
    ("api.model_bytes", "bytes"),
    ("serve.http_read_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.store_get_ns", "ns"),
    ("serve.predict_one_ns", "ns"),
    ("serve.render_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.reload_s", "s"),
    ("serve.batch_predict_s", "s"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// Metric values gathered by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Metrics {
    /// Record `name` (which must be in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A human-readable line printed with the table (e.g. what a generic
    /// metric means for this workload, or a tail's sample count).
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// The recorded value of `name`, or `0` if the run never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Print the human-readable table, then the result object as the last
    /// line of standard output.
    pub fn print(&self, workload: &str, traced: bool, tally: &Tally) {
        let table = if traced { PER_LAYER } else { END_TO_END };
        println!(
            "workload {workload} ({})",
            if traced { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            println!("  # {note}");
        }
        for (name, unit) in table {
            println!("  {name:<36} {:>16.6} {unit}", self.get(name));
        }
        println!(
            "  correctness gates {}; {} of {} operations failed",
            if tally.correct() { "passed" } else { "FAILED" },
            tally.failed,
            tally.attempted
        );
        println!("{}", self.result_json(table, tally));
    }

    fn result_json(&self, table: &[(&str, &str)], tally: &Tally) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.get(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.correct(),
            tally.attempted.max(1),
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) become `0`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_serve::json::Json;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.25);
        let mut tally = Tally::default();
        tally.op(true);
        tally.op(false);
        let line = metrics.result_json(END_TO_END, &tally);
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let m = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let entry = m.get(name).expect("every metric present");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
        }
        let setup = m.get("setup_s").and_then(|e| e.get("value"));
        assert_eq!(setup.and_then(Json::as_f64), Some(0.25));
    }

    /// The tables here and `BENCHMARK.json` at the repository root must
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
