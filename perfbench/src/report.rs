//! The report: human-readable lines, then one JSON object as the last
//! line of standard output.

use crate::stats::{median, percentile, Tally};
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cad_p50_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer
/// the workload does not reach reports 0 calls and 0 time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.overhead_ms.cad", "ms"),
    ("serve.overhead_ms.suggest", "ms"),
    ("serve.overhead_ms.interact", "ms"),
    ("query.parse_us", "us"),
    ("query.execute_ms.cad", "ms"),
    ("query.execute_ms.suggest", "ms"),
    ("query.execute_ms.interact", "ms"),
    ("core.build_ms", "ms"),
    ("core.build_cpu_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.unaccounted_ms", "ms"),
    ("table.filter_ms", "ms"),
    ("table.fingerprint_us", "us"),
    ("stats.compare_attrs_ms", "ms"),
    ("stats.encode_matrix_ms", "ms"),
    ("stats.cache.hits", "count"),
    ("stats.cache.misses", "count"),
    ("stats.cache.evictions", "count"),
    ("stats.cache.lookups", "count"),
    ("stats.cache.hit_ratio", "ratio"),
    ("cluster.kmeans_ms", "ms"),
    ("cluster.rows_clustered", "count"),
    ("cluster.iterations", "count"),
    ("topk.solve_ms", "ms"),
    ("suggest.next_ms", "ms"),
    ("suggest.complete_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.bytes_per_row", "B/row"),
];

/// The op classes latency is reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `CREATE CADVIEW`, including pivot changes.
    Cad,
    /// `SUGGEST NEXT` / `SUGGEST COMPLETE`.
    Suggest,
    /// Drill (`SELECT`), highlight and reorder.
    Interact,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Cad, Class::Suggest, Class::Interact];

    pub fn name(self) -> &'static str {
        match self {
            Class::Cad => "cad",
            Class::Suggest => "suggest",
            Class::Interact => "interact",
        }
    }
}

/// Latencies of the ops that completed with an ok final frame, from
/// request send to final frame.
#[derive(Debug, Default)]
pub struct Latencies {
    pub cad: Vec<f64>,
    pub suggest: Vec<f64>,
    pub interact: Vec<f64>,
    /// Send to first frame (preview or final) of cad ops.
    pub cad_first_frame: Vec<f64>,
}

impl Latencies {
    pub fn class(&self, class: Class) -> &[f64] {
        match class {
            Class::Cad => &self.cad,
            Class::Suggest => &self.suggest,
            Class::Interact => &self.interact,
        }
    }

    pub fn push(&mut self, class: Class, ms: f64) {
        match class {
            Class::Cad => self.cad.push(ms),
            Class::Suggest => self.suggest.push(ms),
            Class::Interact => self.interact.push(ms),
        }
    }

    pub fn merge(&mut self, other: Latencies) {
        self.cad.extend(other.cad);
        self.suggest.extend(other.suggest);
        self.interact.extend(other.interact);
        self.cad_first_frame.extend(other.cad_first_frame);
    }

    pub fn all(&self) -> Vec<f64> {
        let mut all = Vec::with_capacity(self.cad.len() + self.suggest.len() + self.interact.len());
        all.extend(&self.cad);
        all.extend(&self.suggest);
        all.extend(&self.interact);
        all
    }
}

pub struct Report {
    pub workload: String,
    /// Values keyed by metric name; the declared ones go into the JSON.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Correctness and reconciliation failures, each naming the workload
    /// and request.
    pub failures: Vec<String>,
    pub tally: Tally,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_owned(),
            metrics: Vec::new(),
            failures: Vec::new(),
            tally: Tally::default(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn fail(&mut self, message: String) {
        eprintln!("perfbench: FAILED {message}");
        self.failures.push(message);
    }

    /// Sets every end-to-end latency figure the sample supports: the
    /// declared ones plus the served-only tail and per-class figures.
    pub fn set_latencies(&mut self, lat: &Latencies, measured_s: f64) {
        let all = lat.all();
        self.set("ops_per_s", all.len() as f64 / measured_s, "1/s");
        let figures: [(&str, &[f64], f64); 9] = [
            ("op_p50_ms", &all, 0.50),
            ("op_p99_ms", &all, 0.99),
            ("cad_p50_ms", &lat.cad, 0.50),
            ("cad_p90_ms", &lat.cad, 0.90),
            ("cad_first_frame_p50_ms", &lat.cad_first_frame, 0.50),
            ("suggest_p50_ms", &lat.suggest, 0.50),
            ("suggest_p99_ms", &lat.suggest, 0.99),
            ("interact_p50_ms", &lat.interact, 0.50),
            ("interact_p99_ms", &lat.interact, 0.99),
        ];
        for (name, samples, p) in figures {
            match percentile(samples, p) {
                Some(v) => self.set(name, v, "ms"),
                None => println!(
                    "skipped {name}: {} samples leave fewer than 10 beyond p{}",
                    samples.len(),
                    (p * 100.0).round()
                ),
            }
        }
        println!(
            "samples ops={} cad={} suggest={} interact={} measured_s={measured_s:.3}",
            all.len(),
            lat.cad.len(),
            lat.suggest.len(),
            lat.interact.len()
        );
    }

    /// Prints every metric, then the JSON line. Fails when a declared
    /// metric of this mode is missing, unless `short` allows it.
    pub fn emit(mut self, trace: bool, short: bool) -> Result<(), String> {
        self.set("fail_frac", self.tally.fail_frac(), "ratio");
        for (name, value, unit) in &self.metrics {
            println!("metric {}.{name} = {value} {unit}", self.workload);
        }
        println!(
            "ops attempted={} failed={}",
            self.tally.attempted, self.tally.failed
        );
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        let mut missing = Vec::new();
        for (name, unit) in declared {
            match self.get(name) {
                Some(v) if v.is_finite() => {
                    let sep = if json.is_empty() { "" } else { ", " };
                    let _ = write!(
                        json,
                        "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    );
                }
                _ => missing.push(*name),
            }
        }
        if !missing.is_empty() && !short {
            return Err(format!(
                "run too short for {}: no value for {}",
                self.workload,
                missing.join(", ")
            ));
        }
        if self.tally.attempted == 0 {
            return Err(format!("{}: no op was attempted", self.workload));
        }
        let correct = self.failures.is_empty();
        for failure in &self.failures {
            println!("failure {failure}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.tally.attempted, self.tally.failed
        );
        Ok(())
    }
}

/// Median, or 0 when the layer was not called on this workload.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// Resets the peak resident set, so that `rss_peak_mb` covers the
/// measured phase and not the set-up's transient allocations.
pub fn reset_rss_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// Peak resident set (`VmHWM`) in MB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}
