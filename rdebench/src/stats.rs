//! Sample statistics, the metric catalogue, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Keep in step with `BENCHMARK.json` (a unit test checks).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_cost_p50", "probe"),
    ("job_cost_p90", "probe"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not call into reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chase.us", "us"),
    ("chase.rounds", "count"),
    ("chase.matches", "count"),
    ("chase.duplicates", "count"),
    ("chase.fired", "count"),
    ("chase.inserted", "count"),
    ("chase.fire_ratio", "ratio"),
    ("chase.restricted.us", "us"),
    ("chase.restricted.satisfied", "count"),
    ("chase.restricted.skip_ratio", "ratio"),
    ("chase.restricted.hom_nodes", "count"),
    ("hom.nodes", "count"),
    ("hom.backtracks", "count"),
    ("hom.found_ratio", "ratio"),
    ("chase.forward.us", "us"),
    ("chase.disjunctive.us", "us"),
    ("chase.disjunctive.steps", "count"),
    ("chase.disjunctive.leaves", "count"),
    ("chase.disjunctive.pruned", "count"),
    ("hom.core.us", "us"),
    ("hom.core.shrink_ratio", "ratio"),
    ("query.eval.us", "us"),
    ("query.answers", "count"),
    ("core.arrow.us", "us"),
    ("core.arrow.checks", "count"),
    ("core.arrow.memo_hit_ratio", "ratio"),
    ("core.arrow.intern_hit_ratio", "ratio"),
    ("core.arrow.evictions", "count"),
    ("serve.rtt_us.chase", "us"),
    ("serve.rtt_us.invertible", "us"),
    ("serve.rtt_us.arrow", "us"),
    ("serve.rtt_us.certain", "us"),
    ("serve.request_us.chase", "us"),
    ("serve.request_us.invertible", "us"),
    ("serve.request_us.arrow", "us"),
    ("serve.request_us.certain", "us"),
    ("serve.queue_us.chase", "us"),
    ("serve.queue_us.invertible", "us"),
    ("serve.queue_us.arrow", "us"),
    ("serve.queue_us.certain", "us"),
    ("serve.wire_us.chase", "us"),
    ("serve.wire_us.invertible", "us"),
    ("serve.wire_us.arrow", "us"),
    ("serve.wire_us.certain", "us"),
    ("serve.shed", "count"),
    ("serve.unknown", "count"),
    ("serve.err", "count"),
    ("deps.parse.us", "us"),
    ("model.generate.us", "us"),
    ("gen.lag_ms_p99", "ms"),
    ("obs.layer_sum_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// A metric name the result line accepts: starts with a letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile_of(samples, 50.0)
}

/// Running sums of per-layer quantities over the jobs of one traced
/// phase; the workload turns them into means and ratios at the end.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Add `v` to the running sum `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// The running sum `name` (0 if never added).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported value with its sample count.
#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// What one run prints: the metrics of one mode plus the correctness
/// tally.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, Value>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(name.to_owned(), Value { value, samples });
    }

    /// Print the human-readable table for `catalogue` and any other
    /// recorded values, then the JSON result line
    /// (always the last line; `catalogue` metrics only). Metrics of the
    /// catalogue the workload did not record read 0 — a layer the
    /// workload does not call into.
    pub fn print(&self, workload: &str, catalogue: &[(&str, &str)]) {
        println!("workload {workload}");
        let mut json = Vec::new();
        for &(name, unit) in catalogue {
            let v = self.values.get(name).cloned().unwrap_or(Value { value: 0.0, samples: 0 });
            assert!(valid_name(name), "metric name {name:?} is not accepted");
            assert!(v.value.is_finite(), "metric {name} is not finite: {}", v.value);
            println!("  {name:<30} {:>14.4} {unit:<6} n={}", v.value, v.samples);
            json.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", v.value));
        }
        for (name, v) in &self.values {
            if !catalogue.iter().any(|(c, _)| c == name) {
                println!(
                    "  {name:<30} {:>14.4} (not in this mode's result) n={}",
                    v.value, v.samples
                );
            }
        }
        println!(
            "  attempted={} failed={} error_frac={}",
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64)
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

/// The process's high-water resident set, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Nearest rank never interpolates: 10 samples, p99 is the max.
        let w = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        let mut s = w.to_vec();
        s.sort_by(f64::total_cmp);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&[4.0], 50.0), 4.0);
        assert_eq!(median(&w), 5.0);
    }

    #[test]
    fn report_carries_sample_counts() {
        let mut r = Report::default();
        r.set("job_ms_p50", 1.5, 400);
        assert_eq!(r.values["job_ms_p50"].samples, 400);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in ["setup_s", "job_ms_p50", "serve.rtt_us.arrow", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "has space", "slash/no", "ünicode", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
    }

    /// The metric lists here and in `BENCHMARK.json` must agree, name
    /// and unit, in order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let pairs = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect(f) + f.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("quote")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
        };
        assert_eq!(pairs("end_to_end"), own(END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
    }
}
