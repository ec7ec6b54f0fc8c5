//! The metric catalogue (mirrors `BENCHMARK.json`) and one run's result.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("gcups", "GCUPS"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sw.tile_gcups", "GCUPS"),
    ("sw.tile_gcups.edge", "GCUPS"),
    ("sw.best_gcups", "GCUPS"),
    ("sw.simd_rescues", "count"),
    ("sw.simd_rescue_s", "s"),
    ("sw.simd_rescues_per_tile", "count"),
    ("traceback.mm_gcups", "GCUPS"),
    ("pipeline.wall_s", "s"),
    ("pipeline.compute_frac", "fraction"),
    ("pipeline.wait_input_frac", "fraction"),
    ("pipeline.wait_output_frac", "fraction"),
    ("pipeline.other_frac", "fraction"),
    ("pipeline.ring_blocked", "count"),
    ("pipeline.speedup", "x"),
    ("stages.stage1_s", "s"),
    ("stages.stage2_s", "s"),
    ("stages.stage3_s", "s"),
    ("batch.wall_s", "s"),
    ("batch.pair_p50_ms", "ms"),
    ("batch.pair_p99_ms", "ms"),
    ("batch.device_busy_frac", "fraction"),
    ("batch.large_cell_frac", "fraction"),
    ("batch.requeued", "count"),
    ("batch.tiny_pair_us", "us"),
    ("batch.tiny_pair_gcups", "GCUPS"),
    ("batch.kbp_pair_gcups", "GCUPS"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p99", "ms"),
    ("service.exec_ms.p50", "ms"),
    ("service.exec_ms.p99", "ms"),
    ("service.exec_gcups.single", "GCUPS"),
    ("service.queue_peak", "count"),
    ("service.job_p50_ms.light", "ms"),
    ("service.job_p99_ms.light", "ms"),
    ("service.job_p50_ms.heavy", "ms"),
    ("service.job_p99_ms.heavy", "ms"),
    ("http.health_rtt_ms", "ms"),
    ("http.post_ms", "ms"),
    ("http.get_ms", "ms"),
    ("http.errors", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_frac", "fraction"),
    ("gen.lateness_ms.p99", "ms"),
    ("gen.backlog_end", "count"),
    ("host.nproc", "count"),
    ("host.parallelism", "x"),
    ("host.avx2", "count"),
    ("host.engine_lanes", "count"),
    ("host.steal_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
    ("error_rate", "fraction"),
];

/// What one run measured: operation counts plus named values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable check failures, printed to stderr.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one checked operation; `Err` marks it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of `catalogue`. Errors when a metric was not measured or
    /// is not a finite number.
    pub fn result_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric `{name}` is {v}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse, Json};

    /// `BENCHMARK.json` and this catalogue name the same metrics with the
    /// same units, in both sections.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = parse(&text).unwrap();
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .arr(section)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.str("name").unwrap().to_string(),
                        m.str("unit").unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{section} differs from the catalogue");
        }
        let workloads: Vec<&str> = spec
            .arr("workloads")
            .unwrap()
            .iter()
            .map(|w| w.str("name").unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert!(matches!(spec.get("run_seconds"), Some(Json::Num(_))));
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let mut o = Outcome::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, i as f64 + 0.5);
        }
        o.check(Ok(()));
        let line = o.result_json(END_TO_END).unwrap();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let metrics = v.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.str("unit"), Some(*unit));
            assert!(m.num("value").is_some());
        }
        // A missing or non-finite metric refuses to print a result.
        assert!(o.result_json(PER_LAYER).is_err());
        o.set("setup_s", f64::NAN);
        assert!(o.result_json(END_TO_END).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.0);
        }
        o.check(Ok(()));
        o.check(Err("score mismatch".into()));
        let v = parse(&o.result_json(END_TO_END).unwrap()).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.num("attempted"), Some(2.0));
        assert_eq!(v.num("failed"), Some(1.0));
    }
}
