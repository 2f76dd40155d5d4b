//! The metric registry, summary statistics and the result line.

use nucache_common::json::JsonValue;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
/// What each one means on each workload is recorded in `catalog.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("p50_ns", "ns"),
    ("p99_ns", "ns"),
    ("quality_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.fill_block_ns", "ns"),
    ("cache.private_ns", "ns"),
    ("cache.llc_frac", "ratio"),
    ("cache.llc_lru_ns", "ns"),
    ("cache.llc_tadip_ns", "ns"),
    ("partition.llc_ucp_ns", "ns"),
    ("partition.llc_pipp_ns", "ns"),
    ("core.llc_nucache_ns", "ns"),
    ("core.deli_hit_share", "ratio"),
    ("core.epochs", "count"),
    ("sim.run_mix.lru_s", "s"),
    ("sim.run_mix.ucp_s", "s"),
    ("sim.run_mix.pipp_s", "s"),
    ("sim.run_mix.tadip_s", "s"),
    ("sim.run_mix.nucache_s", "s"),
    ("sim.solo_s", "s"),
    ("sim.driver_residual_ns", "ns"),
    ("sim.dyn_over_mono", "ratio"),
    ("sim.result_digest", "digest"),
    ("concurrent.route_ns", "ns"),
    ("concurrent.lock_wait_ns", "ns"),
    ("concurrent.lock_hold_ns", "ns"),
    ("concurrent.stats_ns", "ns"),
    ("kernel.get_hit_ns", "ns"),
    ("kernel.get_miss_ns", "ns"),
    ("kernel.put_ns", "ns"),
    ("kernel.remove_ns", "ns"),
    ("kernel.deli_hit_share", "ratio"),
    ("kernel.deli_fills_per_op", "ratio"),
    ("kernel.epochs", "count"),
    ("kernel.epoch_candidates", "count"),
    ("kernel.epoch_take_ns", "ns"),
    ("kernel.epoch_compute_ns", "ns"),
    ("kernel.epoch_install_ns", "ns"),
    ("kernel.monitor_ns", "ns"),
    ("kernel.tracker_ns", "ns"),
    ("bench.keygen_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.error_frac", "ratio"),
    ("bench.clock_ns", "ns"),
    ("serve.p999_ns", "ns"),
    ("serve.max_ns", "ns"),
    ("calib.alu_ns", "ns"),
    ("calib.chase_ns", "ns"),
    ("ref.lru_ops_per_s", "1/s"),
    ("ref.lru_hit_ratio", "ratio"),
    ("ref.nucache_over_lru_ops", "ratio"),
    ("ref.nucache_minus_lru_hit", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests (serve) or (mix, scheme) cells (sim).
    pub attempted: u64,
    /// Attempted operations whose output failed a check.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unregistered metric {name}"
        );
        self.metrics.retain(|&(n, _)| n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The JSON object of the result line. Untraced runs carry every
    /// end-to-end metric (each must have been measured); traced runs
    /// carry every per-layer metric. `correct` also requires every
    /// value to be finite.
    pub fn to_json(&self, traced: bool) -> JsonValue {
        let registry = if traced { PER_LAYER } else { END_TO_END };
        let mut finite = true;
        let metrics = registry
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                finite &= value.is_finite();
                let entry =
                    JsonValue::obj(vec![("value", JsonValue::Num(value)), ("unit", unit.into())]);
                (name.to_string(), entry)
            })
            .collect();
        JsonValue::obj(vec![
            ("correct", JsonValue::Bool(finite && self.failed == 0 && self.attempted > 0)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::Obj(metrics)),
        ])
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucache_common::json::parse;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn untraced_json_carries_exactly_the_end_to_end_metrics() {
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        for &(name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let j = o.to_json(false);
        assert_eq!(j.get("correct").and_then(JsonValue::as_bool), Some(true));
        let JsonValue::Obj(m) = j.get("metrics").expect("metrics") else { panic!("object") };
        assert_eq!(m.len(), END_TO_END.len());
        let back = parse(&j.to_string()).expect("round trip");
        assert_eq!(back, j);
    }

    #[test]
    fn failures_and_non_finite_values_are_not_correct() {
        let mut o = Outcome { attempted: 10, failed: 1, ..Outcome::default() };
        assert_eq!(o.to_json(true).get("correct").and_then(JsonValue::as_bool), Some(false));
        o.failed = 0;
        o.set("kernel.put_ns", f64::NAN);
        assert_eq!(o.to_json(true).get("correct").and_then(JsonValue::as_bool), Some(false));
    }

    /// `BENCHMARK.json` and `catalog.json` name exactly the metrics and
    /// workloads this program emits, with the same units.
    #[test]
    fn registry_matches_benchmark_json_and_catalog() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let bench = parse(&std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap())
            .expect("BENCHMARK.json parses");
        let catalog =
            parse(&std::fs::read_to_string(format!("{root}/perfbench/catalog.json")).unwrap())
                .expect("catalog.json parses");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = bench
                .get(key)
                .and_then(JsonValue::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> =
                registry.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, expected, "{key}");
            let described = catalog.get("metrics").expect("catalog metrics");
            for (name, unit) in &expected {
                let d = described.get(name).unwrap_or_else(|| panic!("{name} not in catalog"));
                assert_eq!(
                    d.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
            }
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for w in workloads {
            assert!(
                catalog.get("workloads").and_then(|c| c.get(w)).is_some(),
                "{w} not in catalog"
            );
        }
    }
}
