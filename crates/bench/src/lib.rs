//! Shared helpers for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a dedicated `harness = false`
//! bench target in `benches/`; each prints the same rows/series the paper reports. This
//! library provides the experiment configurations the accuracy benches share and small
//! formatting helpers so their output stays uniform (and greppable from
//! `bench_output.txt`).

use liveupdate::config::LiveUpdateConfig;
use liveupdate::experiment::ExperimentConfig;
use liveupdate_workload::datasets::DatasetPreset;

/// Print a section header for one experiment.
pub fn header(experiment: &str, description: &str) {
    println!("==============================================================================");
    println!("{experiment}: {description}");
    println!("==============================================================================");
}

/// Print a standard "series" row: a label followed by `(x, y)` pairs.
pub fn series_row(label: &str, points: &[(f64, f64)]) {
    let formatted: Vec<String> = points
        .iter()
        .map(|(x, y)| format!("({x:.2}, {y:.4})"))
        .collect();
    println!("{label}: {}", formatted.join(" "));
}

/// Whether the harness should run the full-scale accuracy evaluation (set
/// `LIVEUPDATE_FULL_EVAL=1`); by default a reduced configuration is used so `cargo bench`
/// completes in minutes on a laptop.
#[must_use]
pub fn full_eval() -> bool {
    std::env::var("LIVEUPDATE_FULL_EVAL").is_ok_and(|v| v == "1")
}

/// Experiment configuration for an accuracy benchmark on one dataset preset. The reduced
/// configuration preserves the protocol (10-minute update windows, hourly full sync,
/// prequential evaluation) but shrinks the traffic volume so the whole harness stays fast.
#[must_use]
pub fn accuracy_config(preset: DatasetPreset, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::from_dataset(preset, seed);
    if !full_eval() {
        cfg.requests_per_window = 192;
        cfg.online_rounds_per_window = 6;
        cfg.online_batch_size = 96;
        cfg.warmup_minutes = 20.0;
        cfg.warmup_epochs = 1;
        cfg.training_batch_size = 96;
    }
    cfg.liveupdate = LiveUpdateConfig::default();
    cfg
}

/// One machine-readable benchmark metric: `(name, value, unit)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Metric name, e.g. `qps_updater_on`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string, e.g. `requests/s` or `ms`.
    pub unit: String,
}

impl BenchMetric {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a bench result as a JSON document: `{"bench": ..., "metrics": [{name, value,
/// unit}, ...]}`. Non-finite values serialize as `null` (JSON has no NaN/Infinity).
#[must_use]
pub fn bench_json(bench: &str, metrics: &[BenchMetric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                value,
                json_escape(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"{}\",\n  \"metrics\": [\n{}\n  ]\n}}\n",
        json_escape(bench),
        rows.join(",\n")
    )
}

/// Write `BENCH_<bench>.json` into the workspace root, so the perf trajectory of the
/// paper reproduction is tracked as machine-readable artifacts across PRs. `cargo bench`
/// runs bench binaries with the *package* directory as the working directory, so the
/// workspace root is resolved from `CARGO_MANIFEST_DIR` at compile time (two levels up
/// from `crates/bench`); if that directory is gone at run time, fall back to the current
/// directory. Prints the path it wrote.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_bench_json(
    bench: &str,
    metrics: &[BenchMetric],
) -> std::io::Result<std::path::PathBuf> {
    let path = bench_json_path(bench);
    std::fs::write(&path, bench_json(bench, metrics))?;
    println!("wrote {} ({} metrics)", path.display(), metrics.len());
    Ok(path)
}

/// Where `write_bench_json` puts the artifact for `bench`.
fn bench_json_path(bench: &str) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .filter(|p| p.is_dir())
        .map_or_else(
            || std::path::PathBuf::from("."),
            std::path::Path::to_path_buf,
        );
    root.join(format!("BENCH_{bench}.json"))
}

/// [`write_bench_json`] that preserves metrics already in `BENCH_<bench>.json` instead of
/// clobbering them: existing rows whose names do not collide with `metrics` are kept (in
/// file order, ahead of the new rows). This lets several bench binaries contribute to one
/// artifact — `runtime_throughput` and `fig17_memory_optimization` both feed
/// `BENCH_runtime.json` regardless of which ran last. A missing or unparsable file
/// degrades to a plain write.
///
/// # Errors
///
/// Propagates the underlying I/O error from the final write.
pub fn merge_bench_json(
    bench: &str,
    metrics: &[BenchMetric],
) -> std::io::Result<std::path::PathBuf> {
    use liveupdate_scenario::json::Json;
    let mut combined: Vec<BenchMetric> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(bench_json_path(bench)) {
        if let Ok(doc) = Json::parse(&text) {
            if let Some(Json::Arr(rows)) = doc.get("metrics") {
                for row in rows {
                    let (Some(Json::Str(name)), Some(Json::Str(unit))) =
                        (row.get("name"), row.get("unit"))
                    else {
                        continue;
                    };
                    if metrics.iter().any(|m| m.name == *name) {
                        continue; // the new measurement supersedes the stored one
                    }
                    // Non-finite values serialize as null; read them back as NaN so they
                    // round-trip to null again.
                    let value = match row.get("value") {
                        Some(Json::Num(v)) => *v,
                        _ => f64::NAN,
                    };
                    combined.push(BenchMetric::new(name, value, unit));
                }
            }
        }
    }
    combined.extend(metrics.iter().cloned());
    write_bench_json(bench, &combined)
}

/// Map a unified [`ScenarioReport`](liveupdate_scenario::ScenarioReport) onto bench
/// metrics, so scenario runs land in the same `BENCH_*.json` artifact stream as every
/// other measurement (`write_bench_json("scenario", ...)` emits `BENCH_scenario.json`).
#[must_use]
pub fn scenario_metrics(report: &liveupdate_scenario::ScenarioReport) -> Vec<BenchMetric> {
    report
        .metric_rows()
        .into_iter()
        .map(|(name, value, unit)| BenchMetric::new(&name, value, unit))
        .collect()
}

/// Re-export of the optimisation barrier the micro-benches wrap inputs and results in.
pub use std::hint::black_box;

/// Wall-clock timing for one micro-benchmark: runs `f` through a short warm-up, then
/// auto-calibrates the iteration count to a ~200 ms measurement window and prints a
/// `name: <ns>/iter (<iters> iters)` row. The build environment has no criterion, so
/// `benches/kernels.rs` measures with this instead; the output format stays greppable
/// like the figure benches.
pub fn time_kernel<T>(name: &str, mut f: impl FnMut() -> T) {
    use std::time::Instant;

    // Warm-up and calibration: find an iteration count that takes >= ~10 ms.
    let mut iters: u64 = 1;
    let per_iter_estimate = loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 10 || iters >= 1 << 20 {
            break elapsed.as_secs_f64() / iters as f64;
        }
        iters *= 4;
    };

    let target_secs = 0.2;
    let measured_iters = ((target_secs / per_iter_estimate.max(1e-9)) as u64).clamp(1, 1 << 24);
    let start = Instant::now();
    for _ in 0..measured_iters {
        black_box(f());
    }
    let elapsed = start.elapsed();
    let ns_per_iter = elapsed.as_nanos() as f64 / measured_iters as f64;
    println!("{name}: {ns_per_iter:.1} ns/iter ({measured_iters} iters)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_kernel_runs_and_reports() {
        // Smoke: must terminate quickly for a trivial closure and not panic.
        time_kernel("noop_smoke", || 1 + 1);
    }

    #[test]
    fn accuracy_config_valid_for_every_preset() {
        for preset in DatasetPreset::all() {
            assert!(
                accuracy_config(preset, 3).is_valid(),
                "{} config invalid",
                preset.name()
            );
        }
    }

    #[test]
    fn bench_json_is_well_formed() {
        let metrics = [
            BenchMetric::new("qps", 1234.5, "requests/s"),
            BenchMetric::new("p99", 2.75, "ms"),
            BenchMetric::new("weird\"name", f64::NAN, "unit\\x"),
        ];
        let doc = bench_json("runtime", &metrics);
        assert!(doc.contains("\"bench\": \"runtime\""));
        assert!(doc.contains("{\"name\": \"qps\", \"value\": 1234.5, \"unit\": \"requests/s\"}"));
        assert!(doc.contains("\"value\": null"), "NaN serializes as null");
        assert!(doc.contains("weird\\\"name"), "quotes are escaped");
        assert!(doc.contains("unit\\\\x"), "backslashes are escaped");
        // Balanced braces/brackets (cheap structural sanity without a JSON parser).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn write_bench_json_roundtrips_to_disk() {
        let path = write_bench_json("selftest", &[BenchMetric::new("m", 1.0, "u")]).unwrap();
        assert!(path.to_string_lossy().ends_with("BENCH_selftest.json"));
        // Anchored at the workspace root, independent of the process's cwd.
        assert!(path.parent().unwrap().join("Cargo.toml").is_file());
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            written,
            bench_json("selftest", &[BenchMetric::new("m", 1.0, "u")])
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn merge_bench_json_keeps_foreign_metrics_and_supersedes_colliding_ones() {
        let first = [
            BenchMetric::new("kept", 1.0, "u"),
            BenchMetric::new("stale", 2.0, "u"),
        ];
        let path = write_bench_json("mergetest", &first).unwrap();
        let merged = merge_bench_json(
            "mergetest",
            &[
                BenchMetric::new("stale", 9.0, "u"),
                BenchMetric::new("added", 3.0, "u"),
            ],
        )
        .unwrap();
        assert_eq!(path, merged);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("{\"name\": \"kept\", \"value\": 1, \"unit\": \"u\"}"),
            "{text}"
        );
        assert!(
            text.contains("{\"name\": \"stale\", \"value\": 9, \"unit\": \"u\"}"),
            "{text}"
        );
        assert!(
            text.contains("{\"name\": \"added\", \"value\": 3, \"unit\": \"u\"}"),
            "{text}"
        );
        assert!(
            !text.contains("\"value\": 2"),
            "superseded value must be gone: {text}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scenario_metrics_map_one_to_one() {
        use liveupdate_scenario::{BackendKind, ScenarioReport};
        let mut report = ScenarioReport::new("s", BackendKind::Distributed, "LiveUpdate");
        report.qps = Some(123.0);
        report.mean_auc = Some(0.6);
        let metrics = scenario_metrics(&report);
        assert_eq!(metrics.len(), report.metric_rows().len());
        assert!(metrics
            .iter()
            .any(|m| m.name == "distributed_liveupdate_qps" && m.value == 123.0));
    }

    #[test]
    fn full_eval_defaults_to_false() {
        // The environment variable is not set in the test environment.
        if std::env::var("LIVEUPDATE_FULL_EVAL").is_err() {
            assert!(!full_eval());
        }
    }
}
