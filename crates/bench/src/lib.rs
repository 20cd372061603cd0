//! Shared helpers for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a dedicated `harness = false`
//! bench target in `benches/`; each prints the same rows/series the paper reports to
//! stdout and writes no file. The repository's performance record is `loopbench` with
//! its `BENCHMARK.json` workloads and bounds; these targets reproduce the paper's
//! figures and carry their own asserts. This library provides the experiment
//! configurations the accuracy benches share and small formatting helpers so their
//! output stays uniform (and greppable from `bench_output.txt`).

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
    fn full_eval_defaults_to_false() {
        // The environment variable is not set in the test environment.
        if std::env::var("LIVEUPDATE_FULL_EVAL").is_err() {
            assert!(!full_eval());
        }
    }
}
