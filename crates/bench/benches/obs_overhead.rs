//! Telemetry overhead bench — the cost of the observability layer on the serve path.
//!
//! Four arms on the identical open-loop Poisson workload and update cadence: registry
//! **disabled** (`telemetry: false`, every instrumentation point compiles to a `None`
//! check), registry **enabled** (the default: counters, gauges, and log-linear
//! histograms updated on every request, batch, and publication), and two **tracing**
//! arms layered on the enabled registry — request spans sampled at 1% (the production
//! default) and at 100% (every request stamps five stage timestamps and publishes a
//! span record). The P99 ratios are the price of observability: the registry's design
//! target is one relaxed atomic increment per event and a span stamp is one relaxed
//! store, so every ratio must stay within noise of 1.0 (the PR gate is ≤ 1.05×).
//! Latency is read from `RuntimeReport::latency`, the histogram every worker records
//! into in all arms, so the probe does not depend on the subsystems under test.
//!
//! Emits `p99_telemetry_on`, `p99_telemetry_off`, `telemetry_p99_ratio`,
//! `p99_trace_1pct`, `p99_trace_100pct`, and the matching `trace_*_p99_ratio` rows
//! into `BENCH_obs.json` (merged with the live-scrape rows from
//! `examples/live_stats.rs`).
//!
//! Knobs: `LIVEUPDATE_OBS_SECONDS` (per arm, default 2), `LIVEUPDATE_OBS_WORKERS`
//! (default 2), `LIVEUPDATE_OBS_QPS` (default 1500).

use liveupdate::config::LiveUpdateConfig;
use liveupdate::engine::ServingNode;
use liveupdate_bench::{header, merge_bench_json, BenchMetric};
use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_runtime::loadgen::{run_open_loop, LoadGenConfig};
use liveupdate_runtime::report::RuntimeReport;
use liveupdate_runtime::runtime::ServingRuntime;
use liveupdate_workload::arrival::ArrivalModel;
use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};
use std::time::Duration;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn run_arm(
    telemetry: bool,
    trace_rate: f64,
    workers: usize,
    qps: f64,
    seconds: f64,
) -> RuntimeReport {
    let mut warm = SyntheticWorkload::new(WorkloadConfig {
        num_tables: 2,
        table_size: 500,
        ..WorkloadConfig::default()
    });
    let model = DlrmModel::new(
        DlrmConfig {
            table_sizes: vec![500, 500],
            ..DlrmConfig::tiny(2, 500, 8)
        },
        41,
    );
    let mut node = ServingNode::new(model, LiveUpdateConfig::default());
    // Pre-fill the retention buffer so update rounds train from the first interval —
    // both arms carry live publication traffic, the realistic worst case for the
    // freshness gauges.
    node.serve_batch(0.0, &warm.batch_at(0.0, 256));
    let runtime = ServingRuntime::start(
        node,
        RuntimeConfig {
            num_workers: workers,
            queue_capacity: 4096,
            max_batch: 32,
            batch_deadline_us: 1_000,
            routing: liveupdate_workload::shard::ShardPolicy::RoundRobin,
            update: UpdateMode::Background {
                interval: Duration::from_millis(250),
                rounds_per_update: 1,
                batch_size: 64,
            },
            telemetry,
            trace_sample_rate: trace_rate,
        },
    );
    let loadgen = LoadGenConfig {
        arrival: ArrivalModel::default(),
        target_qps: qps,
        duration: Duration::from_secs_f64(seconds),
        seed: 99,
        ..LoadGenConfig::default()
    };
    let gen = run_open_loop(&runtime, &mut warm, &loadgen);
    let (report, _) = runtime.finish();
    println!(
        "  offered={} accepted={} shed={} telemetry_rows={}",
        gen.offered,
        gen.accepted,
        gen.shed,
        report.telemetry.len()
    );
    println!("  {}", report.summary_line());
    report
}

fn main() {
    header(
        "Telemetry overhead",
        "serve-path P99 with the metrics registry on vs off, identical load",
    );
    let seconds = env_f64("LIVEUPDATE_OBS_SECONDS", 2.0);
    let workers = env_f64("LIVEUPDATE_OBS_WORKERS", 2.0) as usize;
    let qps = env_f64("LIVEUPDATE_OBS_QPS", 1_500.0);

    // A discarded warmup arm absorbs one-time costs (thread spawn, allocator, page
    // faults). The measured arms then run as 3 interleaved rounds over all four
    // configurations, keeping each arm's best rep — the `net_many_conn`
    // scheduler-noise defence, plus interleaving so slow host phases land on every
    // arm rather than biasing one.
    println!("\nwarmup (discarded):");
    let _ = run_arm(true, 1.0, workers, qps, (seconds * 0.5).max(0.5));

    fn keep_best(best: &mut Option<RuntimeReport>, rep: RuntimeReport) {
        let p99 = rep.latency.p99().unwrap_or(f64::INFINITY);
        let incumbent = best.as_ref().and_then(|b| b.latency.p99());
        if incumbent.is_none_or(|b| p99 < b) {
            *best = Some(rep);
        }
    }
    let mut best_off: Option<RuntimeReport> = None;
    let mut best_on: Option<RuntimeReport> = None;
    let mut best_trace1: Option<RuntimeReport> = None;
    let mut best_trace100: Option<RuntimeReport> = None;
    for rep in 1..=3 {
        println!("\nrep {rep}/3, telemetry disabled:");
        keep_best(&mut best_off, run_arm(false, 0.0, workers, qps, seconds));
        println!("rep {rep}/3, telemetry enabled:");
        keep_best(&mut best_on, run_arm(true, 0.0, workers, qps, seconds));
        println!("rep {rep}/3, tracing at 1%:");
        keep_best(&mut best_trace1, run_arm(true, 0.01, workers, qps, seconds));
        println!("rep {rep}/3, tracing at 100%:");
        keep_best(
            &mut best_trace100,
            run_arm(true, 1.0, workers, qps, seconds),
        );
    }
    let off = best_off.expect("off reps ran");
    let on = best_on.expect("on reps ran");
    let trace1 = best_trace1.expect("1% tracing reps ran");
    let trace100 = best_trace100.expect("100% tracing reps ran");
    assert!(
        off.telemetry.is_empty(),
        "disabled arm must not scrape rows"
    );
    assert!(!on.telemetry.is_empty(), "enabled arm must scrape rows");
    // The 100% arm must have actually recorded per-stage latency — otherwise the
    // "tracing cost" below would be measuring nothing.
    assert!(
        trace100
            .telemetry
            .iter()
            .any(|(name, value)| name == "stage_serve_us_count" && *value > 0.0),
        "100% tracing arm recorded no stage histograms"
    );

    let p99_off = off.latency.p99().unwrap_or(0.0);
    let p99_on = on.latency.p99().unwrap_or(0.0);
    let p99_trace1 = trace1.latency.p99().unwrap_or(0.0);
    let p99_trace100 = trace100.latency.p99().unwrap_or(0.0);
    let ratio_of = |p99: f64| {
        if p99_off > 0.0 {
            p99 / p99_off
        } else {
            f64::NAN
        }
    };
    let ratio = ratio_of(p99_on);
    let ratio_trace1 = ratio_of(p99_trace1);
    let ratio_trace100 = ratio_of(p99_trace100);
    println!(
        "\ntelemetry cost: P99 {:.3}ms -> {:.3}ms ({:.3}x; gate is 1.05x under pinned-load CI)",
        p99_off, p99_on, ratio
    );
    println!(
        "tracing cost:   1% sampling {:.3}ms ({:.3}x), 100% sampling {:.3}ms ({:.3}x)",
        p99_trace1, ratio_trace1, p99_trace100, ratio_trace100
    );
    // On pinned-load hosts the 1.05x gate is enforced in-process; the default leaves
    // enforcement to the tracked BENCH_obs.json trajectory, because a noisy shared
    // runner can blow any ratio without the subsystem under test being at fault.
    if std::env::var("LIVEUPDATE_OBS_ENFORCE").is_ok() {
        assert!(
            ratio <= 1.05,
            "telemetry P99 ratio {ratio:.3} exceeds the 1.05x gate"
        );
        assert!(
            ratio_trace1 <= 1.05,
            "1% tracing P99 ratio {ratio_trace1:.3} exceeds the 1.05x gate"
        );
    }

    let metrics = vec![
        BenchMetric::new("p99_telemetry_off", p99_off, "ms"),
        BenchMetric::new("p99_telemetry_on", p99_on, "ms"),
        BenchMetric::new("p50_telemetry_off", off.latency.p50().unwrap_or(0.0), "ms"),
        BenchMetric::new("p50_telemetry_on", on.latency.p50().unwrap_or(0.0), "ms"),
        BenchMetric::new("telemetry_p99_ratio", ratio, "ratio"),
        BenchMetric::new("p99_trace_1pct", p99_trace1, "ms"),
        BenchMetric::new("p99_trace_100pct", p99_trace100, "ms"),
        BenchMetric::new("trace_1pct_p99_ratio", ratio_trace1, "ratio"),
        BenchMetric::new("trace_100pct_p99_ratio", ratio_trace100, "ratio"),
        BenchMetric::new("qps_telemetry_off", off.qps, "requests/s"),
        BenchMetric::new("qps_telemetry_on", on.qps, "requests/s"),
        BenchMetric::new("telemetry_rows_scraped", on.telemetry.len() as f64, "rows"),
    ];
    if let Err(e) = merge_bench_json("obs", &metrics) {
        eprintln!("could not write BENCH_obs.json: {e}");
    }
}
