//! Live serving: the real multithreaded runtime under open-loop Poisson load, with the
//! co-located LoRA updater publishing fresh model state via atomic epoch swaps.
//!
//! Runs the identical workload twice — updater **disabled** (baseline) and updater
//! **enabled** (LiveUpdate) — and reports measured wall-clock QPS, P50/P99 latency, and
//! the P99 degradation ratio. The paper's near-zero-overhead claim translates here to a
//! degradation well under 2x: serving never takes a lock the trainer holds, so the only
//! interference is CPU-cycle stealing by the (short, infrequent) update rounds.
//!
//! Run with: `cargo run --release --example live_serving`
//! Knobs: `LIVE_SERVING_WORKERS` (default 2), `LIVE_SERVING_SECONDS` (wall seconds per
//! arm, default 3), `LIVE_SERVING_QPS` (mean offered load, default 1200).

use liveupdate_repro::core::config::LiveUpdateConfig;
use liveupdate_repro::core::engine::ServingNode;
use liveupdate_repro::dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_repro::runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_repro::runtime::loadgen::{run_open_loop, LoadGenConfig};
use liveupdate_repro::runtime::report::RuntimeReport;
use liveupdate_repro::runtime::runtime::ServingRuntime;
use liveupdate_repro::workload::arrival::ArrivalModel;
use liveupdate_repro::workload::{SyntheticWorkload, WorkloadConfig};
use std::time::Duration;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn build_node() -> ServingNode {
    let model = DlrmModel::new(
        DlrmConfig {
            table_sizes: vec![500, 500],
            ..DlrmConfig::tiny(2, 500, 8)
        },
        2026,
    );
    ServingNode::new(model, LiveUpdateConfig::default())
}

fn run_arm(
    label: &str,
    update: UpdateMode,
    workers: usize,
    qps: f64,
    seconds: f64,
) -> RuntimeReport {
    let mut workload = SyntheticWorkload::new(WorkloadConfig {
        num_tables: 2,
        table_size: 500,
        ..WorkloadConfig::default()
    });
    let mut node = build_node();
    // Warm the retention buffer so the updater trains from its first interval.
    node.serve_batch(0.0, &workload.batch_at(0.0, 256));

    let runtime = ServingRuntime::start(
        node,
        RuntimeConfig {
            num_workers: workers,
            queue_capacity: 4096,
            max_batch: 32,
            batch_deadline_us: 1_000,
            // Round-robin preserves the balanced per-queue load the interference
            // numbers of earlier PRs were measured under.
            routing: liveupdate_repro::workload::shard::ShardPolicy::RoundRobin,
            update,
            telemetry: true,
            trace_sample_rate: 0.01,
        },
    );
    let loadgen = LoadGenConfig {
        arrival: ArrivalModel::default(),
        target_qps: qps,
        duration: Duration::from_secs_f64(seconds),
        seed: 7,
        ..LoadGenConfig::default()
    };
    let gen = run_open_loop(&runtime, &mut workload, &loadgen);
    let (report, final_node) = runtime.finish();

    println!("{label}:");
    println!(
        "  offered {} requests over {:.2}s ({} shed, {} behind schedule)",
        gen.offered, gen.wall_seconds, gen.shed, gen.behind
    );
    println!(
        "  measured QPS {:.0} | P50 {:.3} ms | P99 {:.3} ms | P100 {:.3} ms | mean batch {:.1}",
        report.qps,
        report.latency.p50().unwrap_or(0.0),
        report.latency.p99().unwrap_or(0.0),
        report.latency.percentile(100.0).unwrap_or(0.0),
        report.mean_batch_size(),
    );
    println!(
        "  updater: {} rounds, {} publications, mean round {:.3} ms, max {:.3} ms; workers adopted {} epochs",
        report.updater.update_rounds,
        report.updater.publications,
        report.updater.mean_round_ms(),
        report.updater.max_round_ms(),
        report.snapshot_refreshes,
    );
    println!(
        "  final node: {} online steps, {} buffered records, LoRA memory {} bytes\n",
        final_node.steps(),
        final_node.buffered_records(),
        final_node.lora_memory_bytes(),
    );
    report
}

fn main() {
    let workers = env_f64("LIVE_SERVING_WORKERS", 2.0).max(1.0) as usize;
    let seconds = env_f64("LIVE_SERVING_SECONDS", 3.0);
    let qps = env_f64("LIVE_SERVING_QPS", 1_200.0);
    println!(
        "live serving runtime: {workers} workers, ~{qps:.0} QPS offered, {seconds:.0}s per arm\n"
    );

    let baseline = run_arm(
        "baseline (updater disabled)",
        UpdateMode::Disabled,
        workers,
        qps,
        seconds,
    );
    let live = run_arm(
        "LiveUpdate (background updater)",
        UpdateMode::Background {
            interval: Duration::from_millis(250),
            rounds_per_update: 1,
            batch_size: 64,
        },
        workers,
        qps,
        seconds,
    );

    let p99_off = baseline.latency.p99().unwrap_or(0.0);
    let p99_on = live.latency.p99().unwrap_or(f64::INFINITY);
    let ratio = if p99_off > 0.0 {
        p99_on / p99_off
    } else {
        f64::INFINITY
    };
    println!("== interference ==");
    println!("P99 without updater: {p99_off:.3} ms");
    println!("P99 with updater:    {p99_on:.3} ms");
    println!("degradation:         {ratio:.2}x");
    println!(
        "near-zero overhead (P99 degradation < 2x): {}",
        if ratio < 2.0 {
            "yes"
        } else {
            "NO — investigate"
        }
    );
    assert!(
        live.updater.publications > 0,
        "the live arm must actually publish fresh model state"
    );
    assert!(
        live.snapshot_refreshes > 0,
        "workers must adopt published epochs while serving"
    );
}
