//! The observability layer's price on the serve path, as a P99 gate.
//!
//! Three arms on the identical open-loop Poisson workload and update cadence: the
//! metrics registry off, the registry on, and the registry on with request tracing
//! sampled at 1% (the production default). The registry's design target is one relaxed
//! atomic increment per event and a span stamp is one relaxed store, so both "on" arms
//! must keep P99 within 1.05x of the "off" arm. Latency is read from
//! `RuntimeReport::latency`, which every worker records into in all arms.
//!
//! Wall-clock ratios need a quiet host, so the gate is opt-in:
//! `cargo test --release --test telemetry_overhead -- --ignored`.

use liveupdate_repro::core::config::LiveUpdateConfig;
use liveupdate_repro::core::engine::ServingNode;
use liveupdate_repro::dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_repro::runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_repro::runtime::loadgen::{run_open_loop, LoadGenConfig};
use liveupdate_repro::runtime::report::RuntimeReport;
use liveupdate_repro::runtime::runtime::ServingRuntime;
use liveupdate_repro::workload::shard::ShardPolicy;
use liveupdate_repro::workload::{SyntheticWorkload, WorkloadConfig};
use std::time::Duration;

/// Wall seconds per measured arm.
const SECONDS: f64 = 2.0;
const WORKERS: usize = 2;
const QPS: f64 = 1_500.0;
/// Measured rounds over all arms; each arm keeps its best P99.
const REPS: usize = 3;
const GATE: f64 = 1.05;

fn run_arm(telemetry: bool, trace_sample_rate: f64, seconds: f64) -> RuntimeReport {
    let mut workload = SyntheticWorkload::new(WorkloadConfig {
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
    // Pre-fill the retention buffer so update rounds train from the first interval:
    // every arm carries live publication traffic.
    node.serve_batch(0.0, &workload.batch_at(0.0, 256));
    let runtime = ServingRuntime::start(
        node,
        RuntimeConfig {
            num_workers: WORKERS,
            queue_capacity: 4096,
            max_batch: 32,
            batch_deadline_us: 1_000,
            routing: ShardPolicy::RoundRobin,
            update: UpdateMode::Background {
                interval: Duration::from_millis(250),
                rounds_per_update: 1,
                batch_size: 64,
            },
            telemetry,
            trace_sample_rate,
        },
    );
    let loadgen = LoadGenConfig {
        target_qps: QPS,
        duration: Duration::from_secs_f64(seconds),
        seed: 99,
        ..LoadGenConfig::default()
    };
    run_open_loop(&runtime, &mut workload, &loadgen);
    let (report, _) = runtime.finish();
    println!("  {}", report.summary_line());
    report
}

#[test]
#[ignore = "wall-clock P99 ratio; run on a quiet host with --release -- --ignored"]
fn telemetry_and_one_percent_tracing_keep_p99_within_gate() {
    // A discarded warm-up arm absorbs one-time costs (thread spawn, allocator, page
    // faults). The measured arms then run interleaved, so a slow host phase lands on
    // every arm rather than biasing one, and each arm keeps its best P99 against
    // single scheduler hiccups.
    let _ = run_arm(true, 1.0, SECONDS / 2.0);
    let arms = [(false, 0.0), (true, 0.0), (true, 0.01)];
    let mut best_p99 = [f64::INFINITY; 3];
    for rep in 1..=REPS {
        for (best, &(telemetry, rate)) in best_p99.iter_mut().zip(&arms) {
            println!("rep {rep}/{REPS}, telemetry={telemetry} trace_sample_rate={rate}:");
            let report = run_arm(telemetry, rate, SECONDS);
            assert_eq!(
                report.telemetry.is_empty(),
                !telemetry,
                "telemetry on scrapes rows, off scrapes none"
            );
            *best = best.min(report.latency.p99().expect("arm served requests"));
        }
    }
    let [off, on, trace1] = best_p99;
    println!("P99 off {off:.3} ms, on {on:.3} ms, 1% tracing {trace1:.3} ms");
    assert!(
        on <= GATE * off,
        "telemetry P99 ratio {:.3} exceeds the {GATE}x gate",
        on / off
    );
    assert!(
        trace1 <= GATE * off,
        "1% tracing P99 ratio {:.3} exceeds the {GATE}x gate",
        trace1 / off
    );
}
