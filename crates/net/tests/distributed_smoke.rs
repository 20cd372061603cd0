//! End-to-end tests of the TCP tier: raw protocol round-trips against one replica
//! server, and the distributed backend executing scenarios over real sockets.

use liveupdate::config::LiveUpdateConfig;
use liveupdate::engine::ServingNode;
use liveupdate::strategy::StrategyKind;
use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_net::wire::{read_frame, write_frame, Frame, RowUpdate};
use liveupdate_net::{
    run_distributed, DistributedBackend, DistributedConfig, DistributedReport, ReplicaServer,
};
use liveupdate_runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_runtime::policy::{LiveUpdatePolicy, UpdatePolicy};
use liveupdate_scenario::{BackendKind, ExecutionBackend, Scenario, SyncProvenance};
use liveupdate_workload::shard::ShardPolicy;
use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};
use std::net::TcpStream;
use std::time::Duration;

fn tiny_node(seed: u64) -> ServingNode {
    let model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), seed);
    ServingNode::new(model, LiveUpdateConfig::default())
}

fn tiny_runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        num_workers: 1,
        max_batch: 8,
        batch_deadline_us: 500,
        update: UpdateMode::Disabled,
        ..RuntimeConfig::default()
    }
}

/// Send one frame and read one reply on a blocking stream.
fn call(stream: &mut TcpStream, frame: &Frame) -> Frame {
    write_frame(stream, frame).expect("write frame");
    read_frame(stream)
        .expect("read frame")
        .expect("reply present")
        .0
}

#[test]
fn replica_server_serves_and_syncs_over_tcp() {
    let server = ReplicaServer::start(
        tiny_node(3),
        tiny_runtime_config(),
        Duration::from_millis(50),
        None,
    )
    .expect("start server");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).unwrap();

    // Inference over the socket: the worker pipeline answers with a probability.
    let mut w = SyntheticWorkload::new(WorkloadConfig {
        num_tables: 2,
        table_size: 200,
        ..WorkloadConfig::default()
    });
    let sample = w.sample_at(0.0);
    match call(
        &mut conn,
        &Frame::InferRequest {
            id: 42,
            time_minutes: 0.0,
            trace_id: 0,
            parent_span_id: 0,
            sample,
        },
    ) {
        Frame::InferReply { id, prediction, .. } => {
            assert_eq!(id, 42);
            assert!((0.0..=1.0).contains(&prediction), "prediction {prediction}");
        }
        other => panic!("expected InferReply, got {other:?}"),
    }

    // Control plane: support starts empty, a pushed row + publish becomes visible.
    assert_eq!(
        call(&mut conn, &Frame::PullSupport),
        Frame::Support { rows: vec![] }
    );
    let pushed = Frame::PushLoraRows {
        rows: vec![RowUpdate {
            table: 0,
            row: 7,
            values: vec![1.0; 4],
        }],
    };
    assert_eq!(call(&mut conn, &pushed), Frame::Ack);
    assert_eq!(call(&mut conn, &Frame::Publish), Frame::Ack);
    assert_eq!(
        call(&mut conn, &Frame::PullSupport),
        Frame::Support { rows: vec![(0, 7)] }
    );
    // The pushed row's values come back on a pull.
    match call(&mut conn, &Frame::PullLoraRows { rows: vec![(0, 7)] }) {
        Frame::LoraRows { rows } => {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].values, vec![1.0; 4]);
        }
        other => panic!("expected LoraRows, got {other:?}"),
    }
    // B factor round-trips with the adapter's rank.
    match call(&mut conn, &Frame::PullB { table: 0 }) {
        Frame::BFactor {
            table: 0,
            source_rank,
            values,
        } => {
            assert_eq!(source_rank, 4);
            assert_eq!(values.len(), 4 * 8);
        }
        other => panic!("expected BFactor, got {other:?}"),
    }
    // Out-of-bounds pushes are rejected without killing the node.
    match call(
        &mut conn,
        &Frame::PushLoraRows {
            rows: vec![RowUpdate {
                table: 9,
                row: 0,
                values: vec![],
            }],
        },
    ) {
        Frame::Nack { .. } => {}
        other => panic!("expected Nack, got {other:?}"),
    }

    write_frame(&mut conn, &Frame::Bye).unwrap();
    drop(conn);
    let infer_bytes = server
        .bytes()
        .infer
        .load(std::sync::atomic::Ordering::Relaxed);
    let control_bytes = server
        .bytes()
        .control
        .load(std::sync::atomic::Ordering::Relaxed);
    let (report, node) = server.shutdown();
    assert_eq!(
        report.completed, 1,
        "one request served through the worker pipeline"
    );
    assert!(
        node.loras()[0].is_active(7),
        "pushed LoRA row reached the authoritative node"
    );
    assert!(
        infer_bytes > 0,
        "inference traffic was accounted at the socket"
    );
    assert!(
        control_bytes > 0,
        "control traffic was accounted at the socket"
    );
}

#[test]
fn poison_infer_frames_are_nacked_and_the_replica_survives() {
    let server = ReplicaServer::start(
        tiny_node(11),
        tiny_runtime_config(),
        Duration::from_millis(50),
        None,
    )
    .expect("start server");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).unwrap();

    let mut w = SyntheticWorkload::new(WorkloadConfig {
        num_tables: 2,
        table_size: 200,
        ..WorkloadConfig::default()
    });

    // Every way a wire-valid sample can violate the model geometry: a sparse id past
    // the table end (the index that used to panic the worker thread), a missing table,
    // an extra table, and a wrong-arity dense vector. Each must come back as a typed
    // Nack on this connection, with the worker untouched.
    let mut oob = w.sample_at(0.0);
    oob.sparse[1][0] = 200; // num_rows is 200, so id 200 is one past the end
    let mut missing_table = w.sample_at(0.0);
    missing_table.sparse.pop();
    let mut extra_table = w.sample_at(0.0);
    extra_table.sparse.push(vec![0]);
    let mut bad_dense = w.sample_at(0.0);
    bad_dense.dense.push(0.0);
    for (i, sample) in [oob, missing_table, extra_table, bad_dense]
        .into_iter()
        .enumerate()
    {
        let id = 1000 + i as u64;
        match call(
            &mut conn,
            &Frame::InferRequest {
                id,
                time_minutes: 0.0,
                trace_id: 0,
                parent_span_id: 0,
                sample,
            },
        ) {
            Frame::Nack { reason } => {
                assert!(
                    reason.contains(&format!("request {id}")),
                    "Nack names the poisoned request: {reason}"
                );
            }
            other => panic!("expected Nack for poison sample {i}, got {other:?}"),
        }
    }

    // The replica still serves well-formed traffic on the same connection afterwards.
    let good = w.sample_at(0.0);
    match call(
        &mut conn,
        &Frame::InferRequest {
            id: 7,
            time_minutes: 0.0,
            trace_id: 0,
            parent_span_id: 0,
            sample: good,
        },
    ) {
        Frame::InferReply { id, prediction, .. } => {
            assert_eq!(id, 7);
            assert!((0.0..=1.0).contains(&prediction));
        }
        other => panic!("expected InferReply after poison frames, got {other:?}"),
    }

    write_frame(&mut conn, &Frame::Bye).unwrap();
    drop(conn);
    let (report, _node) = server.shutdown();
    assert_eq!(
        report.completed, 1,
        "only the well-formed request reached a worker"
    );
}

#[test]
fn full_model_frame_replaces_the_replica_model() {
    let server = ReplicaServer::start(
        tiny_node(5),
        tiny_runtime_config(),
        Duration::from_millis(50),
        None,
    )
    .expect("start server");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");

    let fresh = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), 999);
    let params = fresh.export_parameters();
    // A wrong-length vector is rejected...
    match call(
        &mut conn,
        &Frame::FullModel {
            params: vec![0.0; 3],
        },
    ) {
        Frame::Nack { .. } => {}
        other => panic!("expected Nack, got {other:?}"),
    }
    // ...the right-length vector swaps the whole model.
    assert_eq!(call(&mut conn, &Frame::FullModel { params }), Frame::Ack);
    drop(conn);
    let (_, node) = server.shutdown();
    assert_eq!(
        node.serving_model().export_parameters(),
        fresh.export_parameters()
    );
}

#[test]
fn stats_frame_scrapes_live_telemetry_with_freshness_gauges() {
    // A replica with a live policy-driven updater publishes fresh epochs; a Stats
    // round-trip against the serving socket must expose the freshness gauges.
    let policy: Box<dyn UpdatePolicy> = Box::new(LiveUpdatePolicy {
        rounds_per_update: 1,
        batch_size: 8,
    });
    let server = ReplicaServer::start(
        tiny_node(17),
        tiny_runtime_config(),
        Duration::from_millis(20),
        Some(policy),
    )
    .expect("start server");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).unwrap();

    // Serve a little traffic so the serve-side counters move.
    let mut w = SyntheticWorkload::new(WorkloadConfig {
        num_tables: 2,
        table_size: 200,
        ..WorkloadConfig::default()
    });
    for id in 0..8u64 {
        let sample = w.sample_at(0.0);
        match call(
            &mut conn,
            &Frame::InferRequest {
                id,
                time_minutes: 0.0,
                trace_id: 0,
                parent_span_id: 0,
                sample,
            },
        ) {
            Frame::InferReply { .. } | Frame::InferShed { .. } => {}
            other => panic!("expected an inference outcome, got {other:?}"),
        }
    }

    // Scrape over the same connection the requests used.
    let rows = match call(&mut conn, &Frame::Stats) {
        Frame::StatsReply { metrics } => metrics,
        other => panic!("expected StatsReply, got {other:?}"),
    };
    let get = |name: &str| {
        rows.iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing from scrape: {rows:?}"))
            .1
    };
    assert!(
        get("epoch_age_us") >= 0.0,
        "freshness gauge present and sane"
    );
    assert!(get("serve_requests_total") >= 1.0, "served traffic counted");
    assert!(
        get("serve_latency_us_count") >= 1.0,
        "latency histogram populated"
    );
    assert!(
        get("net_open_connections") >= 1.0,
        "this connection is counted"
    );
    assert!(
        rows.iter().all(|(_, v)| v.is_finite()),
        "every scraped value is finite"
    );

    // The dedicated helper sees the same registry from a fresh connection.
    let scraped = liveupdate_net::scrape_replica(server.addr()).expect("scrape_replica");
    assert!(scraped.iter().any(|(n, _)| n == "epoch_age_us"));

    write_frame(&mut conn, &Frame::Bye).unwrap();
    drop(conn);
    let (report, _node) = server.shutdown();
    assert!(
        !report.telemetry.is_empty(),
        "final report carries the registry snapshot"
    );
}

#[test]
fn telemetry_disabled_replica_answers_stats_with_no_rows() {
    let cfg = RuntimeConfig {
        telemetry: false,
        ..tiny_runtime_config()
    };
    let server = ReplicaServer::start(tiny_node(29), cfg, Duration::from_millis(50), None)
        .expect("start server");
    let rows = liveupdate_net::scrape_replica(server.addr()).expect("scrape");
    assert!(
        rows.is_empty(),
        "telemetry off means an empty scrape, got {rows:?}"
    );
    let (report, _node) = server.shutdown();
    assert!(report.telemetry.is_empty());
}

/// A scenario small enough that a distributed run finishes in well under a second.
fn tiny_scenario(name: &str) -> Scenario {
    let mut s = Scenario::small(name);
    s.horizon.duration_minutes = 20.0;
    s.horizon.requests_per_window = 96;
    s.policy.online_rounds_per_window = 3;
    s.topology.workers = 1;
    s.realtime.wall_seconds = 0.4;
    s.realtime.target_qps = 400.0;
    s.realtime.update_interval_ms = 50;
    s
}

#[test]
fn distributed_backend_runs_a_scenario_on_sockets() {
    let mut scenario = tiny_scenario("distributed_smoke");
    scenario.topology.replicas = 2;
    let report = DistributedBackend.run(&scenario).expect("distributed run");
    assert_eq!(report.backend, BackendKind::Distributed);
    assert_eq!(report.strategy, "LiveUpdate");
    assert_eq!(report.sync_provenance, SyncProvenance::MeasuredWire);
    assert!(report.requests_served > 0, "traffic crossed the sockets");
    assert!(report.qps.unwrap() > 0.0);
    assert!(report.p99_latency_ms.is_some());
    assert!(report.mean_auc.is_some());
    // Scraped live from replica 0 over Frame::Stats, with the shared metric names.
    for name in [
        "epoch_age_us",
        "serve_requests_total",
        "serve_latency_us_p99",
    ] {
        assert!(
            report.telemetry.iter().any(|(n, _)| n == name),
            "{name} missing from distributed telemetry: {:?}",
            report.telemetry
        );
    }
    assert_eq!(
        report.sync_bytes, 0,
        "LiveUpdate ships zero parameter bytes on the wire"
    );
    assert!(report.publications > 0, "replicas published fresh epochs");
    assert!(report.lora_memory_bytes.unwrap() > 0);
}

/// A short LiveUpdate run of `replicas` tiny replicas started from one checkpoint.
fn run_tiny_live(replicas: usize) -> DistributedReport {
    let day1_model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), 31);
    let nodes = (0..replicas)
        .map(|_| ServingNode::new(day1_model.clone(), LiveUpdateConfig::default()))
        .collect();
    let mut workload = SyntheticWorkload::new(WorkloadConfig {
        num_tables: 2,
        table_size: 200,
        ..WorkloadConfig::default()
    });
    let cfg = DistributedConfig {
        replicas,
        routing: ShardPolicy::HashByUser,
        runtime: RuntimeConfig {
            num_workers: 1,
            max_batch: 8,
            batch_deadline_us: 500,
            ..RuntimeConfig::default()
        },
        strategy: StrategyKind::LiveUpdate,
        update_interval: Duration::from_millis(50),
        rounds_per_update: 1,
        online_batch_size: 8,
        training_batch_size: 32,
        full_sync_every_ticks: 0,
        target_qps: 800.0,
        duration: Duration::from_millis(400),
        start_minutes: 0.0,
        seed: 3,
        sample_pool: 64,
    };
    run_distributed(nodes, &day1_model, &mut workload, &cfg)
        .expect("distributed run")
        .0
}

/// Exact accounting across teardown: the driver half-closes each data connection and
/// drains it, so every offered request comes back as a reply or a shed — a reply lost
/// after the half-close shows up here as a shortfall.
#[test]
fn run_distributed_answers_every_offered_request() {
    let report = run_tiny_live(2);
    assert!(report.offered > 0, "the generator offered load");
    assert_eq!(
        report.replies + report.shed,
        report.offered,
        "every offered request was answered: {} replies + {} shed of {} offered",
        report.replies,
        report.shed,
        report.offered
    );
    assert_eq!(
        report.latency.count(),
        report.completed,
        "the merged latency histogram holds one sample per completed request"
    );
}

/// One replica has no peer to merge with: the driver's sync ticks send no frame, and
/// every epoch the replica publishes comes from one of its own update blocks.
#[test]
fn one_replica_liveupdate_sends_no_sync_frames() {
    let report = run_tiny_live(1);
    assert!(report.sync_ticks > 0, "the sync cadence ticked");
    assert_eq!(report.lora_sync_bytes, 0, "no LoRA exchange at N=1");
    assert_eq!(report.param_sync_bytes, 0, "LiveUpdate ships no parameters");
    let updater = &report.per_replica[0].updater;
    assert!(
        updater.publications > 0,
        "the replica's own blocks published"
    );
    assert_eq!(
        updater.publications,
        updater.round_times_ms.len() as u64,
        "one publication per update block, none from sync frames"
    );
}

#[test]
fn invalid_scenario_is_rejected_before_any_socket_opens() {
    let mut no_workers = tiny_scenario("bad");
    no_workers.topology.workers = 0;
    assert!(DistributedBackend.run(&no_workers).is_err());
    // Zero replicas is a typed error, never a panic in the request router.
    let mut no_replicas = tiny_scenario("bad");
    no_replicas.topology.replicas = 0;
    assert!(DistributedBackend.run(&no_replicas).is_err());
}
