//! The metric-name contract, checked against a live replica.
//!
//! README's Observability table (architecture item 8) is the one list of metric names
//! the workspace exports. This test starts a `ReplicaServer` with telemetry on, serves
//! a request, publishes once, scrapes it over the wire, and requires the set of
//! registered names to equal the table's first-column names: an undocumented metric
//! and a documented-but-unregistered row both fail. Histograms count by their base
//! name, and a `<i>` placeholder stands for each per-table index.

use liveupdate_repro::core::config::LiveUpdateConfig;
use liveupdate_repro::core::engine::ServingNode;
use liveupdate_repro::dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_repro::net::wire::{read_frame, write_frame, Frame};
use liveupdate_repro::net::{scrape_cluster, ReplicaServer};
use liveupdate_repro::runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_repro::workload::{SyntheticWorkload, WorkloadConfig};
use std::collections::BTreeSet;
use std::net::TcpStream;
use std::time::Duration;

const NUM_TABLES: usize = 2;

/// A telemetry-on replica whose snapshots carry a hot-row cache, so the per-table
/// cache gauges are registered too.
fn start_server() -> ReplicaServer {
    let model = DlrmModel::new(DlrmConfig::tiny(NUM_TABLES, 200, 8), 5);
    let node = ServingNode::new(
        model,
        LiveUpdateConfig {
            hot_cache_fraction: 0.1,
            ..LiveUpdateConfig::default()
        },
    );
    let cfg = RuntimeConfig {
        num_workers: 1,
        max_batch: 8,
        batch_deadline_us: 200,
        update: UpdateMode::Disabled,
        telemetry: true,
        trace_sample_rate: 1.0,
        ..RuntimeConfig::default()
    };
    ReplicaServer::start(node, cfg, Duration::from_millis(50), None).expect("start replica")
}

/// The backticked first-column names of README's Observability table, in table order
/// (duplicates kept), with `<i>` expanded to every table index.
fn readme_metric_names() -> Vec<String> {
    let readme = include_str!("../README.md");
    let section = readme
        .split_once("**Observability**")
        .expect("README has an Observability section")
        .1;
    let mut names = Vec::new();
    let mut in_table = false;
    for line in section.lines().map(str::trim) {
        let Some(row) = line.strip_prefix('|') else {
            if in_table {
                break;
            }
            continue;
        };
        in_table = true;
        let first_cell = row.split('|').next().unwrap_or_default();
        // Odd pieces of a backtick split are the backticked spans.
        for name in first_cell.split('`').skip(1).step_by(2) {
            if name.contains("<i>") {
                names.extend((0..NUM_TABLES).map(|t| name.replace("<i>", &t.to_string())));
            } else {
                names.push(name.to_string());
            }
        }
    }
    assert!(!names.is_empty(), "no metric table found in README");
    names
}

#[test]
fn registered_metrics_equal_the_readme_table() {
    let documented = readme_metric_names();
    let mut seen = BTreeSet::new();
    for name in &documented {
        assert!(seen.insert(name), "`{name}` is listed twice in README");
    }

    let server = start_server();
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let mut workload = SyntheticWorkload::new(WorkloadConfig {
        num_tables: NUM_TABLES,
        table_size: 200,
        ..WorkloadConfig::default()
    });
    for frame in [
        Frame::InferRequest {
            id: 1,
            time_minutes: 0.0,
            trace_id: 1,
            parent_span_id: 0,
            sample: workload.sample_at(0.0),
        },
        Frame::Publish,
    ] {
        write_frame(&mut conn, &frame).expect("write frame");
        let (reply, _) = read_frame(&mut conn).expect("read").expect("reply");
        assert!(
            matches!(reply, Frame::InferReply { .. } | Frame::Ack),
            "unexpected reply {reply:?}"
        );
    }
    let scrape = scrape_cluster(&[server.addr()]).expect("scrape replica");
    let replica = &scrape.per_replica[0];

    let histograms: BTreeSet<&str> = replica.histograms.iter().map(|(n, _)| n.as_str()).collect();
    let mut registered: BTreeSet<&str> = histograms.clone();
    for (row, _) in &replica.metrics {
        let flattened = ["_p50", "_p99", "_count"]
            .iter()
            .any(|s| row.strip_suffix(s).is_some_and(|h| histograms.contains(h)));
        if !flattened {
            registered.insert(row);
        }
    }
    let documented: BTreeSet<&str> = documented.iter().map(String::as_str).collect();
    assert_eq!(
        registered.difference(&documented).collect::<Vec<_>>(),
        Vec::<&&str>::new(),
        "registered but missing from README's Observability table"
    );
    assert_eq!(
        documented.difference(&registered).collect::<Vec<_>>(),
        Vec::<&&str>::new(),
        "in README's Observability table but registered by nothing"
    );

    drop(conn);
    let _ = server.shutdown();
}

/// The event loop registers its connection gauge at start, so an in-process scrape
/// sees it even when no remote `Frame::Stats` ever arrived.
#[test]
fn open_connection_gauge_is_registered_before_any_remote_scrape() {
    let (report, _) = start_server().shutdown();
    assert!(
        report
            .telemetry
            .iter()
            .any(|(name, _)| name == "net_open_connections"),
        "{:?}",
        report.telemetry
    );
}
