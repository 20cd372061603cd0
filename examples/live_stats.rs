//! Live telemetry dashboard: scrape a serving TCP cluster while it runs.
//!
//! Spawns N replica servers with background update rounds, drives each with a
//! blocking load thread, and on every beat scrapes replica 0 over `Frame::Stats` —
//! the same wire round-trip an external monitoring agent would make — rendering the
//! snapshot with the Prometheus-style text exposition. The freshness gauges
//! (`epoch_age_us`, `publications_total`, `publish_to_first_serve_us_*`) move beat
//! to beat as the updater publishes new epochs under live traffic.
//!
//! Run with: `cargo run --release --example live_stats`
//! Knobs: `OBS_REPLICAS` (servers), `OBS_BEATS` (scrapes), `OBS_BEAT_MS`
//! (milliseconds between scrapes).
//!
//! Prints each beat's scrape as text exposition; writes no file.

use liveupdate_repro::core::config::LiveUpdateConfig;
use liveupdate_repro::core::engine::ServingNode;
use liveupdate_repro::dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_repro::net::wire::{read_frame, write_frame, Frame};
use liveupdate_repro::net::{scrape_replica, ReplicaServer};
use liveupdate_repro::obs::render_text;
use liveupdate_repro::runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_repro::runtime::policy::{LiveUpdatePolicy, UpdatePolicy};
use liveupdate_repro::workload::{SyntheticWorkload, WorkloadConfig};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let replicas = env_u64("OBS_REPLICAS", 2) as usize;
    let beats = env_u64("OBS_BEATS", 5);
    let beat = Duration::from_millis(env_u64("OBS_BEAT_MS", 300));

    println!(
        "== live stats: {replicas} TCP replicas, {beats} scrape beats every {:?} ==",
        beat
    );
    let servers: Vec<ReplicaServer> = (0..replicas)
        .map(|i| {
            let model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), 7 + i as u64);
            let mut node = ServingNode::new(model, LiveUpdateConfig::default());
            // Pre-fill the retention buffer so background update rounds train (and
            // publish fresh epochs) from the first interval — the freshness gauges
            // only move when publications happen.
            let mut warm = SyntheticWorkload::new(WorkloadConfig {
                num_tables: 2,
                table_size: 200,
                ..WorkloadConfig::default()
            });
            node.serve_batch(0.0, &warm.batch_at(0.0, 256));
            let cfg = RuntimeConfig {
                num_workers: 1,
                max_batch: 16,
                batch_deadline_us: 500,
                // Ignored on the policy-driven path below; the explicit
                // LiveUpdatePolicy is what runs the updater.
                update: UpdateMode::Disabled,
                ..RuntimeConfig::default()
            };
            // An explicit policy: the server's updater runs LoRA rounds and publishes
            // fresh epochs every interval (`None` would be ingest-only).
            let policy: Box<dyn UpdatePolicy> = Box::new(LiveUpdatePolicy {
                rounds_per_update: 1,
                batch_size: 16,
            });
            ReplicaServer::start(node, cfg, Duration::from_millis(50), Some(policy))
                .expect("start replica server")
        })
        .collect();

    // One blocking request loop per replica: write a frame, read the reply, repeat.
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<_> = servers
        .iter()
        .map(|server| {
            let addr = server.addr();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut w = SyntheticWorkload::new(WorkloadConfig {
                    num_tables: 2,
                    table_size: 200,
                    ..WorkloadConfig::default()
                });
                let mut conn = TcpStream::connect(addr).expect("connect loader");
                conn.set_nodelay(true).ok();
                let mut sent = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let sample = w.sample_at(0.0);
                    let req = Frame::InferRequest {
                        id: sent,
                        time_minutes: 0.0,
                        trace_id: 0,
                        parent_span_id: 0,
                        sample,
                    };
                    if write_frame(&mut conn, &req).is_err() {
                        break;
                    }
                    match read_frame(&mut conn) {
                        Ok(Some(_)) => sent += 1,
                        _ => break,
                    }
                }
                let _ = write_frame(&mut conn, &Frame::Bye);
                sent
            })
        })
        .collect();

    let mut last_scrape: Vec<(String, f64)> = Vec::new();
    for beat_no in 1..=beats {
        std::thread::sleep(beat);
        match scrape_replica(servers[0].addr()) {
            Ok(rows) => {
                println!(
                    "\n-- beat {beat_no}/{beats}: replica 0 ({}) --",
                    servers[0].addr()
                );
                print!("{}", render_text(&rows));
                last_scrape = rows;
            }
            Err(e) => println!("beat {beat_no}: scrape failed: {e}"),
        }
    }

    stop.store(true, Ordering::Release);
    let offered: u64 = loaders.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    let mut completed = 0u64;
    for server in servers {
        let (report, _node) = server.shutdown();
        completed += report.completed;
    }
    println!("\n{replicas} replicas completed {completed} requests ({offered} offered)");
    assert!(
        !last_scrape.is_empty(),
        "the live scrape must return telemetry rows"
    );
    assert!(
        last_scrape.iter().any(|(n, _)| n == "epoch_age_us"),
        "freshness gauge missing from the live scrape"
    );
}
