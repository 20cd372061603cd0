//! Fig. 19 — scalability of the LoRA synchronisation with the number of inference nodes:
//! *measured* on real TCP replicas for 1–4 nodes (each replica trains LiveUpdate on its
//! shard of one routed stream, and the driver runs the sparse sync of Algorithm 3 as
//! frames every update tick, counting every byte at the socket), then projected with the
//! collective model to 12–48 nodes at production-sized payloads, contrasting the tree
//! AllGather's O(log N) growth against a naive linear scheme.

use liveupdate::engine::ServingNode;
use liveupdate::experiment::{warmed_up_model, ExperimentConfig};
use liveupdate::strategy::StrategyKind;
use liveupdate_bench::{header, series_row, write_bench_json, BenchMetric};
use liveupdate_net::{run_distributed, DistributedConfig};
use liveupdate_runtime::config::RuntimeConfig;
use liveupdate_sim::cluster::ClusterSpec;
use liveupdate_sim::collective::CollectiveAlgorithm;
use liveupdate_workload::shard::ShardPolicy;
use std::time::Duration;

fn main() {
    header(
        "Figure 19",
        "LoRA synchronisation time vs number of inference nodes (measured 1-4, projected 12-48)",
    );

    // Measured regime: N TCP replicas from one warmed-up checkpoint, each with a
    // pre-filled retention buffer, under routed open-loop load. The sparse LoRA sync
    // runs on every update tick; its bytes are frame lengths summed at the socket.
    let experiment = ExperimentConfig::small();
    let (day1_model, workload) = warmed_up_model(&experiment);
    let prefill = workload
        .clone()
        .batch_at(experiment.warmup_minutes, experiment.requests_per_window);
    let measured_sizes = [1usize, 2, 4];
    // (nodes, wire bytes per sync tick over every replica's control connection, the
    // same per replica)
    let measured: Vec<(usize, f64, f64)> = measured_sizes
        .iter()
        .map(|&n| {
            let nodes = (0..n)
                .map(|_| {
                    let mut node = ServingNode::new(day1_model.clone(), experiment.liveupdate);
                    node.serve_batch(experiment.warmup_minutes, &prefill);
                    node
                })
                .collect();
            let cfg = DistributedConfig {
                replicas: n,
                routing: ShardPolicy::HashByUser,
                runtime: RuntimeConfig {
                    num_workers: 1,
                    ..RuntimeConfig::default()
                },
                strategy: StrategyKind::LiveUpdate,
                update_interval: Duration::from_millis(100),
                rounds_per_update: 1,
                online_batch_size: 48,
                training_batch_size: experiment.training_batch_size,
                full_sync_every_ticks: 0,
                target_qps: 800.0,
                duration: Duration::from_millis(1500),
                start_minutes: experiment.warmup_minutes,
                seed: experiment.seed,
                sample_pool: 4096,
            };
            let (report, _) = run_distributed(nodes, &day1_model, &mut workload.clone(), &cfg)
                .expect("localhost replicas start");
            let wire_bytes = report.lora_sync_bytes as f64 / report.sync_ticks.max(1) as f64;
            (n, wire_bytes, wire_bytes / n as f64)
        })
        .collect();

    // Projection: the protocol exchanges the same rows at production scale, the
    // collective just sees more bytes. Scale the measured per-sync payload up to a few
    // GB per node and price larger clusters with the identical model.
    let measured_payload = measured.last().map_or(1.0, |m| m.2).max(1.0);
    let production_payload: f64 = 24_000_000_000.0;
    let scale = production_payload / measured_payload;
    let projected_sizes = [12usize, 16, 24, 32, 48];

    println!(
        "{:>8} {:>14} {:>18} {:>18} {:>12}",
        "nodes", "KB/rank/sync", "tree sync (min)", "ring sync (min)", "regime"
    );
    let mut tree_series = Vec::new();
    let mut metrics = Vec::new();
    for &(n, wire_bytes, per_rank) in &measured {
        let spec = ClusterSpec::with_nodes(n);
        let tree = spec.intra_collective(CollectiveAlgorithm::TreeAllGather);
        let ring = spec.intra_collective(CollectiveAlgorithm::RingAllGather);
        let payload = (per_rank * scale) as u64;
        let tree_min = tree.allgather_minutes(n, payload);
        let ring_min = ring.allgather_minutes(n, payload);
        tree_series.push((n as f64, tree_min));
        metrics.push(BenchMetric::new(
            &format!("wire_bytes_per_sync_n{n}"),
            wire_bytes,
            "bytes",
        ));
        metrics.push(BenchMetric::new(
            &format!("tree_sync_n{n}"),
            tree_min,
            "minutes",
        ));
        metrics.push(BenchMetric::new(
            &format!("ring_sync_n{n}"),
            ring_min,
            "minutes",
        ));
        println!(
            "{:>8} {:>14.1} {:>18.2} {:>18.2} {:>12}",
            n,
            per_rank / 1e3,
            tree_min,
            ring_min,
            "measured"
        );
    }
    for &n in &projected_sizes {
        let spec = ClusterSpec::with_nodes(n);
        let tree = spec.intra_collective(CollectiveAlgorithm::TreeAllGather);
        let ring = spec.intra_collective(CollectiveAlgorithm::RingAllGather);
        let payload = production_payload as u64;
        let tree_min = tree.allgather_minutes(n, payload);
        let ring_min = ring.allgather_minutes(n, payload);
        tree_series.push((n as f64, tree_min));
        metrics.push(BenchMetric::new(
            &format!("tree_sync_projected_n{n}"),
            tree_min,
            "minutes",
        ));
        metrics.push(BenchMetric::new(
            &format!("ring_sync_projected_n{n}"),
            ring_min,
            "minutes",
        ));
        println!(
            "{:>8} {:>14} {:>18.2} {:>18.2} {:>12}",
            n, "-", tree_min, ring_min, "projected"
        );
    }
    series_row("\ntree series (nodes, minutes)", &tree_series);

    // Both ends of the growth check at the same production payload, so the ratio is
    // the collective's growth in N alone.
    let at8 = ClusterSpec::with_nodes(8)
        .intra_collective(CollectiveAlgorithm::TreeAllGather)
        .allgather_minutes(8, production_payload as u64);
    let at48 = tree_series
        .iter()
        .find(|(n, _)| *n == 48.0)
        .map(|(_, t)| *t)
        .unwrap_or(0.0);
    println!(
        "paper check: 8 -> 48 nodes grows sync time by {:.1}x (log-like, not 6x), and the projected",
        at48 / at8.max(1e-9)
    );
    println!(
        "48-node sync stays under 10 minutes: {}",
        if at48 < 10.0 { "yes" } else { "no" }
    );

    metrics.push(BenchMetric::new(
        "tree_growth_8_to_48",
        at48 / at8.max(1e-9),
        "ratio",
    ));
    if let Err(e) = write_bench_json("scalability", &metrics) {
        eprintln!("could not write BENCH_scalability.json: {e}");
    }
}
