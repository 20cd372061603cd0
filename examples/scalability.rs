//! Scalability scenario: the projected LoRA synchronisation cost at production payloads,
//! and the per-hour update cost of every strategy at production scale.
//!
//! Part 1 projects the tree and ring AllGather of the sparse LoRA exchange (paper
//! Fig. 19, §IV-E) to production-sized payloads; Part 2 reproduces the Fig. 14 cost
//! table. The measured multi-replica regime runs on real TCP replicas: see
//! `cargo bench --bench fig19_scalability` and `examples/scenario_compare.rs`.
//!
//! Run with: `cargo run --release --example scalability`

use liveupdate_repro::core::strategy::cost::UpdateCostModel;
use liveupdate_repro::core::strategy::StrategyKind;
use liveupdate_repro::sim::collective::{CollectiveAlgorithm, CollectiveModel};
use liveupdate_repro::sim::network::NetworkLink;
use liveupdate_repro::workload::datasets::DatasetPreset;

fn main() {
    // Part 1: Fig. 19 — price the sync at production scale (a few GB of active rows
    // per node) across cluster sizes.
    let payload_per_node: u64 = 4_000_000_000;
    let tree = CollectiveModel::new(
        NetworkLink::infiniband_edr(),
        CollectiveAlgorithm::TreeAllGather,
    );
    let ring = CollectiveModel::new(
        NetworkLink::infiniband_edr(),
        CollectiveAlgorithm::RingAllGather,
    );
    println!(
        "projected AllGather at production payloads ({} GB of active rows per node):\n",
        payload_per_node / 1_000_000_000
    );
    println!("{:>8} {:>16} {:>16}", "nodes", "tree (min)", "ring (min)");
    for nodes in [1, 2, 4, 8, 16, 24, 32, 48] {
        println!(
            "{:>8} {:>16.2} {:>16.2}",
            nodes,
            tree.allgather_minutes(nodes, payload_per_node),
            ring.allgather_minutes(nodes, payload_per_node)
        );
    }

    // Part 2: Fig. 14 — update cost per hour for the BD-TB dataset.
    let model = UpdateCostModel::default();
    let dataset = DatasetPreset::BdTb.spec();
    println!(
        "\nper-hour update cost on {} (50 TB of embeddings, 100 GbE inter-cluster link):\n",
        dataset.preset.name()
    );
    println!(
        "{:<18} {:>12} {:>16} {:>18}",
        "strategy", "interval", "cost (min/hour)", "bytes moved (TB)"
    );
    for interval in [20.0, 10.0, 5.0] {
        for strategy in StrategyKind::cost_comparison() {
            let cost = model.hourly_cost(strategy, &dataset, interval);
            println!(
                "{:<18} {:>9.0}min {:>16.1} {:>18.2}",
                strategy.name(),
                interval,
                cost.cost_minutes,
                cost.bytes_transferred as f64 / 1e12
            );
        }
        println!();
    }
    println!(
        "LiveUpdate's cost stays flat as the update frequency rises; the baselines scale with it."
    );
}
