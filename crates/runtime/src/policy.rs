//! Pluggable update policies for the background updater thread.
//!
//! The [`UpdatePolicy`] trait is the decision the updater thread runs on each
//! wall-clock cadence tick: the thread owns the authoritative [`ServingNode`], folds
//! every ingested batch into its retention buffer, and on each tick asks the policy to
//! mutate the node, then publishes a fresh epoch-swapped snapshot.
//!
//! * [`LiveUpdatePolicy`] — the paper's system: inference-side LoRA rounds over the
//!   retention buffer, one publication per update block (near-zero overhead: no
//!   parameter shipment, only CPU-cycle stealing).
//!
//! `NoUpdate` is represented by running the updater with no policy at all (ingest-only,
//! the baseline arm of the interference measurement). The parameter-shipping baselines
//! (QuickUpdate, DeltaUpdate) train on a separate cluster in the paper, so they have no
//! policy here: the `liveupdate_net` driver trains their shadow model and ships rows or
//! whole models to ingest-only replicas as wire frames.

use liveupdate::engine::ServingNode;

/// A strategy for refreshing the authoritative [`ServingNode`] while it serves.
///
/// Implementations run entirely on the updater thread: `update_block` fires once per
/// configured wall-clock interval, and the runtime publishes `node.snapshot()` through
/// the epoch swap after every block, so a policy never touches the publication
/// machinery itself.
pub trait UpdatePolicy: Send {
    /// One cadence tick on the authoritative node; returns the update rounds it ran.
    fn update_block(&mut self, node: &mut ServingNode, now_minutes: f64) -> u64;
}

/// The paper's policy: LoRA rounds over the node's retention buffer, publish each block.
#[derive(Debug, Clone)]
pub struct LiveUpdatePolicy {
    /// `online_update_round` calls per publication.
    pub rounds_per_update: usize,
    /// Mini-batch size of each round.
    pub batch_size: usize,
}

impl UpdatePolicy for LiveUpdatePolicy {
    fn update_block(&mut self, node: &mut ServingNode, now_minutes: f64) -> u64 {
        for _ in 0..self.rounds_per_update {
            node.online_update_round(now_minutes, self.batch_size);
        }
        self.rounds_per_update as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liveupdate::config::LiveUpdateConfig;
    use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
    use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};

    #[test]
    fn liveupdate_policy_trains_the_node_and_publishes() {
        let model = DlrmModel::new(DlrmConfig::tiny(2, 120, 8), 1);
        let mut node = ServingNode::new(model, LiveUpdateConfig::default());
        let mut workload = SyntheticWorkload::new(WorkloadConfig {
            num_tables: 2,
            table_size: 120,
            ..WorkloadConfig::default()
        });
        node.serve_batch(0.0, &workload.batch_at(0.0, 64));
        let mut policy = LiveUpdatePolicy {
            rounds_per_update: 2,
            batch_size: 32,
        };
        assert_eq!(policy.update_block(&mut node, 1.0), 2);
        assert_eq!(node.steps(), 2);
    }
}
