//! Cluster composition: inference nodes, intra-cluster fabric and the inter-cluster link.

use crate::collective::{CollectiveAlgorithm, CollectiveModel};
use crate::network::NetworkLink;
use crate::node::NodeSpec;
use serde::{Deserialize, Serialize};

/// An inference cluster plus its connectivity to the training side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of inference nodes.
    pub num_nodes: usize,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Fabric between inference nodes (used for LoRA AllGather).
    pub intra_link: NetworkLink,
    /// Link between the training cluster / parameter server and the inference cluster
    /// (used by Delta/QuickUpdate synchronisation).
    pub inter_link: NetworkLink,
}

impl ClusterSpec {
    /// The paper's 8-node evaluation cluster.
    #[must_use]
    pub fn paper_testbed() -> Self {
        Self {
            num_nodes: 8,
            node: NodeSpec::paper_testbed(),
            intra_link: NetworkLink::infiniband_edr(),
            inter_link: NetworkLink::commodity_100gbe(),
        }
    }

    /// Same hardware scaled to `num_nodes` nodes (the Fig. 19 scalability sweep).
    #[must_use]
    pub fn with_nodes(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            ..Self::paper_testbed()
        }
    }

    /// Collective model over the intra-cluster fabric.
    #[must_use]
    pub fn intra_collective(&self, algorithm: CollectiveAlgorithm) -> CollectiveModel {
        CollectiveModel::new(self.intra_link, algorithm)
    }

    /// Total DRAM capacity of the cluster in bytes.
    #[must_use]
    pub fn total_dram_bytes(&self) -> u64 {
        self.num_nodes as u64 * self.node.dram_bytes
    }

    /// Per-node share of an embedding-table footprint partitioned across the cluster.
    #[must_use]
    pub fn embedding_bytes_per_node(&self, total_embedding_bytes: u64) -> u64 {
        if self.num_nodes == 0 {
            return 0;
        }
        total_embedding_bytes / self.num_nodes as u64
    }

    /// Validate the specification.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.num_nodes > 0 && self.node.is_valid()
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let c = ClusterSpec::paper_testbed();
        assert!(c.is_valid());
        assert_eq!(c.num_nodes, 8);
        assert_eq!(c.total_dram_bytes(), 8 * 12_000_000_000_000);
        assert_eq!(ClusterSpec::default(), c);
    }

    #[test]
    fn with_nodes_scales_only_count() {
        let c = ClusterSpec::with_nodes(16);
        assert_eq!(c.num_nodes, 16);
        assert_eq!(c.node, NodeSpec::paper_testbed());
        assert!(!ClusterSpec::with_nodes(0).is_valid());
    }

    #[test]
    fn embedding_partitioning() {
        let c = ClusterSpec::paper_testbed();
        let total = 50_000_000_000_000u64; // 50 TB (Table II)
        let per_node = c.embedding_bytes_per_node(total);
        assert_eq!(per_node, total / 8);
        // The partition must fit in per-node DRAM.
        assert!(per_node < c.node.dram_bytes);
        assert_eq!(
            ClusterSpec { num_nodes: 0, ..c }.embedding_bytes_per_node(total),
            0
        );
    }

    #[test]
    fn intra_collective_uses_intra_link() {
        let c = ClusterSpec::paper_testbed();
        let m = c.intra_collective(CollectiveAlgorithm::TreeAllGather);
        assert_eq!(m.link, c.intra_link);
        assert_eq!(m.algorithm, CollectiveAlgorithm::TreeAllGather);
    }
}
