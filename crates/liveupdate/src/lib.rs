//! # LiveUpdate — inference-side model updates for recommendation serving
//!
//! This crate is the core of the reproduction of *Near-Zero-Overhead Freshness for
//! Recommendation Systems via Inference-Side Model Updates* (HPCA 2026). Production DLRMs
//! keep training and inference on separate clusters and ship multi-terabyte embedding-table
//! updates between them; LiveUpdate instead co-locates a lightweight Low-Rank Adaptation
//! (LoRA) trainer on the inference nodes, so freshness no longer requires inter-cluster
//! synchronisation.
//!
//! The crate is organised around the paper's design (Fig. 7):
//!
//! * [`lora`] — the LoRA tables `ΔW = A·B` layered on top of the frozen base embeddings.
//! * [`rank_adapt`] — variance-aware dynamic rank adaptation via PCA (Algorithm 1, part 1).
//! * [`pruning`] — usage-based LoRA-table pruning (Algorithm 1, part 2).
//! * [`hot_index`] — the hot-index filter deciding which lookups need the LoRA correction.
//! * [`trainer`] — the in-node LoRA trainer (base weights frozen, only `A`/`B` learn).
//! * [`scheduler`] — adaptive NUMA/CCD partitioning driven by P99 latency (Algorithm 2).
//! * [`isolation`] — the cache/bandwidth contention experiments behind Figs. 11 and 16.
//! * [`sync`] — sparse data-parallel LoRA synchronisation with priority merge (Algorithm 3),
//!   expressed over the [`sync::LoraPeer`] trait so it applies to live serving nodes. It
//!   is the in-process reference of the merge; `liveupdate_net`'s driver runs the same
//!   plan as frames between TCP replicas.
//! * [`engine`] — the per-node serving engine combining the inference path and the online
//!   update path.
//! * [`snapshot`] — immutable, checksummed serving snapshots: the read-only serve API the
//!   real multithreaded runtime (`liveupdate_runtime`) publishes via atomic epoch swaps.
//! * [`strategy`] — NoUpdate / DeltaUpdate / QuickUpdate / LiveUpdate update strategies and
//!   their analytic cost models.
//! * [`error`] — the typed [`ConfigError`] every configuration type in the workspace
//!   (experiment, runtime, scenario) validates into.
//! * [`experiment`] — end-to-end freshness experiments (accuracy over time, update cost,
//!   scalability) used by the benchmark harness.
//!
//! # Quickstart
//!
//! ```
//! use liveupdate::config::LiveUpdateConfig;
//! use liveupdate::engine::ServingNode;
//! use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
//! use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};
//!
//! // A small model and workload.
//! let model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), 7);
//! let mut workload = SyntheticWorkload::new(WorkloadConfig {
//!     num_tables: 2,
//!     table_size: 200,
//!     ..WorkloadConfig::default()
//! });
//!
//! // A serving node with LiveUpdate enabled.
//! let mut node = ServingNode::new(model, LiveUpdateConfig::default());
//!
//! // Serve a 5-minute window and run one online update round.
//! let batch = workload.batch_at(0.0, 64);
//! node.serve_batch(0.0, &batch);
//! let report = node.online_update_round(5.0, 32);
//! assert!(report.rows_updated > 0);
//! ```
//!
//! # Sync quickstart
//!
//! Replicas that trained on different traffic agree again after one sparse
//! synchronisation: the priority merge of Algorithm 3 ships only the rows some replica
//! touched, plus each touched table's `B` factor.
//!
//! ```
//! use liveupdate::config::LiveUpdateConfig;
//! use liveupdate::engine::ServingNode;
//! use liveupdate::sync::SparseLoraSync;
//! use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
//! use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};
//!
//! let model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), 7);
//! let mut workload = SyntheticWorkload::new(WorkloadConfig {
//!     num_tables: 2,
//!     table_size: 200,
//!     ..WorkloadConfig::default()
//! });
//! let mut nodes = vec![ServingNode::new(model, LiveUpdateConfig::default()); 2];
//! let mut sync = SparseLoraSync::new(nodes.len());
//! for (rank, node) in nodes.iter_mut().enumerate() {
//!     node.serve_batch(0.0, &workload.batch_at(0.0, 64));
//!     for (table, row) in node.online_update_round(5.0, 32).touched_rows {
//!         sync.record_update(rank, table, row);
//!     }
//! }
//!
//! let (report, plan) = sync.synchronize_peers(&mut nodes);
//! assert!(report.indices_exchanged > 0);
//! for m in &plan {
//!     let row = |node: &ServingNode| node.export_lora_row(m.table, m.row);
//!     assert_eq!(row(&nodes[0]), row(&nodes[1]));
//! }
//! ```

pub mod config;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod hot_index;
pub mod isolation;
pub mod lora;
pub mod pruning;
pub mod rank_adapt;
pub mod scheduler;
pub mod snapshot;
pub mod strategy;
pub mod sync;
pub mod trainer;

pub use config::LiveUpdateConfig;
pub use engine::ServingNode;
pub use error::ConfigError;
pub use lora::LoraTable;
pub use snapshot::{HotRowCache, ServingSnapshot};
pub use strategy::StrategyKind;
pub use sync::SparseLoraSync;
