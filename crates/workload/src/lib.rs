//! Synthetic CTR workloads for the LiveUpdate reproduction.
//!
//! The paper evaluates LiveUpdate on public datasets (Avazu, Criteo) and on TB-scale
//! production traces from ByteDance. Neither the traces nor the petabyte embedding tables
//! are available, so this crate builds the closest synthetic equivalent that exercises the
//! same code paths (see DESIGN.md §1):
//!
//! * [`zipf`] — a Zipfian ID sampler reproducing the heavy skew of embedding accesses
//!   (paper Fig. 12: the top 10 % of rows receive ≈ 94 % of lookups).
//! * [`drift`] — a non-stationary ground-truth click model, so models that are not
//!   refreshed lose accuracy over time (paper Fig. 3b).
//! * [`arrival`] — a diurnal request-arrival model calibrated to the paper's sustained
//!   "100 million requests / 5 min" load (paper Fig. 4).
//! * [`synthetic`] — the stream generator tying it all together and producing
//!   [`liveupdate_dlrm::Sample`]s labelled by the drifting ground truth.
//! * [`datasets`] — presets mirroring Table II (Avazu, Criteo, BD-TB and the TB-scale
//!   variants used for cost modelling).
//! * [`trace`] — interaction records and the bounded retention buffer that feeds the
//!   online update path (paper §IV-E).
//! * [`access`] — access-distribution statistics (CDF, top-k share).
//! * [`shard`] — deterministic sharding of the request stream across serving replicas
//!   (hash-by-user and round-robin routing for the multi-replica cluster).

pub mod access;
pub mod arrival;
pub mod datasets;
pub mod drift;
pub mod shard;
pub mod synthetic;
pub mod trace;
pub mod zipf;

pub use datasets::{DatasetPreset, DatasetSpec};
pub use drift::DriftConfig;
pub use shard::{ShardPolicy, StreamSharder};
pub use synthetic::{SyntheticWorkload, WorkloadConfig};
pub use trace::{InteractionRecord, RetentionBuffer};
pub use zipf::ZipfSampler;
