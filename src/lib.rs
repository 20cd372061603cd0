//! Umbrella crate for the LiveUpdate reproduction.
//!
//! This crate re-exports the workspace members so the runnable examples under `examples/`
//! and the cross-crate integration tests under `tests/` can use a single dependency. The
//! actual implementation lives in:
//!
//! * [`linalg`] — dense kernels, SVD, PCA, low-rank factorisation.
//! * [`dlrm`] — the deep-learning recommendation model (embedding tables, MLPs, metrics).
//! * [`workload`] — synthetic CTR workloads with Zipfian popularity and concept drift.
//! * [`sim`] — the cluster/hardware simulator (network, caches, memory bandwidth, power).
//! * [`core`] — the LiveUpdate system itself plus the baseline update strategies.
//! * [`runtime`] — the real `std::thread` serving runtime: open-loop Poisson load
//!   generation, deadline batching, epoch-swap LoRA publication, measured QPS/P99.
//! * [`scenario`] — the unified scenario/backend API: one serializable experiment
//!   description executed by two engines (analytic, TCP sockets) into one report
//!   schema.
//! * [`net`] — distributed serving over TCP: the length-prefixed wire protocol,
//!   socket-based sparse LoRA sync and parameter shipments, and the measured
//!   execution backend (one or more replicas) with wire-measured sync bytes.
//! * [`obs`] — dependency-free telemetry: the sharded lock-free metrics registry,
//!   log-linear latency histograms, the request span ring, and the Prometheus-style
//!   text renderer behind `Frame::Stats` and every report's `telemetry` rows.
//!
//! # Quickstart
//!
//! ```
//! use liveupdate_repro::core::config::LiveUpdateConfig;
//!
//! let config = LiveUpdateConfig::default();
//! assert!(config.variance_threshold > 0.0 && config.variance_threshold <= 1.0);
//! ```

pub use liveupdate as core;
pub use liveupdate_dlrm as dlrm;
pub use liveupdate_linalg as linalg;
pub use liveupdate_net as net;
pub use liveupdate_obs as obs;
pub use liveupdate_runtime as runtime;
pub use liveupdate_scenario as scenario;
pub use liveupdate_sim as sim;
pub use liveupdate_workload as workload;
