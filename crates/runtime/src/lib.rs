//! # liveupdate_runtime — the real multithreaded serving runtime
//!
//! `liveupdate::engine::ServingNode` serves and trains on one thread, so on its own it
//! cannot test the paper's central claim — inference-side LoRA updates add *near-zero
//! overhead* to the serving path — against real contention. This crate makes the claim
//! measurable: a `std::thread`-based runtime that serves real request streams with
//! wall-clock latencies while a co-located trainer updates the model live.
//!
//! ## Architecture (paper Fig. 7, made concrete)
//!
//! ```text
//!  open-loop Poisson loadgen (ArrivalModel → RealTimePacer)
//!        │ try_send (bounded MPSC, shed on overflow)
//!        ▼
//!  per-worker request queues ──► worker threads:
//!        deadline batcher (≤ max_batch or batch_deadline_us)
//!        serve read-only from the adopted ServingSnapshot
//!        record wall-clock latency; forward traffic ──► ingest channel
//!                                                          │
//!  EpochPublisher ◄── publish(snapshot) ── updater thread: ▼
//!   (atomic epoch        every `interval`:    authoritative ServingNode
//!    + Arc swap)         ingest → online_update_round → snapshot
//! ```
//!
//! * **Load generation** ([`loadgen`]) — an open-loop Poisson process paced from
//!   [`liveupdate_workload::arrival::ArrivalModel`]; requests carry their *scheduled*
//!   arrival instant so measured latency is free of coordinated omission.
//! * **Batching** ([`batcher`]) — DeepRecSys-style deadline batching: a batch closes at
//!   `max_batch` requests or `batch_deadline_us` after its first request.
//! * **Publication** ([`epoch`]) — the epoch swap. Workers serve from an immutable
//!   [`liveupdate::snapshot::ServingSnapshot`]; the updater publishes a new one per
//!   round by swapping an `Arc` and bumping an atomic epoch. The serve hot path takes
//!   **no lock**: one atomic load per batch, an `Arc` clone only when the epoch moved.
//!   No lock is ever held across training — this is the paper's near-zero-overhead
//!   property made literal. The updater, not a worker, frees each displaced snapshot.
//! * **Scheduling** ([`sched`]) — worker threads request a 100 µs scheduler slice, so
//!   one woken by a request preempts the trainer mid-publication.
//! * **Updating** (the private `updater` thread + [`policy`]) — the co-located trainer:
//!   owns the only mutable [`liveupdate::engine::ServingNode`], ingests served traffic
//!   into the retention buffer, and on each wall-clock cadence tick runs the mounted
//!   [`policy::UpdatePolicy`] (LiveUpdate LoRA rounds), then publishes. The
//!   parameter-shipping baselines run ingest-only here and take their rows or whole
//!   models as frames from `liveupdate_net`'s driver, which trains their shadow model
//!   off the serving node.
//! * **Routing** ([`router`]) — submission is keyed by the request: the lock-free
//!   [`router::Router`] (hash-by-user or round-robin, per
//!   [`config::RuntimeConfig::routing`]) picks the worker queue, so callers never choose
//!   an index by hand.
//! * **Measurement** ([`report`]) — real wall-clock QPS, P50/P99/P100 latency (in a
//!   [`liveupdate_obs::LogLinearHistogram`]), shed counts, batch shapes, update round
//!   times, and the full `(epoch, checksum)` publication history.
//! * **Telemetry** ([`telemetry`]) — a [`liveupdate_obs`] registry shared by every
//!   thread: lock-free counters/gauges/histograms under the workspace-wide metric-name
//!   contract plus a span ring of sampled request and publication spans. Scrape live with
//!   [`runtime::ServingRuntime::scrape`]; the final snapshot lands in
//!   [`report::RuntimeReport::telemetry`]. Disable per-run with
//!   [`config::RuntimeConfig::telemetry`].
//!
//! The update modes of [`config::UpdateMode`] form the interference experiment:
//! `Disabled` is the baseline arm (identical ingestion, no training), `Background` is
//! LiveUpdate, and `Synchronous` is the deterministic single-threaded reference that the
//! determinism-parity test pins against the plain `ServingNode` serve/update loop.
//!
//! ## Quickstart
//!
//! ```
//! use liveupdate::config::LiveUpdateConfig;
//! use liveupdate::engine::ServingNode;
//! use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
//! use liveupdate_runtime::config::{RuntimeConfig, UpdateMode};
//! use liveupdate_runtime::runtime::ServingRuntime;
//! use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};
//! use std::time::Duration;
//!
//! let model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), 7);
//! let node = ServingNode::new(model, LiveUpdateConfig::default());
//! let runtime = ServingRuntime::start(
//!     node,
//!     RuntimeConfig { num_workers: 2, update: UpdateMode::Disabled, ..RuntimeConfig::default() },
//! );
//!
//! let mut workload = SyntheticWorkload::new(WorkloadConfig {
//!     num_tables: 2, table_size: 200, ..WorkloadConfig::default()
//! });
//! for (i, sample) in workload.batch_at(0.0, 32).iter().enumerate() {
//!     runtime.submit(i % 2, sample.clone(), 0.0);
//! }
//! assert!(runtime.wait_processed(32, Duration::from_secs(30)));
//! let (report, _node) = runtime.finish();
//! assert_eq!(report.completed, 32);
//! assert!(report.qps > 0.0);
//! ```

pub mod batcher;
pub mod config;
pub mod epoch;
pub mod loadgen;
pub mod policy;
pub mod report;
pub mod request;
pub mod router;
pub mod runtime;
pub mod sched;
pub mod telemetry;
mod updater;
mod worker;

pub use batcher::BatcherConfig;
pub use config::{RuntimeConfig, UpdateMode};
pub use epoch::{EpochPublisher, EpochReader};
pub use loadgen::{run_open_loop, LoadGenConfig, LoadGenReport};
pub use policy::{LiveUpdatePolicy, UpdatePolicy};
pub use report::{RuntimeReport, UpdaterReport, WorkerReport};
pub use request::Request;
pub use router::Router;
pub use runtime::{ServingRuntime, SubmitOutcome};
pub use telemetry::Telemetry;
