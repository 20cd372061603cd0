//! # liveupdate_scenario — one experiment description, two execution engines
//!
//! The repo has two ways to "run the paper" — the analytic timeline
//! (`liveupdate::experiment`) and the TCP replica tier (`liveupdate_net`, real-thread
//! `liveupdate_runtime` replicas behind sockets) — and each had its own config struct
//! and result type. This crate is the unifying layer:
//!
//! ```text
//!                         ┌──────────────────────────┐
//!        scenarios/*.json │   Scenario (plain data)  │  Scenario::from_file
//!                ───────► │ workload · topology ·    │
//!                         │ policy · horizon · rt    │
//!                         └────────────┬─────────────┘
//!                                      │ ExecutionBackend::run
//!                         ┌────────────┴─────────────┐
//!                         ▼                          ▼
//!                 AnalyticBackend           DistributedBackend
//!              (prequential windowed      (liveupdate_net: N TCP replicas,
//!               accuracy timeline)         real-thread workers + updater,
//!                                          sync traffic measured on the wire)
//!                         │                          │
//!                         └────────────┬─────────────┘
//!                                      ▼
//!                         ┌──────────────────────────┐
//!                         │      ScenarioReport      │  one schema: AUC timeline,
//!                         │  (unified result type)   │  QPS, P50/P99, update cost,
//!                         └──────────────────────────┘  sync bytes, publications
//! ```
//!
//! * [`scenario::Scenario`] — the serializable description. Loadable from JSON
//!   ([`scenario::Scenario::from_file`]), so new experiments are data, not code. The
//!   workspace's vendored `serde` is marker-only; scenarios ship their own small codec
//!   ([`json`]).
//! * [`backend::ExecutionBackend`] — the engine trait, implemented here by
//!   [`backend::AnalyticBackend`]. The registry of both engines is
//!   `liveupdate_net::all_backends`, since the measured engine lives in that crate.
//! * [`report::ScenarioReport`] — the unified result schema (fields an engine cannot
//!   observe stay `None` rather than being fabricated).
//!
//! The legacy entry points (`run_strategy*`, `ServingRuntime`) keep working — the
//! backends are thin adapters over them, and the old config types are exactly what
//! [`scenario::Scenario::experiment_config`] / [`scenario::Scenario::runtime_config`]
//! project onto.
//!
//! ## Quickstart
//!
//! ```
//! use liveupdate_scenario::backend::{AnalyticBackend, ExecutionBackend};
//! use liveupdate_scenario::Scenario;
//!
//! let mut scenario = Scenario::small("doc");
//! scenario.horizon.duration_minutes = 20.0;
//!
//! // Scenarios are data: they round-trip through JSON.
//! let reloaded = Scenario::from_json(&scenario.to_json()).unwrap();
//! assert_eq!(scenario, reloaded);
//!
//! let report = AnalyticBackend.run(&reloaded).unwrap();
//! assert_eq!(report.timeline.len(), 2);
//! assert!(report.mean_auc.unwrap() > 0.0);
//! ```

pub mod backend;
pub mod json;
pub mod report;
pub mod scenario;

pub use backend::{AnalyticBackend, ExecutionBackend};
pub use report::{auc_agreement, BackendKind, ScenarioReport, SyncProvenance};
pub use scenario::{
    HorizonSpec, PolicySpec, RealtimeSpec, Scenario, ScenarioError, TopologySpec, WorkloadSpec,
};
