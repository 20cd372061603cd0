//! # liveupdate_net — real distributed serving over TCP
//!
//! Until this crate, every "sync bytes" number in the repo was accounted analytically
//! or inside one process. This crate puts the paper's multi-node story on real sockets:
//!
//! ```text
//!                  ClusterDriver (one process, real TCP on 127.0.0.1)
//!   ┌────────────────────────────────────────────────────────────────────┐
//!   │  open-loop Poisson loadgen ── StreamSharder::hash_route ──┐        │
//!   │  sync thread: Algorithm-3 gather/merge/broadcast,         │        │
//!   │  QuickUpdate row shipments, DeltaUpdate full models       │        │
//!   └──────────────┬─────────────────────────┬──────────────────┼────────┘
//!        control frames                control frames      infer frames
//!                  │                         │                  │
//!         ┌────────▼─────────┐      ┌────────▼─────────┐        │
//!         │ ReplicaServer 0  │      │ ReplicaServer 1  │ ◄──────┘
//!         │ TCP listener     │      │ TCP listener     │
//!         │  └ ServingRuntime│      │  └ ServingRuntime│   workers serve from the
//!         │     workers +    │      │     workers +    │   epoch-swapped snapshot;
//!         │     updater owns │      │     updater owns │   control frames run via
//!         │     the node     │      │     the node     │   with_node_async on the
//!         └──────────────────┘      └──────────────────┘   updater
//! ```
//!
//! * [`wire`] — the length-prefixed binary codec: inference requests/predictions,
//!   sparse LoRA row exchange, `B`-factor broadcast, top-changed-row pulls, full-model
//!   pulls, and live telemetry scrapes (`Stats`/`StatsReply`). Property-tested for
//!   round-trip identity, non-finite rejection, and truncation safety.
//! * [`poll`] — a dependency-free readiness layer: [`poll::Poller`] wraps
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait` and [`poll::Waker`] wraps `eventfd`
//!   through a minimal FFI shim, so the tier needs no external crates.
//! * [`server`] — [`server::ReplicaServer`]: one
//!   [`ServingRuntime`](liveupdate_runtime::runtime::ServingRuntime) behind a TCP
//!   listener, served by **one epoll event-loop thread** that owns every connection in
//!   nonblocking mode (incremental frame decode, replies routed back by connection id,
//!   outbound buffers drained on `EPOLLOUT`, reply-exact teardown under churn).
//!   Inference frames enter the worker queues like in-process submissions; control
//!   frames execute against the authoritative node on the updater thread. The server
//!   needs epoll: `ReplicaServer::start` returns an error where none can be created.
//! * [`client`] — [`client::MultiConnClient`]: N pipelined connections multiplexed on
//!   the caller's thread over the same poller; the harness behind the
//!   many-connection sweep (`cargo bench --bench net_many_conn`) and churn tests.
//! * [`driver`] — [`driver::run_distributed`]: spawn N replicas, drive routed open-loop
//!   load, execute the strategy's update traffic as real frames, and measure every byte
//!   at the socket. [`driver::scrape_replica`] makes the monitoring round-trip a
//!   one-liner: connect, send `Stats`, return the replica's flattened live telemetry.
//! * [`backend`] — [`backend::DistributedBackend`], the one measured
//!   [`ExecutionBackend`](liveupdate_scenario::ExecutionBackend) at every replica
//!   count: every `scenarios/*.json` runs on sockets unchanged and reports into the
//!   same [`ScenarioReport`](liveupdate_scenario::ScenarioReport) schema with
//!   wire-measured sync bytes. [`backend::all_backends`] is the registry of both
//!   engines (analytic, distributed).
//!
//! The headline measurement this tier exists for: at N replicas, LiveUpdate's
//! parameter-shipment traffic is **measured zero bytes on the wire** (its sparse LoRA
//! exchange is a separate, tiny, support-sized stream), while QuickUpdate ships
//! top-changed rows and DeltaUpdate ships whole models — the paper's cost ordering as
//! socket arithmetic, not estimates.

pub mod backend;
pub mod client;
pub mod driver;
pub mod poll;
pub mod server;
pub mod wire;

pub use backend::{all_backends, DistributedBackend};
pub use client::MultiConnClient;
pub use driver::{
    join_traces, run_distributed, scrape_cluster, scrape_replica, ClusterScrape, CrossNodeTrace,
    DistributedConfig, DistributedReport, ReplicaScrape,
};
pub use server::ReplicaServer;
pub use wire::{Frame, WireError};
