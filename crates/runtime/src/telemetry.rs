//! Runtime telemetry: pre-registered metric handles over [`liveupdate_obs`].
//!
//! [`Telemetry`] is created once per [`ServingRuntime`](crate::runtime::ServingRuntime)
//! (when [`RuntimeConfig::telemetry`](crate::config::RuntimeConfig::telemetry) is on)
//! and cloned by `Arc` into every worker and the updater. All hot-path instrumentation
//! goes through the handles below — one relaxed atomic operation per recorded value,
//! never a registry lock — and everything is scraped through
//! [`MetricsRegistry::snapshot`], locally via
//! [`ServingRuntime::scrape`](crate::runtime::ServingRuntime::scrape) or remotely via
//! the net tier's `Frame::Stats`.
//!
//! # Metric names
//!
//! Every execution backend (analytic, distributed) reports the same
//! metric names in its `ScenarioReport::telemetry` section, so dashboards and tests
//! compare like with like. Histograms flatten to `<name>_p50` / `<name>_p99` /
//! `<name>_count` rows. The one table of those names is the Observability table in
//! the workspace README (architecture item 8); `tests/metric_contract.rs` checks it
//! against what a live replica actually registers.
//!
//! The four `stage_*_us` histograms are the per-request latency breakdown: they are
//! fed only by *traced* requests (see
//! [`RuntimeConfig::trace_sample_rate`](crate::config::RuntimeConfig::trace_sample_rate))
//! and are registered from [`liveupdate_obs::span::STAGE_HISTOGRAMS`], the one list
//! of their names.
//!
//! The net tier adds `net_*` series (wakeups, ready events, owed replies, open
//! connections) through the same registry; see
//! `liveupdate_net::server`. Completed request spans are collected separately in
//! [`Telemetry::spans`] and pulled over the wire by `Frame::TraceDump`.

use liveupdate_obs::span::STAGE_HISTOGRAMS;
use liveupdate_obs::{Counter, Gauge, LogLinearHistogram, MetricsRegistry, SpanRing};
use std::sync::{Arc, OnceLock};

/// Default span-ring capacity: the most recent sampled request spans held for the
/// next trace dump; overwrite-oldest beyond this.
pub const SPAN_CAPACITY: usize = 4096;

/// Trace-id flag marking updater publication spans (top bit set, epoch in the low
/// bits) so they never collide with request trace ids from sequential counters.
pub const PUBLICATION_TRACE_FLAG: u64 = 1 << 63;

/// Pre-registered metric handles shared by every thread of one runtime.
#[derive(Debug)]
pub struct Telemetry {
    /// The backing registry (for scrapes, text exposition, and net-tier extensions).
    pub registry: Arc<MetricsRegistry>,
    /// The span ring: completed request spans (and updater publication spans) from
    /// sampled traces, drained by `ServingRuntime::drain_spans` / `Frame::TraceDump`.
    pub spans: Arc<SpanRing>,
    /// The per-stage latency histograms, indexed like
    /// [`liveupdate_obs::span::STAGE_HISTOGRAMS`] (queue wait, batch wait, serve,
    /// reply flush).
    pub stage_us: [Arc<LogLinearHistogram>; 4],
    /// `serve_requests_total`.
    pub requests_total: Arc<Counter>,
    /// `serve_requests_shed_total`.
    pub requests_shed: Arc<Counter>,
    /// `serve_batches_total`.
    pub batches_total: Arc<Counter>,
    /// `serve_batch_occupancy`.
    pub batch_occupancy: Arc<LogLinearHistogram>,
    /// `serve_latency_us`.
    pub serve_latency_us: Arc<LogLinearHistogram>,
    /// `serve_batch_duration_us`.
    pub serve_batch_us: Arc<LogLinearHistogram>,
    /// `serve_queue_depth` (sampled at scrape time from the submit/complete counters).
    pub queue_depth: Arc<Gauge>,
    /// `update_rounds_total`.
    pub update_rounds: Arc<Counter>,
    /// `update_round_duration_us`.
    pub update_round_us: Arc<LogLinearHistogram>,
    /// `publications_total`.
    pub publications: Arc<Counter>,
    /// `snapshot_epoch`.
    pub snapshot_epoch: Arc<Gauge>,
    /// `epoch_age_us` (set at scrape time from the publisher's publish stamp).
    pub epoch_age_us: Arc<Gauge>,
    /// `publish_to_first_serve_us`.
    pub publish_to_first_serve_us: Arc<LogLinearHistogram>,
    /// `requests_per_epoch`.
    pub requests_per_epoch: Arc<LogLinearHistogram>,
    /// `[hot_row_cache_hits_t<i>, hot_row_cache_misses_t<i>]` per table, registered by
    /// the first scrape whose snapshot carries a hot-row cache (the table count is not
    /// known before then), so later scrapes neither format names nor lock the registry.
    pub hot_row_cache: OnceLock<Vec<[Arc<Gauge>; 2]>>,
}

impl Telemetry {
    /// Build a fresh registry and register every runtime metric in it.
    #[must_use]
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let spans = Arc::new(SpanRing::new(SPAN_CAPACITY));
        Self {
            stage_us: STAGE_HISTOGRAMS.map(|name| registry.histogram(name)),
            requests_total: registry.counter("serve_requests_total"),
            requests_shed: registry.counter("serve_requests_shed_total"),
            batches_total: registry.counter("serve_batches_total"),
            batch_occupancy: registry.histogram("serve_batch_occupancy"),
            serve_latency_us: registry.histogram("serve_latency_us"),
            serve_batch_us: registry.histogram("serve_batch_duration_us"),
            queue_depth: registry.gauge("serve_queue_depth"),
            update_rounds: registry.counter("update_rounds_total"),
            update_round_us: registry.histogram("update_round_duration_us"),
            publications: registry.counter("publications_total"),
            snapshot_epoch: registry.gauge("snapshot_epoch"),
            epoch_age_us: registry.gauge("epoch_age_us"),
            publish_to_first_serve_us: registry.histogram("publish_to_first_serve_us"),
            requests_per_epoch: registry.histogram("requests_per_epoch"),
            hot_row_cache: OnceLock::new(),
            registry,
            spans,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Publish an updater publication span: trace id = [`PUBLICATION_TRACE_FLAG`]` |
/// epoch`, stages `serve_start` → `serve_done` covering the update work that
/// produced the epoch (`started_us` from [`SpanRing::now_us`] before the block).
/// These spans share the request span ring so one trace dump carries both views.
pub fn push_publication_span(tel: &Telemetry, epoch: u64, started_us: u64) {
    use liveupdate_obs::span::{
        next_span_id, SpanRecord, NUM_STAGES, STAGE_SERVE_DONE, STAGE_SERVE_START,
    };
    let mut stages = [0u64; NUM_STAGES];
    stages[STAGE_SERVE_START] = started_us.max(1);
    stages[STAGE_SERVE_DONE] = tel.spans.now_us();
    tel.spans.push(&SpanRecord {
        trace_id: PUBLICATION_TRACE_FLAG | epoch,
        span_id: next_span_id(),
        parent_span_id: 0,
        stages,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contract_names_are_registered() {
        let tel = Telemetry::new();
        let rows = tel.registry.snapshot();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "serve_requests_total",
            "serve_requests_shed_total",
            "serve_batches_total",
            "serve_batch_occupancy_p99",
            "serve_latency_us_p50",
            "serve_latency_us_p99",
            "serve_batch_duration_us_count",
            "serve_queue_depth",
            "update_rounds_total",
            "update_round_duration_us_p99",
            "publications_total",
            "snapshot_epoch",
            "epoch_age_us",
            "publish_to_first_serve_us_p99",
            "requests_per_epoch_p50",
            "stage_queue_wait_us_p99",
            "stage_batch_wait_us_p99",
            "stage_serve_us_p99",
            "stage_reply_flush_us_p50",
        ] {
            assert!(
                names.contains(&expected),
                "missing metric {expected}: {names:?}"
            );
        }
    }

    #[test]
    fn handles_feed_the_registry() {
        let tel = Telemetry::new();
        tel.requests_total.add(10);
        tel.serve_latency_us.record(125.0);
        tel.snapshot_epoch.set(7);
        let rows: std::collections::BTreeMap<String, f64> =
            tel.registry.snapshot().into_iter().collect();
        assert_eq!(rows["serve_requests_total"], 10.0);
        assert_eq!(rows["serve_latency_us_count"], 1.0);
        assert_eq!(rows["snapshot_epoch"], 7.0);
    }

    #[test]
    fn stage_histograms_match_the_obs_stage_family() {
        // Each stage handle must feed the histogram named at its index in the
        // obs-side stage constant.
        let tel = Telemetry::new();
        for (hist, name) in tel
            .stage_us
            .iter()
            .zip(liveupdate_obs::span::STAGE_HISTOGRAMS)
        {
            hist.record(10.0);
            let rows: std::collections::BTreeMap<String, f64> =
                tel.registry.snapshot().into_iter().collect();
            assert_eq!(rows[&format!("{name}_count")], 1.0, "{name}");
        }
    }
}
