//! The unified result schema every execution backend reports into.
//!
//! One [`ScenarioReport`] holds the union of what the engines can measure; fields an
//! engine cannot observe are `None`/empty rather than fabricated. The analytic backend
//! fills the freshness timeline and the paper's analytic update cost; the distributed
//! backend adds wall-clock QPS, latency percentiles, the epoch-swap publication
//! history, and sync traffic measured at the socket.

use liveupdate::experiment::TimelinePoint;
use serde::{Deserialize, Serialize};

/// Which execution engine produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// The analytic single-node timeline (`liveupdate::experiment`).
    Analytic,
    /// The TCP multi-replica tier (`liveupdate_net`): N replica servers on localhost
    /// sockets, sync traffic measured on the wire.
    Distributed,
}

impl BackendKind {
    /// Stable lowercase name used in reports and metric names.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Analytic => "analytic",
            BackendKind::Distributed => "distributed",
        }
    }
}

/// How a report's synchronisation-byte numbers were obtained. The backends count "sync
/// bytes" their own way (analytic projection, frame lengths at a socket), so every
/// report says explicitly where its bytes came from and
/// `scenario_compare` can label columns instead of silently mixing provenances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncProvenance {
    /// Projected from the paper's analytic cost model (no traffic ever existed).
    AnalyticModel,
    /// Bytes counted at a real socket (frame lengths summed at send/receive).
    MeasuredWire,
}

impl SyncProvenance {
    /// Stable lowercase label used in summary lines and artifacts.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SyncProvenance::AnalyticModel => "analytic",
            SyncProvenance::MeasuredWire => "wire",
        }
    }
}

/// Unified result of running one scenario on one backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Name of the scenario that ran.
    pub scenario: String,
    /// The engine that produced this report.
    pub backend: BackendKind,
    /// Human-readable strategy name ([`liveupdate::strategy::StrategyKind::name`]).
    pub strategy: String,
    /// Prequential freshness timeline (per-window AUC/log-loss). Empty on the
    /// distributed backend, whose accuracy fields are end-of-run evaluations instead.
    pub timeline: Vec<TimelinePoint>,
    /// Mean AUC. Prequential mean for analytic; end-of-run held-out AUC of the final
    /// published model for distributed.
    pub mean_auc: Option<f64>,
    /// Mean log loss (same provenance as `mean_auc`).
    pub mean_logloss: Option<f64>,
    /// Requests served to completion.
    pub requests_served: u64,
    /// Requests shed by bounded queues (distributed only; 0 elsewhere).
    pub dropped: u64,
    /// Measured wall-clock throughput (distributed only).
    pub qps: Option<f64>,
    /// Measured P50 latency in milliseconds (distributed only).
    pub p50_latency_ms: Option<f64>,
    /// Measured P99 latency in milliseconds (distributed only).
    pub p99_latency_ms: Option<f64>,
    /// Update events performed (training rounds or sync pulls, per the strategy).
    pub update_events: u64,
    /// Snapshot publications (epoch swaps, distributed only).
    pub publications: u64,
    /// The paper's analytic per-hour update cost for this strategy/cadence, minutes.
    pub update_cost_minutes_per_hour: f64,
    /// **Parameter-shipment** bytes over the horizon: what the training cluster pushed
    /// into the serving tier (full models, top-changed rows). Zero for local-training
    /// strategies on every backend — that absence is the paper's core claim. See
    /// `sync_provenance` for how the number was obtained.
    pub sync_bytes: u64,
    /// **Sparse LoRA exchange** bytes between replicas (Algorithm 3 traffic): the `A`
    /// rows and `B` factors replicas swap so corrections agree on the exchanged
    /// support. Zero for parameter-pull strategies and at one replica.
    pub lora_sync_bytes: u64,
    /// Where `sync_bytes` / `lora_sync_bytes` came from.
    pub sync_provenance: SyncProvenance,
    /// `(epoch, checksum)` publication history of replica 0 (distributed only).
    pub publication_history: Vec<(u64, u64)>,
    /// Final LoRA adapter memory in bytes (local-training strategies only).
    pub lora_memory_bytes: Option<u64>,
    /// Flattened telemetry rows `(name, value)`, sorted by name, using the shared
    /// metric-name contract (`serve_requests_total`, `publications_total`,
    /// `serve_latency_us_p99`, …). The distributed backend scrapes them
    /// from the live registry; analytic synthesizes the same names from its own
    /// accounting so dashboards read one schema across every engine.
    #[serde(default)]
    pub telemetry: Vec<(String, f64)>,
}

impl ScenarioReport {
    /// An empty report skeleton for `scenario` on `backend` running `strategy`.
    #[must_use]
    pub fn new(scenario: &str, backend: BackendKind, strategy: &str) -> Self {
        Self {
            scenario: scenario.to_string(),
            backend,
            strategy: strategy.to_string(),
            timeline: Vec::new(),
            mean_auc: None,
            mean_logloss: None,
            requests_served: 0,
            dropped: 0,
            qps: None,
            p50_latency_ms: None,
            p99_latency_ms: None,
            update_events: 0,
            publications: 0,
            update_cost_minutes_per_hour: 0.0,
            sync_bytes: 0,
            lora_sync_bytes: 0,
            sync_provenance: SyncProvenance::AnalyticModel,
            publication_history: Vec::new(),
            lora_memory_bytes: None,
            telemetry: Vec::new(),
        }
    }

    /// Synthesize the shared-contract telemetry rows from the report's own counters.
    /// Backends without a live registry (analytic) call this so every backend's
    /// report answers the same metric names; registry-backed backends overwrite the
    /// rows with a real scrape instead.
    pub fn synthesize_telemetry(&mut self) {
        let mut rows = vec![
            ("publications_total".to_string(), self.publications as f64),
            ("serve_requests_shed_total".to_string(), self.dropped as f64),
            (
                "serve_requests_total".to_string(),
                self.requests_served as f64,
            ),
            ("update_rounds_total".to_string(), self.update_events as f64),
        ];
        if let Some(p50) = self.p50_latency_ms {
            rows.push(("serve_latency_us_p50".to_string(), p50 * 1000.0));
        }
        if let Some(p99) = self.p99_latency_ms {
            rows.push(("serve_latency_us_p99".to_string(), p99 * 1000.0));
        }
        // Stage families, under the tracing contract's names. Engines without a live
        // runtime model serving as a single stage: the whole measured latency lands
        // in `stage_serve_us` and the queue/batch/flush stages report zero requests
        // (a zero `_count` is how `breakdown()` marks a stage as not measured).
        for stage in liveupdate_obs::span::STAGE_HISTOGRAMS {
            let serve = stage == "stage_serve_us";
            let count = if serve {
                self.requests_served as f64
            } else {
                0.0
            };
            rows.push((format!("{stage}_count"), count));
            if serve {
                if let Some(p50) = self.p50_latency_ms {
                    rows.push((format!("{stage}_p50"), p50 * 1000.0));
                }
                if let Some(p99) = self.p99_latency_ms {
                    rows.push((format!("{stage}_p99"), p99 * 1000.0));
                }
            }
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        self.telemetry = rows;
    }

    /// Per-stage latency breakdown read from the `telemetry` rows — the same
    /// `stage_*` family on both backends (scraped when a live runtime ran,
    /// synthesized otherwise). Stages with no traced requests are omitted.
    #[must_use]
    pub fn breakdown(&self) -> Vec<liveupdate_runtime::report::StageLatency> {
        liveupdate_runtime::report::stage_breakdown(&self.telemetry)
    }

    /// One human-readable summary row (used by `examples/scenario_compare.rs`).
    #[must_use]
    pub fn summary_line(&self) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"))
        }
        format!(
            "{:<11} {:<15} auc={} qps={} p50={} p99={} updates={} pubs={} cost={:.3}min/h param_sync={}B lora_sync={}B [{}]",
            self.backend.name(),
            self.strategy,
            opt(self.mean_auc),
            self.qps.map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
            opt(self.p50_latency_ms),
            opt(self.p99_latency_ms),
            self.update_events,
            self.publications,
            self.update_cost_minutes_per_hour,
            self.sync_bytes,
            self.lora_sync_bytes,
            self.sync_provenance.label(),
        )
    }
}

/// Absolute difference of the two reports' mean AUC, when both backends report one —
/// the analytic-vs-distributed (or N-vs-N replicas) agreement number comparisons
/// report.
#[must_use]
pub fn auc_agreement(a: &ScenarioReport, b: &ScenarioReport) -> Option<f64> {
    match (a.mean_auc, b.mean_auc) {
        (Some(x), Some(y)) => Some((x - y).abs()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(BackendKind::Analytic.name(), "analytic");
        assert_eq!(BackendKind::Distributed.name(), "distributed");
    }

    #[test]
    fn provenance_labels_are_stable() {
        assert_eq!(SyncProvenance::AnalyticModel.label(), "analytic");
        assert_eq!(SyncProvenance::MeasuredWire.label(), "wire");
    }

    #[test]
    fn summary_line_labels_both_byte_kinds() {
        let mut r = ScenarioReport::new("s", BackendKind::Distributed, "LiveUpdate");
        r.sync_provenance = SyncProvenance::MeasuredWire;
        r.lora_sync_bytes = 42;
        let line = r.summary_line();
        assert!(line.contains("param_sync=0B"));
        assert!(line.contains("lora_sync=42B"));
        assert!(line.contains("[wire]"));
    }

    #[test]
    fn summary_line_renders_missing_fields_as_dashes() {
        let r = ScenarioReport::new("s", BackendKind::Analytic, "LiveUpdate");
        let line = r.summary_line();
        assert!(line.contains("analytic"));
        assert!(line.contains("qps=-"));
    }

    #[test]
    fn agreement_requires_both_aucs() {
        let mut a = ScenarioReport::new("s", BackendKind::Analytic, "LiveUpdate");
        let mut b = ScenarioReport::new("s", BackendKind::Distributed, "LiveUpdate");
        assert_eq!(auc_agreement(&a, &b), None);
        a.mean_auc = Some(0.7);
        b.mean_auc = Some(0.65);
        assert!((auc_agreement(&a, &b).unwrap() - 0.05).abs() < 1e-12);
    }
}
