//! The execution backends: one [`Scenario`], two engines.
//!
//! [`ExecutionBackend`] is the seam every engine implements: each consumes the *same*
//! scenario description and produces the *same* [`ScenarioReport`], so the paper's
//! strategies can be compared across modelling fidelities. This crate holds
//! [`AnalyticBackend`], the windowed prequential timeline of
//! [`liveupdate::experiment`] (fast, single-node, no queueing).
//!
//! Adding an engine means implementing this one trait; nothing about scenarios,
//! reports, or the comparison driver changes. The `liveupdate_net` crate does exactly
//! that: its `DistributedBackend` is the one measured engine. It runs the same
//! scenarios on `topology.replicas` real-thread replica servers behind localhost TCP
//! sockets, with every update strategy's sync traffic measured on the wire, and its
//! `all_backends()` is the registry of both engines.

use crate::report::{BackendKind, ScenarioReport, SyncProvenance};
use crate::scenario::Scenario;
use liveupdate::error::ConfigError;
use liveupdate::experiment::run_strategy_with_training_delay;
use liveupdate::strategy::cost::UpdateCostModel;
use liveupdate::strategy::StrategyKind;

/// An engine that can execute a [`Scenario`].
pub trait ExecutionBackend {
    /// Which engine this is.
    fn kind(&self) -> BackendKind;

    /// Stable lowercase name (defaults to the kind's name).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Run `scenario` to completion and report the unified result.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] when the scenario is invalid (backends validate
    /// before running; a valid scenario runs on every backend).
    fn run(&self, scenario: &Scenario) -> Result<ScenarioReport, ConfigError>;
}

/// The analytic per-hour cost of the scenario's strategy at its configured cadence,
/// `(cost_minutes_per_hour, transfer_bytes_over_horizon)` — the Fig. 14 numbers every
/// backend attaches to its report so cost ordering is comparable across engines.
fn analytic_cost(scenario: &Scenario) -> (f64, u64) {
    let model = UpdateCostModel::default();
    let spec = scenario.dataset_preset().spec();
    let cost = model.hourly_cost(
        scenario.policy.strategy,
        &spec,
        scenario.policy.update_interval_minutes,
    );
    let horizon_hours = scenario.horizon.duration_minutes / 60.0;
    (
        cost.cost_minutes,
        (cost.bytes_transferred as f64 * horizon_hours) as u64,
    )
}

/// Update events a windowed (analytic) run performs over the horizon.
fn analytic_update_events(scenario: &Scenario) -> u64 {
    let windows =
        (scenario.horizon.duration_minutes / scenario.horizon.window_minutes).ceil() as u64;
    match scenario.policy.strategy {
        StrategyKind::NoUpdate => 0,
        StrategyKind::DeltaUpdate | StrategyKind::QuickUpdate { .. } => {
            (scenario.horizon.duration_minutes / scenario.policy.update_interval_minutes).floor()
                as u64
        }
        StrategyKind::LiveUpdate | StrategyKind::LiveUpdateFixedRank { .. } => {
            windows * scenario.policy.online_rounds_per_window as u64
        }
    }
}

/// The analytic single-node timeline: wraps
/// [`liveupdate::experiment::run_strategy_with_training_delay`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticBackend;

impl ExecutionBackend for AnalyticBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Analytic
    }

    fn run(&self, scenario: &Scenario) -> Result<ScenarioReport, ConfigError> {
        scenario.validate()?;
        let exp = scenario.experiment_config();
        let result = run_strategy_with_training_delay(&exp, scenario.policy.strategy, 0.0);
        let (cost_minutes, sync_bytes) = analytic_cost(scenario);
        let windows = result.timeline.len() as u64;

        let mut report = ScenarioReport::new(
            &scenario.name,
            self.kind(),
            &scenario.policy.strategy.name(),
        );
        report.mean_auc = Some(result.mean_auc);
        report.mean_logloss = Some(result.mean_logloss);
        report.requests_served = windows * scenario.horizon.requests_per_window as u64;
        report.update_events = analytic_update_events(scenario);
        report.update_cost_minutes_per_hour = cost_minutes;
        report.sync_bytes = sync_bytes;
        report.sync_provenance = SyncProvenance::AnalyticModel;
        report.lora_memory_bytes = result.lora_memory_fraction.map(|fraction| {
            let base_bytes: usize =
                exp.dlrm.table_sizes.iter().sum::<usize>() * exp.dlrm.embedding_dim * 8;
            (fraction * base_bytes as f64) as u64
        });
        report.timeline = result.timeline;
        report.synthesize_telemetry();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        let mut s = Scenario::small("backend_unit");
        s.horizon.duration_minutes = 20.0;
        s.horizon.requests_per_window = 96;
        s.policy.online_rounds_per_window = 3;
        s
    }

    #[test]
    fn analytic_backend_reports_timeline_and_cost() {
        let r = AnalyticBackend.run(&tiny()).unwrap();
        assert_eq!(r.backend, BackendKind::Analytic);
        assert_eq!(r.timeline.len(), 2);
        assert!(r.mean_auc.unwrap() > 0.4);
        assert!(
            r.update_cost_minutes_per_hour > 0.0,
            "LiveUpdate trains, so cost > 0"
        );
        assert_eq!(r.sync_bytes, 0, "LiveUpdate ships no parameters");
        assert!(r.lora_memory_bytes.unwrap() > 0);
        assert_eq!(r.requests_served, 2 * 96);
        // Synthesized telemetry answers the shared contract names.
        let get = |name: &str| {
            r.telemetry
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} missing: {:?}", r.telemetry))
                .1
        };
        assert_eq!(get("serve_requests_total"), (2 * 96) as f64);
        assert_eq!(get("update_rounds_total"), r.update_events as f64);
        assert_eq!(get("serve_requests_shed_total"), 0.0);
    }
}
