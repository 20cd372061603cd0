//! The execution backends: one [`Scenario`], several engines.
//!
//! [`ExecutionBackend`] is the seam every engine implements: each consumes the *same*
//! scenario description and produces the *same* [`ScenarioReport`], so the paper's
//! strategies can be compared across modelling fidelities —
//!
//! * [`AnalyticBackend`] — the windowed prequential timeline of
//!   [`liveupdate::experiment`] (fast, single-node, no queueing);
//! * [`RealtimeBackend`] — the `std::thread` runtime of [`liveupdate_runtime`] under
//!   open-loop Poisson load, with the scenario's strategy mounted as an
//!   [`UpdatePolicy`](liveupdate_runtime::policy::UpdatePolicy) on the updater thread —
//!   the real-contention measurement of QuickUpdate and DeltaUpdate cadences.
//!
//! Adding an engine means implementing this one trait; nothing about scenarios,
//! reports, or the comparison driver changes. The `liveupdate_net` crate does exactly
//! that: its `DistributedBackend` runs the same scenarios over real localhost TCP
//! sockets (N replica servers, wire-measured sync traffic), and it is the one engine
//! that runs `topology.replicas` replicas.

use crate::report::{BackendKind, ScenarioReport, SyncProvenance};
use crate::scenario::Scenario;
use liveupdate::error::ConfigError;
use liveupdate::experiment::{run_strategy_with_training_delay, warmed_up_model};
use liveupdate::strategy::cost::UpdateCostModel;
use liveupdate::strategy::StrategyKind;
use liveupdate_runtime::config::UpdateMode;
use liveupdate_runtime::loadgen::{run_open_loop, LoadGenConfig};
use liveupdate_runtime::policy::policy_for_strategy;
use liveupdate_runtime::runtime::ServingRuntime;
use liveupdate_workload::arrival::ArrivalModel;
use std::time::Duration;

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

/// The in-process engines, in fidelity order.
#[must_use]
pub fn all_backends() -> Vec<Box<dyn ExecutionBackend>> {
    vec![Box::new(AnalyticBackend), Box::new(RealtimeBackend)]
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

/// The real multithreaded runtime: wraps [`liveupdate_runtime::runtime::ServingRuntime`]
/// with the scenario's strategy mounted as an update policy, driven by the open-loop
/// Poisson generator in compressed wall-clock time.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealtimeBackend;

impl ExecutionBackend for RealtimeBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Realtime
    }

    fn run(&self, scenario: &Scenario) -> Result<ScenarioReport, ConfigError> {
        scenario.validate()?;
        let exp = scenario.experiment_config();
        let strategy = scenario.policy.strategy;

        // Identical Day-1 checkpoint to the other backends: same warm-up, same stream.
        let (day1_model, workload) = warmed_up_model(&exp);
        let mut node = liveupdate::engine::ServingNode::new(day1_model.clone(), exp.liveupdate);
        // Pre-fill the retention buffer so the first update block has data.
        let mut prefill = workload.clone();
        node.serve_batch(
            exp.warmup_minutes,
            &prefill.batch_at(exp.warmup_minutes, exp.requests_per_window),
        );

        let policy = policy_for_strategy(
            strategy,
            &day1_model,
            scenario.realtime.rounds_per_update,
            scenario.policy.online_batch_size,
            scenario.horizon.training_batch_size,
            scenario.full_sync_every_ticks(),
        );
        let mut cfg = scenario.runtime_config();
        if policy.is_none() {
            cfg.update = UpdateMode::Disabled;
        }
        let interval = Duration::from_millis(scenario.realtime.update_interval_ms);
        let runtime = ServingRuntime::start_with_policy(node, cfg, interval, policy);

        let mut driving_workload = workload.clone();
        let loadgen = LoadGenConfig {
            arrival: ArrivalModel::default(),
            target_qps: scenario.realtime.target_qps,
            start_minutes: exp.warmup_minutes,
            duration: Duration::from_secs_f64(scenario.realtime.wall_seconds),
            seed: scenario.seed,
            ..LoadGenConfig::default()
        };
        let _offered = run_open_loop(&runtime, &mut driving_workload, &loadgen);
        let (run_report, final_node) = runtime.finish();

        // End-of-run freshness: the final authoritative model evaluated on held-out
        // traffic (not prequential — the runtime serves for latency; accuracy is probed
        // after the clock stops, at a fixed stream time so strategies are comparable).
        // The prefill batch and the generator's cycled sample pool were drawn from
        // clones at this workload's RNG position, so skip past every sample the run
        // could have served (and trained on) before drawing the probe — otherwise the
        // shadow-trainer baselines would be evaluated on their own training data.
        let eval_minutes = exp.warmup_minutes + exp.window_minutes / 2.0;
        let mut eval_workload = workload;
        let _served_region =
            eval_workload.batch_at(eval_minutes, exp.requests_per_window + loadgen.sample_pool);
        let eval_batch = eval_workload.batch_at(eval_minutes, exp.requests_per_window);
        let (auc, logloss) = final_node.evaluate(&eval_batch);

        let (cost_minutes, _) = analytic_cost(scenario);

        let mut report = ScenarioReport::new(&scenario.name, self.kind(), &strategy.name());
        report.mean_auc = auc;
        report.mean_logloss = Some(logloss);
        report.requests_served = run_report.completed;
        report.dropped = run_report.dropped;
        report.qps = Some(run_report.qps);
        report.p50_latency_ms = run_report.latency.p50();
        report.p99_latency_ms = run_report.latency.p99();
        report.update_events = run_report.updater.update_rounds;
        report.publications = run_report.updater.publications;
        report.mean_update_ms = if run_report.updater.publications > 0 {
            Some(run_report.updater.mean_round_ms())
        } else {
            None
        };
        report.update_cost_minutes_per_hour = cost_minutes;
        report.sync_bytes = run_report.updater.params_pulled * 8;
        report.sync_provenance = SyncProvenance::CountedInProcess;
        report.publication_history = run_report.updater.published;
        report.lora_memory_bytes = if strategy.trains_locally() {
            Some(final_node.lora_memory_bytes() as u64)
        } else {
            None
        };
        // A real scrape, not a synthesis: the runtime's registry snapshot taken at
        // `finish()` after every thread folded in its final values.
        report.telemetry = run_report.telemetry;
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
        s.realtime.wall_seconds = 0.3;
        s.realtime.target_qps = 400.0;
        s.realtime.update_interval_ms = 50;
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

    #[test]
    fn invalid_scenario_is_rejected_by_every_backend() {
        let mut no_workers = tiny();
        no_workers.topology.workers = 0;
        let mut no_replicas = tiny();
        no_replicas.topology.replicas = 0;
        for s in [no_workers, no_replicas] {
            for backend in all_backends() {
                assert!(
                    backend.run(&s).is_err(),
                    "{} accepted an invalid scenario",
                    backend.name()
                );
            }
        }
    }
}
