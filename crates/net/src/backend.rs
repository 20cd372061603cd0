//! The measured execution engine: scenarios on real localhost TCP sockets.
//!
//! [`DistributedBackend`] implements [`ExecutionBackend`], so every
//! `scenarios/*.json` that runs on the analytic engine runs here unchanged:
//! `topology.replicas` means real [`ReplicaServer`](crate::server::ReplicaServer)s
//! behind TCP listeners (each served by its epoll event-loop thread, with the driver's
//! data plane pipelining one connection per replica through
//! [`MultiConnClient`](crate::client::MultiConnClient)), the request path crosses a
//! real network boundary, and the strategy's sync traffic is measured as bytes on the
//! wire ([`SyncProvenance::MeasuredWire`]). It is the one engine that measures
//! latency, interference and sync traffic, at every replica count including one.
//!
//! The run protocol starts from the analytic engine's Day-1 checkpoint: the same
//! warm-up and stream, one retention-buffer prefill shared by every replica, and an
//! end-of-run evaluation on held-out traffic.

use crate::driver::{run_distributed, DistributedConfig};
use liveupdate::experiment::warmed_up_model;
use liveupdate::strategy::cost::UpdateCostModel;
use liveupdate_runtime::loadgen::LoadGenConfig;
use liveupdate_scenario::{
    BackendKind, ExecutionBackend, Scenario, ScenarioReport, SyncProvenance,
};
use std::time::Duration;

/// The driver's request pool size, which is also the served region the end-of-run
/// probe skips so it never evaluates a replica on traffic it served or trained on.
fn sample_pool() -> usize {
    LoadGenConfig::default().sample_pool
}

/// The TCP multi-replica execution engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributedBackend;

impl ExecutionBackend for DistributedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Distributed
    }

    fn run(&self, scenario: &Scenario) -> Result<ScenarioReport, liveupdate::error::ConfigError> {
        scenario.validate()?;
        let exp = scenario.experiment_config();
        let strategy = scenario.policy.strategy;
        let replicas = scenario.topology.replicas;

        // Identical Day-1 checkpoint to the other backends: same warm-up, same stream.
        let (day1_model, workload) = warmed_up_model(&exp);
        let mut prefill_workload = workload.clone();
        let prefill = prefill_workload.batch_at(exp.warmup_minutes, exp.requests_per_window);
        let nodes: Vec<_> = (0..replicas)
            .map(|_| {
                let mut node =
                    liveupdate::engine::ServingNode::new(day1_model.clone(), exp.liveupdate);
                // Pre-fill the retention buffer so the first update block has data.
                node.serve_batch(exp.warmup_minutes, &prefill);
                node
            })
            .collect();

        let cfg = DistributedConfig {
            replicas,
            routing: scenario.topology.routing,
            runtime: scenario.runtime_config(),
            strategy,
            update_interval: Duration::from_millis(scenario.realtime.update_interval_ms),
            rounds_per_update: scenario.realtime.rounds_per_update,
            online_batch_size: scenario.policy.online_batch_size,
            training_batch_size: scenario.horizon.training_batch_size,
            full_sync_every_ticks: scenario.full_sync_every_ticks(),
            target_qps: scenario.realtime.target_qps,
            duration: Duration::from_secs_f64(scenario.realtime.wall_seconds),
            start_minutes: exp.warmup_minutes,
            seed: scenario.seed,
            sample_pool: sample_pool(),
        };
        let mut driving_workload = workload.clone();
        let (run, final_nodes) = run_distributed(nodes, &day1_model, &mut driving_workload, &cfg)
            .map_err(|e| {
            // Socket setup failing is an environment problem, but the trait's error
            // type is ConfigError; surface it as the closest constraint violation.
            eprintln!("distributed backend socket setup failed: {e}");
            liveupdate::error::ConfigError::Constraint {
                field: "scenario.topology.replicas",
                requirement: "localhost TCP sockets must be available",
            }
        })?;

        // End-of-run freshness: skip past every sample the run could have served or
        // trained on, then probe each replica's final authoritative model on held-out
        // traffic and average.
        let eval_minutes = exp.warmup_minutes + exp.window_minutes / 2.0;
        let mut eval_workload = workload;
        let _served_region =
            eval_workload.batch_at(eval_minutes, exp.requests_per_window + sample_pool());
        let eval_batch = eval_workload.batch_at(eval_minutes, exp.requests_per_window);
        let mut auc_sum = 0.0;
        let mut auc_count = 0usize;
        let mut logloss_sum = 0.0;
        for node in &final_nodes {
            let (auc, logloss) = node.evaluate(&eval_batch);
            if let Some(auc) = auc {
                auc_sum += auc;
                auc_count += 1;
            }
            logloss_sum += logloss;
        }

        let model = UpdateCostModel::default();
        let cost = model.hourly_cost(
            strategy,
            &scenario.dataset_preset().spec(),
            scenario.policy.update_interval_minutes,
        );

        let mut report = ScenarioReport::new(&scenario.name, self.kind(), &strategy.name());
        report.mean_auc = if auc_count > 0 {
            Some(auc_sum / auc_count as f64)
        } else {
            None
        };
        report.mean_logloss = Some(logloss_sum / final_nodes.len().max(1) as f64);
        report.requests_served = run.completed;
        report.dropped = run.shed;
        report.qps = Some(run.qps);
        report.p50_latency_ms = run.latency.p50();
        report.p99_latency_ms = run.latency.p99();
        report.update_events = run.update_events;
        report.publications = run.publications;
        report.update_cost_minutes_per_hour = cost.cost_minutes;
        report.sync_bytes = run.param_sync_bytes;
        report.lora_sync_bytes = run.lora_sync_bytes;
        report.sync_provenance = SyncProvenance::MeasuredWire;
        report.publication_history = run.publication_history;
        report.lora_memory_bytes = if strategy.trains_locally() {
            Some(
                final_nodes
                    .iter()
                    .map(|n| n.lora_memory_bytes() as u64)
                    .sum(),
            )
        } else {
            None
        };
        // Cluster-merged rows from scraping *every* replica over `Frame::Stats` +
        // `Frame::TraceDump` (histogram buckets summed before the percentile walk,
        // counters summed, gauges maxed).
        report.telemetry = run.telemetry;
        Ok(report)
    }
}

/// Every engine, in fidelity order: the analytic timeline, then the measured TCP tier.
#[must_use]
pub fn all_backends() -> Vec<Box<dyn ExecutionBackend>> {
    vec![
        Box::new(liveupdate_scenario::AnalyticBackend),
        Box::new(DistributedBackend),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_scenario_is_rejected_by_every_backend() {
        let mut no_workers = Scenario::small("backend_unit");
        no_workers.topology.workers = 0;
        let mut no_replicas = Scenario::small("backend_unit");
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
