//! End-to-end freshness experiments.
//!
//! This module is the driver behind the paper's accuracy evaluation: it replays a drifting
//! CTR stream, keeps a "training cluster" model continuously trained on fresh data, and
//! maintains one serving view per update strategy, evaluated prequentially (test on the new
//! window, then update). The benchmark harness calls into it to regenerate Table III and
//! Figs. 3, 6, 9 and 15.

use crate::config::LiveUpdateConfig;
use crate::engine::ServingNode;
use crate::error::ConfigError;
use crate::strategy::StrategyKind;
use liveupdate_dlrm::metrics::{Auc, LogLoss};
use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_dlrm::sample::MiniBatch;
use liveupdate_linalg::Pca;
use liveupdate_workload::datasets::DatasetPreset;
use liveupdate_workload::synthetic::{SyntheticWorkload, WorkloadConfig};
use serde::{Deserialize, Serialize};

/// Configuration of a freshness experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Workload (stream) parameters.
    pub workload: WorkloadConfig,
    /// Model architecture.
    pub dlrm: DlrmConfig,
    /// Length of the evaluated serving period in minutes (after warm-up).
    pub duration_minutes: f64,
    /// Serving/evaluation window granularity in minutes.
    pub window_minutes: f64,
    /// Update interval of DeltaUpdate / QuickUpdate in minutes.
    pub update_interval_minutes: f64,
    /// Interval of the full-parameter synchronisation used by QuickUpdate and LiveUpdate.
    pub full_sync_interval_minutes: f64,
    /// Requests generated (and evaluated) per window.
    pub requests_per_window: usize,
    /// Online LoRA update rounds LiveUpdate runs per window.
    pub online_rounds_per_window: usize,
    /// Mini-batch size of each online round.
    pub online_batch_size: usize,
    /// Warm-up length in minutes used to pretrain the Day-1 checkpoint.
    pub warmup_minutes: f64,
    /// Number of passes over the warm-up data.
    pub warmup_epochs: usize,
    /// Mini-batch size used by the training cluster (and warm-up).
    pub training_batch_size: usize,
    /// LiveUpdate node configuration.
    pub liveupdate: LiveUpdateConfig,
    /// Seed controlling the stream and model initialisation.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A small configuration that runs in well under a second — used by unit tests.
    #[must_use]
    pub fn small() -> Self {
        let workload = WorkloadConfig {
            num_tables: 2,
            table_size: 300,
            drift: liveupdate_workload::drift::DriftConfig {
                rotation_period_minutes: 120.0,
                ..liveupdate_workload::drift::DriftConfig::default()
            },
            ..WorkloadConfig::default()
        };
        let dlrm = DlrmConfig {
            table_sizes: vec![300, 300],
            ..DlrmConfig::tiny(2, 300, 8)
        };
        Self {
            workload,
            dlrm,
            duration_minutes: 30.0,
            window_minutes: 10.0,
            update_interval_minutes: 10.0,
            full_sync_interval_minutes: 60.0,
            requests_per_window: 128,
            online_rounds_per_window: 6,
            online_batch_size: 64,
            warmup_minutes: 20.0,
            warmup_epochs: 2,
            training_batch_size: 64,
            liveupdate: LiveUpdateConfig::default(),
            seed: 7,
        }
    }

    /// The configuration used by the benchmark harness for a dataset preset: the preset's
    /// scaled-down workload/model with the paper's evaluation protocol (10-minute update
    /// windows, 1-hour horizon, hourly full sync).
    #[must_use]
    pub fn from_dataset(preset: DatasetPreset, seed: u64) -> Self {
        let spec = preset.spec();
        Self {
            workload: spec.workload_config(seed),
            dlrm: spec.dlrm_config(),
            duration_minutes: 60.0,
            window_minutes: 5.0,
            update_interval_minutes: 10.0,
            full_sync_interval_minutes: 60.0,
            requests_per_window: 512,
            online_rounds_per_window: 10,
            online_batch_size: 128,
            warmup_minutes: 30.0,
            warmup_epochs: 2,
            training_batch_size: 128,
            liveupdate: LiveUpdateConfig::default(),
            seed,
        }
    }

    /// Basic sanity checks of the experiment parameters (legacy API; prefer
    /// [`Self::validate`] for the violated constraint).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }

    /// Validate the experiment parameters, naming the first violated constraint.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] when any parameter is out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.workload.is_valid() {
            return Err(ConfigError::Constraint {
                field: "experiment.workload",
                requirement: "workload configuration is invalid",
            });
        }
        if self.dlrm.validate().is_err() {
            return Err(ConfigError::Constraint {
                field: "experiment.dlrm",
                requirement: "model configuration is invalid",
            });
        }
        if self.workload.num_tables != self.dlrm.table_sizes.len() {
            return Err(ConfigError::Mismatch {
                left: "experiment.workload.num_tables",
                right: "experiment.dlrm.table_sizes",
                requirement: "one workload table per embedding table",
            });
        }
        if self.duration_minutes <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "experiment.duration_minutes",
            });
        }
        if self.window_minutes <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "experiment.window_minutes",
            });
        }
        if self.requests_per_window == 0 {
            return Err(ConfigError::NonPositive {
                field: "experiment.requests_per_window",
            });
        }
        if self.training_batch_size == 0 {
            return Err(ConfigError::NonPositive {
                field: "experiment.training_batch_size",
            });
        }
        self.liveupdate.validate()
    }
}

/// One prequential evaluation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Window start time in minutes (relative to the start of the evaluated period).
    pub time_minutes: f64,
    /// AUC of the serving model on the window's fresh traffic (None for one-class windows).
    pub auc: Option<f64>,
    /// Mean log loss on the window.
    pub logloss: f64,
}

/// Result of running one strategy over the whole horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyRunResult {
    /// The strategy evaluated.
    pub strategy: StrategyKind,
    /// Per-window evaluation points.
    pub timeline: Vec<TimelinePoint>,
    /// Mean AUC over all windows where it is defined.
    pub mean_auc: f64,
    /// Mean log loss over all windows.
    pub mean_logloss: f64,
    /// LoRA memory as a fraction of the base embeddings (local-training strategies only).
    pub lora_memory_fraction: Option<f64>,
}

/// Train `model` on `batch` split into mini-batches of `batch_size`.
fn train_on(model: &mut DlrmModel, batch: &MiniBatch, batch_size: usize) {
    for chunk in batch.chunks(batch_size.max(1)) {
        if !chunk.is_empty() {
            model.train_batch(&chunk);
        }
    }
}

/// Pretrain the Day-1 checkpoint on the warm-up period and return it together with the
/// workload positioned at the start of the evaluated period. Used by the scenario
/// layer's distributed backend so every execution engine starts from
/// the identical checkpoint a single-node analytic run would use.
pub fn warmed_up_model(cfg: &ExperimentConfig) -> (DlrmModel, SyntheticWorkload) {
    let mut workload = SyntheticWorkload::new(cfg.workload.clone());
    let mut model = DlrmModel::new(cfg.dlrm.clone(), cfg.seed);
    let windows = (cfg.warmup_minutes / cfg.window_minutes).ceil() as usize;
    let mut warmup_batches = Vec::with_capacity(windows);
    for w in 0..windows {
        let t = w as f64 * cfg.window_minutes + cfg.window_minutes / 2.0;
        warmup_batches.push(workload.batch_at(t, cfg.requests_per_window));
    }
    for _ in 0..cfg.warmup_epochs.max(1) {
        for batch in &warmup_batches {
            train_on(&mut model, batch, cfg.training_batch_size);
        }
    }
    (model, workload)
}

/// Copy the `fraction` of rows with the largest parameter change from `source` into
/// `target`, per table (the QuickUpdate transfer rule; see
/// [`DlrmModel::pull_top_changed_rows`]).
fn copy_top_changed_rows(target: &mut DlrmModel, source: &DlrmModel, fraction: f64) {
    let _ = target.pull_top_changed_rows(source, fraction);
}

/// Run one strategy over the configured horizon.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn run_strategy(cfg: &ExperimentConfig, strategy: StrategyKind) -> StrategyRunResult {
    run_strategy_with_training_delay(cfg, strategy, 0.0)
}

/// Same as [`run_strategy`], but the local-training strategies only see traffic older than
/// `training_delay_minutes` — the knob behind the LoRA-sync-interval sweep of Fig. 9
/// (a replica serving traffic trained on another node sees those updates only after the
/// AllGather completes).
#[must_use]
pub fn run_strategy_with_training_delay(
    cfg: &ExperimentConfig,
    strategy: StrategyKind,
    training_delay_minutes: f64,
) -> StrategyRunResult {
    assert!(cfg.is_valid(), "invalid experiment configuration");
    let (day1_model, mut workload) = warmed_up_model(cfg);
    let start = cfg.warmup_minutes;
    let mut training_model = day1_model.clone();

    // Serving state.
    let liveupdate_config = match strategy {
        StrategyKind::LiveUpdateFixedRank { rank } => LiveUpdateConfig {
            ..LiveUpdateConfig::with_fixed_rank(rank)
        },
        _ => cfg.liveupdate,
    };
    let mut serving_model = day1_model.clone();
    let mut node = if strategy.trains_locally() {
        Some(ServingNode::new(day1_model.clone(), liveupdate_config))
    } else {
        None
    };

    let windows = (cfg.duration_minutes / cfg.window_minutes).ceil() as usize;
    let mut timeline = Vec::with_capacity(windows);
    let mut pending_training: Vec<(f64, MiniBatch)> = Vec::new();
    let mut last_sync = 0.0_f64;
    let mut last_full_sync = 0.0_f64;

    for w in 0..windows {
        let rel_time = w as f64 * cfg.window_minutes;
        let t = start + rel_time + cfg.window_minutes / 2.0;
        let batch = workload.batch_at(t, cfg.requests_per_window);

        // 1. Prequential evaluation of the serving view on fresh traffic.
        let (auc, logloss) = match &node {
            Some(n) => n.evaluate(&batch),
            None => serving_model.evaluate(&batch),
        };
        timeline.push(TimelinePoint {
            time_minutes: rel_time,
            auc,
            logloss,
        });

        // 2. The training cluster always trains on the fresh window.
        train_on(&mut training_model, &batch, cfg.training_batch_size);

        // 3. Strategy-specific serving update.
        match strategy {
            StrategyKind::NoUpdate => {}
            StrategyKind::DeltaUpdate => {
                if rel_time + cfg.window_minutes - last_sync >= cfg.update_interval_minutes {
                    serving_model = training_model.clone();
                    last_sync = rel_time + cfg.window_minutes;
                }
            }
            StrategyKind::QuickUpdate { fraction } => {
                if rel_time + cfg.window_minutes - last_full_sync >= cfg.full_sync_interval_minutes
                {
                    serving_model = training_model.clone();
                    last_full_sync = rel_time + cfg.window_minutes;
                    last_sync = last_full_sync;
                } else if rel_time + cfg.window_minutes - last_sync >= cfg.update_interval_minutes {
                    copy_top_changed_rows(&mut serving_model, &training_model, fraction);
                    last_sync = rel_time + cfg.window_minutes;
                }
            }
            StrategyKind::LiveUpdate | StrategyKind::LiveUpdateFixedRank { .. } => {
                let n = node.as_mut().expect("local-training strategy has a node");
                // The node caches the window's traffic, possibly with a sync delay.
                pending_training.push((t, batch.clone()));
                let visible_cutoff = t - training_delay_minutes;
                let mut i = 0;
                while i < pending_training.len() {
                    if pending_training[i].0 <= visible_cutoff {
                        let (bt, b) = pending_training.remove(i);
                        n.serve_batch(bt, &b);
                    } else {
                        i += 1;
                    }
                }
                for _ in 0..cfg.online_rounds_per_window {
                    n.online_update_round(t, cfg.online_batch_size);
                }
                if rel_time + cfg.window_minutes - last_full_sync >= cfg.full_sync_interval_minutes
                {
                    n.full_sync(training_model.clone());
                    last_full_sync = rel_time + cfg.window_minutes;
                }
            }
        }
    }

    let (mean_auc, mean_logloss) = aggregate_means(&timeline);
    StrategyRunResult {
        strategy,
        lora_memory_fraction: node.as_ref().map(ServingNode::lora_memory_fraction),
        timeline,
        mean_auc,
        mean_logloss,
    }
}

/// Mean AUC (over the windows where it is defined) and mean log loss of a timeline.
fn aggregate_means(timeline: &[TimelinePoint]) -> (f64, f64) {
    let aucs: Vec<f64> = timeline.iter().filter_map(|p| p.auc).collect();
    let mean_auc = if aucs.is_empty() {
        0.0
    } else {
        aucs.iter().sum::<f64>() / aucs.len() as f64
    };
    let mean_logloss =
        timeline.iter().map(|p| p.logloss).sum::<f64>() / timeline.len().max(1) as f64;
    (mean_auc, mean_logloss)
}

/// Run several strategies under the identical stream and checkpoint.
#[must_use]
pub fn run_all(cfg: &ExperimentConfig, strategies: &[StrategyKind]) -> Vec<StrategyRunResult> {
    strategies.iter().map(|s| run_strategy(cfg, *s)).collect()
}

/// AUC improvement of every result over the DeltaUpdate baseline, in percentage points
/// (the unit of paper Table III). The DeltaUpdate row itself is 0 by construction.
#[must_use]
pub fn auc_improvement_over_delta(results: &[StrategyRunResult]) -> Vec<(String, f64)> {
    let baseline = results
        .iter()
        .find(|r| r.strategy == StrategyKind::DeltaUpdate)
        .map_or(0.0, |r| r.mean_auc);
    results
        .iter()
        .map(|r| (r.strategy.name(), (r.mean_auc - baseline) * 100.0))
        .collect()
}

/// The Fig. 9 sweep: mean AUC of LiveUpdate as a function of the LoRA sync delay.
#[must_use]
pub fn sync_delay_sweep(cfg: &ExperimentConfig, delays_minutes: &[f64]) -> Vec<(f64, f64)> {
    delays_minutes
        .iter()
        .map(|&d| {
            let r = run_strategy_with_training_delay(cfg, StrategyKind::LiveUpdate, d);
            (d, r.mean_auc)
        })
        .collect()
}

/// Fraction of embedding rows changed by continuous training over windows of the given
/// lengths (paper Fig. 3a). Returns `(window_minutes, changed_fraction)` pairs.
#[must_use]
pub fn update_ratio_run(cfg: &ExperimentConfig, window_lengths_minutes: &[f64]) -> Vec<(f64, f64)> {
    assert!(cfg.is_valid(), "invalid experiment configuration");
    window_lengths_minutes
        .iter()
        .map(|&len| {
            let (mut model, mut workload) = warmed_up_model(cfg);
            let snapshot: Vec<_> = model.tables().to_vec();
            let windows = (len / cfg.window_minutes).ceil().max(1.0) as usize;
            for w in 0..windows {
                let t =
                    cfg.warmup_minutes + w as f64 * cfg.window_minutes + cfg.window_minutes / 2.0;
                let batch = workload.batch_at(t, cfg.requests_per_window);
                train_on(&mut model, &batch, cfg.training_batch_size);
            }
            let mut changed = 0usize;
            let mut total = 0usize;
            for (table, before) in model.tables().iter().zip(&snapshot) {
                changed += table.changed_rows(before, 1e-9).len();
                total += table.num_rows();
            }
            (len, changed as f64 / total.max(1) as f64)
        })
        .collect()
}

/// Cumulative explained-variance curve of the embedding gradients of one table at one
/// training iteration (paper Fig. 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcaCurve {
    /// Embedding-table index.
    pub table: usize,
    /// Training iteration at which the gradient snapshot was taken.
    pub iteration: usize,
    /// Cumulative explained-variance ratios (index `k-1` = top-`k` components).
    pub cumulative: Vec<f64>,
}

/// Collect gradient PCA curves over `iterations` training steps (paper Fig. 6).
#[must_use]
pub fn gradient_rank_analysis(cfg: &ExperimentConfig, iterations: usize) -> Vec<PcaCurve> {
    assert!(cfg.is_valid(), "invalid experiment configuration");
    let (mut model, mut workload) = warmed_up_model(cfg);
    let mut curves = Vec::new();
    for it in 0..iterations {
        let t = cfg.warmup_minutes + it as f64 * cfg.window_minutes / 4.0;
        let batch = workload.batch_at(t, cfg.training_batch_size.max(32));
        let grads = model.compute_gradients(&batch);
        for (table, grad) in grads.embeddings.iter().enumerate() {
            if grad.len() < 2 {
                continue;
            }
            let (matrix, _) = grad.to_snapshot();
            if let Ok(pca) = Pca::fit_uncentered(&matrix) {
                curves.push(PcaCurve {
                    table,
                    iteration: it,
                    cumulative: pca.cumulative_explained_variance(),
                });
            }
        }
        model.apply_gradients(&grads);
    }
    curves
}

/// Prequential accuracy of a never-updated model with explicit full syncs at the listed
/// times (paper Fig. 3b: accuracy decays between updates and recovers after each one).
#[must_use]
pub fn accuracy_decay_run(
    cfg: &ExperimentConfig,
    full_sync_times_minutes: &[f64],
) -> Vec<TimelinePoint> {
    assert!(cfg.is_valid(), "invalid experiment configuration");
    let (day1_model, mut workload) = warmed_up_model(cfg);
    let mut training_model = day1_model.clone();
    let mut serving_model = day1_model;
    let start = cfg.warmup_minutes;
    let windows = (cfg.duration_minutes / cfg.window_minutes).ceil() as usize;
    let mut timeline = Vec::with_capacity(windows);
    let mut syncs: Vec<f64> = full_sync_times_minutes.to_vec();
    syncs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut next_sync = 0usize;

    for w in 0..windows {
        let rel_time = w as f64 * cfg.window_minutes;
        let t = start + rel_time + cfg.window_minutes / 2.0;
        let batch = workload.batch_at(t, cfg.requests_per_window);
        let mut auc = Auc::new();
        let mut ll = LogLoss::new();
        for s in batch.iter() {
            let p = serving_model.predict(s);
            auc.record(p, s.label);
            ll.record(p, s.label);
        }
        timeline.push(TimelinePoint {
            time_minutes: rel_time,
            auc: auc.value(),
            logloss: ll.value().unwrap_or(0.0),
        });
        train_on(&mut training_model, &batch, cfg.training_batch_size);
        if next_sync < syncs.len() && rel_time + cfg.window_minutes >= syncs[next_sync] {
            serving_model = training_model.clone();
            next_sync += 1;
        }
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::small()
    }

    #[test]
    fn small_config_is_valid() {
        assert!(cfg().is_valid());
        let from_dataset = ExperimentConfig::from_dataset(DatasetPreset::Avazu, 1);
        assert!(from_dataset.is_valid());
    }

    #[test]
    fn invalid_config_detected() {
        let mut c = cfg();
        c.duration_minutes = 0.0;
        assert!(!c.is_valid());
        let mut c = cfg();
        c.workload.num_tables = 1; // mismatch with the 2-table DLRM
        assert!(!c.is_valid());
    }

    #[test]
    fn run_strategy_produces_timeline() {
        let r = run_strategy(&cfg(), StrategyKind::DeltaUpdate);
        assert_eq!(r.timeline.len(), 3);
        assert!(r.mean_auc > 0.4 && r.mean_auc <= 1.0, "auc {}", r.mean_auc);
        assert!(r.mean_logloss > 0.0);
        assert!(r.lora_memory_fraction.is_none());
        // Timeline times are spaced by the window length.
        assert_eq!(r.timeline[1].time_minutes, 10.0);
    }

    #[test]
    fn liveupdate_reports_memory_fraction() {
        let r = run_strategy(&cfg(), StrategyKind::LiveUpdate);
        let frac = r
            .lora_memory_fraction
            .expect("LiveUpdate tracks LoRA memory");
        assert!(frac > 0.0 && frac < 1.0);
    }

    #[test]
    fn noupdate_is_worst_on_drifting_stream() {
        let mut c = cfg();
        c.duration_minutes = 40.0;
        let no = run_strategy(&c, StrategyKind::NoUpdate);
        let delta = run_strategy(&c, StrategyKind::DeltaUpdate);
        let live = run_strategy(&c, StrategyKind::LiveUpdate);
        assert!(
            delta.mean_auc >= no.mean_auc - 0.01,
            "delta {} should beat noupdate {}",
            delta.mean_auc,
            no.mean_auc
        );
        assert!(
            live.mean_auc >= no.mean_auc - 0.01,
            "live {} should beat noupdate {}",
            live.mean_auc,
            no.mean_auc
        );
    }

    #[test]
    fn improvement_table_is_relative_to_delta() {
        let results = run_all(&cfg(), &[StrategyKind::DeltaUpdate, StrategyKind::NoUpdate]);
        let table = auc_improvement_over_delta(&results);
        let delta_row = table.iter().find(|(n, _)| n == "DeltaUpdate").unwrap();
        assert!(delta_row.1.abs() < 1e-9);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn update_ratio_grows_with_window_length() {
        let ratios = update_ratio_run(&cfg(), &[10.0, 30.0]);
        assert_eq!(ratios.len(), 2);
        assert!(ratios[0].1 > 0.0, "some rows must change in 10 minutes");
        assert!(
            ratios[1].1 >= ratios[0].1,
            "longer windows change at least as many rows"
        );
        assert!(ratios[1].1 <= 1.0);
    }

    #[test]
    fn gradient_rank_analysis_produces_low_rank_curves() {
        let curves = gradient_rank_analysis(&cfg(), 3);
        assert!(!curves.is_empty());
        for c in &curves {
            assert!(!c.cumulative.is_empty());
            // Cumulative curves are monotone and end at 1.
            let mut prev = 0.0;
            for &v in &c.cumulative {
                assert!(v + 1e-9 >= prev);
                prev = v;
            }
            assert!((c.cumulative.last().unwrap() - 1.0).abs() < 1e-6);
        }
        // The paper's observation: a handful of components captures 80 % of the variance.
        let small_rank = curves.iter().filter(|c| {
            c.cumulative
                .iter()
                .position(|&v| v >= 0.8)
                .is_some_and(|k| k < 8)
        });
        assert!(small_rank.count() > curves.len() / 2);
    }

    #[test]
    fn accuracy_decay_recovers_after_sync() {
        let mut c = cfg();
        c.duration_minutes = 40.0;
        let timeline = accuracy_decay_run(&c, &[20.0]);
        assert_eq!(timeline.len(), 4);
        // All points have defined log loss; AUC is defined for non-degenerate windows.
        assert!(timeline.iter().all(|p| p.logloss > 0.0));
    }

    #[test]
    fn sync_delay_sweep_returns_one_point_per_delay() {
        let mut c = cfg();
        c.duration_minutes = 20.0;
        let sweep = sync_delay_sweep(&c, &[0.0, 10.0]);
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].0, 0.0);
        assert!(sweep.iter().all(|(_, auc)| *auc > 0.0));
    }
}
