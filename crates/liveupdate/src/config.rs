//! System-wide configuration of a LiveUpdate deployment.

use crate::error::ConfigError;
use liveupdate_dlrm::embedding::StorageKind;
use serde::{Deserialize, Serialize};

/// Tunables of the LiveUpdate serving node, with defaults matching the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LiveUpdateConfig {
    /// Variance threshold `α` of the dynamic rank adaptation (paper Eq. 2, default 0.8).
    pub variance_threshold: f64,
    /// Initial LoRA rank before the first adaptation.
    pub initial_rank: usize,
    /// Hard bounds on the adapted rank (protects against degenerate snapshots).
    pub min_rank: usize,
    /// Upper bound on the adapted rank.
    pub max_rank: usize,
    /// How many training iterations between rank/pruning adaptations (paper: every `T`,
    /// e.g. 128 iterations).
    pub adaptation_interval_steps: usize,
    /// Learning rate of the LoRA trainer.
    pub lora_learning_rate: f64,
    /// Sliding-window length (iterations) over which per-index update frequencies are
    /// tracked for pruning.
    pub pruning_window_steps: usize,
    /// Fraction of the full table used as the minimum LoRA-table size `C_min`
    /// (paper default: 1/50).
    pub min_table_fraction: f64,
    /// Fraction of the full table used as the maximum LoRA-table size `C_max`.
    pub max_table_fraction: f64,
    /// Fraction of indices treated as "hot" when initialising the pruning threshold
    /// `τ_prune` (paper: top 10 % by access frequency).
    pub hot_fraction: f64,
    /// Retention window of the inference-log buffer in minutes (paper: 10 minutes).
    pub retention_minutes: f64,
    /// Maximum records retained in the inference-log buffer.
    pub retention_max_records: usize,
    /// P99 latency above which the CCD scheduler gives a CCD back to inference (ms).
    pub p99_high_threshold_ms: f64,
    /// P99 latency below which the CCD scheduler reclaims a CCD for training (ms).
    pub p99_low_threshold_ms: f64,
    /// Minimum number of CCDs that must stay with inference.
    pub min_inference_ccds: usize,
    /// Maximum number of CCDs training may own.
    pub max_training_ccds: usize,
    /// Row storage of the serving model's embedding tables: `F64` (exact), or `F16`/`I8`
    /// quantized with an f64 master overlay for updater-touched rows. The frozen base
    /// model always stays f64.
    pub serving_storage: StorageKind,
    /// Fraction of each table's most-accessed rows held dequantized in the snapshot's
    /// hot-row cache (`0.0` disables the cache). Keyed by the live Zipf access CDF, so
    /// the head of the distribution serves without touching quantized storage.
    pub hot_cache_fraction: f64,
}

impl Default for LiveUpdateConfig {
    fn default() -> Self {
        Self {
            variance_threshold: 0.8,
            initial_rank: 4,
            min_rank: 1,
            max_rank: 64,
            adaptation_interval_steps: 128,
            lora_learning_rate: 0.05,
            pruning_window_steps: 256,
            min_table_fraction: 1.0 / 50.0,
            max_table_fraction: 1.0,
            hot_fraction: 0.1,
            retention_minutes: 10.0,
            retention_max_records: 100_000,
            p99_high_threshold_ms: 10.0,
            p99_low_threshold_ms: 6.0,
            min_inference_ccds: 4,
            max_training_ccds: 4,
            serving_storage: StorageKind::F64,
            hot_cache_fraction: 0.0,
        }
    }
}

impl LiveUpdateConfig {
    /// Validate the configuration; returns the first violated constraint found.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] when any field is out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.variance_threshold > 0.0 && self.variance_threshold <= 1.0) {
            return Err(ConfigError::Constraint {
                field: "liveupdate.variance_threshold",
                requirement: "must be in (0, 1]",
            });
        }
        if self.initial_rank == 0 {
            return Err(ConfigError::NonPositive {
                field: "liveupdate.initial_rank",
            });
        }
        if self.min_rank == 0 {
            return Err(ConfigError::NonPositive {
                field: "liveupdate.min_rank",
            });
        }
        if self.min_rank > self.max_rank {
            return Err(ConfigError::Mismatch {
                left: "liveupdate.min_rank",
                right: "liveupdate.max_rank",
                requirement: "min_rank must not exceed max_rank",
            });
        }
        if self.adaptation_interval_steps == 0 {
            return Err(ConfigError::NonPositive {
                field: "liveupdate.adaptation_interval_steps",
            });
        }
        if self.pruning_window_steps == 0 {
            return Err(ConfigError::NonPositive {
                field: "liveupdate.pruning_window_steps",
            });
        }
        if !(self.lora_learning_rate > 0.0 && self.lora_learning_rate.is_finite()) {
            return Err(ConfigError::Constraint {
                field: "liveupdate.lora_learning_rate",
                requirement: "must be positive and finite",
            });
        }
        if !(self.min_table_fraction > 0.0 && self.min_table_fraction <= 1.0) {
            return Err(ConfigError::Constraint {
                field: "liveupdate.min_table_fraction",
                requirement: "must be in (0, 1]",
            });
        }
        if !(self.max_table_fraction >= self.min_table_fraction && self.max_table_fraction <= 1.0) {
            return Err(ConfigError::Constraint {
                field: "liveupdate.max_table_fraction",
                requirement: "must be in [min_table_fraction, 1]",
            });
        }
        if !(self.hot_fraction > 0.0 && self.hot_fraction <= 1.0) {
            return Err(ConfigError::Constraint {
                field: "liveupdate.hot_fraction",
                requirement: "must be in (0, 1]",
            });
        }
        if self.retention_minutes <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "liveupdate.retention_minutes",
            });
        }
        if self.retention_max_records == 0 {
            return Err(ConfigError::NonPositive {
                field: "liveupdate.retention_max_records",
            });
        }
        if !(0.0..=1.0).contains(&self.hot_cache_fraction) {
            return Err(ConfigError::Constraint {
                field: "liveupdate.hot_cache_fraction",
                requirement: "must be in [0, 1]",
            });
        }
        if self.p99_low_threshold_ms >= self.p99_high_threshold_ms {
            return Err(ConfigError::Mismatch {
                left: "liveupdate.p99_low_threshold_ms",
                right: "liveupdate.p99_high_threshold_ms",
                requirement: "the low watermark must be below the high watermark",
            });
        }
        Ok(())
    }

    /// A configuration with a fixed LoRA rank (no dynamic adaptation), used by the
    /// `LiveUpdate-α` ablation rows of Table III.
    #[must_use]
    pub fn with_fixed_rank(rank: usize) -> Self {
        Self {
            initial_rank: rank.max(1),
            min_rank: rank.max(1),
            max_rank: rank.max(1),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = LiveUpdateConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.variance_threshold, 0.8);
        assert_eq!(c.retention_minutes, 10.0);
        assert_eq!(c.p99_high_threshold_ms, 10.0);
        assert_eq!(c.p99_low_threshold_ms, 6.0);
        assert!((c.min_table_fraction - 0.02).abs() < 1e-12);
        assert_eq!(c.hot_fraction, 0.1);
    }

    #[test]
    fn fixed_rank_config_pins_rank() {
        let c = LiveUpdateConfig::with_fixed_rank(16);
        assert!(c.validate().is_ok());
        assert_eq!(c.min_rank, 16);
        assert_eq!(c.max_rank, 16);
        assert_eq!(c.initial_rank, 16);
        // Rank zero is clamped to 1 rather than producing an invalid config.
        assert_eq!(LiveUpdateConfig::with_fixed_rank(0).initial_rank, 1);
    }

    #[test]
    fn invalid_configurations_rejected() {
        let c = LiveUpdateConfig {
            variance_threshold: 1.5,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            min_rank: 10,
            max_rank: 5,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            lora_learning_rate: 0.0,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            min_table_fraction: 0.0,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            max_table_fraction: 0.001,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            p99_low_threshold_ms: 20.0,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            retention_minutes: 0.0,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            adaptation_interval_steps: 0,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            initial_rank: 0,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            hot_fraction: 0.0,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            retention_max_records: 0,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LiveUpdateConfig {
            hot_cache_fraction: 1.5,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn quantized_serving_config_is_valid() {
        let c = LiveUpdateConfig {
            serving_storage: StorageKind::I8,
            hot_cache_fraction: 0.1,
            ..LiveUpdateConfig::default()
        };
        assert!(c.validate().is_ok());
        assert_eq!(
            LiveUpdateConfig::default().serving_storage,
            StorageKind::F64
        );
        assert_eq!(LiveUpdateConfig::default().hot_cache_fraction, 0.0);
    }
}
