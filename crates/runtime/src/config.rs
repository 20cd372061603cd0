//! Configuration of the multithreaded serving runtime.

use crate::batcher::BatcherConfig;
use liveupdate::error::ConfigError;
use liveupdate_workload::shard::ShardPolicy;
use std::time::Duration;

/// How (and whether) the LoRA updater runs alongside serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// No online training: the updater thread only ingests served traffic into the
    /// retention buffer and never trains or publishes. This is the baseline arm of the
    /// interference measurement.
    Disabled,
    /// The paper's deployment shape: a background updater thread trains on a shadow node
    /// and publishes a fresh snapshot via the epoch swap after every round.
    Background {
        /// Wall-clock pause between update rounds.
        interval: Duration,
        /// `online_update_round` calls per publication.
        rounds_per_update: usize,
        /// Mini-batch size of each round.
        batch_size: usize,
    },
    /// Deterministic single-threaded reference mode: the (single) worker thread itself
    /// ingests and trains inline between batches, publishing after every update. Used by
    /// the determinism-parity tests; requires `num_workers == 1`.
    Synchronous {
        /// Run the update block after every `every_batches` coalesced batches.
        every_batches: usize,
        /// `online_update_round` calls per update block.
        rounds: usize,
        /// Mini-batch size of each round.
        batch_size: usize,
    },
}

/// Parameters of a [`ServingRuntime`](crate::runtime::ServingRuntime).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Number of worker (inference) threads, each with its own request queue.
    pub num_workers: usize,
    /// Capacity of each worker's bounded MPSC request queue; an open-loop load
    /// generator drops (sheds) requests when the queue is full.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one inference batch.
    pub max_batch: usize,
    /// Deadline from a batch's first request until it closes, in microseconds.
    pub batch_deadline_us: u64,
    /// How the runtime's [`Router`](crate::router::Router) assigns requests to worker
    /// queues when callers submit via the routed entry points.
    pub routing: ShardPolicy,
    /// The updater arrangement.
    pub update: UpdateMode,
    /// Whether the runtime creates a [`Telemetry`](crate::telemetry::Telemetry)
    /// registry and instruments its threads with it. On by default; the opt-in
    /// `tests/telemetry_overhead.rs` gate runs both arms to pin the instrumentation
    /// cost on the serve path at near zero. With telemetry off,
    /// [`ServingRuntime::scrape`](crate::runtime::ServingRuntime::scrape) returns no
    /// rows.
    pub telemetry: bool,
    /// Fraction of requests carrying a tracing span (`0.0..=1.0`). The decision is a
    /// deterministic hash of the trace id
    /// ([`TraceSampler`](liveupdate_obs::TraceSampler)), so a driver and its
    /// replicas configured with the same rate agree per-request without
    /// coordination. `0.0` (the default) disables request tracing entirely; requires
    /// `telemetry` to have any effect.
    pub trace_sample_rate: f64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            num_workers: 2,
            queue_capacity: 1024,
            max_batch: 32,
            batch_deadline_us: 1_000,
            routing: ShardPolicy::HashByUser,
            update: UpdateMode::Background {
                interval: Duration::from_millis(250),
                rounds_per_update: 1,
                batch_size: 32,
            },
            telemetry: true,
            trace_sample_rate: 0.0,
        }
    }
}

impl RuntimeConfig {
    /// The per-worker batcher parameters.
    #[must_use]
    pub fn batcher(&self) -> BatcherConfig {
        BatcherConfig {
            max_batch: self.max_batch,
            batch_deadline: Duration::from_micros(self.batch_deadline_us),
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_workers == 0 {
            return Err(ConfigError::NonPositive {
                field: "runtime.num_workers",
            });
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::NonPositive {
                field: "runtime.queue_capacity",
            });
        }
        if self.max_batch == 0 {
            return Err(ConfigError::NonPositive {
                field: "runtime.max_batch",
            });
        }
        if !(0.0..=1.0).contains(&self.trace_sample_rate) {
            return Err(ConfigError::Constraint {
                field: "runtime.trace_sample_rate",
                requirement: "sampling rate must be within 0.0..=1.0",
            });
        }
        match self.update {
            UpdateMode::Disabled => {}
            UpdateMode::Background {
                rounds_per_update,
                batch_size,
                ..
            } => {
                if rounds_per_update == 0 {
                    return Err(ConfigError::NonPositive {
                        field: "runtime.update.rounds_per_update",
                    });
                }
                if batch_size == 0 {
                    return Err(ConfigError::NonPositive {
                        field: "runtime.update.batch_size",
                    });
                }
            }
            UpdateMode::Synchronous {
                every_batches,
                rounds,
                batch_size,
            } => {
                if self.num_workers != 1 {
                    return Err(ConfigError::Constraint {
                        field: "runtime.num_workers",
                        requirement: "synchronous updates require exactly one worker",
                    });
                }
                if every_batches == 0 {
                    return Err(ConfigError::NonPositive {
                        field: "runtime.update.every_batches",
                    });
                }
                if rounds == 0 {
                    return Err(ConfigError::NonPositive {
                        field: "runtime.update.rounds",
                    });
                }
                if batch_size == 0 {
                    return Err(ConfigError::NonPositive {
                        field: "runtime.update.batch_size",
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(RuntimeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = RuntimeConfig {
            num_workers: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = RuntimeConfig {
            queue_capacity: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = RuntimeConfig {
            max_batch: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = RuntimeConfig {
            trace_sample_rate: 1.5,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = RuntimeConfig {
            trace_sample_rate: f64::NAN,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = RuntimeConfig {
            update: UpdateMode::Synchronous {
                every_batches: 1,
                rounds: 1,
                batch_size: 8,
            },
            ..RuntimeConfig::default()
        };
        c.num_workers = 2;
        assert!(
            c.validate().is_err(),
            "synchronous mode is single-worker only"
        );
        c.num_workers = 1;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn batcher_config_mirrors_runtime_config() {
        let c = RuntimeConfig {
            max_batch: 7,
            batch_deadline_us: 123,
            ..RuntimeConfig::default()
        };
        let b = c.batcher();
        assert_eq!(b.max_batch, 7);
        assert_eq!(b.batch_deadline, Duration::from_micros(123));
        assert!(b.is_valid());
    }
}
