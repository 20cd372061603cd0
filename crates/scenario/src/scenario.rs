//! The scenario description: one serializable experiment, many execution engines.
//!
//! A [`Scenario`] captures everything the paper's evaluation varies — workload shape,
//! serving topology, update policy, horizon — in one plain-data struct that loads from a
//! JSON file. New experiments are therefore *data, not code*: drop a file into
//! `scenarios/` and every [`ExecutionBackend`](crate::backend::ExecutionBackend) can run
//! it. The struct maps losslessly onto the config types the engines consume
//! ([`ExperimentConfig`], [`RuntimeConfig`]) via [`Scenario::experiment_config`] /
//! [`Scenario::runtime_config`], which is what keeps the old entry points working as
//! thin shims.

use crate::json::{Json, JsonError};
use liveupdate::config::LiveUpdateConfig;
use liveupdate::error::ConfigError;
use liveupdate::experiment::ExperimentConfig;
use liveupdate::strategy::StrategyKind;
use liveupdate_dlrm::embedding::StorageKind;
use liveupdate_runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_workload::datasets::DatasetPreset;
use liveupdate_workload::drift::DriftConfig;
use liveupdate_workload::shard::ShardPolicy;
use liveupdate_workload::synthetic::WorkloadConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use std::time::Duration;

/// Anything that can go wrong loading or validating a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The JSON document is malformed or missing fields.
    Parse(JsonError),
    /// The scenario parsed but describes an invalid configuration.
    Config(ConfigError),
    /// The scenario file could not be read or written.
    Io(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "scenario parse error: {e}"),
            ScenarioError::Config(e) => write!(f, "scenario configuration error: {e}"),
            ScenarioError::Io(e) => write!(f, "scenario I/O error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Parse(e)
    }
}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}

/// Workload description: dataset preset or custom geometry, skew, and drift schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// When set, the Table-II preset supplies the workload *and* model shape, and the
    /// geometry fields below are ignored.
    pub preset: Option<DatasetPreset>,
    /// Number of embedding tables (sparse feature fields).
    pub num_tables: usize,
    /// Rows per embedding table.
    pub table_size: usize,
    /// Embedding dimension of the DLRM.
    pub embedding_dim: usize,
    /// Zipf exponent of the ID popularity distribution.
    pub zipf_exponent: f64,
    /// Maximum multi-hot width per table.
    pub max_multi_hot: usize,
    /// Period of the ground-truth affinity rotation, in minutes (concept drift speed).
    pub drift_rotation_minutes: f64,
    /// Row storage of the serving model's embedding tables (`"f64"`, `"f16"`, `"i8"`).
    /// Production-geometry tables don't fit in cache — or sometimes in memory — at f64;
    /// this knob turns on the quantized serving path on every backend.
    pub row_storage: StorageKind,
    /// Fraction of each table's hottest rows held dequantized in the serving snapshot's
    /// hot-row cache (`0.0` disables it).
    pub hot_cache_fraction: f64,
}

/// Serving topology: replica/worker counts, queue depths, batching, routing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Serving replicas: TCP replica servers on the distributed backend. The analytic
    /// backend runs one node.
    pub replicas: usize,
    /// Worker (inference) threads per replica of the distributed backend.
    pub workers: usize,
    /// Bounded request-queue capacity per worker.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one inference batch.
    pub max_batch: usize,
    /// Deadline batching window in microseconds.
    pub batch_deadline_us: u64,
    /// How requests are routed to replicas / worker queues.
    pub routing: ShardPolicy,
}

/// Update policy: the paper's strategy taxonomy plus its cadences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    /// Which update strategy runs.
    pub strategy: StrategyKind,
    /// DeltaUpdate / QuickUpdate transfer cadence, minutes.
    pub update_interval_minutes: f64,
    /// Interval of the full-parameter synchronisation (QuickUpdate and LiveUpdate).
    pub full_sync_interval_minutes: f64,
    /// Online LoRA update rounds per serving window (analytic backend).
    pub online_rounds_per_window: usize,
    /// Mini-batch size of each online round.
    pub online_batch_size: usize,
}

/// Horizon and evaluation protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HorizonSpec {
    /// Length of the evaluated serving period in minutes (after warm-up).
    pub duration_minutes: f64,
    /// Serving/evaluation window granularity in minutes.
    pub window_minutes: f64,
    /// Requests generated (and evaluated) per window.
    pub requests_per_window: usize,
    /// Warm-up length in minutes used to pretrain the Day-1 checkpoint.
    pub warmup_minutes: f64,
    /// Passes over the warm-up data.
    pub warmup_epochs: usize,
    /// Mini-batch size of the training cluster (and warm-up).
    pub training_batch_size: usize,
}

/// Knobs that only matter when the scenario runs on real threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealtimeSpec {
    /// Mean wall-clock request rate, requests/second, when the diurnal arrival model
    /// sits at its base rate. The offered load follows the model's rate at the
    /// simulated time, so a run starting at warm-up minute 20 offers about 1.19× this.
    pub target_qps: f64,
    /// Wall-clock length of the measured run, seconds.
    pub wall_seconds: f64,
    /// Wall-clock pause between updater cadence ticks, milliseconds.
    pub update_interval_ms: u64,
    /// Update rounds per cadence tick (LiveUpdate policy).
    pub rounds_per_update: usize,
    /// Request-trace sampling rate in `0.0..=1.0` (deterministic hash sampler; feeds
    /// the `stage_*_us` latency-breakdown histograms on the distributed backend). The default traces 1 in 100 requests, production style.
    pub trace_sample_rate: f64,
}

impl Default for RealtimeSpec {
    fn default() -> Self {
        Self {
            target_qps: 800.0,
            wall_seconds: 2.0,
            update_interval_ms: 100,
            rounds_per_update: 1,
            trace_sample_rate: 0.01,
        }
    }
}

/// One complete experiment description, runnable on every execution backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in reports and artifact file names).
    pub name: String,
    /// Seed controlling the stream and model initialisation.
    pub seed: u64,
    /// Workload description.
    pub workload: WorkloadSpec,
    /// Serving topology.
    pub topology: TopologySpec,
    /// Update policy.
    pub policy: PolicySpec,
    /// Horizon and evaluation protocol.
    pub horizon: HorizonSpec,
    /// Wall-clock knobs of the distributed backend.
    pub realtime: RealtimeSpec,
}

impl Scenario {
    /// A small scenario that runs in well under a second per backend — the unit-test and
    /// CI workhorse (mirrors [`ExperimentConfig::small`]).
    #[must_use]
    pub fn small(name: &str) -> Self {
        Self {
            name: name.to_string(),
            seed: 7,
            workload: WorkloadSpec {
                preset: None,
                num_tables: 2,
                table_size: 300,
                embedding_dim: 8,
                zipf_exponent: 1.05,
                max_multi_hot: 2,
                drift_rotation_minutes: 120.0,
                row_storage: StorageKind::F64,
                hot_cache_fraction: 0.0,
            },
            topology: TopologySpec {
                replicas: 2,
                workers: 2,
                queue_capacity: 2048,
                max_batch: 32,
                batch_deadline_us: 1_000,
                routing: ShardPolicy::HashByUser,
            },
            policy: PolicySpec {
                strategy: StrategyKind::LiveUpdate,
                update_interval_minutes: 10.0,
                full_sync_interval_minutes: 60.0,
                online_rounds_per_window: 6,
                online_batch_size: 64,
            },
            horizon: HorizonSpec {
                duration_minutes: 30.0,
                window_minutes: 10.0,
                requests_per_window: 128,
                warmup_minutes: 20.0,
                warmup_epochs: 2,
                training_batch_size: 64,
            },
            realtime: RealtimeSpec::default(),
        }
    }

    /// The same scenario with a different update strategy — backends compare strategies
    /// by running N variants of one description.
    #[must_use]
    pub fn with_strategy(&self, strategy: StrategyKind) -> Self {
        let mut s = self.clone();
        s.policy.strategy = strategy;
        s
    }

    /// Validate the scenario end to end: the derived experiment and runtime
    /// configurations must both be valid, plus scenario-level constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.name.is_empty() {
            return Err(ConfigError::Constraint {
                field: "scenario.name",
                requirement: "must not be empty",
            });
        }
        if let StrategyKind::QuickUpdate { fraction } = self.policy.strategy {
            if !(fraction > 0.0 && fraction <= 1.0) {
                return Err(ConfigError::Constraint {
                    field: "scenario.policy.strategy.fraction",
                    requirement: "QuickUpdate fraction must be in (0, 1]",
                });
            }
        }
        if self.policy.update_interval_minutes <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "scenario.policy.update_interval_minutes",
            });
        }
        if self.policy.full_sync_interval_minutes <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "scenario.policy.full_sync_interval_minutes",
            });
        }
        if self.realtime.target_qps <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "scenario.realtime.target_qps",
            });
        }
        if self.realtime.wall_seconds <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "scenario.realtime.wall_seconds",
            });
        }
        if self.realtime.update_interval_ms == 0 {
            return Err(ConfigError::NonPositive {
                field: "scenario.realtime.update_interval_ms",
            });
        }
        if self.realtime.rounds_per_update == 0 {
            return Err(ConfigError::NonPositive {
                field: "scenario.realtime.rounds_per_update",
            });
        }
        if self.policy.online_rounds_per_window == 0 {
            return Err(ConfigError::NonPositive {
                field: "scenario.policy.online_rounds_per_window",
            });
        }
        if self.policy.online_batch_size == 0 {
            return Err(ConfigError::NonPositive {
                field: "scenario.policy.online_batch_size",
            });
        }
        if self.topology.replicas == 0 {
            return Err(ConfigError::NonPositive {
                field: "scenario.topology.replicas",
            });
        }
        // The derived configurations re-check everything they consume.
        self.experiment_config().validate()?;
        self.runtime_config().validate()
    }

    /// The dataset spec backing the analytic cost models: the configured preset, or
    /// Avazu as the logical-scale reference for custom workloads.
    #[must_use]
    pub fn dataset_preset(&self) -> DatasetPreset {
        self.workload.preset.unwrap_or(DatasetPreset::Avazu)
    }

    /// The LiveUpdate node configuration implied by the strategy (fixed-rank ablations
    /// pin the rank; everything else uses the paper defaults), with the scenario's
    /// serving-storage and hot-row-cache knobs applied — this is the single funnel
    /// through which every backend builds its serving nodes, so quantized serving works
    /// identically on the analytic and distributed engines.
    #[must_use]
    pub fn liveupdate_config(&self) -> LiveUpdateConfig {
        let mut cfg = match self.policy.strategy {
            StrategyKind::LiveUpdateFixedRank { rank } => LiveUpdateConfig::with_fixed_rank(rank),
            _ => LiveUpdateConfig::default(),
        };
        cfg.serving_storage = self.workload.row_storage;
        cfg.hot_cache_fraction = self.workload.hot_cache_fraction;
        cfg
    }

    /// Project the scenario onto the analytic driver's [`ExperimentConfig`].
    #[must_use]
    pub fn experiment_config(&self) -> ExperimentConfig {
        let (workload, dlrm) = match self.workload.preset {
            Some(preset) => {
                let spec = preset.spec();
                (spec.workload_config(self.seed), spec.dlrm_config())
            }
            None => {
                let workload = WorkloadConfig {
                    num_tables: self.workload.num_tables,
                    table_size: self.workload.table_size,
                    zipf_exponent: self.workload.zipf_exponent,
                    max_multi_hot: self.workload.max_multi_hot,
                    drift: DriftConfig {
                        rotation_period_minutes: self.workload.drift_rotation_minutes,
                        ..DriftConfig::default()
                    },
                    seed: self.seed,
                    ..WorkloadConfig::default()
                };
                let dlrm = liveupdate_dlrm::model::DlrmConfig::tiny(
                    self.workload.num_tables,
                    self.workload.table_size,
                    self.workload.embedding_dim,
                );
                (workload, dlrm)
            }
        };
        ExperimentConfig {
            workload,
            dlrm,
            duration_minutes: self.horizon.duration_minutes,
            window_minutes: self.horizon.window_minutes,
            update_interval_minutes: self.policy.update_interval_minutes,
            full_sync_interval_minutes: self.policy.full_sync_interval_minutes,
            requests_per_window: self.horizon.requests_per_window,
            online_rounds_per_window: self.policy.online_rounds_per_window,
            online_batch_size: self.policy.online_batch_size,
            warmup_minutes: self.horizon.warmup_minutes,
            warmup_epochs: self.horizon.warmup_epochs,
            training_batch_size: self.horizon.training_batch_size,
            liveupdate: self.liveupdate_config(),
            seed: self.seed,
        }
    }

    /// Project the scenario onto each distributed replica's [`RuntimeConfig`].
    #[must_use]
    pub fn runtime_config(&self) -> RuntimeConfig {
        let update = match self.policy.strategy {
            StrategyKind::NoUpdate => UpdateMode::Disabled,
            _ => UpdateMode::Background {
                interval: Duration::from_millis(self.realtime.update_interval_ms),
                rounds_per_update: self.realtime.rounds_per_update,
                batch_size: self.policy.online_batch_size,
            },
        };
        RuntimeConfig {
            num_workers: self.topology.workers,
            queue_capacity: self.topology.queue_capacity,
            max_batch: self.topology.max_batch,
            batch_deadline_us: self.topology.batch_deadline_us,
            routing: self.topology.routing,
            update,
            telemetry: true,
            trace_sample_rate: self.realtime.trace_sample_rate,
        }
    }

    /// How many driver sync ticks separate two full syncs on the distributed backend
    /// (QuickUpdate's hourly full update, expressed in ticks).
    #[must_use]
    pub fn full_sync_every_ticks(&self) -> usize {
        let ratio = self.policy.full_sync_interval_minutes / self.policy.update_interval_minutes;
        (ratio.round() as usize).max(1)
    }

    // ------------------------------------------------------------------
    // JSON codec
    // ------------------------------------------------------------------

    /// Serialize the scenario as a pretty-printed JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// Parse a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the document is malformed or fields are missing.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Load a scenario from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the file is unreadable or the document invalid.
    pub fn from_file<P: AsRef<Path>>(path: P) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::from_json(&text)
    }

    /// Write the scenario to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the file cannot be written.
    pub fn to_file<P: AsRef<Path>>(&self, path: P) -> Result<(), ScenarioError> {
        std::fs::write(path.as_ref(), self.to_json())
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.as_ref().display())))
    }

    fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("seed".into(), u64_to_json(self.seed)),
            (
                "workload".into(),
                Json::Obj(vec![
                    (
                        "preset".into(),
                        self.workload
                            .preset
                            .map_or(Json::Null, |p| Json::Str(p.name().to_string())),
                    ),
                    (
                        "num_tables".into(),
                        Json::Num(self.workload.num_tables as f64),
                    ),
                    (
                        "table_size".into(),
                        Json::Num(self.workload.table_size as f64),
                    ),
                    (
                        "embedding_dim".into(),
                        Json::Num(self.workload.embedding_dim as f64),
                    ),
                    (
                        "zipf_exponent".into(),
                        Json::Num(self.workload.zipf_exponent),
                    ),
                    (
                        "max_multi_hot".into(),
                        Json::Num(self.workload.max_multi_hot as f64),
                    ),
                    (
                        "drift_rotation_minutes".into(),
                        Json::Num(self.workload.drift_rotation_minutes),
                    ),
                    (
                        "row_storage".into(),
                        Json::Str(self.workload.row_storage.name().to_string()),
                    ),
                    (
                        "hot_cache_fraction".into(),
                        Json::Num(self.workload.hot_cache_fraction),
                    ),
                ]),
            ),
            (
                "topology".into(),
                Json::Obj(vec![
                    ("replicas".into(), Json::Num(self.topology.replicas as f64)),
                    ("workers".into(), Json::Num(self.topology.workers as f64)),
                    (
                        "queue_capacity".into(),
                        Json::Num(self.topology.queue_capacity as f64),
                    ),
                    (
                        "max_batch".into(),
                        Json::Num(self.topology.max_batch as f64),
                    ),
                    (
                        "batch_deadline_us".into(),
                        Json::Num(self.topology.batch_deadline_us as f64),
                    ),
                    (
                        "routing".into(),
                        Json::Str(routing_name(self.topology.routing).into()),
                    ),
                ]),
            ),
            (
                "policy".into(),
                Json::Obj(vec![
                    ("strategy".into(), strategy_to_json(self.policy.strategy)),
                    (
                        "update_interval_minutes".into(),
                        Json::Num(self.policy.update_interval_minutes),
                    ),
                    (
                        "full_sync_interval_minutes".into(),
                        Json::Num(self.policy.full_sync_interval_minutes),
                    ),
                    (
                        "online_rounds_per_window".into(),
                        Json::Num(self.policy.online_rounds_per_window as f64),
                    ),
                    (
                        "online_batch_size".into(),
                        Json::Num(self.policy.online_batch_size as f64),
                    ),
                ]),
            ),
            (
                "horizon".into(),
                Json::Obj(vec![
                    (
                        "duration_minutes".into(),
                        Json::Num(self.horizon.duration_minutes),
                    ),
                    (
                        "window_minutes".into(),
                        Json::Num(self.horizon.window_minutes),
                    ),
                    (
                        "requests_per_window".into(),
                        Json::Num(self.horizon.requests_per_window as f64),
                    ),
                    (
                        "warmup_minutes".into(),
                        Json::Num(self.horizon.warmup_minutes),
                    ),
                    (
                        "warmup_epochs".into(),
                        Json::Num(self.horizon.warmup_epochs as f64),
                    ),
                    (
                        "training_batch_size".into(),
                        Json::Num(self.horizon.training_batch_size as f64),
                    ),
                ]),
            ),
            (
                "realtime".into(),
                Json::Obj(vec![
                    ("target_qps".into(), Json::Num(self.realtime.target_qps)),
                    ("wall_seconds".into(), Json::Num(self.realtime.wall_seconds)),
                    (
                        "update_interval_ms".into(),
                        Json::Num(self.realtime.update_interval_ms as f64),
                    ),
                    (
                        "rounds_per_update".into(),
                        Json::Num(self.realtime.rounds_per_update as f64),
                    ),
                    (
                        "trace_sample_rate".into(),
                        Json::Num(self.realtime.trace_sample_rate),
                    ),
                ]),
            ),
        ])
    }

    fn from_json_value(doc: &Json) -> Result<Self, ScenarioError> {
        let workload = doc.field("workload")?;
        let topology = doc.field("topology")?;
        let policy = doc.field("policy")?;
        let horizon = doc.field("horizon")?;
        // The realtime section is optional: analytic-only scenarios may omit it.
        let realtime = match doc.get("realtime") {
            Some(r) => RealtimeSpec {
                target_qps: r.field("target_qps")?.as_f64()?,
                wall_seconds: r.field("wall_seconds")?.as_f64()?,
                update_interval_ms: r.field("update_interval_ms")?.as_u64()?,
                rounds_per_update: r.field("rounds_per_update")?.as_usize()?,
                // Optional so scenario documents written before tracing still parse.
                trace_sample_rate: match r.get("trace_sample_rate") {
                    Some(v) => v.as_f64()?,
                    None => RealtimeSpec::default().trace_sample_rate,
                },
            },
            None => RealtimeSpec::default(),
        };
        Ok(Self {
            name: doc.field("name")?.as_str()?.to_string(),
            seed: json_to_u64(doc.field("seed")?)?,
            workload: WorkloadSpec {
                preset: match workload.get("preset") {
                    None | Some(Json::Null) => None,
                    Some(p) => Some(preset_from_name(p.as_str()?)?),
                },
                num_tables: workload.field("num_tables")?.as_usize()?,
                table_size: workload.field("table_size")?.as_usize()?,
                embedding_dim: workload.field("embedding_dim")?.as_usize()?,
                zipf_exponent: workload.field("zipf_exponent")?.as_f64()?,
                max_multi_hot: workload.field("max_multi_hot")?.as_usize()?,
                drift_rotation_minutes: workload.field("drift_rotation_minutes")?.as_f64()?,
                // Both storage knobs are optional so pre-existing scenario files keep
                // parsing (they default to the exact f64 path).
                row_storage: match workload.get("row_storage") {
                    None | Some(Json::Null) => StorageKind::F64,
                    Some(s) => storage_from_name(s.as_str()?)?,
                },
                hot_cache_fraction: match workload.get("hot_cache_fraction") {
                    None | Some(Json::Null) => 0.0,
                    Some(f) => f.as_f64()?,
                },
            },
            topology: TopologySpec {
                replicas: topology.field("replicas")?.as_usize()?,
                workers: topology.field("workers")?.as_usize()?,
                queue_capacity: topology.field("queue_capacity")?.as_usize()?,
                max_batch: topology.field("max_batch")?.as_usize()?,
                batch_deadline_us: topology.field("batch_deadline_us")?.as_u64()?,
                routing: routing_from_name(topology.field("routing")?.as_str()?)?,
            },
            policy: PolicySpec {
                strategy: strategy_from_json(policy.field("strategy")?)?,
                update_interval_minutes: policy.field("update_interval_minutes")?.as_f64()?,
                full_sync_interval_minutes: policy.field("full_sync_interval_minutes")?.as_f64()?,
                online_rounds_per_window: policy.field("online_rounds_per_window")?.as_usize()?,
                online_batch_size: policy.field("online_batch_size")?.as_usize()?,
            },
            horizon: HorizonSpec {
                duration_minutes: horizon.field("duration_minutes")?.as_f64()?,
                window_minutes: horizon.field("window_minutes")?.as_f64()?,
                requests_per_window: horizon.field("requests_per_window")?.as_usize()?,
                warmup_minutes: horizon.field("warmup_minutes")?.as_f64()?,
                warmup_epochs: horizon.field("warmup_epochs")?.as_usize()?,
                training_batch_size: horizon.field("training_batch_size")?.as_usize()?,
            },
            realtime,
        })
    }
}

/// Seeds are full-range `u64`s; JSON numbers are `f64` and lose integers above 2^53, so
/// large seeds serialize as decimal strings instead of silently rounding.
fn u64_to_json(v: u64) -> Json {
    if v <= (1u64 << 53) {
        Json::Num(v as f64)
    } else {
        Json::Str(v.to_string())
    }
}

/// Accepts both encodings of [`u64_to_json`].
fn json_to_u64(value: &Json) -> Result<u64, ScenarioError> {
    match value {
        Json::Str(s) => s
            .parse::<u64>()
            .map_err(|_| JsonError(format!("expected u64, found \"{s}\"")).into()),
        other => Ok(other.as_u64()?),
    }
}

fn routing_name(policy: ShardPolicy) -> &'static str {
    match policy {
        ShardPolicy::HashByUser => "hash_by_user",
        ShardPolicy::RoundRobin => "round_robin",
    }
}

fn routing_from_name(name: &str) -> Result<ShardPolicy, ScenarioError> {
    match name {
        "hash_by_user" => Ok(ShardPolicy::HashByUser),
        "round_robin" => Ok(ShardPolicy::RoundRobin),
        other => Err(JsonError(format!("unknown routing policy \"{other}\"")).into()),
    }
}

fn storage_from_name(name: &str) -> Result<StorageKind, ScenarioError> {
    StorageKind::from_name(name)
        .ok_or_else(|| JsonError(format!("unknown row storage \"{name}\"")).into())
}

fn preset_from_name(name: &str) -> Result<DatasetPreset, ScenarioError> {
    DatasetPreset::all()
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| JsonError(format!("unknown dataset preset \"{name}\"")).into())
}

/// Unit strategies encode as a bare string; payload strategies as
/// `{"kind": ..., <payload>}`.
fn strategy_to_json(strategy: StrategyKind) -> Json {
    match strategy {
        StrategyKind::NoUpdate => Json::Str("NoUpdate".into()),
        StrategyKind::DeltaUpdate => Json::Str("DeltaUpdate".into()),
        StrategyKind::LiveUpdate => Json::Str("LiveUpdate".into()),
        StrategyKind::QuickUpdate { fraction } => Json::Obj(vec![
            ("kind".into(), Json::Str("QuickUpdate".into())),
            ("fraction".into(), Json::Num(fraction)),
        ]),
        StrategyKind::LiveUpdateFixedRank { rank } => Json::Obj(vec![
            ("kind".into(), Json::Str("LiveUpdateFixedRank".into())),
            ("rank".into(), Json::Num(rank as f64)),
        ]),
    }
}

fn strategy_from_json(value: &Json) -> Result<StrategyKind, ScenarioError> {
    let kind = match value {
        Json::Str(s) => s.as_str(),
        Json::Obj(_) => value.field("kind")?.as_str()?,
        other => {
            return Err(JsonError(format!(
                "strategy must be a string or object, found {}",
                other.kind()
            ))
            .into())
        }
    };
    match kind {
        "NoUpdate" => Ok(StrategyKind::NoUpdate),
        "DeltaUpdate" => Ok(StrategyKind::DeltaUpdate),
        "LiveUpdate" => Ok(StrategyKind::LiveUpdate),
        "QuickUpdate" => Ok(StrategyKind::QuickUpdate {
            fraction: value.field("fraction")?.as_f64()?,
        }),
        "LiveUpdateFixedRank" => Ok(StrategyKind::LiveUpdateFixedRank {
            rank: value.field("rank")?.as_usize()?,
        }),
        other => Err(JsonError(format!("unknown strategy \"{other}\"")).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_is_valid_on_every_projection() {
        let s = Scenario::small("unit");
        assert_eq!(s.validate(), Ok(()));
        assert!(s.experiment_config().is_valid());
        assert_eq!(s.runtime_config().validate(), Ok(()));
    }

    #[test]
    fn json_round_trip_is_identity() {
        for strategy in [
            StrategyKind::NoUpdate,
            StrategyKind::DeltaUpdate,
            StrategyKind::QuickUpdate { fraction: 0.05 },
            StrategyKind::LiveUpdate,
            StrategyKind::LiveUpdateFixedRank { rank: 8 },
        ] {
            let s = Scenario::small("round_trip").with_strategy(strategy);
            let parsed = Scenario::from_json(&s.to_json()).unwrap();
            assert_eq!(s, parsed);
        }
    }

    #[test]
    fn full_range_seeds_round_trip_losslessly() {
        // Seeds above 2^53 are not representable as f64 integers; they must survive the
        // JSON round-trip exactly (they encode as strings).
        for seed in [0u64, (1 << 53) - 1, (1 << 53) + 1, u64::MAX] {
            let mut s = Scenario::small("seed");
            s.seed = seed;
            let parsed = Scenario::from_json(&s.to_json()).unwrap();
            assert_eq!(parsed.seed, seed);
        }
    }

    #[test]
    fn storage_knobs_round_trip_and_reach_the_node_config() {
        for (kind, fraction) in [
            (StorageKind::F64, 0.0),
            (StorageKind::F16, 0.1),
            (StorageKind::I8, 0.25),
        ] {
            let mut s = Scenario::small("storage");
            s.workload.row_storage = kind;
            s.workload.hot_cache_fraction = fraction;
            assert_eq!(s.validate(), Ok(()));
            let parsed = Scenario::from_json(&s.to_json()).unwrap();
            assert_eq!(s, parsed);
            // The knobs funnel into the LiveUpdate node config on every backend.
            let cfg = s.liveupdate_config();
            assert_eq!(cfg.serving_storage, kind);
            assert_eq!(cfg.hot_cache_fraction, fraction);
            assert_eq!(s.experiment_config().liveupdate.serving_storage, kind);
        }
        // Older scenario files without the knobs parse to the exact f64 path.
        let mut text = Scenario::small("legacy").to_json();
        text = text.replace("    \"row_storage\": \"f64\",\n", "");
        text = text.replace(",\n    \"hot_cache_fraction\": 0\n", "\n");
        assert!(!text.contains("row_storage"));
        let parsed = Scenario::from_json(&text).unwrap();
        assert_eq!(parsed.workload.row_storage, StorageKind::F64);
        assert_eq!(parsed.workload.hot_cache_fraction, 0.0);
        // Unknown storage names are parse errors, not panics.
        let bad = Scenario::small("bad")
            .to_json()
            .replace("\"f64\"", "\"f8\"");
        assert!(matches!(
            Scenario::from_json(&bad),
            Err(ScenarioError::Parse(_))
        ));
        // An out-of-range cache fraction is a typed config error.
        let mut s = Scenario::small("bad");
        s.workload.hot_cache_fraction = 1.5;
        assert!(matches!(s.validate(), Err(ConfigError::Constraint { .. })));
    }

    #[test]
    fn preset_scenarios_round_trip_and_project() {
        let mut s = Scenario::small("preset");
        s.workload.preset = Some(DatasetPreset::Criteo);
        let parsed = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, parsed);
        let exp = s.experiment_config();
        assert!(exp.is_valid());
        // Preset overrides the custom geometry.
        assert_eq!(
            exp.workload.num_tables,
            DatasetPreset::Criteo.spec().workload_config(7).num_tables
        );
    }

    #[test]
    fn realtime_section_is_optional() {
        let s = Scenario::small("opt");
        let mut text = s.to_json();
        let start = text.find("  \"realtime\"").unwrap();
        // Drop the whole realtime object (it is the last section).
        text.truncate(start);
        text.truncate(text.rfind(',').unwrap());
        text.push_str("\n}\n");
        let parsed = Scenario::from_json(&text).unwrap();
        assert_eq!(parsed.realtime, RealtimeSpec::default());
    }

    #[test]
    fn invalid_scenarios_surface_typed_errors() {
        let mut s = Scenario::small("bad");
        s.name.clear();
        assert!(matches!(
            s.validate(),
            Err(ConfigError::Constraint {
                field: "scenario.name",
                ..
            })
        ));

        let mut s = Scenario::small("bad");
        s.policy.strategy = StrategyKind::QuickUpdate { fraction: 1.5 };
        assert!(s.validate().is_err());

        let mut s = Scenario::small("bad");
        s.horizon.duration_minutes = 0.0;
        assert!(matches!(
            s.validate(),
            Err(ConfigError::NonPositive {
                field: "experiment.duration_minutes"
            })
        ));

        let mut s = Scenario::small("bad");
        s.topology.workers = 0;
        assert!(s.validate().is_err());

        let mut s = Scenario::small("bad");
        s.topology.replicas = 0;
        assert_eq!(
            s.validate(),
            Err(ConfigError::NonPositive {
                field: "scenario.topology.replicas"
            })
        );
    }

    #[test]
    fn unknown_names_are_parse_errors() {
        let mut text = Scenario::small("x").to_json();
        text = text.replace("\"hash_by_user\"", "\"teleport\"");
        assert!(matches!(
            Scenario::from_json(&text),
            Err(ScenarioError::Parse(_))
        ));

        let mut text = Scenario::small("x").to_json();
        text = text.replace("\"LiveUpdate\"", "\"MegaUpdate\"");
        assert!(matches!(
            Scenario::from_json(&text),
            Err(ScenarioError::Parse(_))
        ));
    }

    #[test]
    fn full_sync_tick_ratio_rounds() {
        let mut s = Scenario::small("ticks");
        s.policy.update_interval_minutes = 10.0;
        s.policy.full_sync_interval_minutes = 60.0;
        assert_eq!(s.full_sync_every_ticks(), 6);
        s.policy.full_sync_interval_minutes = 5.0;
        assert_eq!(s.full_sync_every_ticks(), 1);
    }
}
