//! The three workloads and their inputs: the fixed Day-1 model and serving node of
//! each workload, and the traffic a run's seed draws — arrival schedule and samples.

use liveupdate::config::LiveUpdateConfig;
use liveupdate::engine::ServingNode;
use liveupdate_dlrm::embedding::StorageKind;
use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_dlrm::sample::{MiniBatch, Sample};
use liveupdate_runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_runtime::policy::{LiveUpdatePolicy, UpdatePolicy};
use liveupdate_workload::datasets::DatasetPreset;
use liveupdate_workload::shard::ShardPolicy;
use liveupdate_workload::synthetic::{SyntheticWorkload, WorkloadConfig};
use liveupdate_workload::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Simulated stream minutes that pass per wall-clock second, so concept drift moves
/// while the benchmark serves.
pub const SIM_MINUTES_PER_SECOND: f64 = 1.0;

/// Requests expected in one measurement window, so each window's p99 has 20
/// requests beyond it.
const REQUESTS_PER_WINDOW: f64 = 2000.0;

/// Wall-clock length of the warm-up serving pass inside set-up.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Geometry of the toy model of `small_live`.
const TOY_TABLES: usize = 2;
const TOY_ROWS: usize = 500;
const TOY_DIM: usize = 8;

/// One workload: model geometry, offered load and updater arrangement.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// The one-line reason the workload exists.
    pub why: &'static str,
    /// The production-geometry preset, or `None` for the toy model (`TOY_TABLES` ×
    /// `TOY_ROWS` rows, d = `TOY_DIM`).
    pub preset: Option<DatasetPreset>,
    /// Storage of the serving rows.
    pub storage: StorageKind,
    pub hot_cache_fraction: f64,
    /// Mean offered load of the open-loop Poisson generator, requests per second.
    pub rate: f64,
    /// `true`: the LiveUpdate policy runs on the updater; `false`: ingest-only.
    pub live: bool,
    /// Simulated minutes of Day-1 warm-up before serving starts.
    pub warmup_minutes: f64,
    pub warmup_samples: usize,
    pub warmup_epochs: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "small_live",
        why: "cache-resident toy model at 20k req/s with LiveUpdate every 100 ms: the wire, \
              event loop and batcher do most of the work",
        preset: None,
        storage: StorageKind::F64,
        hot_cache_fraction: 0.0,
        rate: 20_000.0,
        live: true,
        warmup_minutes: 20.0,
        warmup_samples: 2048,
        warmup_epochs: 3,
    },
    Spec {
        name: "prod_live",
        why: "Prod-1M int8 model at 10k req/s with LiveUpdate every 100 ms: the O(model) \
              publish path sets freshness, updater CPU and the serving tail",
        preset: Some(DatasetPreset::Prod1M),
        storage: StorageKind::I8,
        hot_cache_fraction: 0.001,
        rate: 10_000.0,
        live: true,
        warmup_minutes: 10.0,
        warmup_samples: 256,
        warmup_epochs: 1,
    },
    Spec {
        name: "prod_static",
        why: "prod_live with an ingest-only updater: the reads-only control for the P99 \
              impact of updates and for gather slowdowns",
        preset: Some(DatasetPreset::Prod1M),
        storage: StorageKind::I8,
        hot_cache_fraction: 0.001,
        rate: 10_000.0,
        live: false,
        warmup_minutes: 10.0,
        warmup_samples: 256,
        warmup_epochs: 1,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    fn workload_config(&self, seed: u64) -> WorkloadConfig {
        match self.preset {
            Some(preset) => preset.spec().workload_config(seed),
            None => WorkloadConfig {
                num_tables: TOY_TABLES,
                table_size: TOY_ROWS,
                seed,
                ..WorkloadConfig::default()
            },
        }
    }

    /// The model geometry.
    pub fn dlrm_config(&self) -> DlrmConfig {
        match self.preset {
            Some(preset) => preset.spec().dlrm_config(),
            None => DlrmConfig::tiny(TOY_TABLES, TOY_ROWS, TOY_DIM),
        }
    }

    /// The replica's runtime: one worker plus the updater thread.
    pub fn runtime_config(&self, trace_sample_rate: f64) -> RuntimeConfig {
        RuntimeConfig {
            num_workers: 1,
            queue_capacity: 2048,
            max_batch: 32,
            batch_deadline_us: 1_000,
            routing: ShardPolicy::HashByUser,
            update: if self.live {
                UpdateMode::Background {
                    interval: self.update_interval(),
                    rounds_per_update: 1,
                    batch_size: 64,
                }
            } else {
                UpdateMode::Disabled
            },
            telemetry: true,
            trace_sample_rate,
        }
    }

    /// Length of the measurement windows: 100 ms at 20k req/s, 200 ms at 10k req/s.
    pub fn window_ns(&self) -> u64 {
        (REQUESTS_PER_WINDOW / self.rate * 1e9) as u64
    }

    pub fn update_interval(&self) -> Duration {
        Duration::from_millis(100)
    }

    /// The updater policy: one LoRA round of 64 per 100 ms tick, or none.
    pub fn policy(&self) -> Option<Box<dyn UpdatePolicy>> {
        self.live.then(|| {
            Box::new(LiveUpdatePolicy {
                rounds_per_update: 1,
                batch_size: 64,
            }) as Box<dyn UpdatePolicy>
        })
    }

    /// Embedding bytes one request gathers, computed from the geometry and storage
    /// kind: `lookups × (dim × bytes per value + per-row scale)`.
    pub fn gather_bytes(&self, lookups_per_request: f64) -> f64 {
        let dim = self.dlrm_config().embedding_dim;
        let row_bytes = match self.storage {
            StorageKind::F64 => dim * 8,
            StorageKind::F16 => dim * 2,
            StorageKind::I8 => dim + 8,
        };
        lookups_per_request * row_bytes as f64
    }
}

/// An open-loop request stream: Poisson send instants plus one sample per request.
#[derive(Debug)]
pub struct Stream {
    /// Scheduled send instant of request `i`, nanoseconds after the stream starts.
    pub due_ns: Vec<u64>,
    /// Simulated stream time carried by request `i`.
    pub sim_minutes: Vec<f64>,
    pub samples: Vec<Sample>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.due_ns.len()
    }

    /// Labels of the samples, in request order.
    pub fn labels(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.label).collect()
    }

    /// Cut the stream into `parts` consecutive streams of about equal length, each
    /// re-timed to start at its first request.
    pub fn split(&self, parts: usize) -> Vec<Stream> {
        let len = self.len().div_ceil(parts.max(1)).max(1);
        (0..self.len())
            .step_by(len)
            .map(|start| {
                let end = (start + len).min(self.len());
                let zero = self.due_ns[start];
                Stream {
                    due_ns: self.due_ns[start..end].iter().map(|d| d - zero).collect(),
                    sim_minutes: self.sim_minutes[start..end].to_vec(),
                    samples: self.samples[start..end].to_vec(),
                }
            })
            .collect()
    }
}

/// Everything generated from one seed.
pub struct Inputs {
    pub node: ServingNode,
    /// The warm-up stream served during set-up.
    pub warmup: Stream,
    /// The measured stream.
    pub measured: Stream,
    /// Fixed labelled batch for the correctness probe and the per-layer timings.
    pub probe: MiniBatch,
    /// The run's traffic source, positioned after the measured stream, and the
    /// simulated minute that stream ends at: a repeated pass draws from here.
    pub traffic: Traffic,
    pub next_minutes: f64,
}

/// Seed of the synthetic world (the ground-truth click model, like a fixed dataset)
/// and of the Day-1 checkpoint trained on it. Both are part of the workload; a run's
/// `--seed` draws the traffic the replica serves from that world.
const WORLD_SEED: u64 = 7;

/// Draws labelled requests from a fixed world with a run's own random stream.
pub struct Traffic {
    world: SyntheticWorkload,
    zipf: ZipfSampler,
    rng: StdRng,
}

impl Traffic {
    fn new(world: SyntheticWorkload, seed: u64) -> Self {
        let cfg = world.config();
        Self {
            zipf: ZipfSampler::new(cfg.table_size, cfg.zipf_exponent),
            world,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One labelled sample at `minutes`, drawn like `SyntheticWorkload::sample_at`
    /// (Zipf ids through the world's rotating popularity, uniform dense features, a
    /// Bernoulli label from the ground-truth probability) but from this run's stream.
    fn sample_at(&mut self, minutes: f64) -> Sample {
        let cfg = self.world.config();
        let sparse = (0..cfg.num_tables)
            .map(|_| {
                let width = self.rng.gen_range(1..=cfg.max_multi_hot.max(1));
                (0..width)
                    .map(|_| {
                        self.world
                            .rank_to_id(self.zipf.sample(&mut self.rng), minutes)
                    })
                    .collect()
            })
            .collect();
        let dense = (0..cfg.dense_dim)
            .map(|_| self.rng.gen_range(-1.0..1.0))
            .collect();
        let mut sample = Sample::new(dense, sparse, 0.0);
        let p = self.world.ground_truth_probability(&sample, minutes);
        sample.label = if self.rng.gen::<f64>() < p { 1.0 } else { 0.0 };
        sample
    }

    /// A Poisson stream of `seconds` at `rate` requests per second, starting at
    /// simulated minute `start_minutes`.
    pub fn stream(&mut self, rate: f64, seconds: f64, start_minutes: f64) -> Stream {
        let mut due_ns = Vec::new();
        let mut sim_minutes = Vec::new();
        let mut samples = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = self.rng.gen();
            t += -(1.0 - u).ln() / rate;
            if t >= seconds {
                break;
            }
            let minutes = start_minutes + t * SIM_MINUTES_PER_SECOND;
            due_ns.push((t * 1e9) as u64);
            sim_minutes.push(minutes);
            samples.push(self.sample_at(minutes));
        }
        Stream {
            due_ns,
            sim_minutes,
            samples,
        }
    }
}

/// Build the workload's Day-1 model on its fixed world, wrap it in a serving node with
/// a primed retention buffer, and draw the warm-up stream, the measured stream and the
/// probe batch from `seed`.
pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
    let mut world = SyntheticWorkload::new(spec.workload_config(WORLD_SEED));
    let mut model = DlrmModel::new(spec.dlrm_config(), WORLD_SEED);
    let warm = world.batch_at(spec.warmup_minutes / 2.0, spec.warmup_samples);
    for _ in 0..spec.warmup_epochs {
        for chunk in warm.chunks(128) {
            model.train_batch(&chunk);
        }
    }
    let mut node = ServingNode::new(
        model,
        LiveUpdateConfig {
            serving_storage: spec.storage,
            hot_cache_fraction: spec.hot_cache_fraction,
            ..LiveUpdateConfig::default()
        },
    );
    let start = spec.warmup_minutes;
    node.serve_batch(start, &world.batch_at(start, 512));

    let mut traffic = Traffic::new(world, seed);
    let warmup = traffic.stream(spec.rate, WARMUP.as_secs_f64(), start);
    let measured_start = start + WARMUP.as_secs_f64() * SIM_MINUTES_PER_SECOND;
    let measured = traffic.stream(spec.rate, seconds, measured_start);
    let probe = (0..4096)
        .map(|_| traffic.sample_at(measured_start))
        .collect();
    Inputs {
        node,
        warmup,
        measured,
        probe,
        traffic,
        next_minutes: measured_start + seconds * SIM_MINUTES_PER_SECOND,
    }
}
