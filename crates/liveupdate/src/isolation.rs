//! Performance-isolation experiments: cache contention, CCD scheduling and data reuse.
//!
//! This module reproduces the mechanism behind paper Figs. 11 and 16. Inference and the
//! co-located LoRA trainer both stream embedding rows through the CPU caches; whether they
//! share an L3 (naive co-location) or own disjoint CCDs (NUMA-aware scheduling), and
//! whether the trainer re-reads rows the inference path already fetched (shadow-table
//! reuse), determines the L3 hit ratios, the DRAM pressure, and ultimately the serving P99.
//!
//! The experiment drives real [`LruCache`] instances with Zipf-distributed access traces
//! and feeds the resulting hit ratios into the [`ServiceTimeModel`] / [`MemoryBandwidthModel`]
//! of the simulator, so the latency numbers emerge from the cache behaviour rather than
//! being asserted.

use liveupdate_sim::cache::LruCache;
use liveupdate_sim::membw::{BandwidthDemand, MemoryBandwidthModel};
use liveupdate_sim::node::ServiceTimeModel;
use liveupdate_sim::LogLinearHistogram;
use liveupdate_workload::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The four configurations compared in paper Fig. 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IsolationMode {
    /// Lower bound: no co-located training at all ("Only Infer").
    InferenceOnly,
    /// Naive co-location: training and inference share every CCD and thrash each other's
    /// L3 ("w/o Opt").
    NaiveColocation,
    /// CCDs are partitioned between the two processes ("w/ Scheduling").
    Scheduling,
    /// CCD partitioning plus shadow-table embedding reuse ("w/ Reuse+Scheduling").
    SchedulingAndReuse,
}

impl IsolationMode {
    /// All modes in the order plotted in Fig. 16.
    #[must_use]
    pub fn all() -> [IsolationMode; 4] {
        [
            IsolationMode::InferenceOnly,
            IsolationMode::NaiveColocation,
            IsolationMode::Scheduling,
            IsolationMode::SchedulingAndReuse,
        ]
    }

    /// The label used by the paper's figure.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            IsolationMode::InferenceOnly => "Only Infer",
            IsolationMode::NaiveColocation => "w/o Opt",
            IsolationMode::Scheduling => "w/ Scheduling",
            IsolationMode::SchedulingAndReuse => "w/ Reuse+Scheduling",
        }
    }
}

/// Parameters of the contention experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionConfig {
    /// Number of distinct embedding rows in the (scaled-down) working universe.
    pub universe_rows: usize,
    /// Bytes per embedding row.
    pub row_bytes: u64,
    /// L3 bytes owned by inference under partitioning (and by everyone under sharing).
    pub inference_l3_bytes: u64,
    /// L3 bytes owned by training under partitioning.
    pub training_l3_bytes: u64,
    /// Zipf exponent of the access skew.
    pub zipf_exponent: f64,
    /// Number of requests simulated.
    pub requests: usize,
    /// Embedding lookups simulated per request (scaled down; the service-time model
    /// extrapolates to its own per-request lookup count).
    pub lookups_per_request: usize,
    /// Training rows streamed between consecutive requests when training is active.
    pub training_rows_per_request: usize,
    /// Serving request rate used for the DRAM-demand calculation (requests/second).
    pub requests_per_second: f64,
    /// Embedding-row reads/writes per second issued by the co-located trainer (gradient
    /// reads, factor writes and optimiser state).
    pub training_lookups_per_second: f64,
    /// Bytes moved per trainer access (row read plus write-back of the update).
    pub training_bytes_per_access: u64,
    /// Fraction of the DRAM bandwidth the trainer may use under hardware-enforced QoS
    /// partitioning (its CCD share); only applies to the scheduling modes.
    pub training_bandwidth_cap_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        Self {
            universe_rows: 40_000,
            row_bytes: 128,
            inference_l3_bytes: 10 * 96 * 1024,
            training_l3_bytes: 2 * 96 * 1024,
            zipf_exponent: 1.05,
            requests: 2_000,
            lookups_per_request: 64,
            training_rows_per_request: 256,
            requests_per_second: 40_000.0,
            training_lookups_per_second: 1.0e9,
            training_bytes_per_access: 256,
            training_bandwidth_cap_fraction: 2.0 / 12.0,
            seed: 17,
        }
    }
}

/// Measured outcome of one isolation mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionOutcome {
    /// Which mode was evaluated.
    pub mode: IsolationMode,
    /// L3 hit ratio observed by the inference lookups.
    pub inference_hit_ratio: f64,
    /// L3 hit ratio observed by the training accesses (`None` for inference-only).
    pub training_hit_ratio: Option<f64>,
    /// DRAM utilisation under the combined demand.
    pub dram_utilization: f64,
    /// P50 serving latency in milliseconds.
    pub p50_ms: f64,
    /// P99 serving latency in milliseconds.
    pub p99_ms: f64,
}

/// Run the contention experiment for one isolation mode.
#[must_use]
pub fn evaluate_mode(mode: IsolationMode, config: &ContentionConfig) -> ContentionOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = ZipfSampler::new(config.universe_rows, config.zipf_exponent);
    let training_active = mode != IsolationMode::InferenceOnly;

    // Cache topology per mode: shared single cache for naive co-location, disjoint caches
    // under scheduling, inference-only gets the whole budget to itself.
    let (mut inference_cache, mut training_cache) = match mode {
        IsolationMode::InferenceOnly => (
            LruCache::new(config.inference_l3_bytes + config.training_l3_bytes),
            None,
        ),
        IsolationMode::NaiveColocation => (
            LruCache::new(config.inference_l3_bytes + config.training_l3_bytes),
            None, // shares the inference cache
        ),
        IsolationMode::Scheduling | IsolationMode::SchedulingAndReuse => (
            LruCache::new(config.inference_l3_bytes),
            Some(LruCache::new(config.training_l3_bytes)),
        ),
    };

    let mut training_hits = 0u64;
    let mut training_accesses = 0u64;
    let mut per_request_hits: Vec<f64> = Vec::with_capacity(config.requests);
    let mut recent_inference_rows: Vec<u64> = Vec::new();

    for _ in 0..config.requests {
        // Inference lookups.
        let mut hits = 0usize;
        recent_inference_rows.clear();
        for _ in 0..config.lookups_per_request {
            let row = zipf.sample(&mut rng) as u64;
            recent_inference_rows.push(row);
            if inference_cache.access(row, config.row_bytes) {
                hits += 1;
            }
        }
        per_request_hits.push(hits as f64 / config.lookups_per_request as f64);

        // Training accesses interleaved between requests.
        if training_active {
            for k in 0..config.training_rows_per_request {
                training_accesses += 1;
                let reuse_shadow = mode == IsolationMode::SchedulingAndReuse;
                let row = if reuse_shadow {
                    // Shadow-table reuse: the trainer reads rows the inference path just
                    // fetched (they sit warm in the shared buffer / its own L3).
                    recent_inference_rows[k % recent_inference_rows.len()]
                } else {
                    // Without reuse the trainer streams over the retention buffer's samples
                    // and its own factor/optimiser state: a wide, write-heavy working set
                    // that is uncorrelated with what is currently cache-resident.
                    rng.gen_range(0..config.universe_rows) as u64
                };
                let hit = match (&mut training_cache, mode) {
                    // Naive co-location: training thrashes the single shared cache.
                    (None, IsolationMode::NaiveColocation) => {
                        inference_cache.access(row, config.row_bytes)
                    }
                    (Some(cache), _) => cache.access(row, config.row_bytes),
                    (None, _) => false,
                };
                if hit {
                    training_hits += 1;
                }
            }
        }
    }

    let inference_hit_ratio =
        per_request_hits.iter().sum::<f64>() / per_request_hits.len().max(1) as f64;
    let training_hit_ratio = if training_active && training_accesses > 0 {
        Some(training_hits as f64 / training_accesses as f64)
    } else {
        None
    };

    // DRAM demand: inference misses plus training misses (reuse keeps the trainer out of
    // DRAM almost entirely).
    let service = ServiceTimeModel::default();
    let mut memory = MemoryBandwidthModel::ddr5_dual_socket();
    memory.set_demand(BandwidthDemand::new(
        "inference",
        service.dram_demand_bytes_per_sec(config.requests_per_second, inference_hit_ratio),
    ));
    if let Some(train_hit) = training_hit_ratio {
        let raw_demand = config.training_lookups_per_second
            * (1.0 - train_hit)
            * config.training_bytes_per_access as f64;
        // Under NUMA-aware scheduling the trainer's memory traffic is confined to its CCD
        // share by hardware-enforced QoS; naive co-location has no such cap.
        let demand = match mode {
            IsolationMode::Scheduling | IsolationMode::SchedulingAndReuse => raw_demand.min(
                config.training_bandwidth_cap_fraction.clamp(0.0, 1.0)
                    * memory.peak_bytes_per_second,
            ),
            _ => raw_demand,
        };
        memory.set_demand(BandwidthDemand::new("training", demand));
    }

    // Per-request latency distribution from the per-request hit ratios.
    let latencies = LogLinearHistogram::new();
    for hit in &per_request_hits {
        latencies.record(service.request_latency_ms(*hit, &memory));
    }

    ContentionOutcome {
        mode,
        inference_hit_ratio,
        training_hit_ratio,
        dram_utilization: memory.utilization(),
        p50_ms: latencies.p50().unwrap_or(0.0),
        p99_ms: latencies.p99().unwrap_or(0.0),
    }
}

/// Evaluate every isolation mode with the same configuration (the Fig. 16 ablation).
#[must_use]
pub fn evaluate_all(config: &ContentionConfig) -> Vec<ContentionOutcome> {
    IsolationMode::all()
        .iter()
        .map(|m| evaluate_mode(*m, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes() -> Vec<ContentionOutcome> {
        evaluate_all(&ContentionConfig {
            requests: 600,
            ..ContentionConfig::default()
        })
    }

    fn get(outcomes: &[ContentionOutcome], mode: IsolationMode) -> ContentionOutcome {
        outcomes
            .iter()
            .find(|o| o.mode == mode)
            .cloned()
            .expect("mode present")
    }

    #[test]
    fn all_modes_evaluated_with_labels() {
        let o = outcomes();
        assert_eq!(o.len(), 4);
        assert_eq!(IsolationMode::all()[0].label(), "Only Infer");
        assert_eq!(IsolationMode::all()[1].label(), "w/o Opt");
    }

    #[test]
    fn naive_colocation_hurts_inference_hit_ratio() {
        let o = outcomes();
        let only = get(&o, IsolationMode::InferenceOnly);
        let naive = get(&o, IsolationMode::NaiveColocation);
        assert!(
            naive.inference_hit_ratio < only.inference_hit_ratio - 0.02,
            "naive co-location should reduce the hit ratio: {} vs {}",
            naive.inference_hit_ratio,
            only.inference_hit_ratio
        );
    }

    #[test]
    fn scheduling_restores_inference_hit_ratio() {
        let o = outcomes();
        let naive = get(&o, IsolationMode::NaiveColocation);
        let sched = get(&o, IsolationMode::Scheduling);
        assert!(sched.inference_hit_ratio > naive.inference_hit_ratio);
    }

    #[test]
    fn reuse_raises_training_hit_ratio() {
        let o = outcomes();
        let sched = get(&o, IsolationMode::Scheduling);
        let reuse = get(&o, IsolationMode::SchedulingAndReuse);
        let sched_train = sched.training_hit_ratio.expect("training active");
        let reuse_train = reuse.training_hit_ratio.expect("training active");
        assert!(
            reuse_train > sched_train + 0.2,
            "reuse should raise the training hit ratio: {sched_train} -> {reuse_train}"
        );
    }

    #[test]
    fn p99_ordering_matches_figure_16() {
        let o = outcomes();
        let only = get(&o, IsolationMode::InferenceOnly);
        let naive = get(&o, IsolationMode::NaiveColocation);
        let sched = get(&o, IsolationMode::Scheduling);
        let reuse = get(&o, IsolationMode::SchedulingAndReuse);
        // Naive co-location is the worst; scheduling helps; reuse+scheduling is nearly
        // indistinguishable from inference-only.
        assert!(
            naive.p99_ms > only.p99_ms * 1.3,
            "naive {} vs only {}",
            naive.p99_ms,
            only.p99_ms
        );
        assert!(sched.p99_ms < naive.p99_ms);
        assert!(reuse.p99_ms <= sched.p99_ms + 1e-9);
        assert!(
            reuse.p99_ms < only.p99_ms * 1.25,
            "reuse {} vs only {}",
            reuse.p99_ms,
            only.p99_ms
        );
    }

    #[test]
    fn inference_only_has_no_training_stats() {
        let o = outcomes();
        assert!(get(&o, IsolationMode::InferenceOnly)
            .training_hit_ratio
            .is_none());
        assert!(get(&o, IsolationMode::NaiveColocation)
            .training_hit_ratio
            .is_some());
    }

    #[test]
    fn dram_utilization_bounded_and_ordered() {
        let o = outcomes();
        for out in &o {
            assert!((0.0..=1.0).contains(&out.dram_utilization));
        }
        let only = get(&o, IsolationMode::InferenceOnly);
        let naive = get(&o, IsolationMode::NaiveColocation);
        assert!(naive.dram_utilization >= only.dram_utilization);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = ContentionConfig {
            requests: 300,
            ..ContentionConfig::default()
        };
        let a = evaluate_mode(IsolationMode::Scheduling, &cfg);
        let b = evaluate_mode(IsolationMode::Scheduling, &cfg);
        assert_eq!(a, b);
    }
}
