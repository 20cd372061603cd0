//! Discrete-time cluster and hardware simulator for the LiveUpdate reproduction.
//!
//! The paper's systems results are produced on an 8-node inference cluster (4× H100 +
//! dual-socket AMD EPYC 9684X per node, 12 TB of DDR5, 100 Gb/s InfiniBand). None of that
//! hardware is available here, so this crate models the components whose *interaction*
//! produces the paper's observations:
//!
//! * [`network`] — links (100 GbE, InfiniBand EDR, NVLink, PCIe) and transfer-time
//!   arithmetic: the source of the "syncing 20 TB takes 26 minutes" style numbers.
//! * [`collective`] — tree/ring AllGather cost models (Fig. 19's `O(log N)` scaling).
//! * [`param_server`] — the sharded parameter server with version batching and delta
//!   synchronisation (paper Fig. 2).
//! * [`cache`] — an LRU model of the per-CCD L3 caches (Fig. 11's hit ratios).
//! * [`cpu`] / [`numa`] — CCD/core topology and the partitioning of CCDs between the
//!   inference and training processes (paper §IV-D).
//! * [`membw`] — DRAM bandwidth contention and the latency inflation it causes (Fig. 10,
//!   Fig. 16).
//! * [`latency`] — latency percentiles (P50/P99) for SLA checks: the
//!   [`LogLinearHistogram`] of `liveupdate_obs`, re-exported so simulated and measured
//!   latencies share one histogram.
//! * [`power`] — CPU utilisation → power model (Fig. 4, Fig. 5, Fig. 18).
//! * [`node`] / [`cluster`] — node and cluster composition.
//!
//! Everything is analytic and deterministic: the goal is reproducing the *shape* of the
//! paper's hardware effects (who contends with whom, what scales how), not cycle accuracy.

pub mod cache;
pub mod cluster;
pub mod collective;
pub mod cpu;
pub mod membw;
pub mod network;
pub mod node;
pub mod numa;
pub mod param_server;
pub mod power;

pub use cache::LruCache;
pub use cluster::ClusterSpec;
pub use collective::{CollectiveAlgorithm, CollectiveModel};
pub use cpu::{CcdSpec, CpuSpec};
pub use latency::LogLinearHistogram;
pub use membw::MemoryBandwidthModel;
pub use network::NetworkLink;
pub use node::NodeSpec;
pub use numa::CcdPartition;
pub use param_server::ParameterServer;
pub use power::CpuPowerModel;

pub mod latency {
    //! Latency percentiles for SLA checks.
    //!
    //! Serving SLAs in the paper are tail-latency bounds (P99 < 20 ms, and a stricter
    //! 10 ms target in the evaluation). Simulated and measured latencies are both
    //! recorded, in milliseconds, into one [`LogLinearHistogram`]: a record is one
    //! bucket increment, a percentile is one bucket walk, and per-worker histograms
    //! merge bucket-wise with [`merge_from`](LogLinearHistogram::merge_from). Every
    //! answer is the midpoint of the bucket holding the exact nearest-rank sample, so
    //! `percentile(100.0)` stands in for the exact maximum within half a ~3.1% bucket.

    pub use liveupdate_obs::LogLinearHistogram;

    #[cfg(test)]
    mod tests {
        use super::*;
        use liveupdate_obs::hist::bucket_index;
        use proptest::prelude::*;

        /// One log-linear bucket is a ~3.1% relative range; assert within that (plus a
        /// little slack for the midpoint sitting half a bucket off the exact sample).
        fn assert_close(approx: f64, exact: f64) {
            let rel = (approx - exact).abs() / exact.abs();
            assert!(
                rel <= 0.05,
                "approx {approx} vs exact {exact}: rel err {rel}"
            );
        }

        fn recorded(samples_ms: &[f64]) -> LogLinearHistogram {
            let h = LogLinearHistogram::new();
            for &ms in samples_ms {
                h.record(ms);
            }
            h
        }

        /// Nearest-rank reference: a fresh sort on every query.
        fn reference_percentile(samples: &[f64], percentile: f64) -> f64 {
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = ((percentile / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        }

        #[test]
        fn empty_recorder_has_no_stats() {
            let h = LogLinearHistogram::new();
            assert_eq!(h.count(), 0);
            assert_eq!(h.percentile(0.0), None);
            assert_eq!(h.p99(), None);
            assert_eq!(h.percentile(100.0), None, "no p100 stands in for the max");
        }

        #[test]
        fn percentiles_of_known_distribution() {
            let h = recorded(&(1..=100).map(f64::from).collect::<Vec<_>>());
            assert_eq!(h.count(), 100);
            assert_close(h.p50().unwrap(), 50.0);
            assert_close(h.p99().unwrap(), 99.0);
            assert_close(h.percentile(100.0).unwrap(), 100.0);
            assert_close(h.percentile(0.0).unwrap(), 1.0);
            // A 1.5% tail spike is what P99 exists to catch against a 20 ms SLA.
            let spiky = recorded(&[vec![5.0; 985], vec![50.0; 15]].concat());
            assert!(spiky.p50().unwrap() < 10.0);
            assert_close(spiky.p99().unwrap(), 50.0);
        }

        #[test]
        fn merge_and_reset() {
            // Shutdown merges each worker's histogram into the run's report.
            let run = recorded(&[1.0, 2.0]);
            let worker = recorded(&[3.0, 4.0]);
            run.merge_from(&worker);
            assert_eq!(run.count(), 4);
            assert_eq!(worker.count(), 2, "merging leaves the source intact");
            assert_close(run.percentile(100.0).unwrap(), 4.0);
            run.reset();
            assert_eq!(run.count(), 0);
            assert_eq!(run.p50(), None, "reset clears every bucket");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// P50 ≤ P90 ≤ P99 ≤ P100, and P100 is within half a bucket of the exact
            /// maximum it replaces in the reports.
            #[test]
            fn prop_percentiles_monotone(
                samples in proptest::collection::vec(0.01f64..100.0, 1..200),
            ) {
                let h = recorded(&samples);
                let p50 = h.p50().unwrap();
                let p90 = h.percentile(90.0).unwrap();
                let p99 = h.p99().unwrap();
                let p100 = h.percentile(100.0).unwrap();
                prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= p100);
                let max = samples.iter().copied().fold(f64::MIN, f64::max);
                let half_bucket = 1.0 / 64.0;
                prop_assert!(
                    (p100 - max).abs() <= max * half_bucket + 1e-12,
                    "p100 {} vs exact max {}", p100, max
                );
            }

            /// Splitting the samples over per-worker histograms and merging them keeps
            /// every percentile within one bucket of the exact nearest-rank sample of the
            /// union.
            #[test]
            fn prop_percentile_within_one_bucket_of_exact(
                samples in proptest::collection::vec(0.01f64..100.0, 1..100),
                workers in 1usize..5,
                p in 0.0f64..100.0,
            ) {
                let per_worker: Vec<LogLinearHistogram> =
                    (0..workers).map(|_| LogLinearHistogram::new()).collect();
                for (i, &ms) in samples.iter().enumerate() {
                    per_worker[i % workers].record(ms);
                }
                let merged = LogLinearHistogram::new();
                for h in &per_worker {
                    merged.merge_from(h);
                }
                prop_assert_eq!(merged.count(), samples.len() as u64);
                let approx = merged.percentile(p).unwrap();
                let exact = reference_percentile(&samples, p);
                let d = bucket_index(approx) as i64 - bucket_index(exact) as i64;
                prop_assert!(d.abs() <= 1, "approx {} vs exact {}: {} buckets apart", approx, exact, d);
            }
        }
    }
}
