//! Measured results of a runtime run: real wall-clock QPS, latency percentiles, and
//! update-round interference.

use liveupdate_obs::LogLinearHistogram;

/// Per-worker measurements, returned by each worker thread at join.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Requests this worker served to completion.
    pub served: u64,
    /// Inference batches the deadline batcher closed.
    pub batches: u64,
    /// Individual lookups that took the LoRA-corrected path.
    pub lora_corrected_lookups: u64,
    /// Sum of predicted probabilities (for a cheap sanity mean).
    pub prediction_sum: f64,
    /// Snapshot publications this worker adopted.
    pub snapshot_refreshes: u64,
    /// Highest epoch this worker observed.
    pub last_epoch: u64,
    /// Per-request latency (queue wait + batching + inference), milliseconds.
    pub latency: LogLinearHistogram,
}

/// Updater-side measurements.
#[derive(Debug, Clone, Default)]
pub struct UpdaterReport {
    /// Served batches ingested into the retention buffer.
    pub ingested_batches: u64,
    /// Requests contained in those batches.
    pub ingested_requests: u64,
    /// Update rounds performed by the active policy.
    pub update_rounds: u64,
    /// Snapshot publications (epoch swaps).
    pub publications: u64,
    /// Wall-clock milliseconds of each published update block (train + capture + swap).
    pub round_times_ms: Vec<f64>,
    /// `(epoch, checksum)` of every published snapshot, including the initial epoch 0.
    pub published: Vec<(u64, u64)>,
}

impl UpdaterReport {
    /// Mean wall-clock milliseconds per update block, or 0 when none ran.
    #[must_use]
    pub fn mean_round_ms(&self) -> f64 {
        if self.round_times_ms.is_empty() {
            0.0
        } else {
            self.round_times_ms.iter().sum::<f64>() / self.round_times_ms.len() as f64
        }
    }

    /// Longest update block in milliseconds, or 0 when none ran.
    #[must_use]
    pub fn max_round_ms(&self) -> f64 {
        self.round_times_ms.iter().fold(0.0, |a, &b| a.max(b))
    }
}

/// Aggregated result of one runtime run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Worker threads that served.
    pub num_workers: usize,
    /// Wall-clock duration from start to the last worker joining, in seconds.
    pub wall_seconds: f64,
    /// Requests submitted into the queues (accepted by `try_send`/`send`).
    pub submitted: u64,
    /// Requests shed because a bounded queue was full (open-loop overload).
    pub dropped: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Measured throughput: `completed / wall_seconds`.
    pub qps: f64,
    /// Per-request latency merged across workers, milliseconds.
    pub latency: LogLinearHistogram,
    /// Inference batches closed across workers.
    pub batches: u64,
    /// Lookups that took the LoRA-corrected path.
    pub lora_corrected_lookups: u64,
    /// Snapshot adoptions summed over workers.
    pub snapshot_refreshes: u64,
    /// The updater's side of the story.
    pub updater: UpdaterReport,
    /// Raw per-worker reports.
    pub per_worker: Vec<WorkerReport>,
    /// Final flattened telemetry snapshot (`name → value` rows, sorted by name),
    /// scraped from the runtime's registry after every thread folded in its last
    /// values. Empty when the runtime ran with `telemetry: false`.
    pub telemetry: Vec<(String, f64)>,
}

impl RuntimeReport {
    /// Mean requests per closed batch, or 0 when none.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Fraction of submitted requests that were shed.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let offered = self.submitted + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }

    /// The per-stage latency breakdown extracted from the telemetry rows. Empty when
    /// telemetry was off or no request was traced
    /// ([`RuntimeConfig::trace_sample_rate`](crate::config::RuntimeConfig::trace_sample_rate)
    /// at 0).
    #[must_use]
    pub fn breakdown(&self) -> Vec<StageLatency> {
        stage_breakdown(&self.telemetry)
    }

    /// One human-readable summary line (used by the example and the bench target).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "workers={} wall={:.2}s qps={:.0} p50={:.3}ms p99={:.3}ms p100={:.3}ms drops={} \
             batches={} mean_batch={:.1} rounds={} publications={} mean_round={:.3}ms",
            self.num_workers,
            self.wall_seconds,
            self.qps,
            self.latency.p50().unwrap_or(0.0),
            self.latency.p99().unwrap_or(0.0),
            self.latency.percentile(100.0).unwrap_or(0.0),
            self.dropped,
            self.batches,
            self.mean_batch_size(),
            self.updater.update_rounds,
            self.updater.publications,
            self.updater.mean_round_ms(),
        )
    }
}

/// One row of the per-stage latency breakdown (microseconds): where a traced
/// request's time went between two adjacent stage boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLatency {
    /// The stage-histogram family name (one of
    /// [`liveupdate_obs::span::STAGE_HISTOGRAMS`]).
    pub stage: String,
    /// Median stage duration, µs.
    pub p50_us: f64,
    /// Tail stage duration, µs.
    pub p99_us: f64,
    /// Traced requests that contributed.
    pub count: u64,
}

/// Extract the per-stage latency breakdown from flattened telemetry rows — the shared
/// reader for `RuntimeReport`, `DistributedReport`, and `ScenarioReport`, all of which
/// carry the same `stage_*_us_{p50,p99,count}` row names (scraped live on the
/// distributed backend, synthesized by the analytic engine). Stages
/// with no recorded samples are omitted.
#[must_use]
pub fn stage_breakdown(rows: &[(String, f64)]) -> Vec<StageLatency> {
    let get = |name: &str| rows.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    liveupdate_obs::span::STAGE_HISTOGRAMS
        .iter()
        .filter_map(|&stage| {
            let count = get(&format!("{stage}_count")).unwrap_or(0.0);
            if count <= 0.0 {
                return None;
            }
            Some(StageLatency {
                stage: stage.to_string(),
                p50_us: get(&format!("{stage}_p50"))?,
                p99_us: get(&format!("{stage}_p99"))?,
                count: count as u64,
            })
        })
        .collect()
}

/// Render a breakdown as one aligned text line per stage (the form the examples and
/// the trace walkthrough print); empty string when there are no rows.
#[must_use]
pub fn breakdown_lines(breakdown: &[StageLatency]) -> String {
    let mut out = String::new();
    for row in breakdown {
        out.push_str(&format!(
            "  {:<22} p50={:>8.0}us p99={:>8.0}us n={}\n",
            row.stage, row.p50_us, row.p99_us, row.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_breakdown_reads_the_row_family() {
        let rows = vec![
            ("stage_queue_wait_us_count".to_string(), 5.0),
            ("stage_queue_wait_us_p50".to_string(), 100.0),
            ("stage_queue_wait_us_p99".to_string(), 400.0),
            ("stage_serve_us_count".to_string(), 0.0), // untraced: omitted
            ("serve_latency_us_p99".to_string(), 9.0), // unrelated row
        ];
        let b = stage_breakdown(&rows);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].stage, "stage_queue_wait_us");
        assert_eq!(b[0].count, 5);
        assert_eq!(b[0].p99_us, 400.0);
        let text = breakdown_lines(&b);
        assert!(text.contains("stage_queue_wait_us"), "{text}");
        assert!(stage_breakdown(&[]).is_empty());
    }

    #[test]
    fn updater_round_stats() {
        let mut u = UpdaterReport::default();
        assert_eq!(u.mean_round_ms(), 0.0);
        assert_eq!(u.max_round_ms(), 0.0);
        u.round_times_ms = vec![1.0, 3.0, 2.0];
        assert!((u.mean_round_ms() - 2.0).abs() < 1e-12);
        assert_eq!(u.max_round_ms(), 3.0);
    }

    #[test]
    fn report_derived_metrics() {
        let latency = LogLinearHistogram::new();
        for ms in [1.0, 2.0, 3.0] {
            latency.record(ms);
        }
        let r = RuntimeReport {
            num_workers: 2,
            wall_seconds: 2.0,
            submitted: 90,
            dropped: 10,
            completed: 90,
            qps: 45.0,
            latency,
            batches: 9,
            lora_corrected_lookups: 0,
            snapshot_refreshes: 4,
            updater: UpdaterReport::default(),
            per_worker: Vec::new(),
            telemetry: Vec::new(),
        };
        assert!((r.mean_batch_size() - 10.0).abs() < 1e-12);
        assert!((r.drop_rate() - 0.1).abs() < 1e-12);
        assert!(r.summary_line().contains("qps=45"));
    }
}
