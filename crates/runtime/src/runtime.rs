//! Thread orchestration: wiring queues, workers, the updater, and the epoch publisher.

use crate::config::{RuntimeConfig, UpdateMode};
use crate::epoch::EpochPublisher;
use crate::policy::{LiveUpdatePolicy, UpdatePolicy};
use crate::report::{RuntimeReport, UpdaterReport, WorkerReport};
use crate::request::{ReplyTo, Request};
use crate::router::Router;
use crate::telemetry::Telemetry;
use crate::updater::{run_updater, NodeCommand, UpdaterMsg, UpdaterParams};
use crate::worker::{run_sync_worker, run_worker};
use liveupdate::engine::ServingNode;
use liveupdate::snapshot::ServingSnapshot;
use liveupdate_dlrm::sample::Sample;
use liveupdate_obs::span::STAGE_ENQUEUED;
use liveupdate_obs::{
    HistogramSnapshot, LogLinearHistogram, SpanRecord, TraceContext, TraceSampler,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Result of submitting one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The request entered its worker's queue.
    Accepted,
    /// The bounded queue was full; the request was shed (open-loop overload).
    Shed,
    /// The runtime is shutting down; the queue is closed.
    Closed,
}

/// A running multithreaded serving system.
///
/// `start` spawns `num_workers` inference threads (each behind its own bounded MPSC
/// queue) and — in `Background` mode — one updater thread that owns the authoritative
/// [`ServingNode`]. Requests are submitted via [`Self::submit`]/[`Self::try_submit`] or
/// by the open-loop generator in [`crate::loadgen`]. [`Self::finish`] closes the queues,
/// joins every thread, and returns the measured [`RuntimeReport`] together with the
/// final node state.
#[derive(Debug)]
pub struct ServingRuntime {
    cfg: RuntimeConfig,
    publisher: Arc<EpochPublisher<ServingSnapshot>>,
    router: Router,
    senders: Vec<SyncSender<Request>>,
    workers: Vec<JoinHandle<WorkerReport>>,
    sync_worker: Option<JoinHandle<(WorkerReport, UpdaterReport, ServingNode)>>,
    updater: Option<JoinHandle<(UpdaterReport, ServingNode)>>,
    /// Command path into the updater thread (None in synchronous mode).
    node_tx: Option<Sender<UpdaterMsg>>,
    /// Shared metric handles (None when `cfg.telemetry` is off).
    telemetry: Option<Arc<Telemetry>>,
    /// The deterministic trace sampler (from `cfg.trace_sample_rate`).
    sampler: TraceSampler,
    /// Trace-id allocator for requests submitted without a wire-carried trace id.
    trace_seq: AtomicU64,
    processed: Arc<AtomicU64>,
    submitted: AtomicU64,
    dropped: AtomicU64,
    started: Instant,
}

impl ServingRuntime {
    /// Start the runtime serving `node`'s current state. The update arrangement comes
    /// from `cfg.update`: `Background` runs the LiveUpdate policy on the updater thread,
    /// `Disabled` runs ingest-only, `Synchronous` is the deterministic single-threaded
    /// reference mode. To mount an explicit [`UpdatePolicy`] (or none) at a chosen
    /// cadence, use [`Self::start_with_policy`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn start(node: ServingNode, cfg: RuntimeConfig) -> Self {
        match cfg.update {
            UpdateMode::Synchronous { .. } | UpdateMode::Disabled => Self::spawn(node, cfg, None),
            UpdateMode::Background {
                interval,
                rounds_per_update,
                batch_size,
            } => {
                let policy = LiveUpdatePolicy {
                    rounds_per_update,
                    batch_size,
                };
                Self::spawn(
                    node,
                    cfg,
                    Some((interval, Some(Box::new(policy) as Box<dyn UpdatePolicy>))),
                )
            }
        }
    }

    /// Start the runtime with an explicit [`UpdatePolicy`] driving the updater thread at
    /// the given wall-clock `interval` (`policy == None` is ingest-only — the `NoUpdate`
    /// baseline). The worker topology (queues, batcher, routing) still comes from `cfg`;
    /// `cfg.update` is ignored except that `Synchronous` mode is rejected — synchronous
    /// runs have no separate updater thread to install a policy on.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `cfg.update` is `Synchronous`.
    #[must_use]
    pub fn start_with_policy(
        node: ServingNode,
        cfg: RuntimeConfig,
        interval: Duration,
        policy: Option<Box<dyn UpdatePolicy>>,
    ) -> Self {
        assert!(
            !matches!(cfg.update, UpdateMode::Synchronous { .. }),
            "synchronous mode has no updater thread for a policy"
        );
        Self::spawn(node, cfg, Some((interval, policy)))
    }

    /// Spawn the thread topology. `background == None` runs `cfg.update`'s synchronous /
    /// disabled arrangement; `Some((interval, policy))` runs the policy-driven updater.
    fn spawn(
        node: ServingNode,
        cfg: RuntimeConfig,
        background: Option<(Duration, Option<Box<dyn UpdatePolicy>>)>,
    ) -> Self {
        if let Err(reason) = cfg.validate() {
            panic!("invalid runtime configuration: {reason}");
        }
        let publisher = EpochPublisher::new(node.snapshot());
        let initial_checksum = publisher.load().1.checksum();
        let telemetry = cfg.telemetry.then(|| Arc::new(Telemetry::new()));
        let processed = Arc::new(AtomicU64::new(0));
        let batcher = cfg.batcher();
        let router = Router::new(cfg.routing, cfg.num_workers);

        let mut senders = Vec::with_capacity(cfg.num_workers);
        let mut receivers = Vec::with_capacity(cfg.num_workers);
        for _ in 0..cfg.num_workers {
            let (tx, rx) = sync_channel::<Request>(cfg.queue_capacity);
            senders.push(tx);
            receivers.push(rx);
        }

        let mut workers = Vec::new();
        let mut sync_worker = None;
        let mut updater = None;
        let mut node_tx = None;
        match (cfg.update, background) {
            (
                UpdateMode::Synchronous {
                    every_batches,
                    rounds,
                    batch_size,
                },
                None,
            ) => {
                let rx = receivers.pop().expect("one worker in synchronous mode");
                let publisher_for_worker = Arc::clone(&publisher);
                let processed_for_worker = Arc::clone(&processed);
                let telemetry_for_worker = telemetry.clone();
                sync_worker = Some(
                    thread::Builder::new()
                        .name("lu-sync-worker".into())
                        .spawn(move || {
                            run_sync_worker(
                                &rx,
                                &batcher,
                                node,
                                &publisher_for_worker,
                                every_batches,
                                rounds,
                                batch_size,
                                &processed_for_worker,
                                telemetry_for_worker.as_deref(),
                            )
                        })
                        .expect("spawn sync worker"),
                );
            }
            (_, background) => {
                // Ingest-only (Disabled / NoUpdate) or a policy-driven background updater.
                let (interval, policy) = background.unwrap_or((Duration::from_secs(3600), None));
                let (ingest_tx, ingest_rx) = channel::<UpdaterMsg>();
                for (index, rx) in receivers.into_iter().enumerate() {
                    let reader = publisher.reader();
                    let worker_ingest = ingest_tx.clone();
                    let processed_for_worker = Arc::clone(&processed);
                    let telemetry_for_worker = telemetry.clone();
                    workers.push(
                        thread::Builder::new()
                            .name(format!("lu-worker-{index}"))
                            .spawn(move || {
                                run_worker(
                                    &rx,
                                    &batcher,
                                    reader,
                                    &worker_ingest,
                                    &processed_for_worker,
                                    telemetry_for_worker.as_deref(),
                                )
                            })
                            .expect("spawn worker"),
                    );
                }
                // The workers and the runtime's command handle hold the senders; the
                // updater shuts down when the workers have exited AND the runtime
                // dropped its handle in `finish`.
                node_tx = Some(ingest_tx);
                let params = UpdaterParams { interval, policy };
                let publisher_for_updater = Arc::clone(&publisher);
                let telemetry_for_updater = telemetry.clone();
                updater = Some(
                    thread::Builder::new()
                        .name("lu-updater".into())
                        .spawn(move || {
                            run_updater(
                                &ingest_rx,
                                node,
                                &publisher_for_updater,
                                params,
                                initial_checksum,
                                telemetry_for_updater.as_deref(),
                            )
                        })
                        .expect("spawn updater"),
                );
            }
        }

        let sampler = TraceSampler::new(cfg.trace_sample_rate);
        Self {
            cfg,
            publisher,
            router,
            senders,
            workers,
            sync_worker,
            updater,
            node_tx,
            telemetry,
            sampler,
            trace_seq: AtomicU64::new(0),
            processed,
            submitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Number of worker threads (and request queues).
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.cfg.num_workers
    }

    /// The epoch publisher (for observing the current epoch / snapshot from outside).
    #[must_use]
    pub fn publisher(&self) -> &Arc<EpochPublisher<ServingSnapshot>> {
        &self.publisher
    }

    /// The runtime's telemetry handles, or `None` when started with
    /// `cfg.telemetry == false`. Transport tiers use this to fold their own series
    /// (e.g. `net_open_connections`) into the same registry a scrape reads.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Refresh the scrape-time gauges and return the full flattened metrics snapshot
    /// (`[(name, value)]`, sorted by name) — the payload of a `Frame::StatsReply` and
    /// of [`RuntimeReport::telemetry`](crate::report::RuntimeReport). Empty when
    /// telemetry is off. Never blocks serving: gauge refresh is a handful of relaxed
    /// stores plus two brief epoch-slot locks (each the cost of an epoch adoption), and
    /// the registry walk reads atomics shard by shard.
    #[must_use]
    pub fn scrape(&self) -> Vec<(String, f64)> {
        let Some(tel) = &self.telemetry else {
            return Vec::new();
        };
        self.refresh_gauges(tel);
        tel.registry.snapshot()
    }

    /// Compute the sampled gauges: snapshot freshness (`epoch_age_us`), queue depth,
    /// and the cumulative per-table hot-row-cache tallies of the live snapshot.
    fn refresh_gauges(&self, tel: &Telemetry) {
        let (epoch, age_us) = self.publisher.epoch_and_age_us();
        tel.epoch_age_us
            .set(i64::try_from(age_us).unwrap_or(i64::MAX));
        tel.snapshot_epoch
            .set(i64::try_from(epoch).unwrap_or(i64::MAX));
        let submitted = self.submitted.load(Ordering::Relaxed);
        let completed = self.processed.load(Ordering::Acquire);
        tel.queue_depth
            .set(i64::try_from(submitted.saturating_sub(completed)).unwrap_or(i64::MAX));
        let (_, snapshot) = self.publisher.load();
        let hot = snapshot.hot_rows();
        if hot.stats_tables() == 0 {
            return;
        }
        let gauges = tel.hot_row_cache.get_or_init(|| {
            (0..hot.stats_tables())
                .map(|t| {
                    [
                        tel.registry.gauge(&format!("hot_row_cache_hits_t{t}")),
                        tel.registry.gauge(&format!("hot_row_cache_misses_t{t}")),
                    ]
                })
                .collect()
        });
        for (t, [hits_gauge, misses_gauge]) in gauges.iter().enumerate() {
            if let Some(stats) = hot.table_stats(t) {
                let (hits, misses) = stats.get();
                hits_gauge.set(i64::try_from(hits).unwrap_or(i64::MAX));
                misses_gauge.set(i64::try_from(misses).unwrap_or(i64::MAX));
            }
        }
    }

    /// Requests fully served so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Acquire)
    }

    /// Block (with a 1 ms poll) until `count` requests have been served or `timeout`
    /// elapses; returns whether the target was reached.
    #[must_use]
    pub fn wait_processed(&self, count: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.processed() < count {
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Run a closure against the authoritative [`ServingNode`] on the updater thread and
    /// return its result. The closure serialises with ingest and update blocks (it runs
    /// between them, never concurrently), which is how a transport tier applies sparse
    /// LoRA merges and parameter pulls without adding a single lock to the serve path.
    /// Blocks the caller until the closure has run.
    ///
    /// # Panics
    ///
    /// Panics in `Synchronous` mode (no updater thread owns the node there) or if the
    /// updater thread is gone.
    pub fn with_node<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut ServingNode) -> R + Send + 'static,
    {
        assert!(
            self.node_tx.is_some(),
            "node access requires a background updater (not Synchronous mode)"
        );
        let (result_tx, result_rx) = channel::<R>();
        let sent = self.with_node_async(f, false, move |result| {
            let _ = result_tx.send(result);
        });
        assert!(sent, "updater thread alive");
        result_rx.recv().expect("updater executed the command")
    }

    /// Nonblocking node access: enqueue `f` to run against the authoritative
    /// [`ServingNode`] on the updater thread (serialised with ingest and update blocks
    /// exactly like [`Self::with_node`]), optionally publish a fresh epoch-swapped
    /// snapshot, and then invoke `done` with `f`'s result — *after* the publication, so
    /// a transport tier that acknowledges from `done` never acks an update the serve
    /// path cannot see yet. The caller is not blocked; `done` runs on the updater
    /// thread and must be cheap (hand the value to a channel, ring a waker).
    ///
    /// Returns `false` if no updater thread is available to run the command
    /// (synchronous mode, or the updater already shut down); `f` and `done` are dropped
    /// unrun in that case.
    pub fn with_node_async<R, F, G>(&self, f: F, publish: bool, done: G) -> bool
    where
        R: Send + 'static,
        F: FnOnce(&mut ServingNode) -> R + Send + 'static,
        G: FnOnce(R) + Send + 'static,
    {
        let Some(tx) = self.node_tx.as_ref() else {
            return false;
        };
        // The result crosses from `run` to `done` through a slot both closures share;
        // the updater runs them in order on one thread, so the slot is always filled.
        let slot: Arc<std::sync::Mutex<Option<R>>> = Arc::new(std::sync::Mutex::new(None));
        let fill = Arc::clone(&slot);
        let command = NodeCommand {
            run: Box::new(move |node| {
                *fill.lock().expect("result slot") = Some(f(node));
            }),
            publish,
            done: Box::new(move || {
                let result = slot.lock().expect("result slot").take();
                done(result.expect("command ran before completion"));
            }),
        };
        tx.send(UpdaterMsg::Command(command)).is_ok()
    }

    /// Blocking submit (backpressure instead of shedding): used by deterministic test
    /// drivers. Returns `false` if the worker's queue is closed.
    pub fn submit(&self, worker: usize, sample: Sample, time_minutes: f64) -> bool {
        self.senders[worker]
            .send(Request::new(sample, time_minutes))
            .is_ok_and(|()| {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                true
            })
    }

    /// Non-blocking submit with an explicit scheduled-arrival stamp: the open-loop
    /// generator's entry point. A full queue sheds the request.
    pub fn submit_scheduled(
        &self,
        worker: usize,
        sample: Sample,
        time_minutes: f64,
        scheduled: Instant,
    ) -> SubmitOutcome {
        let trace = self.next_trace();
        self.submit_request(
            worker,
            Request {
                sample,
                time_minutes,
                submitted: scheduled,
                reply: None,
                trace,
            },
        )
    }

    /// Allocate a local trace id and open a span for it if the sampler keeps it.
    /// `None` (no tracing, no cost beyond one branch) when telemetry is off, the
    /// sample rate is 0, or this id lost the hash draw.
    fn next_trace(&self) -> Option<TraceContext> {
        if self.sampler.rate() <= 0.0 {
            return None;
        }
        let tel = self.telemetry.as_ref()?;
        let trace_id = self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.sampler
            .decide(trace_id)
            .then(|| tel.spans.context(trace_id, 0))
    }

    /// Open a span for a trace id that arrived from elsewhere (the wire): the
    /// transport tier calls this with the driver's trace id and parent span id, and
    /// the deterministic sampler reaches the same keep/drop verdict the driver did.
    /// `None` when telemetry is off or the id is not sampled.
    #[must_use]
    pub fn trace_context(&self, trace_id: u64, parent_span_id: u64) -> Option<TraceContext> {
        if self.sampler.rate() <= 0.0 || trace_id == 0 {
            return None;
        }
        let tel = self.telemetry.as_ref()?;
        self.sampler
            .decide(trace_id)
            .then(|| tel.spans.context(trace_id, parent_span_id))
    }

    /// Drain every completed span (request spans and updater publication spans)
    /// collected since the previous drain. Empty when telemetry is off.
    #[must_use]
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        self.telemetry
            .as_ref()
            .map(|tel| tel.spans.drain())
            .unwrap_or_default()
    }

    /// Snapshot every registered histogram in mergeable (bucket-count) form — what
    /// `Frame::TraceDumpReply` ships so a cluster scraper can compute true merged
    /// P50/P99 across replicas. Empty when telemetry is off.
    #[must_use]
    pub fn scrape_histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.telemetry
            .as_ref()
            .map(|tel| tel.registry.histograms())
            .unwrap_or_default()
    }

    fn submit_request(&self, worker: usize, request: Request) -> SubmitOutcome {
        if let Some(trace) = &request.trace {
            trace.stamp(STAGE_ENQUEUED);
        }
        match self.senders[worker].try_send(request) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                SubmitOutcome::Accepted
            }
            Err(TrySendError::Full(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                if let Some(tel) = &self.telemetry {
                    tel.requests_shed.inc();
                }
                SubmitOutcome::Shed
            }
            Err(TrySendError::Disconnected(_)) => SubmitOutcome::Closed,
        }
    }

    /// Non-blocking submit stamped "now".
    pub fn try_submit(&self, worker: usize, sample: Sample, time_minutes: f64) -> SubmitOutcome {
        self.submit_scheduled(worker, sample, time_minutes, Instant::now())
    }

    /// The runtime's request router (policy from [`RuntimeConfig::routing`]).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Blocking submit routed by the runtime's [`Router`] — hash-by-user keys the queue
    /// choice off the sample's user IDs, so callers never pick a worker index by hand.
    /// Returns `false` if the routed worker's queue is closed.
    pub fn submit_routed(&self, sample: Sample, time_minutes: f64) -> bool {
        let worker = self.router.route(&sample);
        self.submit(worker, sample, time_minutes)
    }

    /// Non-blocking routed submit with an explicit scheduled-arrival stamp (the open-loop
    /// generator's routed entry point). A full queue sheds the request.
    pub fn submit_routed_scheduled(
        &self,
        sample: Sample,
        time_minutes: f64,
        scheduled: Instant,
    ) -> SubmitOutcome {
        let worker = self.router.route(&sample);
        self.submit_scheduled(worker, sample, time_minutes, scheduled)
    }

    /// Routed non-blocking submit carrying a [`ReplyTo`] — the serving worker delivers
    /// the prediction through it right after the batch is served. A shed request drops
    /// the reply path unused (the transport tier reports the shed itself). The request
    /// is traced under a locally allocated trace id when the sampler keeps it.
    pub fn submit_routed_with_reply(
        &self,
        sample: Sample,
        time_minutes: f64,
        scheduled: Instant,
        reply: ReplyTo,
    ) -> SubmitOutcome {
        let trace = self.next_trace();
        self.submit_routed_with_reply_traced(sample, time_minutes, scheduled, reply, trace)
    }

    /// Like [`Self::submit_routed_with_reply`] but with an explicit (possibly absent)
    /// span, e.g. one opened by [`Self::trace_context`] from wire-carried trace ids.
    pub fn submit_routed_with_reply_traced(
        &self,
        sample: Sample,
        time_minutes: f64,
        scheduled: Instant,
        reply: ReplyTo,
        trace: Option<TraceContext>,
    ) -> SubmitOutcome {
        let worker = self.router.route(&sample);
        self.submit_request(
            worker,
            Request {
                sample,
                time_minutes,
                submitted: scheduled,
                reply: Some(reply),
                trace,
            },
        )
    }

    /// Non-blocking routed submit stamped "now".
    pub fn try_submit_routed(&self, sample: Sample, time_minutes: f64) -> SubmitOutcome {
        self.submit_routed_scheduled(sample, time_minutes, Instant::now())
    }

    /// Close the queues, join every thread, and assemble the measured report plus the
    /// final authoritative node (reflecting all ingested traffic and update rounds).
    ///
    /// # Panics
    ///
    /// Panics if a runtime thread panicked.
    #[must_use]
    pub fn finish(mut self) -> (RuntimeReport, ServingNode) {
        // Dropping the request senders disconnects the worker queues; workers drain and
        // exit, their ingest senders drop, and — once the runtime's own command handle
        // is gone too — the updater follows.
        self.senders.clear();
        drop(self.node_tx.take());
        let mut per_worker: Vec<WorkerReport> = self
            .workers
            .drain(..)
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        let (updater_report, node) = if let Some(handle) = self.sync_worker.take() {
            let (worker_report, updater_report, node) =
                handle.join().expect("sync worker panicked");
            per_worker.push(worker_report);
            (updater_report, node)
        } else {
            let handle = self.updater.take().expect("background updater present");
            handle.join().expect("updater thread panicked")
        };
        let wall_seconds = self.started.elapsed().as_secs_f64();

        let latency = LogLinearHistogram::new();
        let mut completed = 0u64;
        let mut batches = 0u64;
        let mut corrected = 0u64;
        let mut refreshes = 0u64;
        for w in &per_worker {
            latency.merge_from(&w.latency);
            completed += w.served;
            batches += w.batches;
            corrected += w.lora_corrected_lookups;
            refreshes += w.snapshot_refreshes;
        }
        // The final registry snapshot, after every thread folded its last values in.
        let telemetry = self.scrape();
        let report = RuntimeReport {
            num_workers: self.cfg.num_workers,
            wall_seconds,
            submitted: self.submitted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            completed,
            qps: if wall_seconds > 0.0 {
                completed as f64 / wall_seconds
            } else {
                0.0
            },
            latency,
            batches,
            lora_corrected_lookups: corrected,
            snapshot_refreshes: refreshes,
            updater: updater_report,
            telemetry,
            per_worker,
        };
        (report, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liveupdate::config::LiveUpdateConfig;
    use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
    use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};

    fn tiny_node(seed: u64) -> ServingNode {
        let model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), seed);
        ServingNode::new(model, LiveUpdateConfig::default())
    }

    fn tiny_workload() -> SyntheticWorkload {
        SyntheticWorkload::new(WorkloadConfig {
            num_tables: 2,
            table_size: 200,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn serves_submitted_requests_and_reports() {
        let runtime = ServingRuntime::start(
            tiny_node(3),
            RuntimeConfig {
                num_workers: 2,
                max_batch: 8,
                batch_deadline_us: 500,
                update: UpdateMode::Disabled,
                ..RuntimeConfig::default()
            },
        );
        let mut w = tiny_workload();
        let batch = w.batch_at(0.0, 64);
        for (i, sample) in batch.iter().enumerate() {
            assert!(runtime.submit(i % 2, sample.clone(), 0.0));
        }
        assert!(
            runtime.wait_processed(64, Duration::from_secs(20)),
            "all requests must complete"
        );
        let (report, node) = runtime.finish();
        assert_eq!(report.completed, 64);
        assert_eq!(report.submitted, 64);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.latency.count(), 64);
        assert!(
            report.batches >= 8,
            "64 requests at max_batch 8 need >= 8 batches"
        );
        assert!(report.qps > 0.0);
        assert_eq!(report.num_workers, 2);
        assert_eq!(report.per_worker.len(), 2);
        // Disabled mode: no training, but all served traffic was ingested.
        assert_eq!(report.updater.update_rounds, 0);
        assert_eq!(report.updater.publications, 0);
        assert_eq!(report.updater.ingested_requests, 64);
        assert_eq!(node.buffered_records(), 64);
        assert_eq!(node.steps(), 0);
    }

    #[test]
    fn background_updater_trains_and_publishes() {
        let mut node = tiny_node(5);
        let mut w = tiny_workload();
        // Pre-fill the retention buffer so the first update round has data.
        node.serve_batch(0.0, &w.batch_at(0.0, 96));
        let initial_epoch_checksum = node.snapshot().checksum();
        let runtime = ServingRuntime::start(
            node,
            RuntimeConfig {
                num_workers: 2,
                max_batch: 16,
                batch_deadline_us: 200,
                update: UpdateMode::Background {
                    interval: Duration::from_millis(10),
                    rounds_per_update: 1,
                    batch_size: 32,
                },
                ..RuntimeConfig::default()
            },
        );
        let traffic = w.batch_at(1.0, 32);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut sent = 0u64;
        // Keep a trickle of traffic flowing until at least 3 epochs have been published.
        while runtime.publisher().epoch() < 3 {
            assert!(Instant::now() < deadline, "updater must publish within 30s");
            for (i, sample) in traffic.iter().enumerate() {
                let _ = runtime.try_submit(i % 2, sample.clone(), 1.0);
                sent += 1;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert!(sent > 0);
        let (report, node) = runtime.finish();
        assert!(report.updater.publications >= 3);
        assert_eq!(report.updater.update_rounds, report.updater.publications);
        assert!(node.steps() >= 3, "authoritative node trained");
        // The published history starts at epoch 0 with the initial snapshot.
        assert_eq!(report.updater.published[0], (0, initial_epoch_checksum));
        // Epochs are consecutive from 0.
        for (i, &(epoch, _)) in report.updater.published.iter().enumerate() {
            assert_eq!(epoch, i as u64);
        }
        // Workers adopted at least one publication between them.
        assert!(
            report.snapshot_refreshes >= 1,
            "a worker should have observed a new epoch"
        );
    }

    #[test]
    fn shedding_kicks_in_when_queues_are_full() {
        // One worker, capacity 4, and a deadline long enough that the first batch keeps
        // the worker busy while we flood the queue.
        let runtime = ServingRuntime::start(
            tiny_node(7),
            RuntimeConfig {
                num_workers: 1,
                queue_capacity: 4,
                max_batch: 4,
                batch_deadline_us: 50_000,
                update: UpdateMode::Disabled,
                ..RuntimeConfig::default()
            },
        );
        let mut w = tiny_workload();
        let batch = w.batch_at(0.0, 64);
        let mut shed = 0;
        for sample in batch.iter() {
            if runtime.try_submit(0, sample.clone(), 0.0) == SubmitOutcome::Shed {
                shed += 1;
            }
        }
        assert!(
            shed > 0,
            "a capacity-4 queue cannot absorb 64 instant arrivals"
        );
        let (report, _) = runtime.finish();
        assert_eq!(report.dropped, shed);
        assert_eq!(report.completed + report.dropped, 64);
    }

    #[test]
    fn with_node_accesses_and_publishes() {
        let runtime = ServingRuntime::start(
            tiny_node(9),
            RuntimeConfig {
                num_workers: 1,
                update: UpdateMode::Disabled,
                ..RuntimeConfig::default()
            },
        );
        // Read-only access returns a value without bumping the epoch; publishing
        // access goes through `with_node_async`
        // (`with_node_async_completes_after_publication`).
        let steps = runtime.with_node(|node| node.steps());
        assert_eq!(steps, 0);
        assert_eq!(runtime.publisher().epoch(), 0);
        let (report, _) = runtime.finish();
        assert_eq!(report.updater.publications, 0);
    }

    #[test]
    fn submit_with_reply_delivers_predictions() {
        let runtime = ServingRuntime::start(
            tiny_node(11),
            RuntimeConfig {
                num_workers: 2,
                max_batch: 8,
                batch_deadline_us: 500,
                update: UpdateMode::Disabled,
                ..RuntimeConfig::default()
            },
        );
        let mut w = tiny_workload();
        let batch = w.batch_at(0.0, 32);
        let (tx, rx) = std::sync::mpsc::channel::<f64>();
        for sample in batch.iter() {
            let tx = tx.clone();
            let reply = crate::request::ReplyTo::new(move |p| {
                let _ = tx.send(p);
            });
            let _ = runtime.submit_routed_with_reply(sample.clone(), 0.0, Instant::now(), reply);
        }
        drop(tx);
        let predictions: Vec<f64> = rx.into_iter().collect();
        let (report, node) = runtime.finish();
        assert_eq!(predictions.len() as u64, report.completed);
        assert!(predictions.iter().all(|p| (0.0..=1.0).contains(p)));
        // Replies come from the same snapshot the workers served.
        let snap = node.snapshot();
        let expected: Vec<f64> = batch.iter().map(|s| snap.predict(s)).collect();
        for p in &predictions {
            assert!(expected.iter().any(|e| (e - p).abs() < 1e-12));
        }
    }

    #[test]
    fn with_node_async_completes_after_publication() {
        let runtime = ServingRuntime::start(
            tiny_node(13),
            RuntimeConfig {
                num_workers: 1,
                update: UpdateMode::Disabled,
                ..RuntimeConfig::default()
            },
        );
        let publisher = Arc::clone(runtime.publisher());
        let before = publisher.load().1.checksum();
        let (tx, rx) = std::sync::mpsc::channel::<(usize, u64)>();
        let sent = runtime.with_node_async(
            |node| {
                node.import_lora_row(0, 3, vec![1.0; node.loras()[0].rank()]);
                node.loras()[0].active_rows()
            },
            true,
            move |active| {
                // `done` runs after the epoch swap: the publication is already visible.
                let _ = tx.send((active, publisher.epoch()));
            },
        );
        assert!(sent, "background updater accepts async commands");
        let (active, epoch_at_done) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(active, 1);
        assert_eq!(epoch_at_done, 1, "completion observes the published epoch");
        let after = runtime.publisher().load().1.checksum();
        assert_ne!(before, after, "the published snapshot reflects the import");
        let (report, node) = runtime.finish();
        assert_eq!(report.updater.publications, 1);
        assert_eq!(
            report.updater.published.len(),
            2,
            "initial + command publication"
        );
        assert!(node.loras()[0].is_active(3));
    }

    #[test]
    #[should_panic(expected = "invalid runtime configuration")]
    fn invalid_config_is_rejected() {
        let cfg = RuntimeConfig {
            num_workers: 0,
            ..RuntimeConfig::default()
        };
        let _ = ServingRuntime::start(tiny_node(1), cfg);
    }
}
