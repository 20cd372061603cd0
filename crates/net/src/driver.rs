//! The cluster driver: N TCP replicas, routed open-loop load, and socket-based sync.
//!
//! [`run_distributed`] is the multi-node arrangement of the paper made literal on
//! localhost sockets:
//!
//! * **Data plane** — the driver replays the open-loop Poisson arrival schedule
//!   (same pacer, same no-coordinated-omission discipline as
//!   [`liveupdate_runtime::loadgen`]) and routes each request to a replica with the
//!   same [`StreamSharder`] policy the in-process routers use. One pipelined
//!   connection per replica, all multiplexed on the loadgen thread itself through
//!   [`MultiConnClient`]: predictions are drained between scheduled sends, so the
//!   driver needs no per-replica reader threads and a single connection carries every
//!   in-flight request to its replica.
//! * **Control plane** — a sync thread on dedicated connections executes the
//!   strategy's update traffic as real frames: the sparse LoRA gather/merge/broadcast
//!   of Algorithm 3 for local-training strategies, top-changed-row shipments for
//!   QuickUpdate, full-model shipments for DeltaUpdate. The driver owns the shadow
//!   "training cluster" model for the parameter-shipping baselines, trained on the
//!   traffic it sends, so their training never runs on a serving node (paper
//!   Fig. 7): this driver is the one implementation of both baselines.
//!
//! Every byte number in the report is the sum of real frame lengths at the socket —
//! nothing is estimated. LiveUpdate's parameter-shipment bytes are therefore *measured*
//! zero (no parameter frame is ever sent), while its sparse LoRA exchange is reported
//! separately — the paper's near-zero-shipping claim as a wire fact.

use crate::client::MultiConnClient;
use crate::server::ReplicaServer;
use crate::wire::{read_frame, write_frame, Frame, RowUpdate, WireError};
use liveupdate::engine::ServingNode;
use liveupdate::strategy::StrategyKind;
use liveupdate::sync::{MergeAssignment, SparseLoraSync};
use liveupdate_dlrm::model::DlrmModel;
use liveupdate_dlrm::sample::{MiniBatch, Sample};
use liveupdate_obs::span::{SpanRecord, SpanRing, TraceContext, TraceSampler, STAGE_ENQUEUED};
use liveupdate_obs::{HistogramSnapshot, LogLinearHistogram};
use liveupdate_runtime::config::RuntimeConfig;
use liveupdate_runtime::policy::{LiveUpdatePolicy, UpdatePolicy};
use liveupdate_runtime::report::RuntimeReport;
use liveupdate_runtime::telemetry::PUBLICATION_TRACE_FLAG;
use liveupdate_workload::arrival::{ArrivalModel, RealTimePacer};
use liveupdate_workload::shard::{ShardPolicy, StreamSharder};
use liveupdate_workload::synthetic::SyntheticWorkload;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Parameters of one distributed run.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Number of replica servers.
    pub replicas: usize,
    /// How the driver routes requests across replicas (the same policy each replica's
    /// internal router applies across its workers).
    pub routing: ShardPolicy,
    /// Per-replica worker topology (queues, batching, routing).
    pub runtime: RuntimeConfig,
    /// The update strategy under test.
    pub strategy: StrategyKind,
    /// Wall-clock cadence of update work: replica-local update blocks for
    /// local-training strategies, driver-side shipments for parameter-pull ones.
    pub update_interval: Duration,
    /// Update rounds per cadence tick (local-training policies).
    pub rounds_per_update: usize,
    /// Mini-batch size of each local round.
    pub online_batch_size: usize,
    /// Mini-batch size of the driver's shadow trainer.
    pub training_batch_size: usize,
    /// QuickUpdate: a full-model shipment every this many ticks (0 disables).
    pub full_sync_every_ticks: usize,
    /// Mean offered load of the open-loop generator, requests/second.
    pub target_qps: f64,
    /// Wall-clock length of the measured run.
    pub duration: Duration,
    /// Simulated start time in minutes.
    pub start_minutes: f64,
    /// Seed of the arrival stream.
    pub seed: u64,
    /// Pre-generated sample pool size (request construction off the hot loop).
    pub sample_pool: usize,
}

/// Measured outcome of one distributed run. All byte fields are socket-accounted.
#[derive(Debug)]
pub struct DistributedReport {
    /// Number of replicas that served.
    pub replicas: usize,
    /// Driver wall-clock seconds, submit of the first request to the last join.
    pub wall_seconds: f64,
    /// Requests offered by the generator.
    pub offered: u64,
    /// Prediction replies received over the sockets.
    pub replies: u64,
    /// Requests shed by replica queues (reported back as `InferShed` frames).
    pub shed: u64,
    /// Requests served to completion, summed over replicas.
    pub completed: u64,
    /// Aggregate throughput: completed / wall seconds.
    pub qps: f64,
    /// Per-request latency, merged over every replica's workers (measured at the
    /// replica from frame receipt to batch completion).
    pub latency: LogLinearHistogram,
    /// Update events: local update rounds plus driver-side shipment ticks.
    pub update_events: u64,
    /// Snapshot publications, summed over replicas.
    pub publications: u64,
    /// `(epoch, checksum)` history of replica 0.
    pub publication_history: Vec<(u64, u64)>,
    /// Sync-cadence ticks the driver executed.
    pub sync_ticks: u64,
    /// Inference bytes on the wire (requests + replies, both directions).
    pub infer_bytes: u64,
    /// Sparse LoRA exchange bytes on the wire (support gathers, row pulls/pushes,
    /// `B` broadcasts, publish round-trips).
    pub lora_sync_bytes: u64,
    /// Parameter-shipment bytes on the wire (row shipments + full models).
    pub param_sync_bytes: u64,
    /// Mean of the received predictions.
    pub mean_prediction: f64,
    /// Cluster-merged telemetry rows from live `Stats`/`TraceDump` round-trips against
    /// *every* replica just before shutdown: counters summed, gauges maxed, histogram
    /// percentiles recomputed from the merged raw buckets (so the cluster P99 is the
    /// true P99 over all replicas, not an average of per-replica P99s). Empty when the
    /// replicas run with telemetry off.
    pub telemetry: Vec<(String, f64)>,
    /// Each replica's own telemetry rows from the same scrape, index-aligned with
    /// `per_replica`.
    pub per_replica_telemetry: Vec<Vec<(String, f64)>>,
    /// Driver-side request spans (stages `enqueued` = frame sent, `reply_flushed` =
    /// reply received; the middle stages live on the replica).
    pub driver_spans: Vec<SpanRecord>,
    /// Per-replica spans drained over `Frame::TraceDump`, index-aligned with
    /// `per_replica`.
    pub replica_spans: Vec<Vec<SpanRecord>>,
    /// End-to-end cross-node traces: driver-side and replica-side spans joined by
    /// trace id.
    pub traces: Vec<CrossNodeTrace>,
    /// Per-replica runtime reports.
    pub per_replica: Vec<RuntimeReport>,
}

impl DistributedReport {
    /// The cluster-level per-stage latency breakdown, read from the merged telemetry
    /// rows (same row family every backend reports; see
    /// [`liveupdate_runtime::report::stage_breakdown`]).
    #[must_use]
    pub fn breakdown(&self) -> Vec<liveupdate_runtime::report::StageLatency> {
        liveupdate_runtime::report::stage_breakdown(&self.telemetry)
    }
}

/// Scrape a live replica's telemetry over one dedicated connection: `Stats` out,
/// `StatsReply` back, then a graceful `Bye`. This is the programmatic form of what a
/// metrics collector would poll; `examples/live_stats.rs` renders the result as text.
///
/// # Errors
///
/// Socket failures, or an unexpected reply frame (`InvalidData`).
pub fn scrape_replica(addr: SocketAddr) -> std::io::Result<Vec<(String, f64)>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut conn = ControlConn { stream, bytes: 0 };
    let reply = conn
        .call(&Frame::Stats)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let _ = write_frame(&mut conn.stream, &Frame::Bye);
    let _ = conn.stream.shutdown(Shutdown::Both);
    match reply {
        Frame::StatsReply { metrics } => Ok(metrics),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected StatsReply, got {other:?}"),
        )),
    }
}

/// One replica's share of a cluster scrape.
#[derive(Debug, Default)]
pub struct ReplicaScrape {
    /// Flattened telemetry rows (`Frame::Stats`).
    pub metrics: Vec<(String, f64)>,
    /// Completed spans drained from the replica (`Frame::TraceDump`).
    pub spans: Vec<SpanRecord>,
    /// Raw histogram contents, reconstructed into mergeable snapshots.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A whole cluster's telemetry: every replica scraped, plus the merged view.
#[derive(Debug, Default)]
pub struct ClusterScrape {
    /// Each replica's scrape, index-aligned with the address list.
    pub per_replica: Vec<ReplicaScrape>,
    /// Cluster-level rows: counters summed, gauges maxed, histogram P50/P99/count
    /// recomputed from the bucket-wise merge of every replica's raw histogram.
    pub merged: Vec<(String, f64)>,
}

/// A driver-side and replica-side span joined by trace id: one request's end-to-end
/// story across the wire.
#[derive(Debug, Clone)]
pub struct CrossNodeTrace {
    /// The propagated trace id both spans carry.
    pub trace_id: u64,
    /// The driver's view (`enqueued` = frame sent, `reply_flushed` = reply received).
    pub driver_span: SpanRecord,
    /// Index of the replica that served the request.
    pub replica: usize,
    /// The replica's view (queue wait, batch wait, serve, reply flush).
    pub replica_span: SpanRecord,
}

/// Scrape *all* replicas of a live cluster — `Stats` plus `TraceDump` round-trips on a
/// dedicated connection per replica — and merge the results into cluster-level rows.
/// The merged histogram percentiles are exact: raw buckets are summed across replicas
/// before the percentile walk, never averaged after it.
///
/// # Errors
///
/// Socket failures, or an unexpected reply frame (`InvalidData`).
pub fn scrape_cluster(addrs: &[SocketAddr]) -> std::io::Result<ClusterScrape> {
    let mut per_replica = Vec::with_capacity(addrs.len());
    for &addr in addrs {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = ControlConn { stream, bytes: 0 };
        let invalid =
            |e: WireError| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
        let stats = conn.call(&Frame::Stats).map_err(invalid)?;
        let dump = conn.call(&Frame::TraceDump).map_err(invalid)?;
        let _ = write_frame(&mut conn.stream, &Frame::Bye);
        let _ = conn.stream.shutdown(Shutdown::Both);
        let (Frame::StatsReply { metrics }, Frame::TraceDumpReply { spans, histograms }) =
            (stats, dump)
        else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "expected StatsReply + TraceDumpReply",
            ));
        };
        per_replica.push(ReplicaScrape {
            metrics,
            spans,
            histograms: histograms
                .into_iter()
                .map(|(name, buckets)| (name, HistogramSnapshot::from_sparse(&buckets)))
                .collect(),
        });
    }
    let merged = merge_cluster_rows(&per_replica);
    Ok(ClusterScrape {
        per_replica,
        merged,
    })
}

/// Merge per-replica telemetry rows into cluster-level rows. `_total`/`_count`
/// suffixed rows (counters, histogram populations) sum; `_p50`/`_p99` rows are
/// recomputed from the bucket-wise merged histograms when the raw buckets are
/// available (falling back to max otherwise); everything else (gauges) takes the max.
fn merge_cluster_rows(per_replica: &[ReplicaScrape]) -> Vec<(String, f64)> {
    // Bucket-merge every histogram family first.
    let mut hists: HashMap<&str, HistogramSnapshot> = HashMap::new();
    for scrape in per_replica {
        for (name, snapshot) in &scrape.histograms {
            hists
                .entry(name.as_str())
                .and_modify(|merged| merged.merge(snapshot))
                .or_insert_with(|| snapshot.clone());
        }
    }
    let mut merged: Vec<(String, f64)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for scrape in per_replica {
        for (name, value) in &scrape.metrics {
            if let Some(&i) = index.get(name) {
                let slot = &mut merged[i].1;
                if name.ends_with("_total") || name.ends_with("_count") {
                    *slot += value;
                } else {
                    *slot = slot.max(*value);
                }
            } else {
                index.insert(name.clone(), merged.len());
                merged.push((name.clone(), *value));
            }
        }
    }
    for (name, value) in &mut merged {
        let (base, p) = if let Some(base) = name.strip_suffix("_p50") {
            (base, 0.50)
        } else if let Some(base) = name.strip_suffix("_p99") {
            (base, 0.99)
        } else {
            continue;
        };
        if let Some(percentile) = hists.get(base).and_then(|h| h.percentile(p)) {
            *value = percentile;
        }
    }
    merged.sort_by(|a, b| a.0.cmp(&b.0));
    merged
}

/// Join driver-side spans with per-replica spans by trace id. Publication spans (top
/// bit set) and unmatched spans are left out; a replica span joins only when its
/// parent span id is the driver span's id, so stale ring leftovers cannot mispair.
#[must_use]
pub fn join_traces(
    driver_spans: &[SpanRecord],
    replica_spans: &[Vec<SpanRecord>],
) -> Vec<CrossNodeTrace> {
    let by_trace: HashMap<u64, &SpanRecord> = driver_spans
        .iter()
        .filter(|span| span.trace_id & PUBLICATION_TRACE_FLAG == 0)
        .map(|span| (span.trace_id, span))
        .collect();
    let mut joined = Vec::new();
    for (replica, spans) in replica_spans.iter().enumerate() {
        for span in spans {
            if let Some(&driver_span) = by_trace.get(&span.trace_id) {
                if span.parent_span_id == driver_span.span_id {
                    joined.push(CrossNodeTrace {
                        trace_id: span.trace_id,
                        driver_span: *driver_span,
                        replica,
                        replica_span: *span,
                    });
                }
            }
        }
    }
    joined.sort_by_key(|t| t.trace_id);
    joined
}

/// Tally of the data plane's inbound frames (all connections merged), plus the
/// driver-side spans still waiting for their reply.
#[derive(Debug, Default)]
struct ReaderTally {
    replies: u64,
    shed: u64,
    prediction_sum: f64,
    /// Driver spans of in-flight traced requests, keyed by trace id. A reply closes
    /// and publishes the span; a shed request's span is simply dropped unfinished
    /// (`InferShed` carries no trace id, and a shed never reached the stages anyway).
    inflight: HashMap<u64, TraceContext>,
}

impl ReaderTally {
    fn record(&mut self, frame: &Frame) {
        match frame {
            Frame::InferReply {
                prediction,
                trace_id,
                ..
            } => {
                self.replies += 1;
                self.prediction_sum += prediction;
                if *trace_id != 0 {
                    if let Some(trace) = self.inflight.remove(trace_id) {
                        trace.stamp(liveupdate_obs::span::STAGE_REPLY_FLUSHED);
                        trace.finish();
                    }
                }
            }
            Frame::InferShed { .. } => self.shed += 1,
            _ => {}
        }
    }
}

/// What the sync thread hands back when joined.
struct SyncOutcome {
    ticks: u64,
    lora_bytes: u64,
    param_bytes: u64,
}

/// Run `cfg.replicas` TCP replica servers from identical `nodes`, drive them with
/// routed open-loop load, execute the strategy's sync traffic on the wire, and return
/// the measured report plus each replica's final authoritative node.
///
/// `day1_model` seeds the driver-side shadow trainer for parameter-shipping strategies
/// (it is unused for local-training ones).
///
/// # Errors
///
/// Propagates socket-setup failures.
///
/// # Panics
///
/// Panics if `nodes.len() != cfg.replicas`, a configuration is invalid, or a runtime /
/// server thread panicked.
pub fn run_distributed(
    nodes: Vec<ServingNode>,
    day1_model: &DlrmModel,
    workload: &mut SyntheticWorkload,
    cfg: &DistributedConfig,
) -> std::io::Result<(DistributedReport, Vec<ServingNode>)> {
    assert_eq!(
        nodes.len(),
        cfg.replicas,
        "one node per replica is required"
    );
    assert!(cfg.replicas > 0, "at least one replica is required");
    assert!(cfg.sample_pool > 0, "sample pool must be non-empty");

    // --- replica servers -------------------------------------------------------------
    let mut servers = Vec::with_capacity(cfg.replicas);
    for node in nodes {
        // Local-training strategies run LiveUpdate on the replica's updater thread;
        // the others run ingest-only and receive shipments as frames.
        let policy = cfg.strategy.trains_locally().then(|| {
            Box::new(LiveUpdatePolicy {
                rounds_per_update: cfg.rounds_per_update,
                batch_size: cfg.online_batch_size,
            }) as Box<dyn UpdatePolicy>
        });
        servers.push(ReplicaServer::start(
            node,
            cfg.runtime.clone(),
            cfg.update_interval,
            policy,
        )?);
    }
    let addrs: Vec<SocketAddr> = servers.iter().map(ReplicaServer::addr).collect();

    // --- data plane ------------------------------------------------------------------
    // One pipelined connection per replica, multiplexed on this thread: replies drain
    // between scheduled sends, so no reader threads exist on the driver side either.
    let mut data = MultiConnClient::connect_each(&addrs)?;
    let mut tally = ReaderTally::default();

    // Driver-side tracing: the same deterministic sampler the replicas run, so both
    // ends keep exactly the same trace ids; the driver's ring holds its half of each
    // cross-node trace (send → reply receipt).
    let sampler = TraceSampler::new(cfg.runtime.trace_sample_rate);
    let driver_ring = (cfg.runtime.telemetry && sampler.rate() > 0.0)
        .then(|| Arc::new(SpanRing::new(liveupdate_runtime::telemetry::SPAN_CAPACITY)));

    // --- control plane ---------------------------------------------------------------
    let stop = Arc::new(AtomicBool::new(false));
    let (traffic_tx, traffic_rx) = channel::<Sample>();
    let sync_thread = spawn_sync_thread(&addrs, cfg, day1_model, &stop, traffic_rx)?;
    // Only the parameter-pull baselines keep a shadow trainer; otherwise drop the
    // sender so the sync thread's drain is a no-op.
    let traffic_tx = if needs_shadow_trainer(cfg.strategy) {
        Some(traffic_tx)
    } else {
        None
    };

    // --- open-loop load --------------------------------------------------------------
    let mut pacer = RealTimePacer::for_target_qps(
        ArrivalModel::default(),
        cfg.target_qps,
        cfg.start_minutes,
        cfg.seed,
    );
    let sim_span_minutes = cfg.duration.as_secs_f64() * pacer.sim_minutes_per_wall_second();
    let pool: Vec<Sample> = (0..cfg.sample_pool)
        .map(|i| {
            let t = cfg.start_minutes + sim_span_minutes * (i as f64 / cfg.sample_pool as f64);
            workload.sample_at(t)
        })
        .collect();

    let started = Instant::now();
    let mut offered = 0u64;
    let mut infer_bytes_out = 0u64;
    let mut next_id = 0u64;
    let mut pool_cursor = 0usize;
    let mut sharder = StreamSharder::new(cfg.routing, cfg.replicas);
    loop {
        let (offset, sim_minutes) = pacer.next_arrival();
        if offset >= cfg.duration {
            break;
        }
        // Until this request's scheduled instant, drain whatever replies arrived.
        loop {
            let now = started.elapsed();
            if offset <= now {
                break;
            }
            let remaining = offset - now;
            if remaining >= Duration::from_millis(1) {
                let wait_ms = i32::try_from(remaining.as_millis().min(10))
                    .unwrap_or(10)
                    .max(1);
                let _ = data.poll(wait_ms, |_, frame| tally.record(&frame));
            } else {
                thread::sleep(remaining);
            }
        }
        let sample = pool[pool_cursor % pool.len()].clone();
        pool_cursor += 1;
        let replica = sharder.shard_of(&sample);
        if let Some(tx) = &traffic_tx {
            let _ = tx.send(sample.clone());
        }
        // Trace ids are the correlation ids shifted off zero (0 = untraced on the
        // wire). The span opens here and closes when the reply frame arrives.
        let trace_id = next_id + 1;
        let trace = driver_ring
            .as_ref()
            .filter(|_| sampler.decide(trace_id))
            .map(|ring| ring.context(trace_id, 0));
        let (wire_trace_id, parent_span_id) = trace
            .as_ref()
            .map_or((0, 0), |trace| (trace_id, trace.span_id));
        let frame = Frame::InferRequest {
            id: next_id,
            time_minutes: sim_minutes,
            trace_id: wire_trace_id,
            parent_span_id,
            sample,
        };
        if let Some(trace) = trace {
            trace.stamp(STAGE_ENQUEUED);
            tally.inflight.insert(trace_id, trace);
        }
        next_id += 1;
        offered += 1;
        match data.send(replica, &frame) {
            Ok(0) => break, // replica gone; the run is over
            Ok(n) => infer_bytes_out += n as u64,
            Err(_) => break, // degenerate frame; the run is over
        }
    }
    drop(traffic_tx);

    // --- teardown --------------------------------------------------------------------
    // Close the write direction so replicas see EOF once their queues drain, then keep
    // polling: the server's reply-exact teardown holds each connection open until every
    // in-flight reply has flushed, and closes it only then.
    for replica in 0..cfg.replicas {
        data.finish_sending(replica);
    }
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while data.open_count() > 0 && Instant::now() < drain_deadline {
        let _ = data.poll(50, |_, frame| tally.record(&frame));
    }
    let infer_bytes_in = data.delivered_bytes();
    drop(data);

    stop.store(true, Ordering::Release);
    let sync = sync_thread.join().expect("sync thread panicked");
    let wall_seconds = started.elapsed().as_secs_f64();

    // Scrape the whole cluster while it is still serving: the report's telemetry rows
    // come from real `Stats`/`TraceDump` round-trips against every live server — per
    // replica and bucket-merged — not from the post-mortem.
    let cluster = scrape_cluster(&addrs).unwrap_or_default();
    let driver_spans = driver_ring.as_ref().map(|r| r.drain()).unwrap_or_default();
    let replica_spans: Vec<Vec<SpanRecord>> = cluster
        .per_replica
        .iter()
        .map(|scrape| scrape.spans.clone())
        .collect();
    let traces = join_traces(&driver_spans, &replica_spans);

    let mut reports = Vec::with_capacity(cfg.replicas);
    let mut final_nodes = Vec::with_capacity(cfg.replicas);
    for server in servers {
        let (report, node) = server.shutdown();
        reports.push(report);
        final_nodes.push(node);
    }

    let latency = LogLinearHistogram::new();
    let mut completed = 0u64;
    let mut publications = 0u64;
    let mut update_events = sync.ticks * u64::from(!cfg.strategy.trains_locally());
    for report in &reports {
        latency.merge_from(&report.latency);
        completed += report.completed;
        publications += report.updater.publications;
        update_events += report.updater.update_rounds;
    }
    let ReaderTally {
        replies,
        shed,
        prediction_sum,
        ..
    } = tally;
    let infer_bytes = infer_bytes_out + infer_bytes_in;

    let report = DistributedReport {
        replicas: cfg.replicas,
        wall_seconds,
        offered,
        replies,
        shed,
        completed,
        qps: if wall_seconds > 0.0 {
            completed as f64 / wall_seconds
        } else {
            0.0
        },
        latency,
        update_events,
        publications,
        publication_history: reports
            .first()
            .map(|r| r.updater.published.clone())
            .unwrap_or_default(),
        sync_ticks: sync.ticks,
        infer_bytes,
        lora_sync_bytes: sync.lora_bytes,
        param_sync_bytes: sync.param_bytes,
        mean_prediction: if replies > 0 {
            prediction_sum / replies as f64
        } else {
            0.0
        },
        telemetry: cluster.merged,
        per_replica_telemetry: cluster
            .per_replica
            .into_iter()
            .map(|scrape| scrape.metrics)
            .collect(),
        driver_spans,
        replica_spans,
        traces,
        per_replica: reports,
    };
    Ok((report, final_nodes))
}

/// One control connection with socket-accounted byte tallies.
struct ControlConn {
    stream: TcpStream,
    bytes: u64,
}

impl ControlConn {
    /// Send one frame and read its reply, tallying both directions.
    fn call(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        self.bytes += write_frame(&mut self.stream, frame)? as u64;
        self.stream.flush()?;
        match read_frame(&mut self.stream)? {
            Some((reply, n)) => {
                self.bytes += n as u64;
                Ok(reply)
            }
            None => Err(WireError::Truncated),
        }
    }
}

/// Spawn the control-plane thread: dedicated connections, the shadow trainer for
/// parameter-pull strategies, and the per-tick sync protocol.
fn spawn_sync_thread(
    addrs: &[SocketAddr],
    cfg: &DistributedConfig,
    day1_model: &DlrmModel,
    stop: &Arc<AtomicBool>,
    traffic_rx: Receiver<Sample>,
) -> std::io::Result<JoinHandle<SyncOutcome>> {
    let mut conns = Vec::with_capacity(addrs.len());
    for addr in addrs {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        conns.push(ControlConn { stream, bytes: 0 });
    }
    let cfg = cfg.clone();
    let stop = Arc::clone(stop);
    let shadow_seed = day1_model.clone();
    Ok(thread::Builder::new()
        .name("lu-net-sync".into())
        .spawn(move || run_sync_loop(conns, &cfg, shadow_seed, &stop, &traffic_rx))
        .expect("spawn sync thread"))
}

/// Whether a strategy's driver side keeps a shadow "training cluster" model.
fn needs_shadow_trainer(strategy: StrategyKind) -> bool {
    matches!(
        strategy,
        StrategyKind::QuickUpdate { .. } | StrategyKind::DeltaUpdate
    )
}

/// The control-plane loop: drain shadow traffic, tick on the cadence, ship frames.
fn run_sync_loop(
    mut conns: Vec<ControlConn>,
    cfg: &DistributedConfig,
    day1_model: DlrmModel,
    stop: &AtomicBool,
    traffic_rx: &Receiver<Sample>,
) -> SyncOutcome {
    // The shadow "training cluster" of the parameter-pull baselines, plus the last
    // shipped state QuickUpdate diffs against.
    let mut shadow = if needs_shadow_trainer(cfg.strategy) {
        Some(day1_model.clone())
    } else {
        None
    };
    let mut last_shipped = shadow.clone();
    let mut pending: Vec<Sample> = Vec::new();
    let mut ticks = 0u64;
    let mut lora_bytes = 0u64;
    let mut param_bytes = 0u64;
    let mut last_tick = Instant::now();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        while let Ok(sample) = traffic_rx.try_recv() {
            pending.push(sample);
        }
        if let Some(shadow) = shadow.as_mut() {
            if !pending.is_empty() {
                let batch = MiniBatch::new(std::mem::take(&mut pending));
                for chunk in batch.chunks(cfg.training_batch_size.max(1)) {
                    if !chunk.is_empty() {
                        shadow.train_batch(&chunk);
                    }
                }
            }
        }
        if !matches!(cfg.strategy, StrategyKind::NoUpdate)
            && last_tick.elapsed() >= cfg.update_interval
        {
            ticks += 1;
            match cfg.strategy {
                StrategyKind::LiveUpdate | StrategyKind::LiveUpdateFixedRank { .. } => {
                    lora_bytes += sparse_lora_sync_tick(&mut conns);
                }
                StrategyKind::QuickUpdate { fraction } => {
                    let full = cfg.full_sync_every_ticks > 0
                        && ticks.is_multiple_of(cfg.full_sync_every_ticks as u64);
                    let shadow = shadow.as_ref().expect("shadow trainer");
                    let last_shipped = last_shipped.as_mut().expect("last shipped state");
                    param_bytes += if full {
                        // The full sync replaces everything the replicas hold, so the
                        // next quick tick must diff against the full shadow state.
                        *last_shipped = shadow.clone();
                        full_model_tick(&mut conns, shadow)
                    } else {
                        quick_rows_tick(&mut conns, shadow, last_shipped, fraction)
                    };
                }
                StrategyKind::DeltaUpdate => {
                    param_bytes +=
                        full_model_tick(&mut conns, shadow.as_ref().expect("shadow trainer"));
                }
                StrategyKind::NoUpdate => {}
            }
            last_tick = Instant::now();
        }
        if stopping {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    for conn in &mut conns {
        let _ = write_frame(&mut conn.stream, &Frame::Bye);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    let conn_bytes: u64 = conns.iter().map(|c| c.bytes).sum();
    // Attribute the per-connection tallies to whichever plane this strategy uses; the
    // per-tick sums above already hold the same total, so just reconcile.
    debug_assert_eq!(conn_bytes, lora_bytes + param_bytes);
    SyncOutcome {
        ticks,
        lora_bytes,
        param_bytes,
    }
}

/// One sparse LoRA synchronisation over sockets (Algorithm 3 as frames): gather each
/// replica's support, compute the deterministic priority merge, pull winning rows from
/// their owners, push them to everyone else, broadcast each touched table's `B` factor
/// from its priority root, and publish. Returns the tick's wire bytes. One replica has
/// no peer to agree with and publishes its own update blocks, so it sends nothing.
fn sparse_lora_sync_tick(conns: &mut [ControlConn]) -> u64 {
    let num_ranks = conns.len();
    if num_ranks < 2 {
        return 0;
    }
    let before: u64 = conns.iter().map(|c| c.bytes).sum();
    let mut sync = SparseLoraSync::new(num_ranks);
    for (rank, conn) in conns.iter_mut().enumerate() {
        match conn.call(&Frame::PullSupport) {
            Ok(Frame::Support { rows }) => {
                for (table, row) in rows {
                    sync.record_update(rank, table as usize, row as usize);
                }
            }
            _ => return conns.iter().map(|c| c.bytes).sum::<u64>() - before,
        }
    }
    let plan = sync.merge_plan();
    let table_winners = sync.table_winners();
    if plan.is_empty() {
        return conns.iter().map(|c| c.bytes).sum::<u64>() - before;
    }

    // Pull every winning row from its owner, batched per rank.
    let mut per_winner: Vec<Vec<(u32, u64)>> = vec![Vec::new(); num_ranks];
    for &MergeAssignment { table, row, winner } in &plan {
        per_winner[winner].push((table as u32, row as u64));
    }
    let mut merged: Vec<RowUpdate> = Vec::with_capacity(plan.len());
    let mut winner_of: Vec<usize> = Vec::with_capacity(plan.len());
    for (winner, wanted) in per_winner.iter().enumerate() {
        if wanted.is_empty() {
            continue;
        }
        if let Ok(Frame::LoraRows { rows }) = conns[winner].call(&Frame::PullLoraRows {
            rows: wanted.clone(),
        }) {
            for row in rows {
                merged.push(row);
                winner_of.push(winner);
            }
        }
    }

    // Push the merged rows to every rank that does not already own them.
    for (rank, conn) in conns.iter_mut().enumerate() {
        let rows: Vec<RowUpdate> = merged
            .iter()
            .zip(&winner_of)
            .filter(|(_, &winner)| winner != rank)
            .map(|(row, _)| row.clone())
            .collect();
        if !rows.is_empty() {
            let _ = conn.call(&Frame::PushLoraRows { rows });
        }
    }

    // Broadcast each touched table's B factor from its priority root.
    for (table, winner) in table_winners {
        if let Ok(Frame::BFactor {
            table,
            source_rank,
            values,
        }) = conns[winner].call(&Frame::PullB {
            table: table as u32,
        }) {
            for (rank, conn) in conns.iter_mut().enumerate() {
                if rank != winner {
                    let _ = conn.call(&Frame::PushB {
                        table,
                        source_rank,
                        values: values.clone(),
                    });
                }
            }
        }
    }

    // Rematerialise + epoch-swap on every replica so the merge becomes serving-visible.
    for conn in conns.iter_mut() {
        let _ = conn.call(&Frame::Publish);
    }
    conns.iter().map(|c| c.bytes).sum::<u64>() - before
}

/// Ship the shadow trainer's full parameter vector to every replica (DeltaUpdate, and
/// QuickUpdate's periodic drift-bounding sync). Returns the tick's wire bytes.
fn full_model_tick(conns: &mut [ControlConn], shadow: &DlrmModel) -> u64 {
    let before: u64 = conns.iter().map(|c| c.bytes).sum();
    let params = shadow.export_parameters();
    for conn in conns.iter_mut() {
        let _ = conn.call(&Frame::FullModel {
            params: params.clone(),
        });
    }
    conns.iter().map(|c| c.bytes).sum::<u64>() - before
}

/// Ship the top `fraction` of rows by parameter change since the last shipment
/// (QuickUpdate-α% as frames). Returns the tick's wire bytes.
fn quick_rows_tick(
    conns: &mut [ControlConn],
    shadow: &DlrmModel,
    last_shipped: &mut DlrmModel,
    fraction: f64,
) -> u64 {
    let before: u64 = conns.iter().map(|c| c.bytes).sum();
    // `pull_top_changed_rows` both selects the rows and folds them into the
    // last-shipped state, so the next tick diffs against what replicas actually hold.
    let pulled = last_shipped.pull_top_changed_rows(shadow, fraction);
    let mut rows = Vec::new();
    for (table, indices) in pulled.iter().enumerate() {
        for &row in indices {
            rows.push(RowUpdate {
                table: table as u32,
                row: row as u64,
                values: shadow.table(table).row(row).to_vec(),
            });
        }
    }
    if rows.is_empty() {
        return 0;
    }
    for conn in conns.iter_mut() {
        let _ = conn.call(&Frame::PushEmbeddingRows { rows: rows.clone() });
    }
    conns.iter().map(|c| c.bytes).sum::<u64>() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use liveupdate::config::LiveUpdateConfig;
    use liveupdate_dlrm::model::DlrmConfig;
    use liveupdate_runtime::config::UpdateMode;
    use liveupdate_workload::WorkloadConfig;

    /// Serve each node from a live update-disabled replica, run `tick` over one control
    /// connection per replica, and return the tick's wire bytes and the nodes the
    /// replicas hold after shutdown.
    fn tick_on_replicas(
        nodes: Vec<ServingNode>,
        tick: impl FnOnce(&mut [ControlConn]) -> u64,
    ) -> (u64, Vec<ServingNode>) {
        let runtime = RuntimeConfig {
            num_workers: 1,
            update: UpdateMode::Disabled,
            ..RuntimeConfig::default()
        };
        let servers: Vec<ReplicaServer> = nodes
            .into_iter()
            .map(|node| {
                ReplicaServer::start(node, runtime.clone(), Duration::from_millis(50), None)
                    .expect("start replica")
            })
            .collect();
        let mut conns: Vec<ControlConn> = servers
            .iter()
            .map(|server| ControlConn {
                stream: TcpStream::connect(server.addr()).expect("connect"),
                bytes: 0,
            })
            .collect();
        let bytes = tick(&mut conns);
        for conn in &mut conns {
            let _ = write_frame(&mut conn.stream, &Frame::Bye);
        }
        drop(conns);
        (bytes, servers.into_iter().map(|s| s.shutdown().1).collect())
    }

    /// Every base and serving parameter of `wire` and `reference`, compared as bits.
    fn assert_same_parameters(wire: &ServingNode, reference: &ServingNode, step: &str) {
        let bits = |m: &DlrmModel| -> Vec<u64> {
            m.export_parameters().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(wire.base_model()),
            bits(reference.base_model()),
            "base model after {step}"
        );
        assert_eq!(
            bits(wire.serving_model()),
            bits(reference.serving_model()),
            "serving model after {step}"
        );
    }

    /// The driver's parameter shipments are the only implementation of QuickUpdate and
    /// DeltaUpdate; they must apply the in-process transfer rules exactly. One
    /// `quick_rows_tick` equals `pull_top_changed_rows` + `apply_embedding_row_pull` on
    /// a clone, and one `full_model_tick` equals `full_sync`.
    #[test]
    fn wire_parameter_shipments_match_the_in_process_pulls_bit_for_bit() {
        let model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), 43);
        let mut workload = SyntheticWorkload::new(WorkloadConfig {
            num_tables: 2,
            table_size: 200,
            ..WorkloadConfig::default()
        });
        let traffic = workload.batch_at(0.0, 96);
        // A node with live LoRA corrections, which shipped rows must keep on top.
        let mut node = ServingNode::new(model.clone(), LiveUpdateConfig::default());
        node.serve_batch(0.0, &traffic);
        for round in 0..3 {
            node.online_update_round(1.0 + f64::from(round), 32);
        }
        // The shadow "training cluster" learns from the same traffic.
        let mut shadow = model.clone();
        for chunk in traffic.chunks(32) {
            shadow.train_batch(&chunk);
        }
        let mut reference = node.clone();

        let mut last_shipped = model.clone();
        let (bytes, nodes) = tick_on_replicas(vec![node], |conns| {
            quick_rows_tick(conns, &shadow, &mut last_shipped, 0.1)
        });
        assert!(bytes > 0);
        let mut reference_shipped = model.clone();
        let pulled = reference_shipped.pull_top_changed_rows(&shadow, 0.1);
        assert!(
            pulled.iter().all(|rows| rows.len() == 20),
            "10 % of 200 rows per table"
        );
        assert!(
            pulled
                .iter()
                .enumerate()
                .any(|(t, rows)| rows.iter().any(|&r| reference.loras()[t].is_active(r))),
            "some shipped row carries a live LoRA correction"
        );
        for (table, rows) in pulled.iter().enumerate() {
            for &row in rows {
                reference.apply_embedding_row_pull(table, row, shadow.table(table).row(row));
            }
        }
        assert_eq!(last_shipped, reference_shipped, "the driver's diff state");
        assert_same_parameters(&nodes[0], &reference, "a quick tick");

        let (bytes, nodes) = tick_on_replicas(nodes, |conns| full_model_tick(conns, &shadow));
        assert!(bytes > 0);
        reference.full_sync(shadow.clone());
        assert_same_parameters(&nodes[0], &reference, "a full-model tick");
        assert!(nodes[0].lora_support().is_empty(), "a full sync drops LoRA");
    }

    /// The socket sync and the in-process merge are two implementations of Algorithm 3.
    /// Run on identical replicas, they must leave bit-identical state on the merged
    /// support: `A` rows, `B` factors, serving rows and predictions.
    #[test]
    fn wire_sync_matches_the_in_process_merge_bit_for_bit() {
        let model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), 41);
        let mut workload = SyntheticWorkload::new(WorkloadConfig {
            num_tables: 2,
            table_size: 200,
            ..WorkloadConfig::default()
        });
        // Three replicas from one checkpoint, each trained on its own shard. A few
        // rounds stay far below the rank-adaptation interval, so the ranks agree and
        // the merge can make the replicas exactly equal on the support.
        let nodes: Vec<ServingNode> = (0..3)
            .map(|_| {
                let mut node = ServingNode::new(model.clone(), LiveUpdateConfig::default());
                node.serve_batch(0.0, &workload.batch_at(0.0, 96));
                for round in 0..3 {
                    node.online_update_round(1.0 + f64::from(round), 32);
                }
                node
            })
            .collect();
        let ranks = nodes[0].current_ranks();
        assert!(nodes.iter().all(|n| n.current_ranks() == ranks));
        let mut reference = nodes.clone();

        // The wire: one sync tick, after gathering the support it will merge.
        let mut sync = SparseLoraSync::new(nodes.len());
        let (bytes, synced) = tick_on_replicas(nodes, |conns| {
            for (rank, conn) in conns.iter_mut().enumerate() {
                let Ok(Frame::Support { rows }) = conn.call(&Frame::PullSupport) else {
                    panic!("replica {rank} did not report its support");
                };
                for (table, row) in rows {
                    sync.record_update(rank, table as usize, row as usize);
                }
            }
            sparse_lora_sync_tick(conns)
        });
        assert!(bytes > 0);

        // The reference: the in-process merge over the support the servers reported.
        let (_, plan) = sync.synchronize_peers(&mut reference);
        assert!(
            !plan.is_empty(),
            "the replicas trained, so the plan is not empty"
        );

        let mut probe_ids: Vec<Vec<usize>> = vec![Vec::new(); 2];
        for m in &plan {
            let (table, row) = (m.table, m.row);
            let a_row = synced[0].export_lora_row(table, row);
            let serving_row = synced[0].serving_model().table(table).row(row).to_vec();
            for (rank, (wire, reference)) in synced.iter().zip(&reference).enumerate() {
                for node in [wire, reference] {
                    assert_eq!(
                        node.export_lora_row(table, row),
                        a_row,
                        "A row {m:?} on rank {rank}"
                    );
                    assert_eq!(
                        node.serving_model().table(table).row(row),
                        &serving_row[..],
                        "serving row {m:?} on rank {rank}"
                    );
                }
            }
            if probe_ids[table].len() < 2 {
                probe_ids[table].push(row);
            }
        }
        for table in 0..2 {
            let b = synced[0].loras()[table].b();
            for node in synced.iter().chain(&reference) {
                assert_eq!(node.loras()[table].b(), b, "B factor of table {table}");
            }
        }

        // A request that touches only merged rows gets one prediction everywhere.
        let probe = Sample::new(vec![0.25, -0.5], probe_ids, 0.0);
        let prediction = synced[0].predict(&probe).to_bits();
        for node in synced.iter().chain(&reference) {
            assert_eq!(node.predict(&probe).to_bits(), prediction);
        }
    }
}
