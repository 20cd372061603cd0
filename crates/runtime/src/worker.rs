//! Worker (inference) threads.
//!
//! A worker owns one bounded request queue. Its loop is: coalesce a batch (deadline
//! batcher), adopt the latest published snapshot (one atomic load on the fast path),
//! serve the batch read-only, record per-request latencies, and hand the served traffic
//! to the updater over the ingest channel. The worker never takes a lock that the
//! trainer holds — snapshot adoption is the epoch swap's `Arc` clone, and everything
//! else is thread-local, including the inference scratch and predictions buffer a
//! worker keeps across batches. Each worker asks once for a short scheduler slice
//! ([`crate::sched`]) so that a request preempts the trainer. Telemetry follows the
//! same discipline: every instrumented point is a relaxed atomic op on a
//! pre-registered handle, and a runtime started with `telemetry: false` skips even
//! those behind one predictable branch.

use crate::batcher::{next_batch, BatcherConfig};
use crate::epoch::{EpochPublisher, EpochReader};
use crate::report::{UpdaterReport, WorkerReport};
use crate::request::{ReplyTo, Request};
use crate::telemetry::Telemetry;
use crate::updater::{IngestBatch, UpdaterMsg};
use liveupdate::engine::ServingNode;
use liveupdate::snapshot::ServingSnapshot;
use liveupdate_dlrm::model::InferenceScratch;
use liveupdate_dlrm::sample::MiniBatch;
use liveupdate_obs::span::{
    STAGE_BATCH_CLOSED, STAGE_REPLY_FLUSHED, STAGE_SERVE_DONE, STAGE_SERVE_START,
};
use liveupdate_obs::TraceContext;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// A closed batch split into its index-aligned parts (instants, reply paths, trace
/// contexts all stay aligned with the mini-batch samples).
struct Unpacked {
    submitted: Vec<Instant>,
    replies: Vec<Option<ReplyTo>>,
    traces: Vec<Option<TraceContext>>,
    /// Sim-time high-water mark of the batch's requests.
    time_minutes: f64,
    mini_batch: MiniBatch,
}

/// Split a closed batch, stamping `batch_closed` on every traced request (the batcher
/// just closed the deadline window that held them).
fn unpack(batch: Vec<Request>) -> Unpacked {
    let mut submitted = Vec::with_capacity(batch.len());
    let mut replies = Vec::with_capacity(batch.len());
    let mut traces = Vec::with_capacity(batch.len());
    let mut time_minutes = f64::NEG_INFINITY;
    let mut samples = Vec::with_capacity(batch.len());
    for request in batch {
        if let Some(trace) = &request.trace {
            trace.stamp(STAGE_BATCH_CLOSED);
        }
        submitted.push(request.submitted);
        replies.push(request.reply);
        traces.push(request.trace);
        time_minutes = time_minutes.max(request.time_minutes);
        samples.push(request.sample);
    }
    Unpacked {
        submitted,
        replies,
        traces,
        time_minutes,
        mini_batch: MiniBatch::new(samples),
    }
}

/// Stamp `reply_flushed`, fold the span's stage gaps into the per-stage latency
/// histograms, and publish the completed span into the ring.
fn finish_span(trace: TraceContext, telemetry: Option<&Telemetry>) {
    trace.stamp(STAGE_REPLY_FLUSHED);
    if let Some(tel) = telemetry {
        let record = trace.record();
        for (i, hist) in tel.stage_us.iter().enumerate() {
            if let (Some(a), Some(b)) = (record.stage_us(i), record.stage_us(i + 1)) {
                hist.record(b.saturating_sub(a) as f64);
            }
        }
    }
    trace.finish();
}

/// A worker's serve buffers, kept across batches so a warm batch allocates nothing
/// for inference.
#[derive(Default)]
struct ServeBuffers {
    scratch: InferenceScratch,
    predictions: Vec<f64>,
}

/// Serve one mini-batch from `snapshot`, fold the results into `report`, deliver
/// each prediction to any submitter that attached a reply path, and finish each
/// traced request's span right after its reply is handed off.
#[allow(clippy::too_many_arguments)]
fn serve_and_record(
    snapshot: &ServingSnapshot,
    buffers: &mut ServeBuffers,
    mini_batch: &MiniBatch,
    submitted: &[Instant],
    replies: Vec<Option<ReplyTo>>,
    traces: Vec<Option<TraceContext>>,
    report: &mut WorkerReport,
    telemetry: Option<&Telemetry>,
) {
    for trace in traces.iter().flatten() {
        trace.stamp(STAGE_SERVE_START);
    }
    let serve =
        snapshot.serve_batch_into(mini_batch, &mut buffers.scratch, &mut buffers.predictions);
    let completion = Instant::now();
    for trace in traces.iter().flatten() {
        trace.stamp(STAGE_SERVE_DONE);
    }
    for &instant in submitted {
        let ms = completion.saturating_duration_since(instant).as_secs_f64() * 1e3;
        report.latency.record(ms);
        if let Some(tel) = telemetry {
            // The per-request hot-path cost of live telemetry: one relaxed increment.
            tel.serve_latency_us.record(ms * 1e3);
        }
    }
    for ((reply, trace), &prediction) in replies.into_iter().zip(traces).zip(&buffers.predictions) {
        if let Some(reply) = reply {
            reply.complete(prediction);
        }
        if let Some(trace) = trace {
            finish_span(trace, telemetry);
        }
    }
    report.served += serve.requests as u64;
    report.batches += 1;
    report.lora_corrected_lookups += serve.lora_corrected_lookups as u64;
    report.prediction_sum += serve.mean_prediction * serve.requests as f64;
}

/// Per-worker freshness accounting: requests served from the current epoch, and the
/// histograms they feed when the epoch moves.
struct EpochTally {
    requests_this_epoch: u64,
}

impl EpochTally {
    fn new() -> Self {
        Self {
            requests_this_epoch: 0,
        }
    }

    /// Call right after `reader.refresh()`: when a new snapshot was adopted, record
    /// the publication-to-first-serve lag and close out the previous epoch's request
    /// count.
    fn on_refresh(
        &mut self,
        adopted: bool,
        reader: &EpochReader<ServingSnapshot>,
        tel: &Telemetry,
    ) {
        if !adopted {
            return;
        }
        tel.publish_to_first_serve_us
            .record(reader.publish_age_us() as f64);
        if self.requests_this_epoch > 0 {
            tel.requests_per_epoch
                .record(self.requests_this_epoch as f64);
        }
        self.requests_this_epoch = 0;
    }

    /// Flush the final epoch's request count at worker exit.
    fn finish(&mut self, tel: &Telemetry) {
        if self.requests_this_epoch > 0 {
            tel.requests_per_epoch
                .record(self.requests_this_epoch as f64);
        }
    }
}

/// Record the per-batch serve metrics (occupancy, duration, counters).
fn record_batch(tel: &Telemetry, n: usize, serve_us: u64) {
    tel.batches_total.inc();
    tel.requests_total.add(n as u64);
    tel.batch_occupancy.record(n as f64);
    tel.serve_batch_us.record(serve_us as f64);
}

/// The standard worker loop (Background / Disabled update modes): serve from the
/// published snapshot, forward served traffic to the updater. Runs until the request
/// channel is disconnected and drained.
pub(crate) fn run_worker(
    rx: &Receiver<Request>,
    batcher: &BatcherConfig,
    mut reader: EpochReader<ServingSnapshot>,
    ingest_tx: &Sender<UpdaterMsg>,
    processed: &AtomicU64,
    telemetry: Option<&Telemetry>,
) -> WorkerReport {
    crate::sched::prefer_short_slice();
    let mut report = WorkerReport::default();
    let mut tally = EpochTally::new();
    let mut buffers = ServeBuffers::default();
    while let Some(batch) = next_batch(rx, batcher) {
        let adopted = reader.refresh();
        if let Some(tel) = telemetry {
            tally.on_refresh(adopted, &reader, tel);
        }
        let Unpacked {
            submitted,
            replies,
            traces,
            time_minutes,
            mini_batch,
        } = unpack(batch);
        let n = mini_batch.len();
        let serve_started = Instant::now();
        serve_and_record(
            reader.get(),
            &mut buffers,
            &mini_batch,
            &submitted,
            replies,
            traces,
            &mut report,
            telemetry,
        );
        if let Some(tel) = telemetry {
            let serve_us = u64::try_from(serve_started.elapsed().as_micros()).unwrap_or(u64::MAX);
            record_batch(tel, n, serve_us);
            tally.requests_this_epoch += n as u64;
        }
        // The updater owns the mutable node; served traffic reaches its retention
        // buffer through this channel. If the updater is gone the run is shutting
        // down — serving continues, ingestion is simply dropped.
        let _ = ingest_tx.send(UpdaterMsg::Ingest(IngestBatch {
            time_minutes,
            batch: mini_batch,
        }));
        processed.fetch_add(submitted.len() as u64, Ordering::Release);
    }
    if let Some(tel) = telemetry {
        tally.finish(tel);
    }
    report.snapshot_refreshes = reader.refreshes();
    report.last_epoch = reader.epoch();
    report
}

/// The synchronous single-worker loop: the worker itself owns the authoritative node,
/// ingests inline, trains every `every_batches` batches, and publishes after each update
/// block. Deterministic given a deterministic request feed — the determinism-parity test
/// drives this mode against the plain `ServingNode` serve/update loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sync_worker(
    rx: &Receiver<Request>,
    batcher: &BatcherConfig,
    mut node: ServingNode,
    publisher: &Arc<EpochPublisher<ServingSnapshot>>,
    every_batches: usize,
    rounds: usize,
    batch_size: usize,
    processed: &AtomicU64,
    telemetry: Option<&Telemetry>,
) -> (WorkerReport, UpdaterReport, ServingNode) {
    let mut report = WorkerReport::default();
    let mut updater = UpdaterReport::default();
    let mut reader = publisher.reader();
    let mut tally = EpochTally::new();
    let mut buffers = ServeBuffers::default();
    let mut batches_since_update = 0usize;
    while let Some(batch) = next_batch(rx, batcher) {
        let adopted = reader.refresh();
        if let Some(tel) = telemetry {
            tally.on_refresh(adopted, &reader, tel);
        }
        let Unpacked {
            submitted,
            replies,
            traces,
            time_minutes,
            mini_batch,
        } = unpack(batch);
        let n = mini_batch.len();
        let serve_started = Instant::now();
        serve_and_record(
            reader.get(),
            &mut buffers,
            &mini_batch,
            &submitted,
            replies,
            traces,
            &mut report,
            telemetry,
        );
        if let Some(tel) = telemetry {
            let serve_us = u64::try_from(serve_started.elapsed().as_micros()).unwrap_or(u64::MAX);
            record_batch(tel, n, serve_us);
            tally.requests_this_epoch += n as u64;
        }

        node.ingest_batch(time_minutes, &mini_batch);
        updater.ingested_batches += 1;
        updater.ingested_requests += mini_batch.len() as u64;

        batches_since_update += 1;
        if batches_since_update >= every_batches {
            batches_since_update = 0;
            let span_started = telemetry.map(|tel| tel.spans.now_us());
            let round_started = Instant::now();
            for _ in 0..rounds {
                node.online_update_round(time_minutes, batch_size);
                updater.update_rounds += 1;
            }
            let mut snapshot = node.snapshot();
            if telemetry.is_some() {
                snapshot.adopt_cache_stats(&publisher.load().1);
            }
            let checksum = snapshot.checksum();
            let epoch = publisher.publish(snapshot);
            updater.publications += 1;
            updater.published.push((epoch, checksum));
            let round_ms = round_started.elapsed().as_secs_f64() * 1e3;
            updater.round_times_ms.push(round_ms);
            if let Some(tel) = telemetry {
                tel.update_rounds.add(rounds as u64);
                tel.update_round_us.record(round_ms * 1e3);
                tel.publications.inc();
                tel.snapshot_epoch
                    .set(i64::try_from(epoch).unwrap_or(i64::MAX));
                crate::telemetry::push_publication_span(
                    tel,
                    epoch,
                    span_started.unwrap_or_default(),
                );
            }
        }
        processed.fetch_add(submitted.len() as u64, Ordering::Release);
    }
    if let Some(tel) = telemetry {
        tally.finish(tel);
    }
    report.snapshot_refreshes = reader.refreshes();
    report.last_epoch = reader.epoch();
    (report, updater, node)
}
