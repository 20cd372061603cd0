//! The background updater thread — the paper's co-located trainer (Fig. 7).
//!
//! The updater owns the *authoritative* [`ServingNode`]: the only mutable model state in
//! the whole runtime. It drains served traffic from the ingest channel into the node's
//! retention buffer and, on a wall-clock cadence, asks the active [`UpdatePolicy`] for
//! one update block on that shadow state — publishing the result as an immutable
//! snapshot through the epoch swap. Serving therefore contends with updating only for CPU cycles — never for a lock —
//! which is exactly the "near-zero overhead" property the interference measurement in
//! `examples/live_serving.rs` quantifies. With no policy installed (`NoUpdate` /
//! `UpdateMode::Disabled`) the thread only drains the channel: the baseline arm keeps
//! the ingestion cost identical and removes only the update + publication work.
//!
//! Besides ingest, the channel carries [`NodeCommand`]s — closures a transport tier
//! (e.g. the TCP replica server applying a sparse LoRA merge or a parameter pull) runs
//! against the authoritative node, optionally followed by an epoch-swap publication.
//! Commands execute on this thread, so they serialise naturally with update blocks and
//! never race the policy for the node.

use crate::epoch::EpochPublisher;
use crate::policy::UpdatePolicy;
use crate::report::UpdaterReport;
use crate::telemetry::Telemetry;
use liveupdate::engine::ServingNode;
use liveupdate::snapshot::ServingSnapshot;
use liveupdate_dlrm::sample::MiniBatch;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One served batch handed from a worker to the updater.
#[derive(Debug)]
pub(crate) struct IngestBatch {
    /// Sim-time high-water mark of the batch's requests.
    pub time_minutes: f64,
    /// The served samples (labelled traffic for the retention buffer).
    pub batch: MiniBatch,
}

/// A closure to run against the authoritative node on the updater thread, with an
/// optional publication afterwards. `done` is invoked once the closure (and the
/// publication, when requested) has completed — a blocking caller signals itself
/// through a channel, a nonblocking one (the event-loop server) delivers the reply
/// frame from here.
pub(crate) struct NodeCommand {
    pub run: Box<dyn FnOnce(&mut ServingNode) + Send>,
    pub publish: bool,
    pub done: Box<dyn FnOnce() + Send>,
}

/// Everything that can arrive on the updater's channel.
pub(crate) enum UpdaterMsg {
    /// Served traffic from a worker.
    Ingest(IngestBatch),
    /// A node access request from [`crate::runtime::ServingRuntime::with_node`].
    Command(NodeCommand),
}

/// The updater arrangement: the wall-clock cadence plus the pluggable policy that runs
/// at each tick. `policy == None` is ingest-only (the `NoUpdate` baseline arm).
pub(crate) struct UpdaterParams {
    pub interval: Duration,
    pub policy: Option<Box<dyn UpdatePolicy>>,
}

/// Snapshots this thread displaced from the publisher, kept until no worker holds
/// them, so that the updater, never a worker's `refresh`, drops the last reference
/// and pays for freeing a snapshot.
///
/// Each worker holds at most one displaced snapshot, and every publication first
/// drops the ones nobody else holds, so the list stays at about the worker count plus
/// one.
#[derive(Default)]
struct Displaced(Vec<Arc<ServingSnapshot>>);

impl Displaced {
    /// Drop every kept snapshot that only this list still references.
    fn reclaim(&mut self) {
        self.0.retain(|snapshot| Arc::strong_count(snapshot) > 1);
    }
}

/// Publish a fresh snapshot of `node` and record it in the report's history. The
/// outgoing snapshot is kept in `displaced` (see [`Displaced`]). With telemetry on,
/// its hot-row-cache tallies are carried into the fresh one first (so cache telemetry
/// is cumulative across epochs), and the publication lands in the counters and the
/// span ring.
fn publish_snapshot(
    node: &ServingNode,
    publisher: &Arc<EpochPublisher<ServingSnapshot>>,
    displaced: &mut Displaced,
    report: &mut UpdaterReport,
    telemetry: Option<&Telemetry>,
) {
    let span_started = telemetry.map(|tel| tel.spans.now_us());
    displaced.reclaim();
    let mut snapshot = node.snapshot();
    let outgoing = publisher.load().1;
    if telemetry.is_some() {
        snapshot.adopt_cache_stats(&outgoing);
    }
    displaced.0.push(outgoing);
    let checksum = snapshot.checksum();
    let epoch = publisher.publish(snapshot);
    report.publications += 1;
    report.published.push((epoch, checksum));
    if let Some(tel) = telemetry {
        tel.publications.inc();
        tel.snapshot_epoch
            .set(i64::try_from(epoch).unwrap_or(i64::MAX));
        // The publication's own span (snapshot + epoch swap), pulled by trace dumps
        // alongside request spans.
        crate::telemetry::push_publication_span(tel, epoch, span_started.unwrap_or_default());
    }
}

/// Run the updater until every ingest/command sender is gone.
pub(crate) fn run_updater(
    ingest_rx: &Receiver<UpdaterMsg>,
    mut node: ServingNode,
    publisher: &Arc<EpochPublisher<ServingSnapshot>>,
    mut params: UpdaterParams,
    initial_checksum: u64,
    telemetry: Option<&Telemetry>,
) -> (UpdaterReport, ServingNode) {
    let mut report = UpdaterReport::default();
    let mut displaced = Displaced::default();
    report.published.push((0, initial_checksum));
    let mut node_time = 0.0f64;
    let mut last_update = Instant::now();
    loop {
        // Sleep on the channel until the next update deadline (or effectively forever
        // when no policy is installed — the disconnect wakes us for shutdown, a command
        // wakes us for node access).
        let timeout = match params.policy {
            None => Duration::from_secs(3600),
            Some(_) => params.interval.saturating_sub(last_update.elapsed()),
        };
        match ingest_rx.recv_timeout(timeout) {
            Ok(UpdaterMsg::Ingest(ingest)) => {
                node_time = node_time.max(ingest.time_minutes);
                report.ingested_batches += 1;
                report.ingested_requests += ingest.batch.len() as u64;
                node.ingest_batch(ingest.time_minutes, &ingest.batch);
            }
            Ok(UpdaterMsg::Command(command)) => {
                (command.run)(&mut node);
                if command.publish {
                    publish_snapshot(&node, publisher, &mut displaced, &mut report, telemetry);
                }
                (command.done)();
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some(policy) = params.policy.as_mut() {
            if last_update.elapsed() >= params.interval {
                let round_started = Instant::now();
                let rounds = policy.update_block(&mut node, node_time);
                report.update_rounds += rounds;
                publish_snapshot(&node, publisher, &mut displaced, &mut report, telemetry);
                let round_ms = round_started.elapsed().as_secs_f64() * 1e3;
                report.round_times_ms.push(round_ms);
                if let Some(tel) = telemetry {
                    tel.update_rounds.add(rounds);
                    tel.update_round_us.record(round_ms * 1e3);
                }
                last_update = Instant::now();
            }
        }
    }
    // Workers are gone; fold any traffic still queued into the buffer so the returned
    // node reflects everything that was served. Stray commands are completed too so no
    // caller is left blocked.
    while let Ok(msg) = ingest_rx.try_recv() {
        match msg {
            UpdaterMsg::Ingest(ingest) => {
                report.ingested_batches += 1;
                report.ingested_requests += ingest.batch.len() as u64;
                node.ingest_batch(ingest.time_minutes, &ingest.batch);
            }
            UpdaterMsg::Command(command) => {
                (command.run)(&mut node);
                if command.publish {
                    publish_snapshot(&node, publisher, &mut displaced, &mut report, telemetry);
                }
                (command.done)();
            }
        }
    }
    // The workers have exited and hold no kept snapshot any more, so this frees them
    // here, on the updater thread.
    displaced.reclaim();
    (report, node)
}
