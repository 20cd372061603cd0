//! The open-loop load generator: one thread, two pipelined connections, sleeping
//! between scheduled sends, with every latency timed from the request's due instant.

use crate::sys;
use crate::workload::Stream;
use liveupdate_net::client::MultiConnClient;
use liveupdate_net::wire::Frame;
use liveupdate_obs::span::{STAGE_ENQUEUED, STAGE_REPLY_FLUSHED};
use liveupdate_obs::{SpanRecord, SpanRing, TraceContext};
use liveupdate_runtime::request::ReplyTo;
use liveupdate_runtime::runtime::{ServingRuntime, SubmitOutcome};
use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Connections the generator spreads requests over.
pub const CONNECTIONS: usize = 2;

/// How often the generator asks the replica for its telemetry during a pass.
const STATS_EVERY_NS: u64 = 10_000_000;

/// How long a pass waits for outstanding replies after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Marks a request that got no reply.
pub const NO_REPLY: u64 = u64::MAX;

/// What one pass over a stream observed.
#[derive(Debug, Default)]
pub struct Pass {
    pub sent: u64,
    pub replies: u64,
    pub shed: u64,
    /// Replies with an unknown or repeated id, or a prediction outside (0, 1).
    pub invalid: u64,
    /// Reply time minus due time of request `i` ([`NO_REPLY`] when unanswered).
    pub latency_ns: Vec<u64>,
    /// Reply time of request `i`, nanoseconds after the pass started.
    pub recv_ns: Vec<u64>,
    pub predictions: Vec<f64>,
    /// Send time minus due time of request `i`.
    pub lateness_ns: Vec<u64>,
    /// Estimates of each epoch's publication instant, one per telemetry reply that
    /// reported the epoch: reply time minus `epoch_age_us`, in nanoseconds relative
    /// to the pass start (negative: published before it).
    pub publications: BTreeMap<u64, Vec<i64>>,
    /// `update_round_duration_us_count` in the first and the last telemetry reply:
    /// update blocks run before the pass, and by its end.
    pub blocks_before: Option<u64>,
    pub blocks_after: Option<u64>,
    /// Length of the pass's measurement windows ([`PassOpts::window_ns`]).
    pub window_ns: u64,
    /// Clock samples taken as the first request of each window (by due time) is
    /// sent, plus one after the last send: window `k` runs from mark `k` to `k + 1`.
    pub marks: Vec<Mark>,
    /// The generator's half of each traced request (send → reply received).
    pub generator_spans: Vec<SpanRecord>,
}

impl Pass {
    /// Share of this VM's CPU time the host took during the pass (steal ticks of
    /// 10 ms over wall time × CPUs).
    pub fn steal_share(&self) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some(a), Some(b)) if b.wall > a.wall => {
                let cpus = std::thread::available_parallelism().map_or(1, usize::from);
                (b.steal - a.steal) as f64 * 1e7 / ((b.wall - a.wall) as f64 * cpus as f64)
            }
            _ => 0.0,
        }
    }
}

/// One sample of the clocks the windowed metrics need.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Nanoseconds since the pass started.
    pub wall: u64,
    /// CPU nanoseconds of the replica's updater thread and of the generator thread.
    pub updater: u64,
    pub generator: u64,
    /// The host's steal counter ([`sys::host_steal_ticks`]).
    pub steal: u64,
}

/// Options of one pass.
pub struct PassOpts<'a> {
    /// Wire id of request 0; passes on one connection use disjoint id ranges.
    pub id_base: u64,
    /// Poll `Frame::Stats` every 10 ms for epoch ages and update-block counts.
    pub poll_stats: bool,
    /// Trace every request into this ring (and ask the replica to trace it too).
    pub ring: Option<&'a Arc<SpanRing>>,
    /// Kernel thread id of the replica's updater, for its CPU time.
    pub updater_tid: Option<u32>,
    /// Length of the windows the clocks are sampled at; a whole divisor of 1 s.
    pub window_ns: u64,
}

/// A telemetry row (`Frame::StatsReply`, `ServingRuntime::scrape`) by name.
pub fn stat(metrics: &[(String, f64)], name: &str) -> Option<f64> {
    metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Inbound-frame bookkeeping of a pass.
struct Tally<'a> {
    pass: Pass,
    id_base: u64,
    due_ns: &'a [u64],
    contexts: Vec<Option<TraceContext>>,
    stats_sent: u64,
    stats_replies: u64,
}

impl Tally<'_> {
    fn on_frame(&mut self, frame: Frame, now_ns: u64) {
        match frame {
            Frame::InferReply {
                id,
                trace_id,
                prediction,
                ..
            } => {
                let idx = id.wrapping_sub(self.id_base) as usize;
                if idx >= self.due_ns.len() || self.pass.latency_ns[idx] != NO_REPLY {
                    self.pass.invalid += 1;
                    return;
                }
                self.pass.replies += 1;
                self.pass.latency_ns[idx] = now_ns.saturating_sub(self.due_ns[idx]);
                self.pass.recv_ns[idx] = now_ns;
                self.pass.predictions[idx] = prediction;
                if !(prediction.is_finite() && prediction > 0.0 && prediction < 1.0) {
                    self.pass.invalid += 1;
                }
                if trace_id != 0 {
                    if let Some(ctx) = self.contexts.get_mut(idx).and_then(Option::take) {
                        ctx.stamp(STAGE_REPLY_FLUSHED);
                        ctx.finish();
                    }
                }
            }
            Frame::InferShed { id } => {
                let idx = id.wrapping_sub(self.id_base) as usize;
                if idx >= self.due_ns.len() || self.pass.latency_ns[idx] != NO_REPLY {
                    self.pass.invalid += 1;
                } else {
                    self.pass.shed += 1;
                }
            }
            Frame::StatsReply { metrics } => {
                self.stats_replies += 1;
                let blocks = stat(&metrics, "update_round_duration_us_count").map(|v| v as u64);
                self.pass.blocks_before = self.pass.blocks_before.or(blocks);
                self.pass.blocks_after = blocks.or(self.pass.blocks_after);
                if let (Some(epoch), Some(age_us)) = (
                    stat(&metrics, "snapshot_epoch"),
                    stat(&metrics, "epoch_age_us"),
                ) {
                    let published = now_ns as i64 - (age_us * 1e3) as i64;
                    self.pass
                        .publications
                        .entry(epoch as u64)
                        .or_default()
                        .push(published);
                }
            }
            _ => self.pass.invalid += 1,
        }
    }

    fn outstanding(&self) -> bool {
        self.pass.replies + self.pass.shed < self.pass.sent || self.stats_replies < self.stats_sent
    }
}

/// Nanoseconds since `origin`.
fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Sleep until `due_ns` after `origin`. Gaps of 2 ms or more are spent in the
/// client's readiness wait (replies are read as they land); shorter gaps sleep.
fn wait_until(origin: Instant, due_ns: u64, mut idle: impl FnMut(i32)) {
    loop {
        let now = since(origin);
        if now >= due_ns {
            return;
        }
        let remaining = due_ns - now;
        if remaining >= 2_000_000 {
            idle(i32::try_from(remaining / 1_000_000 - 1).unwrap_or(i32::MAX));
        } else {
            thread::sleep(Duration::from_nanos(remaining));
        }
    }
}

/// Replay `stream` open-loop against the replica behind `client` and wait for every
/// reply (or the drain timeout).
pub fn run_pass(client: &mut MultiConnClient, stream: &Stream, opts: &PassOpts<'_>) -> Pass {
    let n = stream.len();
    let mut tally = Tally {
        pass: Pass {
            latency_ns: vec![NO_REPLY; n],
            recv_ns: vec![NO_REPLY; n],
            predictions: vec![f64::NAN; n],
            lateness_ns: vec![0; n],
            window_ns: opts.window_ns,
            ..Pass::default()
        },
        id_base: opts.id_base,
        due_ns: &stream.due_ns,
        contexts: (0..n).map(|_| None).collect(),
        stats_sent: 0,
        stats_replies: 0,
    };
    let generator_tid = sys::own_tid();
    let mark = |wall: u64| Mark {
        wall,
        updater: opts
            .updater_tid
            .and_then(|t| sys::thread_cpu_ns(t).ok())
            .unwrap_or(0),
        generator: sys::thread_cpu_ns(generator_tid).unwrap_or(0),
        steal: sys::host_steal_ticks(),
    };
    let mut next_stats_ns = 0u64;
    let origin = Instant::now();
    for i in 0..n {
        let due = stream.due_ns[i];
        wait_until(origin, due, |ms| {
            let _ = client.poll(ms, |_, f| tally.on_frame(f, since(origin)));
        });
        let now = since(origin);
        tally.pass.lateness_ns[i] = now - due;
        while due >= tally.pass.marks.len() as u64 * opts.window_ns {
            tally.pass.marks.push(mark(now));
        }
        if opts.poll_stats && due >= next_stats_ns {
            if matches!(client.send(0, &Frame::Stats), Ok(n) if n > 0) {
                tally.stats_sent += 1;
            }
            next_stats_ns = due + STATS_EVERY_NS;
        }
        let id = opts.id_base + i as u64;
        let (trace_id, parent_span_id) = match opts.ring {
            Some(ring) => {
                let ctx = ring.context(id + 1, 0);
                let ids = (ctx.trace_id, ctx.span_id);
                ctx.stamp(STAGE_ENQUEUED);
                tally.contexts[i] = Some(ctx);
                ids
            }
            None => (0, 0),
        };
        let frame = Frame::InferRequest {
            id,
            time_minutes: stream.sim_minutes[i],
            trace_id,
            parent_span_id,
            sample: stream.samples[i].clone(),
        };
        match client.send(i % CONNECTIONS, &frame) {
            Ok(bytes) if bytes > 0 => tally.pass.sent += 1,
            _ => break,
        }
        let _ = client.poll(0, |_, f| tally.on_frame(f, since(origin)));
    }
    tally.pass.marks.push(mark(since(origin)));
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while tally.outstanding() && Instant::now() < deadline && client.open_count() > 0 {
        let _ = client.poll(10, |_, f| tally.on_frame(f, since(origin)));
    }
    let mut pass = tally.pass;
    if let Some(ring) = opts.ring {
        pass.generator_spans = ring.drain();
    }
    pass
}

/// Replay `stream` against an in-process runtime through
/// `ServingRuntime::submit_routed_with_reply` on the same open-loop schedule. Returns
/// each answered request's due-to-reply latency in nanoseconds (stamped by the
/// serving worker as it completes the reply) and the number not accepted.
pub fn run_in_process(runtime: &ServingRuntime, stream: &Stream) -> (Vec<u64>, u64) {
    let (tx, rx) = channel::<u64>();
    let mut latencies = Vec::with_capacity(stream.len());
    let mut refused = 0u64;
    let origin = Instant::now();
    for i in 0..stream.len() {
        wait_until(origin, stream.due_ns[i], |ms| {
            thread::sleep(Duration::from_millis(ms as u64));
        });
        let due = origin + Duration::from_nanos(stream.due_ns[i]);
        let reply_tx = tx.clone();
        let outcome = runtime.submit_routed_with_reply(
            stream.samples[i].clone(),
            stream.sim_minutes[i],
            due,
            ReplyTo::new(move |_| {
                let _ = reply_tx.send(due.elapsed().as_nanos() as u64);
            }),
        );
        if outcome != SubmitOutcome::Accepted {
            refused += 1;
        }
        latencies.extend(rx.try_iter());
    }
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while latencies.len() as u64 + refused < stream.len() as u64 && Instant::now() < deadline {
        latencies.extend(rx.recv_timeout(Duration::from_millis(10)));
    }
    (latencies, refused)
}
