//! Request-scoped distributed tracing: spans, stage stamps, and the span ring.
//!
//! A *trace* follows one request across threads and nodes. The submitter (the TCP
//! driver, or the runtime's own submit path) assigns a `trace_id` and a deterministic
//! [`TraceSampler`] decides — from the id alone, so every node agrees — whether the
//! request carries a [`TraceContext`]. A sampled request stamps each stage boundary
//! ([`STAGE_ENQUEUED`], [`STAGE_BATCH_CLOSED`], [`STAGE_SERVE_START`],
//! [`STAGE_SERVE_DONE`], [`STAGE_REPLY_FLUSHED`]) with **one relaxed store** — the
//! same hot-path budget as a counter increment — and on completion the finished
//! [`SpanRecord`] is published into a [`SpanRing`]: lock-free, fixed-capacity,
//! overwrite-oldest, never blocking a worker. An unsampled request carries no context
//! and pays nothing at all.
//!
//! # The ring protocol
//!
//! A writer claims a slot with one `fetch_add` on the ring head, fills it with a
//! handful of relaxed stores, and publishes it with a release store of the slot's
//! sequence word. No lock, no allocation, no waiting: a writer can always push,
//! overwriting the oldest span once the ring is full. Readers drain on demand; a slot
//! that is mid-write, or whose field checksum does not validate, is skipped, so a
//! reader never observes a torn span and never blocks a writer.
//!
//! Each slot is a seqlock: the writer invalidates it (`seq = 0`), writes the fields,
//! then publishes a unique non-zero sequence (its claim ticket + 1). A reader accepts
//! a slot only if the sequence it saw before and after the field reads is the same
//! non-zero value *and* the stored checksum matches the fields. The checksum closes the
//! classic multi-writer seqlock hole: two writers wrapping onto the same slot can
//! interleave their field stores yet leave a stable sequence behind.
//!
//! Spans from different nodes join into one cross-node trace by `trace_id`; the
//! parent/child edge is `parent_span_id` (the driver's span id travels on the wire
//! and becomes the replica span's parent). Stage timestamps are microseconds since
//! the local ring's creation — monotone within a node, never compared across nodes;
//! cross-node views align spans per-process (see [`crate::export::chrome_trace`]).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stage index: the request was accepted into a worker queue.
pub const STAGE_ENQUEUED: usize = 0;
/// Stage index: the deadline batcher closed the batch containing the request.
pub const STAGE_BATCH_CLOSED: usize = 1;
/// Stage index: the worker began serving the batch (snapshot adopted, batch unpacked).
pub const STAGE_SERVE_START: usize = 2;
/// Stage index: the inference kernel returned the request's prediction.
pub const STAGE_SERVE_DONE: usize = 3;
/// Stage index: the reply was handed to its transport (socket writer or in-process
/// callback).
pub const STAGE_REPLY_FLUSHED: usize = 4;
/// Number of stage boundaries a span can stamp.
pub const NUM_STAGES: usize = 5;

/// Stage-boundary names, indexed by the `STAGE_*` constants.
pub const STAGE_NAMES: [&str; NUM_STAGES] = [
    "enqueued",
    "batch_closed",
    "serve_start",
    "serve_done",
    "reply_flushed",
];

/// Metric names of the per-stage latency histograms: the duration between
/// consecutive stage boundaries (`STAGE_HISTOGRAMS[i]` spans `STAGE_NAMES[i]` →
/// `STAGE_NAMES[i + 1]`). This is the one list of these names: the runtime registers
/// its stage histograms from it and the scenario backends synthesize their rows from
/// it; the workspace's metric-contract test checks it against the README table.
pub const STAGE_HISTOGRAMS: [&str; NUM_STAGES - 1] = [
    "stage_queue_wait_us",
    "stage_batch_wait_us",
    "stage_serve_us",
    "stage_reply_flush_us",
];

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer. Sampling decisions
/// hash the trace id through this so consecutive ids don't alias into the same
/// decision runs.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic hash-based sampler: the decision is a pure function of the trace
/// id, so the driver and every replica reach the **same** verdict for the same
/// request without coordination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSampler {
    rate: f64,
    /// `mix64(trace_id) < threshold` samples; `u64::MAX` means always (rate 1.0).
    threshold: u64,
    always: bool,
}

impl TraceSampler {
    /// A sampler keeping roughly `rate` of traces (clamped to `0.0..=1.0`).
    #[must_use]
    pub fn new(rate: f64) -> Self {
        let rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        Self {
            rate,
            threshold: (rate * u64::MAX as f64) as u64,
            always: rate >= 1.0,
        }
    }

    /// The configured sampling rate.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether the trace with this id is sampled. Deterministic: every node calling
    /// this with the same id and rate gets the same answer.
    #[must_use]
    pub fn decide(&self, trace_id: u64) -> bool {
        self.always || mix64(trace_id) < self.threshold
    }
}

/// Process-wide span-id allocator; ids are unique within a process and never 0
/// (0 means "no span" on the wire).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh process-unique span id (never 0).
#[must_use]
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// One completed (or snapshot-in-progress) span: the trace/span/parent id triple plus
/// the stamped stage boundaries. A stage timestamp of 0 means "never stamped";
/// stamped values are microseconds since the owning [`SpanRing`] was created (always
/// ≥ 1 — the stamp clock saturates up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The id shared by every span of one request, across nodes.
    pub trace_id: u64,
    /// This span's own id (unique within the process, never 0).
    pub span_id: u64,
    /// The id of the parent span (0 = this span is the trace root).
    pub parent_span_id: u64,
    /// Stage-boundary timestamps, indexed by the `STAGE_*` constants; 0 = unstamped.
    pub stages: [u64; NUM_STAGES],
}

impl SpanRecord {
    /// The timestamp of `stage`, or `None` if it was never stamped.
    #[must_use]
    pub fn stage_us(&self, stage: usize) -> Option<u64> {
        match self.stages.get(stage) {
            Some(&t) if t != 0 => Some(t),
            _ => None,
        }
    }

    /// Whether every stamped stage is in non-decreasing stage order — the sanity
    /// check a joined trace must pass before its gaps are interpreted as durations.
    #[must_use]
    pub fn monotone(&self) -> bool {
        let mut last = 0u64;
        for &t in &self.stages {
            if t == 0 {
                continue;
            }
            if t < last {
                return false;
            }
            last = t;
        }
        true
    }

    /// The consecutive stamped stage segments as
    /// `(from stage index, start µs, duration µs)`; the segment name is
    /// `STAGE_HISTOGRAMS[from]` when both endpoints are adjacent stages.
    #[must_use]
    pub fn segments(&self) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        let mut prev: Option<(usize, u64)> = None;
        for (i, &t) in self.stages.iter().enumerate() {
            if t == 0 {
                continue;
            }
            if let Some((pi, pt)) = prev {
                out.push((pi, pt, t.saturating_sub(pt)));
            }
            prev = Some((i, t));
        }
        out
    }

    /// First-stamp-to-last-stamp duration in microseconds (0 if fewer than two
    /// stages were stamped).
    #[must_use]
    pub fn total_us(&self) -> u64 {
        let stamped: Vec<u64> = self.stages.iter().copied().filter(|&t| t != 0).collect();
        match (stamped.first(), stamped.last()) {
            (Some(&a), Some(&b)) if b >= a => b - a,
            _ => 0,
        }
    }
}

/// The per-request tracing handle a sampled request carries along the serve path.
///
/// Stamping a stage is one relaxed store into an owned atomic — no lock, no
/// allocation, no ring traffic. The ring is touched exactly once, by
/// [`finish`](Self::finish), after the final stage.
pub struct TraceContext {
    /// The id shared by every span of this request's trace.
    pub trace_id: u64,
    /// This span's id (fresh from [`next_span_id`]).
    pub span_id: u64,
    /// The parent span's id (0 = root).
    pub parent_span_id: u64,
    stamps: [AtomicU64; NUM_STAGES],
    ring: Arc<SpanRing>,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceContext")
            .field("trace_id", &self.trace_id)
            .field("span_id", &self.span_id)
            .field("parent_span_id", &self.parent_span_id)
            .finish_non_exhaustive()
    }
}

impl TraceContext {
    /// Stamp `stage` as "now". One relaxed store on the hot path; out-of-range stage
    /// indices are ignored.
    pub fn stamp(&self, stage: usize) {
        if let Some(slot) = self.stamps.get(stage) {
            slot.store(self.ring.now_us(), Ordering::Relaxed);
        }
    }

    /// The current stamp of `stage` (`None` = not yet stamped).
    #[must_use]
    pub fn stage_us(&self, stage: usize) -> Option<u64> {
        match self.stamps.get(stage) {
            Some(slot) => match slot.load(Ordering::Relaxed) {
                0 => None,
                t => Some(t),
            },
            None => None,
        }
    }

    /// Snapshot the stamps into a [`SpanRecord`] without finishing the span.
    #[must_use]
    pub fn record(&self) -> SpanRecord {
        SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            stages: std::array::from_fn(|i| self.stamps[i].load(Ordering::Relaxed)),
        }
    }

    /// Publish the completed span into its ring. Call after the final stage stamp;
    /// consumes the context so a span is finished at most once.
    pub fn finish(self) {
        let record = self.record();
        self.ring.push(&record);
    }
}

/// One ring slot: a per-slot seqlock over the span fields plus a field checksum (see
/// the module docs for why the checksum is needed under multi-writer wrap races).
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span_id: AtomicU64,
    stages: [AtomicU64; NUM_STAGES],
    check: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_span_id: AtomicU64::new(0),
            stages: std::array::from_fn(|_| AtomicU64::new(0)),
            check: AtomicU64::new(0),
        }
    }
}

fn checksum(seq: u64, r: &SpanRecord) -> u64 {
    // Distinct odd multipliers + rotation so field permutations don't cancel.
    const MULS: [u64; 5] = [
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
        0xff51_afd7_ed55_8ccd,
    ];
    let mut h = seq.wrapping_mul(MULS[0]);
    let fields = [r.trace_id, r.span_id, r.parent_span_id];
    for (i, &v) in fields.iter().chain(r.stages.iter()).enumerate() {
        h = h.rotate_left(13) ^ v.wrapping_mul(MULS[(i + 1) % MULS.len()]);
    }
    h
}

/// A fixed-capacity, never-blocking, multi-writer ring of completed [`SpanRecord`]s.
///
/// Writers claim a slot with one `fetch_add` and publish through a per-slot sequence
/// word; once full, each push overwrites the oldest span. Readers drain on demand and
/// skip torn slots (see the module docs for the protocol).
/// The ring's creation instant is also the clock epoch for every stage stamp of every
/// [`TraceContext`] it issues.
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Next claim ticket; `ticket % capacity` is the slot, `ticket + 1` the sequence.
    head: AtomicU64,
    /// Highest sequence already returned by [`Self::drain`].
    drained_upto: AtomicU64,
    created: Instant,
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .finish()
    }
}

impl SpanRing {
    /// A ring holding the most recent `capacity` spans (rounded up to a power of two,
    /// minimum 8).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..capacity).map(|_| Slot::empty()).collect();
        Self {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            drained_upto: AtomicU64::new(0),
            created: Instant::now(),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever pushed (including overwritten ones).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Microseconds since the ring was created, saturating up to ≥ 1 so a stamped
    /// stage is always distinguishable from "never stamped" (0).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.created.elapsed().as_micros())
            .unwrap_or(u64::MAX)
            .max(1)
    }

    /// Open a new span of trace `trace_id` under `parent_span_id` (0 = root), clocked
    /// and collected by this ring.
    #[must_use]
    pub fn context(self: &Arc<Self>, trace_id: u64, parent_span_id: u64) -> TraceContext {
        TraceContext {
            trace_id,
            span_id: next_span_id(),
            parent_span_id,
            stamps: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Arc::clone(self),
        }
    }

    /// Publish a completed span. Never blocks, never allocates; once the ring is full
    /// each push overwrites the oldest slot.
    pub fn push(&self, record: &SpanRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        let seq = ticket + 1;
        // Invalidate; the AcqRel RMW keeps the field stores below from floating above it.
        slot.seq.swap(0, Ordering::AcqRel);
        slot.trace_id.store(record.trace_id, Ordering::Relaxed);
        slot.span_id.store(record.span_id, Ordering::Relaxed);
        slot.parent_span_id
            .store(record.parent_span_id, Ordering::Relaxed);
        for (s, &t) in slot.stages.iter().zip(record.stages.iter()) {
            s.store(t, Ordering::Relaxed);
        }
        slot.check.store(checksum(seq, record), Ordering::Relaxed);
        // Publish; the release store keeps the field stores above from sinking below it.
        slot.seq.store(seq, Ordering::Release);
    }

    /// Return every span published since the previous drain, oldest first, and
    /// advance the drain cursor past them. Spans overwritten before they were drained
    /// are lost (the ring keeps only the newest `capacity`); slots mid-write or failing
    /// validation are skipped. Concurrent pushes during the drain may or may not be
    /// included — they surface in the next drain if missed. Racing drains never repeat
    /// a span.
    #[must_use]
    pub fn drain(&self) -> Vec<SpanRecord> {
        let upto = self.drained_upto.load(Ordering::Acquire);
        let mut found: Vec<(u64, SpanRecord)> = Vec::new();
        let mut max_seq = upto;
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 <= upto {
                continue;
            }
            let record = SpanRecord {
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                span_id: slot.span_id.load(Ordering::Relaxed),
                parent_span_id: slot.parent_span_id.load(Ordering::Relaxed),
                stages: std::array::from_fn(|i| slot.stages[i].load(Ordering::Relaxed)),
            };
            let check = slot.check.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 || check != checksum(s1, &record) {
                continue; // mid-write or wrap-torn: skip, never return garbage
            }
            max_seq = max_seq.max(s1);
            found.push((s1, record));
        }
        found.sort_by_key(|&(seq, _)| seq);
        // Advance the cursor monotonically; racing drains may split the spans between
        // them but never return the same span twice.
        let mut current = upto;
        while current < max_seq {
            match self.drained_upto.compare_exchange(
                current,
                max_seq,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(seen) => {
                    if seen >= max_seq {
                        // Another drain got there first; drop what it already claimed.
                        found.retain(|&(seq, _)| seq > seen);
                        break;
                    }
                    current = seen;
                }
            }
        }
        found.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn sampler_is_deterministic_across_instances() {
        // Two independently constructed samplers (think: driver and replica on
        // different nodes) must agree on every trace id.
        let a = TraceSampler::new(0.25);
        let b = TraceSampler::new(0.25);
        for id in 0..10_000u64 {
            assert_eq!(a.decide(id), b.decide(id), "id {id}");
        }
    }

    #[test]
    fn sampler_rate_extremes_and_fraction() {
        let never = TraceSampler::new(0.0);
        let always = TraceSampler::new(1.0);
        let one_pct = TraceSampler::new(0.01);
        let mut kept = 0u64;
        for id in 0..100_000u64 {
            assert!(!never.decide(id));
            assert!(always.decide(id));
            if one_pct.decide(id) {
                kept += 1;
            }
        }
        // mix64 is a good mixer: the kept fraction lands near 1%.
        assert!((500..2_000).contains(&kept), "kept {kept} of 100k at 1%");
        // Out-of-range rates clamp instead of misbehaving.
        assert_eq!(TraceSampler::new(-1.0).rate(), 0.0);
        assert_eq!(TraceSampler::new(2.0).rate(), 1.0);
        assert_eq!(TraceSampler::new(f64::NAN).rate(), 0.0);
    }

    #[test]
    fn context_stamps_are_monotone_and_finish_publishes() {
        let ring = Arc::new(SpanRing::new(16));
        let ctx = ring.context(77, 5);
        let span_id = ctx.span_id;
        assert_ne!(span_id, 0);
        for stage in 0..NUM_STAGES {
            ctx.stamp(stage);
        }
        let record = ctx.record();
        assert!(record.monotone());
        assert_eq!(record.segments().len(), NUM_STAGES - 1);
        ctx.finish();
        let drained = ring.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].trace_id, 77);
        assert_eq!(drained[0].span_id, span_id);
        assert_eq!(drained[0].parent_span_id, 5);
        assert!(drained[0].monotone());
    }

    #[test]
    fn partial_spans_skip_unstamped_stages() {
        let ring = Arc::new(SpanRing::new(8));
        let ctx = ring.context(1, 0);
        // A driver-side span stamps only the two boundary stages.
        ctx.stamp(STAGE_ENQUEUED);
        ctx.stamp(STAGE_REPLY_FLUSHED);
        let r = ctx.record();
        assert!(r.monotone());
        assert_eq!(r.stage_us(STAGE_SERVE_START), None);
        let segs = r.segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, STAGE_ENQUEUED);
        assert_eq!(r.total_us(), segs[0].2);
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_newest_capacity() {
        let ring = SpanRing::new(8);
        for i in 0..40u64 {
            ring.push(&SpanRecord {
                trace_id: i,
                span_id: i + 1,
                parent_span_id: 0,
                stages: [i; NUM_STAGES],
            });
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 8);
        let ids: Vec<u64> = drained.iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, (32..40).collect::<Vec<_>>());
        assert!(ring.drain().is_empty(), "drain cursor advanced");
    }

    #[test]
    fn concurrent_writers_never_block_and_never_tear() {
        // Property: each writer pushes spans whose fields all derive from one value
        // (trace_id = v, span_id = v + 1, every stage = v * 3). Any interleaving that
        // tore a slot would break the relation; drain must never surface such a span.
        let ring = Arc::new(SpanRing::new(64));
        let writers = 4;
        let per_writer = 20_000u64;
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    for i in 0..per_writer {
                        let v = (w as u64) * per_writer + i;
                        ring.push(&SpanRecord {
                            trace_id: v,
                            span_id: v + 1,
                            parent_span_id: v ^ 0xABCD,
                            stages: [v * 3; NUM_STAGES],
                        });
                    }
                })
            })
            .collect();
        // Drain concurrently with the writers: torn slots must be skipped, not
        // returned, and the drain must not block the writers.
        let mut seen = 0usize;
        for _ in 0..50 {
            for r in ring.drain() {
                assert_eq!(r.span_id, r.trace_id + 1, "torn span surfaced");
                assert_eq!(r.parent_span_id, r.trace_id ^ 0xABCD);
                assert!(r.stages.iter().all(|&s| s == r.trace_id * 3));
                seen += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        for r in ring.drain() {
            assert_eq!(r.span_id, r.trace_id + 1);
            seen += 1;
        }
        assert!(seen > 0, "some spans must survive the churn");
        assert_eq!(ring.pushed(), writers as u64 * per_writer);
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let mut ids: Vec<u64> = (0..1000).map(|_| next_span_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000);
        assert!(ids.iter().all(|&id| id != 0));
    }
}
