//! Near-zero-overhead telemetry for the liveupdate serving stack.
//!
//! The paper's central claim is a *measured* property — P99 latency barely moves while
//! model updates publish — so the observability layer that watches the system must obey
//! the same discipline the serve path does: **no locks, no allocation, and exactly one
//! relaxed atomic increment per recorded value on the hot path**. This crate provides
//! the primitives the rest of the workspace instruments itself with, with zero
//! dependencies (not even the vendored ones):
//!
//! * [`hist::LogLinearHistogram`] — a fixed-shape log-linear histogram over positive
//!   `f64` values. The bucket index is computed from the value's IEEE-754 bit pattern
//!   (32 sub-buckets per octave, ~3% relative bucket width), so recording is one
//!   relaxed `fetch_add` with no float transcendentals. Histograms with the same shape
//!   merge bucket-wise, and P50/P99 queries run against a snapshot scan without ever
//!   pausing writers.
//! * [`registry::MetricsRegistry`] — a name-sharded registry of counters, gauges, and
//!   histograms. Registration and scraping take a shard lock; the serve path never
//!   does, because instrumented code holds pre-registered `Arc` handles and touches
//!   only the atomics inside them. [`render_text`] turns a scraped snapshot into
//!   Prometheus-style text exposition.
//! * [`span::SpanRing`] + [`span::TraceContext`] — request-scoped distributed tracing
//!   under the same discipline: a deterministic hash [`span::TraceSampler`] picks
//!   traces by id alone (every node agrees without coordination), a sampled request
//!   stamps each stage boundary with one relaxed store, and completed
//!   [`span::SpanRecord`]s publish into a fixed-capacity seqlock ring: writers claim a
//!   slot with one `fetch_add` and publish through a per-slot sequence word; they never
//!   block, never allocate, and never wait for readers. Draining is on-demand and
//!   tolerates concurrent writes (a torn slot is rejected, not returned).
//!   [`export::chrome_trace`] renders the collected spans as Perfetto-loadable Chrome
//!   trace-event JSON.
//!
//! The freshness story — `epoch_age_us`, requests-served-per-epoch, and
//! publication-to-first-serve lag — is built *on* these primitives by
//! `liveupdate_runtime::telemetry`, and exported live over the wire by
//! `liveupdate_net`'s `Frame::Stats` (metrics) and `Frame::TraceDump` (spans).

pub mod export;
pub mod hist;
pub mod registry;
pub mod span;

pub use export::chrome_trace;
pub use hist::{HistogramSnapshot, LogLinearHistogram};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use span::{SpanRecord, SpanRing, TraceContext, TraceSampler};

/// Render a flattened metrics snapshot (`[(name, value)]`, as produced by
/// [`MetricsRegistry::snapshot`] or received over the wire in a `StatsReply`) as
/// Prometheus-style text exposition: one `name value` line per row, `#`-prefixed
/// comment header, stable (input) order.
///
/// [`MetricsRegistry::render_text`] produces the richer local form (with `# TYPE`
/// comments and `quantile` labels); this free function is the one a scraper uses on
/// rows that crossed the wire, where only names and values survive.
#[must_use]
pub fn render_text(rows: &[(String, f64)]) -> String {
    let mut out = String::with_capacity(rows.len() * 32 + 64);
    out.push_str("# liveupdate_obs snapshot: ");
    out.push_str(&rows.len().to_string());
    out.push_str(" series\n");
    for (name, value) in rows {
        out.push_str(name);
        out.push(' ');
        out.push_str(&format_value(*value));
        out.push('\n');
    }
    out
}

/// Format a metric value the way the text exposition wants it: integers without a
/// fractional part, everything else in plain decimal.
pub(crate) fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_text_emits_one_line_per_row_in_order() {
        let rows = vec![
            ("serve_requests_total".to_string(), 42.0),
            ("serve_latency_us_p99".to_string(), 1234.5),
        ];
        let text = render_text(&rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with('#'));
        assert_eq!(lines[1], "serve_requests_total 42");
        assert_eq!(lines[2], "serve_latency_us_p99 1234.5");
    }

    #[test]
    fn render_text_of_empty_snapshot_is_just_the_header() {
        let text = render_text(&[]);
        assert_eq!(text.lines().count(), 1);
    }
}

/// The reader-side contract of [`SpanRing`], the one trace ring: drains are ordered,
/// incremental, bounded by the capacity, and never torn.
#[cfg(test)]
mod trace {
    mod tests {
        use crate::span::{NUM_STAGES, STAGE_ENQUEUED, STAGE_REPLY_FLUSHED};
        use crate::{SpanRecord, SpanRing};
        use std::sync::Arc;
        use std::thread;

        /// A span whose fields all derive from `v`, so a torn mix is detectable.
        fn span(v: u64, writer: u64) -> SpanRecord {
            SpanRecord {
                trace_id: v,
                span_id: v + 1,
                parent_span_id: writer,
                stages: [v; NUM_STAGES],
            }
        }

        #[test]
        fn push_then_drain_returns_events_in_order() {
            let ring = Arc::new(SpanRing::new(64));
            for trace_id in [10, 20, 30] {
                let ctx = ring.context(trace_id, 0);
                ctx.stamp(STAGE_ENQUEUED);
                ctx.stamp(STAGE_REPLY_FLUSHED);
                ctx.finish();
            }
            let spans = ring.drain();
            let ids: Vec<u64> = spans.iter().map(|r| r.trace_id).collect();
            assert_eq!(ids, [10, 20, 30], "drained in publication order");
            // Every context is clocked by the ring, so stamps of successive spans
            // never go backwards.
            assert!(spans
                .windows(2)
                .all(|w| w[0].stages[STAGE_REPLY_FLUSHED] <= w[1].stages[STAGE_ENQUEUED]));
        }

        #[test]
        fn drain_is_incremental_and_never_repeats() {
            let ring = SpanRing::new(64);
            ring.push(&span(1, 0));
            ring.push(&span(2, 0));
            let ids: Vec<u64> = ring.drain().iter().map(|r| r.trace_id).collect();
            assert_eq!(ids, [1, 2], "oldest first");
            assert!(ring.drain().is_empty(), "already drained");
            ring.push(&span(3, 0));
            let ids: Vec<u64> = ring.drain().iter().map(|r| r.trace_id).collect();
            assert_eq!(ids, [3]);
        }

        #[test]
        fn ring_keeps_only_the_newest_capacity_events() {
            assert_eq!(SpanRing::new(0).capacity(), 8, "minimum capacity");
            let ring = SpanRing::new(9);
            assert_eq!(ring.capacity(), 16, "rounded up to a power of two");
            for v in 0..20u64 {
                ring.push(&span(v, 0));
            }
            let ids: Vec<u64> = ring.drain().iter().map(|r| r.trace_id).collect();
            assert_eq!(
                ids,
                (4..20).collect::<Vec<u64>>(),
                "older spans were overwritten"
            );
            assert_eq!(ring.pushed(), 20, "overwritten spans still count as pushed");
        }

        #[test]
        fn concurrent_writers_never_produce_torn_events() {
            // The smallest ring makes writers wrap onto each other's slots all the time:
            // the multi-writer race the slot checksum exists to catch.
            let ring = Arc::new(SpanRing::new(8));
            let writers: Vec<_> = (0..4u64)
                .map(|w| {
                    let ring = Arc::clone(&ring);
                    thread::spawn(move || {
                        for i in 0..10_000u64 {
                            ring.push(&span(w * 1_000_000 + i, w));
                        }
                    })
                })
                .collect();
            let check = |r: &SpanRecord| {
                assert_eq!(r.trace_id / 1_000_000, r.parent_span_id, "torn span: {r:?}");
                assert_eq!(r.span_id, r.trace_id + 1, "torn span: {r:?}");
                assert!(
                    r.stages.iter().all(|&s| s == r.trace_id),
                    "torn span: {r:?}"
                );
            };
            // A separate reader drains while the writers run.
            let reader = {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    for _ in 0..500 {
                        ring.drain().iter().for_each(check);
                    }
                })
            };
            for h in writers {
                h.join().expect("writer");
            }
            reader.join().expect("reader");
            assert_eq!(ring.pushed(), 40_000);
            ring.drain().iter().for_each(check);
        }
    }
}
