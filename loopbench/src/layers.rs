//! Per-layer timings for the traced run: each figure times calls into one layer's
//! public functions from here, on the workload's own model and request pool, after
//! the replica has shut down (so nothing else runs while they are taken).

use crate::report::{median, Metrics};
use crate::sys;
use crate::workload::Spec;
use liveupdate::engine::ServingNode;
use liveupdate::snapshot::model_checksum;
use liveupdate_dlrm::sample::MiniBatch;
use liveupdate_net::wire::Frame;
use liveupdate_runtime::epoch::EpochPublisher;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the O(model) calls (snapshot, checksum, publish).
const MODEL_REPS: usize = 3;

/// Repetitions of the cheap calls; each figure is the median over them.
const REPS: usize = 7;

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Median over `reps` of the nanoseconds `f` takes.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            ns_since(start)
        })
        .collect();
    median(&samples).expect("at least one repetition")
}

/// Time the model-side layers (`dlrm`, `liveupdate::snapshot`, `liveupdate::engine`,
/// `runtime::epoch`) and the wire codec on `node` with requests from `probe`,
/// batching at `batch_mean` requests. Mutates `node` (update rounds, ingests).
pub fn measure(
    spec: &Spec,
    node: &mut ServingNode,
    probe: &MiniBatch,
    batch_mean: f64,
    now_minutes: f64,
    out: &mut Metrics,
) {
    let samples: Vec<_> = probe.iter().cloned().collect();
    let n = samples.len() as f64;

    // dlrm
    let model = node.serving_model();
    let predict_ns = time_median(REPS, || {
        for s in &samples {
            black_box(model.predict(black_box(s)));
        }
    }) / n;
    out.add(
        "dlrm.predict_ns",
        predict_ns,
        "ns",
        format!(
            "DlrmModel::predict, median of {REPS} passes over {} samples",
            samples.len()
        ),
    );
    let lookups = samples.iter().map(|s| s.num_lookups()).sum::<usize>() as f64 / n;
    out.add(
        "dlrm.bytes_per_req",
        spec.gather_bytes(lookups),
        "B",
        format!(
            "computed: {lookups:.3} lookups x {} row bytes ({} rows)",
            spec.gather_bytes(1.0),
            spec.storage.name(),
        ),
    );

    // liveupdate::snapshot
    let batch_len = (batch_mean.round() as usize).max(1);
    let batches: Vec<MiniBatch> = samples
        .chunks(batch_len)
        .filter(|c| c.len() == batch_len)
        .map(|c| MiniBatch::new(c.to_vec()))
        .collect();
    let snapshot = node.snapshot();
    let serve_us: Vec<f64> = batches
        .iter()
        .map(|b| {
            let start = Instant::now();
            black_box(snapshot.serve_batch_with_predictions(black_box(b)));
            ns_since(start) / 1e3
        })
        .collect();
    out.add(
        "snapshot.serve_batch_us",
        median(&serve_us).unwrap_or(f64::NAN),
        "us",
        format!("ServingSnapshot::serve_batch_with_predictions, batch of {batch_len}, median of {} batches", serve_us.len()),
    );
    let hot = snapshot.hot_rows();
    let (hits, misses) = (0..hot.stats_tables())
        .filter_map(|t| hot.table_stats(t).map(|s| s.get()))
        .fold((0u64, 0u64), |(h, m), (th, tm)| (h + th, m + tm));
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    out.add(
        "snapshot.hot_hit_ratio",
        ratio,
        "ratio",
        format!("HotRowCache::table_stats over the timed batches: {hits} hits, {misses} misses, {} rows cached", hot.cached_rows()),
    );
    let checksum_ms = time_median(MODEL_REPS, || {
        black_box(model_checksum(snapshot.serving_model(), snapshot.steps()));
    }) / 1e6;
    out.add(
        "snapshot.checksum_ms",
        checksum_ms,
        "ms",
        format!("model_checksum, median of {MODEL_REPS}"),
    );
    drop(snapshot);

    // liveupdate::engine
    let mut round_ms = Vec::new();
    let mut touched = Vec::new();
    for _ in 0..REPS * 3 {
        let start = Instant::now();
        let report = node.online_update_round(now_minutes, 64);
        round_ms.push(ns_since(start) / 1e6);
        touched.push(report.touched_rows.len() as f64);
    }
    out.add(
        "engine.update_round_ms",
        median(&round_ms).unwrap_or(f64::NAN),
        "ms",
        format!(
            "online_update_round (batch 64), median of {}",
            round_ms.len()
        ),
    );
    out.add(
        "engine.touched_rows",
        median(&touched).unwrap_or(f64::NAN),
        "count",
        "rows touched per round, median".into(),
    );
    let mut snapshot_ms = Vec::new();
    let mut alloc_mb = Vec::new();
    for _ in 0..MODEL_REPS {
        let before = sys::allocated_bytes();
        let start = Instant::now();
        let snap = node.snapshot();
        snapshot_ms.push(ns_since(start) / 1e6);
        alloc_mb.push((sys::allocated_bytes() - before) as f64 / 1e6);
        drop(black_box(snap));
    }
    out.add(
        "engine.snapshot_ms",
        median(&snapshot_ms).unwrap_or(f64::NAN),
        "ms",
        format!("ServingNode::snapshot, median of {MODEL_REPS}"),
    );
    out.add(
        "engine.snapshot_alloc_mb",
        median(&alloc_mb).unwrap_or(f64::NAN),
        "MB",
        format!("count: bytes allocated by one snapshot (runs: {alloc_mb:?})"),
    );
    let ingest_us: Vec<f64> = batches
        .iter()
        .map(|b| {
            let start = Instant::now();
            node.ingest_batch(now_minutes, b);
            ns_since(start) / 1e3
        })
        .collect();
    out.add(
        "engine.ingest_us",
        median(&ingest_us).unwrap_or(f64::NAN),
        "us",
        format!(
            "ingest_batch, batch of {batch_len}, median of {}",
            ingest_us.len()
        ),
    );

    // runtime::epoch
    let publisher = EpochPublisher::new(node.snapshot());
    let mut publish_us = Vec::new();
    for _ in 0..MODEL_REPS {
        let next = node.snapshot();
        let start = Instant::now();
        publisher.publish(next);
        publish_us.push(ns_since(start) / 1e3);
    }
    out.add(
        "epoch.publish_us",
        median(&publish_us).unwrap_or(f64::NAN),
        "us",
        format!(
            "EpochPublisher::publish incl. dropping the displaced snapshot, median of {MODEL_REPS}"
        ),
    );
    const LOADS: usize = 100_000;
    let load_ns = time_median(REPS, || {
        for _ in 0..LOADS {
            black_box(publisher.load());
        }
    }) / LOADS as f64;
    out.add(
        "epoch.load_ns",
        load_ns,
        "ns",
        format!("EpochPublisher::load, median of {REPS} x {LOADS}"),
    );
    drop(publisher);

    // net: the wire codec
    let frames: Vec<(Frame, Frame)> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let id = i as u64;
            (
                Frame::InferRequest {
                    id,
                    time_minutes: now_minutes,
                    trace_id: 0,
                    parent_span_id: 0,
                    sample: s.clone(),
                },
                Frame::InferReply {
                    id,
                    trace_id: 0,
                    span_id: 0,
                    prediction: 0.5,
                },
            )
        })
        .collect();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(q, r)| {
            (
                q.encode().expect("finite request"),
                r.encode().expect("finite reply"),
            )
        })
        .collect();
    let encode_ns = time_median(REPS, || {
        for (q, r) in &frames {
            black_box(q.encode().expect("finite request"));
            black_box(r.encode().expect("finite reply"));
        }
    }) / n;
    let decode_ns = time_median(REPS, || {
        for (q, r) in &encoded {
            black_box(Frame::decode(&q[4..]).expect("valid request"));
            black_box(Frame::decode(&r[4..]).expect("valid reply"));
        }
    }) / n;
    let bytes = encoded
        .iter()
        .map(|(q, r)| q.len() + r.len())
        .sum::<usize>() as f64
        / n;
    out.add(
        "wire.encode_ns",
        encode_ns,
        "ns",
        "Frame::encode of InferRequest + InferReply, median".into(),
    );
    out.add(
        "wire.decode_ns",
        decode_ns,
        "ns",
        "Frame::decode of InferRequest + InferReply, median".into(),
    );
    out.add(
        "wire.bytes_per_req",
        bytes,
        "B",
        "encoded InferRequest + InferReply incl. length prefixes".into(),
    );
}
