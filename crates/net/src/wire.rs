//! The length-prefixed binary wire codec of the distributed serving tier.
//!
//! Every message on a connection is one *frame*: a little-endian `u32` payload length
//! followed by the payload, whose first byte is the frame tag. Values inside the payload
//! are fixed-width little-endian (`u32`/`u64` integers, `f64` bit patterns); vectors are
//! a `u32` element count followed by the elements. There is no self-description and no
//! versioning negotiation — both ends of a connection are built from the same crate, and
//! the codec's job is to be small, deterministic, and byte-countable (the whole point of
//! the tier is that `sync_bytes` is the sum of real frame lengths).
//!
//! Robustness rules, pinned by property tests:
//!
//! * **Round-trip identity** — `decode(encode(f)) == f` for every frame, including
//!   empty LoRA supports and maximum-length rows.
//! * **Non-finite rejection** — a NaN or infinity anywhere is an [`WireError::NonFinite`]
//!   on *encode* and on *decode*; garbage never propagates into a model.
//! * **Truncation safety** — decoding any strict prefix of a valid frame is an error,
//!   never a panic; a corrupt length prefix is bounded by [`MAX_FRAME_BYTES`] before
//!   anything is allocated.

use liveupdate_dlrm::sample::Sample;
use liveupdate_obs::span::{SpanRecord, NUM_STAGES};
use std::fmt;
use std::io::{Read, Write};

/// Upper bound on one frame's payload, enforced before allocating: big enough for a
/// full-model shipment of every scenario in the repo, small enough that a corrupt
/// length prefix cannot OOM the process.
pub const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

/// Initial payload buffer of [`read_frame`]. The buffer grows only as payload bytes
/// arrive, so a length prefix alone never reserves more than this.
const READ_START_BYTES: usize = 64 * 1024;

/// One named histogram's raw contents on the wire: sparse `(bucket index, count)`
/// pairs, mergeable across replicas (unlike pre-flattened percentiles).
pub type SparseHistogram = (String, Vec<(u32, u64)>);

/// Anything that can go wrong encoding, decoding, or transporting a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The payload ended before the frame was complete.
    Truncated,
    /// The payload continued past the end of the frame.
    TrailingBytes,
    /// A float was NaN or infinite.
    NonFinite,
    /// Unknown frame tag.
    BadTag(u8),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// A count or string inside the payload is inconsistent with the frame length.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::TrailingBytes => write!(f, "trailing bytes after frame payload"),
            WireError::NonFinite => write!(f, "non-finite float in frame"),
            WireError::BadTag(tag) => write!(f, "unknown frame tag {tag}"),
            WireError::TooLarge(len) => write!(f, "frame length {len} exceeds the cap"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One shipped LoRA `A` row: `(table, row)` plus the row values at the source's rank.
#[derive(Debug, Clone, PartialEq)]
pub struct LoraRowUpdate {
    /// Embedding-table index.
    pub table: u32,
    /// Row within the table.
    pub row: u64,
    /// The `A` row values.
    pub values: Vec<f64>,
}

/// One shipped base-embedding row (the wire form of a QuickUpdate-α% pull).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingRowUpdate {
    /// Embedding-table index.
    pub table: u32,
    /// Row within the table.
    pub row: u64,
    /// The fresh base-embedding values (length = embedding dim).
    pub values: Vec<f64>,
}

/// Every message of the distributed serving protocol.
///
/// | frame | direction | reply | purpose |
/// |---|---|---|---|
/// | `InferRequest` | driver → replica | `InferReply` / `InferShed` | score one sample |
/// | `PullSupport` | driver → replica | `Support` | gather the replica's active LoRA support |
/// | `PullLoraRows` | driver → replica | `LoraRows` | fetch winning `A` rows from the priority root |
/// | `PushLoraRows` | driver → replica | `Ack` | install merged `A` rows on a peer |
/// | `PullB` | driver → replica | `BFactor` | fetch a touched table's dense `B` factor |
/// | `PushB` | driver → replica | `Ack` | broadcast the `B` factor to a peer |
/// | `PushEmbeddingRows` | driver → replica | `Ack` | QuickUpdate top-changed-row shipment |
/// | `FullModel` | driver → replica | `Ack` | DeltaUpdate full-parameter shipment |
/// | `Publish` | driver → replica | `Ack` | rematerialise + epoch-swap a fresh snapshot |
/// | `Stats` | driver → replica | `StatsReply` | scrape the replica's live telemetry |
/// | `TraceDump` | driver → replica | `TraceDumpReply` | drain the replica's span ring + raw histograms |
/// | `Bye` | driver → replica | — | graceful connection close |
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Score one sample; `id` correlates the asynchronous reply.
    InferRequest {
        /// Correlation id chosen by the submitter.
        id: u64,
        /// Simulated stream time in minutes.
        time_minutes: f64,
        /// Distributed-trace id, propagated from the driver; `0` = untraced (the
        /// replica re-runs the deterministic sampler on nonzero ids, so both sides
        /// agree without a flag byte).
        trace_id: u64,
        /// The driver-side span id, recorded as the replica span's parent.
        parent_span_id: u64,
        /// The sample to score.
        sample: Sample,
    },
    /// The prediction for `InferRequest` with the same `id`.
    InferReply {
        /// Correlation id of the request.
        id: u64,
        /// The request's trace id echoed back (`0` = untraced), so a pipelined
        /// driver can close its span without a lookaside table.
        trace_id: u64,
        /// The replica-side span id serving this request (`0` = untraced).
        span_id: u64,
        /// Predicted click probability.
        prediction: f64,
    },
    /// The request with this `id` met a full queue and was shed.
    InferShed {
        /// Correlation id of the request.
        id: u64,
    },
    /// Ask for the replica's active LoRA support.
    PullSupport,
    /// The active LoRA support: `(table, row)` pairs in ascending order.
    Support {
        /// The `(table, row)` support entries.
        rows: Vec<(u32, u64)>,
    },
    /// Ask for the `A` rows of these `(table, row)` indices.
    PullLoraRows {
        /// The requested `(table, row)` indices.
        rows: Vec<(u32, u64)>,
    },
    /// The requested `A` rows, values at the exporter's current rank.
    LoraRows {
        /// The exported rows.
        rows: Vec<LoraRowUpdate>,
    },
    /// Install these merged `A` rows (losers of the priority merge receive these).
    PushLoraRows {
        /// The rows to install.
        rows: Vec<LoraRowUpdate>,
    },
    /// Ask for one table's dense `B` factor.
    PullB {
        /// Embedding-table index.
        table: u32,
    },
    /// A table's dense `B` factor (row-major `source_rank × dim`).
    BFactor {
        /// Embedding-table index.
        table: u32,
        /// LoRA rank of the exporting adapter.
        source_rank: u32,
        /// Row-major factor values.
        values: Vec<f64>,
    },
    /// Install a broadcast `B` factor.
    PushB {
        /// Embedding-table index.
        table: u32,
        /// LoRA rank of the exporting adapter.
        source_rank: u32,
        /// Row-major factor values.
        values: Vec<f64>,
    },
    /// QuickUpdate shipment: fresh base-embedding rows (top-changed by the trainer).
    PushEmbeddingRows {
        /// The shipped rows.
        rows: Vec<EmbeddingRowUpdate>,
    },
    /// DeltaUpdate shipment: every trainable parameter in the canonical flat order of
    /// `DlrmModel::export_parameters`.
    FullModel {
        /// The flat parameter vector.
        params: Vec<f64>,
    },
    /// Rematerialise serving rows and publish a fresh epoch-swapped snapshot.
    Publish,
    /// Scrape the replica's live telemetry registry.
    Stats,
    /// The flattened telemetry snapshot: sorted `(metric name, value)` rows, exactly
    /// the output of `ServingRuntime::scrape`. Empty when the replica runs with
    /// telemetry disabled.
    StatsReply {
        /// The `(name, value)` metric rows.
        metrics: Vec<(String, f64)>,
    },
    /// Drain the replica's completed request/publication spans and pull its raw
    /// histogram buckets (for exact cluster-level percentile merging).
    TraceDump,
    /// The replica's side of the distributed traces.
    TraceDumpReply {
        /// Completed spans drained from the replica's span ring (each drained span is
        /// delivered exactly once across successive dumps).
        spans: Vec<SpanRecord>,
        /// Raw log-linear histogram contents, one [`SparseHistogram`] per metric —
        /// mergeable across replicas, unlike pre-flattened percentiles.
        histograms: Vec<SparseHistogram>,
    },
    /// Positive acknowledgement of the preceding push.
    Ack,
    /// Negative acknowledgement (the push was rejected; state unchanged).
    Nack {
        /// Why the push was rejected.
        reason: String,
    },
    /// Graceful close; the peer stops reading this connection.
    Bye,
}

// Frame tags. Kept dense and stable; the decoder rejects anything else.
const TAG_INFER_REQUEST: u8 = 1;
const TAG_INFER_REPLY: u8 = 2;
const TAG_INFER_SHED: u8 = 3;
const TAG_PULL_SUPPORT: u8 = 4;
const TAG_SUPPORT: u8 = 5;
const TAG_PULL_LORA_ROWS: u8 = 6;
const TAG_LORA_ROWS: u8 = 7;
const TAG_PUSH_LORA_ROWS: u8 = 8;
const TAG_PULL_B: u8 = 9;
const TAG_B_FACTOR: u8 = 10;
const TAG_PUSH_B: u8 = 11;
const TAG_PUSH_EMBEDDING_ROWS: u8 = 12;
const TAG_FULL_MODEL: u8 = 13;
const TAG_PUBLISH: u8 = 14;
const TAG_ACK: u8 = 15;
const TAG_NACK: u8 = 16;
const TAG_BYE: u8 = 17;
const TAG_STATS: u8 = 18;
const TAG_STATS_REPLY: u8 = 19;
const TAG_TRACE_DUMP: u8 = 20;
const TAG_TRACE_DUMP_REPLY: u8 = 21;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) -> Result<(), WireError> {
    if !v.is_finite() {
        return Err(WireError::NonFinite);
    }
    out.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

fn put_f64_vec(out: &mut Vec<u8>, values: &[f64]) -> Result<(), WireError> {
    put_u32(
        out,
        u32::try_from(values.len()).map_err(|_| WireError::Malformed("vector too long"))?,
    );
    for &v in values {
        put_f64(out, v)?;
    }
    Ok(())
}

fn put_index_pairs(out: &mut Vec<u8>, rows: &[(u32, u64)]) -> Result<(), WireError> {
    put_u32(
        out,
        u32::try_from(rows.len()).map_err(|_| WireError::Malformed("vector too long"))?,
    );
    for &(table, row) in rows {
        put_u32(out, table);
        put_u64(out, row);
    }
    Ok(())
}

fn put_sample(out: &mut Vec<u8>, sample: &Sample) -> Result<(), WireError> {
    put_f64_vec(out, &sample.dense)?;
    put_u32(
        out,
        u32::try_from(sample.sparse.len()).map_err(|_| WireError::Malformed("too many tables"))?,
    );
    for ids in &sample.sparse {
        put_u32(
            out,
            u32::try_from(ids.len()).map_err(|_| WireError::Malformed("too many ids"))?,
        );
        for &id in ids {
            put_u64(out, id as u64);
        }
    }
    put_f64(out, sample.label)
}

impl Frame {
    /// Encode the frame as `[u32 length][payload]`, ready to write to a socket.
    ///
    /// # Errors
    ///
    /// [`WireError::NonFinite`] if any float is NaN/infinite; [`WireError::Malformed`]
    /// if a vector exceeds `u32` length.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut payload = Vec::with_capacity(64);
        match self {
            Frame::InferRequest {
                id,
                time_minutes,
                trace_id,
                parent_span_id,
                sample,
            } => {
                payload.push(TAG_INFER_REQUEST);
                put_u64(&mut payload, *id);
                put_f64(&mut payload, *time_minutes)?;
                put_u64(&mut payload, *trace_id);
                put_u64(&mut payload, *parent_span_id);
                put_sample(&mut payload, sample)?;
            }
            Frame::InferReply {
                id,
                trace_id,
                span_id,
                prediction,
            } => {
                payload.push(TAG_INFER_REPLY);
                put_u64(&mut payload, *id);
                put_u64(&mut payload, *trace_id);
                put_u64(&mut payload, *span_id);
                put_f64(&mut payload, *prediction)?;
            }
            Frame::InferShed { id } => {
                payload.push(TAG_INFER_SHED);
                put_u64(&mut payload, *id);
            }
            Frame::PullSupport => payload.push(TAG_PULL_SUPPORT),
            Frame::Support { rows } => {
                payload.push(TAG_SUPPORT);
                put_index_pairs(&mut payload, rows)?;
            }
            Frame::PullLoraRows { rows } => {
                payload.push(TAG_PULL_LORA_ROWS);
                put_index_pairs(&mut payload, rows)?;
            }
            Frame::LoraRows { rows } | Frame::PushLoraRows { rows } => {
                payload.push(if matches!(self, Frame::LoraRows { .. }) {
                    TAG_LORA_ROWS
                } else {
                    TAG_PUSH_LORA_ROWS
                });
                put_u32(
                    &mut payload,
                    u32::try_from(rows.len())
                        .map_err(|_| WireError::Malformed("vector too long"))?,
                );
                for row in rows {
                    put_u32(&mut payload, row.table);
                    put_u64(&mut payload, row.row);
                    put_f64_vec(&mut payload, &row.values)?;
                }
            }
            Frame::PullB { table } => {
                payload.push(TAG_PULL_B);
                put_u32(&mut payload, *table);
            }
            Frame::BFactor {
                table,
                source_rank,
                values,
            }
            | Frame::PushB {
                table,
                source_rank,
                values,
            } => {
                payload.push(if matches!(self, Frame::BFactor { .. }) {
                    TAG_B_FACTOR
                } else {
                    TAG_PUSH_B
                });
                put_u32(&mut payload, *table);
                put_u32(&mut payload, *source_rank);
                put_f64_vec(&mut payload, values)?;
            }
            Frame::PushEmbeddingRows { rows } => {
                payload.push(TAG_PUSH_EMBEDDING_ROWS);
                put_u32(
                    &mut payload,
                    u32::try_from(rows.len())
                        .map_err(|_| WireError::Malformed("vector too long"))?,
                );
                for row in rows {
                    put_u32(&mut payload, row.table);
                    put_u64(&mut payload, row.row);
                    put_f64_vec(&mut payload, &row.values)?;
                }
            }
            Frame::FullModel { params } => {
                payload.push(TAG_FULL_MODEL);
                put_f64_vec(&mut payload, params)?;
            }
            Frame::Publish => payload.push(TAG_PUBLISH),
            Frame::Ack => payload.push(TAG_ACK),
            Frame::Nack { reason } => {
                payload.push(TAG_NACK);
                let bytes = reason.as_bytes();
                put_u32(
                    &mut payload,
                    u32::try_from(bytes.len())
                        .map_err(|_| WireError::Malformed("reason too long"))?,
                );
                payload.extend_from_slice(bytes);
            }
            Frame::Bye => payload.push(TAG_BYE),
            Frame::Stats => payload.push(TAG_STATS),
            Frame::StatsReply { metrics } => {
                payload.push(TAG_STATS_REPLY);
                put_u32(
                    &mut payload,
                    u32::try_from(metrics.len())
                        .map_err(|_| WireError::Malformed("vector too long"))?,
                );
                for (name, value) in metrics {
                    let bytes = name.as_bytes();
                    put_u32(
                        &mut payload,
                        u32::try_from(bytes.len())
                            .map_err(|_| WireError::Malformed("metric name too long"))?,
                    );
                    payload.extend_from_slice(bytes);
                    put_f64(&mut payload, *value)?;
                }
            }
            Frame::TraceDump => payload.push(TAG_TRACE_DUMP),
            Frame::TraceDumpReply { spans, histograms } => {
                payload.push(TAG_TRACE_DUMP_REPLY);
                put_u32(
                    &mut payload,
                    u32::try_from(spans.len())
                        .map_err(|_| WireError::Malformed("vector too long"))?,
                );
                for span in spans {
                    put_u64(&mut payload, span.trace_id);
                    put_u64(&mut payload, span.span_id);
                    put_u64(&mut payload, span.parent_span_id);
                    for &stamp in &span.stages {
                        put_u64(&mut payload, stamp);
                    }
                }
                put_u32(
                    &mut payload,
                    u32::try_from(histograms.len())
                        .map_err(|_| WireError::Malformed("vector too long"))?,
                );
                for (name, buckets) in histograms {
                    let bytes = name.as_bytes();
                    put_u32(
                        &mut payload,
                        u32::try_from(bytes.len())
                            .map_err(|_| WireError::Malformed("metric name too long"))?,
                    );
                    payload.extend_from_slice(bytes);
                    put_u32(
                        &mut payload,
                        u32::try_from(buckets.len())
                            .map_err(|_| WireError::Malformed("vector too long"))?,
                    );
                    for &(bucket, count) in buckets {
                        put_u32(&mut payload, bucket);
                        put_u64(&mut payload, count);
                    }
                }
            }
        }
        let len =
            u32::try_from(payload.len()).map_err(|_| WireError::Malformed("payload too long"))?;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::TooLarge(len));
        }
        let mut out = Vec::with_capacity(4 + payload.len());
        put_u32(&mut out, len);
        out.extend_from_slice(&payload);
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Cursor over one frame payload.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let v = f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"));
        if !v.is_finite() {
            return Err(WireError::NonFinite);
        }
        Ok(v)
    }

    /// A length-prefixed f64 vector; the count is validated against the remaining
    /// payload before anything is allocated.
    fn f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let count = self.u32()? as usize;
        if self.buf.len() < count.saturating_mul(8) {
            return Err(WireError::Truncated);
        }
        (0..count).map(|_| self.f64()).collect()
    }

    fn index_pairs(&mut self) -> Result<Vec<(u32, u64)>, WireError> {
        let count = self.u32()? as usize;
        if self.buf.len() < count.saturating_mul(12) {
            return Err(WireError::Truncated);
        }
        (0..count).map(|_| Ok((self.u32()?, self.u64()?))).collect()
    }

    fn lora_rows(&mut self) -> Result<Vec<LoraRowUpdate>, WireError> {
        let count = self.u32()? as usize;
        // Each entry is at least table(4) + row(8) + count(4) bytes.
        if self.buf.len() < count.saturating_mul(16) {
            return Err(WireError::Truncated);
        }
        (0..count)
            .map(|_| {
                Ok(LoraRowUpdate {
                    table: self.u32()?,
                    row: self.u64()?,
                    values: self.f64_vec()?,
                })
            })
            .collect()
    }

    fn sample(&mut self) -> Result<Sample, WireError> {
        let dense = self.f64_vec()?;
        let num_tables = self.u32()? as usize;
        if self.buf.len() < num_tables.saturating_mul(4) {
            return Err(WireError::Truncated);
        }
        let mut sparse = Vec::with_capacity(num_tables);
        for _ in 0..num_tables {
            let count = self.u32()? as usize;
            if self.buf.len() < count.saturating_mul(8) {
                return Err(WireError::Truncated);
            }
            let ids: Result<Vec<usize>, WireError> =
                (0..count).map(|_| Ok(self.u64()? as usize)).collect();
            sparse.push(ids?);
        }
        let label = self.f64()?;
        Ok(Sample::new(dense, sparse, label))
    }
}

impl Frame {
    /// Decode one frame payload (the bytes after the length prefix).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] for malformed, truncated, over-long, or non-finite input.
    /// Never panics on arbitrary bytes.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader { buf: payload };
        let frame = match r.u8()? {
            TAG_INFER_REQUEST => Frame::InferRequest {
                id: r.u64()?,
                time_minutes: r.f64()?,
                trace_id: r.u64()?,
                parent_span_id: r.u64()?,
                sample: r.sample()?,
            },
            TAG_INFER_REPLY => Frame::InferReply {
                id: r.u64()?,
                trace_id: r.u64()?,
                span_id: r.u64()?,
                prediction: r.f64()?,
            },
            TAG_INFER_SHED => Frame::InferShed { id: r.u64()? },
            TAG_PULL_SUPPORT => Frame::PullSupport,
            TAG_SUPPORT => Frame::Support {
                rows: r.index_pairs()?,
            },
            TAG_PULL_LORA_ROWS => Frame::PullLoraRows {
                rows: r.index_pairs()?,
            },
            TAG_LORA_ROWS => Frame::LoraRows {
                rows: r.lora_rows()?,
            },
            TAG_PUSH_LORA_ROWS => Frame::PushLoraRows {
                rows: r.lora_rows()?,
            },
            TAG_PULL_B => Frame::PullB { table: r.u32()? },
            TAG_B_FACTOR => Frame::BFactor {
                table: r.u32()?,
                source_rank: r.u32()?,
                values: r.f64_vec()?,
            },
            TAG_PUSH_B => Frame::PushB {
                table: r.u32()?,
                source_rank: r.u32()?,
                values: r.f64_vec()?,
            },
            TAG_PUSH_EMBEDDING_ROWS => Frame::PushEmbeddingRows {
                rows: r
                    .lora_rows()?
                    .into_iter()
                    .map(|row| EmbeddingRowUpdate {
                        table: row.table,
                        row: row.row,
                        values: row.values,
                    })
                    .collect(),
            },
            TAG_FULL_MODEL => Frame::FullModel {
                params: r.f64_vec()?,
            },
            TAG_PUBLISH => Frame::Publish,
            TAG_ACK => Frame::Ack,
            TAG_NACK => {
                let len = r.u32()? as usize;
                let bytes = r.take(len)?;
                Frame::Nack {
                    reason: String::from_utf8(bytes.to_vec())
                        .map_err(|_| WireError::Malformed("reason is not UTF-8"))?,
                }
            }
            TAG_BYE => Frame::Bye,
            TAG_STATS => Frame::Stats,
            TAG_STATS_REPLY => {
                let count = r.u32()? as usize;
                // Each entry is at least name-length(4) + value(8) bytes.
                if r.buf.len() < count.saturating_mul(12) {
                    return Err(WireError::Truncated);
                }
                let metrics: Result<Vec<(String, f64)>, WireError> = (0..count)
                    .map(|_| {
                        let len = r.u32()? as usize;
                        let bytes = r.take(len)?;
                        let name = String::from_utf8(bytes.to_vec())
                            .map_err(|_| WireError::Malformed("metric name is not UTF-8"))?;
                        Ok((name, r.f64()?))
                    })
                    .collect();
                Frame::StatsReply { metrics: metrics? }
            }
            TAG_TRACE_DUMP => Frame::TraceDump,
            TAG_TRACE_DUMP_REPLY => {
                let span_count = r.u32()? as usize;
                // Each span is 3 ids + NUM_STAGES stamps, all u64.
                if r.buf.len() < span_count.saturating_mul((3 + NUM_STAGES) * 8) {
                    return Err(WireError::Truncated);
                }
                let spans: Result<Vec<SpanRecord>, WireError> = (0..span_count)
                    .map(|_| {
                        let trace_id = r.u64()?;
                        let span_id = r.u64()?;
                        let parent_span_id = r.u64()?;
                        let mut stages = [0u64; NUM_STAGES];
                        for stamp in &mut stages {
                            *stamp = r.u64()?;
                        }
                        Ok(SpanRecord {
                            trace_id,
                            span_id,
                            parent_span_id,
                            stages,
                        })
                    })
                    .collect();
                let hist_count = r.u32()? as usize;
                // Each histogram is at least name-length(4) + bucket-count(4) bytes.
                if r.buf.len() < hist_count.saturating_mul(8) {
                    return Err(WireError::Truncated);
                }
                let histograms: Result<Vec<SparseHistogram>, WireError> = (0..hist_count)
                    .map(|_| {
                        let len = r.u32()? as usize;
                        let bytes = r.take(len)?;
                        let name = String::from_utf8(bytes.to_vec())
                            .map_err(|_| WireError::Malformed("metric name is not UTF-8"))?;
                        let bucket_count = r.u32()? as usize;
                        if r.buf.len() < bucket_count.saturating_mul(12) {
                            return Err(WireError::Truncated);
                        }
                        let buckets: Result<Vec<(u32, u64)>, WireError> = (0..bucket_count)
                            .map(|_| Ok((r.u32()?, r.u64()?)))
                            .collect();
                        Ok((name, buckets?))
                    })
                    .collect();
                Frame::TraceDumpReply {
                    spans: spans?,
                    histograms: histograms?,
                }
            }
            tag => return Err(WireError::BadTag(tag)),
        };
        if !r.buf.is_empty() {
            return Err(WireError::TrailingBytes);
        }
        Ok(frame)
    }
}

// ---------------------------------------------------------------------------
// Socket helpers
// ---------------------------------------------------------------------------

/// Write one frame, returning the number of bytes that hit the wire (length prefix
/// included) so callers can account traffic at the socket.
///
/// # Errors
///
/// Encoding errors and socket errors.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<usize, WireError> {
    let bytes = frame.encode()?;
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame boundary; an EOF inside
/// a frame is [`WireError::Truncated`]. On success also returns the number of bytes
/// consumed from the wire (length prefix included).
///
/// # Errors
///
/// Decoding errors and socket errors.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(Frame, usize)>, WireError> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before any length byte means the peer closed between frames.
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(WireError::Truncated);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_START_BYTES));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(WireError::Truncated);
    }
    let frame = Frame::decode(&payload)?;
    Ok(Some((frame, 4 + payload.len())))
}

// ---------------------------------------------------------------------------
// Incremental decode
// ---------------------------------------------------------------------------

/// Resumable frame decoding for nonblocking sockets: feed whatever bytes the kernel
/// handed over with [`FrameAssembler::extend`], then pop complete frames with
/// [`FrameAssembler::next_frame`] until it returns `Ok(None)` (mid-frame, need more
/// bytes). This is [`read_frame`]'s contract re-cut for a readiness event loop, where a
/// read may end anywhere — inside a length prefix, inside a payload — and the decoder
/// must pick up exactly where it left off on the next readiness.
///
/// Errors are terminal for the stream, exactly as they are for [`read_frame`]: after a
/// [`WireError`], framing alignment is lost and the connection must close.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Bytes before `pos` belong to frames already returned; compacted lazily so
    /// per-frame cost stays amortised O(frame length), not O(buffer length).
    pos: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet decoded into a frame.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when no partial frame is buffered — the stream is at a frame boundary,
    /// so a peer EOF here is clean rather than a truncation.
    #[must_use]
    pub fn at_boundary(&self) -> bool {
        self.pending() == 0
    }

    /// Decode the next complete frame, if the buffer holds one. Returns the frame plus
    /// its wire length (length prefix included), mirroring [`read_frame`].
    ///
    /// # Errors
    ///
    /// Any [`WireError`] a complete-but-invalid frame produces, plus
    /// [`WireError::TooLarge`] as soon as a length prefix exceeds [`MAX_FRAME_BYTES`]
    /// (before the payload is buffered, so a corrupt prefix cannot balloon memory).
    pub fn next_frame(&mut self) -> Result<Option<(Frame, usize)>, WireError> {
        let pending = &self.buf[self.pos..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BYTES {
            return Err(WireError::TooLarge(len));
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let frame = Frame::decode(&pending[4..total])?;
        self.pos += total;
        // Compact once the consumed prefix dominates, so the buffer never grows
        // proportionally to connection lifetime.
        if self.pos >= 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some((frame, total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every frame variant with representative payloads, including the degenerate ones
    /// the satellite calls out: empty supports and maximum-length rows.
    fn exemplars() -> Vec<Frame> {
        let long_row: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
        vec![
            Frame::InferRequest {
                id: 7,
                time_minutes: 12.5,
                trace_id: 0,
                parent_span_id: 0,
                sample: Sample::new(vec![0.5, -1.0], vec![vec![1, 2], vec![], vec![9]], 1.0),
            },
            Frame::InferRequest {
                id: 8,
                time_minutes: 0.0,
                trace_id: 0xDEAD_BEEF,
                parent_span_id: 42,
                sample: Sample::new(vec![], vec![], 0.0),
            },
            Frame::InferReply {
                id: 7,
                trace_id: 0,
                span_id: 0,
                prediction: 0.75,
            },
            Frame::InferReply {
                id: 8,
                trace_id: 0xDEAD_BEEF,
                span_id: 77,
                prediction: 0.25,
            },
            Frame::InferShed { id: 8 },
            Frame::PullSupport,
            Frame::Support { rows: vec![] },
            Frame::Support {
                rows: vec![(0, 5), (1, u64::MAX)],
            },
            Frame::PullLoraRows { rows: vec![(0, 1)] },
            Frame::LoraRows { rows: vec![] },
            Frame::LoraRows {
                rows: vec![LoraRowUpdate {
                    table: 0,
                    row: 3,
                    values: long_row.clone(),
                }],
            },
            Frame::PushLoraRows {
                rows: vec![
                    LoraRowUpdate {
                        table: 1,
                        row: 0,
                        values: vec![],
                    },
                    LoraRowUpdate {
                        table: 0,
                        row: 2,
                        values: vec![1.0, -2.0],
                    },
                ],
            },
            Frame::PullB { table: 3 },
            Frame::BFactor {
                table: 3,
                source_rank: 4,
                values: long_row.clone(),
            },
            Frame::PushB {
                table: 3,
                source_rank: 4,
                values: vec![0.0; 8],
            },
            Frame::PushEmbeddingRows {
                rows: vec![EmbeddingRowUpdate {
                    table: 0,
                    row: 11,
                    values: vec![0.5; 8],
                }],
            },
            Frame::PushEmbeddingRows { rows: vec![] },
            Frame::FullModel { params: long_row },
            Frame::Publish,
            Frame::Stats,
            Frame::StatsReply { metrics: vec![] },
            Frame::StatsReply {
                metrics: vec![
                    ("epoch_age_us".into(), 1234.0),
                    ("serve_latency_us_p99".into(), 8_500.25),
                    ("serve_requests_total".into(), 1e6),
                ],
            },
            Frame::TraceDump,
            Frame::TraceDumpReply {
                spans: vec![],
                histograms: vec![],
            },
            Frame::TraceDumpReply {
                spans: vec![
                    SpanRecord {
                        trace_id: 11,
                        span_id: 3,
                        parent_span_id: 2,
                        stages: [10, 20, 30, 40, 50],
                    },
                    SpanRecord {
                        trace_id: u64::MAX,
                        span_id: u64::MAX,
                        parent_span_id: 0,
                        stages: [1, 0, 0, 0, u64::MAX],
                    },
                ],
                histograms: vec![
                    ("stage_serve_us".into(), vec![(0, 1), (2049, u64::MAX)]),
                    ("serve_latency_us".into(), vec![]),
                ],
            },
            Frame::Ack,
            Frame::Nack {
                reason: "geometry mismatch".into(),
            },
            Frame::Bye,
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in exemplars() {
            let bytes = frame.encode().unwrap();
            let (decoded, consumed) = read_frame(&mut &bytes[..])
                .unwrap()
                .expect("one frame present");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
            // And the payload decoder agrees with the stream reader.
            assert_eq!(Frame::decode(&bytes[4..]).unwrap(), frame);
        }
    }

    #[test]
    fn clean_eof_is_none_and_streams_concatenate() {
        let mut bytes = Vec::new();
        for frame in [Frame::Publish, Frame::Ack, Frame::Bye] {
            bytes.extend_from_slice(&frame.encode().unwrap());
        }
        let mut cursor = &bytes[..];
        let mut seen = Vec::new();
        while let Some((frame, _)) = read_frame(&mut cursor).unwrap() {
            seen.push(frame);
        }
        assert_eq!(seen, vec![Frame::Publish, Frame::Ack, Frame::Bye]);
    }

    #[test]
    fn non_finite_floats_are_rejected_on_encode() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let frame = Frame::InferReply {
                id: 1,
                trace_id: 0,
                span_id: 0,
                prediction: bad,
            };
            assert!(matches!(frame.encode(), Err(WireError::NonFinite)));
            let frame = Frame::FullModel {
                params: vec![1.0, bad],
            };
            assert!(matches!(frame.encode(), Err(WireError::NonFinite)));
            let frame = Frame::StatsReply {
                metrics: vec![("x".into(), bad)],
            };
            assert!(matches!(frame.encode(), Err(WireError::NonFinite)));
        }
    }

    #[test]
    fn non_finite_floats_are_rejected_on_decode() {
        let good = Frame::InferReply {
            id: 1,
            trace_id: 0,
            span_id: 0,
            prediction: 0.5,
        }
        .encode()
        .unwrap();
        // The prediction occupies the trailing 8 bytes; overwrite with NaN bits.
        let mut bad = good;
        let n = bad.len();
        bad[n - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bad[4..]),
            Err(WireError::NonFinite)
        ));
    }

    #[test]
    fn oversized_length_prefix_is_bounded() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::TooLarge(_))
        ));
    }

    /// A reader that hands out `data` and records the largest buffer it was given.
    struct RecordingReader<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for RecordingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn length_prefix_alone_does_not_size_the_read_buffer() {
        // A prefix claiming the maximum frame, followed by a few bytes and EOF: the
        // read must fail as truncated without handing out a frame-sized buffer.
        let mut bytes = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7u8; 10]);
        let mut reader = RecordingReader {
            data: &bytes,
            largest: 0,
        };
        assert!(matches!(read_frame(&mut reader), Err(WireError::Truncated)));
        assert!(
            reader.largest <= READ_START_BYTES,
            "largest read buffer {} bytes",
            reader.largest
        );
        // A real frame still round-trips through the bounded reader.
        let frame = Frame::Ack.encode().unwrap();
        let mut reader = RecordingReader {
            data: &frame,
            largest: 0,
        };
        let (decoded, n) = read_frame(&mut reader).unwrap().unwrap();
        assert!(matches!(decoded, Frame::Ack));
        assert_eq!(n, frame.len());
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_errors() {
        assert!(matches!(Frame::decode(&[200]), Err(WireError::BadTag(200))));
        let mut bytes = Frame::Ack.encode().unwrap()[4..].to_vec();
        bytes.push(0);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::TrailingBytes)
        ));
        assert!(matches!(Frame::decode(&[]), Err(WireError::Truncated)));
    }

    #[test]
    fn assembler_reassembles_byte_at_a_time() {
        // The hardest arrival pattern a nonblocking read can produce: one byte per
        // readiness. Every exemplar must pop out exactly once, at the right boundary,
        // with the right wire length.
        let frames = exemplars();
        let mut bytes = Vec::new();
        let mut lengths = Vec::new();
        for frame in &frames {
            let encoded = frame.encode().unwrap();
            lengths.push(encoded.len());
            bytes.extend_from_slice(&encoded);
        }
        let mut asm = FrameAssembler::new();
        let mut decoded = Vec::new();
        for &b in &bytes {
            asm.extend(&[b]);
            while let Some((frame, n)) = asm.next_frame().unwrap() {
                decoded.push((frame, n));
            }
        }
        assert!(asm.at_boundary(), "all bytes consumed at a frame boundary");
        assert_eq!(decoded.len(), frames.len());
        for ((frame, n), (expected, len)) in
            decoded.into_iter().zip(frames.into_iter().zip(lengths))
        {
            assert_eq!(frame, expected);
            assert_eq!(n, len);
        }
    }

    #[test]
    fn assembler_reports_mid_frame_state_and_bulk_chunks() {
        let frame = Frame::FullModel {
            params: vec![0.25; 512],
        };
        let bytes = frame.encode().unwrap();
        let mut asm = FrameAssembler::new();
        // A partial frame is not a boundary (a peer EOF here would be truncation).
        asm.extend(&bytes[..bytes.len() / 2]);
        assert!(asm.next_frame().unwrap().is_none());
        assert!(!asm.at_boundary());
        // The rest of the frame plus the start of the next arrive in one chunk.
        let next = Frame::Ack.encode().unwrap();
        let mut chunk = bytes[bytes.len() / 2..].to_vec();
        chunk.extend_from_slice(&next[..2]);
        asm.extend(&chunk);
        let (decoded, n) = asm.next_frame().unwrap().expect("first frame complete");
        assert_eq!(decoded, frame);
        assert_eq!(n, bytes.len());
        assert!(
            !asm.at_boundary(),
            "two bytes of the next frame are pending"
        );
        asm.extend(&next[2..]);
        assert_eq!(asm.next_frame().unwrap().unwrap().0, Frame::Ack);
        assert!(asm.at_boundary());
    }

    #[test]
    fn assembler_rejects_oversized_prefix_before_buffering_payload() {
        let mut asm = FrameAssembler::new();
        asm.extend(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(asm.next_frame(), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn assembler_surfaces_payload_decode_errors() {
        // A complete frame with an unknown tag is a terminal stream error.
        let mut asm = FrameAssembler::new();
        asm.extend(&1u32.to_le_bytes());
        asm.extend(&[250]);
        assert!(matches!(asm.next_frame(), Err(WireError::BadTag(250))));
    }

    #[test]
    fn assembler_compacts_under_sustained_traffic() {
        // Pipelined-connection regression: the consumed prefix must not accumulate
        // forever. After many frames the internal buffer stays bounded by frame size,
        // not by connection lifetime.
        let frame = Frame::InferReply {
            id: 9,
            trace_id: 0,
            span_id: 0,
            prediction: 0.5,
        };
        let encoded = frame.encode().unwrap();
        let mut asm = FrameAssembler::new();
        for _ in 0..10_000 {
            asm.extend(&encoded);
            let (decoded, _) = asm.next_frame().unwrap().expect("frame complete");
            assert_eq!(decoded, frame);
        }
        assert!(asm.at_boundary());
        assert!(
            asm.buf.len() < 64 * 1024,
            "buffer stayed bounded, got {} bytes",
            asm.buf.len()
        );
    }

    #[test]
    fn every_strict_prefix_of_every_exemplar_errors() {
        // Deterministic truncation sweep over every exemplar frame: a decoder that
        // panics (or succeeds) on any strict payload prefix is broken.
        for frame in exemplars() {
            let payload = &frame.encode().unwrap()[4..];
            for cut in 0..payload.len() {
                assert!(
                    Frame::decode(&payload[..cut]).is_err(),
                    "prefix of length {cut} of {frame:?} must not decode"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round-trip identity over generated LoRA row exchanges.
        #[test]
        fn prop_lora_rows_round_trip(
            entries in proptest::collection::vec(
                (0u32..8, 0u64..10_000, proptest::collection::vec(-10.0f64..10.0, 0..32)),
                0..16,
            ),
        ) {
            let frame = Frame::PushLoraRows {
                rows: entries
                    .into_iter()
                    .map(|(table, row, values)| LoraRowUpdate { table, row, values })
                    .collect(),
            };
            let bytes = frame.encode().unwrap();
            let (decoded, _) = read_frame(&mut &bytes[..]).unwrap().unwrap();
            prop_assert_eq!(decoded, frame);
        }

        /// Round-trip identity over generated samples (multi-hot, empty tables, labels).
        #[test]
        fn prop_infer_request_round_trips(
            id in 0u64..u64::MAX,
            minutes in 0.0f64..10_000.0,
            trace_id in 0u64..u64::MAX,
            parent_span_id in 0u64..1_000_000,
            dense in proptest::collection::vec(-5.0f64..5.0, 0..8),
            sparse in proptest::collection::vec(
                proptest::collection::vec(0usize..100_000, 0..6), 0..5),
            label in 0.0f64..1.0,
        ) {
            let frame = Frame::InferRequest {
                id,
                time_minutes: minutes,
                trace_id,
                parent_span_id,
                sample: Sample::new(dense, sparse, label),
            };
            let bytes = frame.encode().unwrap();
            let (decoded, consumed) = read_frame(&mut &bytes[..]).unwrap().unwrap();
            prop_assert_eq!(decoded, frame);
            prop_assert_eq!(consumed, bytes.len());
        }

        /// Truncation fuzz: decoding any strict prefix of a valid frame errors cleanly.
        #[test]
        fn prop_truncated_frames_error_never_panic(
            entries in proptest::collection::vec(
                (0u32..8, 0u64..10_000, proptest::collection::vec(-10.0f64..10.0, 0..16)),
                0..8,
            ),
            cut_fraction in 0.0f64..1.0,
        ) {
            let frame = Frame::LoraRows {
                rows: entries
                    .into_iter()
                    .map(|(table, row, values)| LoraRowUpdate { table, row, values })
                    .collect(),
            };
            let payload = &frame.encode().unwrap()[4..];
            let cut = ((payload.len() as f64) * cut_fraction) as usize;
            if cut < payload.len() {
                prop_assert!(Frame::decode(&payload[..cut]).is_err());
            }
            // The stream reader must also surface truncation mid-payload as an error.
            let full = frame.encode().unwrap();
            let stream_cut = 4 + cut;
            if stream_cut < full.len() {
                prop_assert!(read_frame(&mut &full[..stream_cut]).is_err());
            }
        }

        /// Round-trip identity over generated telemetry scrapes, including empty names
        /// and multi-byte UTF-8 (the codec stores raw UTF-8 bytes).
        #[test]
        fn prop_stats_reply_round_trips(
            metrics in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..28, 0..40).prop_map(|cs| {
                        cs.into_iter()
                            .map(|c| match c {
                                26 => '_',
                                27 => 'µ', // exercise a multi-byte code point
                                c => (b'a' + c) as char,
                            })
                            .collect::<String>()
                    }),
                    -1e12f64..1e12,
                ),
                0..32,
            ),
        ) {
            let frame = Frame::StatsReply { metrics };
            let bytes = frame.encode().unwrap();
            let (decoded, consumed) = read_frame(&mut &bytes[..]).unwrap().unwrap();
            prop_assert_eq!(decoded, frame);
            prop_assert_eq!(consumed, bytes.len());
        }

        /// Truncation fuzz parity for the stats frames: any strict prefix errors
        /// cleanly, matching the guarantee of every other frame.
        #[test]
        fn prop_truncated_stats_reply_errors_never_panics(
            metrics in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..26, 1..24).prop_map(|cs| {
                        cs.into_iter().map(|c| (b'a' + c) as char).collect::<String>()
                    }),
                    0.0f64..1e9,
                ),
                1..16,
            ),
            cut_fraction in 0.0f64..1.0,
        ) {
            let frame = Frame::StatsReply { metrics };
            let payload = &frame.encode().unwrap()[4..];
            let cut = ((payload.len() as f64) * cut_fraction) as usize;
            if cut < payload.len() {
                prop_assert!(Frame::decode(&payload[..cut]).is_err());
            }
        }

        /// Round-trip identity over generated trace dumps (spans with partial stage
        /// stamps, sparse histogram buckets, empty vectors).
        #[test]
        fn prop_trace_dump_reply_round_trips(
            spans in proptest::collection::vec(
                (1u64..u64::MAX, 1u64..u64::MAX, 0u64..u64::MAX,
                 proptest::collection::vec(0u64..1_000_000, NUM_STAGES..NUM_STAGES + 1)),
                0..12,
            ),
            histograms in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..26, 1..24).prop_map(|cs| {
                        cs.into_iter().map(|c| (b'a' + c) as char).collect::<String>()
                    }),
                    proptest::collection::vec((0u32..2050, 0u64..1_000_000), 0..16),
                ),
                0..8,
            ),
            cut_fraction in 0.0f64..1.0,
        ) {
            let frame = Frame::TraceDumpReply {
                spans: spans
                    .into_iter()
                    .map(|(trace_id, span_id, parent_span_id, stamps)| SpanRecord {
                        trace_id,
                        span_id,
                        parent_span_id,
                        stages: stamps.try_into().expect("exactly NUM_STAGES stamps"),
                    })
                    .collect(),
                histograms,
            };
            let bytes = frame.encode().unwrap();
            let (decoded, consumed) = read_frame(&mut &bytes[..]).unwrap().unwrap();
            prop_assert_eq!(&decoded, &frame);
            prop_assert_eq!(consumed, bytes.len());
            // Truncation parity with every other frame: strict prefixes error cleanly.
            let payload = &bytes[4..];
            let cut = ((payload.len() as f64) * cut_fraction) as usize;
            if cut < payload.len() {
                prop_assert!(Frame::decode(&payload[..cut]).is_err());
            }
        }

        /// Corrupt-byte fuzz: flipping any single payload byte either decodes to some
        /// frame or errors — it never panics.
        #[test]
        fn prop_corrupted_payload_never_panics(
            pos_fraction in 0.0f64..1.0,
            xor in 1u8..=255,
        ) {
            let frame = Frame::BFactor { table: 1, source_rank: 2, values: vec![0.5; 16] };
            let mut payload = frame.encode().unwrap()[4..].to_vec();
            let pos = ((payload.len() as f64) * pos_fraction) as usize % payload.len();
            payload[pos] ^= xor;
            let _ = Frame::decode(&payload); // must return, not panic
        }
    }
}
