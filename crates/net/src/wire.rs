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
//! The protocol is declared once, in the `frames!` table: a frame's tag is its position
//! in the table, counted from 1, and both codec halves walk its fields in declaration
//! order through one `Wire` impl per field type. So tags are dense and unique, and
//! encode and decode agree, by construction.
//!
//! Robustness rules, pinned by property tests:
//!
//! * **Round-trip identity** — `decode(encode(f)) == f` for every frame, including
//!   empty LoRA supports and maximum-length rows.
//! * **Non-finite rejection** — a NaN or infinity anywhere is an [`WireError::NonFinite`]
//!   on *encode* and on *decode*; garbage never propagates into a model.
//! * **Truncation safety** — decoding any strict prefix of a valid frame is an error,
//!   never a panic; a corrupt length prefix is bounded by [`MAX_FRAME_BYTES`] before
//!   anything is allocated, and a corrupt element count by the bytes that remain.

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

/// One shipped row delta: `(table, row)` plus the row values. The LoRA frames carry
/// `A` rows at the exporter's rank; `PushEmbeddingRows` carries fresh base-embedding
/// rows (the wire form of a QuickUpdate-α% pull).
#[derive(Debug, Clone, PartialEq)]
pub struct RowUpdate {
    /// Embedding-table index.
    pub table: u32,
    /// Row within the table.
    pub row: u64,
    /// The row values.
    pub values: Vec<f64>,
}

// ---------------------------------------------------------------------------
// Field codec
// ---------------------------------------------------------------------------

/// A value with a fixed wire form. `MIN_BYTES` is the size of its smallest encoding,
/// so a decoder can bound a claimed element count by the bytes that remain before it
/// allocates.
trait Wire: Sized {
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError>;
    fn get(r: &mut &[u8]) -> Result<Self, WireError>;
}

/// Split the next `n` bytes off the front of the payload cursor `r`.
fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    let (head, tail) = r.split_at_checked(n).ok_or(WireError::Truncated)?;
    *r = tail;
    Ok(head)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
                out.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }
            fn get(r: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(r, Self::MIN_BYTES)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact width")))
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

/// Sent as `u64`, so both ends agree whatever their pointer width.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        (*self as u64).put(out)
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u64::get(r)? as usize)
    }
}

/// Finite-checked on both sides.
impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        finite(*self)?.to_bits().put(out)
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        finite(f64::from_bits(u64::get(r)?))
    }
}

fn finite(v: f64) -> Result<f64, WireError> {
    v.is_finite().then_some(v).ok_or(WireError::NonFinite)
}

/// The `u32` element count that prefixes every vector and string.
fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), WireError> {
    u32::try_from(len)
        .map_err(|_| WireError::Malformed("length exceeds u32"))?
        .put(out)
}

/// Raw UTF-8 bytes after a `u32` byte count.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        put_len(out, self.len())?;
        out.extend_from_slice(self.as_bytes());
        Ok(())
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::get(r)? as usize;
        std::str::from_utf8(take(r, len)?)
            .map(str::to_owned)
            .map_err(|_| WireError::Malformed("string is not UTF-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        put_len(out, self.len())?;
        self.iter().try_for_each(|v| v.put(out))
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        let count = u32::get(r)? as usize;
        if r.len() < count.saturating_mul(T::MIN_BYTES) {
            return Err(WireError::Truncated);
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(T::get(r)?);
        }
        Ok(values)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.0.put(out)?;
        self.1.put(out)
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Fixed length, so no count on the wire.
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.iter().try_for_each(|v| v.put(out))
    }
    fn get(r: &mut &[u8]) -> Result<Self, WireError> {
        let mut values = [T::default(); N];
        for v in &mut values {
            *v = T::get(r)?;
        }
        Ok(values)
    }
}

/// A struct travels as its fields in the listed order. The struct literal in `get`
/// makes the compiler reject a missing field or a field listed with the wrong type.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident: $fty:ty),* $(,)? })*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)*;
            fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
                $(self.$field.put(out)?;)*
                Ok(())
            }
            fn get(r: &mut &[u8]) -> Result<Self, WireError> {
                Ok($ty { $($field: <$fty as Wire>::get(r)?),* })
            }
        }
    )*};
}

wire_struct! {
    Sample { dense: Vec<f64>, sparse: Vec<Vec<usize>>, label: f64 }
    SpanRecord { trace_id: u64, span_id: u64, parent_span_id: u64, stages: [u64; NUM_STAGES] }
    RowUpdate { table: u32, row: u64, values: Vec<f64> }
}

// ---------------------------------------------------------------------------
// The frame table
// ---------------------------------------------------------------------------

/// Declares [`Frame`] once and derives the rest from it: the `Tag` enum (a variant's
/// tag is its position in the table, counted from 1), the payload codec (the tag, then
/// each field in declaration order), and, for tests, the variant names.
macro_rules! frames {
    (
        $(#[$meta:meta])*
        pub enum Frame {
            $(
                $(#[$vmeta:meta])*
                $name:ident $({
                    $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Frame {
            $($(#[$vmeta])* $name $({ $($(#[$fmeta])* $field: $fty),* })?,)*
        }

        /// The frame tags, in table order.
        #[repr(u8)]
        enum Tag {
            /// Never sent, so the first frame's tag is 1.
            #[allow(dead_code)]
            Reserved = 0,
            $($name,)*
        }

        /// A frame's payload: its tag, then its fields. Both halves are `#[inline]`:
        /// without it, release decode of an `InferRequest` + `InferReply` pair ran
        /// ~20% slower than the hand-written codec this table replaced.
        impl Wire for Frame {
            const MIN_BYTES: usize = 1;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
                match self {
                    $(Frame::$name $({ $($field),* })? => {
                        (Tag::$name as u8).put(out)?;
                        $($($field.put(out)?;)*)?
                    })*
                }
                Ok(())
            }
            #[inline]
            fn get(r: &mut &[u8]) -> Result<Self, WireError> {
                Ok(match u8::get(r)? {
                    $(t if t == Tag::$name as u8 => Frame::$name $({
                        $($field: <$fty as Wire>::get(r)?),*
                    })?,)*
                    t => return Err(WireError::BadTag(t)),
                })
            }
        }

        /// Every variant name, in tag order.
        #[cfg(test)]
        const FRAME_NAMES: &[&str] = &[$(stringify!($name)),*];
    };
}

frames! {
    /// Every message of the distributed serving protocol, in wire-tag order: append new
    /// frames at the end. The driver sends every request. The replica answers
    /// `InferRequest` with `InferReply` or `InferShed`; `PullSupport`, `PullLoraRows`,
    /// `PullB`, `Stats` and `TraceDump` with `Support`, `LoraRows`, `BFactor`,
    /// `StatsReply` and `TraceDumpReply`; every push and `FullModel` with `Ack` or
    /// `Nack`, and `Publish` with `Ack`. `Bye` has no reply.
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
        InferShed { id: u64 },
        /// Ask for the replica's active LoRA support.
        PullSupport,
        /// The active LoRA support: `(table, row)` pairs in ascending order.
        Support { rows: Vec<(u32, u64)> },
        /// Ask for the `A` rows of these `(table, row)` indices.
        PullLoraRows { rows: Vec<(u32, u64)> },
        /// The requested `A` rows, values at the exporter's current rank.
        LoraRows { rows: Vec<RowUpdate> },
        /// Install these merged `A` rows (losers of the priority merge receive these).
        PushLoraRows { rows: Vec<RowUpdate> },
        /// Ask for one table's dense `B` factor.
        PullB { table: u32 },
        /// A table's dense `B` factor (row-major `source_rank × dim`).
        BFactor {
            /// Embedding-table index.
            table: u32,
            /// LoRA rank of the exporting adapter.
            source_rank: u32,
            /// Row-major factor values.
            values: Vec<f64>,
        },
        /// Install a broadcast `B` factor (fields as in [`Frame::BFactor`]).
        PushB { table: u32, source_rank: u32, values: Vec<f64> },
        /// QuickUpdate shipment: fresh base-embedding rows (top-changed by the trainer),
        /// each as long as the embedding dim.
        PushEmbeddingRows { rows: Vec<RowUpdate> },
        /// DeltaUpdate shipment: every trainable parameter in the canonical flat order
        /// of `DlrmModel::export_parameters`.
        FullModel { params: Vec<f64> },
        /// Rematerialise serving rows and publish a fresh epoch-swapped snapshot.
        Publish,
        /// Positive acknowledgement of the preceding push.
        Ack,
        /// Negative acknowledgement: the push was rejected for `reason`; state unchanged.
        Nack { reason: String },
        /// Graceful close; the peer stops reading this connection.
        Bye,
        /// Scrape the replica's live telemetry registry.
        Stats,
        /// The flattened telemetry snapshot: sorted `(metric name, value)` rows,
        /// exactly the output of `ServingRuntime::scrape`. Empty when the replica runs
        /// with telemetry disabled.
        StatsReply { metrics: Vec<(String, f64)> },
        /// Drain the replica's completed request/publication spans and pull its raw
        /// histogram buckets (for exact cluster-level percentile merging).
        TraceDump,
        /// The replica's side of the distributed traces.
        TraceDumpReply {
            /// Completed spans drained from the replica's span ring (each drained span
            /// is delivered exactly once across successive dumps).
            spans: Vec<SpanRecord>,
            /// Raw log-linear histogram contents, one [`SparseHistogram`] per metric —
            /// mergeable across replicas, unlike pre-flattened percentiles.
            histograms: Vec<SparseHistogram>,
        },
    }
}

impl Frame {
    /// Encode the frame as `[u32 length][payload]`, ready to write to a socket.
    ///
    /// # Errors
    ///
    /// [`WireError::NonFinite`] if any float is NaN/infinite; [`WireError::Malformed`]
    /// if a vector exceeds `u32` length.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        // One buffer: reserve the length prefix, write the payload after it, then fill
        // the prefix in.
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&[0; 4]);
        self.put(&mut out)?;
        let len =
            u32::try_from(out.len() - 4).map_err(|_| WireError::Malformed("payload too long"))?;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::TooLarge(len));
        }
        out[..4].copy_from_slice(&len.to_le_bytes());
        Ok(out)
    }

    /// Decode one frame payload (the bytes after the length prefix).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] for malformed, truncated, over-long, or non-finite input.
    /// Never panics on arbitrary bytes.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut r = payload;
        let frame = Frame::get(&mut r)?;
        if !r.is_empty() {
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
                rows: vec![RowUpdate {
                    table: 0,
                    row: 3,
                    values: long_row.clone(),
                }],
            },
            Frame::PushLoraRows {
                rows: vec![
                    RowUpdate {
                        table: 1,
                        row: 0,
                        values: vec![],
                    },
                    RowUpdate {
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
                rows: vec![RowUpdate {
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

    /// `(encoded length, FNV-1a 64 of the encoding)` of each exemplar, in order,
    /// captured from the hand-written codec this frame table replaced.
    #[rustfmt::skip]
    const GOLDEN: [(usize, u64); 28] = [
        (105, 0xa1fd_0d2f_fa40_5b80), (53, 0x073e_532c_5bd4_4513), (37, 0x88ff_017a_a6ba_5140),
        (37, 0x82a4_3ae9_74b5_6c8c), (13, 0x2e98_58c7_e019_cbb5), (5, 0xd80d_68ae_a7dc_7820),
        (9, 0x445b_473a_b016_6f4f), (33, 0x7a0b_ed84_86cd_72e9), (21, 0x394c_8a6a_cad8_6d56),
        (9, 0x5db9_0d8f_aab5_4415), (32793, 0x9f7a_ade3_9511_2ca8), (57, 0x9744_761c_5aec_f8b2),
        (9, 0x9726_cfcb_a2b2_e328), (32785, 0xbae2_222f_5209_8866), (81, 0xb966_d161_f03c_c296),
        (89, 0xdeb7_6d92_3725_24f6), (9, 0x9d23_7d64_1d42_5804), (32777, 0xafe1_82fd_1031_ad88),
        (5, 0xd80d_72ae_a7dc_891e), (5, 0xd80d_7eae_a7dc_9d82), (9, 0xf5eb_b38d_8a6e_40b9),
        (97, 0xa80c_2e71_9c8d_644d), (5, 0xd80d_78ae_a7dc_9350), (13, 0xe895_e6b8_05a1_b97b),
        (211, 0x8ca2_38fa_e883_e56c), (5, 0xd80d_73ae_a7dc_8ad1), (26, 0x7896_c788_df15_a074),
        (5, 0xd80d_7dae_a7dc_9bcf),
    ];

    #[test]
    fn every_exemplar_encodes_to_its_golden_bytes() {
        assert_eq!(exemplars().len(), GOLDEN.len());
        for (frame, golden) in exemplars().into_iter().zip(GOLDEN) {
            let bytes = frame.encode().unwrap();
            let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!((bytes.len(), fnv), golden, "{frame:?}");
        }
    }

    #[test]
    fn exemplars_cover_every_tag() {
        let seen: std::collections::BTreeSet<u8> =
            exemplars().iter().map(|f| f.encode().unwrap()[4]).collect();
        let tags = 1..=FRAME_NAMES.len() as u8;
        assert!(seen.into_iter().eq(tags), "a tag lacks its exemplar");
    }

    #[test]
    fn every_reply_has_its_request() {
        for name in FRAME_NAMES {
            if let Some(base) = name.strip_suffix("Reply") {
                let request = format!("{base}Request");
                assert!(
                    FRAME_NAMES.iter().any(|&n| n == base || n == request),
                    "{name} has no {base} or {request} frame to answer"
                );
            }
        }
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
                    .map(|(table, row, values)| RowUpdate { table, row, values })
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
                    .map(|(table, row, values)| RowUpdate { table, row, values })
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
