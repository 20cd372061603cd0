//! Embedding tables with row-wise sparse gradients and quantized row storage.
//!
//! Embedding tables (EMTs) dominate a production DLRM's footprint and are the object the
//! whole LiveUpdate mechanism revolves around: updates touch individual rows, gradients are
//! sparse and row-wise, and the update stream's low-rank structure is what makes the LoRA
//! representation work. [`EmbeddingTable`] keeps the parameters behind a [`StorageKind`]:
//! full-precision `f64` (the trainer's format), `f16`, or `int8` with a per-row scale —
//! the last two are what lets a 10⁶–10⁷-row serving table fit in a memory budget the
//! full-precision table would blow through. Quantized tables dequantize on read and keep
//! `f64` master rows only for the rows a writer has actually touched, so the updater's
//! working set stays exact while the cold tail stays compressed.
//! [`SparseGradient`] accumulates per-row gradients for a mini-batch and is also the
//! currency handed to the rank-adaptation analysis in the core crate.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How an [`EmbeddingTable`] stores its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageKind {
    /// Full-precision `f64` rows (8 bytes/parameter) — the trainer's format.
    F64,
    /// IEEE binary16 rows (2 bytes/parameter), dequantized on read.
    F16,
    /// `int8` codes with one `f64` scale per row (≈1 byte/parameter), dequantized on read.
    I8,
}

impl StorageKind {
    /// Human-readable name used by scenario files and bench output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StorageKind::F64 => "f64",
            StorageKind::F16 => "f16",
            StorageKind::I8 => "i8",
        }
    }

    /// Parse the scenario-file spelling produced by [`StorageKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<StorageKind> {
        match name {
            "f64" => Some(StorageKind::F64),
            "f16" => Some(StorageKind::F16),
            "i8" | "int8" => Some(StorageKind::I8),
            _ => None,
        }
    }
}

/// The physical row buffer behind one table.
///
/// Quantized buffers are `Arc`-shared and never written in place: every row write on a
/// quantized table lands in the `master` overlay, and a whole-table rewrite builds a
/// fresh buffer. Cloning a quantized table therefore costs O(overlay rows), which is
/// what keeps a serving snapshot of a 10⁶-row table cheap to capture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum RowStorage {
    /// Row-major `f64` weights, length `num_rows * dim`.
    F64(Vec<f64>),
    /// Row-major binary16 codes, length `num_rows * dim`.
    F16(Arc<[u16]>),
    /// Row-major `int8` codes plus one dequantization scale per row.
    I8 {
        codes: Arc<[i8]>,
        scales: Arc<[f64]>,
    },
}

/// Mix function of splitmix64 — the per-row seed stream generator. Each row of a table
/// draws from an independent stream keyed by `(table seed, row id)`, so constructing row
/// `r` never has to advance an RNG through rows `0..r` (the property that makes 10⁷-row
/// construction feasible and row values independent of the table's total size).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fill `out` with row `row`'s initial weights, uniform in `[-bound, bound)`, from the
/// row's own seed stream.
fn fill_row_init(seed: u64, row: usize, bound: f64, out: &mut [f64]) {
    let mut state = seed ^ (row as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    for v in out.iter_mut() {
        let bits = splitmix64(&mut state);
        // 53 uniform mantissa bits → [0, 1).
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        *v = (2.0 * unit - 1.0) * bound;
    }
}

/// Encode an `f64` as IEEE binary16 (round-to-nearest), via `f32`.
fn f16_encode(v: f64) -> u16 {
    let bits = (v as f32).to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    if exp == 255 {
        // Inf / NaN.
        return sign | 0x7C00 | u16::from(mant != 0) << 9;
    }
    let half_exp = exp - 127 + 15;
    if half_exp >= 31 {
        return sign | 0x7C00; // overflow → ±inf
    }
    if half_exp <= 0 {
        if half_exp < -10 {
            return sign; // underflow → ±0
        }
        let m = mant | 0x0080_0000;
        let shift = (14 - half_exp) as u32;
        let half = (m >> shift) as u16;
        let round = ((m >> (shift - 1)) & 1) as u16;
        return sign | (half + round);
    }
    let half = ((half_exp as u32) << 10) | (mant >> 13);
    let round = (mant >> 12) & 1;
    sign.wrapping_add((half + round) as u16)
}

/// Decode an IEEE binary16 code to `f64`.
fn f16_decode(h: u16) -> f64 {
    let sign = if h & 0x8000 != 0 { -1.0 } else { 1.0 };
    let exp = (h >> 10) & 0x1F;
    let mant = f64::from(h & 0x03FF);
    let magnitude = match exp {
        0 => mant * 2f64.powi(-24),
        31 => {
            if mant == 0.0 {
                f64::INFINITY
            } else {
                return f64::NAN;
            }
        }
        e => (1.0 + mant / 1024.0) * 2f64.powi(i32::from(e) - 15),
    };
    sign * magnitude
}

/// Per-row int8 scale: codes span `[-127, 127]` over the row's max magnitude.
fn i8_row_scale(row: &[f64]) -> f64 {
    let max_abs = row.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        0.0
    }
}

/// Encode one value against a row scale.
fn i8_encode(v: f64, scale: f64) -> i8 {
    if scale == 0.0 {
        0
    } else {
        (v / scale).round().clamp(-127.0, 127.0) as i8
    }
}

/// Build a fresh `num_rows × dim` backing buffer of `kind` whose row `id` holds the
/// values `fill(id, row)` writes (quantized kinds encode them).
fn encode_rows(
    kind: StorageKind,
    num_rows: usize,
    dim: usize,
    mut fill: impl FnMut(usize, &mut [f64]),
) -> RowStorage {
    let len = checked_len(num_rows, dim);
    let mut row_buf = vec![0.0; dim];
    match kind {
        StorageKind::F64 => {
            let mut weights = vec![0.0; len];
            for (row, chunk) in weights.chunks_mut(dim).enumerate() {
                fill(row, chunk);
            }
            RowStorage::F64(weights)
        }
        StorageKind::F16 => {
            let mut codes = shared_zeroed::<u16>(len);
            let out = Arc::get_mut(&mut codes).expect("a fresh Arc is unique");
            for (row, chunk) in out.chunks_mut(dim).enumerate() {
                fill(row, &mut row_buf);
                for (c, &v) in chunk.iter_mut().zip(&row_buf) {
                    *c = f16_encode(v);
                }
            }
            RowStorage::F16(codes)
        }
        StorageKind::I8 => {
            let mut codes = shared_zeroed::<i8>(len);
            let mut scales = shared_zeroed::<f64>(num_rows);
            let out = Arc::get_mut(&mut codes).expect("a fresh Arc is unique");
            let out_scales = Arc::get_mut(&mut scales).expect("a fresh Arc is unique");
            for ((row, chunk), scale) in out.chunks_mut(dim).enumerate().zip(out_scales) {
                fill(row, &mut row_buf);
                *scale = i8_row_scale(&row_buf);
                for (c, &v) in chunk.iter_mut().zip(&row_buf) {
                    *c = i8_encode(v, *scale);
                }
            }
            RowStorage::I8 { codes, scales }
        }
    }
}

/// A zeroed `Arc<[T]>` of `len` elements in one allocation: `repeat_n` has an exact
/// length, so the collect writes into the `Arc`'s own buffer instead of copying a
/// `Vec` (which would briefly hold a 10⁶-row table twice).
fn shared_zeroed<T: Copy + Default>(len: usize) -> Arc<[T]> {
    std::iter::repeat_n(T::default(), len).collect()
}

/// A dense embedding table `W ∈ R^{|V|×d}` with mean pooling for multi-hot lookups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingTable {
    num_rows: usize,
    dim: usize,
    storage: RowStorage,
    /// Exact `f64` rows for writer-touched indices of a quantized table (unused — always
    /// empty — under `f64` storage, where writes go straight to the backing buffer).
    /// Each row is `Arc`-shared, so a clone shares every row and copies only the map;
    /// an in-place write ([`Self::row_mut`]) copies a shared row first.
    master: BTreeMap<usize, Arc<[f64]>>,
    /// Per-row accumulated squared gradient norm for Adagrad, lazily grown on first touch.
    adagrad_state: BTreeMap<usize, f64>,
}

/// Panic unless `num_rows × dim` fits in `usize` (and in practice in an allocatable
/// buffer). Centralised so every constructor and sizing path agrees.
fn checked_len(num_rows: usize, dim: usize) -> usize {
    num_rows
        .checked_mul(dim)
        .unwrap_or_else(|| panic!("embedding geometry {num_rows}×{dim} overflows usize"))
}

impl EmbeddingTable {
    /// Create a table of shape `num_rows × dim` with small random initial weights drawn
    /// uniformly from `[-1/sqrt(dim), 1/sqrt(dim)]`. Each row draws from its own seed
    /// stream, so construction is `O(num_rows · dim)` with a tiny constant and row `r`'s
    /// values do not depend on `num_rows`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `num_rows * dim` overflows `usize`.
    #[must_use]
    pub fn new(num_rows: usize, dim: usize, seed: u64) -> Self {
        Self::with_storage(num_rows, dim, seed, StorageKind::F64)
    }

    /// [`Self::new`] with an explicit [`StorageKind`]. Quantized kinds are encoded row by
    /// row during construction, so a 10⁷-row `int8` table never materialises the full
    /// `f64` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `num_rows * dim` overflows `usize`.
    #[must_use]
    pub fn with_storage(num_rows: usize, dim: usize, seed: u64, kind: StorageKind) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        let bound = 1.0 / (dim as f64).sqrt();
        Self {
            num_rows,
            dim,
            storage: encode_rows(kind, num_rows, dim, |row, out| {
                fill_row_init(seed, row, bound, out);
            }),
            master: BTreeMap::new(),
            adagrad_state: BTreeMap::new(),
        }
    }

    /// Create a table with every weight set to zero (useful for delta/LoRA shadow tables).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `num_rows * dim` overflows `usize`.
    #[must_use]
    pub fn zeros(num_rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        let len = checked_len(num_rows, dim);
        Self {
            num_rows,
            dim,
            storage: RowStorage::F64(vec![0.0; len]),
            master: BTreeMap::new(),
            adagrad_state: BTreeMap::new(),
        }
    }

    /// Re-encode this table under `kind`, dropping the master overlay (its exact rows are
    /// folded into the new backing buffer, quantized if the new kind is lossy). Converting
    /// a trained `f64` table to `i8`/`f16` is how a serving replica adopts a compressed
    /// footprint.
    pub fn convert_storage(&mut self, kind: StorageKind) {
        if self.storage_kind() == kind && self.master.is_empty() {
            return;
        }
        self.storage = encode_rows(kind, self.num_rows, self.dim, |row, out| {
            self.row_into(row, out);
        });
        self.master.clear();
    }

    /// Which storage backend this table currently uses.
    #[must_use]
    pub fn storage_kind(&self) -> StorageKind {
        match &self.storage {
            RowStorage::F64(_) => StorageKind::F64,
            RowStorage::F16(_) => StorageKind::F16,
            RowStorage::I8 { .. } => StorageKind::I8,
        }
    }

    /// Number of exact `f64` master rows currently overlaying the quantized storage.
    #[must_use]
    pub fn master_rows(&self) -> usize {
        self.master.len()
    }

    /// Number of rows with a materialised Adagrad accumulator (grows on first touch).
    #[must_use]
    pub fn adagrad_entries(&self) -> usize {
        self.adagrad_state.len()
    }

    /// Number of rows `|V|`.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Embedding dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of parameters `|V|·d`.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.num_rows * self.dim
    }

    /// Resident memory footprint of the weights in bytes: the backing buffer at its
    /// actual precision plus any `f64` master rows. For `f64` storage this is the
    /// classic `|V|·d·8`.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let backing = match &self.storage {
            RowStorage::F64(w) => w.len() * std::mem::size_of::<f64>(),
            RowStorage::F16(c) => c.len() * std::mem::size_of::<u16>(),
            RowStorage::I8 { codes, scales } => {
                codes.len() + scales.len() * std::mem::size_of::<f64>()
            }
        };
        backing + self.master.len() * self.dim * std::mem::size_of::<f64>()
    }

    /// Borrow row `id`. Only rows with an exact `f64` representation can be borrowed:
    /// every row of an `f64`-storage table, or a master row of a quantized table.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_rows`, or if the row lives only in quantized storage (use
    /// [`Self::row_into`] / [`Self::row_to_vec`] there).
    #[must_use]
    pub fn row(&self, id: usize) -> &[f64] {
        assert!(
            id < self.num_rows,
            "embedding id {id} out of bounds ({})",
            self.num_rows
        );
        if let RowStorage::F64(w) = &self.storage {
            return &w[id * self.dim..(id + 1) * self.dim];
        }
        self.master
            .get(&id)
            .map(|exact| &exact[..])
            .expect("quantized row has no f64 view; use row_into/row_to_vec")
    }

    /// Dequantize row `id` into `out` (the general read path, valid for every storage
    /// kind). Master rows return their exact `f64` values.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_rows` or `out.len() != dim`.
    pub fn row_into(&self, id: usize, out: &mut [f64]) {
        assert!(
            id < self.num_rows,
            "embedding id {id} out of bounds ({})",
            self.num_rows
        );
        assert_eq!(out.len(), self.dim, "output buffer dimension mismatch");
        if !matches!(self.storage, RowStorage::F64(_)) {
            if let Some(exact) = self.master.get(&id) {
                out.copy_from_slice(exact);
                return;
            }
        }
        self.decode_backing(id, out);
    }

    /// Decode row `id` of the backing buffer into `out`, ignoring the master overlay.
    fn decode_backing(&self, id: usize, out: &mut [f64]) {
        let span = id * self.dim..(id + 1) * self.dim;
        match &self.storage {
            RowStorage::F64(w) => out.copy_from_slice(&w[span]),
            RowStorage::F16(c) => {
                for (o, &code) in out.iter_mut().zip(&c[span]) {
                    *o = f16_decode(code);
                }
            }
            RowStorage::I8 { codes, scales } => {
                let scale = scales[id];
                for (o, &code) in out.iter_mut().zip(&codes[span]) {
                    *o = f64::from(code) * scale;
                }
            }
        }
    }

    /// Accumulate the dequantized row `id` into `acc` (`acc[k] += row[k]`), fused with
    /// the decode exactly like [`Self::pooled_lookup_into`]'s inner loop — per-id callers
    /// (such as the serving snapshot's partial-hit hot-row gather) get bit-identical sums
    /// to the whole-lookup path.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_rows` or `acc.len() != dim`.
    pub fn add_row_into(&self, id: usize, acc: &mut [f64]) {
        assert!(
            id < self.num_rows,
            "embedding id {id} out of bounds ({})",
            self.num_rows
        );
        assert_eq!(acc.len(), self.dim, "accumulator dimension mismatch");
        if !matches!(self.storage, RowStorage::F64(_)) {
            if let Some(exact) = self.master.get(&id) {
                for (o, &v) in acc.iter_mut().zip(exact.iter()) {
                    *o += v;
                }
                return;
            }
        }
        match &self.storage {
            RowStorage::F64(w) => {
                for (o, &v) in acc.iter_mut().zip(&w[id * self.dim..(id + 1) * self.dim]) {
                    *o += v;
                }
            }
            RowStorage::F16(c) => {
                for (o, &code) in acc.iter_mut().zip(&c[id * self.dim..(id + 1) * self.dim]) {
                    *o += f16_decode(code);
                }
            }
            RowStorage::I8 { codes, scales } => {
                let scale = scales[id];
                for (o, &code) in acc
                    .iter_mut()
                    .zip(&codes[id * self.dim..(id + 1) * self.dim])
                {
                    *o += f64::from(code) * scale;
                }
            }
        }
    }

    /// Dequantize row `id` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_rows`.
    #[must_use]
    pub fn row_to_vec(&self, id: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        self.row_into(id, &mut out);
        out
    }

    /// Visit every row in id order as a dequantized `f64` slice (master rows exact).
    /// A quantized table walks its master overlay in step with the ids instead of
    /// probing it once per row.
    pub fn for_each_row(&self, mut f: impl FnMut(usize, &[f64])) {
        if let RowStorage::F64(w) = &self.storage {
            for (id, chunk) in w.chunks(self.dim).enumerate() {
                f(id, chunk);
            }
            return;
        }
        let mut buf = vec![0.0; self.dim];
        let mut overlay = self.master.iter().peekable();
        for id in 0..self.num_rows {
            if let Some((_, exact)) = overlay.next_if(|&(&row, _)| row == id) {
                f(id, &exact[..]);
            } else {
                self.decode_backing(id, &mut buf);
                f(id, &buf);
            }
        }
    }

    /// Borrow row `id` mutably. On a quantized table this materialises the row into the
    /// `f64` master overlay (grow-on-first-touch), which is exactly the "master rows only
    /// for the updater's touched set" contract.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_rows`.
    pub fn row_mut(&mut self, id: usize) -> &mut [f64] {
        assert!(
            id < self.num_rows,
            "embedding id {id} out of bounds ({})",
            self.num_rows
        );
        if !matches!(self.storage, RowStorage::F64(_)) && !self.master.contains_key(&id) {
            let decoded = self.row_to_vec(id);
            self.master.insert(id, decoded.into());
        }
        match &mut self.storage {
            RowStorage::F64(w) => &mut w[id * self.dim..(id + 1) * self.dim],
            _ => Arc::make_mut(
                self.master
                    .get_mut(&id)
                    .expect("row promoted to master above"),
            ),
        }
    }

    /// Mean-pooled lookup over a multi-hot set of IDs, written into `out` without
    /// allocating. Dequantization happens inline during accumulation, so a quantized
    /// lookup streams 1–2 bytes per parameter instead of 8. Writes zeros when `ids` is
    /// empty (missing feature).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of bounds or `out.len() != dim`.
    pub fn pooled_lookup_into(&self, ids: &[usize], out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "output buffer dimension mismatch");
        out.fill(0.0);
        if ids.is_empty() {
            return;
        }
        match &self.storage {
            RowStorage::F64(w) => {
                for &id in ids {
                    assert!(
                        id < self.num_rows,
                        "embedding id {id} out of bounds ({})",
                        self.num_rows
                    );
                    let row = &w[id * self.dim..(id + 1) * self.dim];
                    for (o, &v) in out.iter_mut().zip(row) {
                        *o += v;
                    }
                }
            }
            RowStorage::F16(c) => {
                for &id in ids {
                    assert!(
                        id < self.num_rows,
                        "embedding id {id} out of bounds ({})",
                        self.num_rows
                    );
                    if let Some(exact) = self.master.get(&id) {
                        for (o, &v) in out.iter_mut().zip(exact.iter()) {
                            *o += v;
                        }
                    } else {
                        let row = &c[id * self.dim..(id + 1) * self.dim];
                        for (o, &code) in out.iter_mut().zip(row) {
                            *o += f16_decode(code);
                        }
                    }
                }
            }
            RowStorage::I8 { codes, scales } => {
                for &id in ids {
                    assert!(
                        id < self.num_rows,
                        "embedding id {id} out of bounds ({})",
                        self.num_rows
                    );
                    if let Some(exact) = self.master.get(&id) {
                        for (o, &v) in out.iter_mut().zip(exact.iter()) {
                            *o += v;
                        }
                    } else {
                        let scale = scales[id];
                        let row = &codes[id * self.dim..(id + 1) * self.dim];
                        for (o, &code) in out.iter_mut().zip(row) {
                            *o += f64::from(code) * scale;
                        }
                    }
                }
            }
        }
        let inv = 1.0 / ids.len() as f64;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }

    /// Mean-pooled lookup over a multi-hot set of IDs. Returns a zero vector when `ids`
    /// is empty (missing feature). Allocates; hot paths use
    /// [`Self::pooled_lookup_into`].
    ///
    /// # Panics
    ///
    /// Panics if any id is out of bounds.
    #[must_use]
    pub fn pooled_lookup(&self, ids: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        self.pooled_lookup_into(ids, &mut out);
        out
    }

    /// Apply a sparse gradient with plain SGD: `W[i] -= lr · g[i]` for every touched row.
    ///
    /// # Panics
    ///
    /// Panics if the gradient dimension does not match or an id is out of bounds.
    pub fn apply_sgd(&mut self, grad: &SparseGradient, learning_rate: f64) {
        assert_eq!(grad.dim(), self.dim, "gradient dimension mismatch");
        for (&id, g) in grad.iter() {
            let row = self.row_mut(id);
            for (w, &gv) in row.iter_mut().zip(g) {
                *w -= learning_rate * gv;
            }
        }
    }

    /// Apply a sparse gradient with row-wise Adagrad, the standard optimiser for
    /// production EMTs: the per-row accumulator uses the mean squared gradient of the
    /// row. Accumulator entries are created on a row's first touch, never eagerly.
    ///
    /// # Panics
    ///
    /// Panics if the gradient dimension does not match or an id is out of bounds.
    pub fn apply_adagrad(&mut self, grad: &SparseGradient, learning_rate: f64, eps: f64) {
        assert_eq!(grad.dim(), self.dim, "gradient dimension mismatch");
        for (&id, g) in grad.iter() {
            assert!(
                id < self.num_rows,
                "embedding id {id} out of bounds ({})",
                self.num_rows
            );
            let sq_mean: f64 = g.iter().map(|x| x * x).sum::<f64>() / self.dim as f64;
            let state = self.adagrad_state.entry(id).or_insert(0.0);
            *state += sq_mean;
            let scale = learning_rate / (state.sqrt() + eps);
            let row = self.row_mut(id);
            for (w, &gv) in row.iter_mut().zip(g) {
                *w -= scale * gv;
            }
        }
    }

    /// Add `delta` to row `id` (used when merging LoRA or delta updates into the base).
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != dim` or `id` is out of bounds.
    pub fn add_to_row(&mut self, id: usize, delta: &[f64]) {
        assert_eq!(delta.len(), self.dim, "delta dimension mismatch");
        let row = self.row_mut(id);
        for (w, &d) in row.iter_mut().zip(delta) {
            *w += d;
        }
    }

    /// Overwrite row `id` with `values` (used by full-parameter synchronisation). On a
    /// quantized table the exact values land in the master overlay.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != dim` or `id` is out of bounds.
    pub fn set_row(&mut self, id: usize, values: &[f64]) {
        assert_eq!(values.len(), self.dim, "row dimension mismatch");
        assert!(
            id < self.num_rows,
            "embedding id {id} out of bounds ({})",
            self.num_rows
        );
        match &mut self.storage {
            RowStorage::F64(w) => w[id * self.dim..(id + 1) * self.dim].copy_from_slice(values),
            _ => {
                self.master.insert(id, values.into());
            }
        }
    }

    /// Copy every row of `other` into `self` (full sync), preserving `self`'s storage
    /// kind: a quantized replica re-encodes the shipment instead of silently inflating
    /// back to `f64`. Both tables must have identical shapes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &EmbeddingTable) {
        assert_eq!(
            self.num_rows, other.num_rows,
            "row count mismatch in copy_from"
        );
        assert_eq!(self.dim, other.dim, "dim mismatch in copy_from");
        self.master.clear();
        if let (RowStorage::F64(dst), RowStorage::F64(src)) = (&mut self.storage, &other.storage) {
            if other.master.is_empty() {
                dst.copy_from_slice(src);
                return;
            }
        }
        self.storage = encode_rows(self.storage_kind(), self.num_rows, self.dim, |id, out| {
            other.row_into(id, out);
        });
    }

    /// Number of rows whose weights differ from `other` by more than `tolerance` in any
    /// coordinate — the quantity behind the paper's Fig. 3a update-ratio measurement.
    /// Rows are compared at their dequantized values.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn changed_rows(&self, other: &EmbeddingTable, tolerance: f64) -> Vec<usize> {
        assert_eq!(
            self.num_rows, other.num_rows,
            "row count mismatch in changed_rows"
        );
        assert_eq!(self.dim, other.dim, "dim mismatch in changed_rows");
        let mut a = vec![0.0; self.dim];
        let mut b = vec![0.0; self.dim];
        (0..self.num_rows)
            .filter(|&i| {
                self.row_into(i, &mut a);
                other.row_into(i, &mut b);
                a.iter().zip(&b).any(|(x, y)| (x - y).abs() > tolerance)
            })
            .collect()
    }

    /// Squared L2 distance between this table and `other`, summed over all rows (at
    /// dequantized values).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn squared_distance(&self, other: &EmbeddingTable) -> f64 {
        assert_eq!(
            self.num_rows, other.num_rows,
            "shape mismatch in squared_distance"
        );
        assert_eq!(self.dim, other.dim, "shape mismatch in squared_distance");
        let mut a = vec![0.0; self.dim];
        let mut b = vec![0.0; self.dim];
        let mut total = 0.0;
        for i in 0..self.num_rows {
            self.row_into(i, &mut a);
            other.row_into(i, &mut b);
            total += a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>();
        }
        total
    }

    /// View the raw row-major weights.
    ///
    /// # Panics
    ///
    /// Panics unless the table uses `f64` storage — quantized tables have no flat `f64`
    /// buffer to borrow; iterate with [`Self::for_each_row`] instead.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        match &self.storage {
            RowStorage::F64(w) => w,
            _ => panic!("as_slice requires f64 row storage; use for_each_row on quantized tables"),
        }
    }

    /// Append every row (dequantized, in id order) to `out` — the export half of a
    /// full-parameter shipment.
    pub fn export_rows_into(&self, out: &mut Vec<f64>) {
        self.for_each_row(|_, row| out.extend_from_slice(row));
    }

    /// Consume the head of `rest` as this table's rows (the import half of a
    /// full-parameter shipment, inverse of [`Self::export_rows_into`] for `f64`
    /// storage; quantized kinds re-encode and therefore round).
    ///
    /// # Panics
    ///
    /// Panics if `rest` holds fewer than `num_rows * dim` values.
    pub fn import_rows(&mut self, rest: &mut &[f64]) {
        let needed = self.parameter_count();
        assert!(
            rest.len() >= needed,
            "parameter stream too short for table import"
        );
        let (head, tail) = rest.split_at(needed);
        self.master.clear();
        let dim = self.dim;
        self.storage = encode_rows(self.storage_kind(), self.num_rows, dim, |id, out| {
            out.copy_from_slice(&head[id * dim..(id + 1) * dim]);
        });
        *rest = tail;
    }
}

/// Row-wise sparse gradient for one embedding table: `id → ∂L/∂W[id]`.
///
/// Rows are kept in a `BTreeMap` so iteration order is deterministic, which keeps training
/// runs reproducible and makes the gradient snapshots handed to PCA stable across runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseGradient {
    dim: usize,
    rows: BTreeMap<usize, Vec<f64>>,
}

impl SparseGradient {
    /// Create an empty gradient for vectors of dimension `dim`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            rows: BTreeMap::new(),
        }
    }

    /// Gradient vector dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct rows touched.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Accumulate `grad` into row `id` (adds if the row already has a gradient).
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != dim`.
    pub fn accumulate(&mut self, id: usize, grad: &[f64]) {
        assert_eq!(grad.len(), self.dim, "gradient dimension mismatch");
        let entry = self.rows.entry(id).or_insert_with(|| vec![0.0; self.dim]);
        for (e, &g) in entry.iter_mut().zip(grad) {
            *e += g;
        }
    }

    /// Merge another sparse gradient into this one.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &SparseGradient) {
        assert_eq!(self.dim, other.dim, "gradient dimension mismatch in merge");
        for (&id, g) in other.iter() {
            self.accumulate(id, g);
        }
    }

    /// Scale every stored gradient by `alpha` (e.g. `1/batch_size`).
    pub fn scale(&mut self, alpha: f64) {
        for g in self.rows.values_mut() {
            for v in g.iter_mut() {
                *v *= alpha;
            }
        }
    }

    /// Gradient for a specific row, if present.
    #[must_use]
    pub fn get(&self, id: usize) -> Option<&[f64]> {
        self.rows.get(&id).map(Vec::as_slice)
    }

    /// Iterate over `(id, gradient)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (&usize, &Vec<f64>)> {
        self.rows.iter()
    }

    /// The set of touched row ids in ascending order.
    #[must_use]
    pub fn touched_ids(&self) -> Vec<usize> {
        self.rows.keys().copied().collect()
    }

    /// L2 norm of the gradient of row `id`, or `0.0` if untouched.
    #[must_use]
    pub fn row_norm(&self, id: usize) -> f64 {
        self.get(id)
            .map(|g| g.iter().map(|x| x * x).sum::<f64>().sqrt())
            .unwrap_or(0.0)
    }

    /// Convert into a dense matrix whose rows are the touched gradients (in id order),
    /// which is exactly the snapshot matrix `G` the paper's PCA analysis consumes.
    /// Returns the matrix together with the id of each row.
    #[must_use]
    pub fn to_snapshot(&self) -> (liveupdate_linalg::Matrix, Vec<usize>) {
        let ids = self.touched_ids();
        let rows: Vec<Vec<f64>> = ids.iter().map(|id| self.rows[id].clone()).collect();
        let matrix = liveupdate_linalg::Matrix::from_rows(&rows)
            .expect("all gradient rows share the same dimension");
        (matrix, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Instant;

    #[test]
    fn new_table_has_bounded_init() {
        let t = EmbeddingTable::new(10, 4, 1);
        let bound = 1.0 / 2.0;
        assert!(t.as_slice().iter().all(|w| w.abs() <= bound));
        assert_eq!(t.parameter_count(), 40);
        assert_eq!(t.memory_bytes(), 40 * 8);
    }

    #[test]
    fn row_init_is_independent_of_table_size() {
        // Per-row seed streams: row r's values must not depend on how many rows follow.
        let small = EmbeddingTable::new(10, 6, 42);
        let large = EmbeddingTable::new(1000, 6, 42);
        for id in 0..10 {
            assert_eq!(
                small.row(id),
                large.row(id),
                "row {id} differs with table size"
            );
        }
    }

    #[test]
    fn construction_stays_within_time_budget() {
        // 10⁶ rows × dim 8 must construct in seconds even unoptimised — the per-row
        // stream fill is the difference between this and minutes of sequential RNG.
        let started = Instant::now();
        let t = EmbeddingTable::new(1_000_000, 8, 7);
        let elapsed = started.elapsed();
        assert_eq!(t.num_rows(), 1_000_000);
        assert!(
            elapsed.as_secs_f64() < 30.0,
            "10⁶×8 construction took {elapsed:?}; per-row fill should be far faster"
        );
    }

    #[test]
    fn adagrad_state_is_lazy() {
        // Regression: `new`/`zeros` used to allocate a num_rows-long accumulator
        // eagerly; it must grow on first touch only.
        let t = EmbeddingTable::new(10_000, 4, 3);
        assert_eq!(
            t.adagrad_entries(),
            0,
            "no accumulator rows before any update"
        );
        let z = EmbeddingTable::zeros(10_000, 4);
        assert_eq!(z.adagrad_entries(), 0);

        let mut t = t;
        let mut g = SparseGradient::new(4);
        g.accumulate(17, &[1.0; 4]);
        g.accumulate(9_999, &[1.0; 4]);
        t.apply_adagrad(&g, 0.1, 1e-8);
        assert_eq!(
            t.adagrad_entries(),
            2,
            "exactly the touched rows grow state"
        );
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflowing_geometry_rejected() {
        let _ = EmbeddingTable::zeros(usize::MAX / 2, 4);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        let _ = EmbeddingTable::new(4, 0, 0);
    }

    #[test]
    fn pooled_lookup_means_rows() {
        let mut t = EmbeddingTable::zeros(3, 2);
        t.set_row(0, &[1.0, 2.0]);
        t.set_row(1, &[3.0, 4.0]);
        assert_eq!(t.pooled_lookup(&[0, 1]), vec![2.0, 3.0]);
        assert_eq!(t.pooled_lookup(&[0]), vec![1.0, 2.0]);
        assert_eq!(t.pooled_lookup(&[]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn lookup_out_of_bounds_panics() {
        let t = EmbeddingTable::zeros(2, 2);
        let _ = t.row(2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pooled_lookup_out_of_bounds_panics_quantized() {
        let t = EmbeddingTable::with_storage(4, 2, 1, StorageKind::I8);
        let _ = t.pooled_lookup(&[4]);
    }

    #[test]
    fn f16_round_trip_is_close() {
        for &v in &[0.0, 1.0, -1.0, 0.5, -0.25, 0.1, 123.456, -0.0078125, 1e-5] {
            let back = f16_decode(f16_encode(v));
            let tol = v.abs().max(1e-4) * 1e-3 + 1e-7;
            assert!((back - v).abs() <= tol, "f16 round trip {v} -> {back}");
        }
        assert_eq!(f16_decode(f16_encode(0.0)), 0.0);
        assert!(f16_decode(f16_encode(1e9)).is_infinite());
    }

    #[test]
    fn quantized_read_paths_agree() {
        for kind in [StorageKind::F16, StorageKind::I8] {
            let t = EmbeddingTable::with_storage(50, 8, 11, kind);
            assert_eq!(t.storage_kind(), kind);
            // row_into == row_to_vec == pooled_lookup over a single id.
            let mut buf = vec![0.0; 8];
            for id in [0usize, 7, 49] {
                t.row_into(id, &mut buf);
                assert_eq!(buf, t.row_to_vec(id));
                assert_eq!(buf, t.pooled_lookup(&[id]));
            }
            // Quantization error is bounded by the codebook resolution.
            let exact = EmbeddingTable::new(50, 8, 11);
            for id in 0..50 {
                t.row_into(id, &mut buf);
                for (q, &e) in buf.iter().zip(exact.row(id)) {
                    assert!((q - e).abs() < 0.01, "{kind:?} row {id}: {q} vs {e}");
                }
            }
        }
    }

    #[test]
    fn quantized_storage_cuts_resident_bytes() {
        let f64_t = EmbeddingTable::new(10_000, 16, 5);
        let f16_t = EmbeddingTable::with_storage(10_000, 16, 5, StorageKind::F16);
        let i8_t = EmbeddingTable::with_storage(10_000, 16, 5, StorageKind::I8);
        assert_eq!(f64_t.memory_bytes(), 10_000 * 16 * 8);
        assert_eq!(f16_t.memory_bytes(), 10_000 * 16 * 2);
        // int8: 1 byte per code + 8 bytes per row for the scale.
        assert_eq!(i8_t.memory_bytes(), 10_000 * 16 + 10_000 * 8);
        assert!(f64_t.memory_bytes() as f64 / i8_t.memory_bytes() as f64 > 3.5);
    }

    #[test]
    fn writes_to_quantized_rows_land_in_master_and_read_back_exactly() {
        let mut t = EmbeddingTable::with_storage(100, 4, 9, StorageKind::I8);
        assert_eq!(t.master_rows(), 0);
        let exact = [0.123_456_789, -0.987, 0.5, -0.25];
        t.set_row(42, &exact);
        assert_eq!(t.master_rows(), 1);
        // The touched row reads back bit-exactly (master), everything else stays quantized.
        assert_eq!(t.row_to_vec(42), exact.to_vec());
        assert_eq!(t.row(42), &exact); // master rows are borrowable
        t.add_to_row(42, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(t.row_to_vec(42)[0], exact[0] + 1.0);
        // Untouched row: writes via row_mut also promote.
        t.row_mut(7)[0] = 3.25;
        assert_eq!(t.master_rows(), 2);
        assert_eq!(t.row_to_vec(7)[0], 3.25);
    }

    #[test]
    fn convert_storage_round_trip_folds_master() {
        let mut t = EmbeddingTable::new(20, 4, 13);
        let original = t.clone();
        t.convert_storage(StorageKind::F16);
        assert_eq!(t.storage_kind(), StorageKind::F16);
        t.set_row(3, &[0.111, 0.222, 0.333, 0.444]);
        assert_eq!(t.master_rows(), 1);
        t.convert_storage(StorageKind::F64);
        assert_eq!(t.storage_kind(), StorageKind::F64);
        assert_eq!(t.master_rows(), 0, "master folded into backing storage");
        // The overwritten row survived the conversion chain at f16 precision.
        for (v, &e) in t.row(3).iter().zip(&[0.111, 0.222, 0.333, 0.444]) {
            assert!((v - e).abs() < 1e-3);
        }
        // Untouched rows round-tripped within f16 resolution of the original.
        for id in [0usize, 10, 19] {
            for (v, &e) in t.row(id).iter().zip(original.row(id)) {
                assert!((v - e).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn copy_from_preserves_destination_storage_kind() {
        let src = EmbeddingTable::new(30, 4, 21);
        let mut dst = EmbeddingTable::with_storage(30, 4, 99, StorageKind::I8);
        dst.set_row(5, &[9.0, 9.0, 9.0, 9.0]); // master row that must be cleared
        dst.copy_from(&src);
        assert_eq!(dst.storage_kind(), StorageKind::I8);
        assert_eq!(dst.master_rows(), 0);
        let mut buf = vec![0.0; 4];
        for id in 0..30 {
            dst.row_into(id, &mut buf);
            for (v, &e) in buf.iter().zip(src.row(id)) {
                assert!((v - e).abs() < 0.01);
            }
        }
    }

    #[test]
    fn export_import_rows_round_trip() {
        let src = EmbeddingTable::new(12, 3, 31);
        let mut flat = Vec::new();
        src.export_rows_into(&mut flat);
        assert_eq!(flat.len(), 36);
        let mut dst = EmbeddingTable::zeros(12, 3);
        let mut rest: &[f64] = &flat;
        dst.import_rows(&mut rest);
        assert!(rest.is_empty());
        assert!(dst.changed_rows(&src, 0.0).is_empty());
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut t = EmbeddingTable::zeros(4, 2);
        let mut g = SparseGradient::new(2);
        g.accumulate(1, &[1.0, -2.0]);
        t.apply_sgd(&g, 0.5);
        assert_eq!(t.row(1), &[-0.5, 1.0]);
        assert_eq!(t.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn adagrad_shrinks_effective_step_over_time() {
        let mut t = EmbeddingTable::zeros(2, 2);
        let mut g = SparseGradient::new(2);
        g.accumulate(0, &[1.0, 1.0]);
        t.apply_adagrad(&g, 0.1, 1e-8);
        let first_step = -t.row(0)[0];
        let before_second = t.row(0)[0];
        t.apply_adagrad(&g, 0.1, 1e-8);
        let second_step = before_second - t.row(0)[0];
        assert!(first_step > 0.0);
        assert!(second_step > 0.0);
        assert!(second_step < first_step, "adagrad step should shrink");
    }

    #[test]
    fn add_and_set_row() {
        let mut t = EmbeddingTable::zeros(2, 3);
        t.set_row(0, &[1.0, 2.0, 3.0]);
        t.add_to_row(0, &[0.5, 0.5, 0.5]);
        assert_eq!(t.row(0), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn changed_rows_and_distance() {
        let mut a = EmbeddingTable::zeros(5, 2);
        let b = EmbeddingTable::zeros(5, 2);
        assert!(a.changed_rows(&b, 1e-12).is_empty());
        assert_eq!(a.squared_distance(&b), 0.0);
        a.set_row(2, &[1.0, 0.0]);
        a.set_row(4, &[0.0, 2.0]);
        assert_eq!(a.changed_rows(&b, 1e-12), vec![2, 4]);
        assert!((a.squared_distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn copy_from_synchronises() {
        let src = EmbeddingTable::new(6, 3, 9);
        let mut dst = EmbeddingTable::zeros(6, 3);
        dst.copy_from(&src);
        assert!(dst.changed_rows(&src, 0.0).is_empty());
    }

    #[test]
    fn sparse_gradient_accumulate_and_merge() {
        let mut g = SparseGradient::new(2);
        assert!(g.is_empty());
        g.accumulate(3, &[1.0, 1.0]);
        g.accumulate(3, &[1.0, -1.0]);
        g.accumulate(7, &[2.0, 0.0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(3).unwrap(), &[2.0, 0.0]);
        assert_eq!(g.touched_ids(), vec![3, 7]);
        assert!((g.row_norm(7) - 2.0).abs() < 1e-12);
        assert_eq!(g.row_norm(100), 0.0);

        let mut h = SparseGradient::new(2);
        h.accumulate(7, &[0.0, 1.0]);
        g.merge(&h);
        assert_eq!(g.get(7).unwrap(), &[2.0, 1.0]);

        g.scale(0.5);
        assert_eq!(g.get(3).unwrap(), &[1.0, 0.0]);
    }

    #[test]
    fn snapshot_matrix_matches_touched_rows() {
        let mut g = SparseGradient::new(3);
        g.accumulate(5, &[1.0, 2.0, 3.0]);
        g.accumulate(1, &[-1.0, 0.0, 1.0]);
        let (m, ids) = g.to_snapshot();
        assert_eq!(ids, vec![1, 5]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(0), &[-1.0, 0.0, 1.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_sgd_then_reverse_restores(
            ids in proptest::collection::vec(0usize..20, 1..10),
            lr in 0.001f64..1.0,
        ) {
            let mut t = EmbeddingTable::new(20, 4, 3);
            let original = t.clone();
            let mut g = SparseGradient::new(4);
            for (k, &id) in ids.iter().enumerate() {
                g.accumulate(id, &[k as f64, 1.0, -1.0, 0.5]);
            }
            t.apply_sgd(&g, lr);
            t.apply_sgd(&g, -lr);
            prop_assert!(t.squared_distance(&original) < 1e-18);
        }

        #[test]
        fn prop_changed_rows_subset_of_touched(
            ids in proptest::collection::vec(0usize..50, 1..20),
        ) {
            let mut t = EmbeddingTable::new(50, 2, 5);
            let before = t.clone();
            let mut g = SparseGradient::new(2);
            for &id in &ids {
                g.accumulate(id, &[1.0, 1.0]);
            }
            t.apply_sgd(&g, 0.1);
            let changed = t.changed_rows(&before, 0.0);
            let touched = g.touched_ids();
            for c in &changed {
                prop_assert!(touched.contains(c));
            }
        }

        #[test]
        fn prop_pooled_lookup_within_row_bounds(
            ids in proptest::collection::vec(0usize..30, 1..8),
        ) {
            let t = EmbeddingTable::new(30, 4, 7);
            let pooled = t.pooled_lookup(&ids);
            // The mean of rows must lie within [min, max] of the contributing coordinates.
            for (j, &pooled_j) in pooled.iter().enumerate() {
                let vals: Vec<f64> = ids.iter().map(|&id| t.row(id)[j]).collect();
                let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(pooled_j >= lo - 1e-12 && pooled_j <= hi + 1e-12);
            }
        }

        #[test]
        fn prop_quantized_pooled_lookup_tracks_f64(
            ids in proptest::collection::vec(0usize..40, 1..8),
            kind_i8 in proptest::bool::ANY,
        ) {
            let kind = if kind_i8 { StorageKind::I8 } else { StorageKind::F16 };
            let exact = EmbeddingTable::new(40, 4, 17);
            let quant = EmbeddingTable::with_storage(40, 4, 17, kind);
            let p_exact = exact.pooled_lookup(&ids);
            let p_quant = quant.pooled_lookup(&ids);
            for (q, e) in p_quant.iter().zip(&p_exact) {
                prop_assert!((q - e).abs() < 0.01, "{kind:?}: {q} vs {e}");
            }
        }
    }
}
