//! Immutable serving snapshots: the read-only half of the engine's serve API.
//!
//! The paper's "near-zero overhead" claim rests on the inference path never blocking on
//! the co-located trainer (Fig. 7). [`ServingSnapshot`] makes that property a type: it is
//! a frozen copy of everything a prediction needs — the materialised serving model and
//! the hot-index filter — with no `&mut` method at all. The real multithreaded runtime
//! (`liveupdate_runtime`) publishes one snapshot per update round behind an atomic epoch
//! swap; worker threads serve from whichever snapshot they last observed, and the updater
//! trains on its own mutable [`ServingNode`](crate::engine::ServingNode) without ever
//! sharing a lock with the read path.
//!
//! Every snapshot carries a checksum of its model state ([`model_checksum`]): a fold of
//! the step count and the table shapes, combined with a wrapping sum of per-row hashes.
//! Each row hash is keyed by `(table, id)`, so moving a row changes it, and the sum
//! commutes, so the [`ServingNode`](crate::engine::ServingNode) that owns the model keeps
//! it current as it rewrites rows: the old row's hash leaves the sum and the new one's
//! enters it. Capturing a snapshot therefore costs nothing for the checksum. Readers can
//! [`ServingSnapshot::verify_checksum`], a full scan, to assert they never observe a torn
//! publication, and the concurrency stress tests match observed checksums against the set
//! of published ones.

use crate::engine::ServeReport;
use crate::hot_index::HotIndexFilter;
use liveupdate_dlrm::metrics::{Auc, LogLoss};
use liveupdate_dlrm::model::{DlrmModel, InferenceScratch};
use liveupdate_dlrm::sample::{MiniBatch, Sample};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Starting state of every hash fold (the splitmix64 increment).
const HASH_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fold one 64-bit word into a running hash: the splitmix64 finaliser over
/// `hash ^ word`, offset so that a zero state and a zero word do not stay zero.
/// Deterministic across runs and platforms.
pub(crate) fn fold_word(hash: u64, word: u64) -> u64 {
    let mut z = (hash ^ word).wrapping_add(HASH_SEED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Odd multiplier of [`row_hash`]'s per-word step.
const WORD_MUL: u64 = 0xBF58_476D_1CE4_E5B9;

/// Hash of one decoded `f64` row, keyed by its `(table, id)` position: the same values
/// at another position hash differently, so swapping two rows changes the sum of row
/// hashes.
///
/// Each word takes one xor-multiply-rotate step, a bijection of the running state, so
/// changing any single word of a row always changes its hash; one full [`fold_word`]
/// per row then mixes the result. On a 2-vCPU x86-64 VM that keeps a full scan of
/// Prod-1M's 2 × 10⁶ int8 rows at ~77 ms, against ~180 ms with a finaliser per word.
pub(crate) fn row_hash(table: usize, id: usize, row: &[f64]) -> u64 {
    // Ids stay below 2^48 and tables below 2^16, so the key is injective.
    let mut hash = ((table as u64) << 48) ^ id as u64;
    for &v in row {
        hash = (hash ^ v.to_bits()).wrapping_mul(WORD_MUL).rotate_left(23);
    }
    fold_word(hash, row.len() as u64)
}

/// Wrapping sum of [`row_hash`] over every embedding row of `model`: the full-scan
/// value a [`ServingNode`](crate::engine::ServingNode) keeps current row by row.
pub(crate) fn row_hash_sum(model: &DlrmModel) -> u64 {
    let mut sum = 0u64;
    for (t, table) in model.tables().iter().enumerate() {
        // for_each_row decodes quantized storage (master rows exact), so the hash is
        // over the f64 values predictions actually see, whatever the row storage.
        table.for_each_row(|id, row| sum = sum.wrapping_add(row_hash(t, id, row)));
    }
    sum
}

/// The checksum of `model` after `steps` steps, given its row-hash sum: a fold of
/// `steps`, each table's shape, and `row_sum`.
pub(crate) fn checksum_with_row_sum(model: &DlrmModel, steps: u64, row_sum: u64) -> u64 {
    let mut hash = fold_word(HASH_SEED, steps);
    for table in model.tables() {
        hash = fold_word(hash, table.num_rows() as u64);
        hash = fold_word(hash, table.dim() as u64);
    }
    fold_word(hash, row_sum)
}

/// Checksum of every embedding-table row of `model` after `steps` online update steps,
/// by full scan: the reference value that a [`ServingNode`](crate::engine::ServingNode)
/// maintains incrementally and [`ServingSnapshot::verify_checksum`] recomputes. MLP
/// weights are excluded: the online update path only ever rewrites embedding rows, so
/// hashing the tables captures exactly the state a publication swaps.
#[must_use]
pub fn model_checksum(model: &DlrmModel, steps: u64) -> u64 {
    checksum_with_row_sum(model, steps, row_hash_sum(model))
}

/// Dequantized f64 copies of the most-accessed embedding rows, frozen into a snapshot.
///
/// The cache is keyed by the live Zipf access CDF (the per-table access histograms a
/// [`ServingNode`](crate::engine::ServingNode) maintains): the head of the distribution
/// serves straight from contiguous f64 rows without touching quantized storage. Cached
/// rows are built with [`EmbeddingTable::row_into`](liveupdate_dlrm::EmbeddingTable::row_into),
/// so a hit is bit-identical to decoding the backing store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HotRowCache {
    tables: Vec<CachedTable>,
    /// Per-table hit/miss tallies. `Arc`-shared, so every clone of a snapshot — and,
    /// via [`HotRowCache::adopt_stats`], every successor snapshot — accumulates into
    /// the same counters: the telemetry layer reads one cumulative number per table
    /// even as publications replace the cache itself. Excluded from equality (two
    /// caches holding the same rows are the same cache, however often each was hit).
    stats: Arc<Vec<CacheTableStats>>,
}

/// Lock-free hit/miss tally of one cached table.
#[derive(Debug, Default)]
pub struct CacheTableStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheTableStats {
    /// `(hits, misses)` so far.
    #[must_use]
    pub fn get(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

impl PartialEq for HotRowCache {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables
    }
}

/// The cached head of one embedding table: ascending ids and their rows, flat. Lookups
/// binary-search `ids`; the Zipf head is small (thousands of rows), so the id array stays
/// L2-resident and a search costs a dozen comparisons against data already in cache. (A
/// direct-map `id → slot` index was measured and rejected: at 10⁶ rows it adds 4 MB per
/// table that every *cold* id probes, evicting exactly the rows the cache exists to keep
/// hot.)
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct CachedTable {
    dim: usize,
    ids: Vec<usize>,
    rows: Vec<f64>,
}

impl CachedTable {
    fn lookup(&self, id: usize) -> Option<&[f64]> {
        self.ids
            .binary_search(&id)
            .ok()
            .map(|pos| &self.rows[pos * self.dim..(pos + 1) * self.dim])
    }
}

impl HotRowCache {
    /// Build a cache holding the given row ids of every table (one id list per table),
    /// decoded from `model`'s current storage.
    ///
    /// # Panics
    ///
    /// Panics if `ids_per_table.len()` does not match the table count or any id is out
    /// of bounds.
    #[must_use]
    pub fn build(model: &DlrmModel, ids_per_table: &[Vec<usize>]) -> Self {
        assert_eq!(
            ids_per_table.len(),
            model.tables().len(),
            "hot-row cache needs one id list per table"
        );
        let tables = model
            .tables()
            .iter()
            .zip(ids_per_table)
            .map(|(table, ids)| {
                let mut ids = ids.clone();
                ids.sort_unstable();
                ids.dedup();
                let dim = table.dim();
                let mut rows = vec![0.0; ids.len() * dim];
                for (k, &id) in ids.iter().enumerate() {
                    table.row_into(id, &mut rows[k * dim..(k + 1) * dim]);
                }
                CachedTable { dim, ids, rows }
            })
            .collect::<Vec<_>>();
        let stats = Arc::new(
            (0..tables.len())
                .map(|_| CacheTableStats::default())
                .collect(),
        );
        Self { tables, stats }
    }

    /// Per-table hit/miss tally, or `None` for unknown tables (and for the default
    /// empty cache, which tallies nothing).
    #[must_use]
    pub fn table_stats(&self, table: usize) -> Option<&CacheTableStats> {
        self.stats.get(table)
    }

    /// Number of tables carrying a tally (equals the table count for built caches).
    #[must_use]
    pub fn stats_tables(&self) -> usize {
        self.stats.len()
    }

    /// Continue `prev`'s hit/miss tallies: fold whatever this cache already counted
    /// into `prev`'s counters and share them from here on. The publisher calls this
    /// when swapping a fresh snapshot in over an old one, so per-table cache telemetry
    /// is cumulative across publications instead of resetting at every epoch. A table
    /// count mismatch (different model shape) keeps the fresh tallies instead.
    pub fn adopt_stats(&mut self, prev: &HotRowCache) {
        if prev.stats.len() != self.stats.len() || Arc::ptr_eq(&prev.stats, &self.stats) {
            return;
        }
        for (old, young) in prev.stats.iter().zip(self.stats.iter()) {
            let (h, m) = young.get();
            old.hits.fetch_add(h, Ordering::Relaxed);
            old.misses.fetch_add(m, Ordering::Relaxed);
        }
        self.stats = Arc::clone(&prev.stats);
    }

    /// The cached row, or `None` on a miss (uncached id or unknown table).
    #[must_use]
    pub fn lookup(&self, table: usize, id: usize) -> Option<&[f64]> {
        self.tables.get(table).and_then(|t| t.lookup(id))
    }

    /// Cached ids of one table in ascending order (empty for unknown tables).
    #[must_use]
    pub fn cached_ids(&self, table: usize) -> &[usize] {
        self.tables.get(table).map_or(&[], |t| &t.ids)
    }

    /// Total cached rows across tables.
    #[must_use]
    pub fn cached_rows(&self) -> usize {
        self.tables.iter().map(|t| t.ids.len()).sum()
    }

    /// True when no rows are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cached_rows() == 0
    }

    /// Resident bytes of the cache (ids + f64 rows).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                t.ids.len() * std::mem::size_of::<usize>()
                    + t.rows.len() * std::mem::size_of::<f64>()
            })
            .sum()
    }

    /// Mean-pool `ids` of table index `table_idx` into `out`, taking each row from the
    /// cache when it is hot and from `table`'s (possibly quantized) backing storage
    /// otherwise. Partial hits are the point: a production multi-hot lookup pools dozens
    /// of ids and almost never has *all* of them in the Zipf head, so an all-or-nothing
    /// cache would silently serve everything from the backing store. Accumulation runs in
    /// id order with rows bit-identical to their decoded values (see
    /// [`EmbeddingTable::add_row_into`](liveupdate_dlrm::EmbeddingTable::add_row_into)),
    /// so any mix of hits and misses matches the uncached gather exactly.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of bounds or `out.len()` does not match the table dim.
    pub fn pooled_gather(
        &self,
        table_idx: usize,
        ids: &[usize],
        out: &mut [f64],
        table: &liveupdate_dlrm::EmbeddingTable,
    ) {
        let Some(ct) = self.tables.get(table_idx).filter(|ct| !ct.ids.is_empty()) else {
            // No cached head for this table: every id is a miss by definition.
            if let Some(stats) = self.stats.get(table_idx) {
                stats.misses.fetch_add(ids.len() as u64, Ordering::Relaxed);
            }
            table.pooled_lookup_into(ids, out);
            return;
        };
        out.fill(0.0);
        if ids.is_empty() {
            return;
        }
        let mut hits = 0u64;
        for &id in ids {
            match ct.lookup(id) {
                Some(row) => {
                    hits += 1;
                    for (o, &v) in out.iter_mut().zip(row) {
                        *o += v;
                    }
                }
                None => table.add_row_into(id, out),
            }
        }
        // One pair of relaxed adds per gather, not per id: the telemetry cost on the
        // serve path stays independent of pooling width.
        if let Some(stats) = self.stats.get(table_idx) {
            stats.hits.fetch_add(hits, Ordering::Relaxed);
            stats
                .misses
                .fetch_add(ids.len() as u64 - hits, Ordering::Relaxed);
        }
        let inv = 1.0 / ids.len() as f64;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }
}

/// The read-only serve pass shared by [`ServingSnapshot::serve_batch`] and the mutable
/// [`ServingNode::serve_batch`](crate::engine::ServingNode::serve_batch): predict every
/// sample and count the lookups that take the LoRA-corrected path. Touches no state.
pub(crate) fn readonly_serve(
    model: &DlrmModel,
    hot: &HotIndexFilter,
    batch: &MiniBatch,
) -> ServeReport {
    readonly_serve_cached(
        model,
        hot,
        &HotRowCache::default(),
        batch,
        &mut InferenceScratch::default(),
        &mut Vec::new(),
    )
}

/// The full hot-path serve pass: scratch-buffer inference (no per-sample allocation)
/// with pooled gathers answered from the hot-row cache when every id of a lookup is
/// cached, falling back to the (possibly quantized) backing tables otherwise. Cache hits
/// are bit-identical to the fallback, so report parity between cached and uncached
/// callers is exact. `predictions` is cleared and refilled in batch order; a caller that
/// keeps `scratch` and `predictions` across batches allocates nothing once they are warm.
pub(crate) fn readonly_serve_cached(
    model: &DlrmModel,
    hot: &HotIndexFilter,
    cache: &HotRowCache,
    batch: &MiniBatch,
    scratch: &mut InferenceScratch,
    predictions: &mut Vec<f64>,
) -> ServeReport {
    let mut corrected = 0usize;
    let mut prediction_sum = 0.0;
    predictions.clear();
    for sample in batch.iter() {
        let p = model.predict_pooled_with_scratch(sample, scratch, |t, ids, out| {
            cache.pooled_gather(t, ids, out, model.table(t));
        });
        prediction_sum += p;
        predictions.push(p);
        for (table_idx, ids) in sample.sparse.iter().enumerate() {
            for &id in ids {
                if hot.is_hot(table_idx, id) {
                    corrected += 1;
                }
            }
        }
    }
    ServeReport {
        requests: batch.len(),
        lora_corrected_lookups: corrected,
        mean_prediction: if batch.is_empty() {
            0.0
        } else {
            prediction_sum / batch.len() as f64
        },
    }
}

/// An immutable, self-checksummed copy of a node's serving state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSnapshot {
    serving_model: DlrmModel,
    hot_filter: HotIndexFilter,
    hot_rows: HotRowCache,
    steps: u64,
    checksum: u64,
}

impl ServingSnapshot {
    /// Capture a snapshot of `model` + `hot_filter` after `steps` online update steps,
    /// with no hot-row cache. The checksum is computed here by full scan.
    #[must_use]
    pub fn capture(serving_model: DlrmModel, hot_filter: HotIndexFilter, steps: u64) -> Self {
        let checksum = model_checksum(&serving_model, steps);
        Self::with_checksum(
            serving_model,
            hot_filter,
            steps,
            HotRowCache::default(),
            checksum,
        )
    }

    /// Assemble a snapshot whose checksum the caller already knows: a
    /// [`ServingNode`](crate::engine::ServingNode) passes the checksum it maintains, so
    /// a publication skips the full scan.
    pub(crate) fn with_checksum(
        serving_model: DlrmModel,
        hot_filter: HotIndexFilter,
        steps: u64,
        hot_rows: HotRowCache,
        checksum: u64,
    ) -> Self {
        Self {
            serving_model,
            hot_filter,
            hot_rows,
            steps,
            checksum,
        }
    }

    /// The snapshot's hot-row cache (empty unless the publisher enabled it).
    #[must_use]
    pub fn hot_rows(&self) -> &HotRowCache {
        &self.hot_rows
    }

    /// Carry `prev`'s cumulative hot-row-cache hit/miss tallies forward into this
    /// snapshot (see [`HotRowCache::adopt_stats`]). Publishers call this right before
    /// the epoch swap so cache telemetry survives snapshot replacement.
    pub fn adopt_cache_stats(&mut self, prev: &ServingSnapshot) {
        self.hot_rows.adopt_stats(&prev.hot_rows);
    }

    /// The frozen serving model (base + materialised LoRA corrections).
    #[must_use]
    pub fn serving_model(&self) -> &DlrmModel {
        &self.serving_model
    }

    /// Online update steps the source node had performed when this was captured.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The checksum stored at capture.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recompute the checksum from the snapshot's current contents by full scan and
    /// compare it with the one stored at capture. A mismatch means a reader observed
    /// torn state (the epoch-swap publication protocol must make this impossible) or a
    /// serving-row write that bypassed the node's maintained row-hash sum.
    #[must_use]
    pub fn verify_checksum(&self) -> bool {
        model_checksum(&self.serving_model, self.steps) == self.checksum
    }

    /// Predict the click probability of one request. Read-only.
    #[must_use]
    pub fn predict(&self, sample: &Sample) -> f64 {
        self.serving_model.predict(sample)
    }

    /// Serve a batch read-only: predictions plus the LoRA-corrected lookup count, with
    /// no access recording, no retention buffering, no mutation of any kind. The
    /// mutating side effects of the monolithic serve path live in
    /// [`ServingNode::ingest_batch`](crate::engine::ServingNode::ingest_batch), which the
    /// runtime's updater applies off the serve path.
    #[must_use]
    pub fn serve_batch(&self, batch: &MiniBatch) -> ServeReport {
        self.serve_batch_with_predictions(batch).0
    }

    /// [`Self::serve_batch`] that also returns the per-sample predictions in batch
    /// order, for callers that must hand each prediction back to its submitter. It
    /// allocates a scratch and a predictions buffer per call; a serving loop keeps its
    /// own and calls [`Self::serve_batch_into`].
    #[must_use]
    pub fn serve_batch_with_predictions(&self, batch: &MiniBatch) -> (ServeReport, Vec<f64>) {
        let mut predictions = Vec::with_capacity(batch.len());
        let report =
            self.serve_batch_into(batch, &mut InferenceScratch::default(), &mut predictions);
        (report, predictions)
    }

    /// [`Self::serve_batch_with_predictions`] into caller-owned buffers: `predictions`
    /// is cleared and refilled in batch order, and `scratch` holds the inference
    /// buffers. A runtime worker keeps one of each, so a warm batch allocates nothing.
    pub fn serve_batch_into(
        &self,
        batch: &MiniBatch,
        scratch: &mut InferenceScratch,
        predictions: &mut Vec<f64>,
    ) -> ServeReport {
        readonly_serve_cached(
            &self.serving_model,
            &self.hot_filter,
            &self.hot_rows,
            batch,
            scratch,
            predictions,
        )
    }

    /// Evaluate the snapshot on a labelled batch: `(AUC, mean log loss)`.
    #[must_use]
    pub fn evaluate(&self, batch: &MiniBatch) -> (Option<f64>, f64) {
        let mut auc = Auc::new();
        let mut ll = LogLoss::new();
        for sample in batch.iter() {
            let p = self.predict(sample);
            auc.record(p, sample.label);
            ll.record(p, sample.label);
        }
        (auc.value(), ll.value().unwrap_or(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LiveUpdateConfig;
    use crate::engine::ServingNode;
    use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
    use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};
    use proptest::prelude::*;

    fn node_and_workload() -> (ServingNode, SyntheticWorkload) {
        let model = DlrmModel::new(
            DlrmConfig {
                table_sizes: vec![300, 300],
                ..DlrmConfig::tiny(2, 300, 8)
            },
            11,
        );
        let w = SyntheticWorkload::new(WorkloadConfig {
            num_tables: 2,
            table_size: 300,
            ..WorkloadConfig::default()
        });
        (ServingNode::new(model, LiveUpdateConfig::default()), w)
    }

    #[test]
    fn snapshot_predictions_match_the_node() {
        let (mut n, mut w) = node_and_workload();
        n.serve_batch(0.0, &w.batch_at(0.0, 64));
        n.online_update_round(1.0, 32);
        let snap = n.snapshot();
        let batch = w.batch_at(2.0, 32);
        for sample in batch.iter() {
            assert_eq!(snap.predict(sample), n.predict(sample));
        }
        assert_eq!(snap.steps(), n.steps());
        assert!(snap.verify_checksum());
    }

    #[test]
    fn snapshot_serve_matches_mutable_serve_report() {
        let (mut n, mut w) = node_and_workload();
        n.serve_batch(0.0, &w.batch_at(0.0, 64));
        n.online_update_round(1.0, 32);
        let batch = w.batch_at(2.0, 48);
        let snap = n.snapshot();
        let ro = snap.serve_batch(&batch);
        let buffered_before = n.buffered_records();
        let mt = n.serve_batch(2.0, &batch);
        // Identical report; only the mutable path buffered the traffic.
        assert_eq!(ro, mt);
        assert_eq!(n.buffered_records(), buffered_before + batch.len());
    }

    #[test]
    fn snapshot_is_isolated_from_later_updates() {
        let (mut n, mut w) = node_and_workload();
        n.serve_batch(0.0, &w.batch_at(0.0, 96));
        let snap = n.snapshot();
        let checksum_before = snap.checksum();
        let probe = w.batch_at(1.0, 16);
        let before: Vec<f64> = probe.iter().map(|s| snap.predict(s)).collect();
        // Train the node hard; the captured snapshot must not move.
        for _ in 0..10 {
            n.online_update_round(1.0, 64);
        }
        let after: Vec<f64> = probe.iter().map(|s| snap.predict(s)).collect();
        assert_eq!(before, after, "a captured snapshot is frozen");
        assert_eq!(snap.checksum(), checksum_before);
        assert!(snap.verify_checksum());
        // And the node itself did move on.
        assert_ne!(n.snapshot().checksum(), checksum_before);
    }

    #[test]
    fn checksum_is_sensitive_to_model_and_steps() {
        let (mut n, mut w) = node_and_workload();
        n.serve_batch(0.0, &w.batch_at(0.0, 64));
        let a = n.snapshot();
        n.online_update_round(1.0, 32);
        let b = n.snapshot();
        assert_ne!(
            a.checksum(),
            b.checksum(),
            "training must change the checksum"
        );
        // Same state captured twice hashes identically.
        assert_eq!(b.checksum(), n.snapshot().checksum());
        assert_eq!(model_checksum(a.serving_model(), 0), a.checksum());
    }

    fn geometry() -> DlrmConfig {
        DlrmConfig {
            table_sizes: vec![300, 300],
            ..DlrmConfig::tiny(2, 300, 8)
        }
    }

    /// The maintained checksum of `node`'s snapshot equals the full scan.
    fn maintained_matches_full_scan(node: &ServingNode) -> bool {
        node.snapshot().checksum() == model_checksum(node.serving_model(), node.steps())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_maintained_checksum_equals_full_scan(
            ops in proptest::collection::vec(0u8..7, 1..14),
            int8 in proptest::bool::ANY,
            salt in 0usize..10_000,
        ) {
            let cfg = LiveUpdateConfig {
                serving_storage: if int8 {
                    liveupdate_dlrm::embedding::StorageKind::I8
                } else {
                    liveupdate_dlrm::embedding::StorageKind::F64
                },
                ..LiveUpdateConfig::default()
            };
            // Two replicas, so the sparse sync has a peer to merge with.
            let mut nodes: Vec<ServingNode> = (0..2)
                .map(|_| ServingNode::new(DlrmModel::new(geometry(), 11), cfg))
                .collect();
            let mut w = SyntheticWorkload::new(WorkloadConfig {
                num_tables: 2,
                table_size: 300,
                ..WorkloadConfig::default()
            });
            for (r, node) in nodes.iter_mut().enumerate() {
                node.serve_batch(r as f64, &w.batch_at(r as f64, 96));
            }
            prop_assert!(nodes.iter().all(maintained_matches_full_scan));
            for (k, &op) in ops.iter().enumerate() {
                let (table, row) = ((salt + k) % 2, (salt * 7 + k * 31) % 300);
                let value = (salt + k) as f64 * 1e-3;
                match op {
                    0 => {
                        for node in &mut nodes {
                            node.online_update_round(k as f64, 32);
                        }
                    }
                    1 => nodes[0].apply_embedding_row_pull(table, row, &[value; 8]),
                    2 => nodes[1].import_lora_row(table, row, vec![value; 4]),
                    3 => nodes[0].refresh_serving_rows(),
                    4 => {
                        let mut sync = crate::sync::SparseLoraSync::new(2);
                        for (rank, node) in nodes.iter().enumerate() {
                            for (t, r) in node.lora_support() {
                                sync.record_update(rank, t, r);
                            }
                        }
                        sync.synchronize_peers(&mut nodes);
                    }
                    5 => nodes[1].merge_lora_into_base(),
                    _ => nodes[0].full_sync(DlrmModel::new(geometry(), salt as u64)),
                }
                prop_assert!(
                    nodes.iter().all(maintained_matches_full_scan),
                    "op {} (step {}) left a maintained checksum behind the full scan",
                    op,
                    k
                );
            }
        }
    }

    #[test]
    fn checksum_sees_one_flipped_bit_and_swapped_rows() {
        for kind in [
            liveupdate_dlrm::embedding::StorageKind::F64,
            liveupdate_dlrm::embedding::StorageKind::I8,
        ] {
            let mut model = DlrmModel::new(geometry(), 5);
            model.convert_embedding_storage(kind);
            let base = model_checksum(&model, 3);

            let mut flipped = model.clone();
            let mut row = flipped.table(1).row_to_vec(17);
            row[5] = f64::from_bits(row[5].to_bits() ^ 1);
            flipped.tables_mut()[1].set_row(17, &row);
            assert_ne!(
                model_checksum(&flipped, 3),
                base,
                "{kind:?}: one flipped bit"
            );

            let mut swapped = model.clone();
            let (a, b) = (
                swapped.table(0).row_to_vec(4),
                swapped.table(0).row_to_vec(9),
            );
            assert_ne!(a, b);
            swapped.tables_mut()[0].set_row(4, &b);
            swapped.tables_mut()[0].set_row(9, &a);
            assert_ne!(
                model_checksum(&swapped, 3),
                base,
                "{kind:?}: two swapped rows"
            );

            // Rows moved across tables at the same id change it as well.
            let mut crossed = model.clone();
            let (a, b) = (
                crossed.table(0).row_to_vec(4),
                crossed.table(1).row_to_vec(4),
            );
            crossed.tables_mut()[0].set_row(4, &b);
            crossed.tables_mut()[1].set_row(4, &a);
            assert_ne!(
                model_checksum(&crossed, 3),
                base,
                "{kind:?}: rows crossed tables"
            );

            assert_ne!(model_checksum(&model, 4), base, "{kind:?}: the step count");
        }
    }

    #[test]
    fn evaluate_matches_node_evaluate() {
        let (mut n, mut w) = node_and_workload();
        n.serve_batch(0.0, &w.batch_at(0.0, 64));
        n.online_update_round(1.0, 32);
        let batch = w.batch_at(3.0, 64);
        assert_eq!(n.snapshot().evaluate(&batch), n.evaluate(&batch));
    }

    fn quantized_cached_node() -> (ServingNode, SyntheticWorkload) {
        let model = DlrmModel::new(
            DlrmConfig {
                table_sizes: vec![300, 300],
                ..DlrmConfig::tiny(2, 300, 8)
            },
            11,
        );
        let cfg = LiveUpdateConfig {
            serving_storage: liveupdate_dlrm::embedding::StorageKind::I8,
            hot_cache_fraction: 0.2,
            ..LiveUpdateConfig::default()
        };
        let w = SyntheticWorkload::new(WorkloadConfig {
            num_tables: 2,
            table_size: 300,
            ..WorkloadConfig::default()
        });
        (ServingNode::new(model, cfg), w)
    }

    #[test]
    fn hot_row_cache_hits_are_bit_identical_across_epoch_swap() {
        let (mut n, mut w) = quantized_cached_node();
        n.serve_batch(0.0, &w.batch_at(0.0, 128));
        let snap = n.snapshot();
        let cache = snap.hot_rows();
        assert!(!cache.is_empty(), "traffic must populate the hot-row cache");
        for t in 0..2 {
            for &id in cache.cached_ids(t) {
                let hit = cache.lookup(t, id).expect("cached id must hit");
                let backing = snap.serving_model().table(t).row_to_vec(id);
                assert_eq!(
                    hit,
                    &backing[..],
                    "cache hit must be bit-identical to the backing store"
                );
            }
        }
        // Epoch swap: train, republish, and re-check bit-identity on the new snapshot.
        n.online_update_round(1.0, 64);
        let swapped = n.snapshot();
        assert_ne!(
            swapped.checksum(),
            snap.checksum(),
            "the update must publish a new epoch"
        );
        let cache = swapped.hot_rows();
        assert!(!cache.is_empty());
        for t in 0..2 {
            for &id in cache.cached_ids(t) {
                let hit = cache.lookup(t, id).expect("cached id must hit");
                let backing = swapped.serving_model().table(t).row_to_vec(id);
                assert_eq!(hit, &backing[..]);
            }
        }
        // The frozen first snapshot still answers from its own (old-epoch) cache.
        for t in 0..2 {
            for &id in snap.hot_rows().cached_ids(t) {
                let hit = snap.hot_rows().lookup(t, id).expect("cached id must hit");
                let backing = snap.serving_model().table(t).row_to_vec(id);
                assert_eq!(hit, &backing[..]);
            }
        }
    }

    #[test]
    fn cached_serving_matches_uncached_bit_for_bit() {
        let (mut n, mut w) = quantized_cached_node();
        n.serve_batch(0.0, &w.batch_at(0.0, 128));
        n.online_update_round(1.0, 32);
        let snap = n.snapshot();
        assert!(!snap.hot_rows().is_empty());
        let batch = w.batch_at(2.0, 96);
        let (cached_report, cached_preds) = snap.serve_batch_with_predictions(&batch);
        // The same state captured without a cache must serve identical bits.
        let bare = ServingSnapshot::capture(
            snap.serving_model().clone(),
            HotIndexFilter::new(2),
            snap.steps(),
        );
        let (_, bare_preds) = bare.serve_batch_with_predictions(&batch);
        assert_eq!(
            cached_preds, bare_preds,
            "cache hits must not change a single bit"
        );
        assert_eq!(cached_report.requests, batch.len());
    }

    #[test]
    fn quantized_serving_snapshot_evaluates_close_to_f64() {
        let (mut nq, mut w) = quantized_cached_node();
        let (mut nf, _) = node_and_workload();
        let traffic = w.batch_at(0.0, 256);
        nq.serve_batch(0.0, &traffic);
        nf.serve_batch(0.0, &traffic);
        let eval = w.batch_at(1.0, 256);
        let (auc_q, _) = nq.snapshot().evaluate(&eval);
        let (auc_f, _) = nf.snapshot().evaluate(&eval);
        let (auc_q, auc_f) = (
            auc_q.expect("two-class batch"),
            auc_f.expect("two-class batch"),
        );
        assert!(
            (auc_q - auc_f).abs() < 0.01,
            "int8 serving must stay within the stated AUC tolerance: {auc_f} vs {auc_q}"
        );
    }
}
