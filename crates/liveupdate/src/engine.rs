//! The per-node serving engine: inference path + online update path (paper Fig. 7).
//!
//! [`ServingNode`] owns everything a LiveUpdate inference node needs:
//!
//! * the **base model** — the frozen DLRM last received from the training cluster,
//! * the **serving model** — the base embeddings with the accumulated LoRA corrections
//!   materialised for hot rows (the "LoRA cache" of the paper), used by every prediction,
//! * the **LoRA tables**, one per embedding table,
//! * the **rank adapters** and **usage pruners** implementing Algorithm 1,
//! * the **hot-index filter** deciding which lookups need the corrected path,
//! * the **retention buffer** of recent requests that feeds the online trainer, and
//! * per-table **access histograms** used to retune the pruning threshold.
//!
//! The inference path (`serve_batch`) serves requests and caches them for training; the
//! online update path (`online_update_round`) trains the LoRA factors from the buffer,
//! refreshes the serving rows, and periodically adapts the rank and prunes the tables.

use crate::config::LiveUpdateConfig;
use crate::hot_index::HotIndexFilter;
use crate::lora::LoraTable;
use crate::pruning::UsagePruner;
use crate::rank_adapt::RankAdapter;
use crate::trainer::LoraTrainer;
use liveupdate_dlrm::metrics::{Auc, LogLoss};
use liveupdate_dlrm::model::DlrmModel;
use liveupdate_dlrm::sample::{MiniBatch, Sample};
use liveupdate_workload::access::AccessHistogram;
use liveupdate_workload::trace::RetentionBuffer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The hot-row cache's ids are re-ranked once the recorded accesses have grown by half
/// since the last ranking. A re-rank reads every access counter (2 × 10⁶ of them at
/// Prod-1M, ~5 ms), which a publication every 100 ms must not pay. The histograms are
/// cumulative, so the ranking still reflects at least two thirds of all traffic seen.
const RERANK_GROWTH_DIVISOR: u64 = 2;

/// Summary of one inference window served by the node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Number of requests served.
    pub requests: usize,
    /// How many individual lookups took the LoRA-corrected path.
    pub lora_corrected_lookups: usize,
    /// Mean predicted click probability over the window.
    pub mean_prediction: f64,
}

/// Summary of one online update round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateRoundReport {
    /// Mean training loss of the round's mini-batch.
    pub loss: f64,
    /// Number of `(table, row)` LoRA updates applied.
    pub rows_updated: usize,
    /// The distinct `(table, row)` indices touched this round — the support a replica
    /// contributes to the next sparse synchronisation ([`crate::sync::SparseLoraSync`]).
    pub touched_rows: Vec<(usize, usize)>,
    /// Whether a rank/pruning adaptation was triggered this round.
    pub adapted: bool,
    /// Current LoRA rank per table.
    pub ranks: Vec<usize>,
    /// Rows pruned across all tables (zero when no adaptation ran).
    pub pruned_rows: usize,
    /// Total LoRA memory after the round, in bytes.
    pub lora_memory_bytes: usize,
}

/// A LiveUpdate inference node.
#[derive(Debug, Clone)]
pub struct ServingNode {
    config: LiveUpdateConfig,
    base_model: DlrmModel,
    serving_model: DlrmModel,
    loras: Vec<LoraTable>,
    rank_adapters: Vec<RankAdapter>,
    pruners: Vec<UsagePruner>,
    hot_filter: HotIndexFilter,
    buffer: RetentionBuffer,
    access: Vec<AccessHistogram>,
    trainer: LoraTrainer,
    steps: u64,
    rng: StdRng,
    /// Wrapping sum of the keyed hashes of every serving-model row, kept current by
    /// [`Self::set_serving_row`]; [`Self::snapshot`] derives its checksum from it.
    row_hash_sum: u64,
    /// Per table, the ids the next snapshot's hot-row cache holds (ascending), as of the
    /// last re-rank.
    hot_ids: Vec<Vec<usize>>,
    /// Accesses recorded over all tables at the last re-rank of `hot_ids`.
    ranked_accesses: u64,
}

impl ServingNode {
    /// Create a node serving `model` with LiveUpdate enabled.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(model: DlrmModel, config: LiveUpdateConfig) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid LiveUpdate configuration: {reason}");
        }
        let loras: Vec<LoraTable> = model
            .tables()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                LoraTable::new(t.num_rows(), t.dim(), config.initial_rank, 1000 + i as u64)
            })
            .collect();
        let rank_adapters = model
            .tables()
            .iter()
            .map(|_| {
                RankAdapter::new(
                    config.variance_threshold,
                    config.initial_rank,
                    config.min_rank,
                    config.max_rank,
                )
            })
            .collect();
        let pruners = model
            .tables()
            .iter()
            .map(|t| {
                UsagePruner::from_table(
                    t.num_rows(),
                    config.pruning_window_steps,
                    config.min_table_fraction,
                    config.max_table_fraction,
                    1,
                )
            })
            .collect();
        let access = model
            .tables()
            .iter()
            .map(|t| AccessHistogram::new(t.num_rows()))
            .collect();
        let hot_filter = HotIndexFilter::new(model.tables().len());
        let buffer = RetentionBuffer::new(config.retention_minutes, config.retention_max_records);
        // The serving model alone takes the configured (possibly quantized) row storage;
        // the frozen base model stays f64 so refresh/merge paths read exact values.
        let mut serving_model = model.clone();
        serving_model.convert_embedding_storage(config.serving_storage);
        let row_hash_sum = crate::snapshot::row_hash_sum(&serving_model);
        let hot_ids = vec![Vec::new(); model.tables().len()];
        Self {
            trainer: LoraTrainer::new(config.lora_learning_rate),
            serving_model,
            base_model: model,
            loras,
            rank_adapters,
            pruners,
            hot_filter,
            buffer,
            access,
            config,
            steps: 0,
            rng: StdRng::seed_from_u64(0xC0FFEE),
            row_hash_sum,
            hot_ids,
            ranked_accesses: 0,
        }
    }

    /// The node configuration.
    #[must_use]
    pub fn config(&self) -> &LiveUpdateConfig {
        &self.config
    }

    /// The frozen base model the LoRA corrections apply on top of.
    #[must_use]
    pub fn base_model(&self) -> &DlrmModel {
        &self.base_model
    }

    /// The serving model (base + materialised LoRA corrections).
    #[must_use]
    pub fn serving_model(&self) -> &DlrmModel {
        &self.serving_model
    }

    /// The LoRA adapters, one per embedding table.
    #[must_use]
    pub fn loras(&self) -> &[LoraTable] {
        &self.loras
    }

    /// Current LoRA rank per table.
    #[must_use]
    pub fn current_ranks(&self) -> Vec<usize> {
        self.loras.iter().map(LoraTable::rank).collect()
    }

    /// Number of records currently retained in the inference-log buffer.
    #[must_use]
    pub fn buffered_records(&self) -> usize {
        self.buffer.len()
    }

    /// Total online update steps performed.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total LoRA memory across tables in bytes.
    #[must_use]
    pub fn lora_memory_bytes(&self) -> usize {
        self.loras.iter().map(LoraTable::memory_bytes).sum()
    }

    /// LoRA memory as a fraction of the base embedding-table memory.
    #[must_use]
    pub fn lora_memory_fraction(&self) -> f64 {
        let base: usize = self
            .base_model
            .tables()
            .iter()
            .map(liveupdate_dlrm::EmbeddingTable::memory_bytes)
            .sum();
        if base == 0 {
            return 0.0;
        }
        self.lora_memory_bytes() as f64 / base as f64
    }

    /// Predict the click probability of one request through the serving model.
    #[must_use]
    pub fn predict(&self, sample: &Sample) -> f64 {
        self.serving_model.predict(sample)
    }

    /// Serve a window of requests at `time_minutes`: predict, count the LoRA-corrected
    /// lookups, record accesses, and cache the labelled samples in the retention buffer for
    /// the online update path.
    ///
    /// This is the monolithic single-threaded path: a read-only serve pass (shared with
    /// [`ServingSnapshot::serve_batch`](crate::snapshot::ServingSnapshot::serve_batch))
    /// followed by [`Self::ingest_batch`]. The multithreaded runtime performs the two
    /// halves on different threads — workers serve from a published snapshot, the updater
    /// ingests — and the determinism-parity test pins that the split reproduces this
    /// path's state bit-for-bit.
    pub fn serve_batch(&mut self, time_minutes: f64, batch: &MiniBatch) -> ServeReport {
        let report = crate::snapshot::readonly_serve(&self.serving_model, &self.hot_filter, batch);
        self.ingest_batch(time_minutes, batch);
        report
    }

    /// The mutating half of the serve path: record every sparse access into the per-table
    /// histograms and push the labelled samples into the retention buffer that feeds the
    /// online trainer. No predictions are made. Once the recorded accesses have grown by
    /// half since the last ranking, the hot-row cache's ids are re-ranked.
    pub fn ingest_batch(&mut self, time_minutes: f64, batch: &MiniBatch) {
        for sample in batch.iter() {
            for (table_idx, ids) in sample.sparse.iter().enumerate() {
                for &id in ids {
                    self.access[table_idx].record(id);
                }
            }
        }
        self.buffer.push_batch(time_minutes, batch);
        let accesses: u64 = self
            .access
            .iter()
            .map(AccessHistogram::total_accesses)
            .sum();
        if self.config.hot_cache_fraction > 0.0
            && accesses > self.ranked_accesses
            && accesses - self.ranked_accesses >= self.ranked_accesses / RERANK_GROWTH_DIVISOR
        {
            self.rerank_hot_rows();
            self.ranked_accesses = accesses;
        }
    }

    /// Capture an immutable [`ServingSnapshot`](crate::snapshot::ServingSnapshot) of the
    /// current serving state (model + hot filter). This is what the runtime's updater
    /// publishes after each round via the atomic epoch swap. Its checksum comes from the
    /// maintained row-hash sum, not a scan, and a quantized serving model clones in
    /// O(rows written since it was built), so the capture costs O(touched rows) plus the
    /// hot-row cache.
    #[must_use]
    pub fn snapshot(&self) -> crate::snapshot::ServingSnapshot {
        crate::snapshot::ServingSnapshot::with_checksum(
            self.serving_model.clone(),
            self.hot_filter.clone(),
            self.steps,
            self.build_hot_row_cache(),
            self.serving_checksum(),
        )
    }

    /// [`model_checksum`](crate::snapshot::model_checksum) of the serving model at the
    /// current step, from the maintained row-hash sum.
    fn serving_checksum(&self) -> u64 {
        crate::snapshot::checksum_with_row_sum(&self.serving_model, self.steps, self.row_hash_sum)
    }

    /// Re-rank the hot-row cache's ids from the live access histograms: per table, the
    /// `hot_cache_fraction · num_rows` most-accessed ids (the head of the Zipf access
    /// CDF), or none for a table with no recorded traffic.
    fn rerank_hot_rows(&mut self) {
        let fraction = self.config.hot_cache_fraction;
        for (ids, h) in self.hot_ids.iter_mut().zip(&self.access) {
            *ids = if h.total_accesses() == 0 {
                Vec::new()
            } else {
                // Strict top-k selection, not a count threshold: on a thinly-warmed
                // histogram the top-fraction threshold collapses to 1 and a
                // "count ≥ threshold" rule would admit every touched id — at production
                // geometry that is tens of megabytes of "cache" holding the Zipf tail.
                let k = ((h.num_ids() as f64) * fraction).round() as usize;
                h.top_k_ids(k)
            };
        }
    }

    /// Build the snapshot's hot-row cache: the rows of the last re-ranked ids, decoded
    /// from the current serving model, so a cached row is never older than its
    /// snapshot. Empty when the cache is disabled (`hot_cache_fraction == 0`).
    fn build_hot_row_cache(&self) -> crate::snapshot::HotRowCache {
        if self.config.hot_cache_fraction <= 0.0 {
            return crate::snapshot::HotRowCache::default();
        }
        crate::snapshot::HotRowCache::build(&self.serving_model, &self.hot_ids)
    }

    /// Deterministic checksum of the node's full update-visible state: the serving
    /// model's checksum (from the maintained row-hash sum, as [`Self::snapshot`] uses),
    /// folded with every LoRA table's rank / active `A` rows / `B` factor. Two nodes
    /// that went through the same serve/update history have equal checksums; the
    /// determinism-parity tests compare these.
    #[must_use]
    pub fn state_checksum(&self) -> u64 {
        use crate::snapshot::fold_word;
        let mut hash = self.serving_checksum();
        for lora in &self.loras {
            hash = fold_word(hash, lora.rank() as u64);
            let mut indices = lora.active_indices();
            indices.sort_unstable();
            for idx in indices {
                hash = fold_word(hash, idx as u64);
                for v in lora.a_row_or_zeros(idx) {
                    hash = fold_word(hash, v.to_bits());
                }
            }
            for &v in lora.b() {
                hash = fold_word(hash, v.to_bits());
            }
        }
        hash
    }

    /// Evaluate the serving model on a labelled batch: `(AUC, mean log loss)`.
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

    /// Run one online update round at `time_minutes`: sample a mini-batch of `batch_size`
    /// from the retention buffer, train the LoRA factors, refresh the serving rows, and —
    /// every `adaptation_interval_steps` rounds — adapt the rank and prune the tables.
    ///
    /// Returns a report; a round with an empty buffer is a no-op with zero rows updated.
    pub fn online_update_round(
        &mut self,
        _time_minutes: f64,
        batch_size: usize,
    ) -> UpdateRoundReport {
        let batch = self.buffer.sample_batch(&mut self.rng, batch_size.max(1));
        if batch.is_empty() {
            return UpdateRoundReport {
                loss: 0.0,
                rows_updated: 0,
                touched_rows: Vec::new(),
                adapted: false,
                ranks: self.current_ranks(),
                pruned_rows: 0,
                lora_memory_bytes: self.lora_memory_bytes(),
            };
        }
        let report = self
            .trainer
            .train_step(&self.serving_model, &mut self.loras, &batch);
        self.steps += 1;

        // Refresh the serving rows for every touched index and mark them hot.
        let mut touched_rows = Vec::new();
        for (table_idx, touched) in report.touched_per_table.iter().enumerate() {
            for &row in touched {
                let eff = self.loras[table_idx]
                    .effective_row(row, self.base_model.table(table_idx).row(row));
                self.set_serving_row(table_idx, row, &eff);
                touched_rows.push((table_idx, row));
            }
            self.hot_filter.mark_all(table_idx, touched.iter().copied());
            self.pruners[table_idx].record_step(touched.iter().copied());
            self.rank_adapters[table_idx].observe(&report.gradients[table_idx]);
        }

        // Periodic adaptation (Algorithm 1).
        let adapted = self
            .steps
            .is_multiple_of(self.config.adaptation_interval_steps as u64);
        let mut pruned_rows = 0usize;
        if adapted {
            for table_idx in 0..self.loras.len() {
                let decision = self.rank_adapters[table_idx].adapt();
                self.loras[table_idx].resize_rank(decision.rank);

                // Retune τ_prune from the live access skew (top hot_fraction boundary).
                let threshold =
                    self.access[table_idx].threshold_for_top_fraction(self.config.hot_fraction);
                if threshold != u64::MAX {
                    self.pruners[table_idx].set_prune_threshold(threshold.max(1));
                }
                let prune = self.pruners[table_idx].decide();
                pruned_rows += self.loras[table_idx].prune_to(&prune.active_indices);
                self.hot_filter
                    .retain(table_idx, &self.loras[table_idx].active_indices());
            }
        }

        UpdateRoundReport {
            loss: report.loss,
            rows_updated: report.rows_updated,
            touched_rows,
            adapted,
            ranks: self.current_ranks(),
            pruned_rows,
            lora_memory_bytes: self.lora_memory_bytes(),
        }
    }

    /// The node's current LoRA support: every `(table, row)` index with an active `A`
    /// row, in ascending order. This is what a cross-node synchroniser (in-process
    /// [`crate::sync::SparseLoraSync`] or a socket-based driver) gathers from each
    /// replica before computing the priority merge.
    #[must_use]
    pub fn lora_support(&self) -> Vec<(usize, usize)> {
        let mut support = Vec::new();
        for (table, lora) in self.loras.iter().enumerate() {
            for row in lora.active_indices() {
                support.push((table, row));
            }
        }
        support
    }

    /// Apply one shipped base-embedding row (the wire form of the QuickUpdate-α% pull):
    /// overwrite `(table, row)` of the frozen base model with `values` and rematerialise
    /// the serving view, keeping any live LoRA correction applied on top.
    ///
    /// # Panics
    ///
    /// Panics if `table`/`row` is out of bounds or `values.len()` is not the embedding
    /// dimension.
    pub fn apply_embedding_row_pull(&mut self, table: usize, row: usize, values: &[f64]) {
        self.base_model.tables_mut()[table].set_row(row, values);
        if self.loras[table].is_active(row) {
            self.refresh_serving_row(table, row);
        } else {
            self.set_serving_row(table, row, values);
        }
    }

    /// Export the LoRA `A` row of `(table, row)`: the active row, or zeros at the table's
    /// current rank. This is what a [`crate::sync::SparseLoraSync`] merge ships to peers.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of bounds.
    #[must_use]
    pub fn export_lora_row(&self, table: usize, row: usize) -> Vec<f64> {
        self.loras[table].a_row_or_zeros(row)
    }

    /// Import a merged LoRA `A` row from a peer node: the row is resized to the local
    /// adapter's rank, installed, the serving-model row is rematerialised so the imported
    /// correction is immediately visible to predictions, and the index is marked hot.
    ///
    /// # Panics
    ///
    /// Panics if `table` or `row` is out of bounds.
    pub fn import_lora_row(&mut self, table: usize, row: usize, mut values: Vec<f64>) {
        values.resize(self.loras[table].rank(), 0.0);
        self.loras[table].set_a_row(row, values);
        self.refresh_serving_row(table, row);
        self.hot_filter.mark(table, row);
    }

    /// Rematerialise the serving-model rows of every active LoRA index (all tables) and
    /// mark them hot. Called after a cross-node synchronisation rewrites `A` rows and `B`
    /// factors: rows materialised during earlier rounds may be stale with respect to the
    /// post-merge factors.
    pub fn refresh_serving_rows(&mut self) {
        for table in 0..self.loras.len() {
            for row in self.loras[table].active_indices() {
                self.refresh_serving_row(table, row);
                self.hot_filter.mark(table, row);
            }
        }
    }

    fn refresh_serving_row(&mut self, table: usize, row: usize) {
        let eff = self.loras[table].effective_row(row, self.base_model.table(table).row(row));
        self.set_serving_row(table, row, &eff);
    }

    /// Overwrite serving row `(table, row)` with `values`, moving the row-hash sum with
    /// it: the old row's hash leaves the sum and the new one's enters it. Every write to
    /// a serving row goes through here, which is what keeps [`Self::snapshot`]'s
    /// checksum equal to a full-scan [`model_checksum`](crate::snapshot::model_checksum).
    fn set_serving_row(&mut self, table: usize, row: usize, values: &[f64]) {
        use crate::snapshot::row_hash;
        let target = &mut self.serving_model.tables_mut()[table];
        let old = target.row_to_vec(row);
        target.set_row(row, values);
        self.row_hash_sum = self
            .row_hash_sum
            .wrapping_sub(row_hash(table, row, &old))
            .wrapping_add(row_hash(table, row, values));
    }

    /// Absorb the accumulated LoRA deltas into the base model (tiered mid-term step) and
    /// clear the adapters and hot filter. The serving model is left unchanged (it already
    /// reflects the deltas).
    pub fn merge_lora_into_base(&mut self) {
        for (table_idx, lora) in self.loras.iter_mut().enumerate() {
            lora.merge_into(&mut self.base_model.tables_mut()[table_idx]);
        }
        self.hot_filter.clear();
    }

    /// Full-parameter synchronisation: replace both the base and the serving model with a
    /// fresh model from the training cluster, dropping every local LoRA correction
    /// (paper Fig. 8, the hourly full update that bounds model drift).
    pub fn full_sync(&mut self, fresh_model: DlrmModel) {
        self.base_model = fresh_model.clone();
        let mut serving = fresh_model;
        serving.convert_embedding_storage(self.config.serving_storage);
        self.row_hash_sum = crate::snapshot::row_hash_sum(&serving);
        self.serving_model = serving;
        for lora in &mut self.loras {
            lora.clear();
        }
        self.hot_filter.clear();
    }
}

/// A [`ServingNode`] participates in sparse cross-node synchronisation directly: imports
/// go through [`ServingNode::import_lora_row`] so the serving view stays consistent, and
/// the post-merge callback rematerialises every active row against the broadcast factors.
impl crate::sync::LoraPeer for ServingNode {
    fn lora_rank(&self, table: usize) -> usize {
        self.loras[table].rank()
    }

    fn export_a_row(&self, table: usize, row: usize) -> Vec<f64> {
        self.export_lora_row(table, row)
    }

    fn import_a_row(&mut self, table: usize, row: usize, mut values: Vec<f64>) {
        // Deliberately *not* import_lora_row: the table's B factor may still be
        // broadcast after this call, so materialising here would be wasted work —
        // finish_sync() rematerialises every active row once the factors are final.
        values.resize(self.loras[table].rank(), 0.0);
        self.loras[table].set_a_row(row, values);
        self.hot_filter.mark(table, row);
    }

    fn export_b(&self, table: usize) -> Vec<f64> {
        self.loras[table].b().to_vec()
    }

    fn import_b(&mut self, table: usize, b: &[f64], source_rank: usize) {
        self.loras[table].import_b(b, source_rank);
    }

    fn finish_sync(&mut self) {
        self.refresh_serving_rows();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liveupdate_dlrm::model::DlrmConfig;
    use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};

    fn workload() -> SyntheticWorkload {
        SyntheticWorkload::new(WorkloadConfig {
            num_tables: 2,
            table_size: 300,
            ..WorkloadConfig::default()
        })
    }

    fn node() -> ServingNode {
        let model = DlrmModel::new(
            DlrmConfig {
                table_sizes: vec![300, 300],
                ..DlrmConfig::tiny(2, 300, 8)
            },
            11,
        );
        ServingNode::new(model, LiveUpdateConfig::default())
    }

    #[test]
    #[should_panic(expected = "invalid LiveUpdate configuration")]
    fn invalid_config_rejected() {
        let model = DlrmModel::new(DlrmConfig::tiny(1, 10, 4), 0);
        let cfg = LiveUpdateConfig {
            variance_threshold: 0.0,
            ..LiveUpdateConfig::default()
        };
        let _ = ServingNode::new(model, cfg);
    }

    #[test]
    fn serve_batch_fills_buffer_and_counts() {
        let mut n = node();
        let mut w = workload();
        let batch = w.batch_at(0.0, 32);
        let report = n.serve_batch(0.0, &batch);
        assert_eq!(report.requests, 32);
        assert_eq!(
            report.lora_corrected_lookups, 0,
            "nothing is hot before any update"
        );
        assert!(report.mean_prediction > 0.0 && report.mean_prediction < 1.0);
        assert_eq!(n.buffered_records(), 32);
    }

    #[test]
    fn update_round_trains_and_marks_hot() {
        let mut n = node();
        let mut w = workload();
        n.serve_batch(0.0, &w.batch_at(0.0, 64));
        let before_mem = n.lora_memory_bytes();
        let report = n.online_update_round(5.0, 32);
        assert!(report.rows_updated > 0);
        assert!(report.loss > 0.0);
        assert!(n.lora_memory_bytes() >= before_mem);
        // Serving the same traffic again now takes the LoRA-corrected path for hot ids.
        let serve = n.serve_batch(5.0, &w.batch_at(5.0, 64));
        assert!(serve.lora_corrected_lookups > 0);
        assert_eq!(n.steps(), 1);
    }

    #[test]
    fn update_round_with_empty_buffer_is_noop() {
        let mut n = node();
        let report = n.online_update_round(0.0, 32);
        assert_eq!(report.rows_updated, 0);
        assert!(!report.adapted);
        assert_eq!(n.steps(), 0);
    }

    #[test]
    fn serving_rows_reflect_lora_corrections() {
        let mut n = node();
        let mut w = workload();
        n.serve_batch(0.0, &w.batch_at(0.0, 64));
        n.online_update_round(1.0, 64);
        // At least one serving row must now differ from the base model's row.
        let mut any_diff = false;
        for t in 0..2 {
            for &idx in &n.loras[t].active_indices() {
                let base = n.base_model.table(t).row(idx);
                let serving = n.serving_model.table(t).row(idx);
                if base.iter().zip(serving).any(|(a, b)| (a - b).abs() > 1e-12) {
                    any_diff = true;
                }
            }
        }
        assert!(
            any_diff,
            "LoRA corrections must be visible in the serving model"
        );
    }

    #[test]
    fn adaptation_triggers_on_interval() {
        let model = DlrmModel::new(DlrmConfig::tiny(1, 200, 8), 5);
        let cfg = LiveUpdateConfig {
            adaptation_interval_steps: 3,
            ..LiveUpdateConfig::default()
        };
        let mut n = ServingNode::new(model, cfg);
        let mut w = SyntheticWorkload::new(WorkloadConfig {
            num_tables: 1,
            table_size: 200,
            ..WorkloadConfig::default()
        });
        n.serve_batch(0.0, &w.batch_at(0.0, 96));
        let mut adapted_rounds = 0;
        for i in 0..6 {
            let r = n.online_update_round(i as f64, 32);
            if r.adapted {
                adapted_rounds += 1;
                assert!(!r.ranks.is_empty());
            }
        }
        assert_eq!(adapted_rounds, 2, "adaptation every 3 steps over 6 steps");
    }

    #[test]
    fn online_training_improves_fit_to_buffered_traffic() {
        let mut n = node();
        let mut w = workload();
        let eval = w.batch_at(0.0, 256);
        n.serve_batch(0.0, &eval);
        let (_, ll_before) = n.evaluate(&eval);
        for _ in 0..40 {
            n.online_update_round(1.0, 64);
        }
        let (_, ll_after) = n.evaluate(&eval);
        assert!(
            ll_after < ll_before,
            "online LoRA training should improve log loss: {ll_before} -> {ll_after}"
        );
    }

    #[test]
    fn full_sync_resets_lora_state() {
        let mut n = node();
        let mut w = workload();
        n.serve_batch(0.0, &w.batch_at(0.0, 64));
        n.online_update_round(1.0, 32);
        assert!(n.loras().iter().any(|l| l.active_rows() > 0));
        let fresh = DlrmModel::new(
            DlrmConfig {
                table_sizes: vec![300, 300],
                ..DlrmConfig::tiny(2, 300, 8)
            },
            99,
        );
        n.full_sync(fresh.clone());
        assert!(n.loras().iter().all(|l| l.active_rows() == 0));
        assert_eq!(n.serving_model(), &fresh);
        // Buffer is retained across syncs (it holds raw traffic, not model state).
        assert!(n.buffered_records() > 0);
    }

    #[test]
    fn merge_lora_into_base_keeps_serving_view() {
        let mut n = node();
        let mut w = workload();
        n.serve_batch(0.0, &w.batch_at(0.0, 64));
        n.online_update_round(1.0, 32);
        let serving_before = n.serving_model().clone();
        n.merge_lora_into_base();
        assert!(n.loras().iter().all(|l| l.active_rows() == 0));
        assert_eq!(n.serving_model(), &serving_before);
        // Base now equals the serving view on previously-hot rows.
        for t in 0..2 {
            for idx in 0..300 {
                let b = n.base_model.table(t).row(idx);
                let s = n.serving_model().table(t).row(idx);
                for (x, y) in b.iter().zip(s) {
                    assert!((x - y).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn lora_support_lists_active_rows_across_tables() {
        let mut n = node();
        assert!(n.lora_support().is_empty());
        n.import_lora_row(0, 5, vec![1.0; 4]);
        n.import_lora_row(1, 9, vec![1.0; 4]);
        n.import_lora_row(0, 2, vec![1.0; 4]);
        assert_eq!(n.lora_support(), vec![(0, 2), (0, 5), (1, 9)]);
    }

    #[test]
    fn apply_embedding_row_pull_moves_base_and_serving() {
        let mut n = node();
        let fresh = vec![0.25; 8];
        // Inactive row: the serving view takes the shipped values verbatim.
        n.apply_embedding_row_pull(0, 7, &fresh);
        assert_eq!(n.base_model.table(0).row(7), &fresh[..]);
        assert_eq!(n.serving_model().table(0).row(7), &fresh[..]);
        // Active LoRA row: the correction stays applied on top of the new base.
        n.import_lora_row(0, 3, vec![1.0; 4]);
        n.apply_embedding_row_pull(0, 3, &fresh);
        assert_eq!(n.base_model.table(0).row(3), &fresh[..]);
        let expected = n.loras[0].effective_row(3, &fresh);
        assert_eq!(n.serving_model().table(0).row(3), &expected[..]);
        assert_ne!(n.serving_model().table(0).row(3), &fresh[..]);
    }

    #[test]
    fn import_lora_row_is_visible_to_predictions() {
        let mut n = node();
        let base_row = n.base_model.table(0).row(5).to_vec();
        assert_eq!(n.serving_model().table(0).row(5), &base_row[..]);
        // Import a non-zero A row as a peer's merge would; the serving row must move.
        n.import_lora_row(0, 5, vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(n.export_lora_row(0, 5), vec![1.0, 1.0, 1.0, 1.0]);
        let expected = n.loras[0].effective_row(5, &base_row);
        assert_eq!(n.serving_model().table(0).row(5), &expected[..]);
        assert!(n.serving_model().table(0).row(5) != &base_row[..]);
        // Unknown rows export as zeros at the current rank.
        assert_eq!(n.export_lora_row(0, 6), vec![0.0; 4]);
    }

    #[test]
    fn refresh_serving_rows_repairs_stale_b() {
        let mut n = node();
        n.import_lora_row(0, 9, vec![1.0, 0.0, 0.0, 0.0]);
        // Overwrite B behind the serving model's back (as a sync broadcast does), then
        // refresh: the materialised row must track the new factors.
        let dim = n.loras[0].dim();
        n.loras[0].import_b(&vec![0.5; 4 * dim], 4);
        let stale = n.serving_model().table(0).row(9).to_vec();
        n.refresh_serving_rows();
        let fresh = n.serving_model().table(0).row(9).to_vec();
        assert_ne!(stale, fresh);
        let expected = n.loras[0].effective_row(9, n.base_model.table(0).row(9));
        assert_eq!(fresh, expected);
    }

    #[test]
    fn memory_fraction_stays_small() {
        let mut n = node();
        let mut w = workload();
        for t in 0..5 {
            n.serve_batch(t as f64, &w.batch_at(t as f64, 64));
            n.online_update_round(t as f64, 64);
        }
        assert!(
            n.lora_memory_fraction() < 0.25,
            "LoRA memory should stay a small fraction of the base: {}",
            n.lora_memory_fraction()
        );
    }
}
