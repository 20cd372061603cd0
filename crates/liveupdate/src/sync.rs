//! Sparse data-parallel LoRA synchronisation with priority merge (paper §IV-E, Algorithm 3).
//!
//! Every inference node (rank) trains its own copy of the LoRA adapters on its local
//! traffic. Instead of all-reducing dense gradients, each rank only tracks the *support* of
//! its updates — the set of `(table, row)` indices it modified — and every `T_sync` steps
//! the ranks exchange exactly those rows. Write conflicts are resolved deterministically by
//! a rank-priority rule: index `i` takes the value of the highest-numbered rank that
//! modified it. Alongside the `A` rows, each touched table's dense `B` factor (a few KB) is
//! broadcast from the same priority root, so as long as the peers' adapted LoRA ranks
//! agree (the common case — rank adaptation is deterministic and fires on a shared step
//! interval), every rank serves bit-identical corrections on the exchanged support. Peers
//! whose local rank has drifted apart resize imports to their own rank (truncate/pad), so
//! they converge only on the leading `min(rank)` components until the next full sync. The
//! payload is tiny either way, and its transfer cost is what Fig. 19 measures: a
//! [`SyncReport`]'s `bytes_per_rank` is what `liveupdate_sim`'s `CollectiveModel` prices.
//!
//! The merge is expressed against the [`LoraPeer`] trait so the same protocol drives both
//! bare `Vec<LoraTable>` replicas (unit tests) and full [`crate::engine::ServingNode`]s,
//! where imports also rematerialise the serving rows. This in-process merge is the
//! reference the socket driver (`liveupdate_net::driver`) is tested against: it runs the
//! same [`SparseLoraSync::merge_plan`] as frames between replica servers.

use crate::lora::LoraTable;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One entry of the deterministic merge plan: `row` of `table` takes the value held by
/// rank `winner` (the highest-numbered rank that modified the index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeAssignment {
    /// Embedding-table index.
    pub table: usize,
    /// Row within the table.
    pub row: usize,
    /// Rank whose value wins the priority merge.
    pub winner: usize,
}

/// A participant in the sparse LoRA synchronisation: anything that can export and import
/// `A` rows and the shared `B` factor of its per-table adapters.
///
/// The two provided implementations are `Vec<LoraTable>` (bare adapters) and
/// [`crate::engine::ServingNode`] (imports additionally refresh the materialised serving
/// rows so the correction becomes visible to predictions).
pub trait LoraPeer {
    /// Current LoRA rank of one table's adapter.
    fn lora_rank(&self, table: usize) -> usize;
    /// Export the `A` row of `(table, row)`: the active row, or zeros at the current rank.
    fn export_a_row(&self, table: usize, row: usize) -> Vec<f64>;
    /// Import a merged `A` row, resizing it to the local adapter's rank.
    fn import_a_row(&mut self, table: usize, row: usize, values: Vec<f64>);
    /// Export the dense `B` factor of one table (row-major `k×d`).
    fn export_b(&self, table: usize) -> Vec<f64>;
    /// Import a broadcast `B` factor of `source_rank` rows, keeping the local rank.
    fn import_b(&mut self, table: usize, b: &[f64], source_rank: usize);
    /// Called on every peer once the merge completes (imports applied). Engines use this
    /// to rematerialise serving rows; bare adapters need no post-processing.
    fn finish_sync(&mut self) {}
}

impl LoraPeer for Vec<LoraTable> {
    fn lora_rank(&self, table: usize) -> usize {
        self[table].rank()
    }

    fn export_a_row(&self, table: usize, row: usize) -> Vec<f64> {
        self[table].a_row_or_zeros(row)
    }

    fn import_a_row(&mut self, table: usize, row: usize, mut values: Vec<f64>) {
        // The receiving adapter may be at a different adapted rank; resize the row.
        values.resize(self[table].rank(), 0.0);
        self[table].set_a_row(row, values);
    }

    fn export_b(&self, table: usize) -> Vec<f64> {
        self[table].b().to_vec()
    }

    fn import_b(&mut self, table: usize, b: &[f64], source_rank: usize) {
        self[table].import_b(b, source_rank);
    }
}

/// Tracks per-rank modified-index sets and performs the priority merge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseLoraSync {
    num_ranks: usize,
    /// `modified[rank]` = set of `(table, row)` indices modified since the last sync.
    modified: Vec<BTreeSet<(usize, usize)>>,
}

/// Outcome of one synchronisation event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncReport {
    /// Number of distinct `(table, row)` indices exchanged.
    pub indices_exchanged: usize,
    /// Payload bytes per rank (active `A` rows plus broadcast `B` factors, `f64`
    /// storage).
    pub bytes_per_rank: u64,
}

impl SparseLoraSync {
    /// Create the protocol state for `num_ranks` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `num_ranks == 0`.
    #[must_use]
    pub fn new(num_ranks: usize) -> Self {
        assert!(num_ranks > 0, "at least one rank is required");
        Self {
            num_ranks,
            modified: vec![BTreeSet::new(); num_ranks],
        }
    }

    /// Number of participating ranks.
    #[must_use]
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Record that `rank` modified `row` of `table` (Algorithm 3 line 7).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of bounds.
    pub fn record_update(&mut self, rank: usize, table: usize, row: usize) {
        assert!(rank < self.num_ranks, "rank {rank} out of bounds");
        self.modified[rank].insert((table, row));
    }

    /// Pending modified indices of a rank.
    #[must_use]
    pub fn pending(&self, rank: usize) -> usize {
        self.modified[rank].len()
    }

    /// The global union of modified indices, `I_all` (Algorithm 3 line 9).
    #[must_use]
    pub fn global_modified(&self) -> Vec<(usize, usize)> {
        let mut union: BTreeSet<(usize, usize)> = BTreeSet::new();
        for set in &self.modified {
            union.extend(set.iter().copied());
        }
        union.into_iter().collect()
    }

    /// The deterministic merge plan for the pending modified sets: one assignment per index
    /// of the global union, each naming the highest-numbered rank that modified it. The
    /// plan depends only on the *sets* of recorded updates, never on the order in which
    /// they were recorded.
    #[must_use]
    pub fn merge_plan(&self) -> Vec<MergeAssignment> {
        self.global_modified()
            .into_iter()
            .map(|(table, row)| {
                let winner = (0..self.num_ranks)
                    .rev()
                    .find(|&r| self.modified[r].contains(&(table, row)))
                    .expect("index came from the union of modified sets");
                MergeAssignment { table, row, winner }
            })
            .collect()
    }

    /// Per touched table, the rank whose `B` factor is broadcast: the highest-numbered rank
    /// that modified any row of the table (the same priority rule as the row merge).
    #[must_use]
    pub fn table_winners(&self) -> Vec<(usize, usize)> {
        let mut winners: BTreeMap<usize, usize> = BTreeMap::new();
        for rank in 0..self.num_ranks {
            for &(table, _) in &self.modified[rank] {
                winners.insert(table, rank); // ascending rank loop ⇒ last write wins
            }
        }
        winners.into_iter().collect()
    }

    /// Perform the priority merge over per-rank LoRA replicas (`replicas[rank][table]`) and
    /// broadcast the merged rows back to every rank (Algorithm 3 lines 9–12).
    ///
    /// # Panics
    ///
    /// Panics if the replica structure does not match `num_ranks`.
    pub fn synchronize(&mut self, replicas: &mut [Vec<LoraTable>]) -> SyncReport {
        self.synchronize_peers(replicas).0
    }

    /// The generic form of [`Self::synchronize`]: apply the priority merge to any slice of
    /// [`LoraPeer`]s (Algorithm 3 lines 9–12). Every winning `A` row is exported once and
    /// imported by every other rank; each touched table's `B` factor is then broadcast from
    /// that table's priority root, and every peer gets a [`LoraPeer::finish_sync`] callback
    /// to rematerialise derived state. The pending modified sets are cleared afterwards.
    ///
    /// Returns the report together with the merge plan that was actually applied (the
    /// exchanged support), so callers never need to recompute it.
    ///
    /// # Panics
    ///
    /// Panics if `peers.len() != num_ranks`.
    pub fn synchronize_peers<P: LoraPeer>(
        &mut self,
        peers: &mut [P],
    ) -> (SyncReport, Vec<MergeAssignment>) {
        assert_eq!(peers.len(), self.num_ranks, "one peer per rank is required");
        let plan = self.merge_plan();
        let mut max_row_len = 0usize;
        for assignment in &plan {
            let winning_row =
                peers[assignment.winner].export_a_row(assignment.table, assignment.row);
            max_row_len = max_row_len.max(winning_row.len());
            for (rank, peer) in peers.iter_mut().enumerate() {
                if rank != assignment.winner {
                    peer.import_a_row(assignment.table, assignment.row, winning_row.clone());
                }
            }
        }
        let mut b_bytes = 0usize;
        for (table, winner) in self.table_winners() {
            let b = peers[winner].export_b(table);
            let source_rank = peers[winner].lora_rank(table);
            b_bytes += b.len() * std::mem::size_of::<f64>();
            for (rank, peer) in peers.iter_mut().enumerate() {
                if rank != winner {
                    peer.import_b(table, &b, source_rank);
                }
            }
        }
        if !plan.is_empty() {
            for peer in peers.iter_mut() {
                peer.finish_sync();
            }
        }
        let bytes_per_rank =
            (plan.len() * max_row_len.max(1) * std::mem::size_of::<f64>() + b_bytes) as u64;
        for set in &mut self.modified {
            set.clear();
        }
        let report = SyncReport {
            indices_exchanged: plan.len(),
            bytes_per_rank,
        };
        (report, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liveupdate_sim::collective::{CollectiveAlgorithm, CollectiveModel};
    use liveupdate_sim::network::NetworkLink;
    use proptest::prelude::*;

    fn collective() -> CollectiveModel {
        CollectiveModel::new(
            NetworkLink::infiniband_edr(),
            CollectiveAlgorithm::TreeAllGather,
        )
    }

    fn replicas(num_ranks: usize) -> Vec<Vec<LoraTable>> {
        (0..num_ranks)
            .map(|r| vec![LoraTable::new(50, 4, 2, r as u64)])
            .collect()
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = SparseLoraSync::new(0);
    }

    #[test]
    fn record_and_union() {
        let mut s = SparseLoraSync::new(3);
        s.record_update(0, 0, 5);
        s.record_update(1, 0, 5);
        s.record_update(2, 0, 9);
        assert_eq!(s.pending(0), 1);
        assert_eq!(s.global_modified(), vec![(0, 5), (0, 9)]);
    }

    #[test]
    fn priority_merge_prefers_highest_rank() {
        let mut s = SparseLoraSync::new(3);
        let mut reps = replicas(3);
        // Ranks 0 and 2 both modify row 7 of table 0 with different values.
        reps[0][0].set_a_row(7, vec![1.0, 1.0]);
        reps[2][0].set_a_row(7, vec![9.0, 9.0]);
        s.record_update(0, 0, 7);
        s.record_update(2, 0, 7);
        let report = s.synchronize(&mut reps);
        assert_eq!(report.indices_exchanged, 1);
        // Every rank must now carry rank 2's value (the highest rank wins).
        for rep in &reps {
            assert_eq!(rep[0].a_row(7).unwrap(), &[9.0, 9.0]);
        }
        // Modified sets are reset after a sync.
        assert_eq!(s.pending(0), 0);
        assert_eq!(s.pending(2), 0);
    }

    #[test]
    fn merge_broadcasts_disjoint_updates_to_everyone() {
        let mut s = SparseLoraSync::new(2);
        let mut reps = replicas(2);
        reps[0][0].set_a_row(1, vec![1.0, 0.0]);
        reps[1][0].set_a_row(2, vec![0.0, 2.0]);
        s.record_update(0, 0, 1);
        s.record_update(1, 0, 2);
        let report = s.synchronize(&mut reps);
        assert_eq!(report.indices_exchanged, 2);
        assert_eq!(reps[1][0].a_row(1).unwrap(), &[1.0, 0.0]);
        assert_eq!(reps[0][0].a_row(2).unwrap(), &[0.0, 2.0]);
        assert!(report.bytes_per_rank > 0);
    }

    #[test]
    fn rank_mismatch_resizes_rows() {
        let mut s = SparseLoraSync::new(2);
        let mut reps = replicas(2);
        // Rank 1's replica adapted to a smaller rank.
        reps[1][0].resize_rank(1);
        reps[0][0].set_a_row(4, vec![3.0, 4.0]);
        s.record_update(0, 0, 4);
        let _ = s.synchronize(&mut reps);
        assert_eq!(reps[1][0].a_row(4).unwrap(), &[3.0]);
    }

    #[test]
    fn empty_sync_costs_nothing_to_exchange() {
        let mut s = SparseLoraSync::new(4);
        let mut reps = replicas(4);
        let report = s.synchronize(&mut reps);
        assert_eq!(report.indices_exchanged, 0);
        assert_eq!(report.bytes_per_rank, 0);
    }

    #[test]
    fn merge_plan_matches_priority_rule_and_table_winners() {
        let mut s = SparseLoraSync::new(3);
        s.record_update(0, 0, 7);
        s.record_update(2, 0, 7);
        s.record_update(1, 1, 3);
        let plan = s.merge_plan();
        assert_eq!(
            plan,
            vec![
                MergeAssignment {
                    table: 0,
                    row: 7,
                    winner: 2
                },
                MergeAssignment {
                    table: 1,
                    row: 3,
                    winner: 1
                },
            ]
        );
        assert_eq!(s.table_winners(), vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn sync_broadcasts_b_factor_from_priority_root() {
        let mut s = SparseLoraSync::new(2);
        // Different seeds ⇒ the two replicas start with different B factors.
        let mut reps = replicas(2);
        assert_ne!(reps[0][0].b(), reps[1][0].b());
        reps[1][0].set_a_row(3, vec![2.0, -1.0]);
        s.record_update(1, 0, 3);
        let report = s.synchronize(&mut reps);
        // Rank 1 is the table winner; rank 0 now carries its B and its A row, so the
        // represented deltas agree on the exchanged support.
        assert_eq!(reps[0][0].b(), reps[1][0].b());
        assert_eq!(reps[0][0].delta_row(3), reps[1][0].delta_row(3));
        // Payload = 1 A row of rank 2 plus one 2×4 B factor, in f64.
        assert_eq!(report.bytes_per_rank, ((2 + 2 * 4) * 8) as u64);
    }

    /// Deterministically fill per-rank replicas with `A`-row values derived from the
    /// update set, record the updates in the given order, and synchronise.
    fn run_merge(
        num_ranks: usize,
        updates: &[(usize, usize)], // (rank, row) on table 0
        order: &[usize],
    ) -> (Vec<Vec<LoraTable>>, SyncReport) {
        let mut s = SparseLoraSync::new(num_ranks);
        let mut reps = replicas(num_ranks);
        for &i in order {
            let (rank, row) = updates[i];
            reps[rank][0].set_a_row(row, vec![(rank * 100 + row) as f64, row as f64]);
            s.record_update(rank, 0, row);
        }
        let report = s.synchronize(&mut reps);
        (reps, report)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The merged state and the reported cost are a pure function of the update *set*:
        /// re-running the identical scenario reproduces them exactly.
        #[test]
        fn prop_merge_is_deterministic(
            updates in proptest::collection::vec((0usize..4, 0usize..50), 1..30),
        ) {
            let order: Vec<usize> = (0..updates.len()).collect();
            let (reps_a, report_a) = run_merge(4, &updates, &order);
            let (reps_b, report_b) = run_merge(4, &updates, &order);
            prop_assert_eq!(reps_a, reps_b);
            prop_assert_eq!(report_a, report_b);
        }

        /// The merge outcome is independent of the order in which updates were recorded
        /// (rank-iteration order must not leak into the result).
        #[test]
        fn prop_merge_independent_of_recording_order(
            updates in proptest::collection::vec((0usize..4, 0usize..50), 1..30),
            shuffle_seed in 0u64..1_000,
        ) {
            use rand::{Rng, SeedableRng};
            let forward: Vec<usize> = (0..updates.len()).collect();
            let mut shuffled = forward.clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
            for i in (1..shuffled.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                shuffled.swap(i, j);
            }
            let (reps_a, report_a) = run_merge(4, &updates, &forward);
            let (reps_b, report_b) = run_merge(4, &updates, &shuffled);
            prop_assert_eq!(reps_a, reps_b);
            prop_assert_eq!(report_a, report_b);
        }

        /// After a sync every rank holds identical values on the exchanged support — both
        /// the raw `A` rows and the represented delta `A[i]·B`.
        #[test]
        fn prop_all_ranks_agree_on_support_after_sync(
            updates in proptest::collection::vec((0usize..4, 0usize..50), 1..30),
        ) {
            let order: Vec<usize> = (0..updates.len()).collect();
            let mut s = SparseLoraSync::new(4);
            let mut reps = replicas(4);
            for &i in &order {
                let (rank, row) = updates[i];
                reps[rank][0].set_a_row(row, vec![(rank * 100 + row) as f64, row as f64]);
                s.record_update(rank, 0, row);
            }
            let support = s.global_modified();
            s.synchronize(&mut reps);
            for &(table, row) in &support {
                let reference_a = reps[0][table].a_row(row).unwrap().to_vec();
                let reference_delta = reps[0][table].delta_row(row);
                for rep in &reps[1..] {
                    prop_assert_eq!(rep[table].a_row(row).unwrap(), &reference_a[..]);
                    prop_assert_eq!(rep[table].delta_row(row), reference_delta.clone());
                }
            }
        }

        /// Synchronisation is idempotent: re-recording the already-merged support and
        /// syncing again changes nothing.
        #[test]
        fn prop_merge_is_idempotent(
            updates in proptest::collection::vec((0usize..4, 0usize..50), 1..30),
        ) {
            let order: Vec<usize> = (0..updates.len()).collect();
            let (mut reps, first) = run_merge(4, &updates, &order);
            let mut s = SparseLoraSync::new(4);
            // Every rank re-records the merged support (values are now identical
            // everywhere, so the winner's value equals every loser's value).
            let support: Vec<(usize, usize)> = updates.iter().map(|&(_, row)| (0usize, row)).collect();
            for rank in 0..4 {
                for &(table, row) in &support {
                    s.record_update(rank, table, row);
                }
            }
            let snapshot = reps.clone();
            let second = s.synchronize(&mut reps);
            prop_assert_eq!(reps, snapshot);
            prop_assert_eq!(second.indices_exchanged, first.indices_exchanged);
        }
    }

    #[test]
    fn sync_cost_grows_sublinearly_with_ranks() {
        // The same per-rank payload over more ranks, priced by the collective model:
        // tree AllGather cost grows, but far slower than linearly (Fig. 19's shape).
        let cost = |n: usize| {
            let mut s = SparseLoraSync::new(n);
            let mut reps = replicas(n);
            for (r, rep) in reps.iter_mut().enumerate() {
                for row in 0..20 {
                    rep[0].set_a_row(row, vec![r as f64, 1.0]);
                    s.record_update(r, 0, row);
                }
            }
            let report = s.synchronize(&mut reps);
            collective().allgather_seconds(n, report.bytes_per_rank)
        };
        let c4 = cost(4);
        let c16 = cost(16);
        assert!(c16 > c4);
        assert!(c16 < c4 * 4.0, "expected sub-linear growth: {c4} -> {c16}");
    }
}
