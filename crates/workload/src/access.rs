//! Access-distribution statistics over embedding lookups.
//!
//! Paper Fig. 12 plots the CDF of embedding accesses and reports that the top 10 % of
//! indices account for 93.8 % of lookups; that skew is what the CCD-local caching and the
//! LoRA-table pruning threshold `τ_prune` are calibrated against. [`AccessHistogram`]
//! accumulates per-ID access counts and reproduces those statistics.

use serde::{Deserialize, Serialize};

/// Per-ID access counter with CDF/top-share queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl AccessHistogram {
    /// Create a histogram over `num_ids` IDs.
    ///
    /// # Panics
    ///
    /// Panics if `num_ids == 0`.
    #[must_use]
    pub fn new(num_ids: usize) -> Self {
        assert!(num_ids > 0, "histogram needs at least one id");
        Self {
            counts: vec![0; num_ids],
            total: 0,
        }
    }

    /// Number of distinct IDs tracked.
    #[must_use]
    pub fn num_ids(&self) -> usize {
        self.counts.len()
    }

    /// Total number of recorded accesses.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Record one access to `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn record(&mut self, id: usize) {
        assert!(id < self.counts.len(), "id {id} out of bounds");
        self.counts[id] += 1;
        self.total += 1;
    }

    /// Record every ID of an iterator.
    pub fn record_all<I: IntoIterator<Item = usize>>(&mut self, ids: I) {
        for id in ids {
            self.record(id);
        }
    }

    /// Access count for a specific ID.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn count(&self, id: usize) -> u64 {
        assert!(id < self.counts.len(), "id {id} out of bounds");
        self.counts[id]
    }

    /// Fraction of accesses captured by the most-accessed `fraction` of IDs
    /// (e.g. `top_share(0.1)` → paper's 93.8 % figure). Returns `0.0` with no accesses.
    #[must_use]
    pub fn top_share(&self, fraction: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let fraction = fraction.clamp(0.0, 1.0);
        let k = ((self.counts.len() as f64) * fraction).round() as usize;
        if k == 0 {
            return 0.0;
        }
        let mut sorted = self.counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = sorted.iter().take(k).sum();
        top as f64 / self.total as f64
    }

    /// The CDF of accesses over IDs sorted from most to least accessed, sampled at
    /// `points` evenly spaced fractions of the ID space. Returns `(fraction_of_ids,
    /// cumulative_share_of_accesses)` pairs — the series plotted in paper Fig. 12.
    #[must_use]
    pub fn cdf(&self, points: usize) -> Vec<(f64, f64)> {
        let points = points.max(2);
        (0..points)
            .map(|i| {
                let frac = i as f64 / (points - 1) as f64;
                (frac, self.top_share(frac))
            })
            .collect()
    }

    /// The access-count threshold such that exactly the top `fraction` of IDs (by count)
    /// meet or exceed it. This is how LiveUpdate initialises the pruning threshold
    /// `τ_prune` to "the access frequency of the rank-10 % index" (paper §IV-C).
    #[must_use]
    pub fn threshold_for_top_fraction(&self, fraction: f64) -> u64 {
        let fraction = fraction.clamp(0.0, 1.0);
        let k = ((self.counts.len() as f64) * fraction).round() as usize;
        if k == 0 {
            return u64::MAX;
        }
        let mut sorted = self.counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted[k.min(sorted.len()) - 1]
    }

    /// IDs whose access count is at least `threshold`, in ascending id order.
    #[must_use]
    pub fn ids_with_count_at_least(&self, threshold: u64) -> Vec<usize> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= threshold)
            .map(|(id, _)| id)
            .collect()
    }

    /// The `k` most-accessed ids (ties broken by ascending id), in ascending id order.
    /// Ids that were never accessed are excluded, so the result can be shorter than `k`.
    ///
    /// Unlike a count threshold, this bounds the result size even when the histogram is
    /// thinly populated: with few recorded accesses a `threshold_for_top_fraction`
    /// collapses to 1 and "count ≥ threshold" selects the *entire* touched set, which at
    /// production geometry is exactly the unbounded-memory outcome a caller sizing a
    /// cache needs to avoid.
    ///
    /// Selection, not a sort, and one pass with a bounded buffer: touched ids collect
    /// as candidates, and whenever `2k` have gathered `select_nth_unstable_by` keeps the
    /// best `k` in `(count desc, id asc)` order. That order is total, so the result is
    /// exactly the first `k` of the full sort. Ids arrive in ascending order, so after
    /// a compaction an id whose count does not beat the k-th candidate's can never
    /// enter and is skipped. At 10⁶ ids the pass costs one read of the counts and
    /// allocates `2k` entries, however many ids were touched.
    #[must_use]
    pub fn top_k_ids(&self, k: usize) -> Vec<usize> {
        // No more than every id can be selected; this also bounds the buffer.
        let k = k.min(self.counts.len());
        if k == 0 {
            return Vec::new();
        }
        let order = |a: &(u64, usize), b: &(u64, usize)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        let mut candidates: Vec<(u64, usize)> = Vec::with_capacity(2 * k);
        // Count of the k-th best candidate after the last compaction.
        let mut floor = 0u64;
        for (id, &count) in self.counts.iter().enumerate() {
            if count <= floor {
                continue;
            }
            candidates.push((count, id));
            if candidates.len() == 2 * k {
                candidates.select_nth_unstable_by(k - 1, order);
                candidates.truncate(k);
                floor = candidates[k - 1].0;
            }
        }
        if candidates.len() > k {
            candidates.select_nth_unstable_by(k - 1, order);
            candidates.truncate(k);
        }
        let mut ids: Vec<usize> = candidates.into_iter().map(|(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::ZipfSampler;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "at least one id")]
    fn empty_histogram_rejected() {
        let _ = AccessHistogram::new(0);
    }

    #[test]
    fn record_and_count() {
        let mut h = AccessHistogram::new(5);
        h.record(0);
        h.record(0);
        h.record(3);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(4), 0);
        assert_eq!(h.total_accesses(), 3);
        assert_eq!(h.num_ids(), 5);
    }

    #[test]
    fn top_share_of_concentrated_accesses() {
        let mut h = AccessHistogram::new(10);
        // 90 accesses to id 0, 10 spread over the rest.
        for _ in 0..90 {
            h.record(0);
        }
        h.record_all(1..=9);
        h.record(1);
        assert!((h.top_share(0.1) - 0.9).abs() < 1e-12);
        assert!((h.top_share(1.0) - 1.0).abs() < 1e-12);
        assert_eq!(h.top_share(0.0), 0.0);
    }

    #[test]
    fn top_share_empty_is_zero() {
        let h = AccessHistogram::new(4);
        assert_eq!(h.top_share(0.5), 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_anchored() {
        let mut h = AccessHistogram::new(100);
        let z = ZipfSampler::new(100, 1.05);
        let mut rng = StdRng::seed_from_u64(1);
        h.record_all(z.sample_many(&mut rng, 10_000));
        let cdf = h.cdf(11);
        assert_eq!(cdf.len(), 11);
        assert_eq!(cdf[0], (0.0, 0.0));
        assert!((cdf[10].1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
    }

    #[test]
    fn zipf_access_matches_paper_skew() {
        // With the paper's skew, a large table should see ≥ 80 % of accesses on the top 10 %.
        let mut h = AccessHistogram::new(10_000);
        let z = ZipfSampler::new(10_000, 1.05);
        let mut rng = StdRng::seed_from_u64(2);
        h.record_all(z.sample_many(&mut rng, 200_000));
        let share = h.top_share(0.1);
        assert!(share > 0.75, "top-10% share {share}");
    }

    #[test]
    fn top_k_is_bounded_on_a_thin_histogram() {
        // A thinly-warmed histogram over a large id space: most touched ids have count 1,
        // so any count-threshold rule degenerates to "everything touched". top_k_ids must
        // stay bounded by k and prefer the truly hot head.
        let mut h = AccessHistogram::new(100_000);
        for id in 0..5_000 {
            h.record(id); // the long tail, one access each
        }
        for _ in 0..10 {
            h.record_all([7usize, 11, 13]); // the actual head
        }
        assert_eq!(
            h.threshold_for_top_fraction(0.01).max(1),
            1,
            "threshold collapses"
        );
        assert_eq!(
            h.ids_with_count_at_least(1).len(),
            5_000,
            "threshold rule is unbounded"
        );
        let top = h.top_k_ids(3);
        assert_eq!(top, vec![7, 11, 13]);
        assert!(
            h.top_k_ids(10_000).len() == 5_000,
            "never more than the touched set"
        );
        assert!(h.top_k_ids(0).is_empty());
        // Ties (equal counts) break deterministically by ascending id.
        assert_eq!(h.top_k_ids(5), vec![0, 1, 7, 11, 13]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_top_k_matches_the_sort_reference(
            counts in proptest::collection::vec(0u64..4, 1..200),
            k in 0usize..220,
        ) {
            // Counts in 0..4 over up to 200 ids: many ties and many untouched ids.
            let mut h = AccessHistogram::new(counts.len());
            for (id, &n) in counts.iter().enumerate() {
                for _ in 0..n {
                    h.record(id);
                }
            }
            let mut reference: Vec<(u64, usize)> = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(id, &c)| (c, id))
                .collect();
            reference.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            reference.truncate(k);
            let mut expected: Vec<usize> = reference.into_iter().map(|(_, id)| id).collect();
            expected.sort_unstable();
            prop_assert_eq!(h.top_k_ids(k), expected);
        }
    }

    #[test]
    fn threshold_and_hot_set() {
        let mut h = AccessHistogram::new(10);
        for (id, n) in [(0usize, 50u64), (1, 30), (2, 10), (3, 5)] {
            for _ in 0..n {
                h.record(id);
            }
        }
        let thr = h.threshold_for_top_fraction(0.2);
        assert_eq!(thr, 30);
        assert_eq!(h.ids_with_count_at_least(thr), vec![0, 1]);
        assert_eq!(h.threshold_for_top_fraction(0.0), u64::MAX);
    }

    #[test]
    fn reset_clears_counts() {
        let mut h = AccessHistogram::new(3);
        h.record_all([0, 1, 2, 0]);
        h.reset();
        assert_eq!(h.total_accesses(), 0);
        assert_eq!(h.count(0), 0);
    }
}
