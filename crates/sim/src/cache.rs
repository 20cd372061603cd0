//! LRU cache model for the per-CCD L3 caches.
//!
//! The paper's isolation argument (§IV-D) is cache-centric: each AMD EPYC CCD has a 96 MB
//! L3, large enough to hold the hot embeddings of one workload but not of two thrashing
//! each other. [`LruCache`] is a byte-capacity LRU over embedding-row keys with hit/miss
//! accounting — the source of the Fig. 11 hit-ratio numbers.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Byte-capacity LRU cache over `u64` keys (e.g. `(table_id << 40) | row_id`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LruCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// key → (size in bytes, last-access tick)
    entries: HashMap<u64, (u64, u64)>,
    /// last-access tick → key, the recency order. Ticks are unique, so the first entry
    /// is always the least recently used key.
    recency: BTreeMap<u64, u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Create a cache with the given capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes == 0`.
    #[must_use]
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        Self {
            capacity_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Cache capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently resident.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of hits recorded so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses recorded so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all accesses so far, `0.0` before any access.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Access `key` with an entry size of `size_bytes`: records a hit if resident, or a
    /// miss followed by insertion (evicting least-recently-used entries as needed).
    /// Returns `true` on a hit.
    pub fn access(&mut self, key: u64, size_bytes: u64) -> bool {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            self.recency.remove(&entry.1);
            self.recency.insert(self.tick, key);
            entry.1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.insert(key, size_bytes);
        false
    }

    /// Insert or refresh an entry without counting a hit/miss (e.g. prefetching).
    pub fn insert(&mut self, key: u64, size_bytes: u64) {
        self.tick += 1;
        let size = size_bytes.min(self.capacity_bytes);
        if let Some(old) = self.entries.insert(key, (size, self.tick)) {
            self.used_bytes -= old.0;
            self.recency.remove(&old.1);
        }
        self.recency.insert(self.tick, key);
        self.used_bytes += size;
        self.evict_to_fit();
    }

    /// Whether a key is currently resident (does not affect recency or statistics).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Remove everything and reset the statistics.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.used_bytes = 0;
        self.hits = 0;
        self.misses = 0;
    }

    fn evict_to_fit(&mut self) {
        while self.used_bytes > self.capacity_bytes {
            let (_, lru_key) = self
                .recency
                .pop_first()
                .expect("used_bytes > 0 implies at least one entry");
            if let Some((size, _)) = self.entries.remove(&lru_key) {
                self.used_bytes -= size;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::new(0);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = LruCache::new(1000);
        assert!(!c.access(1, 100)); // miss
        assert!(c.access(1, 100)); // hit
        assert!(!c.access(2, 100)); // miss
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.len(), 2);
        assert_eq!(c.used_bytes(), 200);
    }

    #[test]
    fn eviction_respects_capacity_and_lru_order() {
        let mut c = LruCache::new(300);
        c.access(1, 100);
        c.access(2, 100);
        c.access(3, 100);
        // Touch 1 so 2 becomes the LRU.
        c.access(1, 100);
        c.access(4, 100); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.contains(4));
        assert!(c.used_bytes() <= 300);
    }

    #[test]
    fn oversized_entry_clamped_to_capacity() {
        let mut c = LruCache::new(100);
        c.access(1, 1000);
        assert_eq!(c.used_bytes(), 100);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn insert_does_not_affect_stats() {
        let mut c = LruCache::new(1000);
        c.insert(5, 10);
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(c.contains(5));
        assert!(c.access(5, 10));
    }

    #[test]
    fn reinserting_same_key_updates_size() {
        let mut c = LruCache::new(1000);
        c.insert(1, 100);
        c.insert(1, 300);
        assert_eq!(c.used_bytes(), 300);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = LruCache::new(100);
        c.access(1, 50);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.hit_ratio(), 0.0);
    }

    #[test]
    fn small_working_set_gets_high_hit_ratio() {
        // Hot working set fits: after warm-up the hit ratio approaches 1.
        let mut c = LruCache::new(64 * 100);
        for round in 0..50 {
            for id in 0..100u64 {
                c.access(id, 64);
            }
            let _ = round;
        }
        assert!(c.hit_ratio() > 0.95);
    }

    #[test]
    fn thrashing_working_set_gets_low_hit_ratio() {
        // Working set 10x the capacity accessed cyclically: pure LRU thrashing, ~0 hits.
        let mut c = LruCache::new(64 * 100);
        for _ in 0..5 {
            for id in 0..1000u64 {
                c.access(id, 64);
            }
        }
        assert!(c.hit_ratio() < 0.05, "hit ratio {}", c.hit_ratio());
    }

    /// The linear-scan LRU the recency index replaced: the reference for eviction order.
    struct ScanLru {
        capacity_bytes: u64,
        used_bytes: u64,
        entries: HashMap<u64, (u64, u64)>,
        tick: u64,
    }

    impl ScanLru {
        fn access(&mut self, key: u64, size_bytes: u64) -> bool {
            self.tick += 1;
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.1 = self.tick;
                return true;
            }
            self.insert(key, size_bytes);
            false
        }

        fn insert(&mut self, key: u64, size_bytes: u64) {
            self.tick += 1;
            let size = size_bytes.min(self.capacity_bytes);
            if let Some(old) = self.entries.insert(key, (size, self.tick)) {
                self.used_bytes -= old.0;
            }
            self.used_bytes += size;
            while self.used_bytes > self.capacity_bytes {
                let lru_key = *self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, tick))| *tick)
                    .expect("nonempty")
                    .0;
                self.used_bytes -= self.entries.remove(&lru_key).expect("present").0;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Same hits, misses and residency as the linear scan over random traces of
        /// accesses and prefetch inserts with mixed entry sizes.
        #[test]
        fn prop_matches_linear_scan_reference(
            ops in proptest::collection::vec((0u64..64, 1u64..300, 0u8..4), 1..400),
            capacity in 100u64..3000,
        ) {
            let mut c = LruCache::new(capacity);
            let mut reference = ScanLru {
                capacity_bytes: capacity,
                used_bytes: 0,
                entries: HashMap::new(),
                tick: 0,
            };
            for (key, size, op) in ops {
                if op == 0 {
                    c.insert(key, size);
                    reference.insert(key, size);
                } else {
                    prop_assert_eq!(c.access(key, size), reference.access(key, size));
                }
                prop_assert_eq!(c.used_bytes(), reference.used_bytes);
                for k in 0..64 {
                    prop_assert_eq!(c.contains(k), reference.entries.contains_key(&k));
                }
            }
        }

        #[test]
        fn prop_used_bytes_never_exceed_capacity(
            accesses in proptest::collection::vec((0u64..50, 1u64..200), 1..200),
            capacity in 100u64..2000,
        ) {
            let mut c = LruCache::new(capacity);
            for (key, size) in accesses {
                c.access(key, size);
                prop_assert!(c.used_bytes() <= c.capacity_bytes());
            }
        }

        #[test]
        fn prop_hit_ratio_in_unit_interval(
            accesses in proptest::collection::vec(0u64..20, 1..100)
        ) {
            let mut c = LruCache::new(640);
            for key in accesses {
                c.access(key, 64);
            }
            let r = c.hit_ratio();
            prop_assert!((0.0..=1.0).contains(&r));
        }
    }
}
