//! Deterministic sharding of a CTR request stream across serving replicas.
//!
//! A multi-replica serving cluster routes every incoming request to exactly one replica.
//! [`StreamSharder`] implements the two routing policies the LiveUpdate scalability
//! experiments use:
//!
//! * [`ShardPolicy::HashByUser`] — stable FNV-1a hash of the sample's table-0 IDs (table 0
//!   plays the role of the user-id table in the synthetic workload), so the same user
//!   always lands on the same replica and per-replica traffic keeps the Zipfian skew;
//! * [`ShardPolicy::RoundRobin`] — strict rotation, so traffic is balanced to within one
//!   request regardless of the ID distribution.
//!
//! Both are pure functions of the sharder state and the sample — no randomness — so a
//! routed run is reproducible from its seed.

use liveupdate_dlrm::sample::Sample;
use serde::{Deserialize, Serialize};

/// How requests are assigned to shards (replicas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardPolicy {
    /// Stable hash of the sample's table-0 (user) IDs.
    HashByUser,
    /// Strict rotation over the shards in stream order.
    RoundRobin,
}

/// Stateful, deterministic request router over a fixed number of shards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamSharder {
    policy: ShardPolicy,
    num_shards: usize,
    next_round_robin: usize,
}

/// FNV-1a over the little-endian bytes of the IDs — stable across runs and platforms
/// (unlike `std`'s `DefaultHasher`, which is randomly keyed).
fn fnv1a(ids: &[usize]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &id in ids {
        for byte in (id as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

impl StreamSharder {
    /// Create a sharder over `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    #[must_use]
    pub fn new(policy: ShardPolicy, num_shards: usize) -> Self {
        assert!(num_shards > 0, "at least one shard is required");
        Self {
            policy,
            num_shards,
            next_round_robin: 0,
        }
    }

    /// Number of shards requests are routed over.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The routing policy.
    #[must_use]
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Stateless hash route of `sample` over `num_shards` — the [`ShardPolicy::HashByUser`]
    /// rule as a free function, so lock-free routers (e.g. the runtime's `Router`) can
    /// apply it from a shared reference.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    #[must_use]
    pub fn hash_route(sample: &Sample, num_shards: usize) -> usize {
        assert!(num_shards > 0, "at least one shard is required");
        let ids = sample.sparse.first().map_or(&[][..], Vec::as_slice);
        (fnv1a(ids) % num_shards as u64) as usize
    }

    /// The shard the next occurrence of `sample` is routed to. Round-robin advances the
    /// rotation; hashing is stateless.
    pub fn shard_of(&mut self, sample: &Sample) -> usize {
        match self.policy {
            ShardPolicy::HashByUser => Self::hash_route(sample, self.num_shards),
            ShardPolicy::RoundRobin => {
                let shard = self.next_round_robin;
                self.next_round_robin = (self.next_round_robin + 1) % self.num_shards;
                shard
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticWorkload, WorkloadConfig};
    use liveupdate_dlrm::sample::MiniBatch;
    use proptest::prelude::*;

    fn batch(n: usize) -> MiniBatch {
        let mut w = SyntheticWorkload::new(WorkloadConfig::default());
        w.batch_at(0.0, n)
    }

    /// The shard of every sample of a batch, in stream order.
    fn routes(s: &mut StreamSharder, b: &MiniBatch) -> Vec<usize> {
        b.iter().map(|sample| s.shard_of(sample)).collect()
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = StreamSharder::new(ShardPolicy::RoundRobin, 0);
    }

    #[test]
    fn hash_routing_is_deterministic_and_stateless() {
        let b = batch(64);
        let mut a = StreamSharder::new(ShardPolicy::HashByUser, 4);
        let mut c = StreamSharder::new(ShardPolicy::HashByUser, 4);
        let first = routes(&mut a, &b);
        assert_eq!(first, routes(&mut c, &b));
        // Stateless: re-routing the same batch gives the same shards.
        assert_eq!(first, routes(&mut a, &b));
        assert!(first.iter().all(|&s| s < 4));
    }

    #[test]
    fn same_user_always_lands_on_same_shard() {
        let mut s = StreamSharder::new(ShardPolicy::HashByUser, 8);
        let mut sample = Sample::new(vec![0.0], vec![vec![42, 7], vec![3]], 0.0);
        let shard = s.shard_of(&sample);
        // Only non-user features change ⇒ the route must not.
        sample.sparse[1] = vec![99];
        sample.dense[0] = 1.0;
        assert_eq!(s.shard_of(&sample), shard);
        // Changing the user IDs is allowed to move the route.
        sample.sparse[0] = vec![43, 7];
        let _ = s.shard_of(&sample); // just must not panic
    }

    #[test]
    fn round_robin_balances_to_within_one() {
        let b = batch(10);
        let mut s = StreamSharder::new(ShardPolicy::RoundRobin, 4);
        let mut sizes = vec![0usize; 4];
        for shard in routes(&mut s, &b) {
            sizes[shard] += 1;
        }
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // The rotation continues across batches.
        assert_eq!(s.shard_of(&b.samples[0]), 2);
    }

    #[test]
    fn single_shard_gets_everything_in_order() {
        let b = batch(16);
        for policy in [ShardPolicy::HashByUser, ShardPolicy::RoundRobin] {
            let mut s = StreamSharder::new(policy, 1);
            assert_eq!(routes(&mut s, &b), vec![0; b.len()]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every route is in range, a fresh sharder replays the same routes, and
        /// round-robin visits the shards in strict rotation.
        #[test]
        fn prop_routes_are_in_range_and_replayable(
            n in 1usize..80,
            num_shards in 1usize..6,
            use_hash in proptest::bool::ANY,
        ) {
            let b = batch(n);
            let policy = if use_hash { ShardPolicy::HashByUser } else { ShardPolicy::RoundRobin };
            let first = routes(&mut StreamSharder::new(policy, num_shards), &b);
            prop_assert_eq!(first.len(), n);
            prop_assert!(first.iter().all(|&shard| shard < num_shards));
            prop_assert_eq!(&first, &routes(&mut StreamSharder::new(policy, num_shards), &b));
            if !use_hash {
                for (i, &shard) in first.iter().enumerate() {
                    prop_assert_eq!(shard, i % num_shards);
                }
            }
        }
    }
}
