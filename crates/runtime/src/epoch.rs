//! Epoch-swap publication: lock-free reads of a periodically replaced immutable value.
//!
//! This is the paper's "near-zero overhead" property made literal. The updater thread
//! trains on its own shadow [`ServingNode`](liveupdate::engine::ServingNode) and, once
//! per round, publishes an immutable snapshot by swapping an `Arc` pointer and bumping an
//! epoch counter. Worker threads keep a cached `Arc` to the snapshot they last adopted;
//! their serve hot path is one relaxed-to-acquire atomic load to ask "did the epoch
//! move?" — no lock at all while the answer is no. Only when a new epoch is observed
//! (once per publication per worker, not once per request) does a reader take the slot
//! mutex for the few nanoseconds an `Arc` clone costs. No lock is ever held across
//! training, serving, or snapshot capture.
//!
//! The `(epoch, value)` pair lives together under the slot mutex, so a refresh always
//! adopts a consistent pair; the separate [`AtomicU64`] is only the cheap change
//! detector. Old snapshots are freed by the updater: before each publication it keeps
//! an `Arc` to the value it displaces and drops it once no reader holds it, so a
//! reader's `refresh` only ever decrements a count and never frees a snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The write side: owns the current `(epoch, value)` slot.
#[derive(Debug)]
pub struct EpochPublisher<T> {
    slot: Mutex<(u64, Arc<T>)>,
    epoch: AtomicU64,
    /// When the publisher was created — the zero point of the publish stamps.
    created: Instant,
    /// Microseconds (since `created`) of the most recent publication. Lets any thread
    /// answer "how old is the published snapshot?" — the freshness gauge `epoch_age_us`
    /// — with one relaxed load and no lock.
    published_at_us: AtomicU64,
}

impl<T> EpochPublisher<T> {
    /// Publish `initial` as epoch 0.
    #[must_use]
    pub fn new(initial: T) -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new((0, Arc::new(initial))),
            epoch: AtomicU64::new(0),
            created: Instant::now(),
            published_at_us: AtomicU64::new(0),
        })
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.created.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Replace the published value, returning the new epoch. The slot lock is held only
    /// for the pointer exchange — never across the construction of `value`.
    pub fn publish(&self, value: T) -> u64 {
        let mut slot = self.slot.lock().expect("epoch slot poisoned");
        let next = slot.0 + 1;
        *slot = (next, Arc::new(value));
        // ORDERING: Release pairs with the Acquire load in `publish_age_us`, so a
        // thread that observes the new timestamp also observes everything written
        // before this publication.
        self.published_at_us.store(self.now_us(), Ordering::Release);
        // Publish the change detector while still holding the lock, so a reader that
        // sees the new epoch and then locks the slot can never find an older pair.
        // ORDERING: Release pairs with the Acquire loads in `epoch`/`refresh`; a reader
        // that sees `next` is guaranteed to find at least this `(epoch, value)` pair
        // behind the slot lock — the happens-before edge of the publication protocol.
        self.epoch.store(next, Ordering::Release);
        next
    }

    /// Age of the current publication in microseconds: how long the serving snapshot
    /// has gone without replacement. This is the paper's freshness metric as a live
    /// number; one relaxed load, safe to call from any thread at any rate.
    #[must_use]
    pub fn publish_age_us(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release store in `publish`; the timestamp
        // read here is never newer than the publication it describes.
        let published_at = self.published_at_us.load(Ordering::Acquire);
        self.now_us().saturating_sub(published_at)
    }

    /// The current epoch and its [`publish_age_us`](Self::publish_age_us), read
    /// together under the slot lock: `publish` writes both while holding it, so the
    /// age always belongs to the epoch it is paired with.
    #[must_use]
    pub fn epoch_and_age_us(&self) -> (u64, u64) {
        let slot = self.slot.lock().expect("epoch slot poisoned");
        (slot.0, self.publish_age_us())
    }

    /// The most recently published epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release store in `publish`; observing epoch
        // N here makes the N-th slot contents visible to a subsequent `load`.
        self.epoch.load(Ordering::Acquire)
    }

    /// Snapshot the current `(epoch, value)` pair (takes the slot lock briefly).
    #[must_use]
    pub fn load(&self) -> (u64, Arc<T>) {
        let slot = self.slot.lock().expect("epoch slot poisoned");
        (slot.0, Arc::clone(&slot.1))
    }

    /// Create a reader starting from the currently published value.
    #[must_use]
    pub fn reader(self: &Arc<Self>) -> EpochReader<T> {
        let (epoch, value) = self.load();
        EpochReader {
            publisher: Arc::clone(self),
            cached_epoch: epoch,
            cached: value,
            refreshes: 0,
        }
    }
}

/// The read side: one per worker thread. Holds a cached `Arc` to the last adopted
/// snapshot; [`EpochReader::refresh`] is the only point of contact with the publisher.
#[derive(Debug)]
pub struct EpochReader<T> {
    publisher: Arc<EpochPublisher<T>>,
    cached_epoch: u64,
    cached: Arc<T>,
    refreshes: u64,
}

impl<T> EpochReader<T> {
    /// Adopt the latest publication if the epoch moved. Returns `true` when a newer
    /// snapshot was adopted. The fast path (no new epoch) is a single atomic load.
    pub fn refresh(&mut self) -> bool {
        // ORDERING: Acquire pairs with the Release store in `publish`; a changed epoch
        // guarantees the slot behind the lock already holds the pair for that epoch
        // (or newer), so the `load` below can never adopt a stale value.
        if self.publisher.epoch.load(Ordering::Acquire) == self.cached_epoch {
            return false;
        }
        let (epoch, value) = self.publisher.load();
        debug_assert!(epoch >= self.cached_epoch, "epochs never move backwards");
        let adopted = epoch != self.cached_epoch;
        self.cached_epoch = epoch;
        self.cached = value;
        if adopted {
            self.refreshes += 1;
        }
        adopted
    }

    /// The currently adopted snapshot. Never blocks, never touches shared state.
    #[must_use]
    pub fn get(&self) -> &Arc<T> {
        &self.cached
    }

    /// Epoch of the currently adopted snapshot.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.cached_epoch
    }

    /// How many times this reader adopted a newer publication.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Age of the publisher's *current* publication (see
    /// [`EpochPublisher::publish_age_us`]). Immediately after a [`Self::refresh`] that
    /// adopted, this is the publication-to-first-serve lag of the adopted snapshot.
    #[must_use]
    pub fn publish_age_us(&self) -> u64 {
        self.publisher.publish_age_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn initial_value_is_epoch_zero() {
        let p = EpochPublisher::new(41);
        assert_eq!(p.epoch(), 0);
        let (e, v) = p.load();
        assert_eq!((e, *v), (0, 41));
        let r = p.reader();
        assert_eq!(r.epoch(), 0);
        assert_eq!(**r.get(), 41);
    }

    #[test]
    fn publish_bumps_epoch_and_readers_adopt_lazily() {
        let p = EpochPublisher::new(0);
        let mut r = p.reader();
        assert!(!r.refresh(), "no publication yet");
        assert_eq!(p.publish(1), 1);
        assert_eq!(p.publish(2), 2);
        // The reader skips straight to the newest value, counting one adoption.
        assert!(r.refresh());
        assert_eq!((**r.get(), r.epoch(), r.refreshes()), (2, 2, 1));
        assert!(!r.refresh(), "already current");
    }

    #[test]
    fn old_snapshots_survive_while_a_reader_holds_them() {
        let p = EpochPublisher::new(String::from("old"));
        let r = p.reader();
        p.publish(String::from("new"));
        // The reader never refreshed: it still serves the old value, un-freed.
        assert_eq!(r.get().as_str(), "old");
        assert_eq!(p.load().1.as_str(), "new");
    }

    #[test]
    fn concurrent_readers_see_consistent_pairs() {
        // Publish (i, i) pairs; readers must never observe a pair whose halves disagree.
        let p = EpochPublisher::new((0u64, 0u64));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let mut reader = p.reader();
            handles.push(thread::spawn(move || {
                let mut last_epoch = 0;
                for _ in 0..20_000 {
                    reader.refresh();
                    let v = reader.get();
                    assert_eq!(v.0, v.1, "torn pair observed");
                    assert!(reader.epoch() >= last_epoch, "epoch went backwards");
                    last_epoch = reader.epoch();
                }
                last_epoch
            }));
        }
        for i in 1..=500u64 {
            p.publish((i, i));
        }
        for h in handles {
            let final_epoch = h.join().expect("reader panicked");
            assert!(final_epoch <= 500);
        }
        assert_eq!(p.epoch(), 500);
    }

    #[test]
    fn epoch_and_age_pair_up_under_concurrent_publication() {
        // A scraper reads (epoch, age) while a publisher swaps epochs. Each sample's
        // implied publish time, now − age, must fall inside the window in which that
        // epoch's stamp was taken; an age left over from the previous epoch falls
        // before it.
        const EPOCHS: u64 = 200;
        let p = EpochPublisher::new(0u64);
        let scraper = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                let mut samples = Vec::new();
                while p.epoch() < EPOCHS {
                    let before = p.now_us();
                    let (epoch, age) = p.epoch_and_age_us();
                    samples.push((epoch, before, p.now_us(), age));
                }
                samples
            })
        };
        // windows[e] = clock range in which epoch e's publish stamp was taken. The
        // sleep only spaces the stamps apart so that a stale age is detectable; the
        // check holds for every interleaving.
        let mut windows = vec![(0, 0)];
        for e in 1..=EPOCHS {
            thread::sleep(std::time::Duration::from_micros(100));
            let before = p.now_us();
            p.publish(e);
            windows.push((before, p.now_us()));
        }
        let samples = scraper.join().expect("scraper panicked");
        assert!(!samples.is_empty());
        for (epoch, before, after, age) in samples {
            let (stamp_lo, stamp_hi) = windows[epoch as usize];
            // The age was computed at some instant in [before, after].
            assert!(
                before.saturating_sub(age) <= stamp_hi && after.saturating_sub(age) >= stamp_lo,
                "epoch {epoch} paired with age {age} µs read in [{before}, {after}], \
                 but it was published in [{stamp_lo}, {stamp_hi}]"
            );
        }
    }
}
