//! The single-flight LRU map behind both zone stores: the interval
//! framework's zone inputs ([`crate::algo::streaming::ZoneStorage`]) and
//! the zone-result cache ([`crate::checkpoint::ZoneCache`]).
//!
//! [`SingleFlightLru::acquire`] answers a `u64` key with the resident
//! value (a hit) or with a [`Claim`] to produce it (a miss). Peers that
//! acquire a claimed key block until the claim is published, when they
//! hit, or dropped unpublished, when one of them claims it anew. So a
//! value is produced once however many workers want it at the same time.
//!
//! Completed entries are charged their weight (a function of the value)
//! against a byte budget; past it the least-recently-used entries are
//! evicted. The entry just published is never evicted, so its waiters
//! always wake to a hit, even when it alone is over the budget. Claimed
//! keys are never evicted.

use crate::checkpoint::CacheStats;
// Keyed lookups; eviction picks the unique smallest tick, so iteration
// order never decides anything.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A `u64`-keyed map whose misses are produced once and whose completed
/// entries are evicted LRU against a byte budget.
pub(crate) struct SingleFlightLru<V> {
    max_bytes: usize,
    /// Bytes an entry is charged.
    weigh: fn(&V) -> usize,
    inner: Mutex<Inner<V>>,
    /// Signalled when a claim is published or dropped.
    ready: Condvar,
}

enum Slot<V> {
    Done(V),
    /// A [`Claim`] holder is producing the value.
    Claimed,
}

struct Inner<V> {
    /// Each key's slot and the logical time it was last used.
    #[allow(clippy::disallowed_types)]
    map: HashMap<u64, (Slot<V>, u64)>,
    /// Logical LRU clock, bumped per use.
    tick: u64,
    /// Counters, with `entries` and `bytes` kept equal to the completed
    /// entries and their weight.
    stats: CacheStats,
}

/// What [`SingleFlightLru::acquire`] hands back for a key.
pub(crate) enum Lookup<'a, V> {
    /// The resident value.
    Hit(V),
    /// The caller must produce the value and publish it through the claim.
    Miss(Claim<'a, V>),
}

/// A held miss. Dropping it unpublished (error or unwind) releases the
/// key, so a blocked peer claims it and produces the value itself.
pub(crate) struct Claim<'a, V> {
    store: &'a SingleFlightLru<V>,
    key: u64,
}

impl<V> SingleFlightLru<V> {
    /// An empty store that keeps about `max_bytes` of completed entries,
    /// each charged `weigh(value)` bytes (`usize::MAX` = never evict).
    pub(crate) fn new(max_bytes: usize, weigh: fn(&V) -> usize) -> Self {
        Self {
            max_bytes,
            weigh,
            inner: Mutex::new(Inner {
                #[allow(clippy::disallowed_types)]
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            ready: Condvar::new(),
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    // Every update below leaves the map, ledger and counters whole before
    // it can panic, so a poisoned lock is taken over.
    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores `value` under `key` (claimed or not), then evicts
    /// least-recently-used completed entries, never this one, until the
    /// store fits its budget. Returns the number of entries evicted.
    pub(crate) fn publish(&self, key: u64, value: V) -> u64 {
        let weight = (self.weigh)(&value);
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        let inner = &mut *g;
        match inner.map.insert(key, (Slot::Done(value), tick)) {
            Some((Slot::Done(old), _)) => inner.stats.bytes -= (self.weigh)(&old),
            Some((Slot::Claimed, _)) | None => inner.stats.entries += 1,
        }
        inner.stats.bytes += weight;
        let mut evicted = 0;
        while inner.stats.bytes > self.max_bytes {
            let victim = inner
                .map
                .iter()
                .filter(|(&k, (slot, _))| k != key && matches!(slot, Slot::Done(_)))
                .min_by_key(|(_, (_, used))| *used)
                .map(|(&k, _)| k);
            let Some(k) = victim else { break };
            if let Some((Slot::Done(old), _)) = inner.map.remove(&k) {
                inner.stats.bytes -= (self.weigh)(&old);
                inner.stats.entries -= 1;
                inner.stats.evictions += 1;
                evicted += 1;
            }
        }
        drop(g);
        self.ready.notify_all();
        evicted
    }

    fn abandon(&self, key: u64) {
        let mut g = self.lock();
        if matches!(g.map.get(&key), Some((Slot::Claimed, _))) {
            g.map.remove(&key);
        }
        drop(g);
        self.ready.notify_all();
    }
}

impl<V: Clone> SingleFlightLru<V> {
    /// Looks up `key`: a completed entry is a hit; a claimed key blocks
    /// until its claim is published or dropped; otherwise the caller gets
    /// the claim.
    pub(crate) fn acquire(&self, key: u64) -> Lookup<'_, V> {
        let mut g = self.lock();
        loop {
            g.tick += 1;
            let tick = g.tick;
            let inner = &mut *g;
            match inner.map.get_mut(&key) {
                Some((Slot::Done(value), used)) => {
                    *used = tick;
                    let hit = value.clone();
                    inner.stats.hits += 1;
                    return Lookup::Hit(hit);
                }
                Some((Slot::Claimed, _)) => {
                    g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    inner.map.insert(key, (Slot::Claimed, tick));
                    inner.stats.misses += 1;
                    return Lookup::Miss(Claim { store: self, key });
                }
            }
        }
    }
}

impl<V> Claim<'_, V> {
    /// The claimed key.
    pub(crate) fn key(&self) -> u64 {
        self.key
    }

    /// Publishes the value under the claimed key and releases the claim
    /// ([`SingleFlightLru::publish`]).
    pub(crate) fn publish(self, value: V) -> u64 {
        let evicted = self.store.publish(self.key, value);
        // The key is resolved: skip the abandon in `Drop`.
        std::mem::forget(self);
        evicted
    }
}

impl<V> Drop for Claim<'_, V> {
    fn drop(&mut self) {
        self.store.abandon(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    impl<V> SingleFlightLru<V> {
        /// The completed keys in ascending order, after checking that the
        /// counters match them.
        pub(crate) fn resident(&self) -> Vec<u64> {
            let g = self.lock();
            let mut keys = Vec::new();
            let mut bytes = 0;
            for (&k, (slot, _)) in &g.map {
                if let Slot::Done(v) = slot {
                    keys.push(k);
                    bytes += (self.weigh)(v);
                }
            }
            keys.sort_unstable();
            assert_eq!(g.stats.entries, keys.len(), "entry count drifted");
            assert_eq!(g.stats.bytes, bytes, "byte ledger drifted");
            keys
        }
    }

    /// A store of byte strings charged their length.
    fn store(max_bytes: usize) -> SingleFlightLru<Vec<u8>> {
        SingleFlightLru::new(max_bytes, Vec::len)
    }

    fn is_hit<V>(lookup: &Lookup<'_, V>) -> bool {
        matches!(lookup, Lookup::Hit(_))
    }

    #[test]
    fn an_abandoned_claim_hands_the_key_to_a_waiter() {
        let s = store(usize::MAX);
        // Without a waiter, the key is claimable again, not a hit and not
        // blocking.
        drop(s.acquire(3));
        assert!(!is_hit(&s.acquire(3)), "abandoned key must be claimed anew");

        let Lookup::Miss(claim) = s.acquire(5) else {
            panic!("a cold key must miss")
        };
        let started = Barrier::new(2);
        let got = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                started.wait();
                // Blocks on the claim until it drops; the outcome is the
                // same if the claim is already gone.
                match s.acquire(5) {
                    Lookup::Miss(claim) => claim.publish(vec![9]),
                    Lookup::Hit(_) => panic!("nothing was published"),
                }
            });
            started.wait();
            drop(claim);
            waiter.join().expect("waiter")
        });
        assert_eq!(got, 0, "nothing evicted");
        assert!(is_hit(&s.acquire(5)), "the waiter's value is resident");
        assert_eq!(s.resident(), vec![5], "no claim is left behind");
        let st = s.stats();
        assert_eq!((st.misses, st.evictions), (4, 0));
    }

    #[test]
    fn racing_acquires_produce_once() {
        const THREADS: usize = 8;
        let s = store(usize::MAX);
        let produced = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    match s.acquire(11) {
                        Lookup::Hit(v) => assert_eq!(v, vec![4, 2]),
                        Lookup::Miss(claim) => {
                            produced.fetch_add(1, Ordering::SeqCst);
                            claim.publish(vec![4, 2]);
                        }
                    }
                });
            }
        });
        assert_eq!(
            produced.load(Ordering::SeqCst),
            1,
            "exactly one thread wins the claim; the rest block and hit"
        );
        let st = s.stats();
        assert_eq!((st.misses, st.hits), (1, THREADS as u64 - 1));
    }

    #[test]
    fn eviction_takes_the_least_recently_used_entry() {
        // Room for two of the three entries; the largest, `b`, is the LRU
        // one when `c` lands, and evicting it alone makes room.
        let (a, b, c) = (1, 2, 3);
        let s = store(2 + 3);
        s.publish(a, vec![0; 2]);
        s.publish(b, vec![0; 3]);
        assert!(is_hit(&s.acquire(a)), "touch `a`: `b` is now the LRU entry");
        assert_eq!(s.publish(c, vec![0; 3]), 1, "one eviction");
        assert_eq!(s.resident(), vec![a, c], "only `b` is evicted");
        let st = s.stats();
        assert_eq!((st.entries, st.bytes, st.evictions), (2, 5, 1));
        assert!(is_hit(&s.acquire(a)), "the recently used entry stays");
        assert!(is_hit(&s.acquire(c)), "the new entry stays");
        assert!(!is_hit(&s.acquire(b)), "the LRU entry is gone");
    }

    #[test]
    fn entries_count_the_completed_entries_through_publish_evict_and_abandon() {
        let s = store(8);
        let count = |s: &SingleFlightLru<Vec<u8>>| {
            let held = s.resident().len();
            assert_eq!(s.stats().entries, held);
            held
        };
        let claim = match s.acquire(1) {
            Lookup::Miss(claim) => claim,
            Lookup::Hit(_) => panic!("cold key"),
        };
        assert_eq!(count(&s), 0, "a claim is not an entry");
        claim.publish(vec![0; 4]);
        assert_eq!(count(&s), 1);
        s.publish(2, vec![0; 4]);
        assert_eq!(count(&s), 2);
        s.publish(2, vec![0; 3]);
        assert_eq!(count(&s), 2, "a replaced entry is counted once");
        s.publish(3, vec![0; 4]);
        assert_eq!(count(&s), 2, "one eviction, one new entry");
        drop(s.acquire(4));
        assert_eq!(count(&s), 2, "an abandoned claim leaves no entry");
        s.publish(5, vec![0; 9]);
        assert_eq!(count(&s), 1, "an oversized entry evicts all others");
        assert_eq!(s.stats().evictions, 3);
    }
}
