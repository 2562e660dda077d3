//! The two LRU cores of the workspace's bounded caches; both evict the
//! least recently used entry in O(log n), without a scan.
//!
//! - [`LruMap`], a whole bounded map with counters: one per shard of
//!   [`crate::intern::TokenInterner`] and [`crate::memo::GenMemo`], and
//!   one in `spear-serve`'s `ProgramCache`.
//! - [`LruIndex`], only the `(last_used, id)` order, for the block tree
//!   (`tree.rs`), where all blocks of a chain share one tick.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

/// Evictable entries ordered by `(last_used, id)`.
#[derive(Debug, Default)]
pub(crate) struct LruIndex {
    entries: BTreeSet<(u64, u64)>,
}

impl LruIndex {
    /// Add `id`, last touched at `last_used`.
    pub(crate) fn insert(&mut self, last_used: u64, id: u64) {
        let fresh = self.entries.insert((last_used, id));
        debug_assert!(fresh, "entry {id} indexed twice");
    }

    /// Drop `id`, which was indexed at `last_used`.
    pub(crate) fn remove(&mut self, last_used: u64, id: u64) {
        let present = self.entries.remove(&(last_used, id));
        debug_assert!(present, "entry {id} was not indexed at {last_used}");
    }

    /// Move `id` from `old` to `new` recency.
    pub(crate) fn touch(&mut self, id: u64, old: u64, new: u64) {
        self.remove(old, id);
        self.insert(new, id);
    }

    /// Remove and return the least recently used id.
    pub(crate) fn pop_lru(&mut self) -> Option<u64> {
        self.entries.pop_first().map(|(_, id)| id)
    }

    /// Number of evictable entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Forget every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// The indexed `(last_used, id)` keys in eviction order.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().copied()
    }
}

/// Counters of one [`LruMap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// [`LruMap::get`] calls that found their key.
    pub hits: u64,
    /// [`LruMap::get`] calls that did not.
    pub misses: u64,
    /// Entries added by [`LruMap::insert`].
    pub insertions: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

/// A map of at most `capacity` entries that evicts its least recently used
/// one to make room. Every touch (a [`get`](Self::get) hit, an
/// [`insert`](Self::insert)) takes a fresh tick, so recency has no ties.
/// Not synchronized: a shared cache keeps it under its own lock.
#[derive(Debug)]
pub struct LruMap<K, V> {
    entries: HashMap<K, (V, u64)>,
    /// `last_used -> key` for every entry; the first is the victim.
    recency: BTreeMap<u64, K>,
    capacity: usize,
    tick: u64,
    stats: LruStats,
}

impl<K: Clone + Eq + Hash, V> LruMap<K, V> {
    /// An empty map bounded at `capacity` entries (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            stats: LruStats::default(),
        }
    }

    /// The entry bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters since construction or the last `take_stats`.
    #[must_use]
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// The counters, reset to zero.
    pub fn take_stats(&mut self) -> LruStats {
        std::mem::take(&mut self.stats)
    }

    /// Look `key` up, making it the most recently used entry on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.entries.get_mut(key) {
            Some((value, last_used)) => {
                self.tick += 1;
                Self::touch(&mut self.recency, last_used, self.tick);
                self.stats.hits += 1;
                Some(value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Add `value` under `key`, first evicting the least recently used
    /// entry if the map is full, and return that victim. An entry already
    /// resident under `key` is kept — `value` is dropped — and only
    /// becomes the most recently used.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, last_used)) = self.entries.get_mut(&key) {
            Self::touch(&mut self.recency, last_used, tick);
            return None;
        }
        // Never above `capacity`, so one eviction makes room.
        let mut victim = None;
        if self.entries.len() >= self.capacity {
            if let Some((_, lru)) = self.recency.pop_first() {
                victim = self.entries.remove_entry(&lru).map(|(k, (v, _))| (k, v));
                self.stats.evictions += 1;
            }
        }
        self.recency.insert(tick, key.clone());
        self.entries.insert(key, (value, tick));
        self.stats.insertions += 1;
        victim
    }

    /// Read `key`'s entry without touching it or counting a lookup.
    #[cfg(test)]
    pub(crate) fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(value, _)| value)
    }

    fn touch(recency: &mut BTreeMap<u64, K>, last_used: &mut u64, tick: u64) {
        if let Some(key) = recency.remove(last_used) {
            recency.insert(tick, key);
        }
        *last_used = tick;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan-based bounded map [`LruMap`] replaced: one map of
    /// `(value, last_used)` and an eviction that scans every entry for the
    /// smallest `last_used`.
    struct NaiveLruMap<K, V> {
        map: HashMap<K, (V, u64)>,
        capacity: usize,
        tick: u64,
        stats: LruStats,
    }

    impl<K: Clone + Eq + Hash, V> NaiveLruMap<K, V> {
        fn new(capacity: usize) -> Self {
            Self {
                map: HashMap::new(),
                capacity: capacity.max(1),
                tick: 0,
                stats: LruStats::default(),
            }
        }

        fn len(&self) -> usize {
            self.map.len()
        }

        fn get(&mut self, key: &K) -> Option<&V> {
            let Some((value, last_used)) = self.map.get_mut(key) else {
                self.stats.misses += 1;
                return None;
            };
            self.tick += 1;
            *last_used = self.tick;
            self.stats.hits += 1;
            Some(value)
        }

        fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
            self.tick += 1;
            if let Some((_, last_used)) = self.map.get_mut(&key) {
                *last_used = self.tick;
                return None;
            }
            self.map.insert(key, (value, self.tick));
            self.stats.insertions += 1;
            if self.map.len() <= self.capacity {
                return None;
            }
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())?;
            let (value, _) = self.map.remove(&victim)?;
            self.stats.evictions += 1;
            Some((victim, value))
        }
    }

    #[test]
    fn get_refreshes_recency() {
        let mut map = LruMap::new(2);
        assert!(map.insert(1, "a").is_none());
        assert!(map.insert(2, "b").is_none());
        assert_eq!(map.get(&1), Some(&"a"));
        assert_eq!(map.insert(3, "c"), Some((2, "b")), "2 was least recent");
        assert_eq!(map.get(&2), None);
        let stats = map.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.insertions, stats.evictions),
            (1, 1, 3, 1)
        );
    }

    #[test]
    fn reinsert_keeps_the_resident_value_and_refreshes_it() {
        let mut map = LruMap::new(2);
        map.insert(1, "a");
        map.insert(2, "b");
        assert!(map.insert(1, "other").is_none());
        assert_eq!(map.peek(&1), Some(&"a"), "the resident value is kept");
        assert_eq!(map.insert(3, "c"), Some((2, "b")), "1 was refreshed");
        assert_eq!(map.stats().insertions, 3);
    }

    #[test]
    fn take_stats_resets_the_counters() {
        let mut map = LruMap::new(0);
        assert_eq!(map.capacity(), 1, "capacity clamps to one");
        map.insert(1, ());
        map.insert(2, ());
        let _ = map.get(&2);
        let taken = map.take_stats();
        assert_eq!((taken.hits, taken.insertions, taken.evictions), (1, 2, 1));
        assert_eq!(map.stats(), LruStats::default());
        assert_eq!(map.len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential: after every `get` or `insert` over a small key
        /// set, the ordered map agrees with the scan-based reference on
        /// hit or miss, the victim, the length and every counter.
        #[test]
        fn matches_the_scan_based_reference(
            capacity in 1usize..8,
            ops in proptest::collection::vec((any::<bool>(), 0u8..10, any::<u16>()), 1..120),
        ) {
            let mut map = LruMap::new(capacity);
            let mut naive = NaiveLruMap::new(capacity);
            for (step, &(is_get, key, value)) in ops.iter().enumerate() {
                if is_get {
                    prop_assert_eq!(map.get(&key), naive.get(&key), "step {} get {}", step, key);
                } else {
                    prop_assert_eq!(
                        map.insert(key, value),
                        naive.insert(key, value),
                        "step {} insert {}",
                        step,
                        key
                    );
                }
                prop_assert_eq!(map.len(), naive.len(), "step {}", step);
                prop_assert_eq!(map.stats(), naive.stats, "step {}", step);
                prop_assert!(map.len() <= capacity);
            }
        }
    }
}
