//! The ordered eviction index shared by this crate's bounded structures:
//! the radix block tree (`tree.rs`) under [`crate::pool::BlockPool`] and
//! [`crate::cache::PrefixCache`], [`crate::memo::GenMemo`] and
//! [`crate::intern::TokenInterner`].
//!
//! Each structure keeps its *currently evictable* entries in an
//! [`LruIndex`] keyed `(last_used, id)` and updates it wherever an entry
//! becomes evictable, stops being evictable, or is touched. The victim is
//! then the smallest key — least recently used, ties broken by the smaller
//! id — found in O(log n) instead of by scanning every entry, and the same
//! way in all of them.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

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
