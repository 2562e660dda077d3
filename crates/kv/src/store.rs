//! The versioned key-value store: one ordered map under one lock.

// Every P read on the exec spine goes through here: no panicking reads.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;

/// Versions retained per key, the latest included. When a chain grows past
/// this bound its oldest versions are pruned.
const MAX_VERSIONS: usize = 64;

/// One version of a key's value.
///
/// `value == None` marks a tombstone: the key was deleted at this version.
/// Tombstones stay in the chain, so the versions before a delete stay
/// addressable.
///
/// A stored value is immutable and shared: every read hands out another
/// pointer to the allocation the write stored, never a copy of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue<V> {
    /// Per-key version number, starting at 1 and increasing by 1 per write.
    pub version: u64,
    /// Global sequence number the write was assigned; orders writes across
    /// keys (a durability log records it).
    pub seq: u64,
    /// The written value, or `None` for a tombstone.
    pub value: Option<Arc<V>>,
}

/// A key's version chain. It exists from the key's first write on, so it
/// always has a latest version; `older` holds the retained rest, oldest
/// first.
#[derive(Debug)]
struct Chain<V> {
    older: Vec<VersionedValue<V>>,
    latest: VersionedValue<V>,
}

impl<V> Chain<V> {
    fn live(&self) -> Option<&Arc<V>> {
        self.latest.value.as_ref()
    }
}

struct Inner<V> {
    keys: BTreeMap<String, Chain<V>>,
    /// Next global sequence number to hand out.
    next_seq: u64,
}

impl<V> Inner<V> {
    /// Append a version (a tombstone when `value` is `None`) to `key`'s
    /// chain, pruning the oldest versions past [`MAX_VERSIONS`]. Returns the
    /// new per-key version number.
    fn push(&mut self, key: String, value: Option<Arc<V>>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.keys.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(Chain {
                    older: Vec::new(),
                    latest: VersionedValue {
                        version: 1,
                        seq,
                        value,
                    },
                });
                1
            }
            Entry::Occupied(slot) => {
                let chain = slot.into_mut();
                let version = chain.latest.version + 1;
                let next = VersionedValue {
                    version,
                    seq,
                    value,
                };
                chain.older.push(std::mem::replace(&mut chain.latest, next));
                let excess = (chain.older.len() + 1).saturating_sub(MAX_VERSIONS);
                chain.older.drain(..excess);
                version
            }
        }
    }

    fn live(&self) -> impl Iterator<Item = (&String, &Arc<V>)> {
        self.keys
            .iter()
            .filter_map(|(k, c)| c.live().map(|v| (k, v)))
    }
}

/// Concurrent, versioned key-value store.
///
/// Cloning a `KvStore` is cheap and yields a handle to the same underlying
/// store (it is internally `Arc`ed), so it can be shared freely across the
/// SPEAR runtime, optimizer, and benchmark threads.
pub struct KvStore<V> {
    inner: Arc<RwLock<Inner<V>>>,
}

impl<V> Clone for KvStore<V> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: Clone> Default for KvStore<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> KvStore<V> {
    /// Create an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(RwLock::new(Inner {
                keys: BTreeMap::new(),
                next_seq: 1,
            })),
        }
    }

    /// Write `value` under `key`, returning the new per-key version number.
    /// A value that is already shared (`Arc<V>`) is stored as that pointer.
    pub fn put(&self, key: impl Into<String>, value: impl Into<Arc<V>>) -> u64 {
        self.inner.write().push(key.into(), Some(value.into()))
    }

    /// Read the latest live value of `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        self.inner
            .read()
            .keys
            .get(key)
            .and_then(Chain::live)
            .cloned()
    }

    /// Read the latest entry of `key` with its version metadata. Returns a
    /// tombstone entry (with `value: None`) if the key was deleted.
    #[must_use]
    pub fn get_versioned(&self, key: &str) -> Option<VersionedValue<V>> {
        self.inner.read().keys.get(key).map(|c| c.latest.clone())
    }

    /// Read a specific retained version of `key`.
    #[must_use]
    pub fn get_version(&self, key: &str, version: u64) -> Option<Arc<V>> {
        let inner = self.inner.read();
        let chain = inner.keys.get(key)?;
        std::iter::once(&chain.latest)
            .chain(&chain.older)
            .find(|v| v.version == version)
            .and_then(|v| v.value.clone())
    }

    /// All retained versions of `key`, oldest first (tombstones included).
    #[must_use]
    pub fn history(&self, key: &str) -> Vec<VersionedValue<V>> {
        self.inner.read().keys.get(key).map_or_else(Vec::new, |c| {
            let mut versions = c.older.clone();
            versions.push(c.latest.clone());
            versions
        })
    }

    /// Delete `key` by writing a tombstone. Returns `true` if the key was
    /// live before the call.
    pub fn delete(&self, key: &str) -> bool {
        let mut inner = self.inner.write();
        if inner.keys.get(key).and_then(Chain::live).is_none() {
            return false; // absent or already deleted
        }
        inner.push(key.to_string(), None);
        true
    }

    /// Whether `key` currently has a live (non-deleted) value.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.inner
            .read()
            .keys
            .get(key)
            .is_some_and(|c| c.live().is_some())
    }

    /// Number of live keys. O(keys); intended for tests and diagnostics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.read().live().count()
    }

    /// Whether the store holds no live keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live keys, sorted.
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.inner.read().live().map(|(k, _)| k.clone()).collect()
    }

    /// Live `(key, value)` pairs whose key starts with `prefix`, sorted by
    /// key.
    #[must_use]
    pub fn prefix_scan(&self, prefix: &str) -> Vec<(String, Arc<V>)> {
        self.inner
            .read()
            .keys
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, c)| c.live().map(|v| (k.clone(), Arc::clone(v))))
            .collect()
    }
}

impl<V: Clone + std::fmt::Debug> std::fmt::Debug for KvStore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("live_keys", &self.len())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s: KvStore<i64> = KvStore::new();
        assert_eq!(s.put("a", 1), 1);
        assert_eq!(s.put("a", 2), 2);
        assert_eq!(s.get("a").as_deref(), Some(&2));
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn versions_are_retained_and_addressable() {
        let s: KvStore<&str> = KvStore::new();
        s.put("k", "one");
        s.put("k", "two");
        s.put("k", "three");
        assert_eq!(s.get_version("k", 1).as_deref(), Some(&"one"));
        assert_eq!(s.get_version("k", 2).as_deref(), Some(&"two"));
        assert_eq!(s.get_version("k", 3).as_deref(), Some(&"three"));
        assert_eq!(s.get_version("k", 4), None);
        assert_eq!(s.history("k").len(), 3);
    }

    #[test]
    fn delete_writes_tombstone_but_preserves_history() {
        let s: KvStore<i32> = KvStore::new();
        s.put("k", 10);
        assert!(s.delete("k"));
        assert!(!s.delete("k"), "double delete is a no-op");
        assert_eq!(s.get("k"), None);
        assert!(!s.contains("k"));
        assert_eq!(
            s.get_version("k", 1).as_deref(),
            Some(&10),
            "history survives delete"
        );
        // A put after delete resurrects the key at the next version.
        assert_eq!(s.put("k", 20), 3);
        assert_eq!(s.get("k").as_deref(), Some(&20));
    }

    #[test]
    fn delete_missing_key_is_false() {
        let s: KvStore<i32> = KvStore::new();
        assert!(!s.delete("nope"));
    }

    #[test]
    fn prefix_scan_is_sorted_and_filtered() {
        let s: KvStore<i32> = KvStore::new();
        s.put("prompt/qa", 1);
        s.put("prompt/summary", 2);
        s.put("ctx/answer", 3);
        s.put("prompt/deleted", 4);
        s.delete("prompt/deleted");
        let hits = s.prefix_scan("prompt/");
        assert_eq!(
            hits,
            vec![
                ("prompt/qa".to_string(), Arc::new(1)),
                ("prompt/summary".to_string(), Arc::new(2))
            ]
        );
        assert!(s.prefix_scan("nothing/").is_empty());
    }

    #[test]
    fn len_and_keys_track_live_keys_only() {
        let s: KvStore<i32> = KvStore::new();
        assert!(s.is_empty());
        s.put("b", 2);
        s.put("a", 1);
        s.put("c", 3);
        s.delete("a");
        assert_eq!(s.len(), 2);
        assert_eq!(s.keys(), vec!["b".to_string(), "c".to_string()]);
        assert!(!s.is_empty());
    }

    #[test]
    fn version_pruning_bounds_chain_length() {
        let s: KvStore<u64> = KvStore::new();
        let writes = MAX_VERSIONS as u64 + 10;
        for i in 0..writes {
            s.put("k", i);
        }
        let hist = s.history("k");
        assert_eq!(hist.len(), MAX_VERSIONS);
        assert_eq!(hist[0].version, 11);
        assert_eq!(s.get("k").as_deref(), Some(&(writes - 1)));
        assert_eq!(s.get_version("k", 1), None, "pruned version is gone");
    }

    #[test]
    fn seq_orders_writes_across_keys() {
        let s: KvStore<i32> = KvStore::new();
        s.put("a", 1);
        s.put("b", 2);
        s.delete("a");
        let seq = |k: &str| s.get_versioned(k).unwrap().seq;
        assert_eq!((s.history("a")[0].seq, seq("b"), seq("a")), (1, 2, 3));
    }

    #[test]
    fn clones_share_state() {
        let a: KvStore<i32> = KvStore::new();
        let b = a.clone();
        a.put("k", 7);
        assert_eq!(b.get("k").as_deref(), Some(&7));
    }

    #[test]
    fn concurrent_writers_produce_distinct_versions() {
        let s: KvStore<usize> = KvStore::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        s.put("shared", t * 1000 + i);
                        s.put(format!("own-{t}"), i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 8 threads * 100 writes to "shared" => version 800 (pruned chain,
        // but the version counter keeps increasing monotonically).
        assert_eq!(s.get_versioned("shared").unwrap().version, 800);
        assert_eq!(s.len(), 9);
        // Every write took its own sequence number.
        let max_seq = s
            .keys()
            .iter()
            .map(|k| s.get_versioned(k).unwrap().seq)
            .max();
        assert_eq!(max_seq, Some(1600));
    }
}
