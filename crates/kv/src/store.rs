//! The sharded, versioned key-value store.

// Every P read on the exec spine goes through here: no panicking reads.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{KvError, Result};
use crate::shard::{shard_for, DEFAULT_SHARDS};
use crate::snapshot::Snapshot;
use crate::stats::{StatsSnapshot, StoreStats};

/// One version of a key's value.
///
/// `value == None` marks a tombstone: the key was deleted at this version.
/// Tombstones stay in the chain so snapshots taken before the delete still
/// see the prior value.
///
/// A stored value is immutable and shared: every read hands out another
/// pointer to the allocation the write stored, never a copy of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue<V> {
    /// Per-key version number, starting at 1 and increasing by 1 per write.
    pub version: u64,
    /// Global sequence number the write was assigned; orders writes across
    /// keys and drives snapshot visibility.
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

    /// Retained versions, newest first.
    fn newest_first(&self) -> impl Iterator<Item = &VersionedValue<V>> {
        std::iter::once(&self.latest).chain(self.older.iter().rev())
    }

    /// Latest version whose seq is `<= seq_bound` (for snapshot reads).
    fn visible_at(&self, seq_bound: u64) -> Option<&VersionedValue<V>> {
        self.newest_first().find(|v| v.seq <= seq_bound)
    }
}

type ShardMap<V> = BTreeMap<String, Chain<V>>;

pub(crate) struct Inner<V> {
    shards: Vec<RwLock<ShardMap<V>>>,
    /// Next global sequence number to hand out. Sequence numbers are
    /// allocated while holding the target shard's write lock, which makes
    /// snapshot reads (at `seq <= snapshot.seq`) consistent: a snapshot can
    /// never observe a sequence number whose write has not landed.
    next_seq: AtomicU64,
    stats: StoreStats,
    max_versions: usize,
}

/// Configures and constructs a [`KvStore`].
#[derive(Debug, Clone)]
pub struct KvStoreBuilder {
    shards: usize,
    max_versions: usize,
}

impl Default for KvStoreBuilder {
    fn default() -> Self {
        Self {
            shards: DEFAULT_SHARDS,
            max_versions: 64,
        }
    }
}

impl KvStoreBuilder {
    /// Number of lock-striped shards (must be ≥ 1).
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Maximum retained versions per key (must be ≥ 1). When a chain grows
    /// past this bound its oldest versions are pruned.
    #[must_use]
    pub fn max_versions(mut self, n: usize) -> Self {
        self.max_versions = n.max(1);
        self
    }

    /// Build the store.
    #[must_use]
    pub fn build<V: Clone>(self) -> KvStore<V> {
        let shards = (0..self.shards)
            .map(|_| RwLock::new(BTreeMap::new()))
            .collect();
        KvStore {
            inner: Arc::new(Inner {
                shards,
                next_seq: AtomicU64::new(1),
                stats: StoreStats::default(),
                max_versions: self.max_versions,
            }),
        }
    }
}

/// Sharded, concurrent, versioned key-value store.
///
/// Cloning a `KvStore` is cheap and yields a handle to the same underlying
/// store (it is internally `Arc`ed), so it can be shared freely across the
/// SPEAR runtime, optimizer, and benchmark threads.
pub struct KvStore<V> {
    inner: Arc<Inner<V>>,
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
    /// Create a store with default sharding (16 shards, 64 versions/key).
    #[must_use]
    pub fn new() -> Self {
        KvStoreBuilder::default().build()
    }

    /// Start configuring a store.
    #[must_use]
    pub fn builder() -> KvStoreBuilder {
        KvStoreBuilder::default()
    }

    fn shard(&self, key: &str) -> &RwLock<ShardMap<V>> {
        &self.inner.shards[shard_for(key, self.inner.shards.len())]
    }

    /// Write `value` under `key`, returning the new per-key version number.
    /// A value that is already shared (`Arc<V>`) is stored as that pointer.
    pub fn put(&self, key: impl Into<String>, value: impl Into<Arc<V>>) -> u64 {
        let key = key.into();
        let mut shard = self.shard(&key).write();
        let version = self.push(&mut shard, key, Some(value.into()));
        self.inner.stats.record_write();
        version
    }

    /// Compare-and-swap: write `value` only if the key's current version is
    /// `expected` (use `0` for "key must not exist or be deleted").
    ///
    /// # Errors
    ///
    /// Returns [`KvError::VersionConflict`] when the current version differs.
    pub fn put_cas(
        &self,
        key: impl Into<String>,
        expected: u64,
        value: impl Into<Arc<V>>,
    ) -> Result<u64> {
        let key = key.into();
        let mut shard = self.shard(&key).write();
        let current = shard
            .get(&key)
            .filter(|c| c.live().is_some())
            .map_or(0, |c| c.latest.version);
        if current != expected {
            self.inner.stats.record_cas_failure();
            return Err(KvError::VersionConflict {
                key,
                expected,
                found: current,
            });
        }
        let version = self.push(&mut shard, key, Some(value.into()));
        self.inner.stats.record_write();
        Ok(version)
    }

    /// Append a version (a tombstone when `value` is `None`) to `key`'s
    /// chain under the shard's write lock, pruning the oldest versions past
    /// the retention bound. Returns the new per-key version number.
    fn push(&self, shard: &mut ShardMap<V>, key: String, value: Option<Arc<V>>) -> u64 {
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        match shard.entry(key) {
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
                // `max_versions >= 1` counts the latest version too.
                let excess = (chain.older.len() + 1).saturating_sub(self.inner.max_versions);
                chain.older.drain(..excess);
                version
            }
        }
    }

    /// Read the latest live value of `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let shard = self.shard(key).read();
        let out = shard.get(key).and_then(Chain::live).cloned();
        self.inner.stats.record_read(out.is_some());
        out
    }

    /// Read the latest entry of `key` with its version metadata. Returns a
    /// tombstone entry (with `value: None`) if the key was deleted.
    #[must_use]
    pub fn get_versioned(&self, key: &str) -> Option<VersionedValue<V>> {
        let shard = self.shard(key).read();
        let out = shard.get(key).map(|c| c.latest.clone());
        self.inner
            .stats
            .record_read(out.as_ref().is_some_and(|v| v.value.is_some()));
        out
    }

    /// Read a specific retained version of `key`.
    #[must_use]
    pub fn get_version(&self, key: &str, version: u64) -> Option<Arc<V>> {
        let shard = self.shard(key).read();
        let out = shard.get(key).and_then(|c| {
            c.newest_first()
                .find(|v| v.version == version)
                .and_then(|v| v.value.clone())
        });
        self.inner.stats.record_read(out.is_some());
        out
    }

    /// All retained versions of `key`, oldest first (tombstones included).
    #[must_use]
    pub fn history(&self, key: &str) -> Vec<VersionedValue<V>> {
        self.shard(key).read().get(key).map_or_else(Vec::new, |c| {
            let mut versions = c.older.clone();
            versions.push(c.latest.clone());
            versions
        })
    }

    /// Delete `key` by writing a tombstone. Returns `true` if the key was
    /// live before the call.
    pub fn delete(&self, key: &str) -> bool {
        let mut shard = self.shard(key).write();
        if shard.get(key).and_then(Chain::live).is_none() {
            return false; // absent or already deleted
        }
        self.push(&mut shard, key.to_string(), None);
        self.inner.stats.record_delete();
        true
    }

    /// Whether `key` currently has a live (non-deleted) value.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.shard(key)
            .read()
            .get(key)
            .is_some_and(|c| c.live().is_some())
    }

    /// Number of live keys. O(keys); intended for tests and diagnostics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().values().filter(|c| c.live().is_some()).count())
            .sum()
    }

    /// Whether the store holds no live keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live keys, sorted.
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .inner
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .filter(|(_, c)| c.live().is_some())
                    .map(|(k, _)| k.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Live `(key, value)` pairs whose key starts with `prefix`, sorted by
    /// key. Shards keep ordered maps, so each shard contributes a contiguous
    /// range; results are merged and sorted across shards.
    #[must_use]
    pub fn prefix_scan(&self, prefix: &str) -> Vec<(String, Arc<V>)> {
        let mut out: Vec<(String, Arc<V>)> = self
            .inner
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .range(prefix.to_string()..)
                    .take_while(|(k, _)| k.starts_with(prefix))
                    .filter_map(|(k, c)| c.live().map(|v| (k.clone(), Arc::clone(v))))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Take a consistent point-in-time snapshot. The snapshot sees exactly
    /// the writes with sequence number `<` the snapshot's bound; later writes
    /// and deletes are invisible to it.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot<V> {
        // `next_seq` is the next seq to be handed out; everything below it
        // has already been inserted (allocation happens under the shard
        // write lock).
        let bound = self
            .inner
            .next_seq
            .load(Ordering::Relaxed)
            .saturating_sub(1);
        Snapshot::new(Arc::clone(&self.inner), bound)
    }

    /// Current operation counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Remove every key and its history. Sequence numbers keep advancing, so
    /// snapshots taken before `clear` are invalidated (they will see nothing).
    pub fn clear(&self) {
        for s in &self.inner.shards {
            s.write().clear();
        }
    }
}

impl<V: Clone> Inner<V> {
    pub(crate) fn read_at(&self, key: &str, seq_bound: u64) -> Option<Arc<V>> {
        let shard = &self.shards[shard_for(key, self.shards.len())];
        shard
            .read()
            .get(key)
            .and_then(|c| c.visible_at(seq_bound))
            .and_then(|v| v.value.clone())
    }

    pub(crate) fn keys_at(&self, seq_bound: u64) -> Vec<String> {
        let mut keys: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .filter(|(_, c)| c.visible_at(seq_bound).is_some_and(|v| v.value.is_some()))
                    .map(|(k, _)| k.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }
}

impl<V: Clone + std::fmt::Debug> std::fmt::Debug for KvStore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("shards", &self.inner.shards.len())
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
    fn cas_succeeds_only_on_matching_version() {
        let s: KvStore<i32> = KvStore::new();
        assert_eq!(s.put_cas("k", 0, 1).unwrap(), 1);
        assert_eq!(s.put_cas("k", 1, 2).unwrap(), 2);
        let err = s.put_cas("k", 1, 3).unwrap_err();
        match err {
            KvError::VersionConflict {
                expected, found, ..
            } => {
                assert_eq!(expected, 1);
                assert_eq!(found, 2);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(s.stats().cas_failures, 1);
    }

    #[test]
    fn cas_on_deleted_key_expects_zero() {
        let s: KvStore<i32> = KvStore::new();
        s.put("k", 1);
        s.delete("k");
        assert!(s.put_cas("k", 1, 2).is_err());
        assert!(s.put_cas("k", 0, 2).is_ok());
    }

    #[test]
    fn prefix_scan_is_sorted_and_filtered() {
        let s: KvStore<i32> = KvStore::<i32>::builder().shards(4).build();
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
        s.put("a", 1);
        s.put("b", 2);
        s.delete("a");
        assert_eq!(s.len(), 1);
        assert_eq!(s.keys(), vec!["b".to_string()]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn version_pruning_bounds_chain_length() {
        let s: KvStore<u64> = KvStore::<u64>::builder().max_versions(3).build();
        for i in 0..10 {
            s.put("k", i);
        }
        let hist = s.history("k");
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].version, 8);
        assert_eq!(s.get("k").as_deref(), Some(&9));
        assert_eq!(s.get_version("k", 1), None, "pruned version is gone");
    }

    #[test]
    fn snapshot_isolation_from_later_writes() {
        let s: KvStore<i32> = KvStore::new();
        s.put("a", 1);
        s.put("b", 1);
        let snap = s.snapshot();
        s.put("a", 2);
        s.delete("b");
        s.put("c", 1);
        assert_eq!(
            snap.get("a").as_deref(),
            Some(&1),
            "snapshot sees pre-write value"
        );
        assert_eq!(
            snap.get("b").as_deref(),
            Some(&1),
            "snapshot sees pre-delete value"
        );
        assert_eq!(snap.get("c"), None, "snapshot does not see later insert");
        assert_eq!(s.get("a").as_deref(), Some(&2));
    }

    #[test]
    fn snapshot_of_empty_store() {
        let s: KvStore<i32> = KvStore::new();
        let snap = s.snapshot();
        s.put("a", 1);
        assert_eq!(snap.get("a"), None);
        assert!(snap.keys().is_empty());
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
        assert_eq!(s.stats().writes, 1600);
    }

    #[test]
    fn stats_reflect_reads() {
        let s: KvStore<i32> = KvStore::new();
        s.put("k", 1);
        let _ = s.get("k");
        let _ = s.get("nope");
        let st = s.stats();
        assert_eq!(st.reads, 2);
        assert_eq!(st.read_hits, 1);
    }
}
