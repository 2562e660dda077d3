//! Consistent point-in-time snapshots.

use std::sync::Arc;

use crate::store::Inner;

/// A read-only, point-in-time view of a [`crate::KvStore`].
///
/// The snapshot pins a global sequence bound: reads see exactly the writes
/// whose sequence number is `<=` the bound, regardless of later puts or
/// deletes. Snapshots hold no locks — they read version chains lazily — so
/// they are cheap to create and keep around. They do not pin memory beyond
/// the store's per-key version retention limit: if a chain is pruned past
/// the snapshot's bound, the snapshot no longer sees that key (this mirrors
/// the behaviour of MVCC stores with bounded history).
pub struct Snapshot<V> {
    inner: Arc<Inner<V>>,
    seq_bound: u64,
}

impl<V: Clone> Snapshot<V> {
    pub(crate) fn new(inner: Arc<Inner<V>>, seq_bound: u64) -> Self {
        Self { inner, seq_bound }
    }

    /// The sequence bound this snapshot reads at.
    #[must_use]
    pub fn sequence(&self) -> u64 {
        self.seq_bound
    }

    /// Value of `key` as of the snapshot point, if it was live then.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        self.inner.read_at(key, self.seq_bound)
    }

    /// Whether `key` was live at the snapshot point.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// All keys live at the snapshot point, sorted.
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.inner.keys_at(self.seq_bound)
    }
}

impl<V> Clone for Snapshot<V> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            seq_bound: self.seq_bound,
        }
    }
}

impl<V> std::fmt::Debug for Snapshot<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("seq_bound", &self.seq_bound)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::KvStore;

    #[test]
    fn successive_snapshots_see_successive_states() {
        let s: KvStore<i32> = KvStore::new();
        let s0 = s.snapshot();
        s.put("k", 1);
        let s1 = s.snapshot();
        s.put("k", 2);
        let s2 = s.snapshot();

        assert_eq!(s0.get("k"), None);
        assert_eq!(s1.get("k").as_deref(), Some(&1));
        assert_eq!(s2.get("k").as_deref(), Some(&2));
        assert!(s1.contains("k"));
        assert!(!s0.contains("k"));
        assert!(s0.sequence() < s1.sequence());
    }

    #[test]
    fn snapshot_keys_exclude_later_deletes_from_live_view_only() {
        let s: KvStore<i32> = KvStore::new();
        s.put("a", 1);
        s.put("b", 2);
        let snap = s.snapshot();
        s.delete("a");
        assert_eq!(snap.keys(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(s.keys(), vec!["b".to_string()]);
    }

    #[test]
    fn snapshot_clone_reads_same_point() {
        let s: KvStore<i32> = KvStore::new();
        s.put("k", 1);
        let snap = s.snapshot();
        let snap2 = snap.clone();
        s.put("k", 2);
        assert_eq!(snap2.get("k").as_deref(), Some(&1));
        assert_eq!(snap2.sequence(), snap.sequence());
    }
}
