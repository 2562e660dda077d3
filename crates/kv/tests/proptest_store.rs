//! Property-based tests: the versioned store must behave exactly like a
//! simple model (a `BTreeMap` plus per-key version counters) under arbitrary
//! interleavings of puts, deletes, and reads, and keep exactly the last 64
//! versions of each key.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use spear_kv::KvStore;

/// Few keys and long command sequences: about half of all chains pass the
/// store's retention bound.
const KEYS: u8 = 4;

/// Versions the store retains per key.
const MAX_VERSIONS: u64 = 64;

#[derive(Debug, Clone)]
enum Cmd {
    Put(u8, i64),
    Delete(u8),
    Get(u8),
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Cmd::Put(k % KEYS, v)),
        any::<u8>().prop_map(|k| Cmd::Delete(k % KEYS)),
        any::<u8>().prop_map(|k| Cmd::Get(k % KEYS)),
    ]
}

fn key(k: u8) -> String {
    format!("key-{k}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The store agrees with a model map on every read, per-key version
    /// numbers count every write (including tombstones), and each key keeps
    /// its last 64 versions.
    #[test]
    fn store_matches_model(cmds in proptest::collection::vec(cmd_strategy(), 1..1000)) {
        let mut store: KvStore<i64> = KvStore::new();
        let mut model: BTreeMap<String, i64> = BTreeMap::new();
        let mut write_counts: BTreeMap<String, u64> = BTreeMap::new();

        for cmd in cmds {
            match cmd {
                Cmd::Put(k, v) => {
                    let k = key(k);
                    let version = store.put(k.clone(), v);
                    *write_counts.entry(k.clone()).or_default() += 1;
                    prop_assert_eq!(version, write_counts[&k]);
                    model.insert(k, v);
                }
                Cmd::Delete(k) => {
                    let k = key(k);
                    let was_live = model.remove(&k).is_some();
                    prop_assert_eq!(store.delete(&k), was_live);
                    if was_live {
                        *write_counts.entry(k).or_default() += 1;
                    }
                }
                Cmd::Get(k) => {
                    let k = key(k);
                    prop_assert_eq!(store.get(&k).map(|v| *v), model.get(&k).copied());
                }
            }
        }

        // Final state agrees everywhere.
        let live: Vec<String> = model.keys().cloned().collect();
        prop_assert_eq!(store.keys(), live);
        prop_assert_eq!(store.len(), model.len());
        for k in 0..KEYS {
            let k = key(k);
            let writes = write_counts.get(&k).copied().unwrap_or(0);
            let history = store.history(&k);
            prop_assert_eq!(history.len() as u64, writes.min(MAX_VERSIONS), "key {}", k);
            prop_assert_eq!(history.last().map_or(0, |v| v.version), writes, "key {}", k);
        }
    }

    /// Prefix scans return exactly the live keys with that prefix, sorted.
    #[test]
    fn prefix_scan_matches_model(
        entries in proptest::collection::btree_map("[ab]/[a-d]{1,3}", any::<i64>(), 0..40),
        deleted in proptest::collection::vec("[ab]/[a-d]{1,3}", 0..10),
    ) {
        let mut store: KvStore<i64> = KvStore::new();
        let mut model = entries.clone();
        for (k, v) in &entries {
            store.put(k.clone(), *v);
        }
        for k in &deleted {
            store.delete(k);
            model.remove(k);
        }
        for prefix in ["a/", "b/", ""] {
            let got = store.prefix_scan(prefix);
            let want: Vec<(String, Arc<i64>)> = model
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), Arc::new(*v)))
                .collect();
            prop_assert_eq!(got, want, "prefix {}", prefix);
        }
    }
}
