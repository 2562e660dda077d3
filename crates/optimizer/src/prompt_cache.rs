//! The structured prompt cache (paper §5 "Prefix Caching and Reuse").
//!
//! "SPEAR employs a structured prompt cache that indexes prompt fragments
//! and their rendered forms. This cache can be accessed by view name,
//! parameter hash, or refinement version." Token-level KV reuse lives in
//! the serving layer (`spear-llm`'s radix cache); this cache sits above it,
//! memoizing *rendered prompt strings* so retries, batched tasks with
//! shared scaffolds, and parameterized view calls skip re-rendering — and
//! so the runtime can warm the serving cache with exactly the fragments it
//! knows are stable.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spear_kv::KvStore;

/// A cached rendered prompt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedPrompt {
    /// The rendered text.
    pub rendered: String,
    /// Source view, when view-derived.
    pub view: Option<String>,
    /// Parameter hash of the instantiation.
    pub param_hash: u64,
    /// Refinement version of the entry that produced this rendering.
    pub version: u64,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromptCacheStats {
    /// Lookup calls.
    pub lookups: u64,
    /// Lookups that found an entry.
    pub hits: u64,
}

/// Structured prompt cache keyed by `(view, param hash, version)` — or by
/// an arbitrary identity string for non-view prompts.
pub struct StructuredPromptCache {
    store: KvStore<CachedPrompt>,
    stats: parking_lot::Mutex<PromptCacheStats>,
}

impl Default for StructuredPromptCache {
    fn default() -> Self {
        Self::new()
    }
}

impl StructuredPromptCache {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            store: KvStore::new(),
            stats: parking_lot::Mutex::new(PromptCacheStats::default()),
        }
    }

    fn key(view: Option<&str>, param_hash: u64, version: u64) -> String {
        match view {
            Some(v) => format!("view/{v}/{param_hash:016x}/v{version}"),
            None => format!("adhoc/{param_hash:016x}/v{version}"),
        }
    }

    /// Insert a rendered prompt.
    pub fn insert(
        &self,
        view: Option<&str>,
        param_hash: u64,
        version: u64,
        rendered: impl Into<String>,
    ) {
        self.store.put(
            Self::key(view, param_hash, version),
            CachedPrompt {
                rendered: rendered.into(),
                view: view.map(str::to_string),
                param_hash,
                version,
            },
        );
    }

    /// Exact lookup by `(view, param hash, version)`.
    #[must_use]
    pub fn lookup(&self, view: Option<&str>, param_hash: u64, version: u64) -> Option<String> {
        let found = self
            .store
            .get(&Self::key(view, param_hash, version))
            .map(|c| c.rendered.clone());
        let mut stats = self.stats.lock();
        stats.lookups += 1;
        if found.is_some() {
            stats.hits += 1;
        }
        found
    }

    /// All cached renderings of a view (any parameters, any version) —
    /// the "accessed by view name" path; used to warm serving-layer caches.
    #[must_use]
    pub fn renderings_of_view(&self, view: &str) -> Vec<Arc<CachedPrompt>> {
        self.store
            .prefix_scan(&format!("view/{view}/"))
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    /// Latest cached version for `(view, param hash)`, if any.
    #[must_use]
    pub fn latest_version(&self, view: &str, param_hash: u64) -> Option<Arc<CachedPrompt>> {
        self.store
            .prefix_scan(&format!("view/{view}/{param_hash:016x}/"))
            .into_iter()
            .map(|(_, v)| v)
            .max_by_key(|c| c.version)
    }

    /// Whether any rendering of `view` is resident (view-selection signal).
    #[must_use]
    pub fn is_view_warm(&self, view: &str) -> bool {
        !self.renderings_of_view(view).is_empty()
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> PromptCacheStats {
        *self.stats.lock()
    }
}

impl std::fmt::Debug for StructuredPromptCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StructuredPromptCache")
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let c = StructuredPromptCache::new();
        c.insert(Some("med_summary"), 0xAB, 1, "rendered text");
        assert_eq!(
            c.lookup(Some("med_summary"), 0xAB, 1).as_deref(),
            Some("rendered text")
        );
        assert_eq!(c.lookup(Some("med_summary"), 0xAB, 2), None);
        assert_eq!(c.lookup(Some("other"), 0xAB, 1), None);
        let s = c.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn view_scan_and_latest_version() {
        let c = StructuredPromptCache::new();
        c.insert(Some("qa"), 0x1, 1, "v1");
        c.insert(Some("qa"), 0x1, 3, "v3");
        c.insert(Some("qa"), 0x2, 1, "other params");
        c.insert(Some("summary"), 0x1, 1, "unrelated view");

        assert_eq!(c.renderings_of_view("qa").len(), 3);
        let latest = c.latest_version("qa", 0x1).unwrap();
        assert_eq!(latest.version, 3);
        assert_eq!(latest.rendered, "v3");
        assert!(c.is_view_warm("qa"));
        assert!(!c.is_view_warm("ghost"));
    }

    #[test]
    fn adhoc_prompts_use_identity_hash() {
        let c = StructuredPromptCache::new();
        c.insert(None, 0xFEED, 1, "ad hoc rendering");
        assert_eq!(
            c.lookup(None, 0xFEED, 1).as_deref(),
            Some("ad hoc rendering")
        );
        assert!(c.renderings_of_view("").is_empty());
    }

    #[test]
    fn reinsert_replaces() {
        let c = StructuredPromptCache::new();
        c.insert(Some("v"), 1, 1, "old");
        c.insert(Some("v"), 1, 1, "new");
        assert_eq!(c.lookup(Some("v"), 1, 1).as_deref(), Some("new"));
        assert_eq!(c.len(), 1);
    }
}
