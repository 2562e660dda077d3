//! The prompt store **P**.
//!
//! "Prompt (P) is a structured store of named prompt fragments ... Each
//! entry in P captures how it was constructed, refined, and reused."
//! (paper §3.2). The store is backed by the `spear-kv` versioned KV
//! substrate (paper §6), so every write of an entry is itself versioned at
//! the storage layer, independently of the entry-level `ref_log` — the
//! former keeps the last stored versions addressable and is what a
//! durability log replays, the latter gives the prompt-evolution
//! provenance the paper's introspection features need.
//!
//! A stored version is one immutable, shared value: reads hand out an
//! `Arc<PromptEntry>`, and a write builds the next version from a clone
//! that copies pointers to the texts and earlier ref_log records, never
//! the texts themselves (DESIGN.md §16).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::Arc;

use spear_kv::{KvError, KvStore, LogOp, LogRecord, Persister};

use crate::diff::{self, PromptDiff};
use crate::error::{Result, SpearError};
use crate::history::{RefAction, RefLogRecord, RefinementMode};
use crate::prompt::{PromptEntry, PromptOrigin};
use crate::value::Value;

/// Named store of structured prompt fragments.
///
/// A plain value: writes take `&mut self`, so a refinement's
/// read-modify-write has one writer by construction. A clone is an
/// independent store holding the same entries and storage versions — the
/// entries themselves are shared, immutable `Arc`s, so cloning copies
/// pointers — and is never durable: the persister stays with the original,
/// so a shadow run against a clone appends nothing to the original's log.
pub struct PromptStore {
    backend: KvStore<PromptEntry>,
    persister: Option<Box<dyn Persister<PromptEntry>>>,
    /// The first record the persister failed to append since the last
    /// [`PromptStore::sync`], which reports it. Boxed: P is copied with
    /// every per-request state, and a store is almost never durable.
    lost: Option<Box<KvError>>,
}

impl Clone for PromptStore {
    fn clone(&self) -> Self {
        Self::with_backend(self.backend.clone())
    }
}

impl std::fmt::Debug for PromptStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PromptStore")
            .field("entries", &self.len())
            .field("durable", &self.persister.is_some())
            .finish()
    }
}

impl Default for PromptStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PromptStore {
    /// Create an empty store. It allocates nothing until the first write.
    #[must_use]
    pub fn new() -> Self {
        Self::with_backend(KvStore::new())
    }

    /// Create a store over an existing KV backend (e.g. one recovered from
    /// a durability log).
    #[must_use]
    pub fn with_backend(backend: KvStore<PromptEntry>) -> Self {
        Self {
            backend,
            persister: None,
            lost: None,
        }
    }

    /// Attach a durability sink: every subsequent entry write (insert,
    /// refine, rollback, merge, clone) is mirrored as a KV log record, so
    /// the store — including every embedded ref_log — can be rebuilt with
    /// `JsonlLog::recover` after a restart (paper §6: stores "may be ...
    /// backed by high-performance key-value systems").
    #[must_use]
    pub fn with_persister(mut self, persister: Box<dyn Persister<PromptEntry>>) -> Self {
        self.persister = Some(persister);
        self
    }

    /// Mirror a completed write to the persister, if any. The in-memory
    /// mutation has already landed, so a log failure cannot be unwound;
    /// the first one is kept for the next [`PromptStore::sync`] to return.
    /// Callers that need hard durability guarantees should check `sync` at
    /// their commit points.
    fn persist(&mut self, key: &str) {
        if let Some(p) = &mut self.persister {
            if let Some(versioned) = self.backend.get_versioned(key) {
                let record = LogRecord {
                    seq: versioned.seq,
                    key: key.to_string(),
                    op: versioned.value.map_or(LogOp::Delete, LogOp::Put),
                };
                if let Err(e) = p.append(&record) {
                    self.lost.get_or_insert(Box::new(e));
                }
            }
        }
    }

    /// Flush the durability sink, if any.
    ///
    /// # Errors
    ///
    /// Propagates persister flush failures, then returns (once) the first
    /// record the persister failed to append since the last `sync`, as
    /// [`SpearError::Kv`]; the write it mirrored still stands in memory.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(p) = &mut self.persister {
            p.flush()?;
        }
        self.lost.take().map_or(Ok(()), |e| Err(SpearError::Kv(*e)))
    }

    /// The underlying KV store (its storage-level version history, and
    /// persistence wiring).
    #[must_use]
    pub fn backend(&self) -> &KvStore<PromptEntry> {
        &self.backend
    }

    /// Insert `entry` under `key`, replacing any existing entry. An entry
    /// read from a store (`Arc<PromptEntry>`) is stored as that pointer.
    pub fn insert(&mut self, key: impl Into<String>, entry: impl Into<Arc<PromptEntry>>) {
        let key = key.into();
        if self.persister.is_none() {
            // Nothing names the key afterwards: it moves into the map.
            self.backend.put(key, entry);
        } else {
            self.backend.put(key.clone(), entry);
            self.persist(&key);
        }
    }

    /// Convenience: create a fresh entry from raw text.
    pub fn define(
        &mut self,
        key: impl Into<String>,
        text: impl Into<Arc<str>>,
        f_name: &str,
        mode: RefinementMode,
    ) {
        self.insert(key, PromptEntry::new(text, f_name, mode));
    }

    /// Fetch the entry at `key`: the stored version itself, shared.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::PromptNotFound`] when absent.
    pub fn get(&self, key: &str) -> Result<Arc<PromptEntry>> {
        self.try_get(key)
            .ok_or_else(|| SpearError::PromptNotFound(key.to_string()))
    }

    /// Fetch the entry at `key`, or `None`.
    #[must_use]
    pub fn try_get(&self, key: &str) -> Option<Arc<PromptEntry>> {
        self.backend.get(key)
    }

    /// Whether `key` exists.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.backend.contains(key)
    }

    /// All keys, sorted.
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.backend.keys()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove `key`. Returns `true` if it existed.
    pub fn remove(&mut self, key: &str) -> bool {
        let removed = self.backend.delete(key);
        if removed {
            self.persist(key);
        }
        removed
    }

    /// Apply a refinement producing `new_text` to the entry at `key`,
    /// recording full provenance. This is the storage-side half of REF.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::PromptNotFound`] when absent.
    #[allow(clippy::too_many_arguments)]
    pub fn refine(
        &mut self,
        key: &str,
        new_text: Arc<str>,
        action: RefAction,
        f_name: &str,
        mode: RefinementMode,
        step: u64,
        trigger: Option<String>,
        signals: BTreeMap<String, Value>,
        note: Option<String>,
    ) -> Result<u64> {
        let current = self.get(key)?;
        let record = RefLogRecord {
            step,
            action,
            f_name: f_name.to_string(),
            mode,
            trigger,
            signals,
            version: current.version + 1,
            text_after: new_text,
            note,
        };
        Ok(self.store_refined(key, Some(&current), record, None, None))
    }

    /// Store, once and complete, the version of `key` that `record` makes
    /// of `current` (a fresh entry when there is none), with the `params`
    /// and `origin` a refiner such as `from_view` gives it. Every refinement
    /// reaches P through here. Returns the stored entry's version.
    pub(crate) fn store_refined(
        &mut self,
        key: &str,
        current: Option<&PromptEntry>,
        record: RefLogRecord,
        params: Option<BTreeMap<String, Value>>,
        origin: Option<PromptOrigin>,
    ) -> u64 {
        let mut entry = match current {
            Some(current) => {
                let mut entry = current.clone();
                entry.push_record(record);
                entry
            }
            None => PromptEntry::from_record(record),
        };
        if let Some(params) = params {
            entry.params = params;
        }
        if let Some(origin) = origin {
            entry.origin = origin;
        }
        let version = entry.version;
        self.insert(key, entry);
        version
    }

    /// Roll an entry back to an earlier version. The rollback is itself a
    /// refinement (the history is append-only — the paper's ref_log never
    /// loses steps), so the entry's version still increases.
    ///
    /// # Errors
    ///
    /// [`SpearError::PromptNotFound`] if the key is absent,
    /// [`SpearError::PromptVersionNotFound`] if the version is not retained.
    pub fn rollback(&mut self, key: &str, version: u64, step: u64) -> Result<u64> {
        let old_text = Arc::clone(text_at(&*self.get(key)?, key, version)?);
        self.refine(
            key,
            old_text,
            RefAction::Rollback,
            &format!("rollback_to_v{version}"),
            RefinementMode::Manual,
            step,
            None,
            BTreeMap::new(),
            None,
        )
    }

    /// Clone the entry at `src` to `dst` ("clone successful configurations",
    /// paper §4.3). The clone keeps the full ref_log so provenance survives.
    ///
    /// # Errors
    ///
    /// [`SpearError::PromptNotFound`] if `src` is absent.
    pub fn clone_entry(&mut self, src: &str, dst: impl Into<String>) -> Result<()> {
        let entry = self.get(src)?;
        self.insert(dst, entry);
        Ok(())
    }

    /// Diff the current texts of two entries (`DIFF[P_1, P_2]`).
    ///
    /// # Errors
    ///
    /// [`SpearError::PromptNotFound`] if either key is absent.
    pub fn diff(&self, left: &str, right: &str) -> Result<PromptDiff> {
        let l = self.get(left)?;
        let r = self.get(right)?;
        Ok(diff::diff(&l.text, &r.text))
    }

    /// Diff two versions of the same entry.
    ///
    /// # Errors
    ///
    /// [`SpearError::PromptNotFound`] / [`SpearError::PromptVersionNotFound`].
    pub fn diff_versions(&self, key: &str, v1: u64, v2: u64) -> Result<PromptDiff> {
        let entry = self.get(key)?;
        let (t1, t2) = (text_at(&entry, key, v1)?, text_at(&entry, key, v2)?);
        Ok(diff::diff(t1, t2))
    }

    /// Keys of entries carrying `tag` (runtime dispatch, paper §3.1).
    #[must_use]
    pub fn keys_with_tag(&self, tag: &str) -> Vec<String> {
        self.keys()
            .into_iter()
            .filter(|k| self.try_get(k).is_some_and(|e| e.tags.contains(tag)))
            .collect()
    }
}

/// The text `entry` (stored under `key`) had at `version`.
fn text_at<'e>(entry: &'e PromptEntry, key: &str, version: u64) -> Result<&'e Arc<str>> {
    entry
        .text_at_version(version)
        .ok_or_else(|| SpearError::PromptVersionNotFound {
            key: key.to_string(),
            version,
        })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn store_with(key: &str, text: &str) -> PromptStore {
        let mut s = PromptStore::new();
        s.define(key, text, "f_base", RefinementMode::Manual);
        s
    }

    #[test]
    fn define_get_roundtrip() {
        let s = store_with("qa_prompt", "Summarize the medication history.");
        let e = s.get("qa_prompt").unwrap();
        assert_eq!(e.version, 1);
        assert!(s.contains("qa_prompt"));
        assert!(matches!(
            s.get("missing"),
            Err(SpearError::PromptNotFound(_))
        ));
    }

    #[test]
    fn refine_persists_new_version() {
        let mut s = store_with("p", "base");
        let v = s
            .refine(
                "p",
                "base\nextra".into(),
                RefAction::Append,
                "f_expand",
                RefinementMode::Manual,
                1,
                None,
                BTreeMap::new(),
                None,
            )
            .unwrap();
        assert_eq!(v, 2);
        let e = s.get("p").unwrap();
        assert_eq!(&*e.text, "base\nextra");
        assert_eq!(e.ref_log.len(), 2);
    }

    #[test]
    fn rollback_restores_text_but_appends_history() {
        let mut s = store_with("p", "v1 text");
        s.refine(
            "p",
            "v2 text".into(),
            RefAction::Update,
            "f",
            RefinementMode::Auto,
            1,
            None,
            BTreeMap::new(),
            None,
        )
        .unwrap();
        let v = s.rollback("p", 1, 2).unwrap();
        assert_eq!(v, 3);
        let e = s.get("p").unwrap();
        assert_eq!(&*e.text, "v1 text");
        assert_eq!(e.ref_log.len(), 3, "history is append-only");
        assert_eq!(e.ref_log[2].action, RefAction::Rollback);
    }

    #[test]
    fn rollback_to_unknown_version_errors() {
        let mut s = store_with("p", "v1");
        assert!(matches!(
            s.rollback("p", 7, 1),
            Err(SpearError::PromptVersionNotFound { .. })
        ));
    }

    #[test]
    fn clone_entry_copies_provenance() {
        let mut s = store_with("src", "text");
        s.clone_entry("src", "dst").unwrap();
        let d = s.get("dst").unwrap();
        assert_eq!(&*d.text, "text");
        assert_eq!(d.ref_log.len(), 1);
        assert!(s.clone_entry("missing", "x").is_err());
    }

    #[test]
    fn diff_between_entries_and_versions() {
        let mut s = store_with("a", "shared line");
        s.define("b", "shared line\nextra", "f", RefinementMode::Manual);
        let d = s.diff("a", "b").unwrap();
        assert_eq!(d.added, 1);
        assert_eq!(d.removed, 0);

        s.refine(
            "a",
            "shared line\nmore".into(),
            RefAction::Append,
            "f",
            RefinementMode::Manual,
            1,
            None,
            BTreeMap::new(),
            None,
        )
        .unwrap();
        let dv = s.diff_versions("a", 1, 2).unwrap();
        assert_eq!(dv.added, 1);
        assert!(s.diff_versions("a", 1, 9).is_err());
    }

    #[test]
    fn tag_query() {
        let mut s = PromptStore::new();
        s.insert(
            "discharge",
            PromptEntry::new("t", "f", RefinementMode::Manual).with_tag("clinical"),
        );
        s.insert(
            "radiology",
            PromptEntry::new("t", "f", RefinementMode::Manual).with_tag("clinical"),
        );
        s.insert("tweet", PromptEntry::new("t", "f", RefinementMode::Manual));
        assert_eq!(s.keys_with_tag("clinical").len(), 2);
        assert!(s.keys_with_tag("nope").is_empty());
    }

    #[test]
    fn a_clone_isolates_writes() {
        let s = store_with("p", "original");
        let mut shadow = s.clone();
        shadow
            .refine(
                "p",
                "mutated".into(),
                RefAction::Update,
                "f",
                RefinementMode::Auto,
                1,
                None,
                BTreeMap::new(),
                None,
            )
            .unwrap();
        assert_eq!(&*s.get("p").unwrap().text, "original");
        assert_eq!(&*shadow.get("p").unwrap().text, "mutated");
    }

    #[test]
    fn reads_of_an_empty_store_find_nothing_and_its_clone_is_its_own() {
        let mut s = PromptStore::new();
        assert!(s.keys().is_empty());
        assert!(s.is_empty());
        assert!(!s.contains("p"));
        assert!(s.try_get("p").is_none());
        assert!(matches!(s.get("p"), Err(SpearError::PromptNotFound(_))));
        assert!(s.keys_with_tag("t").is_empty());
        assert!(!s.remove("p"));

        // The clone of an empty store is still its own store.
        let mut shadow = s.clone();
        shadow.define("p", "shadow only", "f_base", RefinementMode::Manual);
        assert!(s.is_empty());
        s.define("q", "primary only", "f_base", RefinementMode::Manual);
        assert_eq!(shadow.keys(), ["p"]);
    }

    #[test]
    fn a_store_over_an_existing_backend_reads_and_writes_it() {
        let mut backend = KvStore::new();
        backend.put(
            "p",
            PromptEntry::new("v1", "f_base", RefinementMode::Manual),
        );
        let mut s = PromptStore::with_backend(backend);
        assert_eq!(&*s.get("p").unwrap().text, "v1");
        s.define("q", "v1", "f_base", RefinementMode::Manual);
        assert_eq!(s.backend().keys(), ["p", "q"]);
        assert_eq!(
            PromptStore::with_backend(s.backend().clone()).keys(),
            ["p", "q"]
        );
    }

    #[test]
    fn backend_versioning_tracks_entry_writes() {
        let mut s = store_with("p", "v1");
        s.refine(
            "p",
            "v2".into(),
            RefAction::Update,
            "f",
            RefinementMode::Manual,
            1,
            None,
            BTreeMap::new(),
            None,
        )
        .unwrap();
        // Two storage-level versions of the entry exist.
        assert_eq!(s.backend().history("p").len(), 2);
    }

    /// The distinct text allocations reachable from every retained version
    /// of `key`: entry texts and every record's `text_after`.
    fn text_allocations(s: &PromptStore, key: &str) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for version in s.backend().history(key) {
            let entry = version.value.unwrap();
            seen.insert(entry.text.as_ptr());
            seen.extend(entry.ref_log.iter().map(|r| r.text_after.as_ptr()));
        }
        seen.len()
    }

    #[test]
    fn k_refinements_keep_k_plus_one_texts_in_the_whole_chain() {
        let mut s = store_with("p", "text v1");
        for v in 2..=9u64 {
            s.refine(
                "p",
                format!("text v{v}").into(),
                RefAction::Update,
                "f",
                RefinementMode::Auto,
                v,
                None,
                BTreeMap::new(),
                None,
            )
            .unwrap();
        }
        assert_eq!(text_allocations(&s, "p"), 9, "8 refinements, 9 texts");

        let chain: Vec<Arc<PromptEntry>> = s
            .backend()
            .history("p")
            .into_iter()
            .filter_map(|v| v.value)
            .collect();
        assert_eq!(chain.len(), 9);
        for entry in &chain {
            let last = entry.ref_log.last().unwrap();
            assert!(Arc::ptr_eq(&entry.text, &last.text_after));
        }
        for pair in chain.windows(2) {
            for (earlier, later) in pair[0].ref_log.iter().zip(&pair[1].ref_log) {
                assert!(Arc::ptr_eq(earlier, later), "earlier records are shared");
            }
        }

        // A read is the stored version; a rollback, a cloned entry and a
        // cloned store copy pointers, so none of them adds a text.
        assert!(Arc::ptr_eq(&s.get("p").unwrap(), &chain[8]));
        s.rollback("p", 3, 10).unwrap();
        s.clone_entry("p", "q").unwrap();
        let shadow = s.clone();
        assert_eq!(text_allocations(&s, "p"), 9);
        assert_eq!(text_allocations(&shadow, "p"), 9);
        assert!(Arc::ptr_eq(&s.get("p").unwrap(), &s.get("q").unwrap()));
        assert!(Arc::ptr_eq(&s.get("p").unwrap(), &shadow.get("p").unwrap()));
        assert!(Arc::ptr_eq(&s.get("p").unwrap().text, &chain[2].text));
    }

    /// The design this store replaced, kept as the reference the shared one
    /// is diffed against: every version owns a copy of every byte it holds.
    /// Field order matches [`PromptEntry`] and
    /// [`crate::history::RefLogRecord`], so equal states serialize to equal
    /// bytes.
    mod copying {
        use super::*;
        use crate::ops::MergePolicy;
        use crate::prompt::PromptOrigin;
        use serde::Serialize;

        #[derive(Clone, Serialize)]
        pub struct Record {
            pub step: u64,
            pub action: RefAction,
            pub f_name: String,
            pub mode: RefinementMode,
            pub trigger: Option<String>,
            pub signals: BTreeMap<String, Value>,
            pub version: u64,
            pub text_after: String,
            pub note: Option<String>,
        }

        #[derive(Clone, Serialize)]
        pub struct Entry {
            pub text: String,
            pub params: BTreeMap<String, Value>,
            pub tags: std::collections::BTreeSet<String>,
            pub version: u64,
            pub ref_log: Vec<Record>,
            pub origin: PromptOrigin,
        }

        impl Entry {
            fn refined(
                &self,
                text: String,
                action: RefAction,
                f_name: String,
                step: u64,
                signals: BTreeMap<String, Value>,
                note: Option<String>,
            ) -> Entry {
                let mut next = self.clone();
                next.version += 1;
                next.text = text.clone();
                next.ref_log.push(Record {
                    step,
                    action,
                    f_name,
                    mode: RefinementMode::Manual,
                    trigger: None,
                    signals,
                    version: next.version,
                    text_after: text,
                    note,
                });
                next
            }
        }

        /// Every version of every key, oldest first.
        #[derive(Clone, Default)]
        pub struct Store(pub BTreeMap<String, Vec<Entry>>);

        impl Store {
            pub fn latest(&self, key: &str) -> Option<&Entry> {
                self.0.get(key).and_then(|chain| chain.last())
            }

            fn write(&mut self, key: &str, entry: Entry) {
                self.0.entry(key.to_string()).or_default().push(entry);
            }

            pub fn define(&mut self, key: &str, text: &str) {
                let entry = Entry {
                    text: text.to_string(),
                    params: BTreeMap::new(),
                    tags: std::collections::BTreeSet::new(),
                    version: 1,
                    ref_log: vec![Record {
                        step: 0,
                        action: RefAction::Create,
                        f_name: "f_base".to_string(),
                        mode: RefinementMode::Manual,
                        trigger: None,
                        signals: BTreeMap::new(),
                        version: 1,
                        text_after: text.to_string(),
                        note: None,
                    }],
                    origin: PromptOrigin::Adhoc,
                };
                self.write(key, entry);
            }

            pub fn refine(&mut self, key: &str, text: &str, step: u64) -> bool {
                let Some(current) = self.latest(key) else {
                    return false;
                };
                let next = current.refined(
                    text.to_string(),
                    RefAction::Update,
                    "f_up".to_string(),
                    step,
                    BTreeMap::new(),
                    None,
                );
                self.write(key, next);
                true
            }

            pub fn rollback(&mut self, key: &str, version: u64, step: u64) -> bool {
                let Some(current) = self.latest(key) else {
                    return false;
                };
                let Some(old) = current.ref_log.iter().find(|r| r.version == version) else {
                    return false;
                };
                let next = current.refined(
                    old.text_after.clone(),
                    RefAction::Rollback,
                    format!("rollback_to_v{version}"),
                    step,
                    BTreeMap::new(),
                    None,
                );
                self.write(key, next);
                true
            }

            pub fn clone_entry(&mut self, src: &str, dst: &str) -> bool {
                let Some(entry) = self.latest(src).cloned() else {
                    return false;
                };
                self.write(dst, entry);
                true
            }

            /// MERGE as `exec::merge` applies it, for signals under which
            /// `BySignal` prefers the right side.
            pub fn merge(
                &mut self,
                left: &str,
                right: &str,
                into: &str,
                policy: &MergePolicy,
                step: u64,
                signals: BTreeMap<String, Value>,
            ) -> bool {
                let (Some(l), Some(r)) = (self.latest(left), self.latest(right)) else {
                    return false;
                };
                let (base, text, choice) = match policy {
                    MergePolicy::PreferLeft => (l, l.text.clone(), "left"),
                    MergePolicy::PreferRight | MergePolicy::BySignal { .. } => {
                        (r, r.text.clone(), "right")
                    }
                    MergePolicy::Concat { separator } => {
                        (l, format!("{}{separator}{}", l.text, r.text), "concat")
                    }
                };
                let mut next = base.refined(
                    text,
                    RefAction::Merge,
                    format!("merge:{policy:?}"),
                    step,
                    signals,
                    Some(format!("merged {left:?} + {right:?} ({choice})")),
                );
                next.origin = PromptOrigin::Merged {
                    left: left.to_string(),
                    right: right.to_string(),
                };
                self.write(into, next);
                true
            }
        }
    }

    mod sharing_is_invisible {
        use super::*;
        use crate::ops::MergePolicy;
        use crate::runtime::ExecState;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Cmd {
            Define(u8, String),
            Refine(u8, String),
            Rollback(u8, u64),
            CloneEntry(u8, u8),
            Merge(u8, u8, u8, u8),
            Shadow,
        }

        fn cmd() -> impl Strategy<Value = Cmd> {
            prop_oneof![
                (any::<u8>(), "[a-z ]{0,24}").prop_map(|(k, t)| Cmd::Define(k, t)),
                (any::<u8>(), "[a-z ]{0,24}").prop_map(|(k, t)| Cmd::Refine(k, t)),
                (any::<u8>(), "[a-z ]{0,24}").prop_map(|(k, t)| Cmd::Refine(k, t)),
                (any::<u8>(), 1u64..8).prop_map(|(k, v)| Cmd::Rollback(k, v)),
                (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Cmd::CloneEntry(a, b)),
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
                    .prop_map(|(l, r, i, p)| Cmd::Merge(l, r, i, p)),
                Just(Cmd::Shadow),
            ]
        }

        fn key(k: u8) -> String {
            format!("p{}", k % 4)
        }

        fn policy(p: u8) -> MergePolicy {
            match p % 4 {
                0 => MergePolicy::PreferLeft,
                1 => MergePolicy::PreferRight,
                2 => MergePolicy::Concat {
                    separator: "\n".to_string(),
                },
                _ => MergePolicy::BySignal {
                    left_signal: "left_score".to_string(),
                    right_signal: "right_score".to_string(),
                },
            }
        }

        /// Every retained version of every key, as serialized bytes.
        fn shared_bytes(store: &PromptStore) -> BTreeMap<String, Vec<String>> {
            store
                .keys()
                .into_iter()
                .map(|key| {
                    let versions = store
                        .backend()
                        .history(&key)
                        .into_iter()
                        .filter_map(|v| v.value)
                        .map(|entry| {
                            crate::replay::verify(&entry).unwrap();
                            serde_json::to_string(&*entry).unwrap()
                        })
                        .collect();
                    (key, versions)
                })
                .collect()
        }

        fn copied_bytes(store: &copying::Store) -> BTreeMap<String, Vec<String>> {
            store
                .0
                .iter()
                .map(|(key, chain)| {
                    let versions = chain
                        .iter()
                        .map(|entry| serde_json::to_string(entry).unwrap())
                        .collect();
                    (key.clone(), versions)
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Any sequence of writes leaves the same bytes in every
            /// retained version as the copying design does, every version
            /// verifies, and a shadow store never sees a later write of the
            /// primary (nor the primary one of the shadow).
            #[test]
            fn shared_and_copying_stores_hold_the_same_bytes(
                cmds in proptest::collection::vec(cmd(), 1..48),
            ) {
                let mut state = ExecState::new();
                state.metadata.set("left_score", 0.2);
                state.metadata.set("right_score", 0.9);
                let mut reference = copying::Store::default();
                let mut shadows: Vec<(PromptStore, copying::Store)> = Vec::new();

                for (i, cmd) in cmds.into_iter().enumerate() {
                    let step = i as u64 + 1;
                    state.step = step;
                    let p = &mut state.prompts;
                    match cmd {
                        Cmd::Define(k, text) => {
                            p.define(key(k), text.as_str(), "f_base", RefinementMode::Manual);
                            reference.define(&key(k), &text);
                        }
                        Cmd::Refine(k, text) => {
                            let done = p.refine(
                                &key(k), text.as_str().into(), RefAction::Update, "f_up",
                                RefinementMode::Manual, step, None, BTreeMap::new(), None,
                            );
                            prop_assert_eq!(done.is_ok(), reference.refine(&key(k), &text, step));
                        }
                        Cmd::Rollback(k, v) => {
                            let done = p.rollback(&key(k), v, step);
                            prop_assert_eq!(done.is_ok(), reference.rollback(&key(k), v, step));
                        }
                        Cmd::CloneEntry(a, b) => {
                            let done = p.clone_entry(&key(a), key(b));
                            prop_assert_eq!(done.is_ok(), reference.clone_entry(&key(a), &key(b)));
                        }
                        Cmd::Merge(l, r, into, pol) => {
                            let pol = policy(pol);
                            let done = crate::exec::merge::run(
                                &key(l), &key(r), &key(into), &pol, &mut state,
                            );
                            let copied = reference.merge(
                                &key(l), &key(r), &key(into), &pol, step,
                                state.metadata.signal_snapshot(),
                            );
                            prop_assert_eq!(done.is_ok(), copied);
                        }
                        Cmd::Shadow => shadows.push((p.clone(), reference.clone())),
                    }
                }

                for (shadow, at_fork) in &mut shadows {
                    for key in shadow.keys() {
                        let seen = serde_json::to_string(&*shadow.get(&key).unwrap()).unwrap();
                        let forked = serde_json::to_string(at_fork.latest(&key).unwrap()).unwrap();
                        prop_assert_eq!(seen, forked, "shadow saw a primary write to {}", key);
                        shadow.refine(
                            &key, "shadow only".into(), RefAction::Update, "f_shadow",
                            RefinementMode::Auto, 0, None, BTreeMap::new(), None,
                        ).unwrap();
                    }
                    prop_assert_eq!(shadow.len(), at_fork.0.len());
                }
                prop_assert_eq!(shared_bytes(&state.prompts), copied_bytes(&reference));
            }
        }
    }
}
