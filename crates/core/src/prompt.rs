//! Structured prompt entries — the values stored in **P**.
//!
//! "Entries are not just strings, but structured objects" (paper §3.1) that
//! carry the template text, parameters, tags, versioning, and the embedded
//! ref_log. An entry also records its *origin* — whether it was derived from
//! a named view (and which version, with which parameters) or written ad
//! hoc. Origin is what lets the runtime decide cacheability: view-derived
//! prompts have a stable identity that the prefix cache can index (paper §5,
//! "Prompt views are particularly suitable for caching as they maintain a
//! consistent structure across executions").
//!
//! An entry is a *value*: once stored in P it is never mutated, a
//! refinement builds the next version from a pointer-copying clone, and the
//! texts and earlier ref_log records are shared between versions
//! (DESIGN.md §16).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::context::Context;
use crate::error::Result;
use crate::history::{RefAction, RefLogExt, RefLogRecord, RefinementMode};
use crate::template;
use crate::value::Value;

/// Where a prompt entry came from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PromptOrigin {
    /// Hand-written, opaque to the optimizer.
    #[default]
    Adhoc,
    /// Instantiated from a named view.
    View {
        /// View name.
        name: String,
        /// View version at instantiation time.
        version: u64,
        /// Stable hash of the instantiation arguments.
        param_hash: u64,
    },
    /// Produced by merging two other entries.
    Merged {
        /// Key of the left source.
        left: String,
        /// Key of the right source.
        right: String,
    },
}

/// A structured prompt fragment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromptEntry {
    /// Template text, possibly with `{{placeholders}}`. The same allocation
    /// as the last ref_log record's `text_after`.
    pub text: Arc<str>,
    /// Entry-local parameters consulted before the context when rendering.
    pub params: BTreeMap<String, Value>,
    /// Tags for categorization and runtime dispatch (paper §3.1).
    pub tags: BTreeSet<String>,
    /// Current version; bumped by every refinement.
    pub version: u64,
    /// The embedded refinement log (paper §4.3). Versions of one entry
    /// share their common records.
    pub ref_log: Vec<Arc<RefLogRecord>>,
    /// Provenance.
    pub origin: PromptOrigin,
}

impl PromptEntry {
    /// Create a fresh entry at version 1 with a `CREATE` log record.
    #[must_use]
    pub fn new(text: impl Into<Arc<str>>, f_name: &str, mode: RefinementMode) -> Self {
        Self::from_record(RefLogRecord {
            step: 0,
            action: RefAction::Create,
            f_name: f_name.to_string(),
            mode,
            trigger: None,
            signals: BTreeMap::new(),
            version: 1,
            text_after: text.into(),
            note: None,
        })
    }

    /// Create a fresh ad-hoc entry whose lineage starts at `record`: the
    /// entry takes its text and version from it.
    pub(crate) fn from_record(record: RefLogRecord) -> Self {
        Self {
            text: Arc::clone(&record.text_after),
            params: BTreeMap::new(),
            tags: BTreeSet::new(),
            version: record.version,
            ref_log: vec![Arc::new(record)],
            origin: PromptOrigin::Adhoc,
        }
    }

    /// Builder-style: set a parameter.
    #[must_use]
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Builder-style: add a tag.
    #[must_use]
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tags.insert(tag.into());
        self
    }

    /// Builder-style: set the origin.
    #[must_use]
    pub fn with_origin(mut self, origin: PromptOrigin) -> Self {
        self.origin = origin;
        self
    }

    /// Render the template against this entry's params and the context.
    ///
    /// # Errors
    ///
    /// Propagates template errors (unbound placeholder, malformed syntax).
    pub fn render(&self, context: &Context) -> Result<String> {
        template::render(&self.text, &self.params, context)
    }

    /// Render as content-hashed segments (literal fragments vs resolved
    /// placeholder values); the joined segments equal [`Self::render`]'s
    /// output byte-for-byte. This is the engine's fast path: segment
    /// identity lets tokenization of shared prefixes be memoized.
    ///
    /// # Errors
    ///
    /// Propagates template errors (unbound placeholder, malformed syntax).
    pub fn render_segmented(&self, context: &Context) -> Result<crate::segment::SegmentedText> {
        template::render_segmented(&self.text, &self.params, context)
    }

    /// Apply a refinement that produced `new_text`, bumping the version and
    /// appending a ref_log record. This is the single mutation path for
    /// entries — REF, MERGE, and rollback all funnel through it, so the
    /// invariant `ref_log.last().text_after == text` always holds.
    #[allow(clippy::too_many_arguments)] // mirrors the ref_log record's fields
    pub fn apply_refinement(
        &mut self,
        new_text: Arc<str>,
        action: RefAction,
        f_name: &str,
        mode: RefinementMode,
        step: u64,
        trigger: Option<String>,
        signals: BTreeMap<String, Value>,
        note: Option<String>,
    ) {
        self.push_record(RefLogRecord {
            step,
            action,
            f_name: f_name.to_string(),
            mode,
            trigger,
            signals,
            version: self.version + 1,
            text_after: new_text,
            note,
        });
    }

    /// Make `record` the latest: the entry takes its text and version.
    pub(crate) fn push_record(&mut self, record: RefLogRecord) {
        self.version = record.version;
        self.text = Arc::clone(&record.text_after);
        self.ref_log.push(Arc::new(record));
    }

    /// The text as of `version` (shared, so a rollback to it copies a
    /// pointer), if that version is in the ref_log.
    #[must_use]
    pub fn text_at_version(&self, version: u64) -> Option<&Arc<str>> {
        self.ref_log.at_version(version).map(|r| &r.text_after)
    }

    /// Whether this entry descends from the named view.
    #[must_use]
    pub fn derives_from_view(&self, view_name: &str) -> bool {
        matches!(&self.origin, PromptOrigin::View { name, .. } if name == view_name)
    }

    /// A stable identity for caching: view-derived entries expose
    /// `(name, view_version, param_hash, entry_version)`; ad-hoc entries
    /// have no identity and are treated as opaque by the cache layer.
    #[must_use]
    pub fn cache_identity(&self) -> Option<String> {
        match &self.origin {
            PromptOrigin::View {
                name,
                version,
                param_hash,
            } => Some(format!(
                "view:{name}@{version}#{param_hash:x}/v{}",
                self.version
            )),
            PromptOrigin::Merged { left, right } => {
                Some(format!("merge:{left}+{right}/v{}", self.version))
            }
            PromptOrigin::Adhoc => None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn new_entry_starts_at_version_one_with_create_record() {
        let e = PromptEntry::new("Summarize {{drug}}.", "f_base", RefinementMode::Manual);
        assert_eq!(e.version, 1);
        assert_eq!(e.ref_log.len(), 1);
        assert_eq!(e.ref_log[0].action, RefAction::Create);
        assert!(Arc::ptr_eq(&e.ref_log[0].text_after, &e.text));
    }

    #[test]
    fn render_uses_params_then_context() {
        let e = PromptEntry::new(
            "Use of {{drug}} in {{setting}}.",
            "f",
            RefinementMode::Manual,
        )
        .with_param("drug", "Enoxaparin");
        let mut ctx = Context::new();
        ctx.set("setting", "ICU");
        assert_eq!(e.render(&ctx).unwrap(), "Use of Enoxaparin in ICU.");
    }

    #[test]
    fn refinement_bumps_version_and_logs() {
        let mut e = PromptEntry::new("base", "f_base", RefinementMode::Manual);
        e.apply_refinement(
            "base\nFocus on dosage.".into(),
            RefAction::Append,
            "f_add_specificity",
            RefinementMode::Manual,
            3,
            None,
            BTreeMap::new(),
            None,
        );
        assert_eq!(e.version, 2);
        assert_eq!(&*e.text, "base\nFocus on dosage.");
        assert_eq!(e.ref_log.len(), 2);
        assert_eq!(e.ref_log[1].version, 2);
        // Invariant: last record's text is the current text.
        assert!(Arc::ptr_eq(&e.ref_log[1].text_after, &e.text));
    }

    #[test]
    fn text_at_version_recovers_history() {
        let mut e = PromptEntry::new("v1", "f", RefinementMode::Manual);
        e.apply_refinement(
            "v2".into(),
            RefAction::Update,
            "f2",
            RefinementMode::Auto,
            1,
            None,
            BTreeMap::new(),
            None,
        );
        assert_eq!(e.text_at_version(1).map(AsRef::as_ref), Some("v1"));
        assert_eq!(e.text_at_version(2).map(AsRef::as_ref), Some("v2"));
        assert_eq!(e.text_at_version(3), None);
    }

    #[test]
    fn cache_identity_depends_on_origin() {
        let adhoc = PromptEntry::new("x", "f", RefinementMode::Manual);
        assert_eq!(adhoc.cache_identity(), None);

        let viewed = adhoc.with_origin(PromptOrigin::View {
            name: "med_summary".into(),
            version: 2,
            param_hash: 0xabc,
        });
        let id = viewed.cache_identity().unwrap();
        assert!(id.contains("med_summary@2"));
        assert!(viewed.derives_from_view("med_summary"));
        assert!(!viewed.derives_from_view("other"));
    }

    #[test]
    fn cache_identity_changes_with_entry_version() {
        let mut e =
            PromptEntry::new("x", "f", RefinementMode::Manual).with_origin(PromptOrigin::View {
                name: "v".into(),
                version: 1,
                param_hash: 1,
            });
        let id1 = e.cache_identity().unwrap();
        e.apply_refinement(
            "y".into(),
            RefAction::Update,
            "f",
            RefinementMode::Auto,
            1,
            None,
            BTreeMap::new(),
            None,
        );
        assert_ne!(id1, e.cache_identity().unwrap());
    }

    #[test]
    fn serde_roundtrip() {
        let e = PromptEntry::new("text {{x}}", "f_base", RefinementMode::Assisted)
            .with_param("x", 1)
            .with_tag("clinical");
        let json = serde_json::to_string(&e).unwrap();
        let back: PromptEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
