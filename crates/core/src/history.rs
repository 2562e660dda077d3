//! Prompt histories: the embedded `ref_log` (paper §4.3).
//!
//! "SPEAR tracks each prompt fragment's evolution over time through an
//! embedded ref_log, which records refinements applied to a prompt along
//! with metadata, such as the refinement function, action type, and
//! triggering condition."
//!
//! Each record also snapshots the runtime signals at application time and
//! the resulting text, which makes rollback, replay, and meta-optimization
//! (§4.4) possible without external state.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::template::PromptText;
use crate::value::Value;

/// The action type of a refinement (the first argument of `REF[action, f]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RefAction {
    /// Construct the entry (or replace it wholesale with a fresh lineage).
    Create,
    /// Append text to the end of the prompt.
    Append,
    /// Prepend text to the start of the prompt.
    Prepend,
    /// Transform the existing text (rewrite, inject, normalize, …).
    Update,
    /// Result of a MERGE of two prompt fragments.
    Merge,
    /// Restored an earlier version.
    Rollback,
}

impl fmt::Display for RefAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RefAction::Create => "CREATE",
            RefAction::Append => "APPEND",
            RefAction::Prepend => "PREPEND",
            RefAction::Update => "UPDATE",
            RefAction::Merge => "MERGE",
            RefAction::Rollback => "ROLLBACK",
        };
        f.write_str(s)
    }
}

/// Who (or what) selected and executed the refinement function (paper §4.1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum RefinementMode {
    /// The user wrote and applied the refinement explicitly.
    #[default]
    Manual,
    /// The user provided high-level intent; an LLM generated the refinement.
    Assisted,
    /// The system monitored runtime metadata and triggered the refinement.
    Auto,
}

impl RefinementMode {
    /// The mode's name in the paper's notation (`MANUAL`, `ASSISTED`,
    /// `AUTO`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RefinementMode::Manual => "MANUAL",
            RefinementMode::Assisted => "ASSISTED",
            RefinementMode::Auto => "AUTO",
        }
    }
}

impl fmt::Display for RefinementMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One step in a prompt's evolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefLogRecord {
    /// Executor step at which the refinement was applied (0 outside a
    /// pipeline run).
    pub step: u64,
    /// Action type.
    pub action: RefAction,
    /// Name of the refinement function `f` (e.g. `"f_add_reasoning_hint"`).
    pub f_name: String,
    /// Refinement mode in force.
    pub mode: RefinementMode,
    /// The condition that triggered the refinement, if any — e.g.
    /// `M["confidence"] < 0.7` rendered as text.
    pub trigger: Option<String>,
    /// Runtime signal snapshot at application time (confidence, latency, …).
    pub signals: BTreeMap<String, Value>,
    /// The prompt version this record produced.
    pub version: u64,
    /// The full prompt text after this refinement, with its parse. Storing
    /// the text (not a diff) keeps rollback and replay trivially correct.
    /// Each text is one shared allocation: the entry's `text`, this record,
    /// and the same record in every later version of the entry all point at
    /// it, so *k* refinements hold *k* + 1 texts however many versions P
    /// retains. The ref_log itself is append-only and never pruned.
    pub text_after: PromptText,
    /// Free-form note from the refiner (e.g. the assisted LLM's rationale).
    pub note: Option<String>,
}

impl RefLogRecord {
    /// Compact single-line rendering for logs and meta prompts.
    #[must_use]
    pub fn summary(&self) -> String {
        let trigger = self
            .trigger
            .as_deref()
            .map(|t| format!(" on {t}"))
            .unwrap_or_default();
        format!(
            "v{} {} {} f={}{trigger}",
            self.version, self.mode, self.action, self.f_name
        )
    }
}

/// Query helpers over a slice of ref-log records, owned or shared (an
/// entry's `ref_log` is a `[Arc<RefLogRecord>]`).
pub trait RefLogExt {
    /// Records applied in a given mode.
    fn in_mode(&self, mode: RefinementMode) -> Vec<&RefLogRecord>;
    /// The record that produced `version`, if retained.
    fn at_version(&self, version: u64) -> Option<&RefLogRecord>;
    /// Confidence signal trajectory: `(version, confidence)` for records
    /// that captured one.
    fn confidence_trajectory(&self) -> Vec<(u64, f64)>;
}

impl<T: Borrow<RefLogRecord>> RefLogExt for [T] {
    fn in_mode(&self, mode: RefinementMode) -> Vec<&RefLogRecord> {
        self.iter()
            .map(Borrow::borrow)
            .filter(|r| r.mode == mode)
            .collect()
    }

    fn at_version(&self, version: u64) -> Option<&RefLogRecord> {
        self.iter()
            .map(Borrow::borrow)
            .find(|r| r.version == version)
    }

    fn confidence_trajectory(&self) -> Vec<(u64, f64)> {
        self.iter()
            .map(Borrow::borrow)
            .filter_map(|r| {
                r.signals
                    .get("confidence")
                    .and_then(Value::as_f64)
                    .map(|c| (r.version, c))
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn record(version: u64, mode: RefinementMode, conf: Option<f64>) -> RefLogRecord {
        let mut signals = BTreeMap::new();
        if let Some(c) = conf {
            signals.insert("confidence".to_string(), Value::from(c));
        }
        RefLogRecord {
            step: version,
            action: if version == 1 {
                RefAction::Create
            } else {
                RefAction::Update
            },
            f_name: format!("f_{version}"),
            mode,
            trigger: None,
            signals,
            version,
            text_after: format!("text v{version}").into(),
            note: None,
        }
    }

    #[test]
    fn summary_is_compact_and_complete() {
        let mut r = record(2, RefinementMode::Auto, None);
        r.trigger = Some("M[\"confidence\"] < 0.7".into());
        let s = r.summary();
        assert!(s.contains("v2"));
        assert!(s.contains("AUTO"));
        assert!(s.contains("UPDATE"));
        assert!(s.contains("f_2"));
        assert!(s.contains("confidence"));
    }

    #[test]
    fn mode_filtering() {
        let log = [
            Arc::new(record(1, RefinementMode::Manual, None)),
            Arc::new(record(2, RefinementMode::Assisted, None)),
            Arc::new(record(3, RefinementMode::Auto, None)),
            Arc::new(record(4, RefinementMode::Auto, None)),
        ];
        assert_eq!(log.in_mode(RefinementMode::Auto).len(), 2);
        assert_eq!(log.in_mode(RefinementMode::Manual).len(), 1);
    }

    #[test]
    fn version_lookup_and_trajectory() {
        let log = [
            Arc::new(record(1, RefinementMode::Manual, Some(0.5))),
            Arc::new(record(2, RefinementMode::Auto, None)),
            Arc::new(record(3, RefinementMode::Auto, Some(0.8))),
        ];
        assert_eq!(log.at_version(2).unwrap().f_name, "f_2");
        assert!(log.at_version(9).is_none());
        assert_eq!(log.confidence_trajectory(), vec![(1, 0.5), (3, 0.8)]);
    }

    #[test]
    fn serde_roundtrip_matches_paper_shape() {
        // The paper's example: {"action": "CREATE", "f": "f_base"} etc.
        let r = record(1, RefinementMode::Manual, Some(0.7));
        let json = serde_json::to_string(&r).unwrap();
        let back: RefLogRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        assert!(json.contains("\"Create\""));
    }

    #[test]
    fn display_of_enums() {
        assert_eq!(RefAction::Create.to_string(), "CREATE");
        assert_eq!(RefinementMode::Assisted.to_string(), "ASSISTED");
    }
}
