//! Refinement replay (paper §4.3, §6).
//!
//! Because every ref_log record stores the text it produced, a prompt
//! entry's evolution can be replayed: reconstructed as of any retained
//! version, verified for internal consistency, or forked into a new entry
//! that shares history up to a chosen point ("roll back to earlier states,
//! or clone successful configurations").

use std::sync::Arc;

use crate::error::{Result, SpearError};
use crate::prompt::PromptEntry;

/// Reconstruct `entry` exactly as it stood at `version`: text, version
/// counter, and the ref_log truncated to that point. Params, tags, and
/// origin are carried over unchanged (they are not versioned per-step).
///
/// # Errors
///
/// Returns [`SpearError::Replay`] when `version` is not in the ref_log.
pub fn replay_to(entry: &PromptEntry, version: u64) -> Result<PromptEntry> {
    let idx = entry
        .ref_log
        .iter()
        .position(|r| r.version == version)
        .ok_or_else(|| {
            SpearError::Replay(format!(
                "version {version} not present in ref_log (have {:?})",
                entry.ref_log.iter().map(|r| r.version).collect::<Vec<_>>()
            ))
        })?;
    let mut out = entry.clone();
    out.ref_log.truncate(idx + 1);
    out.version = version;
    out.text = Arc::clone(&out.ref_log[idx].text_after);
    Ok(out)
}

/// The sequence of `(version, text)` states the entry moved through.
#[must_use]
pub fn evolution(entry: &PromptEntry) -> Vec<(u64, &str)> {
    entry
        .ref_log
        .iter()
        .map(|r| (r.version, &*r.text_after))
        .collect()
}

/// Verify the entry's internal invariants:
///
/// 1. the ref_log is non-empty and versions strictly increase,
/// 2. the final record's version and text match the entry's current state.
///
/// # Errors
///
/// Returns [`SpearError::Replay`] describing the first violated invariant.
pub fn verify(entry: &PromptEntry) -> Result<()> {
    let Some(last) = entry.ref_log.last() else {
        return Err(SpearError::Replay("empty ref_log".to_string()));
    };
    for w in entry.ref_log.windows(2) {
        if w[1].version <= w[0].version {
            return Err(SpearError::Replay(format!(
                "non-increasing versions in ref_log: {} then {}",
                w[0].version, w[1].version
            )));
        }
    }
    if last.version != entry.version {
        return Err(SpearError::Replay(format!(
            "entry version {} does not match last ref_log version {}",
            entry.version, last.version
        )));
    }
    if last.text_after != entry.text {
        return Err(SpearError::Replay(
            "entry text does not match last ref_log text".to_string(),
        ));
    }
    Ok(())
}

/// Fork the entry at `version`: the fork shares history up to that point
/// and then records a `Create`-like note marking the fork, so the two
/// lineages are distinguishable in later analysis. Only the annotated
/// record is copied; the source's own record is untouched.
///
/// # Errors
///
/// Propagates [`replay_to`] errors.
pub fn fork_at(entry: &PromptEntry, version: u64) -> Result<PromptEntry> {
    let mut fork = replay_to(entry, version)?;
    if let Some(last) = fork.ref_log.last_mut().map(Arc::make_mut) {
        let note = format!("forked from lineage at v{version}");
        last.note = Some(match &last.note {
            Some(existing) => format!("{existing}; {note}"),
            None => note,
        });
    }
    Ok(fork)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{RefAction, RefinementMode};
    use std::collections::BTreeMap;

    fn entry_with_versions(n: u64) -> PromptEntry {
        let mut e = PromptEntry::new("text v1", "f_base", RefinementMode::Manual);
        for v in 2..=n {
            e.apply_refinement(
                format!("text v{v}").into(),
                RefAction::Update,
                &format!("f_{v}"),
                RefinementMode::Auto,
                v,
                None,
                BTreeMap::new(),
                None,
            );
        }
        e
    }

    #[test]
    fn replay_reconstructs_intermediate_states() {
        let e = entry_with_versions(4);
        let at2 = replay_to(&e, 2).unwrap();
        assert_eq!(&*at2.text, "text v2");
        assert_eq!(at2.version, 2);
        assert_eq!(at2.ref_log.len(), 2);
        verify(&at2).unwrap();
    }

    #[test]
    fn replay_to_missing_version_errors() {
        let e = entry_with_versions(2);
        assert!(matches!(replay_to(&e, 9), Err(SpearError::Replay(_))));
    }

    #[test]
    fn evolution_lists_all_states() {
        let e = entry_with_versions(3);
        let evo = evolution(&e);
        assert_eq!(evo, vec![(1, "text v1"), (2, "text v2"), (3, "text v3")]);
    }

    #[test]
    fn verify_accepts_well_formed_entries() {
        verify(&entry_with_versions(5)).unwrap();
    }

    #[test]
    fn verify_rejects_text_mismatch() {
        let mut e = entry_with_versions(2);
        e.text = "tampered".into();
        assert!(verify(&e).is_err());
    }

    #[test]
    fn verify_rejects_version_mismatch_and_disorder() {
        let mut e = entry_with_versions(2);
        e.version = 7;
        assert!(verify(&e).is_err());

        let mut e = entry_with_versions(3);
        Arc::make_mut(&mut e.ref_log[2]).version = 2;
        assert!(verify(&e).is_err());

        let mut e = entry_with_versions(1);
        e.ref_log.clear();
        assert!(verify(&e).is_err());
    }

    #[test]
    fn fork_marks_lineage() {
        let e = entry_with_versions(3);
        let fork = fork_at(&e, 2).unwrap();
        assert_eq!(&*fork.text, "text v2");
        assert!(fork
            .ref_log
            .last()
            .unwrap()
            .note
            .as_deref()
            .unwrap()
            .contains("forked"));
        // Original untouched: the fork copied the record it annotated and
        // shares the rest.
        assert_eq!(e.ref_log.len(), 3);
        assert_eq!(e.ref_log[1].note, None);
        assert!(Arc::ptr_eq(&e.ref_log[0], &fork.ref_log[0]));
        assert!(Arc::ptr_eq(&e.ref_log[1].text_after, &fork.text));
    }
}
