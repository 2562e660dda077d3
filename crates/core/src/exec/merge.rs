//! MERGE — reconciling two prompt fragments (paper §3.3).

use crate::error::{Result, SpearError};
use crate::history::{RefAction, RefinementMode};
use crate::ops::MergePolicy;
use crate::prompt::{PromptEntry, PromptOrigin};
use crate::runtime::ExecState;
use crate::trace::{shared, Detail, TraceKind};

/// Handler for [`crate::ops::Op::Merge`]: applies the reconciliation
/// policy and records the merged entry (with `Merged` origin) under the
/// target key.
pub(crate) fn run(
    left: &str,
    right: &str,
    into: &str,
    policy: &MergePolicy,
    state: &mut ExecState,
) -> Result<()> {
    let l = state
        .prompts
        .try_get(left)
        .ok_or_else(|| SpearError::Merge(format!("left prompt {left:?} missing")))?;
    let r = state
        .prompts
        .try_get(right)
        .ok_or_else(|| SpearError::Merge(format!("right prompt {right:?} missing")))?;

    let (base, merged_text, choice) = match policy {
        MergePolicy::PreferLeft => {
            let text = l.text.clone();
            (l, text, "left")
        }
        MergePolicy::PreferRight => {
            let text = r.text.clone();
            (r, text, "right")
        }
        MergePolicy::Concat { separator } => {
            // Starts with the left text, so the left parse extends.
            let text = l.text.successor(format!("{}{separator}{}", l.text, r.text));
            (l, text, "concat")
        }
        MergePolicy::BySignal {
            left_signal,
            right_signal,
        } => {
            let ls = state.metadata.get(left_signal).and_then(|v| v.as_f64());
            let rs = state.metadata.get(right_signal).and_then(|v| v.as_f64());
            let (winner, choice) = match (ls, rs) {
                (Some(a), Some(b)) if b > a => (r, "right"),
                _ => (l, "left"),
            };
            let text = winner.text.clone();
            (winner, text, choice)
        }
    };

    let mut base = PromptEntry::clone(&base);
    base.apply_refinement(
        merged_text,
        RefAction::Merge,
        &format!("merge:{policy:?}"),
        RefinementMode::Manual,
        state.step,
        None,
        state.metadata.signal_snapshot(),
        Some(format!("merged {left:?} + {right:?} ({choice})")),
    );
    base.origin = PromptOrigin::Merged {
        left: left.to_string(),
        right: right.to_string(),
    };
    state.prompts.insert(into, base);
    state.trace.record(
        state.step,
        TraceKind::Merge,
        shared(format_args!(
            "MERGE[P[{left:?}], P[{right:?}]] -> P[{into:?}]"
        )),
        Detail::Choice(choice),
    );
    Ok(())
}
