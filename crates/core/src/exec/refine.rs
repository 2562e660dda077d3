//! REF — prompt construction and refinement (paper §3.3, §4.3).

use std::sync::Arc;

use crate::error::{Result, SpearError};
use crate::history::{RefAction, RefLogRecord, RefinementMode};
use crate::refiner::RefineCtx;
use crate::runtime::{ExecState, Runtime};
use crate::trace::{branch_text, shared, Detail, TraceKind, Trigger};
use crate::value::Value;
use crate::vm::Branch;

/// Handler for [`crate::ops::Op::Ref`]: runs the refiner and applies its
/// output — either a new prompt version (recorded in the ref_log with the
/// CHECK trigger that caused it) or context writes. `trigger` is the
/// innermost enclosing branch and the text its check holds for it; the
/// trace event shares that text.
#[allow(clippy::too_many_arguments)] // mirrors Op::Ref's five fields plus spine context
pub(crate) fn run(
    rt: &Runtime,
    target: &str,
    action: RefAction,
    refiner_name: &str,
    args: &Value,
    mode: RefinementMode,
    trigger: Option<(&Arc<str>, Branch)>,
    state: &mut ExecState,
) -> Result<()> {
    let refiner = rt.refiner(refiner_name)?;
    let current = state.prompts.try_get(target);
    if current.is_none() && action != RefAction::Create {
        return Err(SpearError::PromptNotFound(target.to_string()));
    }
    let output = {
        let rcx = RefineCtx {
            current: current.as_deref(),
            context: &state.context,
            metadata: &state.metadata,
            llm: rt.llm.as_deref(),
            views: &rt.views,
            prompts: &state.prompts,
            args,
        };
        refiner.refine(&rcx)?
    };

    let mut new_version = None;
    if let Some(new_text) = output.new_text {
        // Params / origin from the refiner (e.g. from_view) belong to the
        // same version: the entry is stored once, complete.
        let record = RefLogRecord {
            step: state.step,
            action,
            f_name: refiner_name.to_string(),
            mode,
            trigger: trigger.map(|(text, branch)| branch_text(text, branch).to_string()),
            signals: state.metadata.signal_snapshot(),
            version: current.as_ref().map_or(1, |c| c.version + 1),
            text_after: new_text,
            note: output.note,
        };
        new_version = Some(state.prompts.store_refined(
            target,
            current.as_deref(),
            record,
            output.params,
            output.origin,
        ));
    } else {
        for (key, value) in &output.ctx_writes {
            state
                .context
                .set_attributed(key.clone(), value.clone(), state.step, "REF");
        }
    }
    if new_version.is_some() {
        for (key, value) in &output.ctx_writes {
            state
                .context
                .set_attributed(key.clone(), value.clone(), state.step, "REF");
        }
    }
    state.metadata.ref_calls += 1;
    state.trace.record(
        state.step,
        TraceKind::Ref,
        shared(format_args!(
            "REF[{action}, {refiner_name}] on P[{target:?}]"
        )),
        Detail::Ref {
            mode,
            version: new_version.unwrap_or(0),
            trigger: trigger.map(|(text, branch)| Trigger::new(text, branch)),
        },
    );
    Ok(())
}
