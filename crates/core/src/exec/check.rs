//! CHECK — conditional execution (paper §3.3).

use std::sync::Arc;

use crate::condition::Cond;
use crate::error::Result;
use crate::runtime::ExecState;
use crate::trace::TraceKind;
use crate::value::Value;

/// Evaluate a condition and record the `CheckTaken`/`CheckSkipped` event
/// under `label`, which must be exactly `format!("CHECK[{cond}]")` (the
/// tree walk passes `Op::describe()`, the compiled VM its check spec's) so
/// traces stay byte-identical. The event shares the label, so recording it
/// allocates nothing. Evaluation errors record nothing here — the spine
/// logs them.
pub(crate) fn eval_labeled(cond: &Cond, label: &Arc<str>, state: &mut ExecState) -> Result<bool> {
    let holds = cond.eval(&state.context, &state.metadata)?;
    state.trace.record(
        state.step,
        if holds {
            TraceKind::CheckTaken
        } else {
            TraceKind::CheckSkipped
        },
        Arc::clone(label),
        Value::Bool(holds),
    );
    Ok(holds)
}
