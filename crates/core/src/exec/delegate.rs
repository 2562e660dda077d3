//! DELEGATE — offloading subtasks to agents (paper §3.3).

use crate::error::{Result, SpearError};
use crate::ops::PayloadSpec;
use crate::runtime::{ExecState, Runtime};
use crate::trace::{shared, TraceKind};
use crate::value::Value;

/// Handler for [`crate::ops::Op::Delegate`]: resolves the agent, builds
/// the payload, and writes the agent's result into C.
pub(crate) fn run(
    rt: &Runtime,
    agent_name: &str,
    payload: &PayloadSpec,
    into: &str,
    state: &mut ExecState,
) -> Result<()> {
    let agent = rt.agent(agent_name)?;
    let payload_value = match payload {
        PayloadSpec::CtxKey(k) => state.context.get(k).ok_or_else(|| SpearError::Agent {
            agent: agent_name.to_string(),
            reason: format!("payload context key {k:?} missing"),
        })?,
        PayloadSpec::PromptKey(k) => {
            let entry = state.prompts.get(k)?;
            Value::from(entry.render(&state.context)?)
        }
        PayloadSpec::Lit(v) => v.clone(),
    };
    let result = agent.call(&payload_value, &state.context)?;
    state
        .context
        .set_attributed(into, result, state.step, "DELEGATE");
    state.trace.record(
        state.step,
        TraceKind::Delegate,
        shared(format_args!("DELEGATE[{agent_name:?}] -> C[{into:?}]")),
        Value::Null,
    );
    Ok(())
}
