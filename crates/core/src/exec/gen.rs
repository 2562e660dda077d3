//! GEN — LLM invocation (paper §3.3).

use std::collections::BTreeMap;

use crate::error::{Result, SpearError};
use crate::llm::{GenOptions, GenRequest, GenResponse, PromptIdentity};
use crate::ops::PromptRef;
use crate::prompt::PromptEntry;
use crate::runtime::{ExecState, Runtime};
use crate::template::PromptText;
use crate::trace::{shared, Detail, TraceKind};

/// The request GEN sends for `prompt`: its rendered text, the segments it
/// joins from (the renderer's literal/value boundaries, so backends can
/// memoize tokenization of shared prefixes), and its identity, which
/// carries the structure-gates-caching rule: only structured prompts
/// (store entries, views, lowered prompts with a plan identity) are
/// cacheable. Every form renders from a text that carries its parse: the
/// P entry's version, the view's resolution, or the operator's own text.
fn request(
    rt: &Runtime,
    prompt: &PromptRef,
    options: &GenOptions,
    state: &ExecState,
) -> Result<GenRequest> {
    let stored = |e: &PromptEntry| -> Result<_> {
        Ok((e.render_segmented(&state.context)?, e.cache_identity()))
    };
    let render = |text: &PromptText| text.render(&BTreeMap::new(), &state.context);
    let (segments, identity) = match prompt {
        PromptRef::Key(key) => stored(&*state.prompts.get(key)?)?,
        PromptRef::View { name, args } => stored(&rt.views.instantiate(name, args.clone())?)?,
        PromptRef::Inline(text) => (render(text)?, None),
        PromptRef::Lowered { text, identity } => (render(text)?, identity.clone()),
    };
    Ok(GenRequest {
        text: segments.join(),
        identity: identity.map_or(PromptIdentity::Opaque, |id| PromptIdentity::Structured {
            id,
        }),
        options: options.clone(),
        segments: Some(segments),
    })
}

/// Handler for [`crate::ops::Op::Gen`]: renders the prompt, calls the
/// backend, and records the generation in C, M, and the trace. The
/// response's text moves into C and its model name into the trace event.
pub(crate) fn run(
    rt: &Runtime,
    label: &str,
    prompt: &PromptRef,
    options: &GenOptions,
    state: &mut ExecState,
) -> Result<()> {
    let llm = rt.llm.as_deref().ok_or(SpearError::LlmUnavailable {
        requested_by: "GEN".into(),
    })?;
    let (response, reuse) =
        llm.generate_with_reuse(&request(rt, prompt, options, state)?, state.reuse)?;
    let GenResponse {
        text,
        confidence,
        usage,
        latency,
        model,
        ..
    } = response;
    state.context.set_attributed(label, text, state.step, "GEN");
    state.metadata.record_gen(usage, latency, confidence);
    if let Some(reuse) = reuse {
        state.metadata.record_reuse(reuse.key, reuse.reused, usage);
    }
    state
        .metadata
        .set(format!("confidence:{label}"), confidence);
    state.trace.record(
        state.step,
        TraceKind::Gen,
        shared(format_args!("GEN[{label:?}]")),
        Detail::Gen {
            model,
            confidence,
            usage,
            latency_us: u64::try_from(latency.as_micros()).unwrap_or(u64::MAX),
        },
    );
    Ok(())
}
