//! RET — retrieval into the context (paper §3.3).

use crate::error::Result;
use crate::retriever::{RetrievalQuery, RetrievalRequest};
use crate::runtime::{ExecState, Runtime};
use crate::trace::{shared, Detail, TraceKind};
use crate::value::Value;

/// Handler for [`crate::ops::Op::Ret`]: resolves the retriever, renders a
/// prompt-based query when one is configured (so REF can refine retrieval
/// intent), and writes the documents into C.
pub(crate) fn run(
    rt: &Runtime,
    source: &str,
    query: &RetrievalQuery,
    prompt: Option<&str>,
    into: &str,
    limit: usize,
    state: &mut ExecState,
) -> Result<()> {
    let retriever = rt.retriever(source)?;
    let effective_query = match prompt {
        Some(key) => {
            let entry = state.prompts.get(key)?;
            RetrievalQuery::Prompt(entry.render(&state.context)?)
        }
        None => query.clone(),
    };
    let request = RetrievalRequest {
        source: source.to_string(),
        query: effective_query,
        limit,
    };
    let docs = retriever.retrieve(&request)?;
    let count = docs.len();
    state.context.set_attributed(
        into,
        Value::List(docs.iter().map(|d| d.to_value()).collect()),
        state.step,
        "RET",
    );
    state.metadata.set("retrieved_count", count);
    state.trace.record(
        state.step,
        TraceKind::Ret,
        shared(format_args!("RET[{source:?}] -> C[{into:?}]")),
        Detail::Ret { count },
    );
    Ok(())
}
