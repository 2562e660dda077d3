//! # spear-core — Structured Prompt Execution and Adaptive Refinement
//!
//! An implementation of the SPEAR model from *"Making Prompts First-Class
//! Citizens for Adaptive LLM Pipelines"* (CIDR 2026): a prompt algebra and
//! runtime that treats prompts as structured, versioned, adaptive data.
//!
//! ## The model
//!
//! Execution state is the triple **(P, C, M)**:
//!
//! - [`PromptStore`] (**P**) — named, structured prompt fragments with
//!   parameters, tags, versions, and an embedded refinement log,
//! - [`Context`] (**C**) — runtime data: retrieved documents, intermediate
//!   generations, extracted fields,
//! - [`Metadata`] (**M**) — control signals (confidence, latency, retries)
//!   that drive conditional execution.
//!
//! Pipelines compose six core operators — [`ops::Op::Ret`],
//! [`ops::Op::Gen`], [`ops::Op::Ref`], [`ops::Op::Check`],
//! [`ops::Op::Merge`], [`ops::Op::Delegate`] — each consuming and producing
//! the triple. The derived operators of the paper's Table 2 (EXPAND, RETRY,
//! MAP, SWITCH, VIEW, DIFF) lower onto the core six at construction time
//! (see [`pipeline::PipelineBuilder`]).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use spear_core::prelude::*;
//!
//! // Register a parameterized view (paper §4.2).
//! let views = ViewCatalog::new();
//! views.register(
//!     ViewDef::new(
//!         "med_summary",
//!         "Summarize the patient's medication history and highlight any \
//!          use of {{drug}}.\nNotes: {{ctx:notes}}",
//!     )
//!     .with_param(ParamSpec::required("drug")),
//! );
//!
//! let runtime = Runtime::builder()
//!     .llm(Arc::new(EchoLlm::default()))
//!     .views(views)
//!     .build();
//!
//! // Build the paper's confidence-retry pipeline (§2 / Table 1).
//! let pipeline = Pipeline::builder("enoxaparin_qa")
//!     .create_from_view(
//!         "qa_prompt",
//!         "med_summary",
//!         [("drug".to_string(), Value::from("Enoxaparin"))].into_iter().collect(),
//!     )
//!     .retry_gen(
//!         "answer", "qa_prompt",
//!         Cond::low_confidence(0.7),
//!         "auto_refine", Value::Null, RefinementMode::Auto,
//!         2,
//!     )
//!     .build();
//!
//! let mut state = ExecState::new();
//! state.context.set("notes", "enoxaparin 40 mg daily, started post-op");
//! let report = runtime.execute(&pipeline, &mut state).unwrap();
//! assert!(report.gens >= 1);
//! assert!(state.context.contains("answer_0"));
//!
//! // Every refinement is in the prompt's history (§4.3).
//! let entry = state.prompts.get("qa_prompt").unwrap();
//! assert!(entry.derives_from_view("med_summary"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot-path hygiene: these crates sit on the per-request fast path, where a
// stray clone or to_string() is a real regression, not a style nit.
#![deny(clippy::redundant_clone, clippy::inefficient_to_string)]

pub mod agent;
pub mod analysis;
pub mod batch;
pub mod cancel;
pub mod condition;
pub mod context;
pub mod diff;
pub mod error;
mod exec;
pub mod features;
pub mod history;
pub(crate) mod identity;
pub mod llm;
pub mod meta;
pub mod metadata;
pub mod ops;
pub mod pipeline;
pub mod plan;
pub mod prompt;
pub mod refiner;
pub mod replay;
pub mod retriever;
pub mod runtime;
pub mod scope;
pub mod segment;
pub mod shadow;
pub mod store;
pub mod template;
pub mod trace;
pub mod value;
pub mod view;
pub mod vm;

pub use analysis::{Diagnostic, Lint, LintPass, Severity, Verifier};
pub use batch::{AssignedJob, BatchOutcome, BatchRunner};
pub use cancel::CancelToken;
pub use condition::{CmpOp, Cond, Operand};
pub use context::Context;
pub use error::{Result, SpearError};
pub use features::PromptFeatures;
pub use history::{RefAction, RefLogRecord, RefinementMode};
pub use llm::{
    EchoLlm, GenOptions, GenRequest, GenResponse, GenReuse, LlmClient, PromptIdentity, ReusePolicy,
};
pub use metadata::{Metadata, ReuseEvent, TokenUsage};
pub use ops::{MergePolicy, Op, PayloadSpec, PromptRef};
pub use pipeline::{Pipeline, PipelineBuilder};
pub use plan::lower;
pub use prompt::{PromptEntry, PromptOrigin};
pub use runtime::{ExecReport, ExecState, Runtime, RuntimeBuilder, RuntimeConfig};
pub use segment::{SegmentedText, TextSegment};
pub use store::PromptStore;
pub use value::Value;
pub use view::{ParamSpec, ViewCatalog, ViewDef};
pub use vm::{CheckSpec, ConstPool, LeafSpec, Program, VmOp};

/// Convenient glob-import of the most-used types.
pub mod prelude {
    pub use crate::agent::{Agent, FnAgent};
    pub use crate::analysis::{Diagnostic, Lint, LintPass, Severity, Verifier};
    pub use crate::batch::{AssignedJob, BatchOutcome, BatchRunner};
    pub use crate::cancel::CancelToken;
    pub use crate::condition::{CmpOp, Cond, Operand};
    pub use crate::context::Context;
    pub use crate::error::{Result, SpearError};
    pub use crate::features::PromptFeatures;
    pub use crate::history::{RefAction, RefinementMode};
    pub use crate::llm::{
        EchoLlm, GenOptions, GenRequest, GenResponse, GenReuse, LlmClient, PromptIdentity,
        ReusePolicy, ScriptedLlm,
    };
    pub use crate::metadata::{Metadata, ReuseEvent, TokenUsage};
    pub use crate::ops::{MergePolicy, Op, PayloadSpec, PromptRef};
    pub use crate::pipeline::{Pipeline, PipelineBuilder};
    pub use crate::plan::lower;
    pub use crate::prompt::{PromptEntry, PromptOrigin};
    pub use crate::refiner::{FnRefiner, RefineCtx, RefineOutput, Refiner};
    pub use crate::retriever::{
        InMemoryRetriever, RetrievalQuery, RetrievalRequest, RetrievedDoc, Retriever,
    };
    pub use crate::runtime::{ExecReport, ExecState, Runtime, RuntimeBuilder, RuntimeConfig};
    pub use crate::segment::{SegmentedText, TextSegment};
    pub use crate::store::PromptStore;
    pub use crate::trace::{Trace, TraceEvent, TraceKind};
    pub use crate::value::{map, Value};
    pub use crate::view::{ParamSpec, ViewCatalog, ViewDef};
    pub use crate::vm::{ConstPool, Program, VmOp};
}
