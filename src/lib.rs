//! # SPEAR — Structured Prompt Execution and Adaptive Refinement
//!
//! A Rust implementation of *"Making Prompts First-Class Citizens for
//! Adaptive LLM Pipelines"* (CIDR 2026): prompts as structured, versioned,
//! adaptive data, governed by a composable operator algebra over the
//! execution-state triple **(P, C, M)**.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`core`] — the prompt algebra, execution state, views, histories,
//!   refinement modes, meta prompts, shadow execution, and replay,
//! - [`kv`] — the versioned key-value substrate backing P and the views,
//! - [`llm`] — a deterministic LLM inference simulator with vLLM-style
//!   automatic prefix caching (swap in a real backend by implementing
//!   [`core::LlmClient`]),
//! - [`retrieval`] — a BM25 document engine with structured and
//!   prompt-based retrieval,
//! - [`optimizer`] — operator fusion, the structured prompt cache,
//!   cost-based refinement planning, predictive refinement, and view
//!   selection,
//! - [`serve`] — an admission-controlled serving layer scheduling request
//!   streams onto executor lanes with cache-affinity routing, priority
//!   classes, deadlines, and a seeded open-loop load generator,
//! - [`cluster`] — a sharded multi-node serving fabric: prefix-aware
//!   request placement over simulated nodes, hot-prefix replication for
//!   skewed families, and deterministic membership churn,
//! - [`dl`] — SPEAR-DL, the declarative language for views and pipelines,
//! - [`data`] — synthetic datasets and metrics used by the benchmarks.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use spear::core::prelude::*;
//!
//! let views = ViewCatalog::new();
//! views.register(
//!     ViewDef::new("qa", "Highlight any use of {{drug}}.\nNotes: {{ctx:notes}}")
//!         .with_param(ParamSpec::required("drug")),
//! );
//! let runtime = Runtime::builder()
//!     .llm(Arc::new(EchoLlm::default()))
//!     .views(views)
//!     .build();
//!
//! let pipeline = Pipeline::builder("demo")
//!     .create_from_view(
//!         "qa_prompt",
//!         "qa",
//!         [("drug".to_string(), Value::from("Enoxaparin"))].into_iter().collect(),
//!     )
//!     .gen("answer_0", "qa_prompt")
//!     .check(Cond::low_confidence(0.7), |b| {
//!         b.refine(
//!             "qa_prompt",
//!             RefAction::Update,
//!             "auto_refine",
//!             Value::Null,
//!             RefinementMode::Auto,
//!         )
//!         .gen("answer_1", "qa_prompt")
//!     })
//!     .build();
//!
//! let mut state = ExecState::new();
//! state.context.set("notes", "enoxaparin 40 mg daily");
//! runtime.execute(&pipeline, &mut state).unwrap();
//! assert!(state.context.contains("answer_0"));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench/`
//! for the harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spear_cluster as cluster;
pub use spear_core as core;
pub use spear_data as data;
pub use spear_dl as dl;
pub use spear_kv as kv;
pub use spear_llm as llm;
pub use spear_optimizer as optimizer;
pub use spear_retrieval as retrieval;
pub use spear_serve as serve;
