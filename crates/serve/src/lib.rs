//! # spear-serve — admission-controlled, cache-affinity request scheduling
//!
//! A serving layer over the SPEAR runtime: long-lived [`ServeNode`]s
//! accept pipeline-execution requests, shed load explicitly when
//! overloaded, schedule two priority classes starvation-free, and route
//! requests that share a structured prompt prefix to the same cache
//! stripe and worker lane — turning the prompt identity that SPEAR makes
//! first-class into prefix-cache hit-rate, the serving-side payoff the
//! paper argues for (§5–§6).
//!
//! The layer is built from four pieces:
//!
//! - [`queue::AdmissionQueue`] — bounded per-class FIFOs behind a
//!   token-bucket admission gate; overload produces a typed
//!   [`ServeError::Overloaded`], never a silent drop, and an aging rule
//!   bounds how long interactive floods can starve batch work;
//! - [`scheduler::ServeNode`] — a virtual-time dispatch loop over
//!   [`spear_core::batch::BatchRunner`] lanes with per-request deadlines
//!   (cooperative cancellation between plan slots) and cache-affinity
//!   placement via [`spear_core::plan::LoweredPlan::affinity_seed`];
//! - [`loadgen`] — a seeded open-loop generator producing reproducible
//!   workloads for benchmarks and tests;
//! - [`metrics::ServeReport`] — a serializable snapshot: admission and
//!   completion counters, queue-depth/latency histograms, and cache
//!   hit-rates split by priority class.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use spear_serve::prelude::*;
//! use spear_llm::{ModelProfile, SimLlm};
//! use spear_core::runtime::Runtime;
//!
//! // A reproducible workload: 24 requests over 3 prompt families.
//! let workload = generate(&LoadGenConfig {
//!     seed: 7,
//!     requests: 24,
//!     families: 3,
//!     ..LoadGenConfig::default()
//! });
//!
//! let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
//! let runtime = Runtime::builder()
//!     .llm(Arc::clone(&engine) as Arc<dyn spear_core::llm::LlmClient>)
//!     .views(workload.views.clone())
//!     .build();
//!
//! let node = ServeNode::new(ServeConfig {
//!     lanes: 4,
//!     affinity_routing: true,
//!     ..ServeConfig::default()
//! });
//! let run = node.run(&runtime, Some(&engine), workload.requests);
//!
//! assert_eq!(run.outcomes.len(), 24);
//! let completed = run.report.interactive.completed + run.report.batch.completed;
//! assert_eq!(completed, 24);
//! // Affinity routing makes family members share their instruction
//! // prefix in the cache, so the run sees real hit-rate.
//! assert!(run.report.cache_hit_rate().unwrap() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone, clippy::inefficient_to_string)]

pub mod error;
pub mod kv;
pub mod loadgen;
pub mod metrics;
pub mod program_cache;
pub mod queue;
pub mod request;
pub mod scheduler;

pub use error::ServeError;
pub use kv::KvPressureConfig;
pub use loadgen::{generate, GeneratedWorkload, LoadGenConfig};
pub use metrics::{
    ClassReport, ClusterLinkage, CompileReport, Histogram, HistogramSummary, KvReport, ReuseReport,
    ServeReport,
};
pub use program_cache::ProgramCache;
pub use queue::{AdmissionConfig, AdmissionQueue, ClassFifo};
pub use request::{Priority, ServeRequest};
pub use scheduler::{ServeConfig, ServeNode, ServeOutcome, ServeRun, ServeStatus};

/// Glob-import of the serving layer's main types.
pub mod prelude {
    pub use crate::error::ServeError;
    pub use crate::kv::KvPressureConfig;
    pub use crate::loadgen::{generate, GeneratedWorkload, LoadGenConfig};
    pub use crate::metrics::{
        ClassReport, ClusterLinkage, CompileReport, Histogram, HistogramSummary, KvReport,
        ReuseReport, ServeReport,
    };
    pub use crate::program_cache::ProgramCache;
    pub use crate::queue::{AdmissionConfig, AdmissionQueue, ClassFifo};
    pub use crate::request::{Priority, ServeRequest};
    pub use crate::scheduler::{ServeConfig, ServeNode, ServeOutcome, ServeRun, ServeStatus};
}
