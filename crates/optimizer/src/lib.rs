//! # spear-optimizer — query-engine-style optimizations for prompt pipelines
//!
//! Implements the optimization strategies of the SPEAR paper's §5:
//!
//! - [`fusion`] — **selectivity-aware operator fusion**: per-item
//!   Map/Filter stages built as one core pipeline in a sequential
//!   (predicate-pushdown) or fused form, run on the core batch runner, and
//!   the cost-model decision between the two forms,
//! - [`gen_fusion`] — fusing adjacent shared-context GENs in core pipelines
//!   into one sectioned call, with output redistribution,
//! - [`meta_opt`] — §4.4 meta-optimization: replacing underperforming
//!   refiners in pipelines based on mined ref_log evidence,
//! - [`explain`](mod@explain) — EXPLAIN-style rendering of the operator
//!   tree with cost estimates and optimization hints ("instrumented like
//!   query plans"),
//! - [`listing`](mod@listing) — the one byte-stable listing of a lowered
//!   plan's slots, with its compiled program's spec operands, specs and
//!   static bounds when it compiles, and the verifier's
//!   diagnostics when passed,
//! - [`cost`] — a linear latency [`cost::CostModel`] calibrated online by
//!   least squares from observed `(tokens, latency)` pairs,
//! - [`prompt_cache`] — the **structured prompt cache** indexed by view
//!   name, parameter hash, and refinement version,
//! - [`refinement_planner`] — **cost-based refinement planning**: rank
//!   refiners by learned utility density, skip low-impact ones, respect
//!   token/latency budgets,
//! - [`predictive`] — **predictive refinement**: a calibrated risk model
//!   that refines *before* generating when low confidence is anticipated,
//! - [`view_selector`] — **view-guided refinement**: cost-based selection
//!   of the base view minimizing refinement effort, warm-cache aware.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot-path hygiene: these crates sit on the per-request fast path, where a
// stray clone or to_string() is a real regression, not a style nit.
#![deny(clippy::redundant_clone, clippy::inefficient_to_string)]
// No `unwrap` or `expect` outside tests; each test module allows them.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cost;
pub mod explain;
pub mod fusion;
pub mod gen_fusion;
pub mod listing;
pub mod meta_opt;
pub mod predictive;
pub mod prompt_cache;
pub mod refinement_planner;
pub mod view_selector;

pub use cost::{CostModel, CostObservation};
pub use explain::{explain, ExplainAssumptions, PlanCost};
pub use fusion::{decide, FusionDecision, PlanEstimates, RunReport, Stage, StageEstimate};
pub use gen_fusion::{find_opportunities, fuse_pipeline, GenFusionOpportunity};
pub use listing::listing;
pub use meta_opt::{replace_underperformers, AppliedSubstitution, MetaOptConfig, Substitute};
pub use predictive::{RiskModel, RiskSample, RiskWeights};
pub use prompt_cache::{CachedPrompt, PromptCacheStats, StructuredPromptCache};
pub use refinement_planner::{plan as plan_refinements, Budget, RefinementPlan, RefinerProfile};
pub use view_selector::{rank_views, select_view, SelectorWeights, ViewChoice};
