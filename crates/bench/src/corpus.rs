//! The golden plan corpus: the representative plans the `analyze` gate
//! checks and the `disasm` bin lists.

use std::collections::BTreeMap;

use spear_core::prelude::*;
use spear_optimizer::lower_physical;
use spear_optimizer::plan::{PhysicalPlan, SemanticPlan};

/// The paper's confidence-retry pipeline (§2, Table 1).
fn retry_pipeline() -> Pipeline {
    let args: BTreeMap<String, Value> = [("drug".to_string(), Value::from("Enoxaparin"))]
        .into_iter()
        .collect();
    Pipeline::builder("enoxaparin_qa")
        .create_from_view("qa_prompt", "med_summary", args)
        .retry_gen(
            "answer",
            "qa_prompt",
            Cond::low_confidence(0.7),
            "auto_refine",
            Value::Null,
            RefinementMode::Auto,
            2,
        )
        .build()
}

/// A specialization-idiom exemplar: the `Never` guard makes its then
/// branch statically dead, so the bytecode pass reports W005 (decided
/// condition) and W004 (unreachable compiled slot). Warnings, not errors
/// — the gate stays green while still demonstrating the lints.
fn gated_pipeline() -> Pipeline {
    Pipeline::builder("gated_exemplar")
        .create_text("p", "base", RefinementMode::Manual)
        .gen("a", "p")
        .check(Cond::Never, |t| t.gen("b", "p"))
        .build()
}

/// Every corpus plan, lowered, with its section title, in report order:
/// confidence retry, the sentiment workload's sequential, fused and
/// reordered (pushdown) physical shapes, and the gated exemplar.
///
/// # Panics
///
/// If a corpus plan fails to lower, which would be a lowering bug.
#[must_use]
pub fn plans() -> Vec<(&'static str, LoweredPlan)> {
    let semantic = SemanticPlan::map_then_filter("Clean up the tweet.", "Keep negative tweets.")
        .with_identity("view:tweet_pipeline@1");
    let reordered = SemanticPlan::filter_then_map("Keep negative tweets.", "Clean up the tweet.");
    let physical = |plan: PhysicalPlan| lower_physical(&plan).expect("physical plan lowers");
    vec![
        (
            "confidence-retry (paper §2, Table 1)",
            lower(&retry_pipeline()).expect("pipeline lowers"),
        ),
        (
            "sentiment, sequential Map→Filter",
            physical(PhysicalPlan::sequential(&semantic)),
        ),
        (
            "sentiment, fused Map+Filter",
            physical(PhysicalPlan::fused(&semantic)),
        ),
        (
            "sentiment, reordered Filter→Map (pushdown)",
            physical(PhysicalPlan::sequential(&reordered)),
        ),
        (
            "statically-gated exemplar (W004/W005)",
            lower(&gated_pipeline()).expect("pipeline lowers"),
        ),
    ]
}
