//! GEN-to-GEN fusion over core pipelines (paper §5, "Operator Fusion",
//! first paragraph).
//!
//! "When fusing adjacent GEN operations, SPEAR distinguishes between
//! semantically coupled and independent use cases. When GENs share context,
//! such as generating multiple sections from the same view, they can be
//! fused into a single prompt to reduce token duplication and improve
//! coherence." This module finds runs of adjacent GENs that read the *same
//! stored prompt* and rewrites them into:
//!
//! 1. a `REF[APPEND]` adding a sectioning instruction to the shared prompt
//!    (recorded in its ref_log like any other refinement),
//! 2. one fused `GEN` producing all sections, and
//! 3. a `REF` with the built-in `split_sections` refiner distributing the
//!    sections back to the labels the original GENs would have written —
//!    downstream operators are unaffected.
//!
//! Independent GENs (different prompts, inline prompts, anything separated
//! by other operators) are never touched: fusing those "may degrade
//! accuracy and hinder retries or evaluation" (§5).

use std::time::Duration;

use spear_core::history::{RefAction, RefinementMode};
use spear_core::llm::GenOptions;
use spear_core::ops::{Op, PromptRef};
use spear_core::pipeline::Pipeline;
use spear_core::value::{map, Value};

use crate::cost::CostModel;

/// Section separator the fused prompt asks for and the splitter parses.
pub const SECTION_SEPARATOR: &str = "\n===\n";

/// A fusable run of adjacent shared-context GENs.
#[derive(Debug, Clone, PartialEq)]
pub struct GenFusionOpportunity {
    /// Index of the first GEN in the pipeline's top-level ops.
    pub start: usize,
    /// Number of fused GENs (≥ 2).
    pub len: usize,
    /// The shared prompt key.
    pub prompt_key: String,
    /// Labels the GENs write, in order.
    pub labels: Vec<String>,
    /// Estimated saving from fusing this run.
    pub estimated_saving: Duration,
}

/// Estimate the saving of collapsing `run_len` calls over a shared prompt
/// of `prompt_tokens` into one. With prefix caching
/// (`cached_after_first = true`) repeat calls already reuse the prompt, so
/// fusion saves only per-call overhead plus cached re-reads; without it,
/// fusion additionally saves whole prompt prefills.
#[must_use]
pub fn estimate_saving(
    model: &CostModel,
    run_len: usize,
    prompt_tokens: f64,
    cached_after_first: bool,
) -> Duration {
    if run_len < 2 {
        return Duration::ZERO;
    }
    let repeats = (run_len - 1) as f64;
    let per_repeat_prefill = if cached_after_first {
        prompt_tokens * model.cached_us
    } else {
        prompt_tokens * model.prefill_us
    };
    Duration::from_micros((repeats * (model.overhead_us + per_repeat_prefill)) as u64)
}

fn gen_key(op: &Op) -> Option<(&str, &str)> {
    match op {
        Op::Gen {
            label,
            prompt: PromptRef::Key(k),
            ..
        } => Some((k.as_str(), label.as_str())),
        _ => None,
    }
}

/// Find every fusable run in the pipeline's top-level operator sequence.
/// (CHECK branches are intentionally not descended into: their GENs run
/// conditionally, so fusing across them would change semantics.)
#[must_use]
pub fn find_opportunities(
    pipeline: &Pipeline,
    model: &CostModel,
    prompt_tokens_estimate: f64,
    cached_after_first: bool,
) -> Vec<GenFusionOpportunity> {
    let mut out = Vec::new();
    let ops = &pipeline.ops;
    let mut i = 0;
    while i < ops.len() {
        let Some((key, first_label)) = gen_key(&ops[i]) else {
            i += 1;
            continue;
        };
        let mut labels = vec![first_label.to_string()];
        let mut j = i + 1;
        while j < ops.len() {
            match gen_key(&ops[j]) {
                Some((k, label)) if k == key => {
                    labels.push(label.to_string());
                    j += 1;
                }
                _ => break,
            }
        }
        if labels.len() >= 2 {
            out.push(GenFusionOpportunity {
                start: i,
                len: labels.len(),
                prompt_key: key.to_string(),
                estimated_saving: estimate_saving(
                    model,
                    labels.len(),
                    prompt_tokens_estimate,
                    cached_after_first,
                ),
                labels,
            });
        }
        i = j.max(i + 1);
    }
    out
}

/// Rewrite the pipeline, fusing every opportunity. Returns the transformed
/// pipeline and the number of runs fused.
#[must_use]
pub fn fuse_pipeline(pipeline: &Pipeline) -> (Pipeline, usize) {
    // Opportunities are detected structurally; the cost model is not
    // consulted here (callers gate on `find_opportunities` if they want
    // cost-based gating).
    let opportunities = find_opportunities(pipeline, &CostModel::default(), 0.0, true);
    if opportunities.is_empty() {
        return (pipeline.clone(), 0);
    }
    let mut ops = Vec::with_capacity(pipeline.ops.len());
    let mut fused_runs = 0;
    let mut i = 0;
    while i < pipeline.ops.len() {
        if let Some(opp) = opportunities.iter().find(|o| o.start == i) {
            fused_runs += 1;
            let fused_label = format!("fused:{}", opp.labels.join("+"));
            // Collect per-GEN options to size the fused decode budget.
            let max_tokens: u32 = pipeline.ops[i..i + opp.len]
                .iter()
                .map(|op| match op {
                    Op::Gen { options, .. } => options.max_tokens,
                    _ => 0,
                })
                .sum();
            ops.push(Op::Ref {
                target: opp.prompt_key.clone(),
                action: RefAction::Append,
                refiner: "append".to_string(),
                args: Value::from(format!(
                    "Produce one section per requested output, in this order: {}. \
                     Separate sections with a line containing exactly '==='.",
                    opp.labels.join(", ")
                )),
                mode: RefinementMode::Auto,
            });
            ops.push(Op::Gen {
                label: fused_label.clone(),
                prompt: PromptRef::Key(opp.prompt_key.clone()),
                options: GenOptions {
                    max_tokens: max_tokens.max(1),
                    ..GenOptions::default()
                },
            });
            ops.push(Op::Ref {
                target: opp.prompt_key.clone(),
                action: RefAction::Update,
                refiner: "split_sections".to_string(),
                args: map([
                    ("from", Value::from(fused_label)),
                    (
                        "into",
                        Value::List(opp.labels.iter().map(|l| Value::from(l.clone())).collect()),
                    ),
                    ("separator", Value::from(SECTION_SEPARATOR)),
                ]),
                mode: RefinementMode::Auto,
            });
            i += opp.len;
        } else {
            ops.push(pipeline.ops[i].clone());
            i += 1;
        }
    }
    (
        Pipeline {
            name: format!("{}+gen_fused", pipeline.name),
            ops,
        },
        fused_runs,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spear_core::prelude::*;
    use std::sync::Arc;

    fn pipeline_with_shared_gens() -> Pipeline {
        Pipeline::builder("sections")
            .create_text(
                "report_view",
                "Write the requested outputs about the case.",
                RefinementMode::Manual,
            )
            .gen("findings", "report_view")
            .gen("impression", "report_view")
            .gen("unrelated", "other_prompt")
            .build()
    }

    #[test]
    fn finds_shared_context_runs_only() {
        let p = pipeline_with_shared_gens();
        let opps = find_opportunities(&p, &CostModel::default(), 100.0, true);
        assert_eq!(opps.len(), 1);
        assert_eq!(opps[0].prompt_key, "report_view");
        assert_eq!(opps[0].labels, vec!["findings", "impression"]);
        assert!(opps[0].estimated_saving > Duration::ZERO);
    }

    #[test]
    fn independent_gens_are_untouched() {
        let p = Pipeline::builder("independent")
            .gen("a", "prompt_one")
            .gen("b", "prompt_two")
            .gen("c", "prompt_one")
            .build();
        assert!(find_opportunities(&p, &CostModel::default(), 100.0, true).is_empty());
        let (fused, runs) = fuse_pipeline(&p);
        assert_eq!(runs, 0);
        assert_eq!(fused.ops, p.ops);
    }

    #[test]
    fn checks_break_runs() {
        let p = Pipeline::builder("gated")
            .gen("a", "shared")
            .check(Cond::Always, |b| b.gen("hidden", "shared"))
            .gen("b", "shared")
            .build();
        assert!(
            find_opportunities(&p, &CostModel::default(), 100.0, true).is_empty(),
            "a CHECK between GENs makes fusion unsafe"
        );
    }

    #[test]
    fn saving_is_larger_without_prefix_caching() {
        let m = CostModel::default();
        let with_cache = estimate_saving(&m, 3, 400.0, true);
        let without = estimate_saving(&m, 3, 400.0, false);
        assert!(without > with_cache);
        assert_eq!(estimate_saving(&m, 1, 400.0, false), Duration::ZERO);
    }

    #[test]
    fn fused_pipeline_reproduces_the_original_context_keys() {
        // A scripted backend emits a properly sectioned fused response.
        let llm = ScriptedLlm::new(vec![ScriptedLlm::response(
            "the findings section\n===\nthe impression section",
            0.9,
        )]);
        let rt = Runtime::builder().llm(Arc::new(llm)).build();

        let original = Pipeline::builder("sections")
            .create_text("report_view", "Write the outputs.", RefinementMode::Manual)
            .gen("findings", "report_view")
            .gen("impression", "report_view")
            .build();
        let (fused, runs) = fuse_pipeline(&original);
        assert_eq!(runs, 1);

        let mut state = ExecState::new();
        let report = rt.execute(&fused, &mut state).unwrap();
        assert_eq!(report.gens, 1, "one fused call instead of two");
        assert_eq!(
            state.context.get("findings").unwrap().as_str(),
            Some("the findings section")
        );
        assert_eq!(
            state.context.get("impression").unwrap().as_str(),
            Some("the impression section")
        );
        // The sectioning instruction is a recorded refinement on the prompt.
        let entry = state.prompts.get("report_view").unwrap();
        assert!(entry.text.contains("one section per requested output"));
        assert!(entry.ref_log.len() >= 2);
    }

    #[test]
    fn fusion_reduces_measured_latency_on_the_simulator() {
        use spear_llm::{ModelProfile, SimLlm};
        let original = Pipeline::builder("sections")
            .create_text(
                "report_view",
                "Write the requested outputs about the case in plain prose \
                 with every relevant detail included for the reader.",
                RefinementMode::Manual,
            )
            .gen("first", "report_view")
            .gen("second", "report_view")
            .build();
        let (fused, _) = fuse_pipeline(&original);

        let run = |p: &Pipeline| {
            let rt = Runtime::builder()
                .llm(Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())))
                .build();
            let mut state = ExecState::new();
            rt.execute(p, &mut state).unwrap()
        };
        let seq = run(&original);
        let fus = run(&fused);
        assert!(fus.gens < seq.gens);
        assert!(
            fus.latency < seq.latency,
            "fused {:?} vs sequential {:?}",
            fus.latency,
            seq.latency
        );
    }
}
