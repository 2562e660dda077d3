//! EXPLAIN for prompt pipelines.
//!
//! The paper's closing claim is that prompt pipelines can be "optimized,
//! cached, and instrumented like query plans". This module is the
//! instrumentation half of that sentence: an `EXPLAIN`-style renderer that
//! walks a pipeline and annotates every operator with the cost model's
//! a-priori estimates — LLM calls, token traffic, expected latency —
//! under stated workload assumptions, plus the optimizations that apply
//! (cacheable vs opaque prompts, fusable GEN runs). The slot-level view
//! of the lowered plan is [`crate::listing()`].

use std::fmt::Write as _;
use std::time::Duration;

use spear_core::ops::{Op, PromptRef};
use spear_core::pipeline::Pipeline;

use crate::cost::CostModel;
use crate::gen_fusion;

/// Workload assumptions the estimates are conditioned on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainAssumptions {
    /// Prompt tokens per GEN call.
    pub prompt_tokens: f64,
    /// Decoded tokens per GEN call.
    pub decode_tokens: f64,
    /// Fraction of prompt tokens expected cached for *structured* prompts.
    pub cached_fraction: f64,
    /// Probability a CHECK's then-branch runs (else gets the complement).
    pub branch_probability: f64,
}

impl Default for ExplainAssumptions {
    fn default() -> Self {
        Self {
            prompt_tokens: 400.0,
            decode_tokens: 50.0,
            cached_fraction: 0.9,
            branch_probability: 0.5,
        }
    }
}

/// A cost roll-up for a (sub)plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCost {
    /// Expected LLM calls (fractional under branch probabilities).
    pub expected_gen_calls: f64,
    /// Expected latency.
    pub expected_latency: Duration,
}

impl PlanCost {
    fn add(&mut self, other: PlanCost, weight: f64) {
        self.expected_gen_calls += other.expected_gen_calls * weight;
        self.expected_latency +=
            Duration::from_secs_f64(other.expected_latency.as_secs_f64() * weight);
    }
}

/// Line-oriented render buffer for the tree walk: infallible writes,
/// full-width lines and depth-indented detail lines.
struct PlanWriter {
    out: String,
}

impl PlanWriter {
    /// An empty buffer.
    fn new() -> Self {
        Self { out: String::new() }
    }

    /// A full-width line (headers, totals, hints).
    fn line(&mut self, text: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.out, "{text}");
    }

    /// A depth-indented detail line.
    fn detail(&mut self, depth: usize, text: std::fmt::Arguments<'_>) {
        let indent = "  ".repeat(depth + 1);
        let _ = writeln!(self.out, "{indent}{text}");
    }

    /// The accumulated text.
    fn finish(self) -> String {
        self.out
    }
}

/// Everything the EXPLAIN tree walk threads through its recursion: the
/// output buffer, the cost model and assumptions the estimates are
/// conditioned on, and the running cost roll-up. Bundling these replaces
/// the seven-argument recursion this module used to carry.
struct RenderCtx<'a> {
    w: PlanWriter,
    model: &'a CostModel,
    a: &'a ExplainAssumptions,
    total: PlanCost,
}

/// Render the plan. Returns `(text, total cost)`.
#[must_use]
pub fn explain(
    pipeline: &Pipeline,
    model: &CostModel,
    assumptions: &ExplainAssumptions,
) -> (String, PlanCost) {
    let mut ctx = RenderCtx {
        w: PlanWriter::new(),
        model,
        a: assumptions,
        total: PlanCost::default(),
    };
    ctx.w.line(format_args!(
        "EXPLAIN PIPELINE {:?}  (assuming {:.0} prompt tokens/GEN, {:.0} \
         decode tokens, {:.0}% cache hits on structured prompts, branch \
         probability {:.0}%)",
        pipeline.name,
        assumptions.prompt_tokens,
        assumptions.decode_tokens,
        assumptions.cached_fraction * 100.0,
        assumptions.branch_probability * 100.0,
    ));
    let fusable = gen_fusion::find_opportunities(
        pipeline,
        model,
        assumptions.prompt_tokens,
        assumptions.cached_fraction > 0.0,
    );
    ctx.render_ops(&pipeline.ops, 0, 1.0);
    ctx.w.line(format_args!(
        "TOTAL: {:.2} expected GEN calls, {:.2}s expected latency",
        ctx.total.expected_gen_calls,
        ctx.total.expected_latency.as_secs_f64()
    ));
    for opp in &fusable {
        ctx.w.line(format_args!(
            "HINT: ops {}..{} are {} GENs on P[{:?}] — GEN fusion would save \
             ~{:.2}s (spear_optimizer::gen_fusion::fuse_pipeline)",
            opp.start,
            opp.start + opp.len - 1,
            opp.len,
            opp.prompt_key,
            opp.estimated_saving.as_secs_f64(),
        ));
    }
    (ctx.w.finish(), ctx.total)
}

fn gen_cost(structured: bool, model: &CostModel, a: &ExplainAssumptions) -> Duration {
    let cached = if structured {
        a.prompt_tokens * a.cached_fraction
    } else {
        0.0
    };
    model.estimate_call(a.prompt_tokens - cached, cached, a.decode_tokens)
}

impl RenderCtx<'_> {
    fn render_ops(&mut self, ops: &[Op], depth: usize, weight: f64) {
        for op in ops {
            match op {
                Op::Gen { prompt, .. } => {
                    let structured = match prompt {
                        PromptRef::Inline(_) => false,
                        PromptRef::Lowered { identity, .. } => identity.is_some(),
                        PromptRef::Key(_) | PromptRef::View { .. } => true,
                    };
                    let latency = gen_cost(structured, self.model, self.a);
                    self.total.add(
                        PlanCost {
                            expected_gen_calls: 1.0,
                            expected_latency: latency,
                        },
                        weight,
                    );
                    self.w.detail(
                        depth,
                        format_args!(
                            "{}  [est {:.2}s/call, {}]",
                            op.describe(),
                            latency.as_secs_f64(),
                            if structured {
                                "cacheable"
                            } else {
                                "opaque — no prefix reuse"
                            }
                        ),
                    );
                }
                Op::Check {
                    cond,
                    then_ops,
                    else_ops,
                } => {
                    self.w.detail(
                        depth,
                        format_args!(
                            "CHECK[{cond}]  [p≈{:.0}%]",
                            self.a.branch_probability * 100.0
                        ),
                    );
                    self.render_ops(then_ops, depth + 1, weight * self.a.branch_probability);
                    if !else_ops.is_empty() {
                        self.w.detail(depth, format_args!("ELSE"));
                        self.render_ops(
                            else_ops,
                            depth + 1,
                            weight * (1.0 - self.a.branch_probability),
                        );
                    }
                }
                other => {
                    self.w.detail(depth, format_args!("{}", other.describe()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_core::condition::Cond;
    use spear_core::history::RefinementMode;
    use spear_core::value::Value;

    fn pipeline() -> Pipeline {
        Pipeline::builder("qa")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("answer_0", "p")
            .check(Cond::low_confidence(0.7), |b| {
                b.refine(
                    "p",
                    spear_core::history::RefAction::Update,
                    "auto_refine",
                    Value::Null,
                    RefinementMode::Auto,
                )
                .gen("answer_1", "p")
            })
            .build()
    }

    #[test]
    fn explain_renders_tree_and_totals() {
        let (text, cost) = explain(
            &pipeline(),
            &CostModel::default(),
            &ExplainAssumptions::default(),
        );
        assert!(text.contains("EXPLAIN PIPELINE \"qa\""));
        assert!(text.contains("GEN[\"answer_0\"]"));
        assert!(text.contains("cacheable"));
        assert!(text.contains("CHECK[M[\"confidence\"] < 0.7]"));
        assert!(text.contains("TOTAL:"));
        // 1 unconditional + 0.5 expected conditional GEN.
        assert!((cost.expected_gen_calls - 1.5).abs() < 1e-9, "{cost:?}");
        assert!(cost.expected_latency > Duration::ZERO);
    }

    #[test]
    fn branch_probability_scales_expected_calls() {
        let never = ExplainAssumptions {
            branch_probability: 0.0,
            ..ExplainAssumptions::default()
        };
        let (_, cost) = explain(&pipeline(), &CostModel::default(), &never);
        assert!((cost.expected_gen_calls - 1.0).abs() < 1e-9);

        let always = ExplainAssumptions {
            branch_probability: 1.0,
            ..ExplainAssumptions::default()
        };
        let (_, cost) = explain(&pipeline(), &CostModel::default(), &always);
        assert!((cost.expected_gen_calls - 2.0).abs() < 1e-9);
    }

    #[test]
    fn opaque_prompts_are_called_out_and_cost_more() {
        use spear_core::llm::GenOptions;
        use spear_core::ops::PromptRef;
        let p = Pipeline {
            name: "inline".into(),
            ops: vec![spear_core::ops::Op::Gen {
                label: "a".into(),
                prompt: PromptRef::Inline("ad hoc {{ctx:item}}".into()),
                options: GenOptions::default(),
            }],
        };
        let (text, opaque_cost) =
            explain(&p, &CostModel::default(), &ExplainAssumptions::default());
        assert!(text.contains("opaque"));
        let (_, cached_cost) = explain(
            &pipeline(),
            &CostModel::default(),
            &ExplainAssumptions {
                branch_probability: 0.0,
                ..ExplainAssumptions::default()
            },
        );
        assert!(opaque_cost.expected_latency > cached_cost.expected_latency);
    }

    #[test]
    fn fusion_hints_appear_for_shared_gen_runs() {
        let p = Pipeline::builder("sections")
            .create_text("view", "base", RefinementMode::Manual)
            .gen("a", "view")
            .gen("b", "view")
            .build();
        let (text, _) = explain(&p, &CostModel::default(), &ExplainAssumptions::default());
        assert!(text.contains("HINT"), "{text}");
        assert!(text.contains("GEN fusion would save"));
    }
}
