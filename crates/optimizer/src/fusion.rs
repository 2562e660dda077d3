//! Selectivity-aware operator fusion (paper §5 "Operator Fusion", §7).
//!
//! The paper's fusion experiments (Table 4, Figure 1) run per-item
//! [`Stage`]s — a *Map* (clean up / summarize) and a *Filter* (sentiment
//! predicate) — as one GEN per stage or fused into one GEN per item:
//!
//! - [`pipeline`] builds the per-item core [`Pipeline`] in either form;
//! - [`run`] executes it over the items on a [`BatchRunner`];
//! - [`decide`] picks the form from the cost model. Fusing `Map→Filter`
//!   always removes a call per item, while fusing `Filter→Map` destroys
//!   the predicate-pushdown saving, so it only pays off at high
//!   selectivity: "fusion strategies should be selectivity aware."
//!
//! In the sequential form, stage `i` is `GEN[s{i}]` over the item's current
//! text (seeded under [`ITEM_KEY`]); a **Map** makes `s{i}` the current
//! text, and a **Filter** adds `DELEGATE[plan_filter_verdict] -> pass{i}`
//! and wraps the remaining stages in `CHECK[truthy(C["pass{i}"])]`, so
//! predicate pushdown is a lowered CHECK jump. The fused form is one
//! `GEN[s0]` whose `label :: text` response two DELEGATEs parse into
//! `pass0` and `t0`.

use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use spear_core::agent::FnAgent;
use spear_core::batch::BatchRunner;
use spear_core::condition::{Cond, Operand};
use spear_core::context::Context;
use spear_core::error::Result;
use spear_core::llm::GenOptions;
use spear_core::metadata::TokenUsage;
use spear_core::ops::{Op, PayloadSpec, PromptRef};
use spear_core::pipeline::Pipeline;
use spear_core::plan::lower;
use spear_core::runtime::{ExecState, Runtime, RuntimeBuilder};
use spear_core::value::Value;

use crate::cost::{secs, unit, CostModel};

/// Context key the per-item input text is seeded under.
pub const ITEM_KEY: &str = "item";

/// Agent parsing a Filter stage's response into a boolean verdict.
const FILTER_VERDICT_AGENT: &str = "plan_filter_verdict";

/// Agent parsing a fused `label :: text` response into a verdict.
const FUSED_VERDICT_AGENT: &str = "plan_fused_verdict";

/// Agent extracting the cleaned text from a fused `label :: text` response.
const FUSED_TEXT_AGENT: &str = "plan_fused_text";

/// One per-item semantic stage, with its natural-language instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// Transform each item (e.g. "clean up the tweet").
    Map(String),
    /// Keep items satisfying a predicate (e.g. "negative sentiment").
    Filter(String),
}

impl Stage {
    /// Stage label for plan rendering.
    fn label(&self) -> &'static str {
        match self {
            Stage::Map(_) => "Map",
            Stage::Filter(_) => "Filter",
        }
    }

    /// The instruction text.
    fn instruction(&self) -> &str {
        match self {
            Stage::Map(instruction) | Stage::Filter(instruction) => instruction,
        }
    }
}

/// Build the per-item core pipeline for `stages`: one GEN per stage, or
/// (`fused`) one GEN for all of them. `identity` (e.g.
/// `view:tweet_pipeline@1`) makes every GEN cacheable as
/// `{identity}/stage{i}`; without it the prompts are opaque. The pipeline
/// is named after its physical form, `physical([Map] [Filter])` or
/// `physical([Map+Filter])`, and its DELEGATEs name agents that
/// [`runtime_builder`] registers.
#[must_use]
pub fn pipeline(stages: &[Stage], fused: bool, identity: Option<&str>) -> Pipeline {
    let labels: Vec<&str> = stages.iter().map(Stage::label).collect();
    if fused {
        let directives: Vec<&str> = stages.iter().map(Stage::instruction).collect();
        let hint = if matches!(stages.first(), Some(Stage::Map(_))) {
            "fused_map_filter"
        } else {
            "fused_filter_map"
        };
        let text = format!(
            "{} In one pass. Respond in the format '<label> :: <cleaned \
             text>' with a short justification, using at most 25 words.\n\
             Tweet: {{{{ctx:{ITEM_KEY}}}}}",
            directives.join(" Then ")
        );
        return Pipeline {
            name: format!("physical([{}])", labels.join("+")),
            ops: vec![
                gen(0, text, hint, identity),
                delegate(FUSED_VERDICT_AGENT, 0, "pass0"),
                delegate(FUSED_TEXT_AGENT, 0, "t0"),
            ],
        };
    }
    let physical: Vec<String> = labels.iter().map(|label| format!("[{label}]")).collect();
    Pipeline {
        name: format!("physical({})", physical.join(" ")),
        ops: sequential(stages, 0, ITEM_KEY, identity),
    }
}

/// The sequential form of stages `i..`, given the key holding the item's
/// current text; a Filter wraps the remainder in a CHECK on its verdict.
fn sequential(stages: &[Stage], i: usize, cur: &str, identity: Option<&str>) -> Vec<Op> {
    let Some(stage) = stages.get(i) else {
        return Vec::new();
    };
    let instruction = stage.instruction();
    match stage {
        Stage::Map(_) => {
            let text = format!("{instruction} Use at most 25 words.\nTweet: {{{{ctx:{cur}}}}}");
            let mut ops = vec![gen(i, text, "summarize", identity)];
            ops.extend(sequential(stages, i + 1, &format!("s{i}"), identity));
            ops
        }
        Stage::Filter(_) => {
            let text = format!(
                "{instruction} Respond with the label followed by a \
                 one-sentence justification.\nTweet: {{{{ctx:{cur}}}}}"
            );
            let verdict = format!("pass{i}");
            let mut ops = vec![
                gen(i, text, "classify_sentiment", identity),
                delegate(FILTER_VERDICT_AGENT, i, &verdict),
            ];
            let rest = sequential(stages, i + 1, cur, identity);
            if !rest.is_empty() {
                ops.push(Op::Check {
                    cond: Cond::Truthy(Operand::Ctx(verdict)),
                    then_ops: rest,
                    else_ops: Vec::new(),
                });
            }
            ops
        }
    }
}

/// Stage `i`'s GEN into `s{i}`, over a pre-rendered prompt.
fn gen(i: usize, text: String, task: &str, identity: Option<&str>) -> Op {
    Op::Gen {
        label: format!("s{i}"),
        prompt: PromptRef::Lowered {
            text: text.into(),
            identity: identity.map(|id| format!("{id}/stage{i}")),
        },
        options: GenOptions {
            max_tokens: 64,
            temperature: 0.0,
            task: Some(task.to_string()),
        },
    }
}

/// A DELEGATE parsing stage `i`'s response with `agent` into `into`.
fn delegate(agent: &str, i: usize, into: &str) -> Op {
    Op::Delegate {
        agent: agent.to_string(),
        payload: PayloadSpec::CtxKey(format!("s{i}")),
        into: into.to_string(),
    }
}

/// Whether a filter response means "keep". The prompt contract asks for a
/// single word: `negative` / `yes` keep, anything else drops.
fn filter_passes(response: &str) -> bool {
    let first = response
        .split_whitespace()
        .next()
        .unwrap_or("")
        .trim_matches(|c: char| !c.is_alphanumeric())
        .to_lowercase();
    first == "negative" || first == "yes"
}

/// Parse a fused `label :: text` response into `(passes, text)`. Falls back
/// to treating the whole response as text with `passes = false` when the
/// format is violated (a real model might do this; the caller sees it as a
/// dropped item rather than a crash).
fn parse_fused_response(response: &str) -> (bool, String) {
    match response.split_once(" :: ") {
        Some((label, text)) => (filter_passes(label), text.to_string()),
        None => (false, response.to_string()),
    }
}

/// A runtime builder with the three response-parsing agents a
/// [`pipeline`]'s DELEGATEs name; the caller adds the backend and any
/// budgets (which apply per item, since each item is one pipeline run).
#[must_use]
pub fn runtime_builder() -> RuntimeBuilder {
    // Each agent parses its DELEGATE's payload: the stage's response text.
    let agent = |parse: fn(&str) -> Value| {
        Arc::new(FnAgent(move |payload: &Value, _: &Context| {
            Ok(parse(payload.as_str().unwrap_or_default()))
        }))
    };
    Runtime::builder()
        .agent(
            FILTER_VERDICT_AGENT,
            agent(|r| Value::from(filter_passes(r))),
        )
        .agent(
            FUSED_VERDICT_AGENT,
            agent(|r| Value::from(parse_fused_response(r).0)),
        )
        .agent(
            FUSED_TEXT_AGENT,
            agent(|r| Value::from(parse_fused_response(r).1)),
        )
}

/// What [`run`] returns: per-item verdicts and the summed cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Per item, input order: whether it passed every filter.
    pub passed: Vec<bool>,
    /// Total GEN calls.
    pub gen_calls: u64,
    /// Total token usage.
    pub usage: TokenUsage,
    /// Total (virtual) latency.
    pub latency: Duration,
}

impl RunReport {
    /// Observed selectivity (passed / total); `None` on an empty run.
    #[must_use]
    pub fn selectivity(&self) -> Option<f64> {
        let kept = self.passed.iter().filter(|&&p| p).count();
        (!self.passed.is_empty()).then(|| kept as f64 / self.passed.len() as f64)
    }
}

/// Run `pipeline` once per item on a one-lane [`BatchRunner`], each item
/// seeded under [`ITEM_KEY`], and sum the items' [`ExecReport`]s.
/// `runtime` should come from [`runtime_builder`]. An item passed iff none
/// of its `pass*` verdicts is false (an item a filter dropped never reaches
/// the later verdicts).
///
/// [`ExecReport`]: spear_core::runtime::ExecReport
///
/// # Errors
///
/// Core lowering's structural self-check, then the first failing item's
/// error in item order, per-item budget violations included.
pub fn run(runtime: &Runtime, pipeline: &Pipeline, items: &[String]) -> Result<RunReport> {
    let lowered = Arc::new(lower(pipeline)?);
    let states = items
        .iter()
        .map(|item| {
            let mut state = ExecState::new();
            state.context.set(ITEM_KEY, item.clone());
            state
        })
        .collect();
    let mut report = RunReport::default();
    for result in BatchRunner::new(1).run_lowered(runtime, &lowered, states) {
        let outcome = result?;
        report.passed.push(
            outcome
                .state
                .context
                .iter()
                .all(|(key, value)| !key.starts_with("pass") || value.is_truthy()),
        );
        report.gen_calls += outcome.report.gens;
        report.usage.absorb(outcome.report.usage);
        report.latency += outcome.report.latency;
    }
    Ok(report)
}

/// Token-level estimates for one stage of a plan (averages over items).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageEstimate {
    /// Prompt tokens per call.
    pub prompt_tokens: f64,
    /// Fraction of prompt tokens expected to be cached, `[0, 1]` (values
    /// outside are clamped).
    pub cached_fraction: f64,
    /// Decoded tokens per call.
    pub decode_tokens: f64,
}

impl StageEstimate {
    /// Estimated latency of one call under `model`.
    #[must_use]
    pub fn call_cost(&self, model: &CostModel) -> Duration {
        let cached = self.prompt_tokens * unit(self.cached_fraction);
        model.estimate_call(self.prompt_tokens - cached, cached, self.decode_tokens)
    }
}

/// Inputs to the fusion decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimates {
    /// Number of input items.
    pub n_items: f64,
    /// Estimated filter selectivity (fraction kept), `[0, 1]` (values
    /// outside are clamped).
    pub selectivity: f64,
    /// Per-stage estimate for sequential calls.
    pub per_stage: StageEstimate,
    /// Estimate for the fused call (longer prompt, combined decode).
    pub fused: StageEstimate,
}

/// The fusion decision with its cost evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionDecision {
    /// Whether to fuse.
    pub fuse: bool,
    /// Estimated total time for the sequential plan.
    pub sequential: Duration,
    /// Estimated total time for the fused plan.
    pub fused: Duration,
    /// Estimated gain of fusing: `(sequential − fused) / sequential`.
    pub gain: f64,
    /// Human-readable rationale.
    pub reason: String,
}

/// Estimated cost of the sequential form: each stage runs over the items
/// surviving the previous filters.
#[must_use]
pub fn sequential_cost(stages: &[Stage], est: &PlanEstimates, model: &CostModel) -> Duration {
    let call = est.per_stage.call_cost(model).as_secs_f64();
    let mut surviving = est.n_items;
    let mut total = 0.0;
    for stage in stages {
        total += surviving * call;
        if let Stage::Filter(_) = stage {
            surviving *= unit(est.selectivity);
        }
    }
    secs(total)
}

/// Estimated cost of the fused form: one combined call per item.
#[must_use]
pub fn fused_cost(est: &PlanEstimates, model: &CostModel) -> Duration {
    secs(est.n_items * est.fused.call_cost(model).as_secs_f64())
}

/// Decide whether to fuse `stages` under `est`.
#[must_use]
pub fn decide(stages: &[Stage], est: &PlanEstimates, model: &CostModel) -> FusionDecision {
    let sequential = sequential_cost(stages, est, model);
    let fused = fused_cost(est, model);
    let gain = if sequential.is_zero() {
        0.0
    } else {
        (sequential.as_secs_f64() - fused.as_secs_f64()) / sequential.as_secs_f64()
    };
    let fuse = fused < sequential;
    // Paper notation, e.g. `Map→Filter`.
    let shape = stages.iter().map(Stage::label).collect::<Vec<_>>();
    let reason = if fuse {
        format!(
            "fusing {} saves {:.1}% (every surviving item pays one combined call \
             instead of several)",
            shape.join("→"),
            gain * 100.0
        )
    } else {
        format!(
            "keeping {} sequential: early filtering at selectivity {:.0}% skips \
             downstream calls that fusion would pay for",
            shape.join("→"),
            unit(est.selectivity) * 100.0
        )
    };
    FusionDecision {
        fuse,
        sequential,
        fused,
        gain,
        reason,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::cost::tests::any_f64;
    use proptest::prelude::*;
    use spear_llm::{ModelProfile, SimLlm};

    fn map_filter() -> Vec<Stage> {
        vec![
            Stage::Map("Clean up the tweet.".into()),
            Stage::Filter("Classify the sentiment as positive or negative; keep negative.".into()),
        ]
    }

    fn filter_map() -> Vec<Stage> {
        let mut stages = map_filter();
        stages.reverse();
        stages
    }

    /// Estimates resembling the paper's tweet workload: ~60-token stage
    /// prompts, ~110-token fused prompts, short decodes.
    fn estimates(selectivity: f64) -> PlanEstimates {
        PlanEstimates {
            n_items: 1000.0,
            selectivity,
            per_stage: StageEstimate {
                prompt_tokens: 60.0,
                cached_fraction: 0.0,
                decode_tokens: 20.0,
            },
            fused: StageEstimate {
                prompt_tokens: 95.0,
                cached_fraction: 0.0,
                decode_tokens: 26.0,
            },
        }
    }

    fn model() -> CostModel {
        CostModel::default()
    }

    fn runtime() -> Runtime {
        let engine = SimLlm::new(ModelProfile::qwen25_7b_instruct());
        runtime_builder().llm(Arc::new(engine)).build()
    }

    fn items() -> Vec<String> {
        vec![
            "i hate this awful homework".to_string(),
            "what a wonderful sunny day".to_string(),
            "worst meeting ever, so frustrated".to_string(),
            "love this amazing coffee".to_string(),
        ]
    }

    fn run_items(stages: &[Stage], fused: bool, items: &[String]) -> RunReport {
        let p = pipeline(stages, fused, Some("view:tweet_pipeline@1"));
        run(&runtime(), &p, items).unwrap()
    }

    #[test]
    fn sequential_map_filter_is_gen_gen_delegate() {
        let p = pipeline(&map_filter(), false, Some("view:v@1"));
        assert_eq!(p.name, "physical([Map] [Filter])");
        // Map → GEN; Filter → GEN + DELEGATE; a trailing filter needs no CHECK.
        assert_eq!(p.ops.len(), 3);
        assert!(matches!(&p.ops[0], Op::Gen { label, .. } if label == "s0"));
        assert!(matches!(&p.ops[2], Op::Delegate { into, .. } if into == "pass1"));
        assert_eq!(
            pipeline(&map_filter(), true, None).name,
            "physical([Map+Filter])"
        );
    }

    #[test]
    fn filter_map_guards_downstream_stages() {
        let p = pipeline(&filter_map(), false, None);
        // Filter GEN, verdict DELEGATE, CHECK guarding the Map GEN.
        assert_eq!(p.ops.len(), 3);
        let Op::Check {
            cond,
            then_ops,
            else_ops,
        } = &p.ops[2]
        else {
            panic!("expected CHECK, got {:?}", p.ops[2]);
        };
        assert_eq!(cond.to_string(), "truthy(C[\"pass0\"])");
        assert_eq!(then_ops.len(), 1);
        assert!(else_ops.is_empty());
        assert!(matches!(&then_ops[0], Op::Gen { label, .. } if label == "s1"));
    }

    #[test]
    fn identity_is_absent_when_the_pipeline_is_opaque() {
        for fused in [false, true] {
            for op in &pipeline(&map_filter(), fused, None).ops {
                if let Op::Gen {
                    prompt: PromptRef::Lowered { identity, .. },
                    ..
                } = op
                {
                    assert_eq!(identity, &None);
                }
            }
        }
    }

    #[test]
    fn sequential_map_filter_runs_both_stages_on_all_items() {
        let report = run_items(&map_filter(), false, &items());
        assert_eq!(
            report.gen_calls, 8,
            "2 stages × 4 items, regardless of outcome"
        );
        assert_eq!(report.passed.len(), 4);
        // The task model draws per-item correctness, so with 4 items the
        // pass count is 2 ± 1; aggregate accuracy is asserted over large
        // corpora in the benchmark tests.
        let kept = report.passed.iter().filter(|&&p| p).count();
        assert!((1..=3).contains(&kept), "passed {kept}");
    }

    #[test]
    fn sequential_filter_map_skips_map_for_dropped_items() {
        let report = run_items(&filter_map(), false, &items());
        // Filter runs on all 4; Map only on survivors (predicate pushdown).
        let kept = report.passed.iter().filter(|&&p| p).count() as u64;
        assert_eq!(report.gen_calls, 4 + kept);
    }

    #[test]
    fn fused_pipeline_uses_one_call_per_item_and_is_faster() {
        let fused = run_items(&map_filter(), true, &items());
        assert_eq!(fused.gen_calls, 4);
        let seq = run_items(&map_filter(), false, &items());
        assert!(fused.latency < seq.latency);
    }

    #[test]
    fn selectivity_matches_corpus_balance() {
        // A larger, strongly polar corpus, so observed selectivity
        // converges on the ground-truth 50% despite per-item error draws.
        let corpus: Vec<String> = (0..200)
            .map(|i| {
                let word = if i % 2 == 0 { "awful" } else { "wonderful" };
                format!("such a {word} day number {i}")
            })
            .collect();
        let report = run_items(&map_filter(), false, &corpus);
        let selectivity = report.selectivity().unwrap();
        assert!((selectivity - 0.5).abs() < 0.1, "selectivity {selectivity}");
        assert_eq!(run_items(&map_filter(), false, &[]).selectivity(), None);
    }

    #[test]
    fn filter_response_parsing() {
        assert!(filter_passes("negative"));
        assert!(filter_passes("Negative."));
        assert!(filter_passes("yes"));
        assert!(!filter_passes("positive"));
        assert!(!filter_passes(""));
        assert_eq!(
            parse_fused_response("negative :: cleaned"),
            (true, "cleaned".to_string())
        );
        assert_eq!(
            parse_fused_response("malformed output"),
            (false, "malformed output".to_string())
        );
    }

    #[test]
    fn map_filter_fusion_wins_at_every_selectivity() {
        for s in [0.1, 0.3, 0.5, 0.8, 1.0] {
            let d = decide(&map_filter(), &estimates(s), &model());
            assert!(d.fuse, "selectivity {s}");
            assert!(
                (0.1..=0.35).contains(&d.gain),
                "gain {} at selectivity {s} should be ~20%",
                d.gain
            );
        }
    }

    #[test]
    fn filter_map_fusion_depends_on_selectivity() {
        let low = decide(&filter_map(), &estimates(0.1), &model());
        assert!(!low.fuse, "predicate pushdown wins at 10% selectivity");
        assert!(low.gain < 0.0);

        let high = decide(&filter_map(), &estimates(1.0), &model());
        assert!(high.fuse, "at 100% selectivity pushdown saves nothing");
        assert!(high.gain > 0.1);
    }

    #[test]
    fn filter_map_crossover_exists_between_30_and_80_percent() {
        let at_30 = decide(&filter_map(), &estimates(0.3), &model());
        let at_80 = decide(&filter_map(), &estimates(0.8), &model());
        assert!(at_30.gain < at_80.gain);
        assert!(!at_30.fuse);
        assert!(at_80.fuse);
    }

    #[test]
    fn sequential_cost_models_pushdown() {
        let est = estimates(0.1);
        let seq_fm = sequential_cost(&filter_map(), &est, &model());
        let seq_mf = sequential_cost(&map_filter(), &est, &model());
        assert!(
            seq_fm < seq_mf,
            "filter-first sequential is cheaper at low selectivity"
        );
    }

    #[test]
    fn decision_reason_is_informative() {
        let d = decide(&filter_map(), &estimates(0.1), &model());
        assert!(d.reason.contains("Filter→Map"), "{}", d.reason);
        assert!(d.reason.contains("selectivity 10%"), "{}", d.reason);
    }

    proptest! {
        #[test]
        fn decide_never_panics_on_any_estimate(
            n_items in any_f64(),
            selectivity in any_f64(),
            prompt_tokens in any_f64(),
            cached_fraction in any_f64(),
            decode_tokens in any_f64(),
            filter_first in any::<bool>(),
        ) {
            let stage = StageEstimate { prompt_tokens, cached_fraction, decode_tokens };
            let est = PlanEstimates { n_items, selectivity, per_stage: stage, fused: stage };
            let stages = if filter_first { filter_map() } else { map_filter() };
            let d = decide(&stages, &est, &model());
            prop_assert_eq!(d.fuse, d.fused < d.sequential);
        }
    }
}
