//! Golden tests for the lowered-IR EXPLAIN renderer: the exact program the
//! runtime's dispatch loop steps through, for the three physical shapes of
//! the paper's sentiment workload. Any change to lowering rules, jump
//! targets, or prompt templates shows up here as a readable diff.

use spear_optimizer::plan::{PhysicalPlan, SemanticPlan};
use spear_optimizer::{explain_lowered, explain_lowered_with_lints, lower_physical};

fn map_filter() -> SemanticPlan {
    SemanticPlan::map_then_filter("Clean up the tweet.", "Keep negative tweets.")
        .with_identity("view:tweet_pipeline@1")
}

#[test]
fn sequential_plan_explains_stage_per_gen() {
    let lowered = lower_physical(&PhysicalPlan::sequential(&map_filter())).expect("lowers");
    let expected = "\
EXPLAIN LOWERED PLAN \"physical([Map] [Filter])\"  (3 source ops, 3 slots)
  0000  GEN[\"s0\"] using lowered prompt
        prompt: \"Clean up the tweet. Use at most 25 words.\\nTweet: {{ctx:item}}\"  [cacheable as \"view:tweet_pipeline@1/stage0\"]
  0001  GEN[\"s1\"] using lowered prompt
        prompt: \"Keep negative tweets. Respond with the label followed by a one-sentence justification.\\nTweet: {{ctx:s0}}\"  [cacheable as \"view:tweet_pipeline@1/stage1\"]
  0002  DELEGATE[\"plan_filter_verdict\"] -> C[\"pass1\"]
";
    assert_eq!(explain_lowered(&lowered), expected);
}

#[test]
fn fused_plan_explains_one_gen_with_both_parsers() {
    let lowered = lower_physical(&PhysicalPlan::fused(&map_filter())).expect("lowers");
    let expected = "\
EXPLAIN LOWERED PLAN \"physical([Map+Filter])\"  (3 source ops, 3 slots)
  0000  GEN[\"s0\"] using lowered prompt
        prompt: \"Clean up the tweet. Then Keep negative tweets. In one pass. Respond in the format '<label> :: <cleaned text>' with a short justification, using at most 25 words.\\nTweet: {{ctx:item}}\"  [cacheable as \"view:tweet_pipeline@1/stage0\"]
  0001  DELEGATE[\"plan_fused_verdict\"] -> C[\"pass0\"]
  0002  DELEGATE[\"plan_fused_text\"] -> C[\"t0\"]
";
    assert_eq!(explain_lowered(&lowered), expected);
}

#[test]
fn reordered_plan_explains_pushdown_as_a_jump() {
    // Filter→Map: the reordered form where predicate pushdown pays — the
    // CHECK's else target jumps clear past the guarded Map stage.
    let plan = SemanticPlan::filter_then_map("Keep negative tweets.", "Clean up the tweet.");
    let lowered = lower_physical(&PhysicalPlan::sequential(&plan)).expect("lowers");
    let expected = "\
EXPLAIN LOWERED PLAN \"physical([Filter] [Map])\"  (4 source ops, 4 slots)
  0000  GEN[\"s0\"] using lowered prompt
        prompt: \"Keep negative tweets. Respond with the label followed by a one-sentence justification.\\nTweet: {{ctx:item}}\"  [opaque — no prefix reuse]
  0001  DELEGATE[\"plan_filter_verdict\"] -> C[\"pass0\"]
  0002  CHECK[truthy(C[\"pass0\"])]  else -> 0004
  0003  GEN[\"s1\"] using lowered prompt  (when truthy(C[\"pass0\"]))
        prompt: \"Clean up the tweet. Use at most 25 words.\\nTweet: {{ctx:item}}\"  [opaque — no prefix reuse]
";
    assert_eq!(explain_lowered(&lowered), expected);
}

#[test]
fn bytecode_lints_render_inline_after_the_listing() {
    // The abstract-interpreter pass's W004/W005 diagnostics flow through
    // the same EXPLAIN tail as the IR lints: listing first, rendered
    // diagnostics appended verbatim.
    use spear_core::analysis::Verifier;
    use spear_core::condition::Cond;
    use spear_core::history::RefinementMode;
    use spear_core::pipeline::Pipeline;
    use spear_core::plan::lower;

    let verifier = Verifier::new().register_pass(Box::new(spear_core::analysis::BytecodePass));
    let plan = lower(
        &Pipeline::builder("gated")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .check(Cond::Never, |t| t.gen("b", "p"))
            .build(),
    )
    .expect("lowers");
    let expected = "\
EXPLAIN LOWERED PLAN \"gated\"  (4 source ops, 4 slots)
  0000  REF[CREATE, set_text] on P[\"p\"]
  0001  GEN[\"a\"] using P[\"p\"]
  0002  CHECK[false]  else -> 0004
  0003  GEN[\"b\"] using P[\"p\"]  (when false)
warning[SPEAR-W005] in plan \"gated\": condition `false` never holds: the then branch can never be taken
  0002  CHECK[false] else -> 0004
warning[SPEAR-W004] in plan \"gated\": slot 0003, which no execution can reach once statically-decided CHECKs are folded
  0003  GEN[\"b\"] using P[\"p\"]
";
    assert_eq!(
        explain_lowered_with_lints(&plan, &verifier.verify(&plan)),
        expected
    );

    // Plans the bytecode pass has nothing to say about stay clean.
    let clean = lower(
        &Pipeline::builder("clean")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .build(),
    )
    .expect("lowers");
    assert_eq!(
        explain_lowered_with_lints(&clean, &verifier.verify(&clean)),
        "EXPLAIN LOWERED PLAN \"clean\"  (2 source ops, 2 slots)\n\
         \x20 0000  REF[CREATE, set_text] on P[\"p\"]\n\
         \x20 0001  GEN[\"a\"] using P[\"p\"]\n\
         verifier: clean (2 slots checked)\n"
    );
}
