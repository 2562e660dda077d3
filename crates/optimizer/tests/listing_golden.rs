//! Golden tests for the one plan listing: byte-exact renderings of the
//! sentiment workload's three physical shapes, a statically gated plan
//! with its verifier findings, and a program exercising every opcode
//! (LEAF, CHECK, JUMP — one per source slot, at the slot's own pc) and
//! every spec (leaf specs with their enclosing branches and templates,
//! check specs). Any change to lowering rules, jump targets, prompt
//! templates, opcode layout or branch nesting shows up here as a readable
//! diff.

use spear_core::analysis::{BytecodePass, Verifier};
use spear_core::prelude::*;
use spear_optimizer::fusion::{self, Stage};
use spear_optimizer::listing;

/// The sentiment workload's Map→Filter stages, with a structured identity,
/// in the sequential or fused form.
fn map_filter(fused: bool) -> Program {
    let stages = [
        Stage::Map("Clean up the tweet.".to_owned()),
        Stage::Filter("Keep negative tweets.".to_owned()),
    ];
    lower(&fusion::pipeline(
        &stages,
        fused,
        Some("view:tweet_pipeline@1"),
    ))
    .expect("lowers")
}

/// The reordered Filter→Map shape, where predicate pushdown pays: the
/// CHECK's else target jumps clear past the guarded Map stage.
fn filter_map() -> Program {
    let stages = [
        Stage::Filter("Keep negative tweets.".to_owned()),
        Stage::Map("Clean up the tweet.".to_owned()),
    ];
    lower(&fusion::pipeline(&stages, false, None)).expect("lowers")
}

/// One pipeline that compiles to every opcode, over every operator kind
/// in a leaf (RET, MERGE, REF, GEN, DELEGATE):
///
/// - `retry_gen` → a GEN immediately followed by its confidence `CHECK`;
/// - each `check_else` → a `CHECK` whose else target follows the
///   then-branch's closing `JUMP`;
/// - the second CHECK sits at the first check's else target.
fn kitchen_sink() -> Pipeline {
    Pipeline::builder("kitchen_sink")
        .ret("corpus", "docs_a", 2)
        .merge(
            "docs_a",
            "docs_b",
            "docs",
            MergePolicy::Concat {
                separator: "\n".to_owned(),
            },
        )
        .create_text("p", "Q: {{ctx:docs}}", RefinementMode::Manual)
        .retry_gen(
            "answer",
            "p",
            Cond::low_confidence(0.7),
            "auto_refine",
            Value::Null,
            RefinementMode::Auto,
            1,
        )
        .check_else(
            Cond::low_confidence(0.9),
            |t| {
                t.delegate(
                    "escalate",
                    PayloadSpec::CtxKey("answer_0".to_owned()),
                    "review",
                )
            },
            |e| e.create_text("note", "flagged", RefinementMode::Manual),
        )
        .check_else(
            Cond::signal_cmp("retries", CmpOp::Lt, 2),
            |t| t.gen("alt", "p"),
            |e| e.create_text("note2", "gave up", RefinementMode::Manual),
        )
        .build()
}

#[test]
fn sequential_plan_lists_a_stage_per_gen() {
    let plan = map_filter(false);
    let expected = "\
EXPLAIN LOWERED PLAN \"physical([Map] [Filter])\"  (3 source ops, 3 slots)
  0000  l00  GEN[\"s0\"] using lowered prompt
             prompt: \"Clean up the tweet. Use at most 25 words.\\nTweet: {{ctx:item}}\"  [cacheable as \"view:tweet_pipeline@1/stage0\"]
             static: tokens=[1, 64] llm_calls=[1, 1] latency>=100us
  0001  l01  GEN[\"s1\"] using lowered prompt
             prompt: \"Keep negative tweets. Respond with the label followed by a one-sentence justification.\\nTweet: {{ctx:s0}}\"  [cacheable as \"view:tweet_pipeline@1/stage1\"]
             static: tokens=[1, 64] llm_calls=[1, 1] latency>=100us
  0002  l02  DELEGATE[\"plan_filter_verdict\"] -> C[\"pass1\"]
SPECS  (3 leaves, 0 checks)
  leaves:
    l00  within=-  template=parsed
    l01  within=-  template=parsed
    l02  within=-  template=-
  checks:
STATIC BOUNDS  tokens=[2, 128] llm_calls=[2, 2] latency>=200us unwind<=1
";
    assert_eq!(listing(&plan, None), expected);
}

#[test]
fn fused_plan_lists_one_gen_with_both_parsers() {
    let plan = map_filter(true);
    let expected = "\
EXPLAIN LOWERED PLAN \"physical([Map+Filter])\"  (3 source ops, 3 slots)
  0000  l00  GEN[\"s0\"] using lowered prompt
             prompt: \"Clean up the tweet. Then Keep negative tweets. In one pass. Respond in the format '<label> :: <cleaned text>' with a short justification, using at most 25 words.\\nTweet: {{ctx:item}}\"  [cacheable as \"view:tweet_pipeline@1/stage0\"]
             static: tokens=[1, 64] llm_calls=[1, 1] latency>=100us
  0001  l01  DELEGATE[\"plan_fused_verdict\"] -> C[\"pass0\"]
  0002  l02  DELEGATE[\"plan_fused_text\"] -> C[\"t0\"]
SPECS  (3 leaves, 0 checks)
  leaves:
    l00  within=-  template=parsed
    l01  within=-  template=-
    l02  within=-  template=-
  checks:
STATIC BOUNDS  tokens=[1, 64] llm_calls=[1, 1] latency>=100us unwind<=1
";
    assert_eq!(listing(&plan, None), expected);
}

#[test]
fn lints_follow_the_listing_and_quote_its_lines() {
    // The abstract-interpreter pass's W004/W005 diagnostics are appended
    // as `render_diagnostics` writes them; each quotes its slot's line
    // exactly as the listing prints it, and W004's slot is the one the
    // static bounds call unreachable.
    let verifier = Verifier::new().register_pass(Box::new(BytecodePass));
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
  0000  l00  REF[CREATE, set_text] on P[\"p\"]
  0001  l01  GEN[\"a\"] using P[\"p\"]
             static: tokens=[1, 256] llm_calls=[1, 1] latency>=100us
  0002  c00  CHECK[false] else -> 0004
  0003  l02  GEN[\"b\"] using P[\"p\"]  (when false)
             static: unreachable
SPECS  (3 leaves, 1 checks)
  leaves:
    l00  within=-  template=-
    l01  within=-  template=-
    l02  within=c00.then  template=-
  checks:
    c00  within=-
STATIC BOUNDS  tokens=[1, 256] llm_calls=[1, 1] latency>=100us unwind<=1
warning[SPEAR-W005] in plan \"gated\": condition `false` never holds: the then branch can never be taken
  0002  CHECK[false] else -> 0004
warning[SPEAR-W004] in plan \"gated\": slot 0003, which no execution can reach once statically-decided CHECKs are folded
  0003  GEN[\"b\"] using P[\"p\"]
";
    assert_eq!(listing(&plan, Some(&verifier.verify(&plan))), expected);

    // Plans the bytecode pass has nothing to say about stay clean.
    let clean = lower(
        &Pipeline::builder("clean")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .build(),
    )
    .expect("lowers");
    let expected = "\
EXPLAIN LOWERED PLAN \"clean\"  (2 source ops, 2 slots)
  0000  l00  REF[CREATE, set_text] on P[\"p\"]
  0001  l01  GEN[\"a\"] using P[\"p\"]
             static: tokens=[1, 256] llm_calls=[1, 1] latency>=100us
SPECS  (2 leaves, 0 checks)
  leaves:
    l00  within=-  template=-
    l01  within=-  template=-
  checks:
STATIC BOUNDS  tokens=[1, 256] llm_calls=[1, 1] latency>=100us unwind<=1
verifier: clean (2 slots checked)
";
    assert_eq!(listing(&clean, Some(&verifier.verify(&clean))), expected);
}

#[test]
fn kitchen_sink_listing_is_pinned() {
    let plan = lower(&kitchen_sink()).expect("pipeline lowers");
    let expected = "\
EXPLAIN LOWERED PLAN \"kitchen_sink\"  (13 source ops, 15 slots)
  0000  l00  RET[\"corpus\"] -> C[\"docs_a\"]
  0001  l01  MERGE[P[\"docs_a\"], P[\"docs_b\"]] -> P[\"docs\"]
  0002  l02  REF[CREATE, set_text] on P[\"p\"]
  0003  l03  GEN[\"answer_0\"] using P[\"p\"]
             static: tokens=[1, 256] llm_calls=[1, 1] latency>=100us
  0004  c00  CHECK[M[\"confidence\"] < 0.7] else -> 0007
  0005  l04  REF[UPDATE, auto_refine] on P[\"p\"]  (when M[\"confidence\"] < 0.7)
  0006  l05  GEN[\"answer_1\"] using P[\"p\"]  (when M[\"confidence\"] < 0.7)
             static: tokens=[1, 256] llm_calls=[1, 1] latency>=100us
  0007  c01  CHECK[M[\"confidence\"] < 0.9] else -> 0010
  0008  l06  DELEGATE[\"escalate\"] -> C[\"review\"]  (when M[\"confidence\"] < 0.9)
  0009       JUMP -> 0011
  0010  l07  REF[CREATE, set_text] on P[\"note\"]  (when !(M[\"confidence\"] < 0.9))
  0011  c02  CHECK[M[\"retries\"] < 2] else -> 0014
  0012  l08  GEN[\"alt\"] using P[\"p\"]  (when M[\"retries\"] < 2)
             static: tokens=[1, 256] llm_calls=[1, 1] latency>=100us
  0013       JUMP -> 0015
  0014  l09  REF[CREATE, set_text] on P[\"note2\"]  (when !(M[\"retries\"] < 2))
SPECS  (10 leaves, 3 checks)
  leaves:
    l00  within=-  template=-
    l01  within=-  template=-
    l02  within=-  template=-
    l03  within=-  template=-
    l04  within=c00.then  template=-
    l05  within=c00.then  template=-
    l06  within=c01.then  template=-
    l07  within=c01.else  template=-
    l08  within=c02.then  template=-
    l09  within=c02.else  template=-
  checks:
    c00  within=-
    c01  within=-
    c02  within=-
STATIC BOUNDS  tokens=[1, 768] llm_calls=[1, 3] latency>=100us unwind<=2
";
    assert_eq!(listing(&plan, None), expected);
}

#[test]
fn reordered_plan_lists_pushdown_as_a_jump() {
    // The CHECK's else target jumps clear past the guarded Map stage. Its
    // GENs are lowered prompts whose templates parse at compile time, so
    // the leaf pool pins `template=parsed`.
    let plan = filter_map();
    let expected = "\
EXPLAIN LOWERED PLAN \"physical([Filter] [Map])\"  (4 source ops, 4 slots)
  0000  l00  GEN[\"s0\"] using lowered prompt
             prompt: \"Keep negative tweets. Respond with the label followed by a one-sentence justification.\\nTweet: {{ctx:item}}\"  [opaque — no prefix reuse]
             static: tokens=[1, 64] llm_calls=[1, 1] latency>=100us
  0001  l01  DELEGATE[\"plan_filter_verdict\"] -> C[\"pass0\"]
  0002  c00  CHECK[truthy(C[\"pass0\"])] else -> 0004
  0003  l02  GEN[\"s1\"] using lowered prompt  (when truthy(C[\"pass0\"]))
             prompt: \"Clean up the tweet. Use at most 25 words.\\nTweet: {{ctx:item}}\"  [opaque — no prefix reuse]
             static: tokens=[1, 64] llm_calls=[1, 1] latency>=100us
SPECS  (3 leaves, 1 checks)
  leaves:
    l00  within=-  template=parsed
    l01  within=-  template=-
    l02  within=c00.then  template=parsed
  checks:
    c00  within=-
STATIC BOUNDS  tokens=[1, 128] llm_calls=[1, 2] latency>=100us unwind<=2
";
    assert_eq!(listing(&plan, None), expected);
}
