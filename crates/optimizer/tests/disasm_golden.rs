//! Golden tests for the bytecode disassembler: byte-exact listings of a
//! program exercising every opcode (LEAF, CHECK, JUMP — one per source
//! slot, at the slot's own pc) and the full constant pool (strings, leaf
//! specs with triggers/frames/templates, check specs). Any change to
//! opcode layout or pool interning shows up here as a readable diff.

use spear_core::prelude::*;
use spear_optimizer::disasm;

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

fn compile(pipeline: &Pipeline) -> spear_core::Program {
    let plan = lower(pipeline).expect("pipeline lowers");
    spear_core::compile(&plan).expect("verified plan compiles")
}

#[test]
fn kitchen_sink_disassembly_is_pinned() {
    let program = compile(&kitchen_sink());
    let expected = "\
DISASSEMBLY OF PROGRAM \"kitchen_sink\"  (13 source ops, 15 instructions)
  0000  LEAF           l00                  ; RET[\"corpus\"] -> C[\"docs_a\"]
  0001  LEAF           l01                  ; MERGE[P[\"docs_a\"], P[\"docs_b\"]] -> P[\"docs\"]
  0002  LEAF           l02                  ; REF[CREATE, set_text] on P[\"p\"]
  0003  LEAF           l03                  ; GEN[\"answer_0\"] using P[\"p\"]
  0004  CHECK          c00  else -> 0007  ; CHECK[M[\"confidence\"] < 0.7]
  0005  LEAF           l04                  ; REF[UPDATE, auto_refine] on P[\"p\"]
  0006  LEAF           l05                  ; GEN[\"answer_1\"] using P[\"p\"]
  0007  CHECK          c01  else -> 0010  ; CHECK[M[\"confidence\"] < 0.9]
  0008  LEAF           l06                  ; DELEGATE[\"escalate\"] -> C[\"review\"]
  0009  JUMP           -> 0011
  0010  LEAF           l07                  ; REF[CREATE, set_text] on P[\"note\"]
  0011  CHECK          c02  else -> 0014  ; CHECK[M[\"retries\"] < 2]
  0012  LEAF           l08                  ; GEN[\"alt\"] using P[\"p\"]
  0013  JUMP           -> 0015
  0014  LEAF           l09                  ; REF[CREATE, set_text] on P[\"note2\"]
CONST POOL  (18 strings, 10 leaves, 3 checks)
  strings:
    s00  \"RET[\\\"corpus\\\"] -> C[\\\"docs_a\\\"]\"
    s01  \"MERGE[P[\\\"docs_a\\\"], P[\\\"docs_b\\\"]] -> P[\\\"docs\\\"]\"
    s02  \"REF[CREATE, set_text] on P[\\\"p\\\"]\"
    s03  \"GEN[\\\"answer_0\\\"] using P[\\\"p\\\"]\"
    s04  \"CHECK[M[\\\"confidence\\\"] < 0.7]\"
    s05  \"REF[UPDATE, auto_refine] on P[\\\"p\\\"]\"
    s06  \"M[\\\"confidence\\\"] < 0.7\"
    s07  \"GEN[\\\"answer_1\\\"] using P[\\\"p\\\"]\"
    s08  \"CHECK[M[\\\"confidence\\\"] < 0.9]\"
    s09  \"DELEGATE[\\\"escalate\\\"] -> C[\\\"review\\\"]\"
    s10  \"M[\\\"confidence\\\"] < 0.9\"
    s11  \"REF[CREATE, set_text] on P[\\\"note\\\"]\"
    s12  \"!(M[\\\"confidence\\\"] < 0.9)\"
    s13  \"CHECK[M[\\\"retries\\\"] < 2]\"
    s14  \"GEN[\\\"alt\\\"] using P[\\\"p\\\"]\"
    s15  \"M[\\\"retries\\\"] < 2\"
    s16  \"REF[CREATE, set_text] on P[\\\"note2\\\"]\"
    s17  \"!(M[\\\"retries\\\"] < 2)\"
  leaves:
    l00  describe=s00  trigger=-  frames=[]  template=-
    l01  describe=s01  trigger=-  frames=[]  template=-
    l02  describe=s02  trigger=-  frames=[]  template=-
    l03  describe=s03  trigger=-  frames=[]  template=-
    l04  describe=s05  trigger=s06  frames=[s04]  template=-
    l05  describe=s07  trigger=s06  frames=[s04]  template=-
    l06  describe=s09  trigger=s10  frames=[s08]  template=-
    l07  describe=s11  trigger=s12  frames=[s08]  template=-
    l08  describe=s14  trigger=s15  frames=[s13]  template=-
    l09  describe=s16  trigger=s17  frames=[s13]  template=-
  checks:
    c00  label=s04  frames=[]
    c01  label=s08  frames=[]
    c02  label=s13  frames=[]
STATIC BOUNDS  tokens=[1, 768] llm_calls=[1, 3] latency>=100us unwind<=2
    0003  tokens=[1, 256] llm_calls=[1, 1] latency>=100us
    0006  tokens=[1, 256] llm_calls=[1, 1] latency>=100us
    0012  tokens=[1, 256] llm_calls=[1, 1] latency>=100us
";
    assert_eq!(disasm(&program), expected);
}

#[test]
fn lowered_physical_plan_pins_parsed_templates() {
    // The reordered Filter→Map shape from the explain goldens: its GENs
    // are lowered prompts whose templates parse at compile time, so the
    // leaf pool pins `template=parsed`.
    let plan = spear_optimizer::plan::SemanticPlan::filter_then_map(
        "Keep negative tweets.",
        "Clean up the tweet.",
    );
    let lowered =
        spear_optimizer::lower_physical(&spear_optimizer::plan::PhysicalPlan::sequential(&plan))
            .expect("lowers");
    let program = spear_core::compile(&lowered).expect("verified plan compiles");
    let expected = "\
DISASSEMBLY OF PROGRAM \"physical([Filter] [Map])\"  (4 source ops, 4 instructions)
  0000  LEAF           l00                  ; GEN[\"s0\"] using lowered prompt
  0001  LEAF           l01                  ; DELEGATE[\"plan_filter_verdict\"] -> C[\"pass0\"]
  0002  CHECK          c00  else -> 0004  ; CHECK[truthy(C[\"pass0\"])]
  0003  LEAF           l02                  ; GEN[\"s1\"] using lowered prompt
CONST POOL  (5 strings, 3 leaves, 1 checks)
  strings:
    s00  \"GEN[\\\"s0\\\"] using lowered prompt\"
    s01  \"DELEGATE[\\\"plan_filter_verdict\\\"] -> C[\\\"pass0\\\"]\"
    s02  \"CHECK[truthy(C[\\\"pass0\\\"])]\"
    s03  \"GEN[\\\"s1\\\"] using lowered prompt\"
    s04  \"truthy(C[\\\"pass0\\\"])\"
  leaves:
    l00  describe=s00  trigger=-  frames=[]  template=parsed
    l01  describe=s01  trigger=-  frames=[]  template=-
    l02  describe=s03  trigger=s04  frames=[s02]  template=parsed
  checks:
    c00  label=s02  frames=[]
STATIC BOUNDS  tokens=[1, 128] llm_calls=[1, 2] latency>=100us unwind<=2
    0000  tokens=[1, 64] llm_calls=[1, 1] latency>=100us
    0003  tokens=[1, 64] llm_calls=[1, 1] latency>=100us
";
    assert_eq!(disasm(&program), expected);
}
