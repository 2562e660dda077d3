//! Golden tests for the IR verifier's diagnostics: one hand-built plan per
//! seeded defect class, with the *rendered* diagnostic pinned byte-for-byte.
//! Lint codes are a stable interface — tools and serve-layer clients match
//! on them — so any drift in code, severity, anchoring, or message shows
//! up here as a readable diff.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spear_core::analysis::{render_diagnostics, Verifier};
use spear_core::batch::{AssignedJob, BatchOutcome, BatchRunner};
use spear_core::condition::Cond;
use spear_core::history::RefinementMode;
use spear_core::llm::{EchoLlm, GenOptions, GenRequest, GenResponse, LlmClient};
use spear_core::ops::{Op, PromptRef};
use spear_core::pipeline::Pipeline;
use spear_core::plan::{lower, LoweredOp, LoweredPlan};
use spear_core::runtime::{ExecState, Runtime};
use spear_core::SpearError;

fn leaf(op: Op) -> LoweredOp {
    LoweredOp::Leaf {
        op,
        trigger: None,
        frames: Vec::new(),
    }
}

fn gen(label: &str, prompt: PromptRef) -> Op {
    Op::Gen {
        label: label.into(),
        prompt,
        options: GenOptions::default(),
    }
}

fn create(target: &str) -> Op {
    Op::Ref {
        target: target.into(),
        action: spear_core::history::RefAction::Create,
        refiner: "set_text".into(),
        args: spear_core::value::Value::from("base"),
        mode: RefinementMode::Manual,
    }
}

fn plan(name: &str, ops: Vec<LoweredOp>) -> LoweredPlan {
    LoweredPlan {
        name: name.into(),
        source_size: ops.len() as u64,
        ops,
    }
}

/// Verify `plan` and return the rendered diagnostics.
fn rendered(verifier: &Verifier<'_>, plan: &LoweredPlan) -> String {
    render_diagnostics(plan, &verifier.verify(plan))
}

#[test]
fn golden_e001_bad_jump_target() {
    let p = plan(
        "bad_jump",
        vec![leaf(create("p")), LoweredOp::Jump { target: 9 }],
    );
    assert_eq!(
        rendered(&Verifier::new(), &p),
        "error[SPEAR-E001] in plan \"bad_jump\": jump target 9 is out of bounds (2 slots)\n\
         \x20 0001  JUMP -> 0009\n"
    );
}

#[test]
fn golden_e002_check_target_escapes() {
    let p = plan(
        "bad_else",
        vec![
            leaf(create("p")),
            LoweredOp::Check {
                cond: Cond::Always,
                on_false: 7,
                frames: Vec::new(),
            },
            leaf(gen("a", PromptRef::key("p"))),
        ],
    );
    assert_eq!(
        rendered(&Verifier::new(), &p),
        "error[SPEAR-E002] in plan \"bad_else\": CHECK else-target 7 escapes the plan (3 slots)\n\
         \x20 0001  CHECK[true] else -> 0007\n"
    );
}

#[test]
fn golden_e003_placeholder_leak() {
    let p = plan("leaked", vec![LoweredOp::Jump { target: usize::MAX }]);
    let diags = Verifier::new().verify(&p);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "SPEAR-E003");
    let text = render_diagnostics(&p, &diags);
    assert!(
        text.starts_with(
            "error[SPEAR-E003] in plan \"leaked\": JUMP at slot 0000 kept the usize::MAX \
             lowering placeholder\n"
        ),
        "{text}"
    );
}

#[test]
fn golden_e004_undefined_prompt_key() {
    let p = lower(&Pipeline::builder("bad").gen("answer", "ghost").build()).expect("lowers");
    assert_eq!(
        rendered(&Verifier::new(), &p),
        "error[SPEAR-E004] in plan \"bad\": P[\"ghost\"] is never created before this GEN\n\
         \x20 0000  GEN[\"answer\"] using P[\"ghost\"]\n"
    );
}

#[test]
fn golden_e005_budget_infeasible_deadline() {
    let p = lower(
        &Pipeline::builder("rushed")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .gen("b", "p")
            .build(),
    )
    .expect("lowers");
    // Two unconditional GENs at >= 100 virtual µs each vs a 150 µs deadline.
    assert_eq!(
        rendered(&Verifier::new().deadline_us(150), &p),
        "error[SPEAR-E005] in plan \"rushed\": every path needs at least 200 µs of generation \
         but the deadline is 150 µs\n"
    );
}

#[test]
fn golden_e006_backward_jump() {
    let p = plan(
        "looping",
        vec![leaf(create("p")), LoweredOp::Jump { target: 0 }],
    );
    assert_eq!(
        rendered(&Verifier::new(), &p),
        "error[SPEAR-E006] in plan \"looping\": slot 0001 jumps backwards to 0000; lowered \
         plans must move strictly forward to guarantee termination\n\
         \x20 0001  JUMP -> 0000\n"
    );
}

#[test]
fn golden_w001_unreachable_slot() {
    let p = plan(
        "dead_code",
        vec![
            LoweredOp::Jump { target: 2 },
            leaf(create("orphan")),
            leaf(create("p")),
        ],
    );
    assert_eq!(
        rendered(&Verifier::new(), &p),
        "warning[SPEAR-W001] in plan \"dead_code\": slot 0001 can never be reached from entry\n\
         \x20 0001  REF[CREATE, set_text] on P[\"orphan\"]\n"
    );
}

#[test]
fn golden_w002_affinity_mismatch() {
    let stage = |label: &str, identity: &str| {
        leaf(gen(
            label,
            PromptRef::Lowered {
                text: "generated".into(),
                identity: Some(identity.into()),
            },
        ))
    };
    let p = plan(
        "mixed",
        vec![
            stage("s0", "view:tweets@1/stage0"),
            stage("s1", "view:reviews@2/stage1"),
        ],
    );
    let diags = Verifier::new().verify(&p);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "SPEAR-W002");
    assert_eq!(diags[0].slot, Some(1));
    assert_eq!(
        diags[0].message,
        "fused stage carries affinity base \"view:reviews@2\" but the stage at slot 0000 \
         carries \"view:tweets@1\"; mixed bases defeat cache-affinity routing"
    );
}

#[test]
fn golden_w003_budget_at_risk() {
    let p = lower(
        &Pipeline::builder("risky")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .check(Cond::low_confidence(0.5), |b| b.gen("b", "p"))
            .build(),
    )
    .expect("lowers");
    // The retry GEN is conditional: worst case 200 µs, best case 100 µs,
    // so a 150 µs deadline is at risk but not infeasible.
    let diags = Verifier::new().deadline_us(150).verify(&p);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "SPEAR-W003");
    assert_eq!(
        diags[0].message,
        "the worst-case path needs 200 µs of generation against a deadline of 150 µs"
    );
}

#[test]
fn golden_e005_floor_skips_statically_dead_branches() {
    let p = lower(
        &Pipeline::builder("gated_floor")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::Never,
                |t| t.gen("a", "p"),
                |e| e.gen("b", "p").gen("c", "p"),
            )
            .build(),
    )
    .expect("lowers");
    // The one-GEN then-branch never runs under `Never`: every executable
    // path takes the two-GEN else-branch, 200 µs against a 150 µs deadline.
    assert_eq!(
        rendered(&Verifier::new().deadline_us(150), &p),
        "error[SPEAR-E005] in plan \"gated_floor\": every path needs at least 200 µs of \
         generation but the deadline is 150 µs\n"
    );
}

/// A verifier with the opt-in bytecode pass registered: IR-level lints
/// plus `SPEAR-W004`/`SPEAR-W005` from the abstract interpreter's
/// cond-refined bytecode CFG.
fn bytecode_verifier() -> Verifier<'static> {
    Verifier::new().register_pass(Box::new(spear_core::analysis::BytecodePass))
}

#[test]
fn golden_w004_w005_statically_dead_else_branch() {
    // `check_else(Always, …)` is the specialization idiom: the condition
    // is decided at plan-build time, so the else branch is dead weight the
    // IR reachability pass cannot see (it treats CHECK edges as opaque).
    let p = lower(
        &Pipeline::builder("specialized")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::Always,
                |t| t.expand("p", "then"),
                |e| e.expand("p", "else"),
            )
            .gen("a", "p")
            .build(),
    )
    .expect("lowers");
    assert_eq!(
        rendered(&bytecode_verifier(), &p),
        "warning[SPEAR-W005] in plan \"specialized\": condition `true` always holds: the else \
         branch can never be taken\n\
         \x20 0001  CHECK[true] else -> 0004\n\
         warning[SPEAR-W004] in plan \"specialized\": slot 0004, which no execution can reach \
         once statically-decided CHECKs are folded\n\
         \x20 0004  REF[APPEND, append] on P[\"p\"]\n"
    );
}

#[test]
fn golden_w004_w005_never_taken_then_branch() {
    // The dual: a `Never` guard, right after a GEN, whose then-branch can
    // never run.
    let p = lower(
        &Pipeline::builder("gated")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .check(Cond::Never, |t| t.gen("b", "p"))
            .build(),
    )
    .expect("lowers");
    assert_eq!(
        rendered(&bytecode_verifier(), &p),
        "warning[SPEAR-W005] in plan \"gated\": condition `false` never holds: the then branch \
         can never be taken\n\
         \x20 0002  CHECK[false] else -> 0004\n\
         warning[SPEAR-W004] in plan \"gated\": slot 0003, which no execution can reach once \
         statically-decided CHECKs are folded\n\
         \x20 0003  GEN[\"b\"] using P[\"p\"]\n"
    );
}

#[test]
fn bytecode_pass_is_quiet_on_dynamic_plans() {
    let p = lower(
        &Pipeline::builder("dynamic")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .check(Cond::low_confidence(0.5), |t| t.gen("b", "p"))
            .build(),
    )
    .expect("lowers");
    assert_eq!(rendered(&bytecode_verifier(), &p), "");
}

#[test]
fn golden_e012_check_in_leaf_slot() {
    // A deserialized or hand-built plan can put a CHECK where only data
    // operators belong; its then-branch has no slots, so executing it
    // would silently skip the CREATE. Compilation fails closed instead.
    let p = plan(
        "leaf_check",
        vec![leaf(Op::Check {
            cond: Cond::Always,
            then_ops: vec![create("p")],
            else_ops: Vec::new(),
        })],
    );
    assert_eq!(
        rendered(&Verifier::new(), &p),
        "error[SPEAR-E012] in plan \"leaf_check\": leaf slot 0000 carries a CHECK; its branches \
         must be lowered to Check and Jump slots\n\
         \x20 0000  CHECK[true]\n"
    );
    assert!(matches!(
        spear_core::compile(&p),
        Err(SpearError::InvalidPlan { .. })
    ));
}

/// An echo backend that counts the generations it is asked for.
#[derive(Default)]
struct CountingLlm {
    calls: AtomicUsize,
    echo: EchoLlm,
}

impl LlmClient for CountingLlm {
    fn generate(&self, request: &GenRequest) -> spear_core::Result<GenResponse> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.echo.generate(request)
    }

    fn model_name(&self) -> &str {
        "counting"
    }
}

#[test]
fn lowering_rejects_placeholder_leaks_end_to_end() {
    // The compiler's structural check is the one gate in front of the VM:
    // a leaked placeholder or an escaping CHECK target comes back as
    // InvalidPlan from every entry point, before any operator runs.
    let malformed = [
        plan(
            "leaked",
            vec![
                leaf(create("p")),
                leaf(gen("a", PromptRef::key("p"))),
                LoweredOp::Jump { target: usize::MAX },
            ],
        ),
        plan(
            "bad_else",
            vec![
                leaf(create("p")),
                LoweredOp::Check {
                    cond: Cond::Always,
                    on_false: 7,
                    frames: Vec::new(),
                },
                leaf(gen("a", PromptRef::key("p"))),
            ],
        ),
    ];
    let llm = Arc::new(CountingLlm::default());
    let rt = Runtime::builder()
        .llm(Arc::clone(&llm) as Arc<dyn LlmClient>)
        .build();
    let invalid = |slot: &spear_core::Result<BatchOutcome>| {
        matches!(slot, Err(SpearError::InvalidPlan { .. }))
    };
    for p in malformed {
        let result = spear_core::vm::compile(&p);
        assert!(
            matches!(result, Err(SpearError::InvalidPlan { .. })),
            "{}: {result:?}",
            p.name
        );

        let p = Arc::new(p);
        let states = || (0..4).map(|_| ExecState::new()).collect();
        for workers in [1, 4] {
            let slots = BatchRunner::new(workers).run_lowered(&rt, &p, states());
            assert_eq!(slots.len(), 4);
            assert!(slots.iter().all(invalid), "{} at {workers} workers", p.name);
        }
        let jobs = (0..4)
            .map(|i| AssignedJob {
                lane: i,
                owner: 1 + i as u64,
                plan: Arc::clone(&p),
                program: None,
                state: ExecState::new(),
            })
            .collect();
        let slots = BatchRunner::new(4).run_assigned(&rt, jobs);
        assert_eq!(slots.len(), 4);
        assert!(slots.iter().all(invalid), "{} via run_assigned", p.name);
    }
    assert_eq!(llm.calls.load(Ordering::SeqCst), 0, "no GEN ever ran");
}

mod soundness {
    use super::*;
    use proptest::prelude::*;

    fn nested_pipeline(depth: u32, breadth: u32) -> Pipeline {
        fn add_layer(
            b: spear_core::pipeline::PipelineBuilder,
            depth: u32,
            breadth: u32,
        ) -> spear_core::pipeline::PipelineBuilder {
            if depth == 0 {
                return b.expand("p", "leaf");
            }
            let mut b = b;
            for i in 0..breadth {
                b = b.check_else(
                    Cond::low_confidence(0.5),
                    |t| add_layer(t.expand("p", "then"), depth - 1, breadth),
                    |e| e.expand("p", &format!("else {i}")),
                );
            }
            b
        }
        let b = Pipeline::builder("nested").create_text("p", "base", RefinementMode::Manual);
        add_layer(b, depth, breadth).gen("a", "p").build()
    }

    proptest! {
        /// Every nested-CHECK shape the builder can express lowers `Ok`
        /// and verifies clean: branch joins, else-jumps, and placeholder
        /// patching survive arbitrary nesting.
        #[test]
        fn nested_check_pipelines_lower_and_verify_clean(
            depth in 0u32..4,
            breadth in 1u32..4,
        ) {
            let p = nested_pipeline(depth, breadth);
            let lowered = lower(&p).expect("builder pipelines lower clean");
            let diags = Verifier::new().verify(&lowered);
            prop_assert!(diags.is_empty(), "{diags:?}");
        }
    }
}
