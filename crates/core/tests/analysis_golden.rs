//! Golden tests for the verifier's diagnostics: one lowered plan per
//! seeded defect class, with the *rendered* diagnostic pinned byte-for-byte.
//! Lint codes are a stable interface — tools and serve-layer clients match
//! on them — so any drift in code, severity, anchoring, or message shows
//! up here as a readable diff. The structural codes (`SPEAR-E001`, `E002`,
//! `E003`, `E006`, `E012`) and `SPEAR-W001` need code `lower` never emits;
//! their goldens are `spear_core`'s own unit tests, where hand-written
//! slots can reach the gate.

use spear_core::analysis::{render_diagnostics, Verifier};
use spear_core::condition::Cond;
use spear_core::history::RefinementMode;
use spear_core::llm::GenOptions;
use spear_core::ops::PromptRef;
use spear_core::pipeline::Pipeline;
use spear_core::plan::lower;
use spear_core::vm::Program;

/// Verify `plan` and return the rendered diagnostics.
fn rendered(verifier: &Verifier<'_>, plan: &Program) -> String {
    render_diagnostics(plan, &verifier.verify(plan))
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
fn golden_w002_affinity_mismatch() {
    let stage = |identity: &str| PromptRef::Lowered {
        text: "generated".into(),
        identity: Some(identity.into()),
    };
    let p = lower(
        &Pipeline::builder("mixed")
            .gen_with("s0", stage("view:tweets@1/stage0"), GenOptions::default())
            .gen_with("s1", stage("view:reviews@2/stage1"), GenOptions::default())
            .build(),
    )
    .expect("lowers");
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
