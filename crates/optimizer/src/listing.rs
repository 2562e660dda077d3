//! The one listing of a lowered plan.
//!
//! A compiled [`Program`] is its [`LoweredPlan`] slot for slot (the
//! program counter *is* the slot), so one renderer prints both: [`listing`]
//! writes one line per slot, its text taken from [`LoweredOp::describe`] —
//! the same text the verifier's diagnostics and the error unwind use — with
//! a branch leaf's trigger (`(when …)`) and a lowered GEN's prompt text
//! (cacheable or opaque) under it.
//!
//! - When the plan compiles (`spear_core::compile`), the listing reads its
//!   program too: a pool-operand column (`l07` for leaf spec 7, `c02` for
//!   check spec 2), the constant pool (interned strings, leaf specs, check
//!   specs), and the abstract interpreter's static bounds: each slot's
//!   under its line, the whole-program envelope at the end. A plan that
//!   fails structural verification is listed from the plan alone.
//! - The verifier's diagnostics, when passed, are appended as
//!   [`render_diagnostics`] writes them, or a `verifier: clean` line so
//!   "verified" reads apart from "not run".
//!
//! The format is pinned byte-exact by the `listing_golden` tests, so it
//! doubles as the specification of the bytecode encoding: a change to
//! lowering, jump targets, opcode layout or pool interning shows up there
//! as a readable diff. The operator-tree view with cost estimates is
//! [`crate::explain()`], a separate renderer.

use std::fmt::Write as _;

use spear_core::analysis::{
    analyze, render_diagnostics, Diagnostic, Interval, ResourceModel, SlotBounds,
};
use spear_core::ops::{Op, PromptRef};
use spear_core::plan::{LoweredOp, LoweredPlan};
use spear_core::vm::{Program, VmOp};

/// Render `plan` as a deterministic listing, with its compiled program's
/// sections when it compiles and `diagnostics` (the verifier's findings
/// on it) when passed.
#[must_use]
pub fn listing(plan: &LoweredPlan, diagnostics: Option<&[Diagnostic]>) -> String {
    let program = spear_core::compile(plan).ok();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXPLAIN LOWERED PLAN {:?}  ({} source ops, {} slots)",
        plan.name,
        plan.source_size,
        plan.ops.len()
    );
    let bounds = program
        .as_ref()
        .map(|program| analyze(program, &ResourceModel::default()));
    // Detail lines start under the instruction text.
    let indent = if program.is_some() { 13 } else { 8 };
    let zero = Interval::exact(0);
    for (pc, op) in plan.ops.iter().enumerate() {
        let _ = write!(out, "  {pc:04}  ");
        let _ = match program.as_ref().and_then(|program| program.code().get(pc)) {
            Some(VmOp::Leaf { leaf }) => write!(out, "l{leaf:02}  "),
            Some(VmOp::Check { check, .. }) => write!(out, "c{check:02}  "),
            Some(VmOp::Jump { .. }) => write!(out, "     "),
            None => Ok(()),
        };
        let _ = write!(out, "{}", op.describe());
        if let LoweredOp::Leaf {
            trigger: Some(trigger),
            ..
        } = op
        {
            let _ = write!(out, "  (when {trigger})");
        }
        out.push('\n');
        if let LoweredOp::Leaf {
            op:
                Op::Gen {
                    prompt: PromptRef::Lowered { text, identity },
                    ..
                },
            ..
        } = op
        {
            let _ = match identity {
                Some(id) => writeln!(out, "{:indent$}prompt: {text:?}  [cacheable as {id:?}]", ""),
                None => writeln!(
                    out,
                    "{:indent$}prompt: {text:?}  [opaque — no prefix reuse]",
                    ""
                ),
            };
        }
        let _ = match bounds.as_ref().and_then(|bounds| bounds.per_op.get(pc)) {
            Some(Some(SlotBounds {
                tokens,
                llm_calls,
                latency_lo_us,
            })) if *tokens != zero || *llm_calls != zero => writeln!(
                out,
                "{:indent$}static: tokens={tokens} llm_calls={llm_calls} latency>={latency_lo_us}us",
                ""
            ),
            Some(None) => writeln!(out, "{:indent$}static: unreachable", ""),
            Some(Some(_)) | None => Ok(()),
        };
    }
    if let (Some(program), Some(bounds)) = (&program, &bounds) {
        const_pool(&mut out, program);
        let _ = writeln!(out, "STATIC BOUNDS  {bounds}");
    }
    match diagnostics {
        Some([]) => {
            let _ = writeln!(out, "verifier: clean ({} slots checked)", plan.ops.len());
        }
        Some(diagnostics) => out.push_str(&render_diagnostics(plan, diagnostics)),
        None => {}
    }
    out
}

/// The constant-pool section: every interned string, leaf spec and check
/// spec, by pool index.
fn const_pool(out: &mut String, program: &Program) {
    let pool = program.pool();
    let _ = writeln!(
        out,
        "CONST POOL  ({} strings, {} leaves, {} checks)",
        pool.strings().len(),
        pool.leaves().len(),
        pool.checks().len(),
    );
    let _ = writeln!(out, "  strings:");
    for (id, s) in pool.strings().iter().enumerate() {
        let _ = writeln!(out, "    s{id:02}  {s:?}");
    }
    let _ = writeln!(out, "  leaves:");
    for (id, leaf) in pool.leaves().iter().enumerate() {
        let _ = writeln!(
            out,
            "    l{id:02}  describe=s{:02}  trigger={}  frames={}  template={}",
            leaf.describe_id(),
            leaf.trigger_id()
                .map_or_else(|| "-".to_owned(), |t| format!("s{t:02}")),
            frames(leaf.frame_ids()),
            if leaf.has_template() { "parsed" } else { "-" },
        );
    }
    let _ = writeln!(out, "  checks:");
    for (id, check) in pool.checks().iter().enumerate() {
        let _ = writeln!(
            out,
            "    c{id:02}  label=s{:02}  frames={}",
            check.label_id(),
            frames(check.frame_ids()),
        );
    }
}

/// `[s00, s03]`-style rendering of a spec's unwind-frame indices, shared
/// by the leaf and check pool sections.
fn frames(ids: &[u32]) -> String {
    let body = ids
        .iter()
        .map(|id| format!("s{id:02}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{body}]")
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spear_core::analysis::Verifier;
    use spear_core::prelude::*;

    #[test]
    fn a_compiled_plan_adds_its_program_sections() {
        let pipeline = Pipeline::builder("d")
            .create_text("p", "Q: {{q}}", RefinementMode::Manual)
            .gen("a", "p")
            .check_else(
                Cond::low_confidence(0.5),
                |t| t.gen("b", "p"),
                |e| e.gen("c", "p"),
            )
            .build();
        let plan = lower(&pipeline).expect("lowers");

        let unverified = listing(&plan, None);
        assert!(!unverified.contains("verifier:"), "{unverified}");
        let full = listing(&plan, Some(&[]));
        assert!(full.starts_with(&unverified), "{full}");
        // Every slot is listed exactly once, with its pool operand.
        for (pc, op) in plan.ops.iter().enumerate() {
            let line = format!("  {pc:04}  ");
            assert_eq!(full.matches(&line).count(), 1, "slot {pc}");
            assert!(full.contains(&op.describe()), "slot {pc}");
        }
        assert!(full.contains("  0002  c00  CHECK[M[\"confidence\"] < 0.5] else -> 0005\n"));
        assert!(full.contains("  0004       JUMP -> 0006\n"));
        for section in [
            "static: tokens=",
            "CONST POOL",
            "strings:",
            "leaves:",
            "checks:",
            "STATIC BOUNDS  tokens=",
        ] {
            assert!(full.contains(section), "{section}");
        }
        assert!(full.ends_with("verifier: clean (6 slots checked)\n"));
    }

    #[test]
    fn a_plan_that_does_not_compile_is_listed_from_the_plan_alone() {
        let bad = LoweredPlan {
            name: "bad".into(),
            source_size: 1,
            ops: vec![LoweredOp::Jump { target: 9 }],
        };
        assert!(spear_core::compile(&bad).is_err());
        let diags = Verifier::new().verify(&bad);
        let text = listing(&bad, Some(&diags));
        assert!(text.contains("SPEAR-E001"), "{text}");
        assert!(text.starts_with(
            "EXPLAIN LOWERED PLAN \"bad\"  (1 source ops, 1 slots)\n  0000  JUMP -> 0009\n"
        ));
        for section in ["CONST POOL", "STATIC BOUNDS", "static:"] {
            assert!(!text.contains(section), "{section} without a program");
        }
    }
}
