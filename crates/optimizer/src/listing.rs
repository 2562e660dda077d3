//! The one listing of a lowered plan.
//!
//! A [`Program`] is the lowered plan (the program counter *is* the slot),
//! so one renderer prints it: [`listing`] writes one line per slot — its
//! spec operand (`l07` for leaf spec 7, `c02` for check spec 2) and its
//! text from [`Program::describe`], the same text the verifier's
//! diagnostics and the error unwind use — with a branch leaf's trigger
//! (`(when …)`), a lowered GEN's prompt text (cacheable or opaque) and the
//! abstract interpreter's static bounds under it; then the specs (each
//! leaf and check spec with its innermost enclosing branch) and the
//! whole-program envelope. The verifier's diagnostics, when passed, are
//! appended as [`render_diagnostics`] writes them, or a `verifier: clean`
//! line so "verified" reads apart from "not run".
//!
//! The format is pinned byte-exact by the `listing_golden` tests, so it
//! doubles as the specification of the bytecode encoding: a change to
//! lowering, jump targets, opcode layout or branch nesting shows up there
//! as a readable diff. The operator-tree view with cost estimates is
//! [`crate::explain()`], a separate renderer.

use std::fmt::Write as _;

use spear_core::analysis::{
    analyze, render_diagnostics, Diagnostic, Interval, ResourceModel, SlotBounds,
};
use spear_core::ops::{Op, PromptRef};
use spear_core::vm::{Branch, Program, VmOp, Within};

/// Detail lines start under the instruction text.
const INDENT: usize = 13;

/// Render `program` as a deterministic listing, with `diagnostics` (the
/// verifier's findings on it) when passed.
#[must_use]
pub fn listing(program: &Program, diagnostics: Option<&[Diagnostic]>) -> String {
    let code = program.code();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXPLAIN LOWERED PLAN {:?}  ({} source ops, {} slots)",
        program.name(),
        program.source_size(),
        code.len()
    );
    let bounds = analyze(program, &ResourceModel::default());
    let zero = Interval::exact(0);
    for (pc, &op) in code.iter().enumerate() {
        let _ = write!(out, "  {pc:04}  ");
        let leaf = match op {
            VmOp::Leaf { leaf } => {
                let _ = write!(out, "l{leaf:02}  ");
                Some(&program.leaves()[leaf as usize])
            }
            VmOp::Check { check, .. } => {
                let _ = write!(out, "c{check:02}  ");
                None
            }
            VmOp::Jump { .. } => {
                out.push_str("     ");
                None
            }
        };
        out.push_str(&program.describe(pc).unwrap_or_default());
        if let Some(trigger) = leaf.and_then(|spec| program.trigger(spec.within())) {
            let _ = write!(out, "  (when {trigger})");
        }
        out.push('\n');
        if let Some(Op::Gen {
            prompt: PromptRef::Lowered { text, identity },
            ..
        }) = leaf.map(|spec| spec.op())
        {
            let _ = match identity {
                Some(id) => writeln!(out, "{:INDENT$}prompt: {text:?}  [cacheable as {id:?}]", ""),
                None => writeln!(
                    out,
                    "{:INDENT$}prompt: {text:?}  [opaque — no prefix reuse]",
                    ""
                ),
            };
        }
        let _ = match bounds.per_op.get(pc) {
            Some(Some(SlotBounds {
                tokens,
                llm_calls,
                latency_lo_us,
            })) if *tokens != zero || *llm_calls != zero => writeln!(
                out,
                "{:INDENT$}static: tokens={tokens} llm_calls={llm_calls} latency>={latency_lo_us}us",
                ""
            ),
            Some(None) => writeln!(out, "{:INDENT$}static: unreachable", ""),
            Some(Some(_)) | None => Ok(()),
        };
    }
    specs(&mut out, program);
    let _ = writeln!(out, "STATIC BOUNDS  {bounds}");
    match diagnostics {
        Some([]) => {
            let _ = writeln!(out, "verifier: clean ({} slots checked)", code.len());
        }
        Some(diagnostics) => out.push_str(&render_diagnostics(program, diagnostics)),
        None => {}
    }
    out
}

/// The specs section: every leaf spec and check spec, by index, with its
/// innermost enclosing branch.
fn specs(out: &mut String, program: &Program) {
    let _ = writeln!(
        out,
        "SPECS  ({} leaves, {} checks)",
        program.leaves().len(),
        program.checks().len(),
    );
    let _ = writeln!(out, "  leaves:");
    for (id, leaf) in program.leaves().iter().enumerate() {
        let _ = writeln!(
            out,
            "    l{id:02}  within={}  template={}",
            within(leaf.within()),
            if leaf.has_template() { "parsed" } else { "-" },
        );
    }
    let _ = writeln!(out, "  checks:");
    for (id, check) in program.checks().iter().enumerate() {
        let _ = writeln!(out, "    c{id:02}  within={}", within(check.within()));
    }
}

/// `c00.then`-style rendering of a spec's innermost enclosing branch, `-`
/// at top level.
fn within(within: Within) -> String {
    match within {
        Some((check, Branch::Then)) => format!("c{check:02}.then"),
        Some((check, Branch::Else)) => format!("c{check:02}.else"),
        None => "-".to_owned(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spear_core::prelude::*;

    #[test]
    fn a_listing_has_every_slot_and_the_program_sections() {
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
        // Every slot is listed exactly once, with its spec operand.
        for pc in 0..plan.code().len() {
            let line = format!("  {pc:04}  ");
            assert_eq!(full.matches(&line).count(), 1, "slot {pc}");
            assert!(full.contains(&plan.describe(pc).unwrap()), "slot {pc}");
        }
        assert!(full.contains("  0002  c00  CHECK[M[\"confidence\"] < 0.5] else -> 0005\n"));
        assert!(full.contains("  0004       JUMP -> 0006\n"));
        for section in [
            "static: tokens=",
            "SPECS",
            "leaves:",
            "checks:",
            "STATIC BOUNDS  tokens=",
        ] {
            assert!(full.contains(section), "{section}");
        }
        assert!(full.ends_with("verifier: clean (6 slots checked)\n"));
    }
}
