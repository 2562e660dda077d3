//! Slot-for-slot comparison of two programs.
//!
//! [`crate::plan::lower`] emits the program itself and nothing rewrites
//! it afterwards, so there is no translation left to validate:
//! `tests/trace_equivalence.rs` holds every program to the reference tree
//! walk. What stays is `validate_compile`, the slot-for-slot equality
//! that once compared a translation with its source, and
//! `validate_optimized`, which now means the same. Both are fail-closed:
//! any slot that cannot be shown equal is a [`TvFailure`].

use std::fmt;

use crate::vm::{Program, VmOp};

/// One undischarged proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TvFailure {
    /// Source slot the obligation anchors to, when known.
    pub src_slot: Option<usize>,
    /// Code pc the obligation anchors to, when known.
    pub code_pc: Option<usize>,
    /// What could not be proven.
    pub message: String,
}

impl TvFailure {
    fn at(src_slot: Option<usize>, code_pc: Option<usize>, message: impl Into<String>) -> Self {
        Self {
            src_slot,
            code_pc,
            message: message.into(),
        }
    }
}

impl fmt::Display for TvFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation validation failed")?;
        if let Some(slot) = self.src_slot {
            write!(f, " at source slot {slot:04}")?;
        }
        if let Some(pc) = self.code_pc {
            write!(f, " (code pc {pc:04})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Slot-for-slot equality of two programs: the same name, size and slot
/// count, and at every slot the same instruction shape, content (compared
/// through each program's own pool) and branch target. What compared a
/// translation with its source before `lower` emitted the program itself;
/// a program and its clone always pass.
///
/// # Errors
///
/// Returns every slot that differs.
#[doc(hidden)]
pub fn validate_compile(plan: &Program, program: &Program) -> Result<(), Vec<TvFailure>> {
    if plan.name() != program.name()
        || plan.source_size() != program.source_size()
        || plan.code().len() != program.code().len()
    {
        return Err(vec![TvFailure::at(
            None,
            None,
            "the programs differ in name, size or slot count",
        )]);
    }
    let failures: Vec<TvFailure> = plan
        .code()
        .iter()
        .zip(program.code())
        .enumerate()
        .filter_map(|(slot, (&a, &b))| {
            let differs = match (a, b) {
                (VmOp::Jump { target: x }, VmOp::Jump { target: y }) => {
                    (x != y).then(|| "jump targets differ".to_owned())
                }
                (VmOp::Check { on_false: x, .. }, VmOp::Check { on_false: y, .. }) if x != y => {
                    Some("else-targets differ".to_owned())
                }
                _ => obs_eq(plan, program, slot).err(),
            };
            differs.map(|message| TvFailure::at(Some(slot), Some(slot), message))
        })
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// Observable equality of the two instructions at `pc`, content-wise
/// across the two pools. `pc` is in range of both programs.
fn obs_eq(a: &Program, b: &Program, pc: usize) -> Result<(), String> {
    let (pl, ql) = (a.pool(), b.pool());
    let leaf_eq = |ia: u32, ib: u32| -> Result<(), String> {
        let (sa, sb) = match (pl.leaves().get(ia as usize), ql.leaves().get(ib as usize)) {
            (Some(sa), Some(sb)) => (sa, sb),
            _ => return Err("leaf index escapes the pool".into()),
        };
        if sa.op() != sb.op()
            || pl.str(sa.describe_id()) != ql.str(sb.describe_id())
            || sa.trigger_id().map(|id| pl.str(id)) != sb.trigger_id().map(|id| ql.str(id))
            || sa.frame_ids().len() != sb.frame_ids().len()
            || sa
                .frame_ids()
                .iter()
                .zip(sb.frame_ids())
                .any(|(&x, &y)| pl.str(x) != ql.str(y))
        {
            return Err("leaf specs differ".into());
        }
        Ok(())
    };
    let check_eq = |ia: u32, ib: u32| -> Result<(), String> {
        let (sa, sb) = match (pl.checks().get(ia as usize), ql.checks().get(ib as usize)) {
            (Some(sa), Some(sb)) => (sa, sb),
            _ => return Err("check index escapes the pool".into()),
        };
        if sa.cond() != sb.cond()
            || pl.str(sa.label_id()) != ql.str(sb.label_id())
            || sa.frame_ids().len() != sb.frame_ids().len()
            || sa
                .frame_ids()
                .iter()
                .zip(sb.frame_ids())
                .any(|(&x, &y)| pl.str(x) != ql.str(y))
        {
            return Err("check specs differ".into());
        }
        Ok(())
    };
    match (a.code()[pc], b.code()[pc]) {
        (VmOp::Leaf { leaf: la }, VmOp::Leaf { leaf: lb }) => leaf_eq(la, lb),
        (VmOp::Check { check: ca, .. }, VmOp::Check { check: cb, .. }) => check_eq(ca, cb),
        (oa, ob) => Err(format!("instruction shapes differ: {oa:?} vs {ob:?}")),
    }
}

/// What once proved a rewritten program equivalent to its source by a
/// product walk; there is no rewriter left, so it checks the stricter
/// slot-for-slot equality of `validate_compile`.
///
/// # Errors
///
/// Returns every slot that differs.
#[doc(hidden)]
pub fn validate_optimized(original: &Program, optimized: &Program) -> Result<(), Vec<TvFailure>> {
    validate_compile(original, optimized)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::condition::Cond;
    use crate::history::RefinementMode;
    use crate::pipeline::Pipeline;
    use crate::plan::lower;

    fn lowered(build: impl FnOnce(crate::pipeline::PipelineBuilder) -> Pipeline) -> Program {
        lower(&build(Pipeline::builder("tv"))).unwrap()
    }

    #[test]
    fn a_program_validates_against_its_clone_slot_for_slot() {
        let plan = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("warm", "p")
                .check(Cond::low_confidence(0.9), |t| t.expand("p", "retry"))
                .gen("final", "p")
                .build()
        });
        assert!(validate_compile(&plan, &crate::vm::compile(&plan).unwrap()).is_ok());
        // One slot more than the plan has.
        let longer = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("warm", "p")
                .check(Cond::low_confidence(0.9), |t| t.expand("p", "retry"))
                .gen("final", "p")
                .gen("extra", "p")
                .build()
        });
        let failures = validate_compile(&longer, &plan).unwrap_err();
        assert!(failures.iter().any(|f| f.message.contains("slot count")));
    }

    #[test]
    fn a_program_from_a_different_plan_fails_validation() {
        let plan_a = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("a", "p")
                .build()
        });
        let plan_b = lowered(|b| {
            b.create_text("p", "other text", RefinementMode::Manual)
                .gen("a", "p")
                .build()
        });
        let failures = validate_compile(&plan_a, &plan_b).unwrap_err();
        assert!(!failures.is_empty());
        assert!(failures.iter().any(|f| f.message.contains("differ")));
    }

    #[test]
    fn the_optimized_adapter_checks_slot_equality() {
        let plan = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .check_else(Cond::Always, |t| t.gen("a", "p"), |e| e.gen("b", "p"))
                .build()
        });
        assert!(validate_optimized(&plan, &plan.clone()).is_ok());
        // The else branch is statically dead, but a program without it is
        // no longer accepted: only slot-for-slot equality passes.
        let pruned = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .check(Cond::Always, |t| t.gen("a", "p"))
                .build()
        });
        let failures = validate_optimized(&plan, &pruned).unwrap_err();
        assert!(failures.iter().any(|f| f.message.contains("slot count")));
    }
}
