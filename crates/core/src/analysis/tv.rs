//! Translation validation: symbolic equivalence of optimized bytecode.
//!
//! The optimizer is trusted nowhere else in the stack — this module checks
//! each optimization *output* against its *input* instead of trusting the
//! optimizer's implementation: [`validate_optimized`] proves an optimized
//! program equivalent to the original by a product walk over
//! jump-resolved positions. Free `Jump`s are invisible to traces and
//! budgets, so two programs are equivalent iff the observable instruction
//! at every co-reachable position pair matches content-wise and their
//! successors stay paired — refined by [`super::absint::static_cond`],
//! which is what licenses dead-branch elimination under
//! statically-decided CHECKs.
//!
//! The validator is fail-closed like the structural gate: any obligation
//! that cannot be discharged is a [`TvFailure`], and callers (the
//! optimizer, the `analyze` tool) treat failure as "keep the unoptimized
//! artifact", never "assume it is fine". Lowering needs no validator:
//! [`crate::plan::lower`] emits the program itself, and
//! `tests/trace_equivalence.rs` holds it to the reference tree walk.

use std::collections::HashSet;
use std::fmt;

use crate::vm::{CheckSpec, Program, VmOp};

use super::absint::static_cond;

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
                _ => obs_eq(plan, program, slot, slot).err(),
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

/// Resolve `pc` through chains of free `Jump`s to the first observable
/// instruction (or the exit, `code.len()`). `None` on a jump-only cycle.
fn resolve(code: &[VmOp], mut pc: usize) -> Option<usize> {
    let len = code.len();
    let mut hops = 0usize;
    loop {
        pc = pc.min(len);
        match code.get(pc) {
            Some(VmOp::Jump { target }) => {
                pc = *target as usize;
                hops += 1;
                if hops > len {
                    return None;
                }
            }
            _ => return Some(pc),
        }
    }
}

/// Observable equality of the instructions at `(pa, pb)`, content-wise
/// across the two pools. Both indices are jump-resolved and in range.
fn obs_eq(a: &Program, b: &Program, pa: usize, pb: usize) -> Result<(), String> {
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
    match (a.code()[pa], b.code()[pb]) {
        (VmOp::Leaf { leaf: la }, VmOp::Leaf { leaf: lb }) => leaf_eq(la, lb),
        (VmOp::Check { check: ca, .. }, VmOp::Check { check: cb, .. }) => check_eq(ca, cb),
        (oa, ob) => Err(format!("instruction shapes differ: {oa:?} vs {ob:?}")),
    }
}

/// Prove `optimized` trace- and budget-equivalent to `original` by a
/// cond-refined product walk over jump-resolved positions.
///
/// # Errors
///
/// Returns the failed obligations; callers must then discard the
/// optimized program.
pub fn validate_optimized(original: &Program, optimized: &Program) -> Result<(), Vec<TvFailure>> {
    let mut failures = Vec::new();
    if original.name() != optimized.name() || original.source_size() != optimized.source_size() {
        failures.push(TvFailure::at(
            None,
            None,
            "optimized program changes the plan's trace identity (name/source size)",
        ));
        return Err(failures);
    }
    let (ca, cb) = (original.code(), optimized.code());
    let (start_a, start_b) = match (resolve(ca, 0), resolve(cb, 0)) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            failures.push(TvFailure::at(None, Some(0), "jump-only cycle at entry"));
            return Err(failures);
        }
    };
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut work = vec![(start_a, start_b)];
    while let Some((pa, pb)) = work.pop() {
        if !seen.insert((pa, pb)) {
            continue;
        }
        let (exit_a, exit_b) = (pa >= ca.len(), pb >= cb.len());
        if exit_a || exit_b {
            if exit_a != exit_b {
                failures.push(TvFailure::at(
                    None,
                    Some(if exit_a { pb } else { pa }),
                    "one program halts where the other continues",
                ));
            }
            continue;
        }
        if let Err(msg) = obs_eq(original, optimized, pa, pb) {
            failures.push(TvFailure::at(None, Some(pa), msg));
            continue;
        }
        // Paired successors. `obs_eq` guarantees matching shapes.
        let mut push_pair = |na: usize, nb: usize, failures: &mut Vec<TvFailure>| match (
            resolve(ca, na),
            resolve(cb, nb),
        ) {
            (Some(a), Some(b)) => work.push((a, b)),
            _ => failures.push(TvFailure::at(None, Some(na), "jump-only cycle")),
        };
        match (ca[pa], cb[pb]) {
            (VmOp::Leaf { .. }, _) => push_pair(pa + 1, pb + 1, &mut failures),
            (
                VmOp::Check {
                    check,
                    on_false: fa,
                },
                VmOp::Check { on_false: fb, .. },
            ) => {
                let decided = original
                    .pool()
                    .checks()
                    .get(check as usize)
                    .map(CheckSpec::cond)
                    .and_then(static_cond);
                match decided {
                    Some(true) => push_pair(pa + 1, pb + 1, &mut failures),
                    Some(false) => push_pair(fa as usize, fb as usize, &mut failures),
                    None => {
                        push_pair(pa + 1, pb + 1, &mut failures);
                        push_pair(fa as usize, fb as usize, &mut failures);
                    }
                }
            }
            // Unreachable: obs_eq rejected mismatched shapes, and resolve
            // never lands on a Jump.
            _ => failures.push(TvFailure::at(
                None,
                Some(pa),
                "unexpected instruction pairing",
            )),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
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
    fn identical_programs_bisimulate() {
        let plan = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .check_else(Cond::Always, |t| t.gen("a", "p"), |e| e.gen("b", "p"))
                .build()
        });
        assert!(validate_optimized(&plan, &plan.clone()).is_ok());
    }

    #[test]
    fn programs_of_different_plans_do_not_bisimulate() {
        let one = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("a", "p")
                .build()
        });
        let two = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("a", "p")
                .gen("b", "p")
                .build()
        });
        // Same name, same shape up to the extra gen: the walk must catch
        // the point where one halts and the other generates.
        let failures = validate_optimized(&one, &two).unwrap_err();
        assert!(failures
            .iter()
            .any(|f| f.message.contains("halts") || f.message.contains("source size")));
    }
}
