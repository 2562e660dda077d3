//! Translation validation: symbolic equivalence of compiled bytecode.
//!
//! `vm::compile` is trusted nowhere else in the stack — this module checks
//! each compilation *output* against its *input* instead of trusting the
//! compiler's implementation:
//!
//! - [`validate_compile`] walks the source [`LoweredPlan`] and the emitted
//!   [`VmOp`] stream at one shared index (a program has one instruction
//!   per source slot, at the slot's own pc) and proves op-for-op effect
//!   equivalence: every leaf/check spec must carry exactly the operator,
//!   describe string, `CHECK[...]` label, trigger, and unwind frames the
//!   source slot prescribes, and every branch target must equal its source
//!   target (clamped to the exit).
//! - [`validate_optimized`] proves an optimized program equivalent to the
//!   original by a product walk over jump-resolved positions: free `Jump`s
//!   are invisible to traces and budgets, so two programs are equivalent
//!   iff the observable instruction at every co-reachable position pair
//!   matches content-wise and their successors stay paired — refined by
//!   [`super::absint::static_cond`], which is what licenses dead-branch
//!   elimination under statically-decided CHECKs.
//!
//! Both validators are fail-closed like `verify_structural`: any
//! obligation that cannot be discharged is a [`TvFailure`], and callers
//! (the optimizer, the `analyze` tool) treat failure as "keep the
//! unoptimized artifact", never "assume it is fine".

use std::collections::HashSet;
use std::fmt;

use crate::condition::Cond;
use crate::plan::{LoweredOp, LoweredPlan};
use crate::vm::{CheckSpec, ConstPool, LeafSpec, Program, VmOp};

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

/// Compare a compiled leaf spec against the source leaf it claims to
/// implement, content-wise (pool indices are an implementation detail).
fn leaf_matches(
    pool: &ConstPool,
    spec: &LeafSpec,
    op: &crate::ops::Op,
    trigger: Option<&str>,
    frames: &[String],
) -> Result<(), String> {
    if spec.op() != op {
        return Err(format!(
            "compiled operator {:?} differs from source operator {:?}",
            spec.op().describe(),
            op.describe()
        ));
    }
    if pool.str(spec.describe_id()) != op.describe() {
        return Err("pooled describe string differs from the operator's describe()".into());
    }
    let spec_trigger = spec.trigger_id().map(|id| pool.str(id));
    if spec_trigger != trigger {
        return Err(format!(
            "pooled trigger {spec_trigger:?} differs from source trigger {trigger:?}"
        ));
    }
    let spec_frames: Vec<&str> = spec.frame_ids().iter().map(|&id| pool.str(id)).collect();
    if spec_frames.len() != frames.len() || spec_frames.iter().zip(frames).any(|(a, b)| a != b) {
        return Err(format!(
            "pooled unwind frames {spec_frames:?} differ from source frames {frames:?}"
        ));
    }
    Ok(())
}

/// Compare a compiled check spec against its source condition.
fn check_matches(
    pool: &ConstPool,
    spec: &CheckSpec,
    cond: &Cond,
    frames: &[String],
) -> Result<(), String> {
    if spec.cond() != cond {
        return Err(format!(
            "compiled condition `{}` differs from source condition `{cond}`",
            spec.cond()
        ));
    }
    let label = format!("CHECK[{cond}]");
    if pool.str(spec.label_id()) != label {
        return Err(format!(
            "pooled label {:?} differs from {label:?}",
            pool.str(spec.label_id())
        ));
    }
    let spec_frames: Vec<&str> = spec.frame_ids().iter().map(|&id| pool.str(id)).collect();
    if spec_frames.len() != frames.len() || spec_frames.iter().zip(frames).any(|(a, b)| a != b) {
        return Err(format!(
            "pooled unwind frames {spec_frames:?} differ from source frames {frames:?}"
        ));
    }
    Ok(())
}

fn leaf_spec(pool: &ConstPool, id: u32) -> Result<&LeafSpec, String> {
    pool.leaves()
        .get(id as usize)
        .ok_or_else(|| format!("leaf index l{id} escapes the pool"))
}

fn check_spec(pool: &ConstPool, id: u32) -> Result<&CheckSpec, String> {
    pool.checks()
        .get(id as usize)
        .ok_or_else(|| format!("check index c{id} escapes the pool"))
}

/// A compiled branch target must be its source target, clamped to the
/// exit `n`.
fn target_matches(compiled: u32, source: usize, n: usize) -> Result<(), String> {
    if compiled as usize == source.min(n) {
        Ok(())
    } else {
        Err(format!(
            "compiled target {compiled:04} differs from source target {source}"
        ))
    }
}

/// Symbolically validate that `program` is an effect-equivalent
/// compilation of `plan`: one instruction per source slot, at the slot's
/// own pc, carrying the slot's content and branch target.
///
/// # Errors
///
/// Returns every undischarged obligation.
pub fn validate_compile(plan: &LoweredPlan, program: &Program) -> Result<(), Vec<TvFailure>> {
    let n = plan.ops.len();
    let code = program.code();
    let pool = program.pool();
    let mut failures = Vec::new();

    if program.name() != plan.name {
        failures.push(TvFailure::at(
            None,
            None,
            format!(
                "program name {:?} differs from plan name {:?}",
                program.name(),
                plan.name
            ),
        ));
    }
    if program.source_size() != plan.source_size {
        failures.push(TvFailure::at(
            None,
            None,
            "program source_size differs from the plan's",
        ));
    }
    if code.len() != n {
        failures.push(TvFailure::at(
            None,
            None,
            format!("{} instructions for {n} source slots", code.len()),
        ));
    }

    for (slot, (source, &instr)) in plan.ops.iter().zip(code).enumerate() {
        let obligation = match (source, instr) {
            (
                LoweredOp::Leaf {
                    op,
                    trigger,
                    frames,
                },
                VmOp::Leaf { leaf },
            ) => leaf_spec(pool, leaf)
                .and_then(|spec| leaf_matches(pool, spec, op, trigger.as_deref(), frames)),
            (
                LoweredOp::Check {
                    cond,
                    on_false: source_target,
                    frames,
                },
                VmOp::Check { check, on_false },
            ) => check_spec(pool, check)
                .and_then(|spec| check_matches(pool, spec, cond, frames))
                .and_then(|()| target_matches(on_false, *source_target, n)),
            (
                LoweredOp::Jump {
                    target: source_target,
                },
                VmOp::Jump { target },
            ) => target_matches(target, *source_target, n),
            (source, instr) => Err(format!(
                "{instr:?} does not compile source {:?}",
                source.describe()
            )),
        };
        if let Err(message) = obligation {
            failures.push(TvFailure::at(Some(slot), Some(slot), message));
        }
    }

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
    use crate::vm;

    fn lowered(build: impl FnOnce(crate::pipeline::PipelineBuilder) -> Pipeline) -> LoweredPlan {
        lower(&build(Pipeline::builder("tv"))).unwrap()
    }

    #[test]
    fn compile_outputs_validate_slot_for_slot() {
        let plan = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("warm", "p")
                .check(Cond::low_confidence(0.9), |t| t.expand("p", "retry"))
                .gen("final", "p")
                .build()
        });
        let program = vm::compile(&plan).unwrap();
        assert!(validate_compile(&plan, &program).is_ok());
        // One source slot more than the program has instructions.
        let mut longer = plan.clone();
        longer.ops.push(plan.ops[1].clone());
        let failures = validate_compile(&longer, &program).unwrap_err();
        assert!(failures.iter().any(|f| f.message.contains("source slots")));
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
        let program_b = vm::compile(&plan_b).unwrap();
        let failures = validate_compile(&plan_a, &program_b).unwrap_err();
        assert!(!failures.is_empty());
        assert!(failures.iter().any(|f| f.message.contains("differs")));
    }

    #[test]
    fn identical_programs_bisimulate() {
        let plan = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .check_else(Cond::Always, |t| t.gen("a", "p"), |e| e.gen("b", "p"))
                .build()
        });
        let one = vm::compile(&plan).unwrap();
        let two = vm::compile(&plan).unwrap();
        assert!(validate_optimized(&one, &two).is_ok());
    }

    #[test]
    fn programs_of_different_plans_do_not_bisimulate() {
        let one = vm::compile(&lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("a", "p")
                .build()
        }))
        .unwrap();
        let two = vm::compile(&lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("a", "p")
                .gen("b", "p")
                .build()
        }))
        .unwrap();
        // Same name, same shape up to the extra gen: the walk must catch
        // the point where one halts and the other generates.
        let failures = validate_optimized(&one, &two).unwrap_err();
        assert!(failures
            .iter()
            .any(|f| f.message.contains("halts") || f.message.contains("source size")));
    }
}
