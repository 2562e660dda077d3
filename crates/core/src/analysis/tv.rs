//! Translation validation: symbolic equivalence of compiled bytecode.
//!
//! `vm::compile` is trusted nowhere else in the stack — this module checks
//! each compilation *output* against its *input* instead of trusting the
//! compiler's implementation:
//!
//! - [`validate_compile`] re-walks the source [`LoweredPlan`] in lockstep
//!   with the emitted [`VmOp`] stream and proves op-for-op effect
//!   equivalence: every leaf/check spec must carry exactly the operator,
//!   describe string, `CHECK[...]` label, trigger, and unwind frames the
//!   source slot prescribes; every fused
//!   superinstruction must cover an adjacent pair whose second half is not
//!   a branch target (fusing a landing pad would skip the first half); and
//!   every patched target must land on the code index of its source
//!   target. On success it returns the source-slot → code-pc map the
//!   bytecode lints and the disassembler annotations key off.
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

fn leaf_spec(pool: &ConstPool, id: u32, pc: usize) -> Result<&LeafSpec, TvFailure> {
    pool.leaves()
        .get(id as usize)
        .ok_or_else(|| TvFailure::at(None, Some(pc), format!("leaf index l{id} escapes the pool")))
}

fn check_spec(pool: &ConstPool, id: u32, pc: usize) -> Result<&CheckSpec, TvFailure> {
    pool.checks().get(id as usize).ok_or_else(|| {
        TvFailure::at(
            None,
            Some(pc),
            format!("check index c{id} escapes the pool"),
        )
    })
}

/// Symbolically validate that `program` is an effect-equivalent
/// compilation of `plan`. On success, returns the source-slot → code-pc
/// map (length `plan.ops.len() + 1`; both halves of a fused pair map to
/// the same pc, and index `n` maps to `code.len()` = exit).
///
/// # Errors
///
/// Returns every undischarged obligation. Structural desynchronization
/// (an opcode that cannot cover the source slot at the cursor) aborts the
/// walk, since later comparisons would be meaningless.
pub fn validate_compile(plan: &LoweredPlan, program: &Program) -> Result<Vec<u32>, Vec<TvFailure>> {
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

    // Independent branch-target map: the second half of a fused pair must
    // not be a jump landing pad, or the fused form would skip the first
    // half for executions entering at the second.
    let mut is_target = vec![false; n + 1];
    for op in &plan.ops {
        match op {
            LoweredOp::Check { on_false, .. } => is_target[(*on_false).min(n)] = true,
            LoweredOp::Jump { target } => is_target[(*target).min(n)] = true,
            LoweredOp::Leaf { .. } => {}
        }
    }

    // Lockstep walk. Targets are checked after the full map exists.
    let mut map = vec![0u32; n + 1];
    // (code pc, compiled target, source target) obligations.
    let mut targets: Vec<(usize, u32, usize)> = Vec::new();
    let mut s = 0usize;

    macro_rules! desync {
        ($pc:expr, $($msg:tt)*) => {{
            failures.push(TvFailure::at(Some(s.min(n)), Some($pc), format!($($msg)*)));
            return Err(failures);
        }};
    }

    for (pc, &instr) in code.iter().enumerate() {
        if s >= n {
            desync!(pc, "code continues past the end of the source plan");
        }
        map[s] = pc as u32;
        let fused = match instr {
            VmOp::Leaf { leaf } => {
                let spec = leaf_spec(pool, leaf, pc).map_err(|f| {
                    failures.push(f);
                    std::mem::take(&mut failures)
                })?;
                match &plan.ops[s] {
                    LoweredOp::Leaf {
                        op,
                        trigger,
                        frames,
                    } => {
                        if let Err(msg) = leaf_matches(pool, spec, op, trigger.as_deref(), frames) {
                            failures.push(TvFailure::at(Some(s), Some(pc), msg));
                        }
                    }
                    other => desync!(
                        pc,
                        "LEAF compiled from non-leaf source {:?}",
                        other.describe()
                    ),
                }
                false
            }
            VmOp::Check { check, on_false } => {
                let spec = check_spec(pool, check, pc).map_err(|f| {
                    failures.push(f);
                    std::mem::take(&mut failures)
                })?;
                match &plan.ops[s] {
                    LoweredOp::Check {
                        cond,
                        on_false: src_target,
                        frames,
                    } => {
                        if let Err(msg) = check_matches(pool, spec, cond, frames) {
                            failures.push(TvFailure::at(Some(s), Some(pc), msg));
                        }
                        targets.push((pc, on_false, *src_target));
                    }
                    other => desync!(
                        pc,
                        "CHECK compiled from non-check source {:?}",
                        other.describe()
                    ),
                }
                false
            }
            VmOp::Jump { target } => {
                match &plan.ops[s] {
                    LoweredOp::Jump { target: src_target } => {
                        targets.push((pc, target, *src_target));
                    }
                    other => desync!(
                        pc,
                        "JUMP compiled from non-jump source {:?}",
                        other.describe()
                    ),
                }
                false
            }
            VmOp::GenCheck {
                leaf,
                check,
                on_false,
            } => {
                let lspec = leaf_spec(pool, leaf, pc).map_err(|f| {
                    failures.push(f);
                    std::mem::take(&mut failures)
                })?;
                let cspec = check_spec(pool, check, pc).map_err(|f| {
                    failures.push(f);
                    std::mem::take(&mut failures)
                })?;
                match (plan.ops.get(s), plan.ops.get(s + 1)) {
                    (
                        Some(LoweredOp::Leaf {
                            op: op @ crate::ops::Op::Gen { .. },
                            trigger,
                            frames,
                        }),
                        Some(LoweredOp::Check {
                            cond,
                            on_false: src_target,
                            frames: check_frames,
                        }),
                    ) => {
                        if let Err(msg) = leaf_matches(pool, lspec, op, trigger.as_deref(), frames)
                        {
                            failures.push(TvFailure::at(Some(s), Some(pc), msg));
                        }
                        if let Err(msg) = check_matches(pool, cspec, cond, check_frames) {
                            failures.push(TvFailure::at(Some(s + 1), Some(pc), msg));
                        }
                        targets.push((pc, on_false, *src_target));
                    }
                    _ => desync!(
                        pc,
                        "GEN+CHECK does not cover a GEN leaf followed by a CHECK"
                    ),
                }
                true
            }
            VmOp::DelegateJump { leaf, target } => {
                let spec = leaf_spec(pool, leaf, pc).map_err(|f| {
                    failures.push(f);
                    std::mem::take(&mut failures)
                })?;
                match (plan.ops.get(s), plan.ops.get(s + 1)) {
                    (
                        Some(LoweredOp::Leaf {
                            op: op @ crate::ops::Op::Delegate { .. },
                            trigger,
                            frames,
                        }),
                        Some(LoweredOp::Jump { target: src_target }),
                    ) => {
                        if let Err(msg) = leaf_matches(pool, spec, op, trigger.as_deref(), frames) {
                            failures.push(TvFailure::at(Some(s), Some(pc), msg));
                        }
                        targets.push((pc, target, *src_target));
                    }
                    _ => desync!(
                        pc,
                        "DELEGATE+JUMP does not cover a DELEGATE leaf followed by a JUMP"
                    ),
                }
                true
            }
            VmOp::RetMerge { first, second } => {
                let fspec = leaf_spec(pool, first, pc).map_err(|f| {
                    failures.push(f);
                    std::mem::take(&mut failures)
                })?;
                let sspec = leaf_spec(pool, second, pc).map_err(|f| {
                    failures.push(f);
                    std::mem::take(&mut failures)
                })?;
                match (plan.ops.get(s), plan.ops.get(s + 1)) {
                    (
                        Some(LoweredOp::Leaf {
                            op: ret @ crate::ops::Op::Ret { .. },
                            trigger,
                            frames,
                        }),
                        Some(LoweredOp::Leaf {
                            op: merge @ crate::ops::Op::Merge { .. },
                            trigger: merge_trigger,
                            frames: merge_frames,
                        }),
                    ) => {
                        if let Err(msg) = leaf_matches(pool, fspec, ret, trigger.as_deref(), frames)
                        {
                            failures.push(TvFailure::at(Some(s), Some(pc), msg));
                        }
                        if let Err(msg) =
                            leaf_matches(pool, sspec, merge, merge_trigger.as_deref(), merge_frames)
                        {
                            failures.push(TvFailure::at(Some(s + 1), Some(pc), msg));
                        }
                    }
                    _ => desync!(
                        pc,
                        "RET+MERGE does not cover a RET leaf followed by a MERGE leaf"
                    ),
                }
                true
            }
        };
        if fused {
            if s + 1 >= n || is_target[s + 1] {
                failures.push(TvFailure::at(
                    Some(s),
                    Some(pc),
                    "illegal fusion: the second half is a branch target (landing pad)",
                ));
            }
            if s < n {
                map[s + 1] = pc as u32;
            }
            s += 2;
        } else {
            s += 1;
        }
    }
    if s != n {
        failures.push(TvFailure::at(
            Some(s.min(n)),
            Some(code.len()),
            "source plan continues past the end of the code",
        ));
        return Err(failures);
    }
    map[n] = code.len() as u32;

    for (pc, compiled, src_target) in targets {
        let expected = map[src_target.min(n)];
        if compiled != expected {
            failures.push(TvFailure::at(
                None,
                Some(pc),
                format!(
                    "patched target {compiled:04} does not land on source target {src_target} \
                     (expected code pc {expected:04})"
                ),
            ));
        }
    }

    if failures.is_empty() {
        Ok(map)
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
        (
            VmOp::GenCheck {
                leaf: la,
                check: ca,
                ..
            },
            VmOp::GenCheck {
                leaf: lb,
                check: cb,
                ..
            },
        ) => leaf_eq(la, lb).and_then(|()| check_eq(ca, cb)),
        (VmOp::DelegateJump { leaf: la, .. }, VmOp::DelegateJump { leaf: lb, .. }) => {
            leaf_eq(la, lb)
        }
        (
            VmOp::RetMerge {
                first: fa,
                second: sa,
            },
            VmOp::RetMerge {
                first: fb,
                second: sb,
            },
        ) => leaf_eq(fa, fb).and_then(|()| leaf_eq(sa, sb)),
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
            (VmOp::Leaf { .. }, _) | (VmOp::RetMerge { .. }, _) => {
                push_pair(pa + 1, pb + 1, &mut failures);
            }
            (VmOp::DelegateJump { target: ta, .. }, VmOp::DelegateJump { target: tb, .. }) => {
                push_pair(ta as usize, tb as usize, &mut failures);
            }
            (
                VmOp::Check {
                    check,
                    on_false: fa,
                },
                VmOp::Check { on_false: fb, .. },
            )
            | (
                VmOp::GenCheck {
                    check,
                    on_false: fa,
                    ..
                },
                VmOp::GenCheck { on_false: fb, .. },
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
    fn compile_outputs_validate_with_a_total_source_map() {
        let plan = lowered(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("warm", "p")
                .check(Cond::low_confidence(0.9), |t| t.expand("p", "retry"))
                .gen("final", "p")
                .build()
        });
        let program = vm::compile(&plan).unwrap();
        let map = validate_compile(&plan, &program).unwrap();
        assert_eq!(map.len(), plan.ops.len() + 1);
        // The fused GEN+CHECK maps both source halves to one pc.
        assert_eq!(map[1], map[2]);
        assert_eq!(*map.last().unwrap() as usize, program.code().len());
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
