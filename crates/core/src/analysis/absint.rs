//! Abstract interpretation over bytecode: sound cost envelopes.
//!
//! [`analyze`] derives cost facts over the [`VmOp`] stream the VM actually
//! executes: one forward [`Cfg::sweep`] over the cond-refined graph
//! ([`Cfg::new`] with `refined`, so statically-decided CHECK branches via
//! [`static_cond`] are accounted for) in an interval domain, returning a
//! [`ProgramBounds`]:
//!
//! - completion-token cost `[lo, hi]` (per program and per instruction);
//! - worst-case LLM-call count `[lo, hi]`;
//! - a lower latency bound (there is no sound static *upper* bound —
//!   prompt length is request data);
//! - the KV block footprint as a function of prompt length
//!   ([`ProgramBounds::kv_blocks`]);
//! - the maximum error-unwind depth any single failure can produce.
//!
//! The same bounds are the verifier's deadline check
//! ([`super::Verifier::deadline_us`]): this module is the one reader of
//! [`ResourceModel`].
//!
//! Soundness contract: for every execution of the program under a backend
//! respecting the [`ResourceModel`] minimums and each GEN's
//! `options.max_tokens` cap (both simulated backends do), measured usage
//! never exceeds the `hi` bounds, and a run that reaches the exit spends
//! at least the `lo` bounds. Cyclic bytecode (which the gate keeps out of
//! every released program, so only this crate's own tests can build it)
//! has a reachable back edge, which the sweep refuses: the envelope is
//! then the top element `[0, ∞)` and `terminates` is `false`.
//!
//! [`BytecodePass`] packages the reachability half as an opt-in lint pass
//! emitting `SPEAR-W004` (bytecode unreachable once statically-decided
//! CHECKs are folded) and `SPEAR-W005` (statically-dead CHECK branch); it is
//! not in the default verifier stack, so default verification output is
//! unchanged — the `analyze` tool and the goldens register it explicitly.

use std::fmt;

use crate::condition::Cond;
use crate::ops::Op;
use crate::vm::{self, Program, VmOp};

use super::cfg::Cfg;
use super::lints::{
    Diagnostic, BUDGET_AT_RISK, BUDGET_INFEASIBLE, DEAD_CHECK_BRANCH, VM_UNREACHABLE,
};
use super::passes::{LintPass, PassContext};

/// Worst-case cost assumptions for the bounds. The defaults match the
/// cheapest generation the simulated backend can produce
/// ([`crate::llm::EchoLlm`] charges `100 + 10·prompt_tokens` µs and at
/// least one completion token), so a deadline flagged infeasible cannot
/// be met even under the friendliest backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceModel {
    /// Minimum virtual latency one GEN contributes, µs.
    pub min_gen_latency_us: u64,
    /// Minimum completion tokens one GEN contributes.
    pub min_gen_tokens: u64,
}

impl Default for ResourceModel {
    fn default() -> Self {
        Self {
            min_gen_latency_us: 100,
            min_gen_tokens: 1,
        }
    }
}

/// A closed interval `[lo, hi]` over `u64`; `hi == u64::MAX` means
/// "unbounded" and renders as `inf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound (`u64::MAX` = unbounded).
    pub hi: u64,
}

impl Interval {
    /// The single point `[v, v]`.
    #[must_use]
    pub fn exact(v: u64) -> Self {
        Self { lo: v, hi: v }
    }

    /// The top element `[0, ∞)`.
    #[must_use]
    pub fn top() -> Self {
        Self {
            lo: 0,
            hi: u64::MAX,
        }
    }

    /// Whether `v` lies inside the interval.
    #[must_use]
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Pointwise sum (path concatenation), saturating at unbounded.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        Self {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    /// Least upper bound (join at a CFG merge point).
    pub fn join(&mut self, other: &Self) {
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hi == u64::MAX {
            write!(f, "[{}, inf]", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// The abstract effect of one bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotBounds {
    /// Completion tokens this instruction generates.
    pub tokens: Interval,
    /// LLM calls this instruction performs.
    pub llm_calls: Interval,
    /// Minimum virtual latency this instruction contributes, µs.
    pub latency_lo_us: u64,
}

impl SlotBounds {
    fn zero() -> Self {
        Self {
            tokens: Interval::exact(0),
            llm_calls: Interval::exact(0),
            latency_lo_us: 0,
        }
    }

    fn add(&self, other: &Self) -> Self {
        Self {
            tokens: self.tokens.add(&other.tokens),
            llm_calls: self.llm_calls.add(&other.llm_calls),
            latency_lo_us: self.latency_lo_us.saturating_add(other.latency_lo_us),
        }
    }

    fn join(&mut self, other: &Self) {
        self.tokens.join(&other.tokens);
        self.llm_calls.join(&other.llm_calls);
        self.latency_lo_us = self.latency_lo_us.min(other.latency_lo_us);
    }

    fn top() -> Self {
        Self {
            tokens: Interval::top(),
            llm_calls: Interval::top(),
            latency_lo_us: 0,
        }
    }
}

/// Statically derived cost envelope of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramBounds {
    /// Completion tokens over any complete execution.
    pub tokens: Interval,
    /// LLM calls over any complete execution.
    pub llm_calls: Interval,
    /// Minimum virtual latency of any complete execution, µs. (No sound
    /// static upper bound exists: prompt length is request data.)
    pub latency_lo_us: u64,
    /// Maximum number of `Error` trace events a single failure can emit
    /// (the failing step's own line plus one per enclosing CHECK frame).
    pub unwind_depth: u64,
    /// Whether every execution provably reaches the exit (the bytecode
    /// CFG, refined by statically-decided conditions, is acyclic).
    pub terminates: bool,
    /// Per-instruction effect bounds, indexed by code pc; `None` marks an
    /// instruction no execution can reach.
    pub per_op: Vec<Option<SlotBounds>>,
}

impl ProgramBounds {
    /// Worst-case KV block footprint of one request whose rendered context
    /// occupies `prompt_tokens` tokens, under `block_size` tokens per
    /// block: the prompt plus every token the program can decode, rounded
    /// up to whole blocks. Saturates at `u64::MAX` when decoding is
    /// statically unbounded.
    #[must_use]
    pub fn kv_blocks(&self, prompt_tokens: u64, block_size: u64) -> u64 {
        if self.tokens.hi == u64::MAX {
            return u64::MAX;
        }
        prompt_tokens
            .saturating_add(self.tokens.hi)
            .div_ceil(block_size.max(1))
    }
}

/// The whole-program envelope on one line — `tokens=[1, 256] llm_calls=[1, 1]
/// latency>=100us unwind<=2`, plus `  (may not terminate)` when the sweep
/// could not prove termination. Per-instruction bounds are not included.
impl fmt::Display for ProgramBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tokens={} llm_calls={} latency>={}us unwind<={}",
            self.tokens, self.llm_calls, self.latency_lo_us, self.unwind_depth
        )?;
        if !self.terminates {
            f.write_str("  (may not terminate)")?;
        }
        Ok(())
    }
}

/// Statically decide a condition, `None` when it depends on `(C, M)`.
///
/// Mirrors [`Cond::eval`]'s short-circuit order exactly: `All`/`Any` are
/// decided only up to the first element that cannot be decided, so a
/// `Some(_)` verdict also implies evaluation cannot error at runtime.
#[must_use]
pub fn static_cond(cond: &Cond) -> Option<bool> {
    match cond {
        Cond::Always => Some(true),
        Cond::Never => Some(false),
        Cond::Not(inner) => static_cond(inner).map(|b| !b),
        Cond::All(parts) => {
            for p in parts {
                if !static_cond(p)? {
                    return Some(false);
                }
            }
            Some(true)
        }
        Cond::Any(parts) => {
            for p in parts {
                if static_cond(p)? {
                    return Some(true);
                }
            }
            Some(false)
        }
        Cond::Cmp { .. }
        | Cond::InContext(_)
        | Cond::NotInContext(_)
        | Cond::HasSignal(_)
        | Cond::Truthy(_) => None,
    }
}

/// The abstract effect of the leaf `spec` under `model`.
fn leaf_effect(spec: &vm::LeafSpec, model: &ResourceModel) -> SlotBounds {
    match spec.op() {
        Op::Gen { options, .. } => SlotBounds {
            tokens: Interval {
                lo: model.min_gen_tokens,
                hi: u64::from(options.max_tokens).max(model.min_gen_tokens),
            },
            llm_calls: Interval::exact(1),
            latency_lo_us: model.min_gen_latency_us,
        },
        _ => SlotBounds::zero(),
    }
}

/// The abstract effect of the instruction `op`. Indices outside the
/// program's specs contribute nothing; no program `lower` releases has one.
fn op_effect(op: VmOp, program: &Program, model: &ResourceModel) -> SlotBounds {
    match op {
        VmOp::Leaf { leaf } => program
            .leaves()
            .get(leaf as usize)
            .map_or_else(SlotBounds::zero, |spec| leaf_effect(spec, model)),
        VmOp::Check { .. } | VmOp::Jump { .. } => SlotBounds::zero(),
    }
}

/// Derive the static cost envelope of `program` under `model` by one
/// forward sweep over the cond-refined bytecode CFG, in the interval
/// domain. A reachable back edge (cyclic bytecode) yields the top element
/// and `terminates = false`.
#[must_use]
pub fn analyze(program: &Program, model: &ResourceModel) -> ProgramBounds {
    let code = program.code();
    let cfg = Cfg::new(program, true);
    let effect = |pc: usize| op_effect(code[pc], program, model);

    // The path-sum fact at the exit, the sweep's last entry.
    let exit = cfg
        .sweep(
            SlotBounds::zero(),
            |pc, before| before.add(&effect(pc)),
            SlotBounds::join,
        )
        .and_then(|mut facts| facts.pop().flatten());

    let mut per_op = Vec::with_capacity(code.len());
    let mut unwind_depth = 0u64;
    for (pc, &op) in code.iter().enumerate() {
        if cfg.is_reachable(pc) {
            per_op.push(Some(effect(pc)));
            unwind_depth = unwind_depth.max(op_unwind_depth(op, program));
        } else {
            per_op.push(None);
        }
    }

    let (exit, terminates) = match exit {
        Some(exit) => (exit, true),
        None => (SlotBounds::top(), false),
    };
    ProgramBounds {
        tokens: exit.tokens,
        llm_calls: exit.llm_calls,
        latency_lo_us: exit.latency_lo_us,
        unwind_depth,
        terminates,
        per_op,
    }
}

/// The deadline finding for `program`, read from its [`analyze`] bounds
/// under the default [`ResourceModel`]:
///
/// - the cheapest refined path over the deadline → the plan *cannot*
///   fit: [`BUDGET_INFEASIBLE`];
/// - otherwise, the most GENs any path runs at their minimum latency over
///   the deadline → the plan *may* not fit: [`BUDGET_AT_RISK`].
pub(super) fn deadline_diagnostic(program: &Program, deadline_us: u64) -> Option<Diagnostic> {
    let model = ResourceModel::default();
    let bounds = analyze(program, &model);
    let worst_us = bounds.llm_calls.hi.saturating_mul(model.min_gen_latency_us);
    if bounds.latency_lo_us > deadline_us {
        Some(Diagnostic::plan_level(
            &BUDGET_INFEASIBLE,
            format!(
                "every path needs at least {} µs of generation but the deadline is {} µs",
                bounds.latency_lo_us, deadline_us
            ),
        ))
    } else if worst_us > deadline_us {
        Some(Diagnostic::plan_level(
            &BUDGET_AT_RISK,
            format!(
                "the worst-case path needs {worst_us} µs of generation against a deadline of \
                 {deadline_us} µs"
            ),
        ))
    } else {
        None
    }
}

/// Deepest error unwind the instruction can emit: its own trace line plus
/// one line per enclosing CHECK, the length of its chain.
fn op_unwind_depth(op: VmOp, program: &Program) -> u64 {
    let within = match op {
        VmOp::Leaf { leaf } => program.leaves().get(leaf as usize).map(|s| s.within()),
        VmOp::Check { check, .. } => program.checks().get(check as usize).map(|s| s.within()),
        VmOp::Jump { .. } => None,
    };
    within.map_or(0, |within| program.enclosing(within).count() as u64 + 1)
}

/// Opt-in lint pass over the cond-refined graph, reporting
///
/// - `SPEAR-W004` for every slot unreachable in the refined graph even
///   though the unrefined one considers it live (dead branches under
///   statically-decided CHECKs);
/// - `SPEAR-W005` for every reachable CHECK whose condition is statically
///   decided, i.e. one branch can never be taken.
///
/// Not part of the default verifier stack: register it with
/// [`super::Verifier::register_pass`].
pub struct BytecodePass;

impl LintPass for BytecodePass {
    fn name(&self) -> &'static str {
        "bytecode-reachability"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        let program = cx.program;
        let live = Cfg::new(program, true);
        let describe = |slot: usize| program.describe(slot).unwrap_or_default();
        let mut diags = Vec::new();

        for slot in 0..live.len() {
            if !live.is_reachable(slot) && cx.cfg.is_reachable(slot) {
                diags.push(Diagnostic::at(
                    &VM_UNREACHABLE,
                    slot,
                    describe(slot),
                    format!(
                        "slot {slot:04}, which no execution can reach once \
                         statically-decided CHECKs are folded"
                    ),
                ));
            }
        }

        for (slot, &op) in program.code().iter().enumerate() {
            let VmOp::Check { check, .. } = op else {
                continue;
            };
            if !live.is_reachable(slot) {
                continue;
            }
            let cond = program.check(check).cond();
            if let Some(value) = static_cond(cond) {
                let (verdict, dead) = if value {
                    ("always holds", "else")
                } else {
                    ("never holds", "then")
                };
                diags.push(Diagnostic::at(
                    &DEAD_CHECK_BRANCH,
                    slot,
                    describe(slot),
                    format!("condition `{cond}` {verdict}: the {dead} branch can never be taken"),
                ));
            }
        }

        diags.sort_by_key(|d| (d.slot, d.code));
        diags
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;
    use crate::pipeline::Pipeline;
    use crate::plan::asm::{assemble, Slot};
    use crate::plan::lower;

    fn compiled(build: impl FnOnce(crate::pipeline::PipelineBuilder) -> Pipeline) -> Program {
        lower(&build(Pipeline::builder("absint"))).unwrap()
    }

    #[test]
    fn straight_line_gens_sum_exactly() {
        let prog = compiled(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("a", "p")
                .gen("b", "p")
                .build()
        });
        let bounds = analyze(&prog, &ResourceModel::default());
        assert_eq!(bounds.llm_calls, Interval::exact(2));
        assert_eq!(bounds.tokens, Interval { lo: 2, hi: 512 });
        assert_eq!(bounds.latency_lo_us, 200);
        assert!(bounds.terminates);
        assert_eq!(bounds.kv_blocks(100, 16), (100u64 + 512).div_ceil(16));
    }

    #[test]
    fn branches_join_to_min_max() {
        // The conditional gen may or may not run: calls [1, 2].
        let prog = compiled(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("a", "p")
                .check(Cond::low_confidence(0.5), |t| t.gen("b", "p"))
                .build()
        });
        let bounds = analyze(&prog, &ResourceModel::default());
        assert_eq!(bounds.llm_calls, Interval { lo: 1, hi: 2 });
        assert_eq!(bounds.tokens, Interval { lo: 1, hi: 512 });
        assert_eq!(bounds.latency_lo_us, 100);
    }

    #[test]
    fn static_conditions_refine_the_walk() {
        // Under `Never`, the then-gen is statically dead: exact [1, 256].
        let prog = compiled(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .gen("a", "p")
                .check(Cond::Never, |t| t.gen("dead", "p"))
                .build()
        });
        let bounds = analyze(&prog, &ResourceModel::default());
        assert_eq!(bounds.llm_calls, Interval::exact(1));
        assert_eq!(bounds.tokens, Interval { lo: 1, hi: 256 });
        // The dead gen's pc carries no fact.
        assert!(bounds.per_op.iter().any(Option::is_none));
    }

    #[test]
    fn cyclic_bytecode_falls_back_to_top() {
        let prog = assemble("loop", vec![Slot::Jump(0)]);
        let bounds = analyze(&prog, &ResourceModel::default());
        assert!(!bounds.terminates);
        assert_eq!(bounds.tokens, Interval::top());
        assert_eq!(bounds.kv_blocks(10, 16), u64::MAX);
    }

    #[test]
    fn static_cond_matches_short_circuit_eval() {
        let dynamic = Cond::low_confidence(0.5);
        assert_eq!(static_cond(&Cond::Always), Some(true));
        assert_eq!(static_cond(&Cond::Never), Some(false));
        assert_eq!(static_cond(&Cond::Not(Box::new(Cond::Never))), Some(true));
        assert_eq!(static_cond(&Cond::All(vec![])), Some(true));
        assert_eq!(static_cond(&Cond::Any(vec![])), Some(false));
        // Short-circuit: a static decision *before* the dynamic part decides.
        assert_eq!(
            static_cond(&Cond::All(vec![Cond::Never, dynamic.clone()])),
            Some(false)
        );
        assert_eq!(
            static_cond(&Cond::Any(vec![Cond::Always, dynamic.clone()])),
            Some(true)
        );
        // But a dynamic prefix blocks the decision (it might error).
        assert_eq!(
            static_cond(&Cond::All(vec![dynamic.clone(), Cond::Never])),
            None
        );
        assert_eq!(static_cond(&Cond::Any(vec![dynamic, Cond::Always])), None);
    }

    #[test]
    fn unwind_depth_counts_nested_frames() {
        let prog = compiled(|b| {
            b.create_text("p", "base", RefinementMode::Manual)
                .check(Cond::low_confidence(0.9), |t| {
                    t.check(Cond::low_confidence(0.8), |t2| t2.gen("g", "p"))
                })
                .build()
        });
        let bounds = analyze(&prog, &ResourceModel::default());
        // The inner gen fails under two CHECK frames: own line + 2 frames.
        assert_eq!(bounds.unwind_depth, 3);
    }

    #[test]
    fn interval_display_is_ascii() {
        assert_eq!(Interval { lo: 1, hi: 256 }.to_string(), "[1, 256]");
        assert_eq!(Interval::top().to_string(), "[0, inf]");
    }
}
