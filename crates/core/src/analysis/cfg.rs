//! The control-flow graph of a program.
//!
//! Every slot is a node; the virtual exit node is `len()`, and a program
//! counter that reaches it ends the run. The edge rules, which the VM
//! follows instruction for instruction (pc = slot):
//!
//! - `Leaf` runs its data operator and falls through to `pc + 1`;
//! - `Check { on_false }` has two successors, `pc + 1` (condition holds)
//!   and `on_false`;
//! - `Jump { target }` has the single successor `target`.
//!
//! [`Cfg::new`] is the one constructor, over a program's code and pool.
//! Asked for the *refined* graph, it decides each CHECK by
//! [`static_cond`]: a statically decided CHECK keeps only its live edge
//! (the graph the abstract interpreter and [`super::BytecodePass`]
//! read). Targets are clamped to the exit, so a
//! graph can be built over code the gate has not checked yet.
//!
//! The gate that [`crate::plan::lower`] runs on emitted code lives here
//! too: `structural_diagnostics` rejects targets past the exit —
//! including the lowering placeholder — and a `Leaf` carrying a CHECK,
//! whose branches the code cannot express; `termination_diagnostics`
//! rejects backward jumps.
//!
//! [`Cfg::sweep`] is the one forward-dataflow engine: with no reachable
//! back edge, slot order is a topological order, so one pass in slot order
//! reaches the fixpoint.

use crate::ops::Op;
use crate::plan::PLACEHOLDER;
use crate::vm::{ConstPool, Program, VmOp};

use super::absint::static_cond;

use super::lints::{
    Diagnostic, BACKWARD_JUMP, BAD_JUMP_TARGET, CHECK_IN_LEAF, CHECK_TARGET_ESCAPES,
    PLACEHOLDER_LEAK,
};

#[derive(Debug, Clone, Copy)]
struct Succs {
    targets: [usize; 2],
    len: usize,
}

impl Succs {
    fn one(target: usize) -> Self {
        Self {
            targets: [target, 0],
            len: 1,
        }
    }

    /// Both edges of a branch, collapsed to one when they coincide.
    fn branch(then: usize, on_false: usize) -> Self {
        if then == on_false {
            Self::one(then)
        } else {
            Self {
                targets: [then, on_false],
                len: 2,
            }
        }
    }

    fn as_slice(&self) -> &[usize] {
        &self.targets[..self.len]
    }
}

/// The control-flow graph of a program's code, unrefined or refined.
#[derive(Debug)]
pub struct Cfg {
    /// Successors per slot (targets may equal `len`, the exit node).
    succs: Vec<Succs>,
    /// Whether each slot is reachable from slot 0.
    reachable: Vec<bool>,
    /// Edges `(from, to)` with `to <= from` — loops are impossible without
    /// one, so an empty list proves termination.
    back_edges: Vec<(usize, usize)>,
}

impl Cfg {
    /// The graph of `code`, whose pool indices point into `pool`. With
    /// `refined`, a CHECK whose condition [`static_cond`] decides
    /// contributes only its live edge. Every target is clamped to the exit
    /// `code.len()`; a CHECK index outside `pool` counts as undecided.
    #[must_use]
    pub fn new(code: &[VmOp], pool: &ConstPool, refined: bool) -> Cfg {
        let len = code.len();
        Self::from_succs(
            code.iter()
                .enumerate()
                .map(|(pc, op)| {
                    let next = pc + 1;
                    match *op {
                        VmOp::Leaf { .. } => Succs::one(next),
                        VmOp::Jump { target } => Succs::one((target as usize).min(len)),
                        VmOp::Check { check, on_false } => {
                            let on_false = (on_false as usize).min(len);
                            let decided = pool
                                .checks()
                                .get(check as usize)
                                .filter(|_| refined)
                                .and_then(|spec| static_cond(spec.cond()));
                            match decided {
                                Some(true) => Succs::one(next),
                                Some(false) => Succs::one(on_false),
                                None => Succs::branch(next, on_false),
                            }
                        }
                    }
                })
                .collect(),
        )
    }

    /// Reachability from slot 0 and the reachable back edges of a graph
    /// whose targets all lie in `0..=succs.len()`.
    fn from_succs(succs: Vec<Succs>) -> Cfg {
        let len = succs.len();
        let mut reachable = vec![false; len];
        let mut stack = if len > 0 { vec![0usize] } else { Vec::new() };
        while let Some(pc) = stack.pop() {
            if pc >= len || reachable[pc] {
                continue;
            }
            reachable[pc] = true;
            stack.extend_from_slice(succs[pc].as_slice());
        }

        let back_edges = succs
            .iter()
            .enumerate()
            .filter(|(pc, _)| reachable[*pc])
            .flat_map(|(pc, ss)| {
                ss.as_slice()
                    .iter()
                    .filter(move |&&t| t <= pc)
                    .map(move |&t| (pc, t))
            })
            .collect();

        Cfg {
            succs,
            reachable,
            back_edges,
        }
    }

    /// Successor slots of `slot` (targets may equal the exit index).
    #[must_use]
    pub fn succs(&self, slot: usize) -> &[usize] {
        self.succs[slot].as_slice()
    }

    /// Number of slots (the exit node is `len()`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the plan has no slots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Whether `slot` is reachable from entry.
    #[must_use]
    pub fn is_reachable(&self, slot: usize) -> bool {
        self.reachable[slot]
    }

    /// Reachable edges `(from, to)` with `to <= from`. Empty for every
    /// program released by [`crate::plan::lower`], whose targets all move
    /// strictly forward — which is exactly the termination argument.
    #[must_use]
    pub fn back_edges(&self) -> &[(usize, usize)] {
        &self.back_edges
    }

    /// Whether forward progress is guaranteed (no reachable back edges).
    #[must_use]
    pub fn terminates(&self) -> bool {
        self.back_edges.is_empty()
    }

    /// Forward dataflow in one slot-order sweep: the fact holding *before*
    /// each slot, and at index `len()` the exit's; `None` where no fact
    /// flows (an unreachable slot). `transfer` moves a fact across a slot
    /// and `join` merges a fact into another where edges meet.
    ///
    /// Slot order is a topological order exactly when every reachable
    /// edge points forward, and then each slot's input is final before the
    /// slot is visited. A graph with a reachable back edge gets `None`
    /// rather than an answer that missed the facts along it.
    pub fn sweep<F: Clone>(
        &self,
        entry: F,
        mut transfer: impl FnMut(usize, &F) -> F,
        mut join: impl FnMut(&mut F, &F),
    ) -> Option<Vec<Option<F>>> {
        if !self.terminates() {
            return None;
        }
        let len = self.len();
        let mut facts = vec![None; len + 1];
        facts[0] = Some(entry);
        for pc in 0..len {
            let (done, ahead) = facts.split_at_mut(pc + 1);
            let Some(before) = &done[pc] else {
                continue;
            };
            let after = transfer(pc, before);
            // Every reachable edge points forward, so `succ > pc`.
            for &succ in self.succs(pc) {
                match &mut ahead[succ - pc - 1] {
                    Some(fact) => join(fact, &after),
                    empty @ None => *empty = Some(after.clone()),
                }
            }
        }
        Some(facts)
    }
}

/// Validate every slot of `program` without building a graph — each
/// branch target, and that no leaf carries a CHECK: the first half of the
/// gate `lower()` runs before releasing a program.
///
/// A target equal to the slot count is the ordinary exit and is valid.
#[must_use]
pub(crate) fn structural_diagnostics(program: &Program) -> Vec<Diagnostic> {
    let code = program.code();
    let len = code.len();
    let describe = |pc: usize| program.describe(pc).unwrap_or_default();
    let mut diags = Vec::new();
    for (pc, &op) in code.iter().enumerate() {
        match op {
            VmOp::Leaf { leaf } => {
                let carries_check = program
                    .pool()
                    .leaves()
                    .get(leaf as usize)
                    .is_some_and(|spec| matches!(spec.op(), Op::Check { .. }));
                if carries_check {
                    diags.push(Diagnostic::at(
                        &CHECK_IN_LEAF,
                        pc,
                        describe(pc),
                        format!(
                            "leaf slot {pc:04} carries a CHECK; its branches must be lowered to \
                             Check and Jump slots"
                        ),
                    ));
                }
            }
            VmOp::Check { on_false, .. } => {
                if on_false == PLACEHOLDER {
                    diags.push(Diagnostic::at(
                        &PLACEHOLDER_LEAK,
                        pc,
                        describe(pc),
                        format!("CHECK at slot {pc:04} kept the u32::MAX lowering placeholder"),
                    ));
                } else if on_false as usize > len {
                    diags.push(Diagnostic::at(
                        &CHECK_TARGET_ESCAPES,
                        pc,
                        describe(pc),
                        format!("CHECK else-target {on_false} escapes the plan ({len} slots)"),
                    ));
                }
            }
            VmOp::Jump { target } => {
                if target == PLACEHOLDER {
                    diags.push(Diagnostic::at(
                        &PLACEHOLDER_LEAK,
                        pc,
                        describe(pc),
                        format!("JUMP at slot {pc:04} kept the u32::MAX lowering placeholder"),
                    ));
                } else if target as usize > len {
                    diags.push(Diagnostic::at(
                        &BAD_JUMP_TARGET,
                        pc,
                        describe(pc),
                        format!("jump target {target} is out of bounds ({len} slots)"),
                    ));
                }
            }
        }
    }
    diags
}

/// Diagnostics for reachable back edges: one [`BACKWARD_JUMP`] error per
/// edge, anchored at the jumping slot — the second half of the gate.
#[must_use]
pub(crate) fn termination_diagnostics(program: &Program, cfg: &Cfg) -> Vec<Diagnostic> {
    cfg.back_edges()
        .iter()
        .map(|(from, to)| {
            Diagnostic::at(
                &BACKWARD_JUMP,
                *from,
                program.describe(*from).unwrap_or_default(),
                format!(
                    "slot {from:04} jumps backwards to {to:04}; lowered plans must move \
                     strictly forward to guarantee termination"
                ),
            )
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::condition::Cond;
    use crate::history::RefinementMode;
    use crate::pipeline::Pipeline;
    use crate::plan::asm::{assemble, create, Slot};
    use crate::plan::lower;
    use std::collections::BTreeSet;

    fn jump(target: u32) -> Slot {
        Slot::Jump(target)
    }

    fn plan_of(slots: Vec<Slot>) -> Program {
        assemble("hand_built", slots)
    }

    fn leaf() -> Slot {
        Slot::Leaf(create("p"))
    }

    /// The unrefined graph, the one the gate and the default passes read.
    fn cfg(program: &Program) -> Cfg {
        Cfg::new(program.code(), program.pool(), false)
    }

    #[test]
    fn lowered_pipelines_build_clean_cfgs() {
        let p = Pipeline::builder("c")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::Always,
                |b| b.expand("p", "then"),
                |b| b.expand("p", "else"),
            )
            .gen("a", "p")
            .build();
        let lowered = lower(&p).expect("lowers");
        let cfg = cfg(&lowered);
        assert_eq!(cfg.len(), lowered.code().len());
        assert!((0..cfg.len()).all(|s| cfg.is_reachable(s)));
        assert!(cfg.terminates());
    }

    #[test]
    fn out_of_bounds_targets_are_structural_errors() {
        let bad = plan_of(vec![leaf(), jump(99)]);
        let diags = structural_diagnostics(&bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E001");
    }

    #[test]
    fn placeholder_targets_get_their_own_code() {
        let bad = plan_of(vec![jump(PLACEHOLDER)]);
        let diags = structural_diagnostics(&bad);
        assert_eq!(diags[0].code, "SPEAR-E003");
    }

    #[test]
    fn exit_targets_are_valid() {
        let ok = plan_of(vec![leaf(), jump(2)]);
        assert!(structural_diagnostics(&ok).is_empty());
        assert!(cfg(&ok).terminates());
    }

    #[test]
    fn backward_jumps_are_flagged_with_the_jumping_slot() {
        let looping = plan_of(vec![leaf(), jump(0)]);
        let cfg = cfg(&looping);
        assert!(!cfg.terminates());
        let diags = termination_diagnostics(&looping, &cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E006");
        assert_eq!(diags[0].slot, Some(1));
    }

    #[test]
    fn unreachable_slots_are_detected() {
        let p = plan_of(vec![jump(2), leaf(), leaf()]);
        let cfg = cfg(&p);
        assert!(cfg.is_reachable(0));
        assert!(!cfg.is_reachable(1));
        assert!(cfg.is_reachable(2));
    }

    /// A toy sweep: the set of slots some path to each point has visited.
    fn visited(cfg: &Cfg) -> Option<Vec<Option<BTreeSet<usize>>>> {
        cfg.sweep(
            BTreeSet::new(),
            |slot, before| {
                let mut out = before.clone();
                out.insert(slot);
                out
            },
            |into, from| into.extend(from.iter().copied()),
        )
    }

    #[test]
    fn sweep_facts_union_at_join_points() {
        // create, check, then-expand, jump, else-expand, gen
        let p = Pipeline::builder("j")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::Always,
                |b| b.expand("p", "then"),
                |b| b.expand("p", "else"),
            )
            .gen("a", "p")
            .build();
        let plan = lower(&p).expect("lowers");
        let facts = visited(&cfg(&plan)).expect("forward");

        // The trailing gen (slot 5) is reached from both branches, so its
        // input fact contains the then-slot (2) and the else-slot (4).
        let at_gen = facts[5].as_ref().expect("reachable");
        assert!(at_gen.contains(&2) && at_gen.contains(&4));
        // The else branch's input does NOT contain the then slot.
        let at_else = facts[4].as_ref().expect("reachable");
        assert!(!at_else.contains(&2));
        // The exit's fact is the last entry and has seen every slot.
        assert_eq!(facts[6].as_ref().expect("exit").len(), 6);
    }

    #[test]
    fn sweep_leaves_unreachable_slots_without_a_fact() {
        let plan = plan_of(vec![jump(2), jump(2), jump(3)]);
        let facts = visited(&cfg(&plan)).expect("forward");
        assert!(facts[0].is_some());
        assert!(facts[1].is_none());
        assert!(facts[2].is_some());
    }

    #[test]
    fn sweep_refuses_a_reachable_back_edge() {
        let looping = plan_of(vec![leaf(), jump(0)]);
        assert!(visited(&cfg(&looping)).is_none());
    }
}
