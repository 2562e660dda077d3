//! A small forward-dataflow fixpoint engine over the plan CFG.
//!
//! Analyses describe a join-semilattice of facts: an entry fact, a
//! per-instruction transfer function, and a join that unions information
//! flowing in along multiple edges. The engine runs the classic worklist
//! iteration until the facts stop changing; analyses whose join only ever
//! grows facts drawn from a finite universe (e.g. the set of prompt keys
//! appearing in the plan) are guaranteed to converge even on cyclic
//! graphs. On the strictly-forward CFGs [`crate::plan::lower`] produces,
//! the worklist degenerates into a single in-order sweep.

use crate::plan::{LoweredOp, LoweredPlan};

use super::cfg::Cfg;

/// A forward dataflow analysis over lowered plans. Facts may borrow from
/// the plan under analysis (`'p`), so a lattice over the plan's names
/// need not copy them.
pub trait Analysis<'p> {
    /// The lattice element tracked per program point.
    type Fact: Clone;

    /// The fact holding at the plan's entry (slot 0).
    fn entry_fact(&self) -> Self::Fact;

    /// The fact after executing `op`, given the fact before it.
    fn transfer(&self, slot: usize, op: &'p LoweredOp, before: &Self::Fact) -> Self::Fact;

    /// Merge `from` into `into` (join). Returns whether `into` changed;
    /// the fixpoint loop re-queues a slot only when its input grew.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;
}

/// Run `analysis` to fixpoint and return the fact holding *before* each
/// slot. Unreachable slots get `None` — no fact ever flows into them.
pub fn fixpoint<'p, A: Analysis<'p>>(
    plan: &'p LoweredPlan,
    cfg: &Cfg,
    analysis: &A,
) -> Vec<Option<A::Fact>> {
    let len = plan.ops.len();
    let mut facts: Vec<Option<A::Fact>> = vec![None; len];
    if len == 0 {
        return facts;
    }
    facts[0] = Some(analysis.entry_fact());
    let mut worklist = vec![0usize];
    while let Some(slot) = worklist.pop() {
        let Some(before) = &facts[slot] else {
            continue;
        };
        let after = analysis.transfer(slot, &plan.ops[slot], before);
        for &succ in cfg.succs(slot) {
            if succ >= len {
                continue; // the exit node holds no fact
            }
            let changed = match &mut facts[succ] {
                Some(existing) => analysis.join(existing, &after),
                empty @ None => {
                    *empty = Some(after.clone());
                    true
                }
            };
            if changed {
                worklist.push(succ);
            }
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Toy analysis: which prompt keys REF-style leaves have defined.
    /// Mirrors the shape of the real def-use pass with a trivial lattice.
    struct Defined;

    impl Analysis<'_> for Defined {
        type Fact = BTreeSet<usize>;

        fn entry_fact(&self) -> Self::Fact {
            BTreeSet::new()
        }

        fn transfer(&self, slot: usize, _op: &LoweredOp, before: &Self::Fact) -> Self::Fact {
            let mut out = before.clone();
            out.insert(slot);
            out
        }

        fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
            let before = into.len();
            into.extend(from.iter().copied());
            into.len() != before
        }
    }

    #[test]
    fn facts_union_at_join_points() {
        use crate::condition::Cond;
        use crate::history::RefinementMode;
        use crate::pipeline::Pipeline;
        use crate::plan::lower;

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
        let cfg = Cfg::build(&plan).expect("valid");
        let facts = fixpoint(&plan, &cfg, &Defined);

        // The trailing gen (slot 5) is reached from both branches, so its
        // input fact contains the then-slot (2) and the else-slot (4).
        let at_gen = facts[5].as_ref().expect("reachable");
        assert!(at_gen.contains(&2) && at_gen.contains(&4));
        // The else branch's input does NOT contain the then slot.
        let at_else = facts[4].as_ref().expect("reachable");
        assert!(!at_else.contains(&2));
    }

    #[test]
    fn unreachable_slots_have_no_fact() {
        use crate::plan::{LoweredOp, LoweredPlan};
        let plan = LoweredPlan {
            name: "dead".into(),
            source_size: 0,
            ops: vec![
                LoweredOp::Jump { target: 2 },
                LoweredOp::Jump { target: 2 },
                LoweredOp::Jump { target: 3 },
            ],
        };
        let cfg = Cfg::build(&plan).expect("valid");
        let facts = fixpoint(&plan, &cfg, &Defined);
        assert!(facts[0].is_some());
        assert!(facts[1].is_none());
        assert!(facts[2].is_some());
    }
}
