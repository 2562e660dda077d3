//! Lowering: a pipeline's operator tree flattened into its one plan form,
//! the bytecode [`Program`].
//!
//! A [`Pipeline`] is a tree (CHECK nests its branches); the executor spine
//! wants a flat program it can step with a program counter — the same move
//! a query engine makes when it lowers a logical plan into a physical one.
//! [`lower`] walks the tree once and emits each slot as it goes: every
//! non-CHECK operator becomes a `Leaf`, every CHECK a `Check` with an
//! explicit `on_false` jump target, and a then-branch followed by an
//! else-branch ends in a `Jump` over the else block (see
//! [`crate::vm::VmOp`]). The code and the leaf and check specs are sized
//! for the tree before the walk, so they never grow.
//!
//! The tree's nesting is baked into the specs so the flat program
//! reproduces the tree walk byte-for-byte: each spec names its innermost
//! enclosing CHECK branch ([`crate::vm::Within`]), and each check spec its
//! own, so the enclosing CHECKs form a chain. It gives the two pieces of
//! tree-shaped bookkeeping the tree walk keeps on its stack:
//!
//! - **triggers** — a REF inside a CHECK branch records the branch's
//!   condition text in its ref_log: the innermost branch's text, which
//!   its check spec holds, formatted once here;
//! - **frames** — when an operator fails, the tree walk records one
//!   `Error` trace event per enclosing CHECK while unwinding; the spine
//!   replays that unwind by walking the chain innermost-first.
//!
//! Both executors — [`crate::runtime::Runtime::execute`], which runs the
//! lowered program, and the reference tree walk kept as
//! [`crate::runtime::Runtime::execute_tree`] — are differentially tested
//! for byte-identical traces (`tests/trace_equivalence.rs`).

use crate::condition::Cond;
use crate::error::{Result, SpearError};
use crate::ops::Op;
use crate::pipeline::Pipeline;
use crate::trace::shared;
use crate::vm::{Branch, CheckSpec, LeafSpec, Program, VmOp, Within};

/// The plan form this module emitted before lowering produced the program
/// directly; it is the program.
#[doc(hidden)]
pub type LoweredPlan = Program;

/// The target a branch slot holds until lowering patches it. One that
/// survives to the gate is `SPEAR-E003`.
pub(crate) const PLACEHOLDER: u32 = u32::MAX;

/// Lower a pipeline into its program.
///
/// Lowering fails closed: before a program is released it passes the
/// structural gate (`analysis::verify_structural`), so a
/// malformed branch shape can never leak an unpatched placeholder target
/// (or any other bad target) into the executor.
///
/// # Errors
///
/// Returns [`SpearError::InvalidPlan`] carrying the structural diagnostics
/// when the emitted code is malformed.
pub fn lower(pipeline: &Pipeline) -> Result<Program> {
    let [leaves, checks, jumps] = slots(&pipeline.ops);
    let mut emitter = Emitter {
        code: Vec::with_capacity(leaves + checks + jumps),
        leaves: Vec::with_capacity(leaves),
        checks: Vec::with_capacity(checks),
    };
    emitter.ops(&pipeline.ops, None);
    release(emitter.finish(pipeline.name.clone(), (leaves + checks) as u64))
}

/// The leaf, check and jump slots lowering `ops` emits: one slot per
/// operator (their sum with the checks is `Pipeline::size()`), plus a
/// JUMP per CHECK with an else-branch.
fn slots(ops: &[Op]) -> [usize; 3] {
    ops.iter()
        .fold([0; 3], |[leaves, checks, jumps], op| match op {
            Op::Check {
                then_ops, else_ops, ..
            } => {
                let [tl, tc, tj] = slots(then_ops);
                let [el, ec, ej] = slots(else_ops);
                let jump = usize::from(!else_ops.is_empty());
                [
                    leaves + tl + el,
                    checks + 1 + tc + ec,
                    jumps + jump + tj + ej,
                ]
            }
            _ => [leaves + 1, checks, jumps],
        })
}

/// The fail-closed gate between emitting code and handing the program to
/// callers.
fn release(program: Program) -> Result<Program> {
    let diagnostics = crate::analysis::verify_structural(&program);
    if diagnostics
        .iter()
        .any(crate::analysis::Diagnostic::is_error)
    {
        return Err(SpearError::InvalidPlan {
            plan: program.name().to_owned(),
            diagnostics,
        });
    }
    Ok(program)
}

/// The code and specs under construction.
#[derive(Default)]
struct Emitter {
    code: Vec<VmOp>,
    leaves: Vec<LeafSpec>,
    checks: Vec<CheckSpec>,
}

impl Emitter {
    /// The index the next emitted slot takes.
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    /// Emit `ops`, each inside the branch `within`.
    fn ops(&mut self, ops: &[Op], within: Within) {
        for op in ops {
            match op {
                Op::Check {
                    cond,
                    then_ops,
                    else_ops,
                } => self.check(cond, then_ops, else_ops, within),
                other => self.leaf(other, within),
            }
        }
    }

    fn leaf(&mut self, op: &Op, within: Within) {
        let leaf = self.leaves.len() as u32;
        self.leaves.push(LeafSpec {
            op: op.clone(),
            within,
        });
        self.code.push(VmOp::Leaf { leaf });
    }

    /// Push `cond`'s check spec inside the branch `within`, with the else
    /// branch's trigger when it has one; returns its index.
    fn check_spec(&mut self, cond: &Cond, within: Within, has_else: bool) -> u32 {
        self.checks.push(CheckSpec {
            cond: cond.clone(),
            // `Op::Check` describes itself as this label. Each text is
            // formatted straight into its one shared allocation.
            label: shared(format_args!("CHECK[{cond}]")),
            negated: has_else.then(|| shared(format_args!("!({cond})"))),
            within,
        });
        self.checks.len() as u32 - 1
    }

    fn check(&mut self, cond: &Cond, then_ops: &[Op], else_ops: &[Op], within: Within) {
        let check = self.check_spec(cond, within, !else_ops.is_empty());
        let check_at = self.code.len();
        self.code.push(VmOp::Check {
            check,
            on_false: PLACEHOLDER,
        });
        self.ops(then_ops, Some((check, Branch::Then)));
        let on_false = if else_ops.is_empty() {
            self.pc()
        } else {
            let jump_at = self.code.len();
            self.code.push(VmOp::Jump {
                target: PLACEHOLDER,
            });
            let else_start = self.pc();
            self.ops(else_ops, Some((check, Branch::Else)));
            self.code[jump_at] = VmOp::Jump { target: self.pc() };
            else_start
        };
        self.code[check_at] = VmOp::Check { check, on_false };
    }

    /// The emitted program, not yet gated.
    fn finish(self, name: String, source_size: u64) -> Program {
        Program::assemble(name, source_size, self.code, self.leaves, self.checks)
    }
}

#[cfg(test)]
pub(crate) mod asm;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;
    use crate::ops::PromptRef;
    use crate::value::Value;

    /// The leaf spec at slot `pc`.
    fn leaf_at(program: &Program, pc: usize) -> &LeafSpec {
        let VmOp::Leaf { leaf } = program.code()[pc] else {
            panic!("leaf at {pc}: {:?}", program.code())
        };
        program.leaf(leaf)
    }

    /// The labels of the CHECKs enclosing a slot inside `within`,
    /// outermost first.
    fn frames(program: &Program, within: Within) -> Vec<&str> {
        let mut frames: Vec<&str> = program.enclosing(within).map(CheckSpec::label).collect();
        frames.reverse();
        frames
    }

    /// A leaf's trigger text and frame labels.
    fn trigger_and_frames(program: &Program, pc: usize) -> (Option<&str>, Vec<&str>) {
        let within = leaf_at(program, pc).within();
        (program.trigger(within), frames(program, within))
    }

    #[test]
    fn straight_line_pipelines_lower_to_leaves() {
        let p = Pipeline::builder("flat")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let lowered = lower(&p).unwrap();
        assert_eq!(lowered.name(), "flat");
        assert_eq!(lowered.source_size(), 2);
        assert_eq!(lowered.code().len(), 2);
        assert_eq!(lowered.leaves().len(), 2);
        for pc in 0..2 {
            assert_eq!(trigger_and_frames(&lowered, pc), (None, vec![]));
        }
    }

    #[test]
    fn check_without_else_jumps_past_its_branch() {
        let p = Pipeline::builder("c")
            .create_text("p", "base", RefinementMode::Manual)
            .check(Cond::Always, |b| b.expand("p", "more").expand("p", "more"))
            .gen("a", "p")
            .build();
        let lowered = lower(&p).unwrap();
        // create, check, expand, expand, gen
        assert_eq!(lowered.code().len(), 5);
        let VmOp::Check { on_false, .. } = lowered.code()[1] else {
            panic!("check at 1: {:?}", lowered.code())
        };
        assert_eq!(on_false, 4, "false skips straight to the trailing gen");
        // Branch leaves carry the trigger and the enclosing frame.
        assert_eq!(
            trigger_and_frames(&lowered, 2),
            (Some("true"), vec!["CHECK[true]"])
        );
        // The trailing gen is back at top level.
        assert_eq!(trigger_and_frames(&lowered, 4), (None, vec![]));
    }

    #[test]
    fn check_with_else_emits_a_jump_over_the_else_branch() {
        let p = Pipeline::builder("ce")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::Always,
                |b| b.expand("p", "then"),
                |b| b.expand("p", "else"),
            )
            .build();
        let lowered = lower(&p).unwrap();
        // create, check, then-expand, jump, else-expand
        assert_eq!(lowered.code().len(), 5);
        let VmOp::Check { on_false, .. } = lowered.code()[1] else {
            panic!("check at 1")
        };
        assert_eq!(on_false, 4, "false enters the else branch");
        assert_eq!(lowered.code()[3], VmOp::Jump { target: 5 });
        assert_eq!(trigger_and_frames(&lowered, 4).0, Some("!(true)"));
    }

    #[test]
    fn nested_checks_stack_frames_outermost_first() {
        let p = Pipeline::builder("nest")
            .check(Cond::Always, |b| {
                b.check(Cond::Never, |b| b.expand("p", "x"))
            })
            .build();
        let lowered = lower(&p).unwrap();
        assert_eq!(
            trigger_and_frames(&lowered, 2).1,
            ["CHECK[true]", "CHECK[false]"]
        );
        let VmOp::Check { check, .. } = lowered.code()[1] else {
            panic!("inner check at 1: {:?}", lowered.code())
        };
        assert_eq!(
            frames(&lowered, lowered.check(check).within()),
            ["CHECK[true]"]
        );
    }

    /// The seed a plan whose family text is `key` must carry.
    fn seed_of(key: &str) -> Option<u64> {
        Some(spear_kv::shard::fnv1a(key.as_bytes()))
    }

    #[test]
    fn affinity_seed_comes_from_the_creating_view() {
        let args: std::collections::BTreeMap<String, Value> =
            [("topic".to_string(), Value::from("school"))]
                .into_iter()
                .collect();
        let p = Pipeline::builder("aff")
            .create_from_view("p", "tweet_filter", args.clone())
            .gen("a", "p")
            .build();
        let seed = lower(&p).unwrap().affinity_seed();
        assert!(seed.is_some(), "view-derived plans have a seed");
        assert_eq!(
            seed,
            seed_of(&format!(
                "view:tweet_filter#{:x}",
                crate::view::param_hash(&args)
            ))
        );

        // Same view, same params, different per-request context => same seed.
        let q = Pipeline::builder("aff2")
            .create_from_view("p", "tweet_filter", args)
            .gen("a", "p")
            .build();
        assert_eq!(lower(&q).unwrap().affinity_seed(), seed);

        // Different params land in a different affinity group.
        let other: std::collections::BTreeMap<String, Value> =
            [("topic".to_string(), Value::from("weather"))]
                .into_iter()
                .collect();
        let r = Pipeline::builder("aff3")
            .create_from_view("p", "tweet_filter", other)
            .gen("a", "p")
            .build();
        assert_ne!(lower(&r).unwrap().affinity_seed(), seed);
    }

    #[test]
    fn param_hash_folds_the_rendered_arguments() {
        // `k=v;` per argument in key order, strings bare and every other
        // value in its `Display` form.
        let args: std::collections::BTreeMap<String, Value> = [
            ("n".to_string(), Value::Int(3)),
            ("topic".to_string(), Value::from("school")),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            crate::view::param_hash(&args),
            spear_kv::shard::fnv1a(b"n=3;topic=school;")
        );
        assert_eq!(
            crate::view::param_hash(&std::collections::BTreeMap::new()),
            spear_kv::shard::fnv1a(b"")
        );
    }

    #[test]
    fn affinity_seed_is_the_hashed_key_and_tracks_its_presence() {
        let keyed = Pipeline::builder("seeded")
            .create_text("p", "shared base text", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let key = format!("text:{:x}", spear_kv::shard::fnv1a(b"shared base text"));
        assert_eq!(lower(&keyed).unwrap().affinity_seed(), seed_of(&key));

        let opaque = Pipeline::builder("op")
            .gen_with(
                "a",
                PromptRef::Inline("ad hoc {{ctx:q}}".into()),
                crate::llm::GenOptions::default(),
            )
            .build();
        assert_eq!(lower(&opaque).unwrap().affinity_seed(), None);
    }

    #[test]
    fn affinity_seed_falls_back_to_base_text_and_opaque_is_none() {
        let a = Pipeline::builder("t1")
            .create_text("p", "shared base text", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let b = Pipeline::builder("t2")
            .create_text("p", "shared base text", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let c = Pipeline::builder("t3")
            .create_text("p", "a different base", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let sa = lower(&a).unwrap().affinity_seed();
        assert_eq!(
            sa,
            seed_of(&format!(
                "text:{:x}",
                spear_kv::shard::fnv1a(b"shared base text")
            ))
        );
        assert_eq!(lower(&b).unwrap().affinity_seed(), sa);
        assert_ne!(lower(&c).unwrap().affinity_seed(), sa);
        assert!(lower(&c).unwrap().affinity_seed().is_some());

        // A purely inline GEN has no structured identity: no seed.
        let opaque = Pipeline::builder("op")
            .gen_with(
                "a",
                PromptRef::Inline("ad hoc {{ctx:q}}".into()),
                crate::llm::GenOptions::default(),
            )
            .build();
        assert_eq!(lower(&opaque).unwrap().affinity_seed(), None);
    }

    #[test]
    fn affinity_seed_reads_inline_views_and_lowered_identities() {
        let v = Pipeline::builder("iv")
            .gen_with(
                "a",
                PromptRef::View {
                    name: "summary".into(),
                    args: std::collections::BTreeMap::new(),
                },
                crate::llm::GenOptions::default(),
            )
            .build();
        assert_eq!(
            lower(&v).unwrap().affinity_seed(),
            seed_of(&format!(
                "view:summary#{:x}",
                crate::view::param_hash(&std::collections::BTreeMap::new())
            ))
        );

        let l = Pipeline::builder("low")
            .gen_with(
                "a",
                PromptRef::Lowered {
                    text: "fused template".into(),
                    identity: Some("view:fused@1#0/v1".into()),
                },
                crate::llm::GenOptions::default(),
            )
            .build();
        assert_eq!(
            lower(&l).unwrap().affinity_seed(),
            seed_of("view:fused@1#0/v1")
        );
    }

    #[test]
    fn release_rejects_leaked_placeholders() {
        // Regression for the fail-closed gate: if a malformed branch shape
        // ever leaves an unpatched placeholder behind, `lower()` must
        // return Err instead of releasing the program to the executor.
        let leaky = asm::assemble("leaky", vec![asm::Slot::Jump(PLACEHOLDER)]);
        let err = asm::release(leaky).unwrap_err();
        let SpearError::InvalidPlan { plan, diagnostics } = err else {
            panic!("expected InvalidPlan")
        };
        assert_eq!(plan, "leaky");
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].code, "SPEAR-E003");
        assert_eq!(diagnostics[0].slot, Some(0));
    }

    #[test]
    fn lowering_never_emits_placeholder_targets() {
        // Deeply nested and else-carrying branch shapes all patch their
        // placeholders before release.
        let p = Pipeline::builder("deep")
            .check_else(
                Cond::Always,
                |b| {
                    b.check(Cond::Never, |b| {
                        b.check_else(Cond::Always, |b| b.expand("p", "a"), |b| b.expand("p", "b"))
                    })
                },
                |b| b.check(Cond::Always, |b| b.expand("p", "c")),
            )
            .build();
        let lowered = lower(&p).unwrap();
        for op in lowered.code() {
            match *op {
                VmOp::Jump { target } => assert_ne!(target, PLACEHOLDER),
                VmOp::Check { on_false, .. } => assert_ne!(on_false, PLACEHOLDER),
                VmOp::Leaf { .. } => {}
            }
        }
    }

    #[test]
    fn fingerprint_golden_vector() {
        // Pinned: an edit to any `StableHash` impl a plan reaches moves this
        // value, and with it every program-cache key.
        let p = Pipeline::builder("golden")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::low_confidence(0.7),
                |b| b.expand("p", "more"),
                |b| b.gen("a", "p"),
            )
            .build();
        assert_eq!(lower(&p).unwrap().fingerprint(), 0xd16d_fdc3_e040_20e4);
    }
}
