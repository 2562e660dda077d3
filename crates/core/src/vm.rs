//! The bytecode VM: the one plan form and the one production spine.
//!
//! [`crate::plan::lower`] emits a [`Program`] straight from the operator
//! tree; there is no second plan form and no translation step. A program
//! is its code and its specs, and pays once, at lowering, what a step
//! would otherwise pay every time:
//!
//! - every slot is one compact, `Copy` [`VmOp`] of `u32` indices into the
//!   program's [`LeafSpec`]s and [`CheckSpec`]s: the program counter *is*
//!   the slot, and every branch target is a slot index;
//! - each spec names its innermost enclosing CHECK branch
//!   ([`LeafSpec::within`]), so the CHECK nesting is a chain the unwind
//!   walks innermost-first, not a list copied into every slot;
//! - a [`CheckSpec`] owns its `CHECK[..]` label and the REF triggers of
//!   its branches, formatted once at lowering into shared `Arc<str>`s, so
//!   the hot loop formats nothing that is a pure function of the plan, and
//!   the trace events of a check, of every unwind through it and of every
//!   REF in its branches share that text (an operator's describe
//!   line is formatted where it is read: when the operator's own failure
//!   is unwound, and in [`Program::describe`]; an inline or lowered GEN
//!   prompt is parsed once, with the operator that holds it: see
//!   [`crate::template::PromptText`]);
//! - the program's identity — its [`Program::fingerprint`] and
//!   [`Program::affinity_seed`] — is derived once, when it is emitted;
//! - the run loop is a tight match over `&[VmOp]`: no trait objects, no
//!   per-step allocation beyond the trace events themselves (one op line
//!   per data operator, none for a check).
//!
//! ## Verified on emission
//!
//! `lower` is fail-closed and the only way to obtain a program outside
//! this crate: it runs the structural gate on the emitted code and refuses
//! to release a malformed one — a target out of range, a leaked lowering
//! placeholder, a backward jump, or a CHECK in a leaf slot. Nothing outside
//! the crate can build or edit a program, so the VM *assumes* those
//! invariants and skips per-step validation.
//!
//! ## Equivalence
//!
//! For every plan, the VM's statuses, traces, digests, and usage are
//! byte-identical to the reference tree walk
//! ([`crate::runtime::Runtime::execute_tree`]), proven by
//! `tests/trace_equivalence.rs` at 1/4/8 workers including error unwinds
//! and cancellation. Every program runs as `lower` emitted it: there is
//! no rewriting pass between emission and execution.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use crate::condition::Cond;
use crate::error::{Result, SpearError};
use crate::exec::{self, CallLimits};
use crate::history::RefAction;
use crate::ops::{Op, PromptRef};
use crate::runtime::{ExecState, Runtime};
use crate::trace::{branch_text, shared, Detail, TraceKind};
use crate::value::Value;

/// One instruction: `u32` indices into the program's specs. `Copy`, two
/// or three words, no heap payload — the VM loop fetches instructions by
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmOp {
    /// Execute leaf spec `leaf`; fall through.
    Leaf {
        /// Index into [`Program::leaves`].
        leaf: u32,
    },
    /// Evaluate check spec `check`; fall through when it holds, jump to
    /// `on_false` otherwise.
    Check {
        /// Index into [`Program::checks`].
        check: u32,
        /// Jump target (code index) when the condition is false.
        on_false: u32,
    },
    /// Unconditional jump. Free: no budget, no trace.
    Jump {
        /// Target code index.
        target: u32,
    },
}

/// A branch of a CHECK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branch {
    /// Taken when the condition holds.
    Then,
    /// Taken when it does not.
    Else,
}

/// A slot's innermost enclosing CHECK branch: the check spec's index and
/// the branch, or `None` at top level.
pub type Within = Option<(u32, Branch)>;

/// A data operator's slot: the operator and its innermost enclosing
/// branch.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSpec {
    pub(crate) op: Op,
    pub(crate) within: Within,
}

impl LeafSpec {
    /// The operator this leaf executes.
    #[must_use]
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// The innermost CHECK branch enclosing the leaf.
    #[must_use]
    pub fn within(&self) -> Within {
        self.within
    }

    /// Whether the leaf is a GEN over an inline or lowered prompt whose
    /// template parsed cleanly (the text carries its parse).
    #[must_use]
    pub fn has_template(&self) -> bool {
        matches!(
            &self.op,
            Op::Gen {
                prompt: PromptRef::Inline(text) | PromptRef::Lowered { text, .. },
                ..
            } if text.parsed().is_some()
        )
    }
}

/// A condition's slot: the condition, its `CHECK[{cond}]` label (the
/// trace text of the check and of every unwind through it, and read
/// without its brackets the then-branch's REF trigger), the else branch's
/// REF trigger `!({cond})` when there is an else branch, and its innermost
/// enclosing branch. Both texts are shared with the trace events that
/// record them.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSpec {
    pub(crate) cond: Cond,
    pub(crate) label: Arc<str>,
    pub(crate) negated: Option<Arc<str>>,
    pub(crate) within: Within,
}

impl CheckSpec {
    /// The condition over (C, M).
    #[must_use]
    pub fn cond(&self) -> &Cond {
        &self.cond
    }

    /// The `CHECK[{cond}]` label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The innermost CHECK branch enclosing this one.
    #[must_use]
    pub fn within(&self) -> Within {
        self.within
    }
}

/// A lowered plan: bytecode over its leaf and check specs, the source
/// pipeline's trace identity (name and size), and the plan's structural
/// identity.
///
/// Only [`crate::plan::lower`] releases programs, each through the
/// structural gate, and nothing outside this crate can build or edit one.
#[derive(Debug, Clone)]
pub struct Program {
    fields: PlanFields,
    source_size: u64,
    leaves: Vec<LeafSpec>,
    checks: Vec<CheckSpec>,
    fingerprint: u64,
    affinity_seed: Option<u64>,
}

/// The `name` and `ops` a program's slot listing starts from, readable
/// (never writable) as `program.name` and `program.ops` through `Deref`.
/// Product code reads them as [`Program::name`] and [`Program::code`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PlanFields {
    /// Name of the source pipeline.
    #[doc(hidden)]
    pub name: String,
    /// The instruction stream.
    #[doc(hidden)]
    pub ops: Vec<VmOp>,
}

impl std::ops::Deref for Program {
    type Target = PlanFields;

    fn deref(&self) -> &PlanFields {
        &self.fields
    }
}

impl Program {
    /// Assemble emitted parts into a program and derive its identity. Not
    /// a release: [`crate::plan::lower`] gates what this returns.
    pub(crate) fn assemble(
        name: String,
        source_size: u64,
        code: Vec<VmOp>,
        leaves: Vec<LeafSpec>,
        checks: Vec<CheckSpec>,
    ) -> Program {
        let mut program = Program {
            fields: PlanFields { name, ops: code },
            source_size,
            leaves,
            checks,
            fingerprint: 0,
            affinity_seed: None,
        };
        program.fingerprint = crate::identity::stable_hash(&program);
        program.affinity_seed = affinity_seed(&program.leaves);
        program
    }

    /// Name of the source pipeline (used in traces).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.fields.name
    }

    /// `Pipeline::size()` of the source — the op count the trace's
    /// `PipelineStart` event reports (jumps are not counted).
    #[must_use]
    pub fn source_size(&self) -> u64 {
        self.source_size
    }

    /// The instruction stream, one instruction per slot.
    #[must_use]
    pub fn code(&self) -> &[VmOp] {
        &self.fields.ops
    }

    /// The leaf specs, one per leaf slot, in slot order.
    #[must_use]
    pub fn leaves(&self) -> &[LeafSpec] {
        &self.leaves
    }

    /// The check specs, one per CHECK slot, in slot order.
    #[must_use]
    pub fn checks(&self) -> &[CheckSpec] {
        &self.checks
    }

    pub(crate) fn leaf(&self, id: u32) -> &LeafSpec {
        &self.leaves[id as usize]
    }

    pub(crate) fn check(&self, id: u32) -> &CheckSpec {
        &self.checks[id as usize]
    }

    /// The CHECKs enclosing a slot whose innermost enclosing branch is
    /// `within`, innermost first: the order an error unwinds through them.
    pub(crate) fn enclosing(&self, within: Within) -> impl Iterator<Item = &CheckSpec> {
        let spec =
            move |within: Within| within.and_then(|(check, _)| self.checks.get(check as usize));
        std::iter::successors(spec(within), move |check| spec(check.within))
    }

    /// The REF trigger of a leaf whose innermost enclosing branch is
    /// `within`, `None` at top level: the condition text in a then-branch
    /// (the check's label without its `CHECK[` `]`), `!({cond})` in an
    /// else-branch.
    #[must_use]
    pub fn trigger(&self, within: Within) -> Option<&str> {
        self.trigger_source(within)
            .map(|(text, branch)| branch_text(text, branch))
    }

    /// The text the check of `within` holds for its branch — the label of
    /// a then-branch, the negation of an else-branch — and the branch:
    /// what a REF's trace event shares as its trigger.
    pub(crate) fn trigger_source(&self, within: Within) -> Option<(&Arc<str>, Branch)> {
        let (check, branch) = within?;
        let spec = self.checks.get(check as usize)?;
        match branch {
            Branch::Then => Some((&spec.label, branch)),
            Branch::Else => spec.negated.as_ref().map(|text| (text, branch)),
        }
    }

    /// Structural fingerprint of the plan (DESIGN.md §17): name, op count
    /// and every slot with its operator, trigger, frames and targets,
    /// literals kept apart by type. Derived when the plan is emitted. The
    /// serving layer keys its admission-verify memo on it, so structurally
    /// different plans get their own verdicts unless their 64-bit hashes
    /// collide.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
    /// The plan's **cache-affinity seed**: a stable identity for the prompt
    /// prefix its first generation will prefill, or `None` when the plan
    /// only uses opaque ad-hoc prompts. Derived when the plan is emitted.
    ///
    /// Two plans with equal seeds render prompts that share a prefix (same
    /// view + parameters, or same base text), so a serving layer that
    /// routes them to the same cache stripe and worker lane maximizes
    /// radix-tree prefix reuse — the scheduling analogue of the engine's
    /// "structure gates caching" rule. Every placement decision keys on
    /// this one value: the serve scheduler's owner groups and lane pinning,
    /// the KV scheduler's shared-prefix grouping, and the cluster router's
    /// consistent node placement, so "same family" means the same thing at
    /// every layer.
    ///
    /// The seed is the FNV-1a hash of the family's text, derived from the
    /// same structured identities the prefix cache keys on
    /// ([`crate::prompt::PromptEntry::cache_identity`]):
    ///
    /// - the first `REF[CREATE, from_view]` leaf →
    ///   `view:{name}#{param_hash:x}`,
    /// - else the first GEN over an inline view or an identity-carrying
    ///   lowered template → that identity,
    /// - else the first `REF[CREATE, set_text]` → `text:{fnv1a(text):x}`
    ///   (identical base texts share a prefix even without a view),
    /// - else `None`: nothing about the plan predicts prefix reuse.
    #[must_use]
    pub fn affinity_seed(&self) -> Option<u64> {
        self.affinity_seed
    }

    /// The one-line rendering of slot `pc` in the paper's notation — the
    /// leaf operator's describe line, `CHECK[..] else -> NNNN` or
    /// `JUMP -> NNNN` — shared by listings and diagnostics. `None` past
    /// the end.
    #[must_use]
    pub fn describe(&self, pc: usize) -> Option<String> {
        Some(match *self.code().get(pc)? {
            VmOp::Leaf { leaf } => self.leaf(leaf).op.describe(),
            VmOp::Check { check, on_false } => {
                format!("{} else -> {on_false:04}", self.check(check).label)
            }
            VmOp::Jump { target } => format!("JUMP -> {target:04}"),
        })
    }
}

/// The seed [`Program::affinity_seed`] documents, from the leaves in slot
/// order. The text is folded into the hash as it is formatted, so deriving
/// the seed allocates nothing.
fn affinity_seed(leaves: &[LeafSpec]) -> Option<u64> {
    use std::fmt::Write as _;
    let mut seed = crate::identity::Fnv1aSink::new();
    for spec in leaves {
        let _ = match &spec.op {
            Op::Ref {
                action: RefAction::Create,
                refiner,
                args,
                ..
            } if refiner == "from_view" => {
                let name = args.path("view")?.as_str()?;
                let params = match args.path("args") {
                    Some(Value::Map(m)) => crate::view::param_hash(m),
                    _ => crate::view::param_hash(&std::collections::BTreeMap::new()),
                };
                write!(seed, "view:{name}#{params:x}")
            }
            Op::Ref {
                action: RefAction::Create,
                refiner,
                args,
                ..
            } if refiner == "set_text" => {
                let text = args.as_str()?;
                write!(seed, "text:{:x}", spear_kv::shard::fnv1a(text.as_bytes()))
            }
            Op::Gen { prompt, .. } => match prompt {
                PromptRef::View { name, args } => {
                    write!(seed, "view:{name}#{:x}", crate::view::param_hash(args))
                }
                PromptRef::Lowered {
                    identity: Some(id), ..
                } => seed.write_str(id),
                PromptRef::Lowered { identity: None, .. } | PromptRef::Inline(_) => {
                    return None;
                }
                // A key reference resolves to whatever an earlier REF
                // created; keep scanning (the creating REF precedes it).
                PromptRef::Key(_) => continue,
            },
            _ => continue,
        };
        return Some(seed.0);
    }
    None
}

/// The translation from a second plan form that no longer exists: returns
/// a clone of `plan`, which [`crate::plan::lower`] already emitted as a
/// gated program.
///
/// # Errors
///
/// Never.
#[doc(hidden)]
pub fn compile(plan: &Program) -> Result<Program> {
    Ok(plan.clone())
}

/// Replay the tree walk's error unwind: the failing operator's own
/// describe line (when it ran), then one event per CHECK enclosing
/// `within`, innermost first — all at the current step. The message is
/// formatted once and every event shares it; a check's event shares its
/// label, so each frame allocates nothing.
fn unwind(
    state: &mut ExecState,
    program: &Program,
    own: Option<Arc<str>>,
    within: Within,
    e: &SpearError,
) {
    let message = shared(format_args!("{e}"));
    let frames = program
        .enclosing(within)
        .map(|check| Arc::clone(&check.label));
    for line in own.into_iter().chain(frames) {
        state.trace.record(
            state.step,
            TraceKind::Error,
            line,
            Detail::Message(Arc::clone(&message)),
        );
    }
}

/// Gate and execute one leaf, unwinding on failure.
#[inline]
fn step_leaf(
    rt: &Runtime,
    program: &Program,
    spec: &LeafSpec,
    state: &mut ExecState,
    budget: &mut u64,
    limits: &CallLimits,
) -> Result<()> {
    if let Err(e) = exec::gate(rt, state, budget, limits) {
        unwind(state, program, None, spec.within, &e);
        return Err(e);
    }
    match exec::exec_leaf(rt, &spec.op, program.trigger_source(spec.within), state) {
        Ok(()) => Ok(()),
        Err(e) => {
            let own = spec.op.describe().into();
            unwind(state, program, Some(own), spec.within, &e);
            Err(e)
        }
    }
}

/// Gate and evaluate one check, unwinding on failure.
#[inline]
fn step_check(
    rt: &Runtime,
    program: &Program,
    spec: &CheckSpec,
    state: &mut ExecState,
    budget: &mut u64,
    limits: &CallLimits,
) -> Result<bool> {
    if let Err(e) = exec::gate(rt, state, budget, limits) {
        unwind(state, program, None, spec.within, &e);
        return Err(e);
    }
    match exec::check::eval_labeled(&spec.cond, &spec.label, state) {
        Ok(holds) => Ok(holds),
        Err(e) => {
            unwind(
                state,
                program,
                Some(Arc::clone(&spec.label)),
                spec.within,
                &e,
            );
            Err(e)
        }
    }
}

/// The compiled spine: step `program` with a program counter.
pub(crate) fn run_program(
    rt: &Runtime,
    program: &Program,
    state: &mut ExecState,
    budget: &mut u64,
    limits: &CallLimits,
) -> Result<()> {
    let code = program.code();
    let mut pc = 0usize;
    while let Some(&instr) = code.get(pc) {
        match instr {
            VmOp::Jump { target } => pc = target as usize,
            VmOp::Leaf { leaf } => {
                step_leaf(rt, program, program.leaf(leaf), state, budget, limits)?;
                pc += 1;
            }
            VmOp::Check { check, on_false } => {
                pc = if step_check(rt, program, program.check(check), state, budget, limits)? {
                    pc + 1
                } else {
                    on_false as usize
                };
            }
        }
    }
    Ok(())
}

/// The bytecode optimizer this crate once ran on admission: it returns
/// `None` ("nothing to rewrite") for every program, and every program runs
/// as `lower` emitted it.
#[doc(hidden)]
#[must_use]
pub fn optimize(_program: &Program) -> Option<Program> {
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;
    use crate::pipeline::Pipeline;
    use crate::plan::lower;

    fn compiled(p: &Pipeline) -> Program {
        lower(p).unwrap()
    }

    #[test]
    fn straight_line_plans_compile_to_leaves() {
        let p = Pipeline::builder("flat")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let prog = compiled(&p);
        assert_eq!(prog.name(), "flat");
        assert_eq!(prog.source_size(), 2);
        assert_eq!(prog.code().len(), 2);
        assert!(prog.code().iter().all(|op| matches!(op, VmOp::Leaf { .. })));
        assert_eq!(prog.leaves().len(), 2);
    }

    #[test]
    fn every_slot_compiles_to_its_own_pc() {
        // create, gen, check(on_false=5), expand, jump(6), gen — every
        // opcode kind, a GEN right before a CHECK, and a branch exit.
        let p = Pipeline::builder("slots")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("warm", "p")
            .check_else(
                Cond::low_confidence(0.9),
                |b| b.expand("p", "retry hint"),
                |b| b.gen("final", "p"),
            )
            .build();
        let prog = compiled(&p);
        assert_eq!(
            prog.code(),
            [
                VmOp::Leaf { leaf: 0 },
                VmOp::Leaf { leaf: 1 },
                VmOp::Check {
                    check: 0,
                    on_false: 5
                },
                VmOp::Leaf { leaf: 2 },
                VmOp::Jump { target: 6 },
                VmOp::Leaf { leaf: 3 },
            ]
        );
        let described: Vec<String> = (0..prog.code().len())
            .map(|pc| prog.describe(pc).unwrap())
            .collect();
        assert_eq!(described[2], "CHECK[M[\"confidence\"] < 0.9] else -> 0005");
        assert_eq!(described[4], "JUMP -> 0006");
        assert_eq!(described[5], "GEN[\"final\"] using P[\"p\"]");
        assert_eq!(prog.describe(6), None, "past the end");
    }

    #[test]
    fn the_plan_fields_read_through_to_the_program() {
        let p = Pipeline::builder("fields")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let prog = compiled(&p);
        assert_eq!(prog.name, prog.name());
        assert_eq!(prog.ops, prog.code());
        assert_eq!(compile(&prog).unwrap().fingerprint(), prog.fingerprint());
    }

    #[test]
    fn a_slot_names_its_innermost_branch_and_the_chain_runs_innermost_first() {
        // Three CHECKs deep, the innermost in the else-branch of the middle.
        let p = Pipeline::builder("chain")
            .check(Cond::Always, |b| {
                b.check_else(
                    Cond::Never,
                    |b| b.expand("p", "then"),
                    |b| b.check(Cond::low_confidence(0.5), |b| b.expand("p", "deep")),
                )
            })
            .build();
        let prog = compiled(&p);
        let deep = prog.leaves().last().unwrap();
        let labels: Vec<&str> = prog
            .enclosing(deep.within())
            .map(CheckSpec::label)
            .collect();
        assert_eq!(
            labels,
            [
                "CHECK[M[\"confidence\"] < 0.5]",
                "CHECK[false]",
                "CHECK[true]"
            ]
        );
        assert_eq!(prog.trigger(deep.within()), Some("M[\"confidence\"] < 0.5"));
        let VmOp::Check { check, .. } = prog.code()[4] else {
            panic!("the innermost check at 4: {:?}", prog.code())
        };
        assert_eq!(
            prog.checks()[check as usize].within(),
            Some((1, Branch::Else))
        );
        assert_eq!(prog.trigger(Some((1, Branch::Else))), Some("!(false)"));
        assert_eq!(prog.trigger(Some((1, Branch::Then))), Some("false"));
        assert_eq!(
            prog.trigger(Some((0, Branch::Else))),
            None,
            "no else branch"
        );
        assert_eq!(prog.trigger(None), None);
    }

    #[test]
    fn a_three_deep_chain_unwinds_and_triggers_as_the_tree_walk_does() {
        // Three CHECKs that all hold, the innermost in an else-branch: a
        // REF records the innermost branch's text, then a GEN over an
        // undefined key unwinds through all three.
        let p = Pipeline::builder("unwind")
            .create_text("p", "base", RefinementMode::Manual)
            .check(Cond::Always, |b| {
                b.check_else(
                    Cond::InContext("x".into()),
                    |b| b.expand("p", "unused"),
                    |b| {
                        b.check(Cond::NotInContext("y".into()), |b| {
                            b.expand("p", "deep").gen("a", "missing")
                        })
                    },
                )
            })
            .build();
        let rt = Runtime::builder()
            .llm(std::sync::Arc::new(crate::llm::EchoLlm::default()))
            .build();
        let mut state = ExecState::new();
        assert!(rt.execute_program(&compiled(&p), &mut state).is_err());
        let errors: Vec<&str> = state
            .trace
            .events()
            .iter()
            .filter(|event| event.kind == TraceKind::Error)
            .map(|event| &*event.op)
            .take(4)
            .collect();
        assert_eq!(
            errors,
            [
                "GEN[\"a\"] using P[\"missing\"]",
                "CHECK[\"y\" not in C]",
                "CHECK[\"x\" in C]",
                "CHECK[true]"
            ]
        );
        let entry = state.prompts.get("p").unwrap();
        let trigger = entry.ref_log.last().unwrap().trigger.as_deref();
        assert_eq!(trigger, Some("\"y\" not in C"));

        let mut tree = ExecState::new();
        assert!(rt.execute_tree(&p, &mut tree).is_err());
        assert_eq!(tree.trace, state.trace, "as the tree walk runs");
        assert_eq!(tree.prompts.get("p").unwrap(), entry);
    }

    #[test]
    fn gen_templates_pre_parse() {
        let p = Pipeline::builder("tpl")
            .gen_with(
                "a",
                PromptRef::Lowered {
                    text: "prefix {{ctx:q}}".into(),
                    identity: Some("view:x@1#0/v1".into()),
                },
                crate::llm::GenOptions::default(),
            )
            .build();
        let prog = compiled(&p);
        assert!(prog.leaves()[0].has_template());
    }
}
