//! The bytecode VM: the one plan form and the one production spine.
//!
//! [`crate::plan::lower`] emits a [`Program`] straight from the operator
//! tree; there is no second plan form and no translation step. A program
//! pays once, at lowering, what a step would otherwise pay every time:
//!
//! - every slot is one compact, `Copy` [`VmOp`] of `u32` indices into a
//!   [`ConstPool`]: the program counter *is* the slot, and every branch
//!   target is a slot index;
//! - the pool interns every string the spine can ever emit for the plan —
//!   operator describe lines, `CHECK[...]` labels, unwind frames, REF
//!   triggers — plus each GEN's pre-parsed prompt template, so the hot loop
//!   never formats or parses anything that is a pure function of the plan;
//! - the program's identity — its [`Program::fingerprint`] and
//!   [`Program::affinity_seed`] — is derived once, when it is emitted;
//! - the run loop is a tight match over `&[VmOp]`: no trait objects, no
//!   per-step allocation beyond the trace events themselves.
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
use crate::template::ParsedTemplate;
use crate::trace::TraceKind;
use crate::value::Value;

/// One instruction: `u32` indices into the program's [`ConstPool`].
/// `Copy`, two or three words, no heap payload — the VM loop fetches
/// instructions by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmOp {
    /// Execute pool leaf `leaf`; fall through.
    Leaf {
        /// Index into [`ConstPool::leaves`].
        leaf: u32,
    },
    /// Evaluate pool check `check`; fall through when it holds, jump to
    /// `on_false` otherwise.
    Check {
        /// Index into [`ConstPool::checks`].
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

/// A data operator's slot: the operator plus pool indices for every string
/// the spine can emit on its behalf, and the pre-parsed template of an
/// inline/lowered GEN prompt.
#[derive(Debug, Clone)]
pub struct LeafSpec {
    pub(crate) op: Op,
    pub(crate) describe: u32,
    pub(crate) trigger: Option<u32>,
    pub(crate) frames: Box<[u32]>,
    pub(crate) template: Option<Arc<ParsedTemplate>>,
}

impl LeafSpec {
    /// The operator this leaf executes.
    #[must_use]
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// Pool index of the operator's `describe()` string (error unwinds).
    #[must_use]
    pub fn describe_id(&self) -> u32 {
        self.describe
    }

    /// Pool index of the innermost enclosing CHECK branch's condition text
    /// (the REF trigger), when inside a branch.
    #[must_use]
    pub fn trigger_id(&self) -> Option<u32> {
        self.trigger
    }

    /// Pool indices of enclosing CHECK describe strings, outermost first.
    #[must_use]
    pub fn frame_ids(&self) -> &[u32] {
        &self.frames
    }

    /// Whether the leaf carries a pre-parsed prompt template (GEN over an
    /// inline or lowered prompt whose template parsed cleanly at lowering).
    #[must_use]
    pub fn has_template(&self) -> bool {
        self.template.is_some()
    }
}

/// A condition's slot: the condition plus its pooled `CHECK[{cond}]` label
/// and unwind frames.
#[derive(Debug, Clone)]
pub struct CheckSpec {
    pub(crate) cond: Cond,
    pub(crate) label: u32,
    pub(crate) frames: Box<[u32]>,
}

impl CheckSpec {
    /// The condition over (C, M).
    #[must_use]
    pub fn cond(&self) -> &Cond {
        &self.cond
    }

    /// Pool index of the `CHECK[{cond}]` label.
    #[must_use]
    pub fn label_id(&self) -> u32 {
        self.label
    }

    /// Pool indices of enclosing CHECK describe strings, outermost first.
    #[must_use]
    pub fn frame_ids(&self) -> &[u32] {
        &self.frames
    }
}

/// The constants of one program: interned strings (describe lines, check
/// labels, frames, triggers), leaf specs, and check specs.
#[derive(Debug, Clone, Default)]
pub struct ConstPool {
    pub(crate) strings: Vec<Arc<str>>,
    pub(crate) leaves: Vec<LeafSpec>,
    pub(crate) checks: Vec<CheckSpec>,
}

impl ConstPool {
    /// The interned string with pool index `id`.
    ///
    /// # Panics
    ///
    /// Never for indices obtained from this pool's own specs.
    #[must_use]
    pub fn str(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// All interned strings, in pool order.
    #[must_use]
    pub fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }

    /// All leaf specs, in pool order.
    #[must_use]
    pub fn leaves(&self) -> &[LeafSpec] {
        &self.leaves
    }

    /// All check specs, in pool order.
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
}

/// A lowered plan: bytecode over a constant pool, the source pipeline's
/// trace identity (name and size), and the plan's structural identity.
///
/// Only [`crate::plan::lower`] releases programs, each through the
/// structural gate, and nothing outside this crate can build or edit one.
#[derive(Debug, Clone)]
pub struct Program {
    fields: PlanFields,
    source_size: u64,
    pool: ConstPool,
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
        pool: ConstPool,
    ) -> Program {
        let mut program = Program {
            fields: PlanFields { name, ops: code },
            source_size,
            pool,
            fingerprint: 0,
            affinity_seed: None,
        };
        program.fingerprint = crate::identity::stable_hash(&program);
        program.affinity_seed = affinity_seed(&program.pool);
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

    /// The constant pool.
    #[must_use]
    pub fn pool(&self) -> &ConstPool {
        &self.pool
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
    /// leaf's pooled describe line, `CHECK[..] else -> NNNN` or
    /// `JUMP -> NNNN` — shared by listings and diagnostics. `None` past
    /// the end.
    #[must_use]
    pub fn describe(&self, pc: usize) -> Option<String> {
        let pool = &self.pool;
        Some(match *self.code().get(pc)? {
            VmOp::Leaf { leaf } => pool.str(pool.leaf(leaf).describe).to_owned(),
            VmOp::Check { check, on_false } => {
                format!(
                    "{} else -> {on_false:04}",
                    pool.str(pool.check(check).label)
                )
            }
            VmOp::Jump { target } => format!("JUMP -> {target:04}"),
        })
    }
}

/// The seed [`Program::affinity_seed`] documents, from the leaves in slot
/// order (the pool holds one leaf spec per leaf slot, in slot order). The
/// text is folded into the hash as it is formatted, so deriving the seed
/// allocates nothing.
fn affinity_seed(pool: &ConstPool) -> Option<u64> {
    use std::fmt::Write as _;
    let mut seed = crate::identity::Fnv1aSink::new();
    for spec in &pool.leaves {
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

/// Replay the tree walk's error unwind from pooled strings: the failing
/// operator's own describe (when it ran), then one event per enclosing
/// CHECK, innermost first — all at the current step.
fn unwind(
    state: &mut ExecState,
    own: Option<&str>,
    frames: &[u32],
    pool: &ConstPool,
    e: &SpearError,
) {
    let message = e.to_string();
    if let Some(describe) = own {
        state.trace.record(
            state.step,
            TraceKind::Error,
            describe.to_owned(),
            Value::from(message.clone()),
        );
    }
    for &frame in frames.iter().rev() {
        state.trace.record(
            state.step,
            TraceKind::Error,
            pool.str(frame).to_owned(),
            Value::from(message.clone()),
        );
    }
}

/// Gate and execute one leaf, unwinding on failure.
#[inline]
fn step_leaf(
    rt: &Runtime,
    spec: &LeafSpec,
    pool: &ConstPool,
    state: &mut ExecState,
    budget: &mut u64,
    limits: &CallLimits,
) -> Result<()> {
    if let Err(e) = exec::gate(rt, state, budget, limits) {
        unwind(state, None, &spec.frames, pool, &e);
        return Err(e);
    }
    let trigger = spec.trigger.map(|id| pool.str(id));
    match exec::exec_leaf(rt, &spec.op, trigger, spec.template.as_ref(), state) {
        Ok(()) => Ok(()),
        Err(e) => {
            unwind(state, Some(pool.str(spec.describe)), &spec.frames, pool, &e);
            Err(e)
        }
    }
}

/// Gate and evaluate one check, unwinding on failure.
#[inline]
fn step_check(
    rt: &Runtime,
    spec: &CheckSpec,
    pool: &ConstPool,
    state: &mut ExecState,
    budget: &mut u64,
    limits: &CallLimits,
) -> Result<bool> {
    if let Err(e) = exec::gate(rt, state, budget, limits) {
        unwind(state, None, &spec.frames, pool, &e);
        return Err(e);
    }
    match exec::check::eval_labeled(&spec.cond, pool.str(spec.label), state) {
        Ok(holds) => Ok(holds),
        Err(e) => {
            unwind(state, Some(pool.str(spec.label)), &spec.frames, pool, &e);
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
    let pool = &program.pool;
    let mut pc = 0usize;
    while let Some(&instr) = code.get(pc) {
        match instr {
            VmOp::Jump { target } => pc = target as usize,
            VmOp::Leaf { leaf } => {
                step_leaf(rt, pool.leaf(leaf), pool, state, budget, limits)?;
                pc += 1;
            }
            VmOp::Check { check, on_false } => {
                pc = if step_check(rt, pool.check(check), pool, state, budget, limits)? {
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
        assert_eq!(prog.pool().leaves().len(), 2);
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
    fn pool_strings_are_deduplicated() {
        let p = Pipeline::builder("dedup")
            .check(Cond::Always, |b| {
                b.expand("p", "a").expand("p", "b").expand("p", "c")
            })
            .build();
        let prog = compiled(&p);
        let check_frames: Vec<&str> = prog
            .pool()
            .leaves()
            .iter()
            .flat_map(|l| l.frame_ids())
            .map(|&id| prog.pool().str(id))
            .collect();
        assert_eq!(check_frames, vec!["CHECK[true]"; 3]);
        let distinct: std::collections::HashSet<&str> =
            prog.pool().strings().iter().map(AsRef::as_ref).collect();
        assert_eq!(
            distinct.len(),
            prog.pool().strings().len(),
            "interned strings are unique"
        );
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
        assert!(prog.pool().leaves()[0].has_template());
    }
}
