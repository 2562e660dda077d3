//! The bytecode VM: compiled execution of lowered plans, the one
//! production spine.
//!
//! A [`LoweredPlan`] carries what a step needs in its most general form:
//! conditions that would be `Display`-formatted into a label on every
//! trace event, heap-allocated frame vectors on every instruction, and the
//! full [`LoweredOp`] representation to match on. [`compile`] pays those
//! costs **once per plan** instead of once per step:
//!
//! - every slot becomes one compact, `Copy` [`VmOp`] of `u32` indices into
//!   a [`ConstPool`], at the same index: the program counter *is* the
//!   slot, and every branch target is its source target;
//! - the pool interns every string the spine can ever emit for the plan —
//!   operator describe lines, `CHECK[...]` labels, unwind frames, REF
//!   triggers — plus each GEN's pre-parsed prompt template, so the hot loop
//!   never formats or parses anything that is a pure function of the plan;
//! - the run loop is a tight match over `&[VmOp]`: no trait objects, no
//!   per-step allocation beyond the trace events themselves.
//!
//! ## Verification before compilation
//!
//! [`compile`] is fail-closed and the only way into the VM: it runs
//! [`crate::analysis::verify_structural`] and refuses to emit code for a
//! malformed plan — a target out of range, a leaked lowering placeholder,
//! a backward jump, or a CHECK in a leaf slot. The VM therefore *assumes*
//! those invariants and skips per-step validation.
//!
//! ## Equivalence
//!
//! For every plan, the VM's statuses, traces, digests, and usage are
//! byte-identical to the reference tree walk
//! ([`crate::runtime::Runtime::execute_tree`]), proven by
//! `tests/trace_equivalence.rs` at 1/4/8 workers including error unwinds
//! and cancellation, and per compilation by translation validation
//! ([`crate::analysis::validate_compile`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;

use crate::condition::Cond;
use crate::error::{Result, SpearError};
use crate::exec::{self, CallLimits};
use crate::ops::{Op, PromptRef};
use crate::plan::{LoweredOp, LoweredPlan};
use crate::runtime::{ExecState, Runtime};
use crate::template::{self, ParsedTemplate};
use crate::trace::TraceKind;
use crate::value::Value;

/// One compiled instruction: `u32` indices into the program's
/// [`ConstPool`]. `Copy`, two or three words, no heap payload — the VM loop
/// fetches instructions by value.
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

/// A data operator's compiled form: the operator plus pool indices for
/// every string the spine can emit on its behalf, and the pre-parsed
/// template of an inline/lowered GEN prompt.
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
    /// inline or lowered prompt whose template parsed cleanly at compile
    /// time).
    #[must_use]
    pub fn has_template(&self) -> bool {
        self.template.is_some()
    }
}

/// A condition's compiled form: the condition plus its pooled
/// `CHECK[{cond}]` label and unwind frames.
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

/// The compiled constants of one program: interned strings (describe
/// lines, check labels, frames, triggers), leaf specs, and check specs.
#[derive(Debug, Clone, Default)]
pub struct ConstPool {
    strings: Vec<Arc<str>>,
    leaves: Vec<LeafSpec>,
    checks: Vec<CheckSpec>,
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

    fn leaf(&self, id: u32) -> &LeafSpec {
        &self.leaves[id as usize]
    }

    fn check(&self, id: u32) -> &CheckSpec {
        &self.checks[id as usize]
    }
}

/// A compiled plan: bytecode over a constant pool, plus the source plan's
/// trace identity (name and size).
#[derive(Debug)]
pub struct Program {
    name: String,
    source_size: u64,
    code: Vec<VmOp>,
    pool: ConstPool,
}

impl Program {
    /// Name of the source pipeline (used in traces).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `Pipeline::size()` of the source plan.
    #[must_use]
    pub fn source_size(&self) -> u64 {
        self.source_size
    }

    /// The instruction stream.
    #[must_use]
    pub fn code(&self) -> &[VmOp] {
        &self.code
    }

    /// The constant pool.
    #[must_use]
    pub fn pool(&self) -> &ConstPool {
        &self.pool
    }
}

/// Compile a lowered plan into a [`Program`], fail-closed: the plan is
/// structurally verified first and a malformed plan is rejected before any
/// code is emitted, which is what entitles the VM to skip per-step target
/// validation.
///
/// # Errors
///
/// Returns [`SpearError::InvalidPlan`] carrying the structural diagnostics
/// when verification fails.
pub fn compile(plan: &LoweredPlan) -> Result<Program> {
    let diagnostics = crate::analysis::verify_structural(plan);
    if diagnostics
        .iter()
        .any(crate::analysis::Diagnostic::is_error)
    {
        return Err(SpearError::InvalidPlan {
            plan: plan.name.clone(),
            diagnostics,
        });
    }
    compile_assuming_verified(plan)
}

/// Compile without re-verifying, for the verifier's own bytecode pass,
/// which runs on plans whose structure it has already checked.
/// Out-of-range targets are clamped to "halt", so even an unverified plan
/// compiles to code that cannot index past its end.
///
/// # Errors
///
/// Returns [`SpearError::Internal`] only for plans too large to index with
/// `u32` (over four billion instructions).
pub(crate) fn compile_assuming_verified(plan: &LoweredPlan) -> Result<Program> {
    let n = plan.ops.len();
    if u32::try_from(n).is_err() {
        return Err(SpearError::Internal(format!(
            "plan {:?} too large to compile: {n} instructions",
            plan.name
        )));
    }

    let mut pool = PoolBuilder::default();
    let code = plan
        .ops
        .iter()
        .map(|op| match op {
            LoweredOp::Leaf {
                op,
                trigger,
                frames,
            } => VmOp::Leaf {
                leaf: pool.add_leaf(op, trigger.as_deref(), frames),
            },
            LoweredOp::Check {
                cond,
                on_false,
                frames,
            } => VmOp::Check {
                check: pool.add_check(cond, frames),
                on_false: clamp(*on_false, n),
            },
            LoweredOp::Jump { target } => VmOp::Jump {
                target: clamp(*target, n),
            },
        })
        .collect();

    Ok(Program {
        name: plan.name.clone(),
        source_size: plan.source_size,
        code,
        pool: pool.finish(),
    })
}

/// String interner + spec collector used during compilation.
#[derive(Default)]
struct PoolBuilder {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
    leaves: Vec<LeafSpec>,
    checks: Vec<CheckSpec>,
}

impl PoolBuilder {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        let shared: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&shared));
        self.index.insert(shared, id);
        id
    }

    fn add_leaf(&mut self, op: &Op, trigger: Option<&str>, frames: &[String]) -> u32 {
        // Pre-parse inline/lowered GEN templates; a template that fails to
        // parse compiles without one so the runtime path reproduces the
        // exact MalformedTemplate error (and its trace) at execution time.
        let template = match op {
            Op::Gen {
                prompt: PromptRef::Inline(text) | PromptRef::Lowered { text, .. },
                ..
            } => template::parse(text).ok(),
            _ => None,
        };
        let spec = LeafSpec {
            describe: self.intern(&op.describe()),
            trigger: trigger.map(|t| self.intern(t)),
            frames: frames.iter().map(|f| self.intern(f)).collect(),
            template,
            op: op.clone(),
        };
        self.leaves.push(spec);
        (self.leaves.len() - 1) as u32
    }

    fn add_check(&mut self, cond: &Cond, frames: &[String]) -> u32 {
        let spec = CheckSpec {
            label: self.intern(&format!("CHECK[{cond}]")),
            frames: frames.iter().map(|f| self.intern(f)).collect(),
            cond: cond.clone(),
        };
        self.checks.push(spec);
        (self.checks.len() - 1) as u32
    }

    fn finish(self) -> ConstPool {
        ConstPool {
            strings: self.strings,
            leaves: self.leaves,
            checks: self.checks,
        }
    }
}

/// Clamp a source target into `0..=n` ("n" = halt) so it fits the `u32`
/// field even for unverified plans carrying `usize::MAX` placeholders.
fn clamp(target: usize, n: usize) -> u32 {
    target.min(n) as u32
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
    let code = program.code.as_slice();
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

/// Resolve `pc` through chains of free `Jump`s to the first observable
/// instruction (or the exit, `code.len()`). `None` on a jump-only cycle.
fn resolve_jumps(code: &[VmOp], mut pc: usize) -> Option<usize> {
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

/// Optimize a compiled program — jump threading, statically-decided CHECK
/// else-edge redirection, and cond-refined unreachable-op elimination —
/// gated by translation validation
/// ([`crate::analysis::tv::validate_optimized`]).
///
/// Reachable CHECKs are always kept: they gate, consume budget, and emit
/// trace events exactly as in the original program, so optimization never
/// changes statuses, traces, digests, or usage. It only shortens jump
/// chains and drops code no execution can reach (branches dead under a
/// statically-decided condition). Returns `None`
/// when the program is already optimal, contains a jump-only cycle, or —
/// fail-closed — when the optimized candidate does not symbolically
/// bisimulate the original; callers then keep the original program.
#[must_use]
pub fn optimize(program: &Program) -> Option<Program> {
    let len = program.code.len();
    let mut code = program.code.clone();

    // Jump threading: every explicit target resolves through chains of
    // free Jumps straight to the first observable instruction.
    for op in &mut code {
        match op {
            VmOp::Check { on_false, .. } => {
                *on_false = resolve_jumps(&program.code, *on_false as usize)? as u32;
            }
            VmOp::Jump { target } => {
                *target = resolve_jumps(&program.code, *target as usize)? as u32;
            }
            VmOp::Leaf { .. } => {}
        }
    }

    // A statically-true CHECK can never take its else edge; pointing that
    // edge at the fall-through makes the dead branch unreachable without
    // changing behavior (the check itself still gates and traces). The
    // statically-false case needs no rewrite: the implicit fall-through is
    // never taken, and refined reachability below prunes the then-branch.
    for pc in 0..len {
        let decided = match code[pc] {
            VmOp::Check { check, .. } => {
                crate::analysis::absint::static_cond(program.pool.check(check).cond())
            }
            _ => None,
        };
        if decided == Some(true) {
            let fall = resolve_jumps(&code, pc + 1)? as u32;
            if let VmOp::Check { on_false, .. } = &mut code[pc] {
                *on_false = fall;
            }
        }
    }

    // Cond-refined reachability over the rewritten code, then compaction.
    // Every explicit target on a live op now lands on a live op (threading
    // skips Jumps; dead else edges were redirected to live fall-throughs),
    // so the remap below is total over the targets that remain.
    let live = crate::analysis::Cfg::of_code(&code, &program.pool);
    let mut remap = vec![0u32; len + 1];
    let mut kept: Vec<VmOp> = Vec::with_capacity(len);
    for (pc, &op) in code.iter().enumerate() {
        remap[pc] = kept.len() as u32;
        if live.is_reachable(pc) {
            kept.push(op);
        }
    }
    remap[len] = kept.len() as u32;
    for op in &mut kept {
        match op {
            VmOp::Check { on_false, .. } => {
                *on_false = remap[*on_false as usize];
            }
            VmOp::Jump { target } => {
                *target = remap[*target as usize];
            }
            VmOp::Leaf { .. } => {}
        }
    }

    if kept == program.code {
        return None;
    }
    let candidate = Program {
        name: program.name.clone(),
        source_size: program.source_size,
        code: kept,
        pool: program.pool.clone(),
    };
    crate::analysis::tv::validate_optimized(program, &candidate).ok()?;
    Some(candidate)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;
    use crate::pipeline::Pipeline;
    use crate::plan::lower;

    fn compiled(p: &Pipeline) -> Program {
        compile(&lower(p).unwrap()).unwrap()
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
        // source: create, gen, check(on_false=5), expand, jump(6), gen —
        // every opcode kind, a GEN right before a CHECK, and a branch exit.
        let p = Pipeline::builder("slots")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("warm", "p")
            .check_else(
                Cond::low_confidence(0.9),
                |b| b.expand("p", "retry hint"),
                |b| b.gen("final", "p"),
            )
            .build();
        let lowered = lower(&p).unwrap();
        let prog = compile(&lowered).unwrap();
        assert_eq!(prog.code().len(), lowered.ops.len());
        for (pc, (op, src)) in prog.code().iter().zip(&lowered.ops).enumerate() {
            match (op, src) {
                (VmOp::Leaf { .. }, LoweredOp::Leaf { .. }) => {}
                (VmOp::Check { on_false, .. }, LoweredOp::Check { on_false: src, .. })
                | (VmOp::Jump { target: on_false }, LoweredOp::Jump { target: src }) => {
                    assert_eq!(*on_false as usize, *src, "target of pc {pc}");
                }
                _ => panic!("pc {pc}: {op:?} does not translate {}", src.describe()),
            }
        }
        // An out-of-range target, reachable only through the verifier's
        // unchecked entry point, clamps to halt.
        let bad = LoweredPlan {
            name: "bad".into(),
            source_size: 1,
            ops: vec![LoweredOp::Check {
                cond: Cond::Always,
                on_false: usize::MAX,
                frames: Vec::new(),
            }],
        };
        let prog = compile_assuming_verified(&bad).unwrap();
        assert_eq!(
            prog.code(),
            &[VmOp::Check {
                check: 0,
                on_false: 1
            }]
        );
    }

    #[test]
    fn compile_is_fail_closed() {
        let bad = LoweredPlan {
            name: "bad".into(),
            source_size: 1,
            ops: vec![LoweredOp::Jump { target: usize::MAX }],
        };
        let err = compile(&bad).unwrap_err();
        assert!(matches!(err, SpearError::InvalidPlan { .. }));
        // The verifier-internal entry point clamps instead: the program
        // halts.
        let prog = compile_assuming_verified(&bad).unwrap();
        assert_eq!(prog.code(), &[VmOp::Jump { target: 1 }]);
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

    #[test]
    fn optimize_prunes_a_statically_dead_else_branch() {
        let p = Pipeline::builder("opt-else")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(Cond::Always, |b| b.gen("a", "p"), |b| b.gen("b", "p"))
            .build();
        let prog = compiled(&p);
        let opt = optimize(&prog).expect("dead else branch optimizes");
        assert!(
            opt.code().len() < prog.code().len(),
            "else branch removed: {:?} -> {:?}",
            prog.code(),
            opt.code()
        );
        // The CHECK itself survives — it still gates, budgets, and traces.
        assert!(opt.code().iter().any(|op| matches!(op, VmOp::Check { .. })));
        // And the optimized form bisimulates the original.
        assert!(crate::analysis::tv::validate_optimized(&prog, &opt).is_ok());
    }

    #[test]
    fn optimize_prunes_a_never_taken_then_branch() {
        let p = Pipeline::builder("opt-then")
            .create_text("p", "base", RefinementMode::Manual)
            .check(Cond::Never, |b| b.expand("p", "dead").expand("p", "weight"))
            .gen("a", "p")
            .build();
        let prog = compiled(&p);
        let opt = optimize(&prog).expect("dead then branch optimizes");
        assert!(opt.code().len() < prog.code().len());
        assert!(crate::analysis::tv::validate_optimized(&prog, &opt).is_ok());
    }

    #[test]
    fn optimize_returns_none_when_nothing_improves() {
        let p = Pipeline::builder("already-tight")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("warm", "p")
            .check(Cond::low_confidence(0.9), |b| b.expand("p", "retry"))
            .gen("final", "p")
            .build();
        assert!(optimize(&compiled(&p)).is_none());
    }

    #[test]
    fn optimize_bails_on_jump_cycles() {
        let cyclic = Program {
            name: "cycle".into(),
            source_size: 1,
            code: vec![VmOp::Jump { target: 0 }],
            pool: ConstPool::default(),
        };
        assert!(optimize(&cyclic).is_none());
    }
}
