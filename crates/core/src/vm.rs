//! The bytecode VM: compiled execution of lowered plans, the one
//! production spine.
//!
//! A [`LoweredPlan`] carries what a step needs in its most general form:
//! conditions that would be `Display`-formatted into a label on every
//! trace event, heap-allocated frame vectors on every instruction, and the
//! full [`LoweredOp`] representation to match on. [`compile`] pays those
//! costs **once per plan** instead of once per step:
//!
//! - every instruction becomes a compact, `Copy` [`VmOp`] of `u32` indices
//!   into a [`ConstPool`];
//! - the pool interns every string the spine can ever emit for the plan —
//!   operator describe lines, `CHECK[...]` labels, unwind frames, REF
//!   triggers — plus each GEN's pre-parsed prompt template, so the hot loop
//!   never formats or parses anything that is a pure function of the plan;
//! - hot instruction pairs fuse into superinstructions (GEN+CHECK — the
//!   confidence-retry idiom, DELEGATE+Jump — agent calls closing a branch,
//!   RET+MERGE — retrieval feeding reconciliation), eliminating one fetch
//!   per pair without changing gating, budgets, or trace order;
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
//! ([`crate::runtime::Runtime::execute_tree`]) — fused pairs still gate,
//! count budget, and trace as two steps — proven by
//! `tests/trace_equivalence.rs` at 1/4/8 workers including error unwinds
//! and cancellation, and per compilation by translation validation
//! ([`crate::analysis::validate_compile`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;

use crate::condition::Cond;
use crate::error::{Result, SpearError};
use crate::exec::{self, CallLimits};
use crate::history::RefAction;
use crate::ops::{Op, PromptRef};
use crate::plan::{LoweredOp, LoweredPlan};
use crate::runtime::{ExecState, Runtime};
use crate::template::{self, ParsedTemplate};
use crate::trace::TraceKind;
use crate::value::Value;
use crate::view::ViewCatalog;

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
    /// Superinstruction: a GEN leaf immediately followed by a CHECK — the
    /// confidence-retry idiom. Semantics are exactly the two instructions
    /// in sequence (two gates, two budget units, two trace events).
    GenCheck {
        /// The GEN leaf.
        leaf: u32,
        /// The fused CHECK.
        check: u32,
        /// Jump target when the condition is false.
        on_false: u32,
    },
    /// Superinstruction: a DELEGATE leaf immediately followed by a jump
    /// (an agent call closing a then-branch).
    DelegateJump {
        /// The DELEGATE leaf.
        leaf: u32,
        /// Jump target after the delegate completes.
        target: u32,
    },
    /// Superinstruction: a RET leaf immediately followed by a MERGE leaf
    /// (retrieval feeding reconciliation).
    RetMerge {
        /// The RET leaf.
        first: u32,
        /// The MERGE leaf.
        second: u32,
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
/// trace identity (name and size) and, when specialized for a prompt
/// family, the family's constant-folded literal prefix.
#[derive(Debug)]
pub struct Program {
    name: String,
    source_size: u64,
    code: Vec<VmOp>,
    pool: ConstPool,
    prefix: Option<Arc<str>>,
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

    /// The family-fixed literal prompt prefix this program was specialized
    /// for, when per-affinity specialization folded one in.
    #[must_use]
    pub fn prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    /// Record the family-fixed literal prefix the program was specialized
    /// for (set by per-affinity caches after pre-resolving the prefix's
    /// token chain; purely descriptive — execution semantics are
    /// unchanged).
    pub fn set_prefix(&mut self, prefix: Arc<str>) {
        self.prefix = Some(prefix);
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

    // Branch-target map over source indices: the second instruction of a
    // fused pair must not be reachable by a jump, or fusing would skip the
    // first half for jumps landing on the second.
    let mut is_target = vec![false; n + 1];
    for op in &plan.ops {
        match op {
            LoweredOp::Check { on_false, .. } => is_target[(*on_false).min(n)] = true,
            LoweredOp::Jump { target } => is_target[(*target).min(n)] = true,
            LoweredOp::Leaf { .. } => {}
        }
    }

    let mut pool = PoolBuilder::default();
    // Emit with *source* targets; `new_index` maps them to code indices in
    // the patch pass below.
    let mut code: Vec<VmOp> = Vec::with_capacity(n);
    let mut new_index = vec![0u32; n + 1];
    let mut pc = 0usize;
    while pc < n {
        new_index[pc] = code.len() as u32;
        let fused = if pc + 1 < n && !is_target[pc + 1] {
            fuse(&plan.ops[pc], &plan.ops[pc + 1], n, &mut pool)
        } else {
            None
        };
        if let Some(op) = fused {
            new_index[pc + 1] = code.len() as u32;
            code.push(op);
            pc += 2;
        } else {
            code.push(single(&plan.ops[pc], n, &mut pool));
            pc += 1;
        }
    }
    new_index[n] = code.len() as u32;

    for op in &mut code {
        match op {
            VmOp::Check { on_false, .. } | VmOp::GenCheck { on_false, .. } => {
                *on_false = new_index[*on_false as usize];
            }
            VmOp::Jump { target } | VmOp::DelegateJump { target, .. } => {
                *target = new_index[*target as usize];
            }
            VmOp::Leaf { .. } | VmOp::RetMerge { .. } => {}
        }
    }

    Ok(Program {
        name: plan.name.clone(),
        source_size: plan.source_size,
        code,
        pool: pool.finish(),
        prefix: None,
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
            } => template::parse_shared(text).ok(),
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

/// Try to fuse the instruction pair at `(first, second)`.
fn fuse(first: &LoweredOp, second: &LoweredOp, n: usize, pool: &mut PoolBuilder) -> Option<VmOp> {
    match (first, second) {
        (
            LoweredOp::Leaf {
                op: op @ Op::Gen { .. },
                trigger,
                frames,
            },
            LoweredOp::Check {
                cond,
                on_false,
                frames: check_frames,
            },
        ) => Some(VmOp::GenCheck {
            leaf: pool.add_leaf(op, trigger.as_deref(), frames),
            check: pool.add_check(cond, check_frames),
            on_false: clamp(*on_false, n),
        }),
        (
            LoweredOp::Leaf {
                op: op @ Op::Delegate { .. },
                trigger,
                frames,
            },
            LoweredOp::Jump { target },
        ) => Some(VmOp::DelegateJump {
            leaf: pool.add_leaf(op, trigger.as_deref(), frames),
            target: clamp(*target, n),
        }),
        (
            LoweredOp::Leaf {
                op: ret @ Op::Ret { .. },
                trigger,
                frames,
            },
            LoweredOp::Leaf {
                op: merge @ Op::Merge { .. },
                trigger: merge_trigger,
                frames: merge_frames,
            },
        ) => Some(VmOp::RetMerge {
            first: pool.add_leaf(ret, trigger.as_deref(), frames),
            second: pool.add_leaf(merge, merge_trigger.as_deref(), merge_frames),
        }),
        _ => None,
    }
}

/// Compile one unfused instruction.
fn single(op: &LoweredOp, n: usize, pool: &mut PoolBuilder) -> VmOp {
    match op {
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
    }
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

/// The compiled spine: step `program` with a program counter. Fused
/// superinstructions execute their halves in source order — two gates, two
/// budget units, two trace events — so the trace is byte-identical to the
/// tree walk's.
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
            VmOp::GenCheck {
                leaf,
                check,
                on_false,
            } => {
                step_leaf(rt, pool.leaf(leaf), pool, state, budget, limits)?;
                pc = if step_check(rt, pool.check(check), pool, state, budget, limits)? {
                    pc + 1
                } else {
                    on_false as usize
                };
            }
            VmOp::DelegateJump { leaf, target } => {
                step_leaf(rt, pool.leaf(leaf), pool, state, budget, limits)?;
                pc = target as usize;
            }
            VmOp::RetMerge { first, second } => {
                step_leaf(rt, pool.leaf(first), pool, state, budget, limits)?;
                step_leaf(rt, pool.leaf(second), pool, state, budget, limits)?;
                pc += 1;
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
/// chains and drops code no execution can reach (fused refusal shadows,
/// branches dead under a statically-decided condition). Returns `None`
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
            VmOp::Check { on_false, .. } | VmOp::GenCheck { on_false, .. } => {
                *on_false = resolve_jumps(&program.code, *on_false as usize)? as u32;
            }
            VmOp::Jump { target } | VmOp::DelegateJump { target, .. } => {
                *target = resolve_jumps(&program.code, *target as usize)? as u32;
            }
            VmOp::Leaf { .. } | VmOp::RetMerge { .. } => {}
        }
    }

    // A statically-true CHECK can never take its else edge; pointing that
    // edge at the fall-through makes the dead branch unreachable without
    // changing behavior (the check itself still gates and traces). The
    // statically-false case needs no rewrite: the implicit fall-through is
    // never taken, and refined reachability below prunes the then-branch.
    for pc in 0..len {
        let decided = match code[pc] {
            VmOp::Check { check, .. } | VmOp::GenCheck { check, .. } => {
                crate::analysis::absint::static_cond(program.pool.check(check).cond())
            }
            _ => None,
        };
        if decided == Some(true) {
            let fall = resolve_jumps(&code, pc + 1)? as u32;
            if let VmOp::Check { on_false, .. } | VmOp::GenCheck { on_false, .. } = &mut code[pc] {
                *on_false = fall;
            }
        }
    }

    // Cond-refined reachability over the rewritten code, then compaction.
    // Every explicit target on a live op now lands on a live op (threading
    // skips Jumps; dead else edges were redirected to live fall-throughs),
    // so the remap below is total over the targets that remain.
    let live = crate::analysis::absint::reachable(&code, &program.pool);
    let mut remap = vec![0u32; len + 1];
    let mut kept: Vec<VmOp> = Vec::with_capacity(len);
    for (pc, &op) in code.iter().enumerate() {
        remap[pc] = kept.len() as u32;
        if live[pc] {
            kept.push(op);
        }
    }
    remap[len] = kept.len() as u32;
    for op in &mut kept {
        match op {
            VmOp::Check { on_false, .. } | VmOp::GenCheck { on_false, .. } => {
                *on_false = remap[*on_false as usize];
            }
            VmOp::Jump { target } | VmOp::DelegateJump { target, .. } => {
                *target = remap[*target as usize];
            }
            VmOp::Leaf { .. } | VmOp::RetMerge { .. } => {}
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
        prefix: program.prefix.clone(),
    };
    crate::analysis::tv::validate_optimized(program, &candidate).ok()?;
    Some(candidate)
}

/// The family-fixed template text a plan's prompt family renders — the
/// text whose leading literal is constant across every request of the
/// family — derived from the same instruction [`LoweredPlan::affinity_key`]
/// derives the family identity from. `None` when the plan only uses opaque
/// ad-hoc prompts (no affinity, nothing fixed to fold).
#[must_use]
pub fn family_template(plan: &LoweredPlan, views: &ViewCatalog) -> Option<String> {
    for instr in &plan.ops {
        let LoweredOp::Leaf { op, .. } = instr else {
            continue;
        };
        match op {
            Op::Ref {
                action: RefAction::Create,
                refiner,
                args,
                ..
            } if refiner == "from_view" => {
                let name = args.path("view")?.as_str()?;
                let params = match args.path("args") {
                    Some(Value::Map(m)) => m.clone(),
                    _ => std::collections::BTreeMap::new(),
                };
                return views
                    .instantiate(name, params)
                    .ok()
                    .map(|entry| entry.text.to_string());
            }
            Op::Ref {
                action: RefAction::Create,
                refiner,
                args,
                ..
            } if refiner == "set_text" => {
                return args.as_str().map(str::to_string);
            }
            Op::Gen { prompt, .. } => match prompt {
                PromptRef::View { name, args } => {
                    return views
                        .instantiate(name, args.clone())
                        .ok()
                        .map(|entry| entry.text.to_string());
                }
                PromptRef::Lowered {
                    identity: Some(_),
                    text,
                } => return Some(text.clone()),
                PromptRef::Lowered { identity: None, .. } | PromptRef::Inline(_) => return None,
                PromptRef::Key(_) => {}
            },
            _ => {}
        }
    }
    None
}

/// The constant-foldable prompt prefix of a family-fixed template: the
/// leading literal segment exactly as [`crate::template::render_segmented`]
/// will produce it on every request of the family (template parsing never
/// emits adjacent literals, so the shared prefix is at most one segment).
/// Returns the literal and its content hash, ready for
/// [`crate::segment::TextSegment::from_shared`].
#[must_use]
pub fn family_prefix(template_text: &str) -> Option<(Arc<str>, u64)> {
    let parsed = template::parse_shared(template_text).ok()?;
    parsed.leading_literal()
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
    fn gen_check_pairs_fuse() {
        // create, gen, check, expand  =>  leaf, gen+check, leaf
        let p = Pipeline::builder("gc")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .check(Cond::low_confidence(0.5), |b| b.expand("p", "more"))
            .build();
        let prog = compiled(&p);
        assert_eq!(prog.code().len(), 3);
        let VmOp::GenCheck { on_false, .. } = prog.code()[1] else {
            panic!("expected fused GenCheck: {:?}", prog.code());
        };
        assert_eq!(on_false, 3, "false exits past the fused branch");
    }

    #[test]
    fn fusion_refuses_jump_targets() {
        // else-branch: check's on_false lands exactly on the first else
        // instruction; a gen there followed by a check must NOT fuse with
        // anything that would hide the landing pad.
        let p = Pipeline::builder("landing")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(Cond::Always, |b| b.gen("a", "p"), |b| b.gen("b", "p"))
            .build();
        let lowered = lower(&p).unwrap();
        // ops: create, check(on_false=4), gen a, jump 5, gen b
        let prog = compile(&lowered).unwrap();
        // The then-branch gen at source 2 is followed by Jump — Gen+Jump is
        // not a fusion pair — and the else gen at 4 is a jump target.
        assert_eq!(prog.code().len(), lowered.ops.len());
    }

    #[test]
    fn delegate_jump_fuses_when_legal() {
        let p = Pipeline::builder("dj")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::Always,
                |b| {
                    b.delegate(
                        "helper",
                        crate::ops::PayloadSpec::Lit(Value::from("x")),
                        "out",
                    )
                },
                |b| b.expand("p", "alt"),
            )
            .build();
        let lowered = lower(&p).unwrap();
        // ops: create, check, delegate, jump, expand — jump at 3 is not a
        // target, so delegate+jump fuse.
        let prog = compile(&lowered).unwrap();
        assert!(
            prog.code()
                .iter()
                .any(|op| matches!(op, VmOp::DelegateJump { .. })),
            "expected fused DelegateJump: {:?}",
            prog.code()
        );
        let VmOp::DelegateJump { target, .. } = prog
            .code()
            .iter()
            .copied()
            .find(|op| matches!(op, VmOp::DelegateJump { .. }))
            .unwrap()
        else {
            unreachable!()
        };
        assert_eq!(target as usize, prog.code().len(), "jump exits the plan");
    }

    #[test]
    fn branch_targets_remap_across_fusion() {
        // A fused pair before a branch target shifts later indices; the
        // check's on_false must land on the same source instruction.
        let p = Pipeline::builder("remap")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("warm", "p")
            .check(Cond::low_confidence(0.9), |b| b.expand("p", "retry hint"))
            .gen("final", "p")
            .build();
        let lowered = lower(&p).unwrap();
        // source: create, gen, check(on_false=4), expand, gen
        let prog = compile(&lowered).unwrap();
        // compiled: leaf(create), gen+check(on_false->3), leaf(expand), leaf(gen)
        assert_eq!(prog.code().len(), 4);
        let VmOp::GenCheck { on_false, .. } = prog.code()[1] else {
            panic!("expected fusion: {:?}", prog.code());
        };
        assert_eq!(on_false, 3, "on_false remapped from source 4 to code 3");
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
    fn family_prefix_matches_render_segmented() {
        let text = "Shared instructions.\nItem: {{ctx:item}}";
        let (prefix, hash) = family_prefix(text).expect("has a literal prefix");
        assert_eq!(prefix.as_ref(), "Shared instructions.\nItem: ");
        let mut ctx = crate::context::Context::new();
        ctx.set("item", "payload");
        let rendered =
            template::render_segmented(text, &std::collections::BTreeMap::new(), &ctx).unwrap();
        let first = &rendered.segments()[0];
        assert_eq!(first.text(), prefix.as_ref());
        assert_eq!(first.hash(), hash);
        assert!(first.is_literal());
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
        assert!(opt
            .code()
            .iter()
            .any(|op| matches!(op, VmOp::Check { .. } | VmOp::GenCheck { .. })));
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
            prefix: None,
        };
        assert!(optimize(&cyclic).is_none());
    }
}
