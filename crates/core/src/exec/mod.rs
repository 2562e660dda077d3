//! Per-operator handlers and the execution spine.
//!
//! Every operator of the algebra has its own handler module — the
//! obligation to consume and produce the full `(P, C, M)` triple is
//! per-operator, so the code is organized the same way. Handlers are plain
//! free functions over destructured operator fields (no trait objects):
//! [`exec_op`] is the static dispatch point, and [`crate::vm`] inlines the
//! same handlers into its compiled match-loop. The spine — budget gating,
//! step counting, tracing, and error unwinding — lives here, in exactly
//! one place:
//!
//! - [`run_lowered`] steps a [`LoweredPlan`] with a program counter — the
//!   reference IR interpreter, kept for differential testing (the
//!   production path compiles to [`crate::vm`]).
//! - [`run_tree`] is the reference recursive walk over the operator tree
//!   ([`crate::runtime::Runtime::execute_tree`]).
//!
//! All three spines — tree walk, IR interpreter, compiled VM — produce
//! byte-identical traces for any pipeline, including error paths (see
//! `tests/trace_equivalence.rs`).
//!
//! The spine must never panic on user input — failures are typed
//! [`SpearError`]s — so `unwrap()`/`expect()` are denied throughout the
//! executor tree.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub(crate) mod check;
pub(crate) mod delegate;
pub(crate) mod gen;
pub(crate) mod merge;
pub(crate) mod refine;
pub(crate) mod ret;

use crate::error::{Result, SpearError};
use crate::ops::Op;
use crate::plan::{LoweredOp, LoweredPlan};
use crate::runtime::{ExecState, Runtime};
use crate::trace::TraceKind;
use crate::value::Value;

/// Control-flow outcome of one operator.
pub(crate) enum Flow {
    /// Proceed to the next operator.
    Next,
    /// A CHECK evaluated; `true` enters the then-branch.
    Cond(bool),
}

/// Execute one operator against `state`: the static dispatch table from
/// operator to its inlined handler. Handlers never gate budgets or record
/// `Error` events — the spine owns both — but do record their own success
/// trace event, because its payload comes from the operator's internals
/// (token usage, condition outcome, merge choice, …).
pub(crate) fn exec_op(
    rt: &Runtime,
    op: &Op,
    trigger: Option<&str>,
    state: &mut ExecState,
) -> Result<Flow> {
    match op {
        Op::Ret {
            source,
            query,
            prompt,
            into,
            limit,
        } => {
            ret::run(rt, source, query, prompt.as_deref(), into, *limit, state)?;
            Ok(Flow::Next)
        }
        Op::Gen {
            label,
            prompt,
            options,
        } => {
            gen::run(rt, label, prompt, options, None, state)?;
            Ok(Flow::Next)
        }
        Op::Ref {
            target,
            action,
            refiner,
            args,
            mode,
        } => {
            refine::run(rt, target, *action, refiner, args, *mode, trigger, state)?;
            Ok(Flow::Next)
        }
        Op::Check { cond, .. } => Ok(Flow::Cond(check::eval_and_trace(cond, state)?)),
        Op::Merge {
            left,
            right,
            into,
            policy,
        } => {
            merge::run(left, right, into, policy, state)?;
            Ok(Flow::Next)
        }
        Op::Delegate {
            agent,
            payload,
            into,
        } => {
            delegate::run(rt, agent, payload, into, state)?;
            Ok(Flow::Next)
        }
    }
}

/// Per-call resource limits, checked before each operator against the
/// metadata counters accumulated since the call started.
pub(crate) struct CallLimits {
    pub(crate) tokens_start: u64,
    pub(crate) latency_start_us: u64,
    pub(crate) max_tokens: Option<u64>,
    pub(crate) max_latency_us: Option<u64>,
}

impl CallLimits {
    fn check(&self, state: &ExecState) -> Result<()> {
        if let Some(max) = self.max_tokens {
            let used = state.metadata.usage.total() - self.tokens_start;
            if used > max {
                return Err(SpearError::TokenBudgetExceeded { limit: max, used });
            }
        }
        if let Some(max) = self.max_latency_us {
            let used_us = state.metadata.latency_us - self.latency_start_us;
            if used_us > max {
                return Err(SpearError::LatencyBudgetExceeded {
                    limit_us: max,
                    used_us,
                });
            }
        }
        Ok(())
    }
}

/// Per-state cancellation signals, checked between operators (cooperative
/// cancellation): an external [`crate::cancel::CancelToken`] and the
/// state's virtual deadline. Both depend only on the job's own state —
/// never on wall time — so cancellation points are deterministic.
fn check_cancelled(state: &ExecState) -> Result<()> {
    if let Some(token) = &state.cancel {
        if token.is_cancelled() {
            return Err(SpearError::Cancelled {
                reason: token.reason().to_string(),
                after_us: state.metadata.latency_us,
            });
        }
    }
    if let Some(deadline_us) = state.deadline_us {
        if state.metadata.latency_us > deadline_us {
            return Err(SpearError::Cancelled {
                reason: "deadline".to_string(),
                after_us: state.metadata.latency_us,
            });
        }
    }
    Ok(())
}

/// The pre-operator gate: op budget, call limits, step advance. Gate
/// failures are *not* recorded against the operator (it never ran) — only
/// enclosing CHECK frames log them during unwind. Shared by all three
/// spines (tree walk, IR interpreter, compiled VM).
pub(crate) fn gate(
    rt: &Runtime,
    state: &mut ExecState,
    budget: &mut u64,
    limits: &CallLimits,
) -> Result<()> {
    if *budget == 0 {
        return Err(SpearError::OpBudgetExceeded {
            limit: rt.config.max_ops,
        });
    }
    check_cancelled(state)?;
    limits.check(state)?;
    *budget -= 1;
    state.step += 1;
    Ok(())
}

/// Replay the tree walk's error unwind: the failing operator's own trace
/// event (when it ran), then one event per enclosing CHECK, innermost
/// first — all at the current step, matching the recursive walk.
fn unwind(state: &mut ExecState, own: Option<String>, frames: &[String], e: &SpearError) {
    if let Some(describe) = own {
        state.trace.record(
            state.step,
            TraceKind::Error,
            describe,
            Value::from(e.to_string()),
        );
    }
    for frame in frames.iter().rev() {
        state.trace.record(
            state.step,
            TraceKind::Error,
            frame.clone(),
            Value::from(e.to_string()),
        );
    }
}

/// The IR interpreter spine: step `plan` with a program counter.
pub(crate) fn run_lowered(
    rt: &Runtime,
    plan: &LoweredPlan,
    state: &mut ExecState,
    budget: &mut u64,
    limits: &CallLimits,
) -> Result<()> {
    let mut pc = 0usize;
    while let Some(instr) = plan.ops.get(pc) {
        match instr {
            LoweredOp::Jump { target } => pc = *target,
            LoweredOp::Check {
                cond,
                on_false,
                frames,
            } => {
                if let Err(e) = gate(rt, state, budget, limits) {
                    unwind(state, None, frames, &e);
                    return Err(e);
                }
                match check::eval_and_trace(cond, state) {
                    Ok(true) => pc += 1,
                    Ok(false) => pc = *on_false,
                    Err(e) => {
                        unwind(state, Some(format!("CHECK[{cond}]")), frames, &e);
                        return Err(e);
                    }
                }
            }
            LoweredOp::Leaf {
                op,
                trigger,
                frames,
            } => {
                if let Err(e) = gate(rt, state, budget, limits) {
                    unwind(state, None, frames, &e);
                    return Err(e);
                }
                match exec_op(rt, op, trigger.as_deref(), state) {
                    Ok(_) => pc += 1,
                    Err(e) => {
                        unwind(state, Some(op.describe()), frames, &e);
                        return Err(e);
                    }
                }
            }
        }
    }
    Ok(())
}

/// The reference spine: recursive walk over the operator tree. Gate
/// failures propagate unrecorded (the enclosing recursion level logs them
/// against its CHECK), execution failures are logged against the operator.
pub(crate) fn run_tree(
    rt: &Runtime,
    ops: &[Op],
    state: &mut ExecState,
    budget: &mut u64,
    trigger: Option<&str>,
    limits: &CallLimits,
) -> Result<()> {
    for op in ops {
        gate(rt, state, budget, limits)?;
        let outcome = exec_op(rt, op, trigger, state).and_then(|flow| match flow {
            Flow::Next => Ok(()),
            Flow::Cond(holds) => {
                let Op::Check {
                    cond,
                    then_ops,
                    else_ops,
                } = op
                else {
                    unreachable!("only CHECK returns Flow::Cond")
                };
                if holds {
                    run_tree(rt, then_ops, state, budget, Some(&cond.to_string()), limits)
                } else if else_ops.is_empty() {
                    Ok(())
                } else {
                    let negated = format!("!({cond})");
                    run_tree(rt, else_ops, state, budget, Some(&negated), limits)
                }
            }
        });
        if let Err(e) = outcome {
            state.trace.record(
                state.step,
                TraceKind::Error,
                op.describe(),
                Value::from(e.to_string()),
            );
            return Err(e);
        }
    }
    Ok(())
}
