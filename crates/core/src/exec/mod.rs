//! Per-operator handlers and the reference tree walk.
//!
//! Every operator of the algebra has its own handler module — the
//! obligation to consume and produce the full `(P, C, M)` triple is
//! per-operator, so the code is organized the same way. Handlers are plain
//! free functions over destructured operator fields (no trait objects):
//! [`exec_leaf`] is the static dispatch point and [`gate`] the
//! pre-operator check, both shared by the two execution spines:
//!
//! - [`run_tree`] is the reference recursive walk over the operator tree
//!   ([`crate::runtime::Runtime::execute_tree`]) — the specification;
//! - `vm::run_program` steps a compiled [`crate::vm::Program`], the
//!   production path every lowered plan takes.
//!
//! Both spines produce byte-identical traces for any pipeline, including
//! error paths (see `tests/trace_equivalence.rs`).
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

use std::sync::Arc;

use crate::error::{Result, SpearError};
use crate::ops::Op;
use crate::runtime::{ExecState, Runtime};
use crate::trace::{shared, Detail, TraceKind};
use crate::vm::Branch;

/// Execute one data operator against `state`: the static dispatch table
/// from operator to its inlined handler. `trigger` is the innermost
/// enclosing CHECK branch with the text its check holds for it — the
/// `CHECK[..]` label of a then-branch, the `!({cond})` of an else-branch
/// (REF records the condition text it stands for). A GEN's prompt
/// text carries its parse, so both spines render from the operator alone.
/// Handlers never gate budgets or record `Error` events — the
/// spine owns both — but do record their own success trace event, because
/// its payload comes from the operator's internals (token usage, merge
/// choice, …).
pub(crate) fn exec_leaf(
    rt: &Runtime,
    op: &Op,
    trigger: Option<(&Arc<str>, Branch)>,
    state: &mut ExecState,
) -> Result<()> {
    match op {
        Op::Ret {
            source,
            query,
            prompt,
            into,
            limit,
        } => ret::run(rt, source, query, prompt.as_deref(), into, *limit, state),
        Op::Gen {
            label,
            prompt,
            options,
        } => gen::run(rt, label, prompt, options, state),
        Op::Ref {
            target,
            action,
            refiner,
            args,
            mode,
        } => refine::run(rt, target, *action, refiner, args, *mode, trigger, state),
        Op::Merge {
            left,
            right,
            into,
            policy,
        } => merge::run(left, right, into, policy, state),
        Op::Delegate {
            agent,
            payload,
            into,
        } => delegate::run(rt, agent, payload, into, state),
        // CHECK is control flow, which each spine steps itself. Lowering
        // never puts one in a leaf slot and the structural verifier rejects
        // a plan that does (SPEAR-E012), so reaching this arm is a bug.
        Op::Check { .. } => Err(SpearError::Internal(format!(
            "{} reached the executor as a data operator",
            op.describe()
        ))),
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
/// enclosing CHECK frames log them during unwind. Shared by both spines
/// (tree walk and compiled VM).
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

/// The reference spine: recursive walk over the operator tree. Gate
/// failures propagate unrecorded (the enclosing recursion level logs them
/// against its CHECK), execution failures are logged against the operator.
pub(crate) fn run_tree(
    rt: &Runtime,
    ops: &[Op],
    state: &mut ExecState,
    budget: &mut u64,
    trigger: Option<(&Arc<str>, Branch)>,
    limits: &CallLimits,
) -> Result<()> {
    for op in ops {
        gate(rt, state, budget, limits)?;
        let outcome = match op {
            Op::Check {
                cond,
                then_ops,
                else_ops,
            } => {
                let label: Arc<str> = op.describe().into();
                check::eval_labeled(cond, &label, state).and_then(|holds| {
                    if holds {
                        let then = Some((&label, Branch::Then));
                        run_tree(rt, then_ops, state, budget, then, limits)
                    } else if else_ops.is_empty() {
                        Ok(())
                    } else {
                        let negated: Arc<str> = format!("!({cond})").into();
                        let otherwise = Some((&negated, Branch::Else));
                        run_tree(rt, else_ops, state, budget, otherwise, limits)
                    }
                })
            }
            leaf => exec_leaf(rt, leaf, trigger, state),
        };
        if let Err(e) = outcome {
            state.trace.record(
                state.step,
                TraceKind::Error,
                op.describe().into(),
                Detail::Message(shared(format_args!("{e}"))),
            );
            return Err(e);
        }
    }
    Ok(())
}
