//! The built-in lint passes and the [`LintPass`] extension point.
//!
//! Each pass reads a [`PassContext`] (the plan, its CFG, and whatever the
//! caller configured — a runtime's registries, assumed prompt keys,
//! budgets) and returns slot-anchored [`Diagnostic`]s. New checks plug in
//! by implementing [`LintPass`] and registering a lint code in
//! [`super::lints::REGISTRY`].

use std::collections::BTreeSet;

use crate::ops::{Op, PayloadSpec, PromptRef};
use crate::plan::{LoweredOp, LoweredPlan};
use crate::runtime::Runtime;

use super::cfg::{termination_diagnostics, Cfg};
use super::dataflow::{fixpoint, Analysis};
use super::lints::{
    Diagnostic, AFFINITY_MISMATCH, BUDGET_AT_RISK, BUDGET_INFEASIBLE, NO_LLM, UNDEFINED_PROMPT_KEY,
    UNKNOWN_AGENT, UNKNOWN_REFINER, UNKNOWN_RETRIEVER, UNKNOWN_VIEW, UNREACHABLE_SLOT,
};

/// Worst-case cost assumptions for the resource-feasibility walk. The
/// defaults match the cheapest generation the simulated backend can
/// produce ([`crate::llm::EchoLlm`] charges `100 + 10·prompt_tokens` µs
/// and at least one completion token), so feasibility errors are
/// conservative: a plan flagged infeasible cannot finish in budget even
/// under the friendliest backend.
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

/// Everything a pass may consult.
pub struct PassContext<'a> {
    /// The plan under analysis.
    pub plan: &'a LoweredPlan,
    /// Its control-flow graph (structurally valid by construction).
    pub cfg: &'a Cfg,
    /// Registries to resolve names against; `None` skips registry and
    /// LLM-availability checks (pure dataflow verification).
    pub runtime: Option<&'a Runtime>,
    /// Prompt keys assumed to exist in the starting state.
    pub assumed: &'a BTreeSet<String>,
    /// Virtual deadline the plan must fit in, µs.
    pub deadline_us: Option<u64>,
    /// Token budget the plan must fit in.
    pub max_tokens: Option<u64>,
    /// Cost assumptions for the feasibility walk.
    pub model: ResourceModel,
}

/// An extensible lint pass over a lowered plan.
pub trait LintPass {
    /// Stable pass name (for tooling / debugging).
    fn name(&self) -> &'static str;
    /// Run the pass and return its findings.
    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic>;
}

/// Reachability + guaranteed termination: every slot must be reachable
/// from entry (W001) and no reachable edge may go backwards (E006) —
/// strictly-forward targets are the IR's termination argument.
pub struct ReachabilityPass;

impl LintPass for ReachabilityPass {
    fn name(&self) -> &'static str {
        "reachability"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        let mut diags = termination_diagnostics(cx.plan, cx.cfg);
        for (slot, op) in cx.plan.ops.iter().enumerate() {
            if !cx.cfg.is_reachable(slot) {
                diags.push(Diagnostic::at(
                    &UNREACHABLE_SLOT,
                    slot,
                    op.describe(),
                    format!("slot {slot:04} can never be reached from entry"),
                ));
            }
        }
        diags
    }
}

/// The def-use lattice: the set of prompt keys defined on *some* path to
/// a program point. Union join makes the analysis optimistic across CHECK
/// branches — exactly [`crate::validate::Validator`]'s tree semantics —
/// so it flags definite mistakes, not conservative may-issues. Keys are
/// borrowed from the plan and the assumed set, never copied.
struct DefinedKeys<'a> {
    assumed: &'a BTreeSet<String>,
}

impl<'a> Analysis<'a> for DefinedKeys<'a> {
    type Fact = BTreeSet<&'a str>;

    fn entry_fact(&self) -> Self::Fact {
        self.assumed.iter().map(String::as_str).collect()
    }

    fn transfer(&self, _slot: usize, op: &'a LoweredOp, before: &Self::Fact) -> Self::Fact {
        let mut out = before.clone();
        if let LoweredOp::Leaf { op, .. } = op {
            match op {
                Op::Ref { target, .. } => {
                    out.insert(target.as_str());
                }
                Op::Merge { into, .. } => {
                    out.insert(into.as_str());
                }
                _ => {}
            }
        }
        out
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        let before = into.len();
        into.extend(from.iter().copied());
        into.len() != before
    }
}

/// Prompt-key def-use plus registry resolution, ported from
/// [`crate::validate::Validator`]: same checks, same messages, reported
/// in slot order (which is the source pipeline's program order, since
/// lowering emits then-branches before else-branches).
pub struct DefUsePass;

impl DefUsePass {
    fn check_view(rt: &Runtime, slot: usize, op: &Op, name: &str, diags: &mut Vec<Diagnostic>) {
        if !rt.views().contains(name) {
            diags.push(Diagnostic::at(
                &UNKNOWN_VIEW,
                slot,
                op.describe(),
                format!("view {name:?} is not registered"),
            ));
        }
    }
}

impl LintPass for DefUsePass {
    fn name(&self) -> &'static str {
        "def-use"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        let analysis = DefinedKeys {
            assumed: cx.assumed,
        };
        let facts = fixpoint(cx.plan, cx.cfg, &analysis);
        let mut diags = Vec::new();
        for (slot, instr) in cx.plan.ops.iter().enumerate() {
            let LoweredOp::Leaf { op, .. } = instr else {
                continue; // CHECK conditions read (C, M), not prompts
            };
            let Some(defined) = &facts[slot] else {
                continue; // unreachable: ReachabilityPass reports it
            };
            match op {
                Op::Ret { source, prompt, .. } => {
                    if let Some(rt) = cx.runtime {
                        if !rt.has_retriever(source) {
                            diags.push(Diagnostic::at(
                                &UNKNOWN_RETRIEVER,
                                slot,
                                op.describe(),
                                format!("retriever source {source:?} is not registered"),
                            ));
                        }
                    }
                    if let Some(key) = prompt {
                        if !defined.contains(key.as_str()) {
                            diags.push(Diagnostic::at(
                                &UNDEFINED_PROMPT_KEY,
                                slot,
                                op.describe(),
                                format!(
                                    "retrieval prompt P[{key:?}] is never created before this RET"
                                ),
                            ));
                        }
                    }
                }
                Op::Gen { prompt, .. } => {
                    if let Some(rt) = cx.runtime {
                        if rt.llm().is_none() {
                            diags.push(Diagnostic::at(
                                &NO_LLM,
                                slot,
                                op.describe(),
                                "runtime has no LLM configured",
                            ));
                        }
                    }
                    match prompt {
                        PromptRef::Key(key) => {
                            if !defined.contains(key.as_str()) {
                                diags.push(Diagnostic::at(
                                    &UNDEFINED_PROMPT_KEY,
                                    slot,
                                    op.describe(),
                                    format!("P[{key:?}] is never created before this GEN"),
                                ));
                            }
                        }
                        PromptRef::View { name, .. } => {
                            if let Some(rt) = cx.runtime {
                                Self::check_view(rt, slot, op, name, &mut diags);
                            }
                        }
                        PromptRef::Inline(_) | PromptRef::Lowered { .. } => {}
                    }
                }
                Op::Ref {
                    target,
                    action,
                    refiner,
                    args,
                    ..
                } => {
                    if let Some(rt) = cx.runtime {
                        if !rt.has_refiner(refiner) {
                            diags.push(Diagnostic::at(
                                &UNKNOWN_REFINER,
                                slot,
                                op.describe(),
                                format!("refiner {refiner:?} is not registered"),
                            ));
                        }
                        if refiner == "from_view" {
                            if let Some(name) = args
                                .as_map()
                                .and_then(|m| m.get("view"))
                                .and_then(|v| v.as_str())
                            {
                                Self::check_view(rt, slot, op, name, &mut diags);
                            }
                        }
                    }
                    let creates = *action == crate::history::RefAction::Create;
                    if !creates && !defined.contains(target.as_str()) {
                        diags.push(Diagnostic::at(
                            &UNDEFINED_PROMPT_KEY,
                            slot,
                            op.describe(),
                            format!("P[{target:?}] is refined ({action}) before any CREATE"),
                        ));
                    }
                }
                Op::Merge { left, right, .. } => {
                    for side in [left, right] {
                        if !defined.contains(side.as_str()) {
                            diags.push(Diagnostic::at(
                                &UNDEFINED_PROMPT_KEY,
                                slot,
                                op.describe(),
                                format!("MERGE source P[{side:?}] is never created"),
                            ));
                        }
                    }
                }
                Op::Delegate { agent, payload, .. } => {
                    if let Some(rt) = cx.runtime {
                        if !rt.has_agent(agent) {
                            diags.push(Diagnostic::at(
                                &UNKNOWN_AGENT,
                                slot,
                                op.describe(),
                                format!("agent {agent:?} is not registered"),
                            ));
                        }
                    }
                    if let PayloadSpec::PromptKey(key) = payload {
                        if !defined.contains(key.as_str()) {
                            diags.push(Diagnostic::at(
                                &UNDEFINED_PROMPT_KEY,
                                slot,
                                op.describe(),
                                format!("payload prompt P[{key:?}] is never created"),
                            ));
                        }
                    }
                }
                // Unreachable: a CHECK in a leaf slot fails `Cfg::build`
                // (SPEAR-E012) before any pass runs.
                Op::Check { .. } => {}
            }
        }
        diags
    }
}

/// Worst-case token/latency walk against the configured budgets. Requires
/// a DAG (the verifier only runs it when termination holds): for each
/// node the cheapest and costliest path sums are propagated in slot
/// order, which is a topological order of a strictly-forward CFG.
///
/// - cheapest path > budget → the plan *cannot* fit: [`BUDGET_INFEASIBLE`]
/// - costliest path > budget → the plan *may* not fit: [`BUDGET_AT_RISK`]
pub struct ResourcePass;

impl LintPass for ResourcePass {
    fn name(&self) -> &'static str {
        "resource-feasibility"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        if cx.deadline_us.is_none() && cx.max_tokens.is_none() {
            return Vec::new();
        }
        let len = cx.plan.ops.len();
        // (min, max) path sums of (latency, tokens) *before* each node;
        // index `len` is the exit.
        let mut lat: Vec<Option<(u64, u64)>> = vec![None; len + 1];
        let mut tok: Vec<Option<(u64, u64)>> = vec![None; len + 1];
        lat[0] = Some((0, 0));
        tok[0] = Some((0, 0));
        for slot in 0..len {
            let (Some((lat_min, lat_max)), Some((tok_min, tok_max))) = (lat[slot], tok[slot])
            else {
                continue; // unreachable slot
            };
            let gen = matches!(
                &cx.plan.ops[slot],
                LoweredOp::Leaf {
                    op: Op::Gen { .. },
                    ..
                }
            );
            let (dl, dt) = if gen {
                (cx.model.min_gen_latency_us, cx.model.min_gen_tokens)
            } else {
                (0, 0)
            };
            let out_lat = (lat_min + dl, lat_max + dl);
            let out_tok = (tok_min + dt, tok_max + dt);
            for &succ in cx.cfg.succs(slot) {
                let succ = succ.min(len);
                lat[succ] = Some(match lat[succ] {
                    Some((lo, hi)) => (lo.min(out_lat.0), hi.max(out_lat.1)),
                    None => out_lat,
                });
                tok[succ] = Some(match tok[succ] {
                    Some((lo, hi)) => (lo.min(out_tok.0), hi.max(out_tok.1)),
                    None => out_tok,
                });
            }
        }
        let mut diags = Vec::new();
        let (exit_lat, exit_tok) = (lat[len].unwrap_or((0, 0)), tok[len].unwrap_or((0, 0)));
        if let Some(deadline) = cx.deadline_us {
            if exit_lat.0 > deadline {
                diags.push(Diagnostic::plan_level(
                    &BUDGET_INFEASIBLE,
                    format!(
                        "every path needs at least {} µs of generation but the deadline is {} µs",
                        exit_lat.0, deadline
                    ),
                ));
            } else if exit_lat.1 > deadline {
                diags.push(Diagnostic::plan_level(
                    &BUDGET_AT_RISK,
                    format!(
                        "the worst-case path needs {} µs of generation against a deadline of {} µs",
                        exit_lat.1, deadline
                    ),
                ));
            }
        }
        if let Some(budget) = cx.max_tokens {
            if exit_tok.0 > budget {
                diags.push(Diagnostic::plan_level(
                    &BUDGET_INFEASIBLE,
                    format!(
                        "every path generates at least {} token(s) but the budget is {}",
                        exit_tok.0, budget
                    ),
                ));
            } else if exit_tok.1 > budget {
                diags.push(Diagnostic::plan_level(
                    &BUDGET_AT_RISK,
                    format!(
                        "the worst-case path generates {} token(s) against a budget of {}",
                        exit_tok.1, budget
                    ),
                ));
            }
        }
        diags
    }
}

/// Strip the `/stage{i}` suffix optimizer fusion appends to each fused
/// stage's identity, recovering the base plan's affinity key.
fn affinity_base(identity: &str) -> &str {
    if let Some(pos) = identity.rfind("/stage") {
        let digits = &identity[pos + "/stage".len()..];
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            return &identity[..pos];
        }
    }
    identity
}

/// Affinity-key consistency across fused stages: every identity-carrying
/// GEN in one plan should share a base identity, otherwise affinity
/// routing pins the plan to one stripe while half its prefills miss.
pub struct AffinityPass;

impl LintPass for AffinityPass {
    fn name(&self) -> &'static str {
        "affinity-consistency"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        let mut first: Option<(usize, &str)> = None;
        for (slot, instr) in cx.plan.ops.iter().enumerate() {
            let LoweredOp::Leaf {
                op:
                    Op::Gen {
                        prompt:
                            PromptRef::Lowered {
                                identity: Some(id), ..
                            },
                        ..
                    },
                ..
            } = instr
            else {
                continue;
            };
            let base = affinity_base(id);
            match first {
                None => first = Some((slot, base)),
                Some((first_slot, first_base)) if first_base != base => {
                    return vec![Diagnostic::at(
                        &AFFINITY_MISMATCH,
                        slot,
                        instr.describe(),
                        format!(
                            "fused stage carries affinity base {base:?} but the stage at slot \
                             {first_slot:04} carries {first_base:?}; mixed bases defeat \
                             cache-affinity routing"
                        ),
                    )];
                }
                Some(_) => {}
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_base_strips_only_stage_suffixes() {
        assert_eq!(
            affinity_base("view:summary#ab12/stage0"),
            "view:summary#ab12"
        );
        assert_eq!(
            affinity_base("view:summary#ab12/stage17"),
            "view:summary#ab12"
        );
        assert_eq!(affinity_base("view:summary#ab12"), "view:summary#ab12");
        assert_eq!(affinity_base("text:beef/stagey"), "text:beef/stagey");
        assert_eq!(affinity_base("text:beef/stage"), "text:beef/stage");
    }
}
