//! The built-in lint passes and the [`LintPass`] extension point.
//!
//! Each pass reads a [`PassContext`] (the program, its CFG, and whatever the
//! caller configured — a runtime's registries, assumed prompt keys, a
//! deadline) and returns slot-anchored [`Diagnostic`]s. New checks plug in
//! by implementing [`LintPass`] and registering a lint code in
//! [`super::lints::REGISTRY`].

use std::collections::BTreeSet;

use crate::ops::{Op, PayloadSpec, PromptRef};
use crate::runtime::Runtime;
use crate::vm::{Program, VmOp};

use super::cfg::Cfg;
use super::lints::{
    Diagnostic, AFFINITY_MISMATCH, NO_LLM, UNDEFINED_PROMPT_KEY, UNKNOWN_AGENT, UNKNOWN_REFINER,
    UNKNOWN_RETRIEVER, UNKNOWN_VIEW, UNREACHABLE_SLOT,
};

/// Everything a pass may consult.
pub struct PassContext<'a> {
    /// The program under analysis.
    pub program: &'a Program,
    /// Its control-flow graph, unrefined (every CHECK keeps both edges).
    pub cfg: &'a Cfg,
    /// Registries to resolve names against; `None` skips registry and
    /// LLM-availability checks (pure dataflow verification).
    pub runtime: Option<&'a Runtime>,
    /// Prompt keys assumed to exist in the starting state.
    pub assumed: &'a BTreeSet<String>,
    /// Virtual deadline the plan must fit in, µs.
    pub deadline_us: Option<u64>,
}

/// An extensible lint pass over a program.
pub trait LintPass {
    /// Stable pass name (for tooling / debugging).
    fn name(&self) -> &'static str;
    /// Run the pass and return its findings.
    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic>;
}

/// Reachability: every slot must be reachable from entry (W001). That no
/// edge goes backwards (E006) is the gate's check: no released program has
/// one.
pub struct ReachabilityPass;

impl LintPass for ReachabilityPass {
    fn name(&self) -> &'static str {
        "reachability"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        (0..cx.cfg.len())
            .filter(|&slot| !cx.cfg.is_reachable(slot))
            .map(|slot| {
                Diagnostic::at(
                    &UNREACHABLE_SLOT,
                    slot,
                    cx.program.describe(slot).unwrap_or_default(),
                    format!("slot {slot:04} can never be reached from entry"),
                )
            })
            .collect()
    }
}

/// The operator of slot `slot`, when it is a leaf.
fn leaf_op(program: &Program, slot: usize) -> Option<&Op> {
    match program.code()[slot] {
        VmOp::Leaf { leaf } => Some(program.leaf(leaf).op()),
        VmOp::Check { .. } | VmOp::Jump { .. } => None,
    }
}

/// The def-use fact after `op` (a leaf's operator, `None` for a CHECK or
/// JUMP): the prompt keys defined on *some* path, plus the key `op` itself
/// defines. Keys are borrowed from the program and the assumed set, never
/// copied.
fn defined_after<'a>(op: Option<&'a Op>, before: &BTreeSet<&'a str>) -> BTreeSet<&'a str> {
    let mut out = before.clone();
    if let Some(op) = op {
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

/// Prompt-key def-use plus registry resolution, reported in slot order
/// (which is the source pipeline's operator order, since lowering emits
/// then-branches before else-branches).
///
/// The def-use facts come from one [`Cfg::sweep`] whose join is set
/// **union**: a key counts as defined if *some* path defines it, so the
/// pass is optimistic across CHECK branches and flags definite mistakes,
/// not conservative may-issues — runtime errors still catch the rest.
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
        let entry: BTreeSet<&str> = cx.assumed.iter().map(String::as_str).collect();
        let Some(facts) = cx.cfg.sweep(
            entry,
            |slot, before| defined_after(leaf_op(cx.program, slot), before),
            |into, from| into.extend(from.iter().copied()),
        ) else {
            return Vec::new(); // a back edge: the gate rejects it
        };
        let mut diags = Vec::new();
        for (slot, fact) in facts[..cx.cfg.len()].iter().enumerate() {
            let Some(op) = leaf_op(cx.program, slot) else {
                continue; // CHECK conditions read (C, M), not prompts
            };
            let Some(defined) = fact else {
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
                // Unreachable: a CHECK in a leaf slot fails the gate
                // (SPEAR-E012), so no released program holds one.
                Op::Check { .. } => {}
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
        for slot in 0..cx.cfg.len() {
            let Some(Op::Gen {
                prompt:
                    PromptRef::Lowered {
                        identity: Some(id), ..
                    },
                ..
            }) = leaf_op(cx.program, slot)
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
                        cx.program.describe(slot).unwrap_or_default(),
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
