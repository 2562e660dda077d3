//! The lowered plan IR: a flat instruction form for pipelines.
//!
//! A [`Pipeline`] is a tree (CHECK nests its branches); the executor spine
//! wants a flat program it can step with a program counter — the same move
//! a query engine makes when it lowers a logical plan into a physical one.
//! [`lower`] flattens the operator tree into a [`LoweredPlan`]: every
//! non-CHECK operator becomes a [`LoweredOp::Leaf`], every CHECK becomes a
//! [`LoweredOp::Check`] with an explicit `on_false` jump target, and a
//! then-branch followed by an else-branch ends in a [`LoweredOp::Jump`]
//! over the else block.
//!
//! Two pieces of tree-shaped bookkeeping are baked into the instructions so
//! the flat program, once compiled ([`crate::vm::compile`]), reproduces the
//! tree walk byte-for-byte:
//!
//! - **triggers** — a REF inside a CHECK branch records the branch's
//!   condition text in its ref_log; each leaf carries the trigger of its
//!   innermost enclosing branch.
//! - **frames** — when an operator fails, the tree walk records one
//!   `Error` trace event per enclosing CHECK while unwinding; each
//!   instruction carries the `describe()` strings of its enclosing CHECKs
//!   (outermost first) so the spine can replay that unwind.
//!
//! Both executors — [`crate::runtime::Runtime::execute`], which compiles
//! this IR to bytecode, and the reference tree walk kept as
//! [`crate::runtime::Runtime::execute_tree`] — are differentially tested
//! for byte-identical traces (`tests/trace_equivalence.rs`).

use serde::{Deserialize, Serialize};

use crate::condition::Cond;
use crate::history::RefAction;
use crate::ops::{Op, PromptRef};
use crate::pipeline::Pipeline;
use crate::value::Value;

/// One instruction of the lowered IR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoweredOp {
    /// A data operator executed by its per-operator handler; falls through
    /// to the next instruction. Never an [`Op::Check`]: the structural
    /// verifier rejects a plan that carries one here (SPEAR-E012).
    Leaf {
        /// The operator.
        op: Op,
        /// Condition text of the innermost enclosing CHECK branch (negated
        /// for else-branches); REF records it as the ref_log trigger.
        trigger: Option<String>,
        /// `describe()` of enclosing CHECKs, outermost first (error unwind).
        frames: Vec<String>,
    },
    /// Evaluate a condition: fall through when it holds, jump to `on_false`
    /// otherwise.
    Check {
        /// The condition over (C, M).
        cond: Cond,
        /// Jump target when the condition is false (first instruction after
        /// the then-branch, or into the else-branch when one exists).
        on_false: usize,
        /// `describe()` of enclosing CHECKs, outermost first.
        frames: Vec<String>,
    },
    /// Unconditional jump (closes a then-branch that is followed by an
    /// else-branch). Free: consumes no op budget and records no trace.
    Jump {
        /// Target instruction index.
        target: usize,
    },
}

impl LoweredOp {
    /// Compact one-line rendering in the paper's notation.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            LoweredOp::Leaf { op, .. } => op.describe(),
            LoweredOp::Check { cond, on_false, .. } => {
                format!("CHECK[{cond}] else -> {on_false:04}")
            }
            LoweredOp::Jump { target } => format!("JUMP -> {target:04}"),
        }
    }
}

/// A pipeline lowered to a flat instruction list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoweredPlan {
    /// Name of the source pipeline (used in traces).
    pub name: String,
    /// `Pipeline::size()` of the source — the op count the trace's
    /// `PipelineStart` event reports (jumps are not counted).
    pub source_size: u64,
    /// The instructions.
    pub ops: Vec<LoweredOp>,
}

impl LoweredPlan {
    /// The plan's **cache-affinity seed**: a stable identity for the prompt
    /// prefix its first generation will prefill, or `None` when the plan
    /// only uses opaque ad-hoc prompts.
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
    /// - the first `REF[CREATE, from_view]` instruction →
    ///   `view:{name}#{param_hash:x}`,
    /// - else the first GEN over an inline view or an identity-carrying
    ///   lowered template → that identity,
    /// - else the first `REF[CREATE, set_text]` → `text:{fnv1a(text):x}`
    ///   (identical base texts share a prefix even without a view),
    /// - else `None`: nothing about the plan predicts prefix reuse.
    ///
    /// The text is folded into the hash as it is formatted, so computing
    /// the seed allocates nothing.
    #[must_use]
    pub fn affinity_seed(&self) -> Option<u64> {
        use std::fmt::Write as _;
        let mut seed = crate::identity::Fnv1aSink::new();
        for instr in &self.ops {
            let LoweredOp::Leaf { op, .. } = instr else {
                continue;
            };
            let _ = match op {
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

    /// Structural fingerprint of the whole plan (DESIGN.md §17): name,
    /// op count and every instruction, literals kept apart by type. The
    /// serving layer keys its compilation cache on it, so structurally
    /// different plans get different programs unless their 64-bit hashes
    /// collide.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::identity::stable_hash(self)
    }
}

/// Lower a pipeline into the flat IR.
///
/// Lowering fails closed: before a plan is released it passes the
/// structural self-check of [`crate::analysis::verify_structural`], so a
/// malformed branch shape can never leak an unpatched
/// `Jump { target: usize::MAX }` placeholder (or any other bad target)
/// into the executor.
///
/// # Errors
///
/// Returns [`crate::error::SpearError::InvalidPlan`] carrying the
/// structural diagnostics when the emitted slot program is malformed.
pub fn lower(pipeline: &Pipeline) -> crate::error::Result<LoweredPlan> {
    let mut ops = Vec::new();
    lower_ops(&pipeline.ops, None, &mut Vec::new(), &mut ops);
    release(LoweredPlan {
        name: pipeline.name.clone(),
        source_size: pipeline.size(),
        ops,
    })
}

/// The fail-closed gate between emitting instructions and handing the
/// plan to callers.
fn release(plan: LoweredPlan) -> crate::error::Result<LoweredPlan> {
    let diagnostics = crate::analysis::verify_structural(&plan);
    if diagnostics
        .iter()
        .any(crate::analysis::Diagnostic::is_error)
    {
        return Err(crate::error::SpearError::InvalidPlan {
            plan: plan.name,
            diagnostics,
        });
    }
    Ok(plan)
}

fn lower_ops(
    ops: &[Op],
    trigger: Option<&str>,
    frames: &mut Vec<String>,
    out: &mut Vec<LoweredOp>,
) {
    for op in ops {
        match op {
            Op::Check {
                cond,
                then_ops,
                else_ops,
            } => {
                let check_at = out.len();
                out.push(LoweredOp::Check {
                    cond: cond.clone(),
                    on_false: usize::MAX, // patched below
                    frames: frames.clone(),
                });
                let cond_text = cond.to_string();
                frames.push(op.describe());
                lower_ops(then_ops, Some(&cond_text), frames, out);
                let on_false = if else_ops.is_empty() {
                    out.len()
                } else {
                    let jump_at = out.len();
                    out.push(LoweredOp::Jump { target: usize::MAX });
                    let else_start = out.len();
                    let negated = format!("!({cond_text})");
                    lower_ops(else_ops, Some(&negated), frames, out);
                    let end = out.len();
                    out[jump_at] = LoweredOp::Jump { target: end };
                    else_start
                };
                frames.pop();
                // A non-Check here would mean the branch shape went wrong;
                // leave the placeholder in place and let `release()` turn
                // it into an `InvalidPlan` error instead of panicking.
                if let LoweredOp::Check { on_false: slot, .. } = &mut out[check_at] {
                    *slot = on_false;
                }
            }
            other => out.push(LoweredOp::Leaf {
                op: other.clone(),
                trigger: trigger.map(str::to_string),
                frames: frames.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;

    #[test]
    fn straight_line_pipelines_lower_to_leaves() {
        let p = Pipeline::builder("flat")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let lowered = lower(&p).unwrap();
        assert_eq!(lowered.name, "flat");
        assert_eq!(lowered.source_size, 2);
        assert_eq!(lowered.ops.len(), 2);
        assert!(lowered.ops.iter().all(
            |op| matches!(op, LoweredOp::Leaf { trigger: None, frames, .. } if frames.is_empty())
        ));
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
        assert_eq!(lowered.ops.len(), 5);
        let LoweredOp::Check { on_false, .. } = &lowered.ops[1] else {
            panic!("check at 1: {:?}", lowered.ops)
        };
        assert_eq!(*on_false, 4, "false skips straight to the trailing gen");
        // Branch leaves carry the trigger and the enclosing frame.
        let LoweredOp::Leaf {
            trigger, frames, ..
        } = &lowered.ops[2]
        else {
            panic!("leaf at 2")
        };
        assert_eq!(trigger.as_deref(), Some("true"));
        assert_eq!(frames, &["CHECK[true]".to_string()]);
        // The trailing gen is back at top level.
        let LoweredOp::Leaf {
            trigger, frames, ..
        } = &lowered.ops[4]
        else {
            panic!("leaf at 4")
        };
        assert!(trigger.is_none() && frames.is_empty());
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
        assert_eq!(lowered.ops.len(), 5);
        let LoweredOp::Check { on_false, .. } = &lowered.ops[1] else {
            panic!("check at 1")
        };
        assert_eq!(*on_false, 4, "false enters the else branch");
        assert_eq!(lowered.ops[3], LoweredOp::Jump { target: 5 });
        let LoweredOp::Leaf { trigger, .. } = &lowered.ops[4] else {
            panic!("leaf at 4")
        };
        assert_eq!(trigger.as_deref(), Some("!(true)"));
    }

    #[test]
    fn nested_checks_stack_frames_outermost_first() {
        let p = Pipeline::builder("nest")
            .check(Cond::Always, |b| {
                b.check(Cond::Never, |b| b.expand("p", "x"))
            })
            .build();
        let lowered = lower(&p).unwrap();
        let LoweredOp::Leaf { frames, .. } = &lowered.ops[2] else {
            panic!("innermost leaf at 2: {:?}", lowered.ops)
        };
        assert_eq!(
            frames,
            &["CHECK[true]".to_string(), "CHECK[false]".to_string()]
        );
        let LoweredOp::Check { frames, .. } = &lowered.ops[1] else {
            panic!("inner check at 1")
        };
        assert_eq!(frames, &["CHECK[true]".to_string()]);
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
        // return Err instead of releasing the plan to the executor.
        let leaked = LoweredPlan {
            name: "leaky".into(),
            source_size: 1,
            ops: vec![LoweredOp::Jump { target: usize::MAX }],
        };
        let err = release(leaked).unwrap_err();
        let crate::error::SpearError::InvalidPlan { plan, diagnostics } = err else {
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
        for op in &lowered.ops {
            match op {
                LoweredOp::Jump { target } => assert_ne!(*target, usize::MAX),
                LoweredOp::Check { on_false, .. } => assert_ne!(*on_false, usize::MAX),
                LoweredOp::Leaf { .. } => {}
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

    #[test]
    fn lowered_plans_serialize_roundtrip() {
        let p = Pipeline::builder("s")
            .create_text("p", "base", RefinementMode::Manual)
            .check(Cond::low_confidence(0.5), |b| b.expand("p", "x"))
            .build();
        let lowered = lower(&p).unwrap();
        let json = serde_json::to_string(&lowered).unwrap();
        let back: LoweredPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(lowered, back);
    }
}
