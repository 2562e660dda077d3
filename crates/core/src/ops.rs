//! The SPEAR prompt algebra: core operators as data (paper §3.3).
//!
//! "At the heart of SPEAR is a prompt algebra that manipulates the prompt P,
//! context C, and metadata M in a structured way. This algebra is *closed
//! under composition* in that each of its operators consumes and produces
//! the triple (P, C, M)."
//!
//! Operators are plain serializable data — the executor in
//! [`crate::runtime`] interprets them. Keeping the algebra first-order is
//! what makes pipelines loggable, optimizable (see `spear-optimizer`), and
//! compilable from SPEAR-DL.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::condition::Cond;
use crate::history::{RefAction, RefinementMode};
use crate::llm::GenOptions;
use crate::retriever::RetrievalQuery;
use crate::template::PromptText;
use crate::value::Value;

/// How GEN (and prompt-based RET) names its prompt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PromptRef {
    /// A named entry in P — structured, versioned, cacheable.
    Key(String),
    /// An ad-hoc string (may contain `{{ctx:...}}` placeholders), parsed
    /// when the operator is built. Opaque to the optimizer and the prefix
    /// cache — this is the baseline the paper compares against.
    Inline(PromptText),
    /// Instantiate a view on the fly without storing it in P.
    View {
        /// View name.
        name: String,
        /// Instantiation arguments.
        args: BTreeMap<String, Value>,
    },
    /// A pre-rendered template emitted by plan lowering (e.g. the
    /// optimizer fusing semantic stages into one GEN). The text may contain
    /// `{{ctx:...}}` placeholders; unlike `Inline`, the lowering step can
    /// attach the source plan's structured identity, keeping such prompts
    /// cacheable (structure gates caching).
    Lowered {
        /// Template text, parsed when the operator is built.
        text: PromptText,
        /// Structured identity inherited from the source plan; `None`
        /// means opaque.
        identity: Option<String>,
    },
}

impl PromptRef {
    /// Convenience: a key reference.
    #[must_use]
    pub fn key(k: impl Into<String>) -> Self {
        PromptRef::Key(k.into())
    }
}

/// How MERGE reconciles two prompt fragments (paper §3.3: "selecting one
/// prompt, combining fragments from both, or choosing the most effective
/// version based on runtime metadata such as confidence or latency").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MergePolicy {
    /// Keep the left fragment.
    PreferLeft,
    /// Keep the right fragment.
    PreferRight,
    /// Concatenate left then right with a separator.
    Concat {
        /// Separator between the fragments.
        separator: String,
    },
    /// Choose by comparing two metadata signals (e.g. per-branch
    /// confidence); falls back to left when either signal is missing.
    BySignal {
        /// Signal scoring the left fragment.
        left_signal: String,
        /// Signal scoring the right fragment.
        right_signal: String,
    },
}

/// What DELEGATE sends to the agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PayloadSpec {
    /// A context entry (`DELEGATE["validation_agent", C["answer_1"]]`).
    CtxKey(String),
    /// The rendered text of a prompt entry.
    PromptKey(String),
    /// A literal value.
    Lit(Value),
}

/// One operator of the algebra.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// `RET[source]` — retrieve data into C.
    Ret {
        /// Registered retriever name.
        source: String,
        /// Structured query (ignored when `prompt` is set).
        query: RetrievalQuery,
        /// Optional prompt key for prompt-based retrieval; rendered at
        /// execution time, so REF can refine retrieval intent (paper §2:
        /// `RET["med_context", prompt: P["retrieve_meds_72hr"]]`).
        prompt: Option<String>,
        /// Context key to write results into.
        into: String,
        /// Maximum documents.
        limit: usize,
    },
    /// `GEN[label]` — invoke the LLM; result lands in `C[label]`.
    Gen {
        /// Context key for the generation.
        label: String,
        /// The prompt.
        prompt: PromptRef,
        /// Generation options.
        options: GenOptions,
    },
    /// `REF[action, f]` — construct or refine `P[target]`.
    Ref {
        /// Prompt key to refine.
        target: String,
        /// Action type recorded in the ref_log.
        action: RefAction,
        /// Registered refiner name (the function `f`).
        refiner: String,
        /// Per-application refiner arguments.
        args: Value,
        /// Refinement mode (manual / assisted / auto).
        mode: RefinementMode,
    },
    /// `CHECK[cond, f]` — conditional execution.
    Check {
        /// The condition over (C, M).
        cond: Cond,
        /// Operators to run when the condition holds. REF operators inside
        /// inherit the condition as their ref_log `trigger`.
        then_ops: Vec<Op>,
        /// Operators to run otherwise.
        else_ops: Vec<Op>,
    },
    /// `MERGE[P_1, P_2]` — reconcile two prompt fragments into one.
    Merge {
        /// Left prompt key.
        left: String,
        /// Right prompt key.
        right: String,
        /// Destination prompt key.
        into: String,
        /// Reconciliation policy.
        policy: MergePolicy,
    },
    /// `DELEGATE[agent, payload]` — offload a subtask; result lands in C.
    Delegate {
        /// Registered agent name.
        agent: String,
        /// Payload to send.
        payload: PayloadSpec,
        /// Context key for the agent's result.
        into: String,
    },
}

impl Op {
    /// Short operator name for traces (`"RET"`, `"GEN"`, …).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Ret { .. } => "RET",
            Op::Gen { .. } => "GEN",
            Op::Ref { .. } => "REF",
            Op::Check { .. } => "CHECK",
            Op::Merge { .. } => "MERGE",
            Op::Delegate { .. } => "DELEGATE",
        }
    }

    /// Total number of operators including nested CHECK branches — used by
    /// the executor's op budget and by optimizer cost estimates.
    #[must_use]
    pub fn size(&self) -> u64 {
        match self {
            Op::Check {
                then_ops, else_ops, ..
            } => {
                1 + then_ops.iter().map(Op::size).sum::<u64>()
                    + else_ops.iter().map(Op::size).sum::<u64>()
            }
            _ => 1,
        }
    }

    /// Compact one-line rendering in the paper's notation.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Op::Ret {
                source,
                prompt,
                into,
                ..
            } => match prompt {
                Some(p) => format!("RET[{source:?}, prompt: P[{p:?}]] -> C[{into:?}]"),
                None => format!("RET[{source:?}] -> C[{into:?}]"),
            },
            Op::Gen { label, prompt, .. } => match prompt {
                PromptRef::Key(k) => format!("GEN[{label:?}] using P[{k:?}]"),
                PromptRef::Inline(_) => format!("GEN[{label:?}] using inline prompt"),
                PromptRef::Lowered { .. } => {
                    format!("GEN[{label:?}] using lowered prompt")
                }
                PromptRef::View { name, .. } => {
                    format!("GEN[{label:?}] using VIEW[{name:?}]")
                }
            },
            Op::Ref {
                target,
                action,
                refiner,
                ..
            } => format!("REF[{action}, {refiner}] on P[{target:?}]"),
            Op::Check { cond, .. } => format!("CHECK[{cond}]"),
            Op::Merge {
                left, right, into, ..
            } => format!("MERGE[P[{left:?}], P[{right:?}]] -> P[{into:?}]"),
            Op::Delegate { agent, into, .. } => {
                format!("DELEGATE[{agent:?}] -> C[{into:?}]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_check() -> Op {
        Op::Check {
            cond: Cond::low_confidence(0.7),
            then_ops: vec![
                Op::Ref {
                    target: "qa_prompt".into(),
                    action: RefAction::Update,
                    refiner: "auto_refine".into(),
                    args: Value::Null,
                    mode: RefinementMode::Auto,
                },
                Op::Gen {
                    label: "answer_1".into(),
                    prompt: PromptRef::key("qa_prompt"),
                    options: GenOptions::default(),
                },
            ],
            else_ops: vec![],
        }
    }

    #[test]
    fn kind_and_size() {
        let check = sample_check();
        assert_eq!(check.kind(), "CHECK");
        assert_eq!(check.size(), 3);
        assert_eq!(
            Op::Delegate {
                agent: "v".into(),
                payload: PayloadSpec::CtxKey("answer_1".into()),
                into: "evidence_score".into(),
            }
            .size(),
            1
        );
    }

    #[test]
    fn describe_uses_paper_notation() {
        assert_eq!(sample_check().describe(), "CHECK[M[\"confidence\"] < 0.7]");
        let ret = Op::Ret {
            source: "order_lookup".into(),
            query: RetrievalQuery::All,
            prompt: Some("retrieve_meds_72hr".into()),
            into: "med_context".into(),
            limit: 10,
        };
        assert!(ret.describe().contains("prompt: P[\"retrieve_meds_72hr\"]"));
    }

    #[test]
    fn ops_serialize_roundtrip() {
        let op = sample_check();
        let json = serde_json::to_string(&op).unwrap();
        let back: Op = serde_json::from_str(&json).unwrap();
        assert_eq!(op, back);
    }

    #[test]
    fn merge_policies_roundtrip() {
        for policy in [
            MergePolicy::PreferLeft,
            MergePolicy::PreferRight,
            MergePolicy::Concat {
                separator: "\n".into(),
            },
            MergePolicy::BySignal {
                left_signal: "confidence:a".into(),
                right_signal: "confidence:b".into(),
            },
        ] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: MergePolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(policy, back);
        }
    }
}
