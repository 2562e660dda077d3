//! Structural identity: one stable hash over the IR and trace types.
//!
//! [`crate::plan::LoweredPlan::fingerprint`] (the program-cache key) and
//! [`crate::trace::Trace::digest`] (the determinism witness) both fold a
//! value's structure straight into FNV-1a with [`StableHash`]: no
//! serialization, no formatting, no allocation. The encoding is fixed so
//! that a fingerprint means the same thing in every process and release:
//!
//! - struct fields in declaration order;
//! - one tag byte per enum variant, numbered in declaration order, before
//!   the variant's fields;
//! - integers as little-endian bytes (`usize` widened to `u64`), floats by
//!   their IEEE-754 bit pattern, `bool` as one byte;
//! - strings, sequences and maps prefixed with their length as a `u64`;
//!   maps in key order, each key before its value;
//! - `Option` as tag 0 (`None`) or tag 1 followed by the value.
//!
//! Unlike the JSON text this replaced, the encoding keeps `Value::Int(1)`
//! and `Value::Float(1.0)` apart (distinct tags), and `0.0` from `-0.0`.
//! DESIGN.md §17 lists which identities use it and which stay as they are.

use std::collections::BTreeMap;

use spear_kv::shard::{fnv1a_extend, FNV1A_OFFSET};

use crate::condition::{CmpOp, Cond, Operand};
use crate::history::{RefAction, RefinementMode};
use crate::llm::GenOptions;
use crate::ops::{MergePolicy, Op, PayloadSpec, PromptRef};
use crate::plan::{LoweredOp, LoweredPlan};
use crate::retriever::RetrievalQuery;
use crate::trace::{TraceEvent, TraceKind};
use crate::value::Value;

/// A value with a stable structural encoding, folded into an FNV-1a state.
pub trait StableHash {
    /// Fold this value's encoding into the in-progress FNV-1a state `h`.
    #[must_use]
    fn stable_hash(&self, h: u64) -> u64;
}

/// The structural hash of `value`, from the FNV-1a offset basis.
#[must_use]
pub fn stable_hash<T: StableHash + ?Sized>(value: &T) -> u64 {
    value.stable_hash(FNV1A_OFFSET)
}

/// Fold one enum-variant tag.
fn tag(h: u64, tag: u8) -> u64 {
    fnv1a_extend(h, &[tag])
}

impl StableHash for bool {
    fn stable_hash(&self, h: u64) -> u64 {
        tag(h, u8::from(*self))
    }
}

impl StableHash for u32 {
    fn stable_hash(&self, h: u64) -> u64 {
        fnv1a_extend(h, &self.to_le_bytes())
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, h: u64) -> u64 {
        fnv1a_extend(h, &self.to_le_bytes())
    }
}

impl StableHash for usize {
    fn stable_hash(&self, h: u64) -> u64 {
        (*self as u64).stable_hash(h)
    }
}

impl StableHash for i64 {
    fn stable_hash(&self, h: u64) -> u64 {
        fnv1a_extend(h, &self.to_le_bytes())
    }
}

impl StableHash for f64 {
    fn stable_hash(&self, h: u64) -> u64 {
        self.to_bits().stable_hash(h)
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: u64) -> u64 {
        fnv1a_extend(self.len().stable_hash(h), self.as_bytes())
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: u64) -> u64 {
        self.as_str().stable_hash(h)
    }
}

impl<T: StableHash + ?Sized> StableHash for Box<T> {
    fn stable_hash(&self, h: u64) -> u64 {
        (**self).stable_hash(h)
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            None => tag(h, 0),
            Some(v) => v.stable_hash(tag(h, 1)),
        }
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: u64) -> u64 {
        self.iter()
            .fold(self.len().stable_hash(h), |h, item| item.stable_hash(h))
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: u64) -> u64 {
        self.as_slice().stable_hash(h)
    }
}

impl<K: StableHash, V: StableHash> StableHash for BTreeMap<K, V> {
    fn stable_hash(&self, h: u64) -> u64 {
        self.iter().fold(self.len().stable_hash(h), |h, (k, v)| {
            v.stable_hash(k.stable_hash(h))
        })
    }
}

impl StableHash for Value {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            Value::Null => tag(h, 0),
            Value::Bool(b) => b.stable_hash(tag(h, 1)),
            Value::Int(i) => i.stable_hash(tag(h, 2)),
            Value::Float(f) => f.stable_hash(tag(h, 3)),
            Value::Str(s) => s.stable_hash(tag(h, 4)),
            Value::List(items) => items.stable_hash(tag(h, 5)),
            Value::Map(m) => m.stable_hash(tag(h, 6)),
        }
    }
}

impl StableHash for CmpOp {
    fn stable_hash(&self, h: u64) -> u64 {
        tag(
            h,
            match self {
                CmpOp::Lt => 0,
                CmpOp::Le => 1,
                CmpOp::Gt => 2,
                CmpOp::Ge => 3,
                CmpOp::Eq => 4,
                CmpOp::Ne => 5,
            },
        )
    }
}

impl StableHash for Operand {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            Operand::Signal(k) => k.stable_hash(tag(h, 0)),
            Operand::Ctx(k) => k.stable_hash(tag(h, 1)),
            Operand::Lit(v) => v.stable_hash(tag(h, 2)),
        }
    }
}

impl StableHash for Cond {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            Cond::Always => tag(h, 0),
            Cond::Never => tag(h, 1),
            Cond::Cmp { lhs, op, rhs } => {
                rhs.stable_hash(op.stable_hash(lhs.stable_hash(tag(h, 2))))
            }
            Cond::InContext(k) => k.stable_hash(tag(h, 3)),
            Cond::NotInContext(k) => k.stable_hash(tag(h, 4)),
            Cond::HasSignal(k) => k.stable_hash(tag(h, 5)),
            Cond::Truthy(operand) => operand.stable_hash(tag(h, 6)),
            Cond::Not(inner) => inner.stable_hash(tag(h, 7)),
            Cond::All(parts) => parts.stable_hash(tag(h, 8)),
            Cond::Any(parts) => parts.stable_hash(tag(h, 9)),
        }
    }
}

impl StableHash for RefAction {
    fn stable_hash(&self, h: u64) -> u64 {
        tag(
            h,
            match self {
                RefAction::Create => 0,
                RefAction::Append => 1,
                RefAction::Prepend => 2,
                RefAction::Update => 3,
                RefAction::Merge => 4,
                RefAction::Rollback => 5,
            },
        )
    }
}

impl StableHash for RefinementMode {
    fn stable_hash(&self, h: u64) -> u64 {
        tag(
            h,
            match self {
                RefinementMode::Manual => 0,
                RefinementMode::Assisted => 1,
                RefinementMode::Auto => 2,
            },
        )
    }
}

impl StableHash for GenOptions {
    fn stable_hash(&self, h: u64) -> u64 {
        let GenOptions {
            max_tokens,
            temperature,
            task,
        } = self;
        task.stable_hash(temperature.stable_hash(max_tokens.stable_hash(h)))
    }
}

impl StableHash for RetrievalQuery {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            RetrievalQuery::All => tag(h, 0),
            RetrievalQuery::Structured(filters) => filters.stable_hash(tag(h, 1)),
            RetrievalQuery::Prompt(text) => text.stable_hash(tag(h, 2)),
        }
    }
}

impl StableHash for PromptRef {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            PromptRef::Key(k) => k.stable_hash(tag(h, 0)),
            PromptRef::Inline(text) => text.stable_hash(tag(h, 1)),
            PromptRef::View { name, args } => args.stable_hash(name.stable_hash(tag(h, 2))),
            PromptRef::Lowered { text, identity } => {
                identity.stable_hash(text.stable_hash(tag(h, 3)))
            }
        }
    }
}

impl StableHash for MergePolicy {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            MergePolicy::PreferLeft => tag(h, 0),
            MergePolicy::PreferRight => tag(h, 1),
            MergePolicy::Concat { separator } => separator.stable_hash(tag(h, 2)),
            MergePolicy::BySignal {
                left_signal,
                right_signal,
            } => right_signal.stable_hash(left_signal.stable_hash(tag(h, 3))),
        }
    }
}

impl StableHash for PayloadSpec {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            PayloadSpec::CtxKey(k) => k.stable_hash(tag(h, 0)),
            PayloadSpec::PromptKey(k) => k.stable_hash(tag(h, 1)),
            PayloadSpec::Lit(v) => v.stable_hash(tag(h, 2)),
        }
    }
}

impl StableHash for Op {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            Op::Ret {
                source,
                query,
                prompt,
                into,
                limit,
            } => {
                let h = source.stable_hash(tag(h, 0));
                let h = query.stable_hash(h);
                let h = prompt.stable_hash(h);
                limit.stable_hash(into.stable_hash(h))
            }
            Op::Gen {
                label,
                prompt,
                options,
            } => options.stable_hash(prompt.stable_hash(label.stable_hash(tag(h, 1)))),
            Op::Ref {
                target,
                action,
                refiner,
                args,
                mode,
            } => {
                let h = target.stable_hash(tag(h, 2));
                let h = action.stable_hash(h);
                let h = refiner.stable_hash(h);
                mode.stable_hash(args.stable_hash(h))
            }
            Op::Check {
                cond,
                then_ops,
                else_ops,
            } => else_ops.stable_hash(then_ops.stable_hash(cond.stable_hash(tag(h, 3)))),
            Op::Merge {
                left,
                right,
                into,
                policy,
            } => {
                let h = left.stable_hash(tag(h, 4));
                let h = right.stable_hash(h);
                policy.stable_hash(into.stable_hash(h))
            }
            Op::Delegate {
                agent,
                payload,
                into,
            } => into.stable_hash(payload.stable_hash(agent.stable_hash(tag(h, 5)))),
        }
    }
}

impl StableHash for LoweredOp {
    fn stable_hash(&self, h: u64) -> u64 {
        match self {
            LoweredOp::Leaf {
                op,
                trigger,
                frames,
            } => frames.stable_hash(trigger.stable_hash(op.stable_hash(tag(h, 0)))),
            LoweredOp::Check {
                cond,
                on_false,
                frames,
            } => frames.stable_hash(on_false.stable_hash(cond.stable_hash(tag(h, 1)))),
            LoweredOp::Jump { target } => target.stable_hash(tag(h, 2)),
        }
    }
}

impl StableHash for LoweredPlan {
    fn stable_hash(&self, h: u64) -> u64 {
        let LoweredPlan {
            name,
            source_size,
            ops,
        } = self;
        ops.stable_hash(source_size.stable_hash(name.stable_hash(h)))
    }
}

impl StableHash for TraceKind {
    fn stable_hash(&self, h: u64) -> u64 {
        tag(
            h,
            match self {
                TraceKind::PipelineStart => 0,
                TraceKind::PipelineEnd => 1,
                TraceKind::Ret => 2,
                TraceKind::Gen => 3,
                TraceKind::Ref => 4,
                TraceKind::CheckTaken => 5,
                TraceKind::CheckSkipped => 6,
                TraceKind::Merge => 7,
                TraceKind::Delegate => 8,
                TraceKind::Error => 9,
            },
        )
    }
}

impl StableHash for TraceEvent {
    fn stable_hash(&self, h: u64) -> u64 {
        let TraceEvent {
            seq,
            step,
            kind,
            op,
            detail,
        } = self;
        let h = step.stable_hash(seq.stable_hash(h));
        detail.stable_hash(op.stable_hash(kind.stable_hash(h)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_follow_the_documented_encoding() {
        let fnv = |bytes: &[u8]| fnv1a_extend(FNV1A_OFFSET, bytes);
        assert_eq!(stable_hash(&7u64), fnv(&7u64.to_le_bytes()));
        assert_eq!(stable_hash(&7usize), stable_hash(&7u64));
        assert_eq!(stable_hash(&1.5f64), fnv(&1.5f64.to_bits().to_le_bytes()));
        assert_eq!(stable_hash(&true), fnv(&[1]));
        let mut ab = 2u64.to_le_bytes().to_vec();
        ab.extend_from_slice(b"ab");
        assert_eq!(stable_hash("ab"), fnv(&ab));
        assert_eq!(stable_hash(&None::<u64>), fnv(&[0]));
        let mut some = vec![1];
        some.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(stable_hash(&Some(7u64)), fnv(&some));
    }

    #[test]
    fn values_that_json_conflates_stay_apart() {
        let int = stable_hash(&Value::Int(1));
        assert_ne!(int, stable_hash(&Value::Float(1.0)));
        assert_ne!(
            stable_hash(&Value::Float(0.0)),
            stable_hash(&Value::Float(-0.0))
        );
        assert_ne!(
            stable_hash(&Value::Null),
            stable_hash(&Value::Float(f64::NAN))
        );
        assert_eq!(int, stable_hash(&Value::Int(1)));
    }

    #[test]
    fn length_prefixes_keep_boundaries() {
        // Without the prefixes both pairs would fold the same bytes.
        assert_ne!(
            stable_hash(&vec!["ab".to_string(), "c".to_string()]),
            stable_hash(&vec!["a".to_string(), "bc".to_string()])
        );
        assert_ne!(
            stable_hash(&Value::List(vec![Value::List(vec![]), Value::Null])),
            stable_hash(&Value::List(vec![Value::List(vec![Value::Null])]))
        );
    }
}
