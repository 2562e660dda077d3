//! Structured execution logging (paper §6: "the runtime also supports
//! shadow execution, structured logging, and refinement replay, enabling
//! traceability and introspection for prompt evolution").
//!
//! ## What an event owns
//!
//! An event is its sequence number, step and kind, its op line and its
//! payload. Recording one copies no text the program already holds and
//! builds no map:
//!
//! - the op line is an `Arc<str>`. A data operator's own line
//!   (`GEN["x"]`, `REF[..] on P[..]`) is formatted per event straight
//!   into its one allocation (`shared`); a CHECK event, and every error
//!   unwind frame through a check, shares the check's `CHECK[..]` label,
//!   formatted once at lowering ([`crate::vm::CheckSpec`]); the two
//!   `pipeline "name"` lines of a run share one allocation;
//! - the payload is a typed [`Detail`]: GEN's usage, confidence, latency
//!   and model (the response's own `String`, moved), REF's mode, version
//!   and [`Trigger`] (the enclosing branch's text, shared from its check),
//!   counts and flags inline, and one error message shared by every frame
//!   its unwind records.
//!
//! A payload's `Value` form — the map or scalar this log has always
//! recorded — is rendered only where it is read ([`Detail::to_value`]:
//! JSON Lines, serde, tests), and its structural hash folds exactly that
//! form's bytes, so [`Trace::digest`] and every JSONL byte are those of
//! the `Value` payloads it replaced.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use serde::{Content, DeError, Deserialize, Serialize};

use crate::error::SpearError;
use crate::history::RefinementMode;
use crate::metadata::TokenUsage;
use crate::value::Value;
use crate::vm::Branch;

/// What a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Pipeline started.
    PipelineStart,
    /// Pipeline finished.
    PipelineEnd,
    /// RET executed.
    Ret,
    /// GEN executed.
    Gen,
    /// REF executed.
    Ref,
    /// CHECK evaluated true; then-branch ran.
    CheckTaken,
    /// CHECK evaluated false; else-branch (possibly empty) ran.
    CheckSkipped,
    /// MERGE executed.
    Merge,
    /// DELEGATE executed.
    Delegate,
    /// An operator failed (the error is re-raised after logging).
    Error,
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic event sequence within the trace.
    pub seq: u64,
    /// Executor step (operator index) the event belongs to.
    pub step: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Operator description in paper notation.
    pub op: Arc<str>,
    /// Structured payload (tokens, latency, condition text, …).
    pub detail: Detail,
}

/// An event's payload, typed by the shape its operator records. Equality,
/// serialization and the structural hash all go through its `Value` form
/// ([`Detail::to_value`]), so a typed payload and the `Value` it renders
/// to are interchangeable.
#[derive(Debug, Clone)]
pub enum Detail {
    /// RET: `{"count": ..}`.
    Ret {
        /// Documents retrieved.
        count: usize,
    },
    /// GEN: `{"cached_tokens", "completion_tokens", "confidence",
    /// "latency_us", "model", "prompt_tokens"}`.
    Gen {
        /// The model that answered.
        model: String,
        /// Its confidence.
        confidence: f64,
        /// Its token usage.
        usage: TokenUsage,
        /// Its latency in microseconds.
        latency_us: u64,
    },
    /// REF: `{"mode", "trigger", "version"}`.
    Ref {
        /// The refinement mode.
        mode: RefinementMode,
        /// The version it stored, 0 when it stored none.
        version: u64,
        /// The enclosing branch's trigger, `None` at top level.
        trigger: Option<Trigger>,
    },
    /// An error message, shared by every event one unwind records.
    Message(Arc<str>),
    /// MERGE's choice: `"left"`, `"right"` or `"concat"`.
    Choice(&'static str),
    /// Any other value: a flag, a size or `null`, what
    /// [`Trace::from_jsonl`] parses, and what callers of [`Trace::record`]
    /// pass.
    Value(Value),
}

/// The condition text a REF records as its trigger, shared with the CHECK
/// whose branch ran it: a then-branch's text is the check's `CHECK[..]`
/// label read without its brackets, an else-branch's the check's
/// `!({cond})`.
#[derive(Debug, Clone)]
pub struct Trigger {
    text: Arc<str>,
    branch: Branch,
}

impl Trigger {
    /// The trigger of `branch`, whose text is `text`: the check's label
    /// for a then-branch, its negation for an else-branch.
    pub(crate) fn new(text: &Arc<str>, branch: Branch) -> Self {
        Self {
            text: Arc::clone(text),
            branch,
        }
    }

    /// The condition text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        branch_text(&self.text, self.branch)
    }
}

/// The trigger text of `branch` from the text its check holds for it.
pub(crate) fn branch_text(text: &str, branch: Branch) -> &str {
    match branch {
        Branch::Then => text
            .strip_prefix("CHECK[")
            .and_then(|cond| cond.strip_suffix(']'))
            .unwrap_or(text),
        Branch::Else => text,
    }
}

/// A scalar of a payload's `Value` form, borrowed from the payload.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scalar<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl Scalar<'_> {
    fn to_value(self) -> Value {
        match self {
            Scalar::Null => Value::Null,
            Scalar::Int(i) => Value::Int(i),
            Scalar::Float(f) => Value::Float(f),
            Scalar::Str(s) => Value::from(s),
        }
    }
}

/// A payload's `Value` form, borrowed: a scalar, a map's entries in key
/// order, or a value as it is.
pub(crate) enum Form<'a> {
    Scalar(Scalar<'a>),
    Map(&'a [(&'static str, Scalar<'a>)]),
    Value(&'a Value),
}

/// A count as `Value::from` stores it: saturated at `i64::MAX`.
fn int(n: u64) -> Scalar<'static> {
    Scalar::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

impl Detail {
    /// Call `read` with the payload's `Value` form, built on the stack.
    pub(crate) fn form<R>(&self, read: impl FnOnce(Form<'_>) -> R) -> R {
        match self {
            Detail::Ret { count } => read(Form::Map(&[("count", int(*count as u64))])),
            Detail::Gen {
                model,
                confidence,
                usage,
                latency_us,
            } => read(Form::Map(&[
                ("cached_tokens", int(usage.cached_tokens)),
                ("completion_tokens", int(usage.completion_tokens)),
                ("confidence", Scalar::Float(*confidence)),
                ("latency_us", int(*latency_us)),
                ("model", Scalar::Str(model)),
                ("prompt_tokens", int(usage.prompt_tokens)),
            ])),
            Detail::Ref {
                mode,
                version,
                trigger,
            } => read(Form::Map(&[
                ("mode", Scalar::Str(mode.as_str())),
                (
                    "trigger",
                    trigger
                        .as_ref()
                        .map_or(Scalar::Null, |t| Scalar::Str(t.as_str())),
                ),
                ("version", int(*version)),
            ])),
            Detail::Message(text) => read(Form::Scalar(Scalar::Str(text))),
            Detail::Choice(choice) => read(Form::Scalar(Scalar::Str(choice))),
            Detail::Value(value) => read(Form::Value(value)),
        }
    }

    /// The payload as the `Value` it stands for.
    #[must_use]
    pub fn to_value(&self) -> Value {
        self.form(|form| match form {
            Form::Scalar(scalar) => scalar.to_value(),
            Form::Map(entries) => Value::Map(
                entries
                    .iter()
                    .map(|&(key, scalar)| (key.to_string(), scalar.to_value()))
                    .collect(),
            ),
            Form::Value(value) => value.clone(),
        })
    }
}

impl PartialEq for Detail {
    fn eq(&self, other: &Self) -> bool {
        self.to_value() == other.to_value()
    }
}

impl From<Value> for Detail {
    fn from(value: Value) -> Self {
        Detail::Value(value)
    }
}

impl Serialize for Detail {
    fn serialize_content(&self) -> Content {
        self.to_value().serialize_content()
    }
}

impl Deserialize for Detail {
    fn deserialize_content(content: &Content) -> Result<Self, DeError> {
        Value::deserialize_content(content).map(Detail::Value)
    }
}

/// `args` formatted straight into a shared allocation: one allocation for
/// text up to 256 bytes (formatted on the stack first), two beyond.
pub(crate) fn shared(args: fmt::Arguments<'_>) -> Arc<str> {
    struct Stack {
        buf: [u8; 256],
        len: usize,
    }
    impl fmt::Write for Stack {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let end = self.len + s.len();
            let slot = self.buf.get_mut(self.len..end).ok_or(fmt::Error)?;
            slot.copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut stack = Stack {
        buf: [0; 256],
        len: 0,
    };
    // Only whole `str`s are copied in, so the bytes are UTF-8.
    match stack
        .write_fmt(args)
        .map(|()| std::str::from_utf8(&stack.buf[..stack.len]))
    {
        Ok(Ok(text)) => Arc::from(text),
        _ => Arc::from(fmt::format(args)),
    }
}

/// An append-only, queryable execution trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event, assigning its sequence number.
    pub fn record(&mut self, step: u64, kind: TraceKind, op: Arc<str>, detail: impl Into<Detail>) {
        let seq = self.events.len() as u64;
        self.events.push(TraceEvent {
            seq,
            step,
            kind,
            op,
            detail: detail.into(),
        });
    }

    /// All events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of one kind.
    #[must_use]
    pub fn of_kind(&self, kind: TraceKind) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// Count of events of one kind.
    #[must_use]
    pub fn count(&self, kind: TraceKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Serialize as JSON Lines (one event per line) for durable logs.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (practically impossible for these
    /// types, but surfaced rather than swallowed).
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&serde_json::to_string(e)?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Structural digest of every event (DESIGN.md §17) — a compact
    /// fingerprint for determinism checks: traces with equal events digest
    /// equal, and payloads that differ only in type (`Int(1)` vs
    /// `Float(1.0)`) digest apart. Serving records one per completed
    /// request and the benchmark compares them to witness the "same seed ⇒
    /// same traces at any worker count" invariant without holding every
    /// trace in memory.
    ///
    /// # Errors
    ///
    /// Never fails: the `Result` is kept only for callers written against
    /// the serializing digest it replaced.
    pub fn digest(&self) -> Result<u64, std::convert::Infallible> {
        Ok(crate::identity::stable_hash(&self.events))
    }

    /// Parse a JSON-Lines trace produced by [`Trace::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Fails on the first malformed line — including trailing garbage
    /// after a valid JSON object — reporting its 1-based line number via
    /// [`SpearError::TraceParse`]. Blank lines are skipped.
    pub fn from_jsonl(s: &str) -> Result<Self, SpearError> {
        let mut events = Vec::new();
        for (number, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = serde_json::from_str(line).map_err(|e| SpearError::TraceParse {
                line: number + 1,
                reason: e.to_string(),
            })?;
            events.push(event);
        }
        Ok(Self { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record(
            0,
            TraceKind::PipelineStart,
            "pipeline \"qa\"".into(),
            Value::Null,
        );
        t.record(
            1,
            TraceKind::Gen,
            "GEN[\"answer_0\"]".into(),
            crate::value::map([("tokens", Value::from(42))]),
        );
        t.record(2, TraceKind::CheckTaken, "CHECK[...]".into(), Value::Null);
        t.record(3, TraceKind::Gen, "GEN[\"answer_1\"]".into(), Value::Null);
        t.record(
            4,
            TraceKind::PipelineEnd,
            "pipeline \"qa\"".into(),
            Value::Null,
        );
        t
    }

    #[test]
    fn events_get_monotonic_seq() {
        let t = sample();
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn kind_queries() {
        let t = sample();
        assert_eq!(t.count(TraceKind::Gen), 2);
        assert_eq!(t.of_kind(TraceKind::CheckTaken).len(), 1);
        assert_eq!(t.count(TraceKind::Error), 0);
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = sample();
        let jsonl = t.to_jsonl().unwrap();
        assert_eq!(jsonl.lines().count(), 5);
        let back = Trace::from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events(), t.events());
    }

    fn digest(t: &Trace) -> u64 {
        t.digest().unwrap_or_else(|never| match never {})
    }

    #[test]
    fn digest_distinguishes_traces() {
        let t = sample();
        assert_eq!(digest(&t), digest(&sample()));
        let mut other = sample();
        other.record(5, TraceKind::Gen, "GEN[\"extra\"]".into(), Value::Null);
        assert_ne!(digest(&t), digest(&other));
    }

    #[test]
    fn digest_keeps_int_and_float_payloads_apart() {
        let with = |detail: Value| {
            let mut t = Trace::new();
            t.record(0, TraceKind::Delegate, "DELEGATE[\"v\"]".into(), detail);
            t
        };
        let (int, float) = (with(Value::Int(1)), with(Value::Float(1.0)));
        // The JSON text the digest used to hash cannot tell them apart.
        assert_eq!(int.to_jsonl().unwrap(), float.to_jsonl().unwrap());
        assert_ne!(digest(&int), digest(&float));
    }

    #[test]
    fn digest_golden_vector() {
        // Pinned: an edit to any `StableHash` impl a trace reaches moves
        // this value, and with it every recorded digest.
        assert_eq!(digest(&sample()), 0x8662_3010_5d73_325a);
    }

    #[test]
    fn detail_payload_survives() {
        let t = sample();
        let gen = &t.of_kind(TraceKind::Gen)[0];
        assert_eq!(
            gen.detail.to_value().path("tokens").unwrap().as_i64(),
            Some(42)
        );
    }

    mod typed_form {
        //! The typed payload is the `Value` the handlers built before it:
        //! the same structural hash, serde tree and JSON text, for every
        //! variant and the edge values a payload can carry.

        use proptest::prelude::*;

        use super::*;
        use crate::identity::stable_hash;
        use crate::value::map;

        /// The payload as the handlers built it when it was a `Value`.
        fn old_form(detail: &Detail) -> Value {
            match detail {
                Detail::Ret { count } => map([("count", Value::from(*count))]),
                Detail::Gen {
                    model,
                    confidence,
                    usage,
                    latency_us,
                } => map([
                    ("model", Value::from(model.clone())),
                    ("confidence", Value::from(*confidence)),
                    ("prompt_tokens", Value::from(usage.prompt_tokens)),
                    ("cached_tokens", Value::from(usage.cached_tokens)),
                    ("completion_tokens", Value::from(usage.completion_tokens)),
                    ("latency_us", Value::from(*latency_us)),
                ]),
                Detail::Ref {
                    mode,
                    version,
                    trigger,
                } => map([
                    ("mode", Value::from(mode.to_string())),
                    ("version", Value::from(*version)),
                    (
                        "trigger",
                        trigger
                            .as_ref()
                            .map_or(Value::Null, |t| Value::from(t.as_str().to_string())),
                    ),
                ]),
                Detail::Message(text) => Value::from(text.to_string()),
                Detail::Choice(choice) => Value::from(*choice),
                Detail::Value(value) => value.clone(),
            }
        }

        fn float() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(1.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                any::<f64>(),
            ]
        }

        fn count() -> impl Strategy<Value = u64> {
            prop_oneof![
                Just(0u64),
                Just(i64::MAX as u64),
                Just(i64::MAX as u64 + 1),
                Just(u64::MAX),
                0u64..4096,
                any::<u64>(),
            ]
        }

        fn trigger() -> impl Strategy<Value = Option<Trigger>> {
            (0u8..3, "[a-z0-9 <.\"]{0,12}").prop_map(|(branch, cond)| match branch {
                0 => None,
                1 => Some(Trigger::new(&format!("CHECK[{cond}]").into(), Branch::Then)),
                _ => Some(Trigger::new(&format!("!({cond})").into(), Branch::Else)),
            })
        }

        fn detail() -> impl Strategy<Value = Detail> {
            let mode = prop_oneof![
                Just(RefinementMode::Manual),
                Just(RefinementMode::Assisted),
                Just(RefinementMode::Auto),
            ];
            prop_oneof![
                Just(Detail::Value(Value::Null)),
                any::<bool>().prop_map(|b| Detail::Value(Value::Bool(b))),
                count().prop_map(|n| Detail::Value(Value::from(n))),
                count().prop_map(|n| Detail::Ret { count: n as usize }),
                (
                    "[a-z0-9.-]{0,16}",
                    float(),
                    (count(), count(), count()),
                    count()
                )
                    .prop_map(
                        |(model, confidence, (prompt, cached, completion), latency_us)| {
                            Detail::Gen {
                                model,
                                confidence,
                                usage: TokenUsage {
                                    prompt_tokens: prompt,
                                    cached_tokens: cached,
                                    completion_tokens: completion,
                                },
                                latency_us,
                            }
                        }
                    ),
                (mode, count(), trigger()).prop_map(|(mode, version, trigger)| Detail::Ref {
                    mode,
                    version,
                    trigger
                }),
                "[a-z \"]{0,24}".prop_map(|text| Detail::Message(text.into())),
                prop_oneof![Just("left"), Just("right"), Just("concat")].prop_map(Detail::Choice),
                float().prop_map(|f| Detail::Value(Value::Float(f))),
            ]
        }

        /// Whether JSON text carries `value` back unchanged: no float that
        /// is integral or not finite.
        fn json_exact(value: &Value) -> bool {
            match value {
                Value::Float(f) => f.is_finite() && f.fract() != 0.0,
                Value::List(items) => items.iter().all(json_exact),
                Value::Map(entries) => entries.values().all(json_exact),
                _ => true,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn a_payload_hashes_and_serializes_as_its_old_value(detail in detail()) {
                let old = old_form(&detail);
                prop_assert_eq!(stable_hash(&detail), stable_hash(&old));
                // Debug text, so NaN compares equal to itself.
                prop_assert_eq!(
                    format!("{:?}", detail.serialize_content()),
                    format!("{:?}", old.serialize_content())
                );
                prop_assert_eq!(
                    serde_json::to_string(&detail).ok(),
                    serde_json::to_string(&old).ok()
                );
                prop_assert_eq!(format!("{:?}", detail.to_value()), format!("{old:?}"));
            }

            #[test]
            fn a_typed_trace_digests_and_roundtrips_as_its_old_form(
                details in proptest::collection::vec(detail(), 0..8),
            ) {
                let (mut typed, mut old) = (Trace::new(), Trace::new());
                for (step, detail) in details.iter().enumerate() {
                    let op: Arc<str> = format!("OP[{step}]").into();
                    typed.record(step as u64, TraceKind::Gen, Arc::clone(&op), detail.clone());
                    old.record(step as u64, TraceKind::Gen, op, old_form(detail));
                }
                prop_assert_eq!(digest(&typed), digest(&old));
                let jsonl = typed.to_jsonl().unwrap();
                prop_assert_eq!(&jsonl, &old.to_jsonl().unwrap());
                let back = Trace::from_jsonl(&jsonl).unwrap();
                if details.iter().all(|d| json_exact(&d.to_value())) {
                    prop_assert_eq!(back.events(), typed.events());
                    prop_assert_eq!(back.to_jsonl().unwrap(), jsonl);
                }
            }
        }
    }
}
