//! Structured execution logging (paper §6: "the runtime also supports
//! shadow execution, structured logging, and refinement replay, enabling
//! traceability and introspection for prompt evolution").

use serde::{Deserialize, Serialize};

use crate::error::SpearError;
use crate::value::Value;

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
    pub op: String,
    /// Structured payload (tokens, latency, condition text, …).
    pub detail: Value,
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
    pub fn record(&mut self, step: u64, kind: TraceKind, op: String, detail: Value) {
        let seq = self.events.len() as u64;
        self.events.push(TraceEvent {
            seq,
            step,
            kind,
            op,
            detail,
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
        assert_eq!(gen.detail.path("tokens").unwrap().as_i64(), Some(42));
    }
}
