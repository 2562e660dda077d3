//! The agent boundary used by DELEGATE.
//!
//! DELEGATE "offloads subtasks to an external agent (e.g., a coder,
//! retriever, or downstream service)" (paper §3.3). Agents receive a
//! structured payload plus a read-only view of the context and return a
//! structured value that the operator writes back into C — e.g. the paper's
//! `DELEGATE["validation_agent", C["answer_1"]] → C["evidence_score"]`.

use crate::context::Context;
use crate::error::{Result, SpearError};
use crate::value::Value;

/// An external (or in-process) agent.
pub trait Agent: Send + Sync {
    /// Handle a delegated subtask.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::Agent`] on failure.
    fn call(&self, payload: &Value, context: &Context) -> Result<Value>;
}

/// Wrap a closure as an [`Agent`].
pub struct FnAgent<F>(pub F);

impl<F> Agent for FnAgent<F>
where
    F: Fn(&Value, &Context) -> Result<Value> + Send + Sync,
{
    fn call(&self, payload: &Value, context: &Context) -> Result<Value> {
        (self.0)(payload, context)
    }
}

/// Built-in evidence-alignment validator, modelled on the paper's
/// "Delegated Evidence Check" example (Table 1): scores how well an answer
/// aligns with the evidence present in context under `evidence_key`.
///
/// The score is the fraction of content words in the answer that also occur
/// in the evidence — a deterministic stand-in for an LLM judge that exercises
/// the same pipeline path.
pub struct EvidenceValidator {
    /// Context key holding the evidence (a string or a list of doc maps).
    pub evidence_key: String,
}

impl EvidenceValidator {
    fn evidence_text(value: &Value) -> String {
        match value {
            Value::Str(s) => s.clone(),
            Value::List(items) => items
                .iter()
                .map(|item| {
                    item.path("text")
                        .and_then(Value::as_str)
                        .map_or_else(|| item.render(), str::to_string)
                })
                .collect::<Vec<_>>()
                .join("\n"),
            other => other.render(),
        }
    }
}

impl Agent for EvidenceValidator {
    fn call(&self, payload: &Value, context: &Context) -> Result<Value> {
        let answer = payload.as_str().ok_or_else(|| SpearError::Agent {
            agent: "evidence_validator".into(),
            reason: "payload must be the answer text (a string)".into(),
        })?;
        let evidence = context
            .get(&self.evidence_key)
            .ok_or_else(|| SpearError::Agent {
                agent: "evidence_validator".into(),
                reason: format!("evidence key {:?} missing from context", self.evidence_key),
            })?;
        let evidence_text = Self::evidence_text(&evidence).to_lowercase();
        let words: Vec<String> = answer
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| w.len() > 3)
            .map(str::to_lowercase)
            .collect();
        let score = if words.is_empty() {
            0.0
        } else {
            words
                .iter()
                .filter(|w| evidence_text.contains(w.as_str()))
                .count() as f64
                / words.len() as f64
        };
        Ok(Value::from(score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_agent_wraps_closures() {
        let agent = FnAgent(|payload: &Value, _ctx: &Context| {
            Ok(Value::from(payload.as_i64().unwrap_or(0) * 2))
        });
        let out = agent.call(&Value::from(21), &Context::new()).unwrap();
        assert_eq!(out.as_i64(), Some(42));
    }

    #[test]
    fn registry_resolution() {
        let rt = crate::runtime::Runtime::builder()
            .agent(
                "doubler",
                std::sync::Arc::new(FnAgent(|p: &Value, _: &Context| Ok(p.clone()))),
            )
            .build();
        assert!(rt.agent("doubler").is_ok());
        assert!(matches!(
            rt.agent("missing"),
            Err(SpearError::AgentNotFound(_))
        ));
    }

    #[test]
    fn evidence_validator_scores_overlap() {
        let mut ctx = Context::new();
        ctx.set(
            "notes",
            "Patient started enoxaparin 40mg daily for prophylaxis after surgery",
        );
        let agent = EvidenceValidator {
            evidence_key: "notes".into(),
        };
        let supported = agent
            .call(&Value::from("enoxaparin prophylaxis after surgery"), &ctx)
            .unwrap();
        let unsupported = agent
            .call(&Value::from("warfarin bridging protocol unrelated"), &ctx)
            .unwrap();
        assert!(supported.as_f64().unwrap() > 0.9);
        assert!(unsupported.as_f64().unwrap() < 0.3);
    }

    #[test]
    fn evidence_validator_reads_doc_lists() {
        let mut ctx = Context::new();
        ctx.set(
            "docs",
            Value::List(vec![crate::value::map([(
                "text",
                Value::from("enoxaparin administered at night"),
            )])]),
        );
        let agent = EvidenceValidator {
            evidence_key: "docs".into(),
        };
        let score = agent
            .call(&Value::from("enoxaparin administered"), &ctx)
            .unwrap();
        assert!(score.as_f64().unwrap() > 0.9);
    }

    #[test]
    fn evidence_validator_error_paths() {
        let agent = EvidenceValidator {
            evidence_key: "missing".into(),
        };
        assert!(agent.call(&Value::from("text"), &Context::new()).is_err());
        let mut ctx = Context::new();
        ctx.set("missing", "evidence");
        assert!(agent.call(&Value::from(42), &ctx).is_err());
    }
}
