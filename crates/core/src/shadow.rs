//! Shadow execution (paper §6).
//!
//! A shadow run executes a pipeline against a deep copy of the execution
//! state: the primary state is never touched, and the runtime returns both
//! the shadow's final state and a structured diff. This is how a developer
//! (or the optimizer) evaluates a candidate refinement or an alternative
//! pipeline safely — e.g. "would switching the base view change the answer?"

use std::collections::BTreeMap;

use crate::diff::{self, PromptDiff};
use crate::error::Result;
use crate::pipeline::Pipeline;
use crate::runtime::{ExecReport, ExecState, Runtime};
use crate::value::Value;

/// Result of a shadow execution.
#[derive(Debug)]
pub struct ShadowRun {
    /// The shadow's final state (independent of the primary).
    pub state: ExecState,
    /// The shadow's execution report.
    pub report: ExecReport,
}

/// Structured difference between a primary state and a shadow state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowDiff {
    /// Context keys whose values differ (or exist only in the shadow).
    pub changed_context_keys: Vec<String>,
    /// Prompt keys whose text differs, with the textual diff.
    pub changed_prompts: BTreeMap<String, PromptDiff>,
    /// Prompt keys present only in the shadow.
    pub new_prompts: Vec<String>,
    /// `shadow - primary` for headline metadata counters.
    pub gen_calls_delta: i64,
    /// `shadow - primary` confidence (None when either side lacks it).
    pub confidence_delta: Option<f64>,
}

impl ShadowDiff {
    /// Compare a shadow state against the primary it was forked from.
    #[must_use]
    pub fn between(primary: &ExecState, shadow: &ExecState) -> Self {
        let changed_context_keys = shadow.context.changed_keys_vs(&primary.context);

        let mut changed_prompts = BTreeMap::new();
        let mut new_prompts = Vec::new();
        for key in shadow.prompts.keys() {
            let Some(shadow_entry) = shadow.prompts.try_get(&key) else {
                continue;
            };
            match primary.prompts.try_get(&key) {
                Some(primary_entry) => {
                    if primary_entry.text != shadow_entry.text {
                        changed_prompts
                            .insert(key, diff::diff(&primary_entry.text, &shadow_entry.text));
                    }
                }
                None => new_prompts.push(key),
            }
        }

        let conf = |s: &ExecState| s.metadata.get("confidence").and_then(|v| v.as_f64());
        let confidence_delta = match (conf(primary), conf(shadow)) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };

        Self {
            changed_context_keys,
            changed_prompts,
            new_prompts,
            gen_calls_delta: shadow.metadata.gen_calls as i64 - primary.metadata.gen_calls as i64,
            confidence_delta,
        }
    }

    /// Whether the shadow diverged from the primary at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changed_context_keys.is_empty()
            && self.changed_prompts.is_empty()
            && self.new_prompts.is_empty()
            && self.gen_calls_delta == 0
    }

    /// Structured summary (for traces / meta prompts).
    #[must_use]
    pub fn to_value(&self) -> Value {
        crate::value::map([
            (
                "changed_context_keys",
                Value::from(
                    self.changed_context_keys
                        .iter()
                        .map(|k| Value::from(k.clone()))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "changed_prompts",
                Value::from(
                    self.changed_prompts
                        .keys()
                        .map(|k| Value::from(k.clone()))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "new_prompts",
                Value::from(
                    self.new_prompts
                        .iter()
                        .map(|k| Value::from(k.clone()))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("gen_calls_delta", Value::from(self.gen_calls_delta)),
            ("confidence_delta", Value::from(self.confidence_delta)),
        ])
    }
}

impl Runtime {
    /// Execute `pipeline` against a deep copy of `primary`, leaving the
    /// primary untouched.
    ///
    /// # Errors
    ///
    /// Propagates executor errors from the shadow run.
    pub fn shadow_execute(&self, pipeline: &Pipeline, primary: &ExecState) -> Result<ShadowRun> {
        let mut state = primary.deep_clone();
        let report = self.execute(pipeline, &mut state)?;
        Ok(ShadowRun { state, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;
    use crate::llm::EchoLlm;
    use std::sync::Arc;

    fn runtime() -> Runtime {
        Runtime::builder().llm(Arc::new(EchoLlm::default())).build()
    }

    #[test]
    fn shadow_does_not_mutate_primary() {
        let rt = runtime();
        let primary = ExecState::new();
        primary
            .prompts
            .define("p", "base prompt", "f", RefinementMode::Manual);

        let pipeline = Pipeline::builder("variant")
            .expand("p", "Focus on dosage.")
            .gen("answer", "p")
            .build();
        let shadow = rt.shadow_execute(&pipeline, &primary).unwrap();

        assert_eq!(&*primary.prompts.get("p").unwrap().text, "base prompt");
        assert!(!primary.context.contains("answer"));
        assert!(shadow.state.context.contains("answer"));
        assert_eq!(shadow.report.gens, 1);
    }

    #[test]
    fn diff_reports_divergence() {
        let rt = runtime();
        let primary = ExecState::new();
        primary
            .prompts
            .define("p", "base", "f", RefinementMode::Manual);
        let pipeline = Pipeline::builder("variant")
            .expand("p", "added")
            .create_text("q", "brand new", RefinementMode::Manual)
            .gen("answer", "p")
            .build();
        let shadow = rt.shadow_execute(&pipeline, &primary).unwrap();
        let d = ShadowDiff::between(&primary, &shadow.state);

        assert!(!d.is_empty());
        assert!(d.changed_prompts.contains_key("p"));
        assert_eq!(d.new_prompts, vec!["q".to_string()]);
        assert!(d.changed_context_keys.contains(&"answer".to_string()));
        assert_eq!(d.gen_calls_delta, 1);
        assert!(d.confidence_delta.is_none(), "primary never generated");
        let v = d.to_value();
        assert_eq!(v.path("gen_calls_delta").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn identical_states_diff_empty() {
        let state = ExecState::new();
        let d = ShadowDiff::between(&state, &state.deep_clone());
        assert!(d.is_empty());
    }
}
