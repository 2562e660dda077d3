//! Error types for the SPEAR core.

use std::fmt;

/// Convenience alias used throughout `spear-core`.
pub type Result<T> = std::result::Result<T, SpearError>;

/// Errors produced by the prompt algebra and runtime.
#[derive(Debug)]
pub enum SpearError {
    /// A prompt key was not found in P.
    PromptNotFound(String),
    /// A prompt version was not found in an entry's history.
    PromptVersionNotFound {
        /// Prompt key.
        key: String,
        /// Requested version.
        version: u64,
    },
    /// A named view was not found in the catalog.
    ViewNotFound(String),
    /// View instantiation recursed through a cycle.
    ViewCycle(Vec<String>),
    /// A required view parameter was not supplied.
    MissingViewParam {
        /// View name.
        view: String,
        /// Parameter name.
        param: String,
    },
    /// A template referenced a placeholder that could not be resolved.
    UnboundPlaceholder {
        /// The placeholder name, e.g. `drug` for `{{drug}}`.
        placeholder: String,
        /// The template (or its head) for diagnostics.
        template: String,
    },
    /// A template was syntactically malformed (e.g. unclosed `{{`).
    MalformedTemplate(String),
    /// A named refiner was not registered.
    RefinerNotFound(String),
    /// A refiner was invoked with invalid arguments.
    RefinerArgs {
        /// Refiner name.
        refiner: String,
        /// What was wrong.
        reason: String,
    },
    /// A refiner that needs an LLM ran in a runtime without one.
    LlmUnavailable {
        /// Who needed the LLM.
        requested_by: String,
    },
    /// The LLM backend failed.
    Llm(String),
    /// A named retriever was not registered.
    RetrieverNotFound(String),
    /// The retrieval backend failed.
    Retrieval(String),
    /// A named agent was not registered.
    AgentNotFound(String),
    /// A delegated agent failed.
    Agent {
        /// Agent name.
        agent: String,
        /// Failure description.
        reason: String,
    },
    /// A CHECK condition could not be evaluated.
    Condition(String),
    /// MERGE failed (e.g. a source prompt is missing).
    Merge(String),
    /// The executor hit its configured op budget (guards unrolled retries).
    OpBudgetExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The execution exceeded its token budget (paper §5: "task-specific
    /// constraints (e.g., token budgets or latency thresholds)").
    TokenBudgetExceeded {
        /// The configured limit.
        limit: u64,
        /// Tokens actually consumed when the budget tripped.
        used: u64,
    },
    /// The execution exceeded its latency budget.
    LatencyBudgetExceeded {
        /// The configured limit, µs.
        limit_us: u64,
        /// Accumulated latency when the budget tripped, µs.
        used_us: u64,
    },
    /// Execution was cooperatively cancelled between operators — either an
    /// external [`crate::cancel::CancelToken`] tripped, or the state's
    /// per-request virtual deadline passed (serving-layer timeouts).
    Cancelled {
        /// Why the execution was cancelled (e.g. `"deadline"`).
        reason: String,
        /// Accumulated virtual latency (µs) when the cancellation was
        /// observed.
        after_us: u64,
    },
    /// Replay input was inconsistent with the recorded history.
    Replay(String),
    /// A persisted trace (JSON Lines) failed to parse.
    TraceParse {
        /// 1-based line number within the JSONL input.
        line: usize,
        /// Parser diagnostic.
        reason: String,
    },
    /// Error from the KV substrate.
    Kv(spear_kv::KvError),
    /// Catch-all for invalid pipeline construction.
    InvalidPipeline(String),
    /// A lowered plan failed static verification (see [`crate::analysis`]).
    /// Carries the verifier's diagnostics so callers can render them.
    InvalidPlan {
        /// Name of the rejected plan.
        plan: String,
        /// The diagnostics that caused the rejection (at least one of them
        /// is an error).
        diagnostics: Vec<crate::analysis::Diagnostic>,
    },
    /// A batch job panicked (or the thread running its lane died); the
    /// affected jobs report this instead of poisoning the whole batch.
    WorkerPanicked {
        /// The worker lane that panicked.
        lane: usize,
    },
    /// An internal invariant was violated (a bug in this crate, not in the
    /// caller's pipeline).
    Internal(String),
}

impl fmt::Display for SpearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpearError::PromptNotFound(k) => write!(f, "prompt not found in P: {k:?}"),
            SpearError::PromptVersionNotFound { key, version } => {
                write!(f, "version {version} of prompt {key:?} not found")
            }
            SpearError::ViewNotFound(v) => write!(f, "view not found: {v:?}"),
            SpearError::ViewCycle(path) => {
                write!(f, "view composition cycle: {}", path.join(" -> "))
            }
            SpearError::MissingViewParam { view, param } => {
                write!(f, "view {view:?} requires parameter {param:?}")
            }
            SpearError::UnboundPlaceholder {
                placeholder,
                template,
            } => write!(
                f,
                "unbound placeholder {{{{{placeholder}}}}} in template {template:?}"
            ),
            SpearError::MalformedTemplate(t) => write!(f, "malformed template: {t:?}"),
            SpearError::RefinerNotFound(r) => write!(f, "refiner not found: {r:?}"),
            SpearError::RefinerArgs { refiner, reason } => {
                write!(f, "invalid arguments for refiner {refiner:?}: {reason}")
            }
            SpearError::LlmUnavailable { requested_by } => {
                write!(f, "no LLM client configured (needed by {requested_by})")
            }
            SpearError::Llm(e) => write!(f, "llm error: {e}"),
            SpearError::RetrieverNotFound(r) => write!(f, "retriever not found: {r:?}"),
            SpearError::Retrieval(e) => write!(f, "retrieval error: {e}"),
            SpearError::AgentNotFound(a) => write!(f, "agent not found: {a:?}"),
            SpearError::Agent { agent, reason } => {
                write!(f, "agent {agent:?} failed: {reason}")
            }
            SpearError::Condition(e) => write!(f, "condition error: {e}"),
            SpearError::Merge(e) => write!(f, "merge error: {e}"),
            SpearError::OpBudgetExceeded { limit } => {
                write!(f, "operator budget exceeded (limit {limit})")
            }
            SpearError::TokenBudgetExceeded { limit, used } => {
                write!(f, "token budget exceeded: used {used} of {limit}")
            }
            SpearError::LatencyBudgetExceeded { limit_us, used_us } => write!(
                f,
                "latency budget exceeded: used {:.1} ms of {:.1} ms",
                *used_us as f64 / 1e3,
                *limit_us as f64 / 1e3
            ),
            SpearError::Cancelled { reason, after_us } => write!(
                f,
                "execution cancelled ({reason}) after {:.1} ms of virtual time",
                *after_us as f64 / 1e3
            ),
            SpearError::Replay(e) => write!(f, "replay error: {e}"),
            SpearError::TraceParse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
            SpearError::Kv(e) => write!(f, "kv substrate error: {e}"),
            SpearError::InvalidPipeline(e) => write!(f, "invalid pipeline: {e}"),
            SpearError::InvalidPlan { plan, diagnostics } => {
                let errors = diagnostics
                    .iter()
                    .filter(|d| d.severity == crate::analysis::Severity::Error)
                    .count();
                write!(f, "invalid plan {plan:?}: {errors} error(s)")?;
                if let Some(first) = diagnostics.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            SpearError::WorkerPanicked { lane } => {
                write!(f, "batch worker on lane {lane} panicked")
            }
            SpearError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for SpearError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpearError::Kv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<spear_kv::KvError> for SpearError {
    fn from(e: spear_kv::KvError) -> Self {
        SpearError::Kv(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_details() {
        let e = SpearError::UnboundPlaceholder {
            placeholder: "drug".into(),
            template: "Summarize {{drug}}".into(),
        };
        assert!(e.to_string().contains("{{drug}}"));

        let e = SpearError::ViewCycle(vec!["a".into(), "b".into(), "a".into()]);
        assert!(e.to_string().contains("a -> b -> a"));
    }

    #[test]
    fn kv_error_is_wrapped_with_source() {
        use std::error::Error;
        let e = SpearError::from(spear_kv::KvError::from(std::io::Error::other("boom")));
        assert!(e.source().is_some());
    }
}
