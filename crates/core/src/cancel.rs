//! Cooperative cancellation for in-flight pipeline executions.
//!
//! A serving layer that enforces per-request deadlines needs a way to stop
//! a pipeline *between* operators without poisoning shared state. Both
//! execution spines (the compiled VM and the reference tree walk) check
//! two signals in their shared pre-operator gate, so a cancelled execution
//! unwinds through exactly the same trace machinery as a budget violation:
//!
//! - a [`CancelToken`] attached to the job's
//!   [`crate::runtime::ExecState`], which any holder of a clone can trip
//!   (explicit cancellation, client disconnects);
//! - the state's **virtual deadline** (`ExecState::deadline_us`), checked
//!   against the job's own accumulated virtual latency. Because that
//!   latency is a deterministic function of the job's requests and cache
//!   hits — never of wall time or thread interleaving — deadline
//!   cancellations are reproducible under any worker count.
//!
//! Both produce [`crate::error::SpearError::Cancelled`], recorded in the
//! trace like any other operator failure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable cancellation flag shared between a controller (e.g. the
/// serving layer) and the execution spine.
///
/// Tokens are level-triggered and one-way: once cancelled, they stay
/// cancelled. The reason string is fixed at construction so that checking
/// the token never requires a lock.
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    reason: Arc<str>,
}

impl CancelToken {
    /// A fresh, untripped token with the reason reported if it trips.
    #[must_use]
    pub fn new(reason: impl Into<String>) -> Self {
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            reason: reason.into().into(),
        }
    }

    /// Trip the token. Idempotent; all clones observe the cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// The reason attached at construction.
    #[must_use]
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new("cancelled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_trips_once_and_shares_across_clones() {
        let t = CancelToken::new("client disconnect");
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
        assert_eq!(clone.reason(), "client disconnect");
    }

    #[test]
    fn default_reason_is_generic() {
        assert_eq!(CancelToken::default().reason(), "cancelled");
    }

    #[test]
    fn tripped_token_aborts_before_the_next_operator() {
        use crate::error::SpearError;
        use crate::history::RefinementMode;
        use crate::llm::EchoLlm;
        use crate::pipeline::Pipeline;
        use crate::runtime::{ExecState, Runtime};
        use std::sync::Arc;

        let rt = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
        let p = Pipeline::builder("c")
            .create_text("p", "Answer: {{ctx:q}}", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let token = CancelToken::new("shed");
        token.cancel();
        let mut state = ExecState::new();
        state.context.set("q", "x");
        state.cancel = Some(token);
        let err = rt.execute(&p, &mut state).unwrap_err();
        assert!(
            matches!(&err, SpearError::Cancelled { reason, .. } if reason == "shed"),
            "{err}"
        );
        assert!(
            !state.context.contains("a"),
            "no operator ran after the cancellation point"
        );
    }

    #[test]
    fn virtual_deadline_cancels_between_slots_deterministically() {
        use crate::error::SpearError;
        use crate::history::RefinementMode;
        use crate::llm::EchoLlm;
        use crate::pipeline::Pipeline;
        use crate::runtime::{ExecState, Runtime};
        use crate::trace::TraceKind;
        use std::sync::Arc;

        let rt = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
        // Two GEN slots; the first charges virtual latency that blows a
        // tiny deadline, so the second must never run — the budget
        // semantics: the call that crosses the line completes, then the
        // pipeline aborts at the next gate.
        let p = Pipeline::builder("d")
            .create_text("p", "Answer briefly: {{ctx:q}}", RefinementMode::Manual)
            .gen("first", "p")
            .gen("second", "p")
            .build();
        let run = |deadline_us: Option<u64>| {
            let mut state = ExecState::new();
            state.context.set("q", "the question");
            state.deadline_us = deadline_us;
            (rt.execute(&p, &mut state), state)
        };
        let (ok, full) = run(None);
        ok.unwrap();
        assert!(full.context.contains("second"));

        let (err, cut) = run(Some(1)); // 1µs: first GEN exceeds it
        let err = err.unwrap_err();
        assert!(
            matches!(&err, SpearError::Cancelled { reason, after_us } if reason == "deadline" && *after_us > 1),
            "{err}"
        );
        assert!(cut.context.contains("first"), "crossing op completed");
        assert!(!cut.context.contains("second"), "next slot never ran");
        assert!(cut.trace.count(TraceKind::Error) >= 1);

        // Deterministic: the same deadline reproduces the same trace.
        let (_, again) = run(Some(1));
        assert_eq!(
            cut.trace.digest().unwrap(),
            again.trace.digest().unwrap(),
            "deadline cancellation is a pure function of virtual time"
        );
    }
}
