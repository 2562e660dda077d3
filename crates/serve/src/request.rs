//! The unit of serving work: a lowered pipeline plan plus its private
//! execution state, stamped with arrival time, priority class, and
//! deadline.

use std::sync::Arc;

use spear_core::cancel::CancelToken;
use spear_core::runtime::ExecState;
use spear_core::vm::Program;

/// Scheduling class of a request.
///
/// Interactive requests are dispatched ahead of batch requests; the
/// admission queue's aging rule (`AdmissionConfig::starvation_limit`)
/// bounds how long an interactive flood can defer the batch class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Priority {
    /// Latency-sensitive foreground work.
    Interactive,
    /// Throughput-oriented background work.
    Batch,
}

impl Priority {
    /// All classes, in dispatch-preference order.
    pub const ALL: [Priority; 2] = [Priority::Interactive, Priority::Batch];

    /// Stable display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// One serving request: what to run, whose state to run it against, and
/// how the scheduler should treat it.
#[derive(Debug)]
pub struct ServeRequest {
    /// Caller-chosen id; must be unique within one `ServeNode::run` call
    /// (outcomes are reported per id).
    pub id: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// The program to execute. Requests sharing a plan share the
    /// `Arc`; affinity routing groups requests by the plan's
    /// [`Program::affinity_seed`].
    pub plan: Arc<Program>,
    /// The request's private execution state (context inputs, etc.).
    /// Boxed, so a request is under 128 bytes: the scheduler moves the
    /// state out when it dispatches the request, and the consumed slot in
    /// the caller's request `Vec` keeps only a pointer's width of it for the
    /// rest of the run.
    pub state: Box<ExecState>,
    /// Arrival timestamp on the virtual clock, in microseconds. Requests
    /// must be submitted in non-decreasing arrival order.
    pub arrival_us: u64,
    /// Optional **service** deadline: the maximum virtual time the
    /// execution itself may accumulate before the spine cancels it
    /// between slots (see [`spear_core::cancel`]). `None` = unbounded.
    pub deadline_us: Option<u64>,
    /// Estimated prompt+completion tokens, charged against the admission
    /// token bucket. Zero is allowed (admission then only enforces queue
    /// depth).
    pub est_tokens: u64,
    /// Leading prompt tokens shared with every other request in the same
    /// affinity group (the family instruction prefix). Under memory
    /// pressure (`ServeConfig::pressure`) the KV scheduler maps these
    /// tokens to the group's shared pool blocks; requests outside any
    /// affinity group ignore the field. Zero = no shared prefix.
    pub shared_prefix_tokens: u64,
    /// Cooperative cancellation handle. Clone it before submitting to
    /// cancel the request from outside the scheduler.
    pub cancel: CancelToken,
}

impl ServeRequest {
    /// A request with no deadline and no token estimate.
    #[must_use]
    pub fn new(
        id: u64,
        priority: Priority,
        plan: Arc<Program>,
        state: ExecState,
        arrival_us: u64,
    ) -> Self {
        Self {
            id,
            priority,
            plan,
            state: Box::new(state),
            arrival_us,
            deadline_us: None,
            est_tokens: 0,
            shared_prefix_tokens: 0,
            cancel: CancelToken::new("cancelled"),
        }
    }

    /// Set the service deadline (virtual µs of execution time).
    #[must_use]
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Set the admission token estimate.
    #[must_use]
    pub fn with_est_tokens(mut self, est_tokens: u64) -> Self {
        self.est_tokens = est_tokens;
        self
    }

    /// Set the affinity-group shared-prefix length in tokens.
    #[must_use]
    pub fn with_shared_prefix_tokens(mut self, shared_prefix_tokens: u64) -> Self {
        self.shared_prefix_tokens = shared_prefix_tokens;
        self
    }

    /// A clone of the cancellation handle (trip it to cancel the request
    /// cooperatively).
    #[must_use]
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_core::history::RefinementMode;
    use spear_core::pipeline::Pipeline;
    use spear_core::plan::lower;

    #[test]
    fn builder_style_setters_stick() {
        let plan = Arc::new(
            lower(
                &Pipeline::builder("r")
                    .create_text("p", "hello {{ctx:x}}", RefinementMode::Manual)
                    .gen("a", "p")
                    .build(),
            )
            .expect("lowers"),
        );
        let r = ServeRequest::new(7, Priority::Interactive, plan, ExecState::new(), 100)
            .with_deadline_us(5_000)
            .with_est_tokens(64)
            .with_shared_prefix_tokens(32);
        assert_eq!(r.id, 7);
        assert_eq!(r.deadline_us, Some(5_000));
        assert_eq!(r.est_tokens, 64);
        assert_eq!(r.shared_prefix_tokens, 32);
        assert!(r.plan.affinity_seed().is_some());
        let handle = r.cancel_handle();
        handle.cancel();
        assert!(r.cancel.is_cancelled());
    }

    #[test]
    fn a_request_holds_its_state_by_pointer() {
        assert!(
            std::mem::size_of::<ServeRequest>() <= 128,
            "{} bytes",
            std::mem::size_of::<ServeRequest>()
        );
    }

    #[test]
    fn priority_labels_are_stable() {
        assert_eq!(Priority::Interactive.label(), "interactive");
        assert_eq!(Priority::Batch.label(), "batch");
        assert_eq!(Priority::ALL.len(), 2);
    }
}
