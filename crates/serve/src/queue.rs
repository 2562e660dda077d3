//! Bounded admission queue with token-budget admission control and
//! starvation-free two-class priority dispatch.
//!
//! ## Admission (lane-count invariant)
//!
//! A request is admitted iff (a) its class queue is below `max_depth` and
//! (b) the token bucket holds at least `est_tokens`. The bucket refills as
//! a function of each request's **arrival timestamp** — never of the
//! scheduler's progress — so for workloads whose depth limit is not the
//! binding constraint, the admitted set is identical at any lane count
//! (the property the determinism proptest pins). Depth-based shedding is
//! genuine backpressure and *is* capacity-dependent, by design.
//!
//! ## Dispatch
//!
//! Interactive requests are popped before batch requests, each class FIFO
//! in arrival order. An aging counter bounds starvation: after
//! `starvation_limit` consecutive interactive pops while a batch request
//! is waiting, the next pop takes the batch head. Hence a batch request
//! is delayed by at most `starvation_limit` interactive requests per
//! dispatch slot it is passed over for, no matter how heavy the flood.

use std::collections::VecDeque;

use crate::error::ServeError;
use crate::request::{Priority, ServeRequest};

/// A two-class FIFO with starvation aging — the dispatch-order core shared
/// by the [`AdmissionQueue`] and the memory-pressure KV scheduler's
/// waiting set (`crate::kv`). Interactive items pop before batch items;
/// after `starvation_limit` consecutive interactive pops while batch work
/// waits, the next pop takes the batch head.
#[derive(Debug)]
pub struct ClassFifo<T> {
    interactive: VecDeque<T>,
    batch: VecDeque<T>,
    starvation_limit: u32,
    /// Consecutive interactive pops since the last batch pop.
    consecutive_interactive: u32,
}

impl<T> ClassFifo<T> {
    /// An empty FIFO with the given aging bound.
    #[must_use]
    pub fn new(starvation_limit: u32) -> Self {
        Self {
            interactive: VecDeque::new(),
            batch: VecDeque::new(),
            starvation_limit,
            consecutive_interactive: 0,
        }
    }

    fn deque(&mut self, class: Priority) -> &mut VecDeque<T> {
        match class {
            Priority::Interactive => &mut self.interactive,
            Priority::Batch => &mut self.batch,
        }
    }

    /// Queued items in `class`.
    #[must_use]
    pub fn depth(&self, class: Priority) -> usize {
        match class {
            Priority::Interactive => self.interactive.len(),
            Priority::Batch => self.batch.len(),
        }
    }

    /// Total queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    /// Whether both class queues are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.interactive.is_empty() && self.batch.is_empty()
    }

    /// Enqueue at the back of `class` (normal arrival order).
    pub fn push_back(&mut self, class: Priority, item: T) {
        self.deque(class).push_back(item);
    }

    /// Enqueue at the *front* of `class` — used to re-admit preempted work
    /// ahead of everything that arrived after it.
    pub fn push_front(&mut self, class: Priority, item: T) {
        self.deque(class).push_front(item);
    }

    /// Pop the next item, honouring class priority and the aging bound.
    pub fn pop(&mut self) -> Option<(Priority, T)> {
        let take_batch = !self.batch.is_empty()
            && (self.interactive.is_empty()
                || self.consecutive_interactive >= self.starvation_limit);
        if take_batch {
            self.consecutive_interactive = 0;
            return self.batch.pop_front().map(|i| (Priority::Batch, i));
        }
        if let Some(item) = self.interactive.pop_front() {
            // Only count against the aging bound while batch work waits;
            // an interactive run on an otherwise idle queue starves no one.
            if self.batch.is_empty() {
                self.consecutive_interactive = 0;
            } else {
                self.consecutive_interactive += 1;
            }
            return Some((Priority::Interactive, item));
        }
        None
    }
}

/// Admission-control limits.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum queued requests per class; `offer` sheds above this.
    pub max_depth: usize,
    /// Token-bucket capacity (burst budget), in estimated tokens.
    pub bucket_capacity: u64,
    /// Bucket refill rate in tokens per virtual microsecond.
    pub refill_per_us: f64,
    /// Maximum consecutive interactive pops while batch work waits.
    pub starvation_limit: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_depth: 1024,
            bucket_capacity: 1_000_000,
            refill_per_us: 10.0,
            starvation_limit: 4,
        }
    }
}

/// The serving queue: per-class FIFOs behind a token-bucket admission
/// gate.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    fifo: ClassFifo<ServeRequest>,
    /// Current bucket level in tokens.
    level: f64,
    /// Arrival timestamp the bucket was last refilled to.
    refilled_at_us: u64,
}

impl AdmissionQueue {
    /// An empty queue with a full bucket.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> Self {
        let level = config.bucket_capacity as f64;
        let fifo = ClassFifo::new(config.starvation_limit);
        Self {
            config,
            fifo,
            level,
            refilled_at_us: 0,
        }
    }

    /// Queued requests in `class`.
    #[must_use]
    pub fn depth(&self, class: Priority) -> usize {
        self.fifo.depth(class)
    }

    /// Total queued requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether both class queues are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Refill the bucket up to the given arrival timestamp. Arrivals must
    /// be offered in non-decreasing timestamp order; an out-of-order
    /// timestamp is clamped (no negative refill).
    fn refill_to(&mut self, arrival_us: u64) {
        if arrival_us > self.refilled_at_us {
            let dt = (arrival_us - self.refilled_at_us) as f64;
            self.level = (self.level + dt * self.config.refill_per_us)
                .min(self.config.bucket_capacity as f64);
            self.refilled_at_us = arrival_us;
        }
    }

    /// Offer a request for admission. On success the request is queued;
    /// on overload it is handed back with a typed overload error carrying
    /// a retry hint — shedding is always explicit, never a silent drop.
    /// The `Err` payload is boxed to keep the happy path's return value
    /// register-sized.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the class queue is at `max_depth`
    /// or the token bucket cannot cover `est_tokens`.
    pub fn offer(&mut self, request: ServeRequest) -> Result<(), Box<(ServeRequest, ServeError)>> {
        self.refill_to(request.arrival_us);
        let class = request.priority;
        let depth = self.depth(class);
        if depth >= self.config.max_depth {
            let error = ServeError::Overloaded {
                priority: class,
                queue_depth: depth,
                retry_after_us: 0,
            };
            return Err(Box::new((request, error)));
        }
        let cost = request.est_tokens as f64;
        if cost > self.level {
            let deficit = cost - self.level;
            let retry_after_us = if self.config.refill_per_us > 0.0 {
                (deficit / self.config.refill_per_us).ceil() as u64
            } else {
                u64::MAX
            };
            let error = ServeError::Overloaded {
                priority: class,
                queue_depth: depth,
                retry_after_us,
            };
            return Err(Box::new((request, error)));
        }
        self.level -= cost;
        self.fifo.push_back(class, request);
        Ok(())
    }

    /// Pop the next request to dispatch, honouring priority and the aging
    /// bound. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<ServeRequest> {
        self.fifo.pop().map(|(_, request)| request)
    }

    /// Pop up to `max` requests (dispatch round).
    pub fn pop_batch(&mut self, max: usize) -> Vec<ServeRequest> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.pop() {
                Some(r) => out.push(r),
                None => break,
            }
        }
        out
    }

    /// Current token-bucket level (observability).
    #[must_use]
    pub fn bucket_level(&self) -> f64 {
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_core::history::RefinementMode;
    use spear_core::pipeline::Pipeline;
    use spear_core::plan::lower;
    use spear_core::runtime::ExecState;
    use spear_core::vm::Program;
    use std::sync::Arc;

    fn plan() -> Arc<Program> {
        Arc::new(
            lower(
                &Pipeline::builder("q")
                    .create_text("p", "hi {{ctx:x}}", RefinementMode::Manual)
                    .gen("a", "p")
                    .build(),
            )
            .expect("lowers"),
        )
    }

    fn req(id: u64, class: Priority, arrival_us: u64, est_tokens: u64) -> ServeRequest {
        ServeRequest::new(id, class, plan(), ExecState::new(), arrival_us)
            .with_est_tokens(est_tokens)
    }

    #[test]
    fn fifo_within_class_interactive_first() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        q.offer(req(1, Priority::Batch, 0, 0)).unwrap();
        q.offer(req(2, Priority::Interactive, 0, 0)).unwrap();
        q.offer(req(3, Priority::Interactive, 0, 0)).unwrap();
        let order: Vec<u64> = q.pop_batch(10).iter().map(|r| r.id).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn depth_limit_sheds_with_typed_error() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            max_depth: 2,
            ..AdmissionConfig::default()
        });
        q.offer(req(1, Priority::Interactive, 0, 0)).unwrap();
        q.offer(req(2, Priority::Interactive, 0, 0)).unwrap();
        let (rejected, error) = *q.offer(req(3, Priority::Interactive, 0, 0)).unwrap_err();
        assert_eq!(rejected.id, 3, "request is handed back, not dropped");
        assert!(matches!(
            error,
            ServeError::Overloaded {
                priority: Priority::Interactive,
                queue_depth: 2,
                retry_after_us: 0,
            }
        ));
        // The other class still has room.
        q.offer(req(4, Priority::Batch, 0, 0)).unwrap();
    }

    #[test]
    fn token_bucket_sheds_and_refills_by_arrival_time() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            bucket_capacity: 100,
            refill_per_us: 1.0,
            ..AdmissionConfig::default()
        });
        q.offer(req(1, Priority::Interactive, 0, 80)).unwrap();
        // 20 tokens left; a 50-token request at t=0 is shed with a hint.
        let (_, error) = *q.offer(req(2, Priority::Interactive, 0, 50)).unwrap_err();
        let ServeError::Overloaded { retry_after_us, .. } = error else {
            panic!("expected overload");
        };
        assert_eq!(retry_after_us, 30, "deficit 30 tokens at 1 token/us");
        // The same request arriving 30us later is admitted: refill is a
        // pure function of arrival timestamps.
        q.offer(req(3, Priority::Interactive, 30, 50)).unwrap();
        assert!(q.bucket_level() < 1.0);
    }

    #[test]
    fn aging_bounds_interactive_monopoly() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            starvation_limit: 2,
            ..AdmissionConfig::default()
        });
        q.offer(req(100, Priority::Batch, 0, 0)).unwrap();
        for id in 0..6 {
            q.offer(req(id, Priority::Interactive, 0, 0)).unwrap();
        }
        let order: Vec<u64> = q.pop_batch(10).iter().map(|r| r.id).collect();
        // Two interactive, then the aged batch request, then the rest.
        assert_eq!(order, vec![0, 1, 100, 2, 3, 4, 5]);
    }

    #[test]
    fn idle_interactive_runs_do_not_build_aging_debt() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            starvation_limit: 2,
            ..AdmissionConfig::default()
        });
        // Interactive pops with no batch waiting leave the counter at 0.
        for id in 0..5 {
            q.offer(req(id, Priority::Interactive, 0, 0)).unwrap();
        }
        assert_eq!(q.pop().unwrap().id, 0);
        assert_eq!(q.pop().unwrap().id, 1);
        q.offer(req(100, Priority::Batch, 0, 0)).unwrap();
        // Fresh batch arrival: the bound starts counting from here.
        assert_eq!(q.pop().unwrap().id, 2);
        assert_eq!(q.pop().unwrap().id, 3);
        assert_eq!(q.pop().unwrap().id, 100, "aged in after starvation_limit");
    }

    #[test]
    fn class_fifo_push_front_reenters_ahead_of_arrivals() {
        // The resume path for preempted work: push_front puts an item
        // ahead of everything queued behind it in its class, while class
        // priority and aging still apply.
        let mut f: ClassFifo<u64> = ClassFifo::new(4);
        f.push_back(Priority::Batch, 1);
        f.push_back(Priority::Batch, 2);
        f.push_front(Priority::Batch, 99);
        f.push_back(Priority::Interactive, 10);
        f.push_front(Priority::Interactive, 9);
        assert_eq!(f.len(), 5);
        assert_eq!(f.depth(Priority::Batch), 3);
        assert_eq!(f.pop(), Some((Priority::Interactive, 9)));
        assert_eq!(f.pop(), Some((Priority::Interactive, 10)));
        assert_eq!(f.pop(), Some((Priority::Batch, 99)));
        assert_eq!(f.pop(), Some((Priority::Batch, 1)));
        assert_eq!(f.pop(), Some((Priority::Batch, 2)));
        assert_eq!(f.pop(), None);
        assert!(f.is_empty());
    }

    #[test]
    fn zero_cost_requests_only_face_depth_limits() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            bucket_capacity: 0,
            refill_per_us: 0.0,
            max_depth: 1,
            ..AdmissionConfig::default()
        });
        q.offer(req(1, Priority::Interactive, 0, 0)).unwrap();
        let (_, error) = *q.offer(req(2, Priority::Interactive, 0, 0)).unwrap_err();
        assert!(matches!(error, ServeError::Overloaded { .. }));
    }
}
