//! Starvation-freedom of the admission queue's aging rule, pinned
//! directly (it was previously only exercised through end-to-end serving
//! runs): **every admitted request eventually dispatches under sustained
//! opposite-class load**, within an explicit bound derived from the aging
//! parameters — not merely "eventually".
//!
//! The bound being pinned:
//!
//! - a batch request with `b` same-class requests ahead of it dispatches
//!   within `(b + 1) * (starvation_limit + 1)` pops, because each pop
//!   while the batch head waits either takes a batch request or increments
//!   the aging counter, and the counter forces a batch pop at
//!   `starvation_limit`;
//! - an interactive request with `i` same-class requests ahead dispatches
//!   within `2 * (i + 1)` pops, because at most one batch request can age
//!   in per interactive dispatch.
//!
//! Both hold under *sustained* opposite-class pressure: the adversary
//! offers fresh opposite-class arrivals before every pop, so the queue
//! never drains and the bound cannot be met vacuously.

use proptest::prelude::*;
use spear_serve::prelude::*;
use std::sync::Arc;

use spear_core::history::RefinementMode;
use spear_core::pipeline::Pipeline;
use spear_core::plan::lower;
use spear_core::runtime::ExecState;
use spear_core::vm::Program;

fn plan() -> Arc<Program> {
    Arc::new(
        lower(
            &Pipeline::builder("aging")
                .create_text("p", "hello {{ctx:x}}", RefinementMode::Manual)
                .gen("a", "p")
                .build(),
        )
        .expect("lowers"),
    )
}

fn request(id: u64, class: Priority, plan: &Arc<Program>) -> ServeRequest {
    // All arrivals at t=0 with zero token cost: admission is depth-only,
    // so the property is about dispatch order, not the token bucket.
    ServeRequest::new(id, class, Arc::clone(plan), ExecState::new(), 0)
}

/// Build a queue holding `ahead` requests of `class`, then the watched
/// request, then `opposite_backlog` opposite-class requests; pop under an
/// adversary that tops the opposite class back up before every pop.
/// Returns how many pops it took to dispatch the watched request.
fn pops_until_dispatch(
    class: Priority,
    ahead: usize,
    opposite_backlog: usize,
    starvation_limit: u32,
) -> usize {
    let opposite = match class {
        Priority::Interactive => Priority::Batch,
        Priority::Batch => Priority::Interactive,
    };
    let plan = plan();
    let mut queue = AdmissionQueue::new(AdmissionConfig {
        max_depth: 1_000_000,
        starvation_limit,
        ..AdmissionConfig::default()
    });
    let mut next_id = 1u64;
    let mut offer = |queue: &mut AdmissionQueue, class: Priority| -> u64 {
        let id = next_id;
        next_id += 1;
        queue
            .offer(request(id, class, &plan))
            .expect("depth limit is generous");
        id
    };
    for _ in 0..ahead {
        offer(&mut queue, class);
    }
    let watched = offer(&mut queue, class);
    for _ in 0..opposite_backlog {
        offer(&mut queue, opposite);
    }

    let ceiling = (ahead + 1) * (starvation_limit as usize + 1) + 1;
    for pop in 1..=ceiling {
        // Sustained opposite-class load: never let the adversary's queue
        // drain, so priority (or aging pressure) applies at every pop.
        while queue.depth(opposite) < opposite_backlog.max(1) {
            offer(&mut queue, opposite);
        }
        let popped = queue.pop().expect("queue is never empty");
        if popped.id == watched {
            return pop;
        }
    }
    panic!(
        "{} request not dispatched within {ceiling} pops \
         (ahead={ahead}, opposite_backlog={opposite_backlog}, limit={starvation_limit})",
        class.label()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batch requests age in: under an unbounded interactive flood, a
    /// batch request with `b` batch requests ahead dispatches within
    /// `(b + 1) * (starvation_limit + 1)` pops.
    #[test]
    fn batch_dispatches_under_sustained_interactive_load(
        ahead in 0usize..12,
        backlog in 1usize..16,
        limit in 1u32..8,
    ) {
        let pops = pops_until_dispatch(Priority::Batch, ahead, backlog, limit);
        prop_assert!(
            pops <= (ahead + 1) * (limit as usize + 1),
            "batch took {pops} pops, bound is {}",
            (ahead + 1) * (limit as usize + 1)
        );
    }

    /// Interactive requests are never the starved side: with `i`
    /// interactive requests ahead, dispatch happens within `2 * (i + 1)`
    /// pops no matter how much batch work is queued (at most one batch
    /// request ages in per interactive dispatch).
    #[test]
    fn interactive_dispatches_under_sustained_batch_load(
        ahead in 0usize..12,
        backlog in 1usize..16,
        limit in 1u32..8,
    ) {
        let pops = pops_until_dispatch(Priority::Interactive, ahead, backlog, limit);
        prop_assert!(
            pops <= 2 * (ahead + 1),
            "interactive took {pops} pops, bound is {}",
            2 * (ahead + 1)
        );
    }
}

/// The degenerate limit still makes progress: `starvation_limit = 0`
/// means batch work is never passed over while it waits.
#[test]
fn zero_limit_prefers_waiting_batch_work() {
    let pops = pops_until_dispatch(Priority::Batch, 0, 4, 0);
    assert_eq!(pops, 1, "limit 0 dispatches the batch head immediately");
}
