//! The fabric itself: a deterministic multi-node discrete-event loop.
//!
//! [`Cluster::run`] replays a generated workload against N simulated
//! nodes in three phases, all driven by virtual time:
//!
//! 1. **placement** — churn events and request arrivals are merged in
//!    `arrival_us` order; each arrival is routed by the front-end
//!    [`Router`] using the plan's affinity identity, with churn applied
//!    the instant it is scheduled;
//! 2. **service** — each node (own engine: striped prefix cache, block
//!    pool, interner; own program cache) runs its assigned slice through
//!    [`spear_serve::ServeNode`], whose virtual-time loop is already
//!    invariant to host thread count;
//! 3. **roll-up** — per-node reports are stamped with their
//!    [`spear_serve::ClusterLinkage`] and aggregated into a
//!    [`ClusterReport`] with a fleet trace fingerprint.
//!
//! Placement happens entirely before service and depends only on the
//! arrival-ordered stream, so the fabric inherits the repo-wide
//! determinism invariant: identical fingerprints across host worker-lane
//! counts, including under churn replay.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

use spear_core::llm::LlmClient;
use spear_core::runtime::Runtime;
use spear_core::vm::Program;
use spear_llm::{EngineConfig, ModelProfile, SimLlm};
use spear_serve::{ClusterLinkage, GeneratedWorkload, ServeConfig, ServeNode, ServeOutcome};

use crate::churn::{ChurnAction, ChurnEvent};
use crate::node::NodeHandle;
use crate::report::{fleet_fingerprint, ClusterReport, NodeReport};
use crate::router::{Handoff, Router, RouterConfig};

/// Configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bootstrap nodes (ids `0..initial_nodes`), all admitting at t=0.
    pub initial_nodes: usize,
    /// Per-node scheduler configuration (lanes, quantum, admission, …).
    pub node: ServeConfig,
    /// Front-end routing configuration.
    pub router: RouterConfig,
    /// Membership churn schedule (applied in `at_us` order).
    pub churn: Vec<ChurnEvent>,
    /// Model profile every node serves.
    pub profile: ModelProfile,
    /// Engine template; each node's engine gets `seed + node_id` so node
    /// identity never aliases correctness draws.
    pub engine: EngineConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            initial_nodes: 4,
            node: ServeConfig::default(),
            router: RouterConfig::default(),
            churn: Vec::new(),
            profile: ModelProfile::qwen25_7b_instruct(),
            engine: EngineConfig::default(),
        }
    }
}

/// Result of a cluster run.
#[derive(Debug)]
pub struct ClusterRun {
    /// `(node id, outcome)` per request, sorted by request id.
    pub outcomes: Vec<(u64, ServeOutcome)>,
    /// Cache-handoff manifests produced by drains, in schedule order.
    pub handoffs: Vec<Handoff>,
    /// Aggregate fleet report.
    pub report: ClusterReport,
}

/// A simulated multi-node serving fleet.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// A cluster from `config`.
    ///
    /// # Panics
    ///
    /// Panics when `initial_nodes` is zero.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        assert!(
            config.initial_nodes > 0,
            "a cluster needs at least one node"
        );
        Self { config }
    }

    /// Replay `workload` through the fabric.
    ///
    /// Node slices are served on one host thread per node (scoped): each
    /// node owns its engine, runtime, and scheduler, shares nothing with
    /// its peers, and keeps time on its own virtual clock — so host
    /// interleaving cannot reach any observable output, and the fleet
    /// fingerprint equals [`Cluster::run_sequential`]'s (pinned by test).
    ///
    /// # Panics
    ///
    /// Panics when the churn schedule drains every node while requests
    /// still arrive, or when requests are not sorted by arrival time
    /// (a [`GeneratedWorkload`] always is).
    #[must_use]
    pub fn run(&self, workload: GeneratedWorkload) -> ClusterRun {
        self.run_inner(workload, true)
    }

    /// Reference implementation of [`Cluster::run`] that serves node
    /// slices one at a time on the calling thread. Same outputs, none of
    /// the host parallelism — tests pin `run`'s fingerprints against it.
    #[must_use]
    pub fn run_sequential(&self, workload: GeneratedWorkload) -> ClusterRun {
        self.run_inner(workload, false)
    }

    fn run_inner(&self, workload: GeneratedWorkload, parallel: bool) -> ClusterRun {
        let mut nodes: BTreeMap<u64, NodeHandle> = (0..self.config.initial_nodes as u64)
            .map(|id| (id, NodeHandle::new(id, 0)))
            .collect();
        let mut router = Router::new(self.config.router.clone(), nodes.keys().copied());

        // Phase 1: merge churn with arrivals in virtual-time order and
        // place every request. Stable sort keeps same-instant churn in
        // schedule order.
        let mut schedule = self.config.churn.clone();
        schedule.sort_by_key(|e| e.at_us);
        let mut churn = schedule.into_iter().peekable();
        let mut handoffs = Vec::new();

        // Static token upper bounds, memoized per plan fingerprint: the
        // load signal for requests that arrive without a caller-provided
        // estimate.
        let mut bound_memo: HashMap<u64, u64> = HashMap::new();
        // Route the whole stream before moving any request: the router
        // reads three scalars, and knowing every node's share up front lets
        // each slice be allocated once at its final size instead of
        // doubling its way there beside the still-full source buffer.
        let mut targets = Vec::with_capacity(workload.requests.len());
        let mut shares: BTreeMap<u64, usize> = BTreeMap::new();
        for request in &workload.requests {
            while let Some(event) = churn.next_if(|event| event.at_us <= request.arrival_us) {
                Self::apply_churn(event, &mut router, &mut nodes, &mut handoffs);
            }
            // Derived-facts routing: when the caller provides no token
            // estimate, the bytecode abstract interpreter's static upper
            // bound stands in (0 when the plan is unbounded — the router
            // then applies its own floor).
            let est_tokens = if request.est_tokens == 0 {
                *bound_memo
                    .entry(request.plan.fingerprint())
                    .or_insert_with(|| static_token_upper_bound(&request.plan))
            } else {
                request.est_tokens
            };
            let target = router.route(request.plan.affinity_seed(), request.id, est_tokens);
            *shares.entry(target).or_default() += 1;
            targets.push(target);
        }
        for (target, share) in shares {
            nodes
                .get_mut(&target)
                .expect("router only targets known nodes")
                .assigned
                .reserve_exact(share);
        }
        for (request, target) in workload.requests.into_iter().zip(targets) {
            nodes
                .get_mut(&target)
                .expect("router only targets known nodes")
                .assigned
                .push(request);
        }
        for event in churn {
            Self::apply_churn(event, &mut router, &mut nodes, &mut handoffs);
        }

        // Phase 2: serve each node's slice on its own engine — one scoped
        // host thread per node when `parallel`. Nodes share nothing (own
        // engine, runtime, scheduler) and keep virtual time, so host
        // interleaving cannot affect any output; joining in spawn (= id)
        // order restores the deterministic collection order.
        let entries: Vec<(u64, NodeHandle)> = nodes.into_iter().collect();
        let views = &workload.views;
        let node_runs: Vec<(NodeReport, Vec<(u64, ServeOutcome)>)> = if parallel {
            std::thread::scope(|scope| {
                let joins: Vec<_> = entries
                    .into_iter()
                    .map(|(id, handle)| scope.spawn(move || self.serve_slice(id, handle, views)))
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("node serving threads do not panic"))
                    .collect()
            })
        } else {
            entries
                .into_iter()
                .map(|(id, handle)| self.serve_slice(id, handle, views))
                .collect()
        };

        let mut outcomes: Vec<(u64, ServeOutcome)> = Vec::new();
        let mut node_reports = Vec::with_capacity(node_runs.len());
        for (node_report, node_outcomes) in node_runs {
            node_reports.push(node_report);
            outcomes.extend(node_outcomes);
        }
        outcomes.sort_by_key(|(_, o)| o.id);

        // Phase 3: roll up.
        let report = Self::roll_up(node_reports, router, &outcomes);
        ClusterRun {
            outcomes,
            handoffs,
            report,
        }
    }

    /// Serve one node's assigned slice on a fresh engine + runtime +
    /// scheduler (phase 2's unit of work; host-thread-safe because the
    /// node shares nothing and keeps virtual time).
    fn serve_slice(
        &self,
        id: u64,
        handle: NodeHandle,
        views: &spear_core::view::ViewCatalog,
    ) -> (NodeReport, Vec<(u64, ServeOutcome)>) {
        let engine = Arc::new(SimLlm::with_config(
            self.config.profile.clone(),
            EngineConfig {
                seed: self.config.engine.seed.wrapping_add(id),
                ..self.config.engine.clone()
            },
        ));
        let runtime = Runtime::builder()
            .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
            .views(views.clone())
            .build();
        let serve_node = ServeNode::new(self.config.node.clone());
        let assigned = handle.assigned.len() as u64;
        let run = serve_node.run(&runtime, Some(&engine), handle.assigned);

        let mut report = run.report;
        report.cluster = Some(ClusterLinkage {
            node_id: id,
            joined_us: handle.joined_us,
            drained: handle.drained,
        });
        let completed = report.interactive.completed + report.batch.completed;
        let service_us: u64 = run.outcomes.iter().map(|o| o.service_us).sum();
        let node_report = NodeReport {
            node_id: id,
            joined_us: handle.joined_us,
            drained: handle.drained,
            left: handle.left,
            assigned,
            completed,
            service_us,
            makespan_us: report.makespan_us,
            report,
        };
        let outcomes = run.outcomes.into_iter().map(|o| (id, o)).collect();
        (node_report, outcomes)
    }

    fn apply_churn(
        event: ChurnEvent,
        router: &mut Router,
        nodes: &mut BTreeMap<u64, NodeHandle>,
        handoffs: &mut Vec<Handoff>,
    ) {
        match event.action {
            ChurnAction::Join => {
                let handle = nodes
                    .entry(event.node)
                    .or_insert_with(|| NodeHandle::new(event.node, event.at_us));
                handle.drained = false;
                router.join(event.node);
            }
            ChurnAction::Drain => {
                if let Some(handle) = nodes.get_mut(&event.node) {
                    handle.drained = true;
                }
                handoffs.extend(router.drain(event.node));
            }
            ChurnAction::Leave => {
                if let Some(handle) = nodes.get_mut(&event.node) {
                    handle.drained = true;
                    handle.left = true;
                }
                handoffs.extend(router.leave(event.node));
            }
        }
    }

    fn roll_up(
        nodes: Vec<NodeReport>,
        router: Router,
        outcomes: &[(u64, ServeOutcome)],
    ) -> ClusterReport {
        let requests = outcomes.len() as u64;
        let completed = nodes.iter().map(|n| n.completed).sum();
        let fleet_prompt_tokens = nodes
            .iter()
            .map(|n| n.report.interactive.prompt_tokens + n.report.batch.prompt_tokens)
            .sum();
        let fleet_cached_tokens = nodes
            .iter()
            .map(|n| n.report.interactive.cached_tokens + n.report.batch.cached_tokens)
            .sum();
        let makespan_us = nodes.iter().map(|n| n.makespan_us).max().unwrap_or(0);
        let serving: Vec<u64> = nodes
            .iter()
            .filter(|n| n.assigned > 0)
            .map(|n| n.service_us)
            .collect();
        let imbalance = if serving.len() <= 1 {
            1.0
        } else {
            let max = *serving.iter().max().expect("non-empty") as f64;
            let mean = serving.iter().sum::<u64>() as f64 / serving.len() as f64;
            if mean == 0.0 {
                1.0
            } else {
                max / mean
            }
        };
        ClusterReport {
            router: router.report(),
            nodes,
            requests,
            completed,
            fleet_prompt_tokens,
            fleet_cached_tokens,
            makespan_us,
            imbalance,
            trace_fingerprint: fleet_fingerprint(outcomes),
        }
    }
}

/// The statically derived worst-case completion-token count of `plan`:
/// the abstract interpreter's token interval upper bound. Returns `0` —
/// "no information", router applies its own floor — when the bound is
/// unbounded.
#[must_use]
pub fn static_token_upper_bound(plan: &Program) -> u64 {
    let bounds =
        spear_core::analysis::analyze(plan, &spear_core::analysis::ResourceModel::default());
    if bounds.tokens.hi == u64::MAX {
        0
    } else {
        bounds.tokens.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_core::history::RefinementMode;
    use spear_core::pipeline::Pipeline;
    use spear_core::plan::lower;

    #[test]
    fn static_upper_bound_sums_gen_budgets() {
        let plan = lower(
            &Pipeline::builder("two-gens")
                .create_text("p", "base", RefinementMode::Manual)
                .gen("a", "p")
                .gen("b", "p")
                .build(),
        )
        .unwrap();
        // Two GENs at the default 256-token cap each.
        assert_eq!(static_token_upper_bound(&plan), 512);
    }
}
