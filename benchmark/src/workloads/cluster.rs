//! `cluster_zipf`: open-loop arrivals over twelve Zipf-popular families into
//! a `Cluster` of four one-lane nodes behind the prefix-aware router, with a
//! scripted join, drain and leave mid-run. The only workload in which the
//! router, per-node engine and program-cache construction and the report
//! roll-up run; the cluster's own four node threads on two cores are part of
//! what is measured.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use spear_cluster::{ChurnAction, ChurnEvent, Cluster, ClusterConfig, Router, RouterConfig};
use spear_core::runtime::Runtime;
use spear_llm::{EngineConfig, InternStats, ModelProfile, SimLlm};
use spear_serve::{
    GeneratedWorkload, ServeConfig, ServeNode, ServeOutcome, ServeReport, ServeRequest,
};

use super::serve::{
    check_ledgers, exec_replay, lower_layers, queue_waits, report_counts, roomy_engine,
    seam_metrics, serving_pass, Fixture,
};
use super::{case_id, interner_metrics, measured, HostCost, Lanes, Pass, Tracer, Workload};
use crate::calibration::{Ladder, CLUSTER_LADDER, CLUSTER_N};
use crate::inputs::ServeShape;
use crate::metrics::{ratio, Metrics};
use crate::spans::{self, Captured, Span};

const NODES: usize = 4;
/// Worker lanes per node.
const NODE_LANES: usize = 1;

fn shape(requests: usize) -> ServeShape {
    ServeShape {
        stream: 4,
        requests,
        families: 12,
        family_zipf: 1.1,
        gen_calls: 1,
        growing_prompt: false,
        duplicate_share: 0.0,
        interactive_share: 0.6,
        payload_words: (8, 24),
        bursty: false,
    }
}

pub struct ClusterZipf {
    fixture: Fixture,
    engine_config: EngineConfig,
}

/// What the benchmark's own node loop (router replay, then each node's slice
/// on a decorated engine) produced.
struct NodeLoop {
    outcomes: Vec<ServeOutcome>,
    reports: Vec<ServeReport>,
    route_ns: f64,
    interners: Vec<InternStats>,
    captured: Vec<Captured>,
}

impl ClusterZipf {
    pub fn prepare(seed: u64) -> Result<Self, String> {
        Ok(Self {
            fixture: Fixture::prepare(seed, &shape(CLUSTER_N), None)?,
            engine_config: roomy_engine(seed),
        })
    }

    /// Node 4 joins a quarter of the way through the arrivals, node 0 drains
    /// at the half and node 1 leaves at three quarters.
    fn churn(horizon_us: u64) -> Vec<ChurnEvent> {
        vec![
            ChurnEvent::join(horizon_us / 4, NODES as u64),
            ChurnEvent::drain(horizon_us / 2, 0),
            ChurnEvent::leave(horizon_us / 4 * 3, 1),
        ]
    }

    fn config(&self, node_lanes: usize, horizon_us: u64) -> ClusterConfig {
        ClusterConfig {
            initial_nodes: NODES,
            node: ServeConfig {
                lanes: node_lanes,
                ..ServeConfig::default()
            },
            router: RouterConfig::default(),
            churn: Self::churn(horizon_us),
            profile: ModelProfile::qwen25_7b_instruct(),
            engine: self.engine_config.clone(),
        }
    }

    fn workload(fixture: &Fixture, gap_us: f64) -> GeneratedWorkload {
        GeneratedWorkload {
            views: fixture.views(),
            plans: fixture.plans.clone(),
            requests: fixture.requests(gap_us),
        }
    }

    fn run(&self, node_lanes: usize, gap_us: f64) -> Result<Pass, String> {
        let arrivals_us = self.fixture.arrival_times(gap_us);
        let horizon_us = arrivals_us.last().copied().unwrap_or(0);
        let cluster = Cluster::new(self.config(node_lanes, horizon_us));
        let workload = Self::workload(&self.fixture, gap_us);

        let (run, host) = measured(None, || cluster.run(workload));

        let reports: Vec<&ServeReport> = run.report.nodes.iter().map(|n| &n.report).collect();
        let outcomes = run.outcomes.iter().map(|(_, o)| o);
        check_ledgers(outcomes.clone(), &reports, arrivals_us.len())?;
        Ok(serving_pass(
            outcomes,
            &arrivals_us,
            run.report.makespan_us,
            host,
        ))
    }

    /// The cluster's three phases driven from the benchmark through the
    /// public `Router` and `ServeNode`, so the router can be timed alone and
    /// each node's engine decorated.
    fn node_loop(
        &self,
        fixture: &Fixture,
        gap_us: f64,
        tracer: &Tracer,
    ) -> Result<NodeLoop, String> {
        let requests = fixture.requests(gap_us);
        let horizon_us = requests.last().map_or(0, |r| r.arrival_us);
        let mut churn = Self::churn(horizon_us).into_iter().peekable();
        let mut router = Router::new(RouterConfig::default(), 0..NODES as u64);
        let mut slices: BTreeMap<u64, Vec<ServeRequest>> =
            (0..NODES as u64).map(|id| (id, Vec::new())).collect();
        let mut route_ns = 0.0;
        for request in requests {
            while let Some(event) = churn.next_if(|e| e.at_us <= request.arrival_us) {
                match event.action {
                    ChurnAction::Join => router.join(event.node),
                    ChurnAction::Drain => drop(router.drain(event.node)),
                    ChurnAction::Leave => drop(router.leave(event.node)),
                }
            }
            let start = Instant::now();
            let node = router.route(request.plan.affinity_seed(), request.id, request.est_tokens);
            route_ns += start.elapsed().as_nanos() as f64;
            slices.entry(node).or_default().push(request);
        }

        let mut out = NodeLoop {
            outcomes: Vec::new(),
            reports: Vec::new(),
            route_ns,
            interners: Vec::new(),
            captured: Vec::new(),
        };
        for (id, slice) in slices {
            let engine = Arc::new(SimLlm::with_config(
                ModelProfile::qwen25_7b_instruct(),
                EngineConfig {
                    seed: self.engine_config.seed.wrapping_add(id),
                    ..self.engine_config.clone()
                },
            ));
            let (llm, decorated) = Tracer::wrap(Some(tracer), &engine);
            let runtime = Runtime::builder().llm(llm).views(fixture.views()).build();
            let node = ServeNode::new(ServeConfig {
                lanes: NODE_LANES,
                ..ServeConfig::default()
            });
            let span = tracer.recorder.open("serve.run", None);
            let run = node.run(&runtime, Some(&engine), slice);
            tracer.recorder.close(span);
            out.interners.push(engine.interner_stats());
            out.outcomes.extend(run.outcomes);
            out.reports.push(run.report);
            out.captured
                .extend(decorated.map(|d| d.take_captured()).unwrap_or_default());
        }
        out.outcomes.sort_by_key(|o| o.id);
        Ok(out)
    }

    fn operating_gap() -> f64 {
        CLUSTER_LADDER.gap_us(CLUSTER_LADDER.operating_rung)
    }
}

impl Workload for ClusterZipf {
    fn n(&self) -> usize {
        self.fixture.input.arrivals.len()
    }

    fn input_hash(&self) -> u64 {
        self.fixture.input.hash()
    }

    fn pass(&self, lanes: Lanes, rung: Option<usize>) -> Result<Pass, String> {
        let gap_us = CLUSTER_LADDER.gap_us(rung.unwrap_or(CLUSTER_LADDER.operating_rung));
        self.run(lanes.count(NODE_LANES), gap_us)
    }

    fn ladder(&self) -> Option<&'static Ladder> {
        Some(&CLUSTER_LADDER)
    }

    fn trace(&self, untraced: &Pass, metrics: &mut Metrics) -> Result<Vec<Span>, String> {
        let n = self.n() as f64;
        let gap_us = Self::operating_gap();
        let tracer = Tracer::new(case_id);
        let start = Instant::now();
        let traced = self.node_loop(&self.fixture, gap_us, &tracer)?;
        let traced_wall_s = start.elapsed().as_secs_f64();
        let replayed = serving_pass(
            traced.outcomes.iter(),
            &self.fixture.arrival_times(gap_us),
            0,
            HostCost::default(),
        );
        if replayed.outcomes != untraced.outcomes {
            return Err(
                "the benchmark's node loop and Cluster::run disagree on the outcomes".into(),
            );
        }
        let pass_spans = tracer.recorder.snapshot();
        let gens = spans::count_of(&pass_spans, "llm.generate") as f64;
        let reports: Vec<&ServeReport> = traced.reports.iter().collect();
        report_counts(&reports, n, gens, metrics);
        queue_waits(traced.outcomes.iter(), metrics);
        interner_metrics(&traced.interners, metrics);
        seam_metrics(&pass_spans, NODE_LANES, n, metrics);
        metrics.set("cluster.router.route_ns_per_req", traced.route_ns / n);

        // Router counts and the roll-up come from the product's own run; the
        // sequential run is also the base of the parallel speed-up.
        let arrivals_us = self.fixture.arrival_times(gap_us);
        let horizon_us = arrivals_us.last().copied().unwrap_or(0);
        let cluster = Cluster::new(self.config(NODE_LANES, horizon_us));
        let start = Instant::now();
        let sequential = cluster.run_sequential(Self::workload(&self.fixture, gap_us));
        let sequential_s = start.elapsed().as_secs_f64();
        let router = sequential.report.router;
        metrics.set(
            "cluster.router.prefix_routed_share",
            ratio(
                router.prefix_routed as f64,
                (router.prefix_routed + router.hash_routed) as f64,
            ),
        );
        metrics.set(
            "cluster.router.replicated_families",
            router.replicated_families as f64,
        );
        metrics.set("cluster.router.handoffs", router.handoffs as f64);
        metrics.set("cluster.router.imbalance_x", sequential.report.imbalance);
        metrics.set(
            "cluster.run.parallel_speedup_x",
            sequential_s / untraced.host.wall_s,
        );
        // What `run_sequential` spends outside routing and node serving
        // (merging outcomes, the fleet fingerprint, the report), as the
        // remainder against the benchmark's own loop over the same phases.
        let served_s = spans::total_ns_of(&pass_spans, "serve.run") as f64 / 1e9;
        metrics.set(
            "cluster.run.rollup_us",
            ((sequential_s - served_s - traced.route_ns / 1e9) * 1e6).max(0.0),
        );
        metrics.set(
            "host.trace_overhead_share",
            traced_wall_s / sequential_s - 1.0,
        );
        untraced.allocation_metrics(metrics);

        // Four times the requests: per-request scheduler cost at scale.
        let large_fixture = Fixture::prepare(self.fixture.seed, &shape(self.n() * 4), None)?;
        let large = Tracer::new(case_id);
        self.node_loop(&large_fixture, gap_us, &large)?;
        metrics.set(
            "serve.scheduler.self_us_per_req_at_4x",
            spans::self_ns_of(&large.recorder.snapshot(), "serve.run") as f64 / 1e3 / (4.0 * n),
        );

        let (states, replay_spans) = exec_replay(&self.fixture, &self.engine_config, metrics)?;
        lower_layers(
            &self.fixture,
            &self.engine_config,
            &traced.captured,
            &states,
            metrics,
        )?;

        let mut all = pass_spans;
        spans::append(&mut all, replay_spans);
        Ok(all)
    }
}
