//! `serve_steady` and `serve_pressure`: open-loop arrivals into one
//! `ServeNode`.
//!
//! `serve_steady` exercises the read side of every cache — the program
//! cache, the interner and the verify memo all hit, the prefix cache mostly
//! hits, the generation memo hits and coalesces on the 30 % exact
//! duplicates — with unbounded memory, so `serve.kv` and the block pool do
//! nothing and no compilation happens after the first request of a family.
//!
//! `serve_pressure` uses the same scheduler and caches the other way round:
//! arrivals in bursts of twelve, long unique payloads, three generations per request over a
//! growing prompt and no duplicates, through a small bounded KV pool. The
//! memo and the prefix cache only ever insert and evict, and `serve.kv` plus
//! the block pool do almost all the host work.

use std::sync::Arc;

use spear_core::llm::{EchoLlm, ReusePolicy};
use spear_core::plan::LoweredPlan;
use spear_core::runtime::{ExecState, Runtime};
use spear_core::scope;
use spear_core::view::ViewCatalog;
use spear_dl::Compiled;
use spear_llm::{EngineConfig, ModelProfile, SimLlm, Tokenizer};
use spear_serve::{
    KvPressureConfig, Priority, ServeConfig, ServeNode, ServeOutcome, ServeReport, ServeRequest,
    ServeRun, ServeStatus,
};

use super::{
    case_id, completion_f1, engine_seam_metrics, interner_metrics, measured, status, HostCost,
    Lanes, Pass, Tracer, Workload, MISSED,
};
use crate::calibration::{
    Ladder, SERVE_PRESSURE_LADDER, SERVE_PRESSURE_N, SERVE_STEADY_LADDER, SERVE_STEADY_N,
    STEADY_DEADLINE_US,
};
use crate::inputs::{self, ServeInput, ServeShape};
use crate::layers;
use crate::metrics::{ratio, Metrics};
use crate::quantile;
use crate::spans::{self, Captured, Span};

/// Requests executed directly in the execution replay.
const SAMPLE: usize = 2048;

pub fn steady_shape(requests: usize) -> ServeShape {
    ServeShape {
        stream: 2,
        requests,
        families: 6,
        family_zipf: 0.0,
        gen_calls: 1,
        growing_prompt: false,
        duplicate_share: 0.3,
        interactive_share: 0.6,
        payload_words: (8, 24),
        bursty: false,
    }
}

pub fn pressure_shape(requests: usize) -> ServeShape {
    ServeShape {
        stream: 3,
        requests,
        families: 4,
        family_zipf: 0.0,
        gen_calls: 3,
        growing_prompt: true,
        duplicate_share: 0.0,
        interactive_share: 0.6,
        payload_words: (200, 200),
        bursty: true,
    }
}

/// The bounded pool of `serve_pressure`: 256 blocks of 16 tokens hold the
/// four family prefixes (about 80 blocks) and a handful of private
/// sequences, which at the operating rung costs about fifteen preemptions
/// per request. Smaller pools thrash harder for the same picture at a higher
/// host cost per pass (see README, sizing).
pub fn pressure_pool() -> KvPressureConfig {
    KvPressureConfig {
        pool_blocks: 256,
        block_size: 16,
        max_batched_tokens: 1024,
        prefill_chunk_tokens: 128,
        ..KvPressureConfig::default()
    }
}

/// A generated serving input compiled to per-family plans: what the serving
/// and the cluster workloads both start from.
pub struct Fixture {
    pub seed: u64,
    pub input: ServeInput,
    pub compiled: Compiled,
    /// One lowered plan per family, shared by the family's requests.
    pub plans: Vec<Arc<LoweredPlan>>,
    /// Tokens of each family's instruction block ahead of the payload.
    prefix_tokens: Vec<u64>,
    deadline_us: Option<u64>,
}

impl Fixture {
    pub fn prepare(
        seed: u64,
        shape: &ServeShape,
        deadline_us: Option<u64>,
    ) -> Result<Self, String> {
        let input = inputs::serve(seed, shape);
        let compiled = spear_dl::compile(&input.source).map_err(|e| format!("dl::compile: {e}"))?;
        let plans: Vec<Arc<LoweredPlan>> = compiled
            .lower()
            .map_err(|e| format!("lower: {e}"))?
            .into_iter()
            .map(Arc::new)
            .collect();
        if plans.len() != shape.families || compiled.views.len() != shape.families {
            return Err(
                "the serving source must declare one view and one pipeline per family".into(),
            );
        }
        let tokenizer = Tokenizer::new();
        let prefix_tokens = compiled
            .views
            .iter()
            .map(|view| {
                let prefix = view.template.split("{{ctx:item}}").next().unwrap_or("");
                tokenizer.count(prefix) as u64
            })
            .collect();
        Ok(Self {
            seed,
            input,
            compiled,
            plans,
            prefix_tokens,
            deadline_us,
        })
    }

    pub fn views(&self) -> ViewCatalog {
        let views = ViewCatalog::new();
        self.compiled.install_views(&views);
        views
    }

    fn state(&self, index: usize) -> ExecState {
        let mut state = ExecState::new();
        state
            .context
            .set("item", self.input.arrivals[index].item.as_str());
        state
    }

    /// The request stream with arrivals `mean_gap_us` apart on average.
    pub fn requests(&self, mean_gap_us: f64) -> Vec<ServeRequest> {
        let tokenizer = Tokenizer::new();
        let times = self.input.arrival_times(mean_gap_us);
        self.input
            .arrivals
            .iter()
            .zip(times)
            .enumerate()
            .map(|(index, (arrival, at_us))| {
                let priority = if arrival.interactive {
                    Priority::Interactive
                } else {
                    Priority::Batch
                };
                let prefix = self.prefix_tokens[arrival.family];
                let request = ServeRequest::new(
                    arrival.id,
                    priority,
                    Arc::clone(&self.plans[arrival.family]),
                    self.state(index),
                    at_us,
                )
                .with_est_tokens(prefix + tokenizer.count(&arrival.item) as u64 + 50)
                .with_shared_prefix_tokens(prefix);
                match self.deadline_us.filter(|_| arrival.interactive) {
                    Some(deadline) => request.with_deadline_us(deadline),
                    None => request,
                }
            })
            .collect()
    }

    pub fn arrival_times(&self, mean_gap_us: f64) -> Vec<u64> {
        self.input.arrival_times(mean_gap_us)
    }
}

fn status_tag(status: &ServeStatus) -> u64 {
    match status {
        ServeStatus::Completed => status::COMPLETED,
        ServeStatus::Rejected { .. } => status::REJECTED,
        ServeStatus::DeadlineExceeded { .. } => status::DEADLINE,
        ServeStatus::Cancelled { .. } => status::CANCELLED,
        ServeStatus::Failed { .. } => status::FAILED,
    }
}

/// One outcome per submitted id, and the report's class counters and token
/// ledgers equal to the sums over those outcomes.
pub fn check_ledgers<'a>(
    outcomes: impl Iterator<Item = &'a ServeOutcome> + Clone,
    reports: &[&ServeReport],
    submitted: usize,
) -> Result<(), String> {
    let ids: Vec<u64> = outcomes.clone().map(|o| o.id).collect();
    if ids.len() != submitted || ids.iter().enumerate().any(|(i, &id)| id != i as u64) {
        return Err(format!(
            "{} outcomes for {submitted} submitted ids",
            ids.len()
        ));
    }
    for class in Priority::ALL {
        let of_class = outcomes.clone().filter(|o| o.priority == class);
        let completed = of_class
            .clone()
            .filter(|o| o.status == ServeStatus::Completed);
        let rejected = of_class
            .clone()
            .filter(|o| matches!(o.status, ServeStatus::Rejected { .. }))
            .count() as u64;
        let (mut count, mut prompt, mut cached) = (0u64, 0u64, 0u64);
        for o in completed {
            count += 1;
            prompt += o.usage.prompt_tokens;
            cached += o.usage.cached_tokens;
        }
        let sum = |f: fn(&spear_serve::ClassReport) -> u64| -> u64 {
            reports.iter().map(|r| f(r.class(class))).sum()
        };
        let reported = (
            sum(|c| c.submitted),
            sum(|c| c.completed),
            sum(|c| c.rejected),
            sum(|c| c.prompt_tokens),
            sum(|c| c.cached_tokens),
        );
        let counted = (of_class.count() as u64, count, rejected, prompt, cached);
        if reported != counted {
            return Err(format!(
                "{} class ledger (submitted, completed, rejected, prompt, cached) reports \
                 {reported:?} but the outcomes sum to {counted:?}",
                class.label()
            ));
        }
    }
    Ok(())
}

/// Fold serving outcomes (in id order) into the terms every workload
/// shares, with latencies timed from the scheduled arrivals.
pub fn serving_pass<'a>(
    outcomes: impl Iterator<Item = &'a ServeOutcome>,
    arrivals_us: &[u64],
    makespan_us: u64,
    host: HostCost,
) -> Pass {
    let mut failed = 0;
    let mut latency_us = Vec::with_capacity(arrivals_us.len());
    let mut rows = Vec::with_capacity(arrivals_us.len());
    for (outcome, &arrival_us) in outcomes.zip(arrivals_us) {
        if outcome.status == ServeStatus::Completed {
            latency_us.push(outcome.finish_us.saturating_sub(arrival_us));
        } else {
            failed += 1;
            latency_us.push(MISSED);
        }
        rows.push((
            status_tag(&outcome.status),
            outcome.trace_digest.unwrap_or(0),
        ));
    }
    let attempted = arrivals_us.len() as u64;
    Pass {
        host,
        attempted,
        failed,
        outcomes: rows,
        makespan_us,
        latency_us,
        quality: completion_f1(attempted, failed),
    }
}

/// An engine whose prefix cache never evicts ("unbounded memory"). With the
/// default 4096 blocks per shard a crowded shard evicts payload blocks that
/// a later exact duplicate would have hit, in an LRU order that depends on
/// how the lanes interleave — and then trace digests depend on the lane
/// count.
pub fn roomy_engine(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        capacity_blocks: 1 << 20,
        ..EngineConfig::default()
    }
}

pub struct Serve {
    fixture: Fixture,
    shape: ServeShape,
    ladder: &'static Ladder,
    pressure: Option<KvPressureConfig>,
    engine_config: EngineConfig,
}

struct Run {
    pass: Pass,
    run: ServeRun,
    engine: Arc<SimLlm>,
    captured: Vec<Captured>,
}

impl Serve {
    pub fn steady(seed: u64) -> Result<Self, String> {
        let shape = steady_shape(SERVE_STEADY_N);
        Ok(Self {
            fixture: Fixture::prepare(seed, &shape, Some(STEADY_DEADLINE_US))?,
            shape,
            ladder: &SERVE_STEADY_LADDER,
            pressure: None,
            engine_config: roomy_engine(seed),
        })
    }

    pub fn pressure(seed: u64) -> Result<Self, String> {
        let shape = pressure_shape(SERVE_PRESSURE_N);
        Ok(Self {
            fixture: Fixture::prepare(seed, &shape, None)?,
            shape,
            ladder: &SERVE_PRESSURE_LADDER,
            pressure: Some(pressure_pool()),
            // A prefix cache and a memo smaller than what the run inserts,
            // so both evict.
            engine_config: EngineConfig {
                seed,
                capacity_blocks: 8192,
                reuse_capacity: 4096,
                ..EngineConfig::default()
            },
        })
    }

    fn run(
        &self,
        fixture: &Fixture,
        lanes: usize,
        gap_us: f64,
        pressure: Option<KvPressureConfig>,
        tracer: Option<&Tracer>,
    ) -> Result<Run, String> {
        let engine = Arc::new(SimLlm::with_config(
            ModelProfile::qwen25_7b_instruct(),
            self.engine_config.clone(),
        ));
        let (llm, decorated) = Tracer::wrap(tracer, &engine);
        let runtime = Runtime::builder().llm(llm).views(fixture.views()).build();
        let node = ServeNode::new(ServeConfig {
            lanes,
            pressure,
            ..ServeConfig::default()
        });
        let requests = fixture.requests(gap_us);
        let arrivals_us = fixture.arrival_times(gap_us);

        let (run, host) = measured(tracer.map(|t| (t, "serve.run")), || {
            node.run(&runtime, Some(&engine), requests)
        });

        check_ledgers(run.outcomes.iter(), &[&run.report], arrivals_us.len())?;
        Ok(Run {
            pass: serving_pass(
                run.outcomes.iter(),
                &arrivals_us,
                run.report.makespan_us,
                host,
            ),
            run,
            engine,
            captured: decorated.map(|d| d.take_captured()).unwrap_or_default(),
        })
    }

    fn operating_gap(&self) -> f64 {
        self.ladder.gap_us(self.ladder.operating_rung)
    }
}

/// Serving-layer counts of one run, summed over the reports of the nodes
/// that served it. `gens` is the number of generation calls the run made.
pub fn report_counts(reports: &[&ServeReport], n: f64, gens: f64, metrics: &mut Metrics) {
    let sum = |f: &dyn Fn(&ServeReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    metrics.set("llm.memo.hit_share", ratio(sum(&|r| r.reuse.hits), gens));
    metrics.set(
        "llm.memo.coalesced_share",
        ratio(sum(&|r| r.reuse.coalesced), gens),
    );
    metrics.set(
        "llm.memo.saved_calls_per_req",
        sum(&|r| r.reuse.saved_calls) / n,
    );
    metrics.set("llm.memo.resident_bytes", sum(&|r| r.reuse.bytes));
    metrics.set(
        "llm.cache.hit_token_share",
        ratio(
            sum(&|r| r.cache.hit_tokens),
            sum(&|r| r.cache.lookup_tokens),
        ),
    );
    metrics.set(
        "llm.cache.inserted_blocks",
        sum(&|r| r.cache.inserted_blocks),
    );
    metrics.set("llm.cache.evicted_blocks", sum(&|r| r.cache.evicted_blocks));
    let pool_reuse = ratio(
        sum(&|r| r.kv.reused_blocks),
        sum(&|r| r.kv.requested_blocks),
    );
    metrics.set("llm.pool.reuse_share", pool_reuse);
    metrics.set("llm.pool.alloc_failures", sum(&|r| r.kv.alloc_failures));
    metrics.set("serve.kv.steps_per_req", sum(&|r| r.kv.steps) / n);
    metrics.set("serve.kv.preemptions_per_req", sum(&|r| r.kv.preempted) / n);
    metrics.set(
        "serve.kv.evicted_blocks_per_req",
        sum(&|r| r.kv.evicted_blocks) / n,
    );
    metrics.set("serve.kv.pool_reuse_share", pool_reuse);
    let hits = sum(&|r| r.compile.cache_hits);
    metrics.set(
        "serve.program_cache.hit_share",
        ratio(hits, hits + sum(&|r| r.compile.compiled)),
    );
    metrics.set("serve.program_cache.evicted", sum(&|r| r.compile.evicted));
    let rejected = sum(&|r| r.interactive.rejected + r.batch.rejected);
    metrics.set(
        "serve.program_cache.verify_memo_hit_share",
        ratio(sum(&|r| r.compile.verify_memo_hits), n),
    );
    metrics.set("serve.queue.rejected_share", rejected / n);
}

/// Exact queue-wait quantiles over the dispatched requests.
pub fn queue_waits<'a>(outcomes: impl Iterator<Item = &'a ServeOutcome>, metrics: &mut Metrics) {
    let waits: Vec<u64> = outcomes
        .filter(|o| !matches!(o.status, ServeStatus::Rejected { .. }))
        .map(|o| o.queue_wait_us)
        .collect();
    if !waits.is_empty() {
        metrics.set(
            "serve.queue.wait_p50_ms",
            quantile::of_u64(&waits, 0.5) as f64 / 1e3,
        );
        metrics.set(
            "serve.queue.wait_p99_ms",
            quantile::of_u64(&waits, 0.99) as f64 / 1e3,
        );
    }
}

/// `llm.engine.*` and `serve.scheduler.self_us_per_req` of a traced serving
/// run made of `serve.run` spans; returns the latter.
pub fn seam_metrics(pass_spans: &[Span], lanes: usize, n: f64, metrics: &mut Metrics) -> f64 {
    engine_seam_metrics(pass_spans, "serve.run", lanes, n, metrics);
    let self_us = spans::self_ns_of(pass_spans, "serve.run") as f64 / 1e3 / n;
    metrics.set("serve.scheduler.self_us_per_req", self_us);
    self_us
}

/// Execution replay: the first `SAMPLE` requests' programs run directly on
/// the benchmark's thread with generation reuse on, one `exec` span each.
/// Returns the executed states and the spans recorded.
pub fn exec_replay(
    fixture: &Fixture,
    engine_config: &EngineConfig,
    metrics: &mut Metrics,
) -> Result<(Vec<ExecState>, Vec<Span>), String> {
    let engine = Arc::new(SimLlm::with_config(
        ModelProfile::qwen25_7b_instruct(),
        engine_config.clone(),
    ));
    let replay = Tracer::new(case_id);
    let (llm, decorated) = Tracer::wrap(Some(&replay), &engine);
    let runtime = Runtime::builder().llm(llm).views(fixture.views()).build();
    let programs = spear_serve::ProgramCache::new(fixture.plans.len());
    let sample = fixture.input.arrivals.len().min(SAMPLE);
    let mut states = Vec::with_capacity(sample);
    let (mut ops, mut events, mut prompt_tokens) = (0u64, 0usize, 0u64);
    for index in 0..sample {
        let arrival = &fixture.input.arrivals[index];
        let program = programs
            .get_or_compile(&fixture.plans[arrival.family], &runtime, Some(&engine))
            .ok_or("a family plan failed to compile")?;
        let mut state = fixture.state(index);
        state.reuse = ReusePolicy::Exact;
        // One cache owner per family, as affinity routing assigns them.
        let _scope = scope::enter((1 << 40) + arrival.family as u64, 0);
        let span = replay.recorder.open("exec", Some(arrival.id));
        let report = runtime.execute_program(&program, &mut state);
        replay.recorder.close(span);
        let report = report.map_err(|e| format!("replay of request {}: {e}", arrival.id))?;
        ops += report.ops_executed;
        events += state.trace.events().len();
        prompt_tokens += report.usage.prompt_tokens;
        states.push(state);
    }
    let replay_spans = replay.recorder.snapshot();
    let per = sample as f64;
    metrics.set(
        "core.exec.self_us_per_req",
        spans::self_ns_of(&replay_spans, "exec") as f64 / 1e3 / per,
    );
    metrics.set("core.vm.ops_per_req", ops as f64 / per);
    metrics.set("core.trace.events_per_req", events as f64 / per);
    metrics.set("llm.tokenizer.tokens_per_req", prompt_tokens as f64 / per);
    let captured = decorated.map(|d| d.take_captured()).unwrap_or_default();
    let segmented = captured
        .iter()
        .filter(|c| c.request.segments.is_some())
        .count();
    metrics.set("core.template.renders_per_req", segmented as f64 / per);
    Ok((states, replay_spans))
}

/// The replays and compiler-phase measurements the serving and the cluster
/// workloads share, over engine calls `captured` from a traced pass.
pub fn lower_layers(
    fixture: &Fixture,
    engine_config: &EngineConfig,
    captured: &[Captured],
    states: &[ExecState],
    metrics: &mut Metrics,
) -> Result<(), String> {
    layers::tokenizer(captured, metrics);
    layers::interner(captured, engine_config.block_size, metrics);
    layers::prefix_cache(captured, engine_config, None, metrics);
    layers::memo(
        captured,
        engine_config.block_size,
        engine_config.reuse_capacity,
        metrics,
    );
    layers::trace_cost(states.iter(), metrics);
    layers::template_render(states.iter(), "p", metrics);

    let runtime = Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .views(fixture.views())
        .build();
    layers::admission_queue(fixture.requests(1000.0), 8, metrics);
    layers::program_cache_misses(&fixture.plans, &runtime, metrics);
    layers::program_cache_hits(
        &fixture.plans,
        fixture.input.arrivals.iter().map(|a| a.family),
        &runtime,
        metrics,
    );
    let reps = (256 / fixture.plans.len()).max(1);
    let programs = layers::compiler_phases(&[&fixture.input.source], &runtime, reps, metrics)?;
    let sample = fixture.input.arrivals.len().min(SAMPLE);
    layers::dispatch(
        &runtime,
        (0..sample).map(|i| {
            (
                &programs[fixture.input.arrivals[i].family].1,
                fixture.state(i),
            )
        }),
        metrics,
    )?;
    Ok(())
}

impl Workload for Serve {
    fn n(&self) -> usize {
        self.fixture.input.arrivals.len()
    }

    fn input_hash(&self) -> u64 {
        self.fixture.input.hash()
    }

    fn pass(&self, lanes: Lanes, rung: Option<usize>) -> Result<Pass, String> {
        let gap_us = self
            .ladder
            .gap_us(rung.unwrap_or(self.ladder.operating_rung));
        let lanes = lanes.count(super::LANES);
        Ok(self
            .run(&self.fixture, lanes, gap_us, self.pressure.clone(), None)?
            .pass)
    }

    fn ladder(&self) -> Option<&'static Ladder> {
        Some(self.ladder)
    }

    fn trace(&self, untraced: &Pass, metrics: &mut Metrics) -> Result<Vec<Span>, String> {
        let n = self.n() as f64;
        let tracer = Tracer::new(case_id);
        let traced = self.run(
            &self.fixture,
            super::LANES,
            self.operating_gap(),
            self.pressure.clone(),
            Some(&tracer),
        )?;
        if traced.pass.outcomes != untraced.outcomes {
            return Err("tracing changed the trace digests".into());
        }
        let pass_spans = tracer.recorder.snapshot();
        let gens = spans::count_of(&pass_spans, "llm.generate") as f64;
        report_counts(&[&traced.run.report], n, gens, metrics);
        queue_waits(traced.run.outcomes.iter(), metrics);
        interner_metrics(&[traced.engine.interner_stats()], metrics);
        let self_us = seam_metrics(&pass_spans, super::LANES, n, metrics);
        metrics.set(
            "host.trace_overhead_share",
            traced.pass.host.wall_s / untraced.host.wall_s - 1.0,
        );
        untraced.allocation_metrics(metrics);

        match &self.pressure {
            // The cost of the KV iteration scheduler: the same request list
            // through the same node without the pool, and the difference in
            // the scheduler's self time spread over the pool's steps.
            Some(pressure) => {
                let plain = Tracer::new(case_id);
                self.run(
                    &self.fixture,
                    super::LANES,
                    self.operating_gap(),
                    None,
                    Some(&plain),
                )?;
                let plain_us =
                    spans::self_ns_of(&plain.recorder.snapshot(), "serve.run") as f64 / 1e3 / n;
                let steps = traced.run.report.kv.steps as f64;
                metrics.set(
                    "serve.kv.sim_us_per_step",
                    ratio((self_us - plain_us).max(0.0) * n, steps),
                );
                layers::block_pool(&traced.captured, pressure, metrics);
            }
            // Four times the requests of the same shape: the scheduler's
            // per-request cost should not depend on how many it serves.
            None => {
                let shape = ServeShape {
                    requests: self.shape.requests * 4,
                    ..self.shape.clone()
                };
                let fixture =
                    Fixture::prepare(self.fixture.seed, &shape, self.fixture.deadline_us)?;
                let large = Tracer::new(case_id);
                self.run(
                    &fixture,
                    super::LANES,
                    self.operating_gap(),
                    None,
                    Some(&large),
                )?;
                metrics.set(
                    "serve.scheduler.self_us_per_req_at_4x",
                    spans::self_ns_of(&large.recorder.snapshot(), "serve.run") as f64
                        / 1e3
                        / (4.0 * n),
                );
            }
        }

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

#[cfg(test)]
mod tests {
    use super::*;

    /// Rungs of a rate ladder replay the same draws: every field of every
    /// request is equal except the arrival timestamp.
    #[test]
    fn ladder_rungs_differ_only_in_arrival_gaps() {
        let fixture = Fixture::prepare(9, &steady_shape(300), Some(STEADY_DEADLINE_US)).unwrap();
        let ladder = &SERVE_STEADY_LADDER;
        let (slow, fast) = (
            fixture.requests(ladder.gap_us(0)),
            fixture.requests(ladder.gap_us(5)),
        );
        assert_eq!(slow.len(), 300);
        for (a, b) in slow.iter().zip(&fast) {
            assert_eq!(
                (
                    a.id,
                    a.priority,
                    a.deadline_us,
                    a.est_tokens,
                    a.shared_prefix_tokens
                ),
                (
                    b.id,
                    b.priority,
                    b.deadline_us,
                    b.est_tokens,
                    b.shared_prefix_tokens
                )
            );
            assert!(Arc::ptr_eq(&a.plan, &b.plan));
            assert_eq!(
                a.state.context.get_ref("item"),
                b.state.context.get_ref("item")
            );
            assert!(a.arrival_us > b.arrival_us);
        }
        let stretch =
            slow.last().unwrap().arrival_us as f64 / fast.last().unwrap().arrival_us as f64;
        assert!((stretch - 1.2f64.powi(5)).abs() < 0.01, "stretch {stretch}");
    }

    #[test]
    fn ledgers_catch_a_lost_outcome_and_a_miscounted_class() {
        let serve = Serve::steady(4).unwrap();
        let fixture = Fixture::prepare(4, &steady_shape(64), None).unwrap();
        let run = serve.run(&fixture, 2, 1e6, None, None).unwrap();
        let n = fixture.input.arrivals.len();
        assert!(check_ledgers(run.run.outcomes.iter(), &[&run.run.report], n).is_ok());
        assert!(check_ledgers(run.run.outcomes.iter().skip(1), &[&run.run.report], n).is_err());
        let mut report = run.run.report.clone();
        report.interactive.completed += 1;
        assert!(check_ledgers(run.run.outcomes.iter(), &[&report], n).is_err());
    }
}
