//! `batch_adaptive`: the paper's §7 setting. Offline, closed: every tweet
//! runs through one SPEAR-DL adaptive pipeline (view-derived prompt, GEN,
//! EXPAND, confidence RETRY with `auto_refine`, CHECK/ELSE) on a
//! `BatchRunner`, one shared engine with the view prefix pre-warmed and
//! generation reuse off. Refinement mutates the prompt mid-pipeline, so the
//! tokenizer, interner and prefix cache see partially preserved prefixes.
//! Bypasses `serve`, `cluster`, the generation memo and the block pool.

use std::collections::BTreeMap;
use std::sync::Arc;

use spear_core::batch::{BatchOutcome, BatchRunner};
use spear_core::error::Result as CoreResult;
use spear_core::llm::{EchoLlm, GenRequest};
use spear_core::pipeline::Pipeline;
use spear_core::runtime::{ExecState, Runtime};
use spear_core::view::ViewCatalog;
use spear_core::{scope, Context, Value};
use spear_data::metrics::Confusion;
use spear_data::tweets::{Sentiment, Topic};
use spear_dl::Compiled;
use spear_llm::{EngineConfig, ModelProfile, SimLlm};

use super::{
    engine_seam_metrics, interner_metrics, measured, status, Lanes, Pass, Tracer, Workload, MISSED,
};
use crate::calibration::BATCH_N;
use crate::inputs::{self, BatchInput};
use crate::layers;
use crate::metrics::{ratio, Metrics};
use crate::spans::{self, Span, SpanLlm};

const PIPELINE: &str = "batch_adaptive";
const VIEW: &str = "tweet_filter";
const PROMPT_KEY: &str = "filter";
/// States kept from a traced pass for the trace/template/dispatch replays.
const SAMPLE: usize = 2048;

pub struct Batch {
    seed: u64,
    input: BatchInput,
    compiled: Compiled,
    pipeline: Arc<Pipeline>,
}

/// A fresh engine, the runtime on it, and the span decorator between them
/// when traced.
struct Fresh {
    runtime: Runtime,
    engine: Arc<SimLlm>,
    decorated: Option<Arc<SpanLlm>>,
}

/// Everything one execution of the input produced.
struct Run {
    pass: Pass,
    outcomes: Vec<CoreResult<BatchOutcome>>,
    engine: Arc<SimLlm>,
}

/// With `BatchRunner::run` on a fresh runner, job `i` executes as cache
/// owner `1 + i`.
fn owner_id(_request: &GenRequest, owner: u64) -> Option<u64> {
    owner.checked_sub(1)
}

impl Batch {
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let input = inputs::batch(seed, BATCH_N);
        let compiled = spear_dl::compile(&input.source).map_err(|e| format!("dl::compile: {e}"))?;
        let pipeline = compiled
            .pipeline(PIPELINE)
            .cloned()
            .ok_or("the batch source declares no batch_adaptive pipeline")?;
        Ok(Self {
            seed,
            input,
            compiled,
            pipeline: Arc::new(pipeline),
        })
    }

    fn engine(&self) -> Arc<SimLlm> {
        Arc::new(SimLlm::with_config(
            ModelProfile::qwen25_7b_instruct(),
            EngineConfig {
                seed: self.seed,
                ..EngineConfig::default()
            },
        ))
    }

    fn views(&self) -> ViewCatalog {
        let views = ViewCatalog::new();
        self.compiled.install_views(&views);
        views
    }

    /// The view rendered with no tweet: the prefix every pipeline shares.
    fn shared_prefix(views: &ViewCatalog) -> Result<String, String> {
        let entry = views
            .instantiate(VIEW, BTreeMap::new())
            .map_err(|e| format!("instantiate {VIEW}: {e}"))?;
        let mut context = Context::new();
        context.set("tweet", "");
        entry
            .render(&context)
            .map_err(|e| format!("render {VIEW}: {e}"))
    }

    /// A fresh engine with the view's rendered prefix resident, as after the
    /// view's own first execution, and a runtime on it (behind the span
    /// decorator when traced).
    fn fresh(&self, tracer: Option<&Tracer>) -> Result<Fresh, String> {
        let views = self.views();
        let engine = self.engine();
        engine.warm(&Self::shared_prefix(&views)?);
        let (llm, decorated) = Tracer::wrap(tracer, &engine);
        Ok(Fresh {
            runtime: Runtime::builder().llm(llm).views(views).build(),
            engine,
            decorated,
        })
    }

    fn states(&self) -> Vec<ExecState> {
        self.input
            .tweets
            .iter()
            .map(|tweet| {
                let mut state = ExecState::new();
                state.context.set("tweet", tweet.text.as_str());
                state
            })
            .collect()
    }

    /// The label the pipeline settled on: the last RETRY generation.
    fn selected(state: &ExecState) -> Option<bool> {
        (0..=2)
            .rev()
            .find_map(|k| state.context.get_ref(&format!("retry_{k}")))
            .and_then(Value::as_str)
            .map(|text| text.starts_with("yes"))
    }

    fn run(&self, lanes: usize, tracer: Option<&Tracer>) -> Result<Run, String> {
        let Fresh {
            runtime, engine, ..
        } = self.fresh(tracer)?;
        let states = self.states();
        let runner = BatchRunner::new(lanes);

        let (outcomes, host) = measured(tracer.map(|t| (t, "batch.run")), || {
            runner.run_states(&runtime, &self.pipeline, states)
        });

        if outcomes.len() != self.input.tweets.len() {
            return Err(format!(
                "{} outcomes for {} submitted pipelines",
                outcomes.len(),
                self.input.tweets.len()
            ));
        }
        let mut confusion = Confusion::default();
        let mut rows = Vec::with_capacity(outcomes.len());
        let mut latency_us = Vec::with_capacity(outcomes.len());
        let (mut failed, mut busy_us) = (0u64, 0u64);
        for (outcome, tweet) in outcomes.iter().zip(&self.input.tweets) {
            let truth = tweet.label == Sentiment::Negative && tweet.topic == Topic::School;
            let done = outcome
                .as_ref()
                .ok()
                .and_then(|o| Some((o, Self::selected(&o.state)?, o.state.trace.digest().ok()?)));
            match done {
                Some((outcome, selected, digest)) => {
                    confusion.record(selected, truth);
                    rows.push((status::COMPLETED, digest));
                    let us = outcome.report.latency.as_micros() as u64;
                    busy_us += us;
                    latency_us.push(us);
                }
                None => {
                    failed += 1;
                    rows.push((status::FAILED, 0));
                    latency_us.push(MISSED);
                }
            }
        }
        // Token-time ledger: the engine's clock is the sum of what the
        // pipelines were charged.
        let clock_us = engine.clock().elapsed().as_micros() as u64;
        if failed == 0 && clock_us != busy_us {
            return Err(format!(
                "engine clock {clock_us} µs differs from the pipelines' summed latency {busy_us} µs"
            ));
        }
        let pass = Pass {
            host,
            attempted: outcomes.len() as u64,
            failed,
            outcomes: rows,
            makespan_us: engine.clock().max_lane_elapsed().as_micros() as u64,
            latency_us,
            quality: confusion.f1(),
        };
        Ok(Run {
            pass,
            outcomes,
            engine,
        })
    }
}

impl Workload for Batch {
    fn n(&self) -> usize {
        self.input.tweets.len()
    }

    fn input_hash(&self) -> u64 {
        self.input.hash()
    }

    fn pass(&self, lanes: Lanes, _rung: Option<usize>) -> Result<Pass, String> {
        Ok(self.run(lanes.count(super::LANES), None)?.pass)
    }

    /// Per-pipeline trace digests must equal those of the tree-walk
    /// specification on a fresh, identically configured engine.
    fn reference_check(&self, pass: &Pass) -> Result<(), String> {
        let runtime = self.fresh(None)?.runtime;
        let mut rows = Vec::with_capacity(self.n());
        for (i, mut state) in self.states().into_iter().enumerate() {
            // The owner BatchRunner gives job `i`; lanes only shape timing.
            let _scope = scope::enter(1 + i as u64, i % super::LANES);
            runtime
                .execute_tree(&self.pipeline, &mut state)
                .map_err(|e| format!("tree walk of pipeline {i}: {e}"))?;
            let digest = state.trace.digest().map_err(|e| e.to_string())?;
            rows.push((status::COMPLETED, digest));
        }
        match rows.iter().zip(&pass.outcomes).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(i) => Err(format!(
                "the trace digest of pipeline {i} differs from the tree-walk specification's"
            )),
        }
    }

    fn trace(&self, untraced: &Pass, metrics: &mut Metrics) -> Result<Vec<Span>, String> {
        let n = self.n() as f64;
        let tracer = Tracer::new(owner_id);
        let run = self.run(super::LANES, Some(&tracer))?;
        if run.pass.outcomes != untraced.outcomes {
            return Err("tracing changed the trace digests".into());
        }
        let done: Vec<&BatchOutcome> = run
            .outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .collect();

        // Counts, from the product's own reports and stats.
        let ops: u64 = done.iter().map(|o| o.report.ops_executed).sum();
        let events: usize = done.iter().map(|o| o.state.trace.events().len()).sum();
        let prompt_tokens: u64 = done.iter().map(|o| o.report.usage.prompt_tokens).sum();
        metrics.set("core.vm.ops_per_req", ops as f64 / n);
        metrics.set("core.trace.events_per_req", events as f64 / n);
        metrics.set("llm.tokenizer.tokens_per_req", prompt_tokens as f64 / n);
        let cache = run.engine.cache_stats();
        metrics.set(
            "llm.cache.hit_token_share",
            ratio(cache.hit_tokens as f64, cache.lookup_tokens as f64),
        );
        metrics.set("llm.cache.inserted_blocks", cache.inserted_blocks as f64);
        metrics.set("llm.cache.evicted_blocks", cache.evicted_blocks as f64);
        interner_metrics(&[run.engine.interner_stats()], metrics);

        // Spans of the traced pass.
        let pass_spans = tracer.recorder.snapshot();
        engine_seam_metrics(&pass_spans, "batch.run", super::LANES, n, metrics);
        metrics.set(
            "host.trace_overhead_share",
            run.pass.host.wall_s / untraced.host.wall_s - 1.0,
        );
        untraced.allocation_metrics(metrics);

        // Execution replay: the pipeline of the first SAMPLE tweets run
        // directly on the benchmark's thread, one `exec` span each, so the
        // spine's own time is the span minus its engine calls.
        let sample = self.n().min(SAMPLE);
        let replay = Tracer::new(owner_id);
        let Fresh {
            runtime, decorated, ..
        } = self.fresh(Some(&replay))?;
        let mut sampled = Vec::with_capacity(sample);
        for (i, mut state) in self.states().into_iter().take(sample).enumerate() {
            let _scope = scope::enter(1 + i as u64, 0);
            let span = replay.recorder.open("exec", Some(i as u64));
            let result = runtime.execute(&self.pipeline, &mut state);
            replay.recorder.close(span);
            result.map_err(|e| format!("replay of pipeline {i}: {e}"))?;
            sampled.push(state);
        }
        let replay_spans = replay.recorder.snapshot();
        metrics.set(
            "core.exec.self_us_per_req",
            spans::self_ns_of(&replay_spans, "exec") as f64 / 1e3 / sample as f64,
        );
        let captured = decorated.map(|d| d.take_captured()).unwrap_or_default();
        let segmented = captured
            .iter()
            .filter(|c| c.request.segments.is_some())
            .count();
        metrics.set(
            "core.template.renders_per_req",
            segmented as f64 / sample as f64,
        );

        // Lower layers in isolation.
        let config = EngineConfig::default();
        layers::tokenizer(&captured, metrics);
        layers::interner(&captured, config.block_size, metrics);
        let prefix = Self::shared_prefix(runtime.views())?;
        layers::prefix_cache(&captured, &config, Some(&prefix), metrics);
        layers::trace_cost(sampled.iter(), metrics);
        layers::template_render(sampled.iter(), PROMPT_KEY, metrics);

        // Compiler phases on this workload's one program, and its dispatch
        // cost with the engine out of the picture.
        let programs = layers::compiler_phases(&[&self.input.source], &runtime, 256, metrics)?;
        let echo = Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .views(self.views())
            .build();
        let (_, program) = &programs[0];
        layers::dispatch(
            &echo,
            self.states().into_iter().take(sample).map(|s| (program, s)),
            metrics,
        )?;

        let mut all = pass_spans;
        spans::append(&mut all, replay_spans);
        Ok(all)
    }
}
