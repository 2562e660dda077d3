//! `compile_cold`: closed loop over distinct seeded SPEAR-DL programs (sizes
//! drawn from the seed; branches, retries, merges, retrieval, delegation),
//! each taken from source through `dl::compile`, `Compiled::lower`,
//! `Verifier::verify` and a 64-entry `ProgramCache` (every lookup misses and
//! evicts; the miss path runs `vm::compile`, `vm::optimize` with its
//! translation validation, and `absint::analyze`) to one `execute_program`
//! against `EchoLlm`. The compiler path with `llm.*` out of the picture, and
//! the write side of the program cache that `serve_steady` only reads.

use std::sync::Arc;
use std::time::Instant;

use spear_core::agent::FnAgent;
use spear_core::analysis::{validate_compile, validate_optimized, Verifier};
use spear_core::llm::EchoLlm;
use spear_core::retriever::InMemoryRetriever;
use spear_core::runtime::{ExecState, Runtime};
use spear_core::view::ViewCatalog;
use spear_core::{vm, Context, Value};
use spear_dl::Compiled;
use spear_serve::ProgramCache;

use super::{completion_f1, measured, status, Lanes, Pass, Tracer, Workload, MISSED};
use crate::calibration::COMPILE_N;
use crate::inputs::{self, CompileInput, COLD_AGENT, COLD_RETRIEVER};
use crate::layers;
use crate::metrics::Metrics;
use crate::spans::{self, Span};

const CACHE_CAPACITY: usize = 64;
/// Executed states kept for the trace and template replays.
const SAMPLE: usize = 2048;

pub struct CompileCold {
    input: CompileInput,
    prelude: Compiled,
}

/// One program's result: status tag, trace digest, virtual latency.
type Row = (u64, u64, u64);

impl CompileCold {
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let input = inputs::compile(seed, COMPILE_N);
        let prelude = spear_dl::compile(&input.prelude).map_err(|e| format!("prelude: {e}"))?;
        Ok(Self { input, prelude })
    }

    fn runtime(&self) -> Runtime {
        let views = ViewCatalog::new();
        self.prelude.install_views(&views);
        Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .retriever(
                COLD_RETRIEVER,
                Arc::new(InMemoryRetriever::from_texts([
                    ("d1", "the ledger entry was filed under the branch office"),
                    ("d2", "the gasket order shipped with the second carton"),
                    ("d3", "the signal test passed after the kernel update"),
                ])),
            )
            .agent(
                COLD_AGENT,
                Arc::new(FnAgent(|payload: &Value, _: &Context| {
                    Ok(Value::from(payload.as_str().map_or(0, str::len) as i64))
                })),
            )
            .views(views)
            .build()
    }

    fn state(index: usize) -> ExecState {
        let mut state = ExecState::new();
        state.context.set("item", inputs::compile_item(index));
        state
    }

    /// Source to executed state for program `index`, with a span around each
    /// layer's call when traced.
    fn one(
        &self,
        index: usize,
        runtime: &Runtime,
        cache: &ProgramCache,
        tracer: Option<&Tracer>,
    ) -> Result<(Row, ExecState), String> {
        let timed = |name: &'static str| tracer.map(|t| (t, name, t.recorder.now_ns()));
        let done = |mark: Option<(&Tracer, &'static str, u64)>| {
            if let Some((t, name, start_ns)) = mark {
                t.recorder.leaf(name, start_ns, Some(index as u64));
            }
        };
        let source = &self.input.programs[index];
        let mark = timed("dl.compile");
        let compiled = spear_dl::compile(source).map_err(|e| format!("program {index}: {e}"))?;
        done(mark);
        let mark = timed("plan.lower");
        let plans = compiled
            .lower()
            .map_err(|e| format!("program {index}: {e}"))?;
        done(mark);
        let plan = plans.first().ok_or("a program source holds one pipeline")?;
        let mark = timed("analysis.verify");
        let diagnostics = Verifier::with_runtime(runtime).verify(plan);
        done(mark);
        if let Some(d) = diagnostics.iter().find(|d| d.is_error()) {
            return Err(format!("program {index} does not verify clean: {d}"));
        }
        let mark = timed("program_cache.get_or_compile");
        let program = cache
            .get_or_compile(plan, runtime, None)
            .ok_or_else(|| format!("program {index} failed to compile"))?;
        done(mark);
        let mut state = Self::state(index);
        let mark = timed("vm.execute");
        let report = runtime.execute_program(&program, &mut state);
        done(mark);
        let row = match report {
            Ok(report) => (
                status::COMPLETED,
                state.trace.digest().map_err(|e| e.to_string())?,
                report.latency.as_micros() as u64,
            ),
            Err(e) => {
                eprintln!("compile_cold: program {index} failed at run time: {e}");
                (status::FAILED, 0, MISSED)
            }
        };
        Ok((row, state))
    }

    fn run(&self, lanes: usize) -> Result<(Pass, ProgramCache), String> {
        let n = self.input.programs.len();
        let runtime = self.runtime();
        let cache = ProgramCache::new(CACHE_CAPACITY);
        // Lane `w` of `lanes` closed-loop clients takes programs w, w+lanes, …
        let (per_lane, host) = measured(None, || -> Vec<Result<Vec<(usize, Row)>, String>> {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..lanes)
                    .map(|lane| {
                        let (runtime, cache) = (&runtime, &cache);
                        scope.spawn(move || {
                            (lane..n)
                                .step_by(lanes)
                                .map(|i| Ok((i, self.one(i, runtime, cache, None)?.0)))
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "a client lane panicked".to_string())?)
                    .collect()
            })
        });

        let mut rows = vec![(status::FAILED, 0, MISSED); n];
        let mut makespan_us = 0;
        for lane in per_lane {
            let lane = lane?;
            // A lane's virtual clock is the sum of what its programs took.
            makespan_us = makespan_us.max(
                lane.iter()
                    .map(|(_, row)| if row.2 == MISSED { 0 } else { row.2 })
                    .sum(),
            );
            for (i, row) in lane {
                rows[i] = row;
            }
        }
        let failed = rows.iter().filter(|r| r.0 != status::COMPLETED).count() as u64;
        let pass = Pass {
            host,
            attempted: n as u64,
            failed,
            outcomes: rows.iter().map(|r| (r.0, r.1)).collect(),
            makespan_us,
            latency_us: rows.iter().map(|r| r.2).collect(),
            quality: completion_f1(n as u64, failed),
        };
        Ok((pass, cache))
    }
}

impl Workload for CompileCold {
    fn n(&self) -> usize {
        self.input.programs.len()
    }

    fn input_hash(&self) -> u64 {
        self.input.hash()
    }

    fn pass(&self, lanes: Lanes, _rung: Option<usize>) -> Result<Pass, String> {
        let (pass, cache) = self.run(lanes.count(super::LANES))?;
        let counters = cache.drain_counters();
        if counters.compiled != self.n() as u64 {
            return Err(format!(
                "{} programs compiled for {} distinct sources",
                counters.compiled,
                self.n()
            ));
        }
        Ok(pass)
    }

    /// Every program's translation-validation obligations discharge: the
    /// bytecode is an effect-equivalent compilation of its plan, and the
    /// optimized bytecode, where the optimizer produced one, bisimulates it.
    fn reference_check(&self, _pass: &Pass) -> Result<(), String> {
        for (index, source) in self.input.programs.iter().enumerate() {
            let compiled = spear_dl::compile(source).map_err(|e| e.to_string())?;
            for plan in compiled.lower().map_err(|e| e.to_string())? {
                let program = vm::compile(&plan).map_err(|e| e.to_string())?;
                validate_compile(&plan, &program)
                    .map_err(|f| format!("program {index}: {} TV failures", f.len()))?;
                if let Some(optimized) = vm::optimize(&program) {
                    validate_optimized(&program, &optimized)
                        .map_err(|f| format!("program {index}: {} TV failures", f.len()))?;
                }
            }
        }
        Ok(())
    }

    fn trace(&self, untraced: &Pass, metrics: &mut Metrics) -> Result<Vec<Span>, String> {
        let n = self.n();
        let runtime = self.runtime();
        let cache = ProgramCache::new(CACHE_CAPACITY);
        // No engine call can reach the seam here: `EchoLlm` is the backend.
        let tracer = Tracer::new(|_, _| None);
        let mut states = Vec::with_capacity(SAMPLE.min(n));
        let mut rows = Vec::with_capacity(n);
        let mut events = 0usize;
        let start = Instant::now();
        for index in 0..n {
            let span = tracer
                .recorder
                .open("compile_cold.program", Some(index as u64));
            let result = self.one(index, &runtime, &cache, Some(&tracer));
            tracer.recorder.close(span);
            let (row, state) = result?;
            rows.push((row.0, row.1));
            events += state.trace.events().len();
            if states.len() < SAMPLE {
                states.push(state);
            }
        }
        let traced_wall_s = start.elapsed().as_secs_f64();
        if rows != untraced.outcomes {
            return Err("tracing changed the trace digests".into());
        }
        let all = tracer.recorder.snapshot();
        let per_program = |name: &str| spans::total_ns_of(&all, name) as f64 / 1e3 / n as f64;
        metrics.set("core.exec.self_us_per_req", per_program("vm.execute"));
        metrics.set("core.trace.events_per_req", events as f64 / n as f64);
        let counters = cache.drain_counters();
        metrics.set(
            "serve.program_cache.hit_share",
            counters.hit_rate().unwrap_or(0.0),
        );
        metrics.set("serve.program_cache.evicted", counters.evicted as f64);
        metrics.set(
            "serve.program_cache.miss_us_per_compile",
            per_program("program_cache.get_or_compile"),
        );
        // Two lanes ran the untraced pass; the traced one is single-lane, so
        // compare lane-seconds.
        metrics.set(
            "host.trace_overhead_share",
            traced_wall_s / (untraced.host.wall_s * super::LANES as f64) - 1.0,
        );
        untraced.allocation_metrics(metrics);

        // Each compiler phase alone, then dispatch alone over the programs
        // the phases produced.
        let programs = layers::compiler_phases(&self.input.programs, &runtime, 1, metrics)?;
        let ops_per_program = layers::dispatch(
            &runtime,
            programs
                .iter()
                .enumerate()
                .map(|(i, (_, p))| (p, Self::state(i))),
            metrics,
        )?;
        metrics.set("core.vm.ops_per_req", ops_per_program);
        // A hit on the program cache, for contrast with the misses above: 64
        // plans stay resident in a cache of that capacity.
        let resident: Vec<_> = programs
            .iter()
            .take(CACHE_CAPACITY)
            .map(|(plan, _)| Arc::new(plan.clone()))
            .collect();
        layers::program_cache_hits(
            &resident,
            (0..n).map(|i| i % CACHE_CAPACITY),
            &runtime,
            metrics,
        );
        layers::trace_cost(states.iter(), metrics);
        layers::template_render(states.iter(), "p0", metrics);
        Ok(all)
    }
}
