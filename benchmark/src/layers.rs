//! Replays: the engine calls captured in a traced pass and the generated
//! inputs, fed directly into each lower layer's public functions in
//! isolation, so a layer's own cost is measured without the layers around
//! it. Counts come from the product's stats structs, never from here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use spear_core::analysis::{analyze, validate_compile, ResourceModel, Verifier};
use spear_core::llm::{FinishReason, PromptIdentity};
use spear_core::plan::LoweredPlan;
use spear_core::runtime::{ExecState, Runtime};
use spear_core::vm::{self, Program};
use spear_core::{template, Value};
use spear_llm::{
    chain_key, BlockHasher, BlockPool, EngineConfig, GenMemo, InternedChain, Lookup, MemoEntry,
    StripedPrefixCache, Token, TokenInterner, Tokenizer, CHAIN_SEED,
};
use spear_serve::{AdmissionConfig, AdmissionQueue, KvPressureConfig, ProgramCache, ServeRequest};

use crate::metrics::{ratio, Metrics};
use crate::spans::Captured;

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Block-hash chain of a token stream, as the prefix cache keys it.
fn block_hashes(tokens: &[Token], block_size: usize) -> Vec<u64> {
    let mut hashes = Vec::with_capacity(tokens.len() / block_size.max(1));
    let mut hasher = BlockHasher::new(block_size);
    for &t in tokens {
        hasher.push(t, &mut hashes);
    }
    hashes
}

/// `llm.tokenizer.encode_ns_per_token`: `Tokenizer::encode_into` over every
/// captured prompt.
pub fn tokenizer(calls: &[Captured], metrics: &mut Metrics) {
    let tokenizer = Tokenizer::new();
    let mut buffer = Vec::new();
    let (mut ns, mut tokens) = (0.0, 0usize);
    for call in calls {
        let start = Instant::now();
        tokenizer.encode_into(black_box(&call.request.text), &mut buffer);
        ns += ns_since(start);
        tokens += black_box(&buffer).len();
    }
    metrics.set(
        "llm.tokenizer.encode_ns_per_token",
        ratio(ns, tokens as f64),
    );
}

/// `llm.intern.get_ns_per_call`: the engine's probe sequence — chain keys
/// over the leading literal segments, longest first — against a fresh
/// `TokenInterner`, inserting cold chains as the engine does (untimed).
pub fn interner(calls: &[Captured], block_size: usize, metrics: &mut Metrics) {
    let interner = TokenInterner::with_defaults();
    let tokenizer = Tokenizer::new();
    let (mut ns, mut gets) = (0.0, 0u64);
    let mut keys = Vec::new();
    for call in calls {
        let Some(segments) = &call.request.segments else {
            continue;
        };
        let segs = segments.segments();
        let literal_run = segs.iter().take_while(|s| s.is_literal()).count();
        keys.clear();
        let mut key = CHAIN_SEED;
        for seg in &segs[..literal_run] {
            key = chain_key(key, seg.hash());
            keys.push(key);
        }
        let mut covered = 0;
        let start = Instant::now();
        for i in (0..literal_run).rev() {
            gets += 1;
            if black_box(interner.get(keys[i])).is_some() {
                covered = i + 1;
                break;
            }
        }
        ns += ns_since(start);
        let mut text = String::new();
        for (i, seg) in segs[..literal_run].iter().enumerate() {
            text.push_str(seg.text());
            if i >= covered {
                let tokens = tokenizer.encode(&text);
                interner.insert(
                    keys[i],
                    InternedChain {
                        block_hashes: block_hashes(&tokens, block_size).into(),
                        tokens: tokens.into(),
                        pending: Arc::from(""),
                    },
                );
            }
        }
    }
    metrics.set("llm.intern.get_ns_per_call", ratio(ns, gets as f64));
}

/// `llm.cache.lookup_insert_ns_per_block`: every cacheable captured prompt's
/// block-hash chain through `StripedPrefixCache::lookup_insert_hashed` on a
/// fresh cache of the engine's geometry, pre-warmed with `warm` where the
/// workload pre-warms its engine.
pub fn prefix_cache(
    calls: &[Captured],
    config: &EngineConfig,
    warm: Option<&str>,
    metrics: &mut Metrics,
) {
    let block_size = config.block_size;
    let cache = StripedPrefixCache::new(block_size, config.capacity_blocks, config.cache_shards);
    let tokenizer = Tokenizer::new();
    if let Some(text) = warm {
        cache.warm(&tokenizer.encode(text));
    }
    let (mut ns, mut blocks) = (0.0, 0usize);
    for call in calls {
        if !matches!(call.request.identity, PromptIdentity::Structured { .. }) {
            continue;
        }
        let tokens = tokenizer.encode(&call.request.text);
        let hashes = block_hashes(&tokens, block_size);
        let start = Instant::now();
        black_box(cache.lookup_insert_hashed(&hashes, tokens.len(), call.owner));
        ns += ns_since(start);
        blocks += hashes.len();
    }
    metrics.set(
        "llm.cache.lookup_insert_ns_per_block",
        ratio(ns, blocks as f64),
    );
}

/// `llm.memo.lookup_ns_per_call`: every captured reuse key through
/// `GenMemo::lookup_or_lead`, completing the entry when the replay leads.
pub fn memo(calls: &[Captured], block_size: usize, capacity: usize, metrics: &mut Metrics) {
    let memo = GenMemo::new(capacity);
    let tokenizer = Tokenizer::new();
    let (mut ns, mut lookups) = (0.0, 0u64);
    for call in calls {
        let Some(reuse) = call.reuse else { continue };
        let entry = MemoEntry {
            text: call.response.text.clone(),
            confidence: call.response.confidence,
            prompt_tokens: call.response.usage.prompt_tokens,
            completion_tokens: call.response.usage.completion_tokens,
            finish: FinishReason::Stop,
            block_hashes: block_hashes(&tokenizer.encode(&call.request.text), block_size),
        };
        let start = Instant::now();
        match memo.lookup_or_lead(reuse.key) {
            Lookup::Hit(entry) => {
                black_box(entry);
            }
            Lookup::Lead(guard) => guard.complete(entry),
        }
        ns += ns_since(start);
        lookups += 1;
    }
    metrics.set("llm.memo.lookup_ns_per_call", ratio(ns, lookups as f64));
}

/// `llm.pool.alloc_ns_per_call`: one sequence per captured prompt through a
/// `BlockPool` of the pressured geometry — allocate its chain (a prefix of
/// it when the pool is exhausted), then release it, or free it outright for
/// every fourth sequence as a preemption does.
pub fn block_pool(calls: &[Captured], pressure: &KvPressureConfig, metrics: &mut Metrics) {
    let pool = BlockPool::new(pressure.pool_blocks, pressure.pool_stripes);
    let tokenizer = Tokenizer::new();
    let (mut ns, mut allocations) = (0.0, 0u64);
    for (seq, call) in calls.iter().enumerate() {
        let chain = block_hashes(&tokenizer.encode(&call.request.text), pressure.block_size);
        let seq = seq as u64;
        let start = Instant::now();
        if pool.allocate(seq, &chain).is_err() {
            black_box(pool.allocate_prefix(seq, &chain));
        }
        if seq % 4 == 3 {
            pool.free(seq);
        } else {
            pool.release(seq);
        }
        ns += ns_since(start);
        allocations += 1;
    }
    metrics.set("llm.pool.alloc_ns_per_call", ratio(ns, allocations as f64));
}

/// `serve.queue.offer_pop_ns_per_req`: the request stream through
/// `AdmissionQueue::offer`, popped in dispatch rounds of `round` requests.
pub fn admission_queue(requests: Vec<ServeRequest>, round: usize, metrics: &mut Metrics) {
    let n = requests.len();
    let mut queue = AdmissionQueue::new(AdmissionConfig::default());
    let mut popped = Vec::with_capacity(n);
    let start = Instant::now();
    for request in requests {
        if queue.offer(request).is_ok() && queue.len() >= round {
            popped.extend(queue.pop_batch(round));
        }
    }
    while let Some(request) = queue.pop() {
        popped.push(request);
    }
    let ns = ns_since(start);
    black_box(popped);
    metrics.set("serve.queue.offer_pop_ns_per_req", ratio(ns, n as f64));
}

/// `serve.program_cache.miss_us_per_compile`: every plan through empty
/// `ProgramCache`s.
pub fn program_cache_misses(plans: &[Arc<LoweredPlan>], runtime: &Runtime, metrics: &mut Metrics) {
    // Enough cold compiles for a measurable total even with four plans.
    let reps = (256 / plans.len().max(1)).max(1);
    let mut ns = 0.0;
    for _ in 0..reps {
        let cold = ProgramCache::new(plans.len());
        let start = Instant::now();
        for plan in plans {
            black_box(cold.get_or_compile(plan, runtime, None));
        }
        ns += ns_since(start);
    }
    metrics.set(
        "serve.program_cache.miss_us_per_compile",
        ratio(ns / 1e3, (reps * plans.len()) as f64),
    );
}

/// `serve.program_cache.hit_ns_per_call`: `lookups` (indices into `plans`)
/// through a `ProgramCache` that already holds every plan.
pub fn program_cache_hits(
    plans: &[Arc<LoweredPlan>],
    lookups: impl Iterator<Item = usize>,
    runtime: &Runtime,
    metrics: &mut Metrics,
) {
    let warm = ProgramCache::new(plans.len());
    for plan in plans {
        warm.get_or_compile(plan, runtime, None);
    }
    let mut hits = 0u64;
    let start = Instant::now();
    for index in lookups {
        black_box(warm.get_or_compile(&plans[index], runtime, None));
        hits += 1;
    }
    metrics.set(
        "serve.program_cache.hit_ns_per_call",
        ratio(ns_since(start), hits as f64),
    );
}

/// Host cost of each compiler phase over `sources` (views already installed
/// in `runtime`), repeated `reps` times. Fills the `dl.*`, `core.plan.*`,
/// `core.analysis.*` and `core.vm.*` compile metrics and returns the final
/// programs of the last repetition with their plans. `Err` if any program
/// fails to compile, verify clean or discharge its TV obligations.
pub fn compiler_phases<S: AsRef<str>>(
    sources: &[S],
    runtime: &Runtime,
    reps: usize,
    metrics: &mut Metrics,
) -> Result<Vec<(LoweredPlan, Program)>, String> {
    let model = ResourceModel::default();
    let mut ns = BTreeMap::<&str, f64>::new();
    let (mut programs, mut bytes, mut slots, mut code_len, mut optimized) =
        (0u64, 0u64, 0, 0, 0u64);
    let mut compiled_programs = Vec::new();
    for rep in 0..reps {
        for source in sources {
            let source = source.as_ref();
            let mut time = |phase: &'static str, start: Instant| {
                *ns.entry(phase).or_default() += ns_since(start);
            };
            let start = Instant::now();
            let compiled = spear_dl::compile(source).map_err(|e| format!("dl::compile: {e}"))?;
            time("dl", start);
            bytes += source.len() as u64;
            let start = Instant::now();
            let plans = compiled.lower().map_err(|e| format!("lower: {e}"))?;
            time("lower", start);
            for plan in plans {
                let start = Instant::now();
                let diagnostics = Verifier::with_runtime(runtime).verify(&plan);
                time("verify", start);
                if let Some(d) = diagnostics.iter().find(|d| d.is_error()) {
                    return Err(format!("plan {} does not verify clean: {d}", plan.name));
                }
                let start = Instant::now();
                let program = vm::compile(&plan).map_err(|e| format!("vm::compile: {e}"))?;
                time("compile", start);
                let start = Instant::now();
                let tv = validate_compile(&plan, &program);
                time("tv", start);
                if tv.is_err() {
                    return Err(format!("plan {}: TV obligations not discharged", plan.name));
                }
                let start = Instant::now();
                let candidate = vm::optimize(&program);
                time("optimize", start);
                optimized += u64::from(candidate.is_some());
                let program = candidate.unwrap_or(program);
                let start = Instant::now();
                black_box(analyze(&program, &model));
                time("absint", start);
                programs += 1;
                slots += plan.ops.len();
                code_len += program.code().len();
                if rep + 1 == reps {
                    compiled_programs.push((plan, program));
                }
            }
        }
    }
    let per_program =
        |phase: &str| ratio(ns.get(phase).copied().unwrap_or(0.0) / 1e3, programs as f64);
    // One source may hold several pipelines; DL and lowering cost is spread
    // over the programs they produce.
    metrics.set("dl.compile_us_per_program", per_program("dl"));
    metrics.set(
        "dl.source_mb_per_s",
        ratio(
            bytes as f64 / 1e6,
            ns.get("dl").copied().unwrap_or(0.0) / 1e9,
        ),
    );
    metrics.set("core.plan.lower_us_per_program", per_program("lower"));
    metrics.set(
        "core.plan.slots_per_program",
        ratio(slots as f64, programs as f64),
    );
    metrics.set("core.analysis.verify_us_per_program", per_program("verify"));
    metrics.set("core.analysis.tv_us_per_program", per_program("tv"));
    metrics.set("core.analysis.absint_us_per_program", per_program("absint"));
    metrics.set("core.vm.compile_us_per_program", per_program("compile"));
    metrics.set("core.vm.optimize_us_per_program", per_program("optimize"));
    metrics.set(
        "core.vm.optimize_applied_share",
        ratio(optimized as f64, programs as f64),
    );
    metrics.set(
        "core.vm.code_len_per_program",
        ratio(code_len as f64, programs as f64),
    );
    Ok(compiled_programs)
}

/// `core.vm.dispatch_ns_per_op`: `execute_program` against `EchoLlm` (so the
/// engine is out of the picture), per executed op. `echo` must hold the
/// workload's views and registries with `EchoLlm` as backend. Returns the
/// ops executed per job.
pub fn dispatch<'a>(
    echo: &Runtime,
    jobs: impl Iterator<Item = (&'a Program, ExecState)>,
    metrics: &mut Metrics,
) -> Result<f64, String> {
    let (mut ns, mut ops, mut executed) = (0.0, 0u64, 0u64);
    for (program, mut state) in jobs {
        let start = Instant::now();
        let report = echo.execute_program(program, &mut state);
        ns += ns_since(start);
        ops += report
            .map_err(|e| format!("echo dispatch: {e}"))?
            .ops_executed;
        executed += 1;
    }
    metrics.set("core.vm.dispatch_ns_per_op", ratio(ns, ops as f64));
    Ok(ratio(ops as f64, executed as f64))
}

/// `core.trace.digest_ns_per_event` and `.jsonl_bytes_per_req` over the
/// traces of executed states.
pub fn trace_cost<'a>(states: impl Iterator<Item = &'a ExecState>, metrics: &mut Metrics) {
    let (mut ns, mut events, mut bytes, mut traces) = (0.0, 0usize, 0usize, 0usize);
    for state in states {
        let start = Instant::now();
        black_box(state.trace.digest().ok());
        ns += ns_since(start);
        events += state.trace.events().len();
        bytes += state.trace.to_jsonl().map_or(0, |jsonl| jsonl.len());
        traces += 1;
    }
    metrics.set("core.trace.digest_ns_per_event", ratio(ns, events as f64));
    metrics.set(
        "core.trace.jsonl_bytes_per_req",
        ratio(bytes as f64, traces as f64),
    );
}

/// `core.template.render_ns_per_call`: `render_segmented` of each executed
/// state's prompt `key` against its final context.
pub fn template_render<'a>(
    states: impl Iterator<Item = &'a ExecState>,
    key: &str,
    metrics: &mut Metrics,
) {
    let (mut ns, mut renders) = (0.0, 0u64);
    for state in states {
        let Some(entry) = state.prompts.try_get(key) else {
            continue;
        };
        let params: &BTreeMap<String, Value> = &entry.params;
        let start = Instant::now();
        black_box(template::render_segmented(&entry.text, params, &state.context).ok());
        ns += ns_since(start);
        renders += 1;
    }
    metrics.set(
        "core.template.render_ns_per_call",
        ratio(ns, renders as f64),
    );
}
