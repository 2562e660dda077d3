//! Integration tests for the serving node's compiled-program cache: the
//! LRU bound must hold under concurrent admission from many threads (with
//! coherent counters), recency must decide who gets evicted, and — the
//! specialization soundness property — a per-affinity specialized program
//! must produce byte-identical traces to a generic compile of the same
//! plan, because specialization only pre-warms host-side memoization.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use spear_core::llm::LlmClient;
use spear_core::plan::{lower, LoweredPlan};
use spear_core::prelude::{
    Cond, Context, ExecState, FnAgent, PayloadSpec, Pipeline, RefinementMode, Runtime, Value,
    ViewCatalog, ViewDef,
};
use spear_core::view::ParamSpec;
use spear_llm::{ModelProfile, SimLlm};
use spear_serve::program_cache::ProgramCache;

fn plain_plan(name: &str) -> LoweredPlan {
    let p = Pipeline::builder(name)
        .create_text("p", "Q: {{ctx:q}}", RefinementMode::Manual)
        .gen("a", "p")
        .build();
    lower(&p).expect("pipeline lowers")
}

fn runtime() -> Runtime {
    Runtime::builder()
        .llm(Arc::new(spear_core::EchoLlm::default()))
        .build()
}

#[test]
fn lru_bound_holds_under_concurrent_admission() {
    let cache = Arc::new(ProgramCache::new(4));
    let runtime = Arc::new(runtime());
    let threads: u32 = 8;
    let plans_per_thread: u32 = 16;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let runtime = Arc::clone(&runtime);
            scope.spawn(move || {
                for i in 0..plans_per_thread {
                    // Half the key space is shared across threads so hits
                    // and misses interleave; every plan compiles.
                    let name = format!("plan_{}", (t * plans_per_thread + i) % 24);
                    let plan = plain_plan(&name);
                    let program = cache.get_or_compile(&plan, &runtime, None);
                    assert!(program.is_some(), "well-formed plan must compile");
                }
            });
        }
    });

    assert!(
        cache.len() <= 4,
        "capacity exceeded: {} resident programs",
        cache.len()
    );
    let counters = cache.drain_counters();
    assert_eq!(
        counters.compiled + counters.cache_hits,
        u64::from(threads * plans_per_thread),
        "every lookup is exactly one hit or one compile"
    );
    assert_eq!(
        counters.compiled - counters.evicted,
        cache.len() as u64,
        "residents = compiles minus evictions"
    );
}

#[test]
fn eviction_follows_recency() {
    let cache = ProgramCache::new(2);
    let rt = runtime();
    let (a, b, c) = (plain_plan("a"), plain_plan("b"), plain_plan("c"));

    assert!(cache.get_or_compile(&a, &rt, None).is_some());
    assert!(cache.get_or_compile(&b, &rt, None).is_some());
    // Touch `a` so `b` becomes least-recently-used, then overflow with `c`.
    assert!(cache.get_or_compile(&a, &rt, None).is_some());
    assert!(cache.get_or_compile(&c, &rt, None).is_some());
    cache.drain_counters();

    // `a` survived (hit), `b` was evicted (recompile).
    assert!(cache.get_or_compile(&a, &rt, None).is_some());
    assert!(cache.get_or_compile(&b, &rt, None).is_some());
    let counters = cache.drain_counters();
    assert_eq!(counters.cache_hits, 1, "a should still be resident");
    assert_eq!(counters.compiled, 1, "b should have been evicted");
}

/// Two plans whose only difference is a literal's type serialize to the
/// same JSON text; each must still get its own program, and that program
/// must write what the uncached VM writes.
#[test]
fn int_and_float_literals_get_their_own_programs() {
    let rt = Runtime::builder()
        .llm(Arc::new(spear_core::EchoLlm::default()))
        .agent(
            "is_int",
            Arc::new(FnAgent(|payload: &Value, _: &Context| {
                Ok(Value::from(matches!(payload, Value::Int(_))))
            })),
        )
        .build();
    let delegating = |lit: Value| {
        lower(
            &Pipeline::builder("lit")
                .delegate("is_int", PayloadSpec::Lit(lit), "out")
                .build(),
        )
        .expect("pipeline lowers")
    };
    let cache = ProgramCache::new(4);
    for (lit, expected) in [(Value::Int(1), true), (Value::Float(1.0), false)] {
        let plan = delegating(lit);
        let mut uncached = ExecState::new();
        rt.execute_lowered(&plan, &mut uncached).expect("runs");
        assert_eq!(uncached.context.get("out"), Some(Value::from(expected)));

        let program = cache.get_or_compile(&plan, &rt, None).expect("compiles");
        let mut cached = ExecState::new();
        rt.execute_program(&program, &mut cached).expect("runs");
        assert_eq!(cached.context.get("out"), uncached.context.get("out"));
    }
    let counters = cache.drain_counters();
    assert_eq!((counters.compiled, counters.cache_hits), (2, 0));
}

#[test]
fn failed_compiles_are_not_cached() {
    let cache = ProgramCache::new(4);
    let rt = runtime();
    // A hand-built plan with a malformed jump target fails verification.
    let mut plan = plain_plan("bad");
    plan.ops
        .push(spear_core::plan::LoweredOp::Jump { target: 9999 });
    assert!(cache.get_or_compile(&plan, &rt, None).is_none());
    assert!(cache.is_empty(), "failed compiles must not occupy a slot");
    let counters = cache.drain_counters();
    assert_eq!(counters.compiled, 0);
}

/// Build a view-derived pipeline (so the plan carries an affinity key and
/// the cache's specialization path runs) over a family-fixed template
/// prefix and a per-request parameter.
fn family_plan(template_head: &str, topic: &str, retry: bool) -> (LoweredPlan, ViewCatalog) {
    let views = ViewCatalog::new();
    views.register(
        ViewDef::new(
            "family",
            format!("{template_head}topic {{{{topic}}}}: {{{{ctx:q}}}}"),
        )
        .with_param(ParamSpec::required("topic")),
    );
    let args: BTreeMap<String, Value> = [("topic".to_string(), Value::from(topic))]
        .into_iter()
        .collect();
    let mut b = Pipeline::builder("family_member").create_from_view("p", "family", args);
    b = b.gen("answer", "p");
    if retry {
        b = b.check(Cond::low_confidence(0.7), |t| t.gen("answer_retry", "p"));
    }
    (lower(&b.build()).expect("pipeline lowers"), views)
}

fn fingerprint(result: &spear_core::Result<spear_core::ExecReport>, state: &ExecState) -> String {
    format!(
        "{result:?}|{}|{}",
        state.trace.to_jsonl().expect("trace serializes"),
        state.step,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness of per-affinity specialization: the program handed out by
    /// the cache (family prefix folded, token chain pre-resolved through
    /// the engine's interner) executes byte-identically to a freshly
    /// compiled generic program on the same engine — on the cold first
    /// request and on a warm repeat.
    #[test]
    fn specialized_and_generic_programs_trace_identically(
        head in "[a-z ]{1,24}",
        topic in "[a-z]{1,8}",
        question in "[a-z ]{1,16}",
        retry in any::<bool>(),
    ) {
        let (plan, views) = family_plan(&head, &topic, retry);
        prop_assert!(plan.affinity_key().is_some(), "view-derived plan must be keyed");

        let run = |specialize: bool| -> (String, String) {
            let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
            let rt = Runtime::builder()
                .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
                .views(views.clone())
                .build();
            let program = if specialize {
                let cache = ProgramCache::new(8);
                cache
                    .get_or_compile(&plan, &rt, Some(&engine))
                    .expect("plan compiles")
            } else {
                Arc::new(spear_core::compile(&plan).expect("plan compiles"))
            };
            let run_once = || {
                let mut state = ExecState::new();
                state.context.set("q", question.clone());
                let result = rt.execute_program(&program, &mut state);
                fingerprint(&result, &state)
            };
            (run_once(), run_once())
        };

        let (spec_cold, spec_warm) = run(true);
        let (gen_cold, gen_warm) = run(false);
        prop_assert_eq!(&spec_cold, &gen_cold, "cold traces diverge");
        prop_assert_eq!(&spec_warm, &gen_warm, "warm traces diverge");
    }
}

#[test]
fn cached_programs_carry_static_bounds_and_optimize_on_admission() {
    let cache = ProgramCache::new(4);
    let rt = runtime();

    // A plain one-GEN plan: bounds are stored with the slot, optimizer
    // finds nothing to rewrite.
    let plan = plain_plan("bounded");
    cache.get_or_compile(&plan, &rt, None).expect("compiles");
    let bounds = cache
        .bounds_of(&plan)
        .expect("bounds stored with the program");
    assert_eq!(bounds.llm_calls, spear_core::analysis::Interval::exact(1));
    assert_eq!(bounds.tokens.hi, 256);
    assert!(bounds.terminates);
    let counters = cache.drain_counters();
    assert_eq!(counters.compiled, 1);
    assert_eq!(counters.optimized, 0);

    // A statically-gated plan: the verified optimizer folds the Never
    // branch, the counter ticks, and the stored bounds reflect the
    // optimized program (one reachable GEN, not two).
    let gated = lower(
        &Pipeline::builder("gated")
            .create_text("p", "Q: {{ctx:q}}", RefinementMode::Manual)
            .gen("a", "p")
            .check(Cond::Never, |t| t.gen("b", "p"))
            .build(),
    )
    .expect("pipeline lowers");
    cache.get_or_compile(&gated, &rt, None).expect("compiles");
    let counters = cache.drain_counters();
    assert_eq!(counters.compiled, 1);
    assert_eq!(counters.optimized, 1);
    let bounds = cache.bounds_of(&gated).expect("bounds stored");
    assert_eq!(bounds.llm_calls, spear_core::analysis::Interval::exact(1));
}
