//! Integration tests for the program cache that the benchmark's
//! `compile_cold` drives (a serving node caches no program): the LRU bound
//! must hold under concurrent lookups from many threads (with coherent
//! counters), racing misses on one key must agree on one program, recency
//! must decide who gets evicted, an evicted program must be freed by the
//! thread that compiled it, a cached program must produce byte-identical
//! traces to the lowered plan itself, and a hit must not allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Weak};

use proptest::prelude::*;
use spear_core::llm::LlmClient;
use spear_core::plan::lower;
use spear_core::prelude::{
    Cond, Context, ExecState, FnAgent, PayloadSpec, Pipeline, Program, RefinementMode, Runtime,
    Value, ViewCatalog, ViewDef,
};
use spear_core::view::ParamSpec;
use spear_llm::{ModelProfile, SimLlm};
use spear_serve::ProgramCache;

thread_local! {
    // Const-initialised and without destructors: touching it never
    // allocates, which an allocator must not do.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocation calls, so tests running side by side
/// cannot disturb a reading.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised
// thread-local and so never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls this thread makes while running `op`.
fn allocs(op: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    op();
    ALLOCS.get() - before
}

fn plain_plan(name: &str) -> Program {
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
fn racing_misses_on_one_key_share_the_first_insert() {
    let cache = ProgramCache::new(4);
    let rt = runtime();
    let plan = plain_plan("raced");
    let threads = 8;
    let barrier = Barrier::new(threads);

    let programs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    cache.get_or_compile(&plan, &rt, None).expect("compiles")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });

    assert!(
        programs.iter().all(|p| Arc::ptr_eq(p, &programs[0])),
        "every caller gets the resident program"
    );
    let counters = cache.drain_counters();
    assert_eq!(counters.compiled, 1, "only the first insert counts");
    assert_eq!(counters.cache_hits, threads as u64 - 1);
    assert_eq!(cache.len(), 1);
}

#[test]
fn evicted_programs_are_freed_by_the_thread_that_compiled_them() {
    let capacity = 4;
    let cache = ProgramCache::new(capacity);
    let rt = runtime();
    let compile = |name: &str| {
        cache
            .get_or_compile(&plain_plan(name), &rt, None)
            .expect("compiles")
    };
    // Two meetings: after A compiles `x`, and after B has evicted it.
    let barrier = Barrier::new(2);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let x = Arc::downgrade(&compile("x"));
            barrier.wait();
            barrier.wait();
            assert!(
                x.upgrade().is_some(),
                "an evicted program waits for the thread that compiled it"
            );
            // Any call frees what this thread compiled; a hit will do.
            compile("other_0");
            assert!(x.upgrade().is_none(), "A's next call frees `x`");
        });
        scope.spawn(|| {
            barrier.wait();
            for i in 0..capacity {
                compile(&format!("other_{i}"));
            }
            barrier.wait();
        });
    });

    let counters = cache.drain_counters();
    assert_eq!((counters.compiled, counters.evicted), (5, 1));
    assert_eq!((counters.cache_hits, cache.len()), (1, capacity));
}

#[test]
fn retired_programs_of_exited_threads_stay_capped() {
    let capacity = 4;
    let cache = ProgramCache::new(capacity);
    let rt = runtime();
    // Each thread compiles `count` fresh plans, keeps a `Weak` to each
    // program, and exits.
    let compile_and_exit = |tag: &str, count: usize| -> Vec<Weak<_>> {
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    (0..count)
                        .map(|i| {
                            let plan = plain_plan(&format!("{tag}_{i}"));
                            Arc::downgrade(
                                &cache.get_or_compile(&plan, &rt, None).expect("compiles"),
                            )
                        })
                        .collect()
                })
                .join()
                .expect("no panic")
        })
    };
    let alive = |programs: &[Weak<_>]| programs.iter().filter(|w| w.strong_count() > 0).count();

    // `first` leaves `capacity` programs resident; `second` evicts them all
    // into the retired list and leaves its own last `capacity` resident;
    // `third` evicts those, and each one it parks releases the oldest.
    let first = compile_and_exit("first", 2 * capacity);
    let second = compile_and_exit("second", 2 * capacity);
    assert_eq!(
        alive(&first),
        capacity,
        "first's evicted programs are parked"
    );
    compile_and_exit("third", 3 * capacity);

    assert_eq!(
        alive(&first),
        0,
        "overflow releases the oldest parked first"
    );
    assert!(
        alive(&second) <= capacity,
        "at most `capacity` programs of exited threads stay alive"
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
    let (int, float) = (delegating(Value::Int(1)), delegating(Value::Float(1.0)));
    // The verify memo and the cluster's static-bound memo key on it too.
    assert_ne!(int.fingerprint(), float.fingerprint());
    let cache = ProgramCache::new(4);
    for (plan, expected) in [(int, true), (float, false)] {
        let mut uncached = ExecState::new();
        rt.execute_program(&plan, &mut uncached).expect("runs");
        assert_eq!(uncached.context.get("out"), Some(Value::from(expected)));

        let program = cache.get_or_compile(&plan, &rt, None).expect("compiles");
        let mut cached = ExecState::new();
        rt.execute_program(&program, &mut cached).expect("runs");
        assert_eq!(cached.context.get("out"), uncached.context.get("out"));
    }
    let counters = cache.drain_counters();
    assert_eq!((counters.compiled, counters.cache_hits), (2, 0));
}

/// Build a view-derived pipeline (so the plan carries an affinity seed) over
/// a family-fixed template prefix and a per-request parameter.
fn family_plan(template_head: &str, topic: &str, retry: bool) -> (Program, ViewCatalog) {
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

    /// The program handed out by the cache executes
    /// byte-identically to the lowered plan itself on the same engine — on
    /// the cold first request and on a warm repeat.
    #[test]
    fn cached_and_freshly_compiled_programs_trace_identically(
        head in "[a-z ]{1,24}",
        topic in "[a-z]{1,8}",
        question in "[a-z ]{1,16}",
        retry in any::<bool>(),
    ) {
        let (plan, views) = family_plan(&head, &topic, retry);
        let args: BTreeMap<String, Value> = [("topic".to_string(), Value::from(topic.as_str()))]
            .into_iter()
            .collect();
        let family = format!("view:family#{:x}", spear_core::view::param_hash(&args));
        prop_assert_eq!(
            plan.affinity_seed(),
            Some(spear_kv::shard::fnv1a(family.as_bytes())),
            "view-derived plan must be seeded by its family"
        );

        let run = |cached: bool| -> (String, String) {
            let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
            let rt = Runtime::builder()
                .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
                .views(views.clone())
                .build();
            let program = if cached {
                let cache = ProgramCache::new(8);
                cache
                    .get_or_compile(&plan, &rt, Some(&engine))
                    .expect("plan compiles")
            } else {
                Arc::new(plan.clone())
            };
            let run_once = || {
                let mut state = ExecState::new();
                state.context.set("q", question.clone());
                let result = rt.execute_program(&program, &mut state);
                fingerprint(&result, &state)
            };
            (run_once(), run_once())
        };

        let (cached_cold, cached_warm) = run(true);
        let (fresh_cold, fresh_warm) = run(false);
        prop_assert_eq!(&cached_cold, &fresh_cold, "cold traces diverge");
        prop_assert_eq!(&cached_warm, &fresh_warm, "warm traces diverge");
    }
}

#[test]
fn a_resident_plain_plan_hits_within_its_allocation_budget() {
    let cache = ProgramCache::new(4);
    let rt = runtime();
    let plan = plain_plan("resident");
    let program = cache.get_or_compile(&plan, &rt, None).expect("compiles");
    for _ in 0..3 {
        let mut hit = None;
        let n = allocs(|| hit = cache.get_or_compile(&plan, &rt, None));
        assert!(hit.is_some_and(|hit| Arc::ptr_eq(&hit, &program)));
        // Deriving the fingerprint and the lookup allocate nothing.
        assert_eq!(n, 0, "a resident hit made {n} allocations");
    }
}
