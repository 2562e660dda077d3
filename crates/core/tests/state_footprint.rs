//! Heap footprint of a per-request [`ExecState`] and of writes to its
//! prompt store, and the allocations admission's verifier makes per plan.
//!
//! The serving tiers build one state per queued request, so what an idle
//! state holds, and what each prompt it defines adds, is multiplied by the
//! queue length; and every new program is verified before it runs.
//! These tests pin both with a counting allocator of their own; the
//! counters are per thread, so the harness running tests side by side
//! cannot disturb a reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use spear_core::prelude::*;

thread_local! {
    // Const-initialised and without destructors: touching them never
    // allocates, which an allocator must not do.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised
// thread-locals and so never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.with(|b| b.set(b.get() + layout.size() as i64));
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|b| b.set(b.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.with(|b| b.set(b.get() + new_size as i64 - layout.size() as i64));
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(live heap bytes, allocation calls)` this thread gained while building
/// the value `build` returns (which is still alive when they are read).
fn footprint<T>(build: impl FnOnce() -> T) -> (T, i64, u64) {
    let (bytes, allocs) = (LIVE_BYTES.get(), ALLOCS.get());
    let value = build();
    (value, LIVE_BYTES.get() - bytes, ALLOCS.get() - allocs)
}

#[test]
fn an_idle_state_owns_nothing_on_the_heap() {
    // P, C, M and the trace are owned values whose empty forms allocate
    // nothing; no cell or lock is built up front.
    let (state, bytes, allocs) = footprint(ExecState::new);
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "ExecState::new() holds {bytes} heap bytes in {allocs} allocations"
    );

    // What admission reads from a queued request leaves it that way.
    let (_, bytes, allocs) = footprint(|| {
        assert!(state.prompts.keys().is_empty());
        assert!(state.prompts.is_empty());
        assert!(!state.prompts.contains("p"));
        assert!(state.prompts.try_get("p").is_none());
    });
    assert_eq!((bytes, allocs), (0, 0), "reads of an untouched store");
}

#[test]
fn a_queued_request_costs_its_one_input() {
    // The shape the serving tiers queue: one input in C, nothing in P.
    // Everything it holds is C's own: a four-slot entry vector, a four-slot
    // write log and the key, writer and value strings.
    let (_state, bytes, allocs) = footprint(|| {
        let mut state = ExecState::new();
        state.context.set("q", "question");
        state
    });
    assert!(
        bytes <= 464 && allocs <= 6,
        "ExecState::new() + one context.set holds {bytes} heap bytes in {allocs} allocations"
    );
}

#[test]
fn a_prompt_write_costs_its_key_and_at_most_one_map_node() {
    // The first write builds P's first B-tree leaf and names the key (its
    // name is built once and moved into the leaf). The entry is already
    // shared, so it is not counted.
    let entry = Arc::new(PromptEntry::new(
        "shared text",
        "f_base",
        RefinementMode::Manual,
    ));
    let mut store = PromptStore::new();
    let (_, bytes, allocs) = footprint(|| store.insert("p", Arc::clone(&entry)));
    assert!(
        bytes <= 809 && allocs <= 2,
        "the first insert holds {bytes} heap bytes in {allocs} allocations"
    );

    // A second key lands in the same leaf: only its name is new.
    let (_, bytes, allocs) = footprint(|| store.insert("q", Arc::clone(&entry)));
    assert!(
        bytes <= 64 && allocs <= 1,
        "a second key holds {bytes} heap bytes in {allocs} allocations"
    );
}

/// Allocation calls `Verifier::with_runtime(rt).verify(plan)` makes.
fn verify_allocs(rt: &Runtime, plan: &Program) -> u64 {
    let (diagnostics, _, allocs) = footprint(|| Verifier::with_runtime(rt).verify(plan));
    assert_eq!(diagnostics, vec![], "the plan verifies clean");
    allocs
}

#[test]
fn verifying_a_plan_resolves_names_without_copying_registries() {
    // RET, REF and DELEGATE each resolve a name in a registry; the CHECK
    // with an ELSE gives the CFG a two-successor slot and a join.
    let plan = lower(
        &Pipeline::builder("resolve")
            .create_text("p", "base", RefinementMode::Manual)
            .ret_with_prompt("notes", "p", "docs", 2)
            .check_else(
                Cond::low_confidence(0.7),
                |b| {
                    b.expand("p", "more").delegate(
                        "scorer",
                        PayloadSpec::PromptKey("p".into()),
                        "score",
                    )
                },
                |b| b.gen("a", "p"),
            )
            .gen("b", "p")
            .build(),
    )
    .expect("lowers");
    let runtime = || {
        Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .retriever(
                "notes",
                Arc::new(InMemoryRetriever::from_texts([("d", "x")])),
            )
            .agent(
                "scorer",
                Arc::new(FnAgent(|_: &Value, _: &Context| Ok(Value::Null))),
            )
    };
    // A runtime always carries the 11 built-in refiners; register 11 more.
    let builtins = runtime().build();
    let doubled = (0..11)
        .fold(runtime(), |b, i| {
            b.refiner(
                &format!("extra_{i}"),
                Arc::new(FnRefiner(|_: &RefineCtx<'_>| Ok(RefineOutput::default()))),
            )
        })
        .build();

    let allocs = verify_allocs(&builtins, &plan);
    assert!(
        allocs <= 60,
        "verifying {} slots made {allocs} allocations",
        plan.code().len()
    );
    assert_eq!(
        verify_allocs(&doubled, &plan),
        allocs,
        "registry size must not change what verification allocates"
    );
}

#[test]
fn an_affinity_seed_allocates_nothing() {
    // One plan per family shape: a view with parameters, a view without,
    // a lowered identity, and a base text.
    let args: std::collections::BTreeMap<String, Value> = [
        ("n".to_string(), Value::Int(3)),
        ("topic".to_string(), Value::from("school")),
    ]
    .into_iter()
    .collect();
    let families = [
        Pipeline::builder("from_view")
            .create_from_view("p", "tweet_filter", args.clone())
            .gen("a", "p")
            .build(),
        Pipeline::builder("inline_view")
            .gen_with(
                "a",
                PromptRef::View {
                    name: "summary".into(),
                    args,
                },
                GenOptions::default(),
            )
            .build(),
        Pipeline::builder("lowered")
            .gen_with(
                "a",
                PromptRef::Lowered {
                    text: "fused template".into(),
                    identity: Some("view:fused@1#0/v1".into()),
                },
                GenOptions::default(),
            )
            .build(),
        Pipeline::builder("text")
            .create_text("p", "shared base text", RefinementMode::Manual)
            .gen("a", "p")
            .build(),
    ];
    for pipeline in &families {
        let plan = lower(pipeline).expect("lowers");
        let (seed, bytes, allocs) = footprint(|| plan.affinity_seed());
        assert!(seed.is_some(), "{} has a family", pipeline.name);
        assert_eq!(
            (bytes, allocs),
            (0, 0),
            "affinity_seed of {}",
            pipeline.name
        );
    }
}
