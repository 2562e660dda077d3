//! Heap footprint of a per-request [`ExecState`] and of writes to its
//! prompt store, the allocations admission's verifier makes per plan, and
//! those of one VM step with its trace record.
//!
//! The serving tiers build one state per queued request, so what an idle
//! state holds, and what each prompt it defines adds, is multiplied by the
//! queue length; every new program is verified before it runs; and every
//! slot a program runs records a trace event.
//! These tests pin both with the shared counting allocator
//! (`tests/support/counting.rs`); its counters are per thread, so the
//! harness running tests side by side cannot disturb a reading.

use std::sync::Arc;

use spear_core::prelude::*;
use spear_core::template::{PromptText, Segment};

#[path = "../../../tests/support/counting.rs"]
mod counting;

use counting::footprint;

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

#[test]
fn one_more_data_leaf_costs_five_allocations() {
    // DELEGATE to an agent that returns `Null` into C: a data leaf that
    // calls no LLM. Two programs that differ by four such leaves; 8 to 12
    // leaves crosses no doubling of the trace's event vector or C's write
    // log, so the difference is four steps, each with its trace record.
    let rt = Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .agent(
            "noop",
            Arc::new(FnAgent(|_: &Value, _: &Context| Ok(Value::Null))),
        )
        .build();
    let run_allocs = |leaves: usize| {
        let plan = lower(
            &(0..leaves)
                .fold(
                    Pipeline::builder("steps").create_text("p", "base", RefinementMode::Manual),
                    |b, _| b.delegate("noop", PayloadSpec::CtxKey("q".into()), "out"),
                )
                .build(),
        )
        .expect("lowers");
        let mut state = ExecState::new();
        state.context.set("q", "v");
        let (report, _, allocs) = footprint(|| rt.execute_program(&plan, &mut state));
        assert_eq!(report.expect("runs").ops_executed, leaves as u64 + 1);
        allocs
    };
    run_allocs(1);
    let (few, more) = (run_allocs(8), run_allocs(12));
    assert_eq!(
        more - few,
        4 * 5,
        "four more DELEGATE steps made {} allocations",
        more - few
    );
}

#[test]
fn a_ref_create_of_a_placeholder_free_text_shares_it_with_its_literal() {
    // The note `batch_adaptive` writes per request: a REF CREATE of a text
    // without placeholders, on a new key beside one P already holds. The
    // text is one literal, which shares the text's allocation: 8
    // allocations, one fewer than if the literal copied the text (15
    // against 16 while the REF's trace payload was a map built per event).
    const NOTE: &str = "Low confidence after refinement; route to review.";
    let rt = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
    let run = |note: bool| {
        let mut b = Pipeline::builder("note").create_text("p", "base", RefinementMode::Manual);
        if note {
            b = b.create_text("note", NOTE, RefinementMode::Manual);
        }
        let plan = lower(&b.build()).expect("lowers");
        let mut state = ExecState::new();
        let (report, _, allocs) = footprint(|| rt.execute_program(&plan, &mut state));
        report.expect("runs");
        (state, allocs)
    };
    run(true);
    let ((_, without), (state, with)) = (run(false), run(true));
    assert_eq!(
        with - without,
        8,
        "a REF CREATE of the note made {} allocations",
        with - without
    );

    let entry = state.prompts.get("note").expect("defined");
    let [Segment::Literal(literal)] = entry.text.parsed().expect("parses").segments() else {
        panic!("one literal: {:?}", entry.text.parsed())
    };
    assert!(std::ptr::eq(literal.text(), &**entry.text.shared()));
}

#[test]
fn an_expand_of_a_view_derived_entry_extends_the_views_parse() {
    // The shape of a serving request that grows its prompt: an entry
    // instantiated from a view, then one EXPAND. The expanded text starts
    // with the view's, so its parse is the view's extended by the
    // sentence: two allocations more than the step made when the text
    // carried no parse (19): the segment slice and the merged tail literal.
    // The head literal is the view's own.
    let views = ViewCatalog::new();
    views.register(ViewDef::new(
        "family",
        "You are processing support tickets. Condense the item below.\n\
         Item: {{ctx:item}}\nAnswer with a word limit of 50.",
    ));
    let rt = Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .views(views)
        .build();
    let run = |expand: bool| {
        let mut b = Pipeline::builder("expand").create_from_view("p", "family", Default::default());
        if expand {
            b = b.expand("p", "Pass 1: revisit the ledger and tighten the wording.");
        }
        let plan = lower(&b.build()).expect("lowers");
        let mut state = ExecState::new();
        state.context.set("item", "v");
        let (report, _, allocs) = footprint(|| rt.execute_program(&plan, &mut state));
        report.expect("runs");
        (state, allocs)
    };
    run(true);
    let ((_, without), (state, with)) = (run(false), run(true));
    assert!(
        with - without <= 19 + 2,
        "an EXPAND of a view-derived entry made {} allocations",
        with - without
    );

    let head = |text: &PromptText| match &text.parsed().expect("parses").segments()[0] {
        Segment::Literal(literal) => literal.text().as_ptr(),
        Segment::Placeholder { .. } => panic!("the view starts with a literal"),
    };
    let view = rt
        .views()
        .instantiate("family", Default::default())
        .expect("instantiates");
    let expanded = state.prompts.get("p").expect("defined");
    assert_eq!(expanded.version, 2);
    assert!(std::ptr::eq(head(&view.text), head(&expanded.text)));
}

/// Allocation calls of running `plan` on a fresh state whose C holds `q`.
fn run_allocs(rt: &Runtime, plan: &Program) -> u64 {
    let mut state = ExecState::new();
    state.context.set("q", "v");
    let (_, _, allocs) = footprint(|| rt.execute_program(plan, &mut state));
    allocs
}

/// `depth` CHECKs that hold, nested, around a GEN over an undefined key.
fn nested_failing_gen(b: PipelineBuilder, depth: usize) -> PipelineBuilder {
    if depth == 0 {
        b.gen("a", "missing")
    } else {
        b.check(Cond::Always, |b| nested_failing_gen(b, depth - 1))
    }
}

#[test]
fn a_check_event_and_each_unwind_frame_allocate_nothing() {
    // Two more holding CHECKs around a failing GEN: two more CHECK events
    // and two more unwind frames. Both share the check's label from the
    // program, and the frames share the one error message (three
    // allocations a level when each copied them). 4 to 6 levels is 11 to
    // 15 events, inside one capacity of the trace's event vector.
    let rt = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
    let plan = |depth| {
        lower(&nested_failing_gen(Pipeline::builder("deep"), depth).build()).expect("lowers")
    };
    let (four, six) = (plan(4), plan(6));
    run_allocs(&rt, &four);
    let mut state = ExecState::new();
    assert!(rt.execute_program(&six, &mut state).is_err());
    assert_eq!(state.trace.count(TraceKind::CheckTaken), 6);
    assert_eq!(state.trace.count(TraceKind::Error), 1 + 6 + 1);
    let (few, more) = (run_allocs(&rt, &four), run_allocs(&rt, &six));
    assert_eq!(
        more,
        few,
        "two more CHECK events and unwind frames made {} allocations",
        more.abs_diff(few)
    );
}

/// Allocation calls of `more - few` extra steps `step` adds to a program
/// that first defines `p`.
fn step_allocs(
    rt: &Runtime,
    (few, more): (usize, usize),
    step: impl Fn(PipelineBuilder) -> PipelineBuilder,
) -> u64 {
    let plan = |steps: usize| {
        let start = Pipeline::builder("steps").create_text("p", "base", RefinementMode::Manual);
        lower(&(0..steps).fold(start, |b, _| step(b)).build()).expect("lowers")
    };
    let (few, more) = (plan(few), plan(more));
    run_allocs(rt, &few);
    run_allocs(rt, &more) - run_allocs(rt, &few)
}

#[test]
fn a_gen_or_ref_steps_trace_record_allocates_only_its_op_line() {
    // Each step's trace record allocates its op line and nothing else:
    // with the record call deleted, a step makes one allocation fewer, 16
    // a GEN and 10 an EXPAND. When the payload was a map built per event,
    // a GEN step made 27 allocations and an EXPAND 18.
    // The step counts avoid a doubling of the trace's event vector, C's
    // write log and the entry's refinement log.
    let rt = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
    let gens = step_allocs(&rt, (8, 12), |b| b.gen("a", "p"));
    assert_eq!(gens, 4 * 17, "four more GEN steps made {gens} allocations");
    let expands = step_allocs(&rt, (9, 13), |b| b.expand("p", "more"));
    assert_eq!(
        expands,
        4 * 11,
        "four more EXPAND steps made {expands} allocations"
    );
}

#[test]
fn an_executed_batch_adaptive_states_trace_holds_about_two_kilobytes() {
    // The benchmark's `batch_adaptive` pipeline: a view-derived prompt,
    // GEN, EXPAND, a RETRY of two AUTO refinements and a CHECK/ELSE note.
    // The run records 12 events, 3 GEN and 4 REF. Its trace holds its
    // event vector, one op line per data operator and the GENs' model
    // names: 2 044 bytes, against 6 514 when every GEN and REF payload was
    // a map and every CHECK event copied its label.
    let views = ViewCatalog::new();
    views.register(ViewDef::new(
        "tweet_filter",
        "You are given one tweet per request. Summarize the tweet and decide whether it is about \
         the focus topic.\nFocus topic: {{topic}}.\nTweet: {{ctx:tweet}}",
    ));
    let rt = Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .views(views)
        .build();
    let args = [("topic".to_string(), Value::from("school"))]
        .into_iter()
        .collect();
    let low = || Cond::low_confidence(0.62);
    let plan = lower(
        &Pipeline::builder("batch_adaptive")
            .create_from_view("filter", "tweet_filter", args)
            .gen("verdict", "filter")
            .expand("filter", "Weigh the topic wording before the tone.")
            .retry_gen(
                "retry",
                "filter",
                low(),
                "auto_refine",
                Value::Null,
                RefinementMode::Auto,
                2,
            )
            .check_else(
                low(),
                |b| {
                    b.create_text(
                        "note",
                        "Low confidence after refinement; route to review.",
                        RefinementMode::Manual,
                    )
                },
                |b| {
                    b.create_text(
                        "note",
                        "Confident after refinement.",
                        RefinementMode::Manual,
                    )
                },
            )
            .build(),
    )
    .expect("lowers");
    let mut state = ExecState::new();
    state
        .context
        .set("tweet", "the school board meeting ran long again");
    rt.execute_program(&plan, &mut state).expect("runs");
    let trace = std::mem::take(&mut state.trace);
    assert_eq!(
        (
            trace.events().len(),
            trace.count(TraceKind::Gen),
            trace.count(TraceKind::Ref)
        ),
        (12, 3, 4)
    );
    let (_, freed, _) = footprint(|| drop(trace));
    assert!(
        -freed <= 2_100,
        "the trace of an executed batch_adaptive state holds {} bytes",
        -freed
    );
}
