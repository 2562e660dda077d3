//! Operator-level runtime behaviour, exercised through the public API.
//!
//! These started as `runtime.rs` unit tests; since the interpreter split
//! into per-operator executor modules they run here against the lowered-IR
//! path that `Runtime::execute` now dispatches to.

use std::sync::Arc;
use std::time::Duration;

use spear_core::agent::EvidenceValidator;
use spear_core::prelude::*;

fn runtime() -> Runtime {
    let views = ViewCatalog::new();
    views.register(
        ViewDef::new(
            "med_summary",
            "Summarize the patient's medication history and highlight any use of {{drug}}.\nNotes: {{ctx:notes}}",
        )
        .with_param(ParamSpec::required("drug")),
    );
    Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .retriever(
            "initial_notes",
            Arc::new(InMemoryRetriever::from_texts([
                ("n1", "Patient on enoxaparin 40mg daily"),
                ("n2", "No bleeding events reported"),
            ])),
        )
        .agent(
            "validation_agent",
            Arc::new(EvidenceValidator {
                evidence_key: "answer_0".into(),
            }),
        )
        .views(views)
        .build()
}

fn qa_pipeline() -> Pipeline {
    Pipeline::builder("qa")
        .ret("initial_notes", "notes_raw", 5)
        .create_text("notes_joiner", "ignored", RefinementMode::Manual)
        .build()
}

#[test]
fn full_qa_pipeline_runs_and_traces() {
    let rt = runtime();
    let mut state = ExecState::new();
    state.context.set("notes", "enoxaparin 40mg daily");
    let pipeline = Pipeline::builder("qa")
        .ret("initial_notes", "notes_raw", 5)
        .create_from_view(
            "qa_prompt",
            "med_summary",
            [("drug".to_string(), Value::from("Enoxaparin"))]
                .into_iter()
                .collect(),
        )
        .gen("answer_0", "qa_prompt")
        .build();
    let report = rt.execute(&pipeline, &mut state).unwrap();

    assert_eq!(report.ops_executed, 3);
    assert_eq!(report.gens, 1);
    assert_eq!(report.refs, 1);
    assert!(state.context.contains("answer_0"));
    assert!(state.context.contains("notes_raw"));
    assert!(state.metadata.get("confidence").is_some());
    assert_eq!(state.trace.count(TraceKind::Gen), 1);
    assert_eq!(state.trace.count(TraceKind::Ret), 1);

    // The prompt was view-derived, so GEN saw a structured identity and
    // the entry records its origin.
    let entry = state.prompts.get("qa_prompt").unwrap();
    assert!(entry.derives_from_view("med_summary"));
}

#[test]
fn confidence_retry_refines_and_regenerates() {
    // First answer low confidence, second high.
    let llm = ScriptedLlm::new(vec![
        ScriptedLlm::response("weak answer", 0.4),
        ScriptedLlm::response("strong answer", 0.9),
    ]);
    let rt = Runtime::builder().llm(Arc::new(llm)).build();
    let mut state = ExecState::new();
    let pipeline = Pipeline::builder("retry")
        .create_text("p", "Classify the note.", RefinementMode::Manual)
        .retry_gen(
            "answer",
            "p",
            Cond::low_confidence(0.7),
            "auto_refine",
            Value::Null,
            RefinementMode::Auto,
            2,
        )
        .build();
    let report = rt.execute(&pipeline, &mut state).unwrap();

    assert_eq!(report.gens, 2, "initial + one retry");
    assert_eq!(report.checks_taken, 1, "second check sees 0.9 and skips");
    assert!(state.context.contains("answer_0"));
    assert!(state.context.contains("answer_1"));
    assert!(!state.context.contains("answer_2"));

    // The refinement carries the triggering condition in the ref_log.
    let entry = state.prompts.get("p").unwrap();
    assert_eq!(entry.version, 2);
    let auto_rec = &entry.ref_log[1];
    assert_eq!(auto_rec.mode, RefinementMode::Auto);
    assert!(auto_rec.trigger.as_deref().unwrap().contains("confidence"));
    assert_eq!(
        auto_rec.signals.get("confidence").unwrap().as_f64(),
        Some(0.4),
        "signals snapshot captured at refinement time"
    );
}

#[test]
fn check_else_branch_gets_negated_trigger() {
    let rt = runtime();
    let mut state = ExecState::new();
    state.metadata.set("confidence", 0.9);
    let pipeline = Pipeline::builder("else")
        .create_text("p", "base", RefinementMode::Manual)
        .check_else(
            Cond::low_confidence(0.7),
            |b| b.expand("p", "then-branch"),
            |b| b.expand("p", "else-branch"),
        )
        .build();
    rt.execute(&pipeline, &mut state).unwrap();
    let entry = state.prompts.get("p").unwrap();
    assert!(entry.text.contains("else-branch"));
    assert!(entry.ref_log[1]
        .trigger
        .as_deref()
        .unwrap()
        .starts_with("!("));
}

#[test]
fn merge_policies_choose_correctly() {
    let rt = runtime();
    let mut state = ExecState::new();
    state
        .prompts
        .define("primary", "primary text", "f", RefinementMode::Manual);
    state
        .prompts
        .define("fallback", "fallback text", "f", RefinementMode::Manual);
    state.metadata.set("confidence:primary", 0.5);
    state.metadata.set("confidence:fallback", 0.8);

    let pipeline = Pipeline::builder("merge")
        .merge(
            "fallback",
            "primary",
            "merged_concat",
            MergePolicy::Concat {
                separator: "\n---\n".into(),
            },
        )
        .merge(
            "primary",
            "fallback",
            "merged_best",
            MergePolicy::BySignal {
                left_signal: "confidence:primary".into(),
                right_signal: "confidence:fallback".into(),
            },
        )
        .build();
    rt.execute(&pipeline, &mut state).unwrap();

    let concat = state.prompts.get("merged_concat").unwrap();
    assert!(concat.text.contains("fallback text") && concat.text.contains("primary text"));
    let best = state.prompts.get("merged_best").unwrap();
    assert_eq!(&*best.text, "fallback text", "higher signal wins");
    assert!(matches!(best.origin, PromptOrigin::Merged { .. }));
}

#[test]
fn merge_missing_source_errors() {
    let rt = runtime();
    let mut state = ExecState::new();
    state
        .prompts
        .define("only", "x", "f", RefinementMode::Manual);
    let pipeline = Pipeline::builder("bad")
        .merge("only", "ghost", "out", MergePolicy::PreferLeft)
        .build();
    let err = rt.execute(&pipeline, &mut state).unwrap_err();
    assert!(matches!(err, SpearError::Merge(_)));
    assert_eq!(state.trace.count(TraceKind::Error), 2, "op + pipeline");
}

#[test]
fn delegate_writes_agent_result() {
    let rt = runtime();
    let mut state = ExecState::new();
    state
        .context
        .set("answer_0", "patient on enoxaparin daily dosing");
    let pipeline = Pipeline::builder("validate")
        .delegate(
            "validation_agent",
            PayloadSpec::CtxKey("answer_0".into()),
            "evidence_score",
        )
        .build();
    rt.execute(&pipeline, &mut state).unwrap();
    let score = state.context.get("evidence_score").unwrap();
    assert!(score.as_f64().unwrap() > 0.9);
}

#[test]
fn prompt_based_retrieval_uses_refinable_prompt() {
    let rt = runtime();
    let mut state = ExecState::new();
    let pipeline = Pipeline::builder("ret")
        .create_text(
            "retrieve_meds",
            "enoxaparin dosing notes",
            RefinementMode::Manual,
        )
        .ret_with_prompt("initial_notes", "retrieve_meds", "med_context", 5)
        .build();
    rt.execute(&pipeline, &mut state).unwrap();
    let docs = state.context.get("med_context").unwrap();
    let docs = docs.as_list().unwrap();
    assert_eq!(docs.len(), 1, "only the enoxaparin note matches");
    assert_eq!(
        state.metadata.get("retrieved_count").unwrap().as_i64(),
        Some(1)
    );
}

#[test]
fn gen_without_llm_errors() {
    let rt = Runtime::builder().build();
    let mut state = ExecState::new();
    state.prompts.define("p", "x", "f", RefinementMode::Manual);
    let pipeline = Pipeline::builder("g").gen("a", "p").build();
    assert!(matches!(
        rt.execute(&pipeline, &mut state),
        Err(SpearError::LlmUnavailable { .. })
    ));
}

#[test]
fn inline_prompts_render_context_but_stay_opaque() {
    let rt = runtime();
    let mut state = ExecState::new();
    state.context.set("tweet", "rain ruined my day");
    let pipeline = Pipeline::builder("inline")
        .gen_with(
            "sentiment",
            PromptRef::Inline("Classify: {{ctx:tweet}}".into()),
            GenOptions::default(),
        )
        .build();
    rt.execute(&pipeline, &mut state).unwrap();
    let out = state.context.get("sentiment").unwrap();
    assert!(out.as_str().unwrap().contains("rain") || !out.as_str().unwrap().is_empty());
}

#[test]
fn lowered_prompts_render_context_and_keep_their_identity() {
    let rt = runtime();
    let mut state = ExecState::new();
    state.context.set("tweet", "rain ruined my day");
    let pipeline = Pipeline::builder("lowered")
        .gen_with(
            "sentiment",
            PromptRef::Lowered {
                text: "Classify: {{ctx:tweet}}".into(),
                identity: Some("plan:demo/stage0".into()),
            },
            GenOptions::default(),
        )
        .build();
    rt.execute(&pipeline, &mut state).unwrap();
    let out = state.context.get("sentiment").unwrap();
    assert!(out.as_str().unwrap().contains("rain ruined my day"));
}

#[test]
fn op_budget_is_enforced() {
    let rt = Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .config(RuntimeConfig {
            max_ops: 2,
            ..RuntimeConfig::default()
        })
        .build();
    let mut state = ExecState::new();
    let pipeline = Pipeline::builder("big")
        .create_text("p", "a", RefinementMode::Manual)
        .expand("p", "b")
        .expand("p", "c")
        .build();
    assert!(matches!(
        rt.execute(&pipeline, &mut state),
        Err(SpearError::OpBudgetExceeded { .. })
    ));
}

#[test]
fn ref_on_missing_target_without_create_errors() {
    let rt = runtime();
    let mut state = ExecState::new();
    let pipeline = Pipeline::builder("bad").expand("ghost", "x").build();
    assert!(matches!(
        rt.execute(&pipeline, &mut state),
        Err(SpearError::PromptNotFound(_))
    ));
}

#[test]
fn per_label_confidence_signals() {
    let llm = ScriptedLlm::new(vec![
        ScriptedLlm::response("a", 0.3),
        ScriptedLlm::response("b", 0.8),
    ]);
    let rt = Runtime::builder().llm(Arc::new(llm)).build();
    let mut state = ExecState::new();
    state.prompts.define("p", "x", "f", RefinementMode::Manual);
    let pipeline = Pipeline::builder("two")
        .gen("first", "p")
        .gen("second", "p")
        .build();
    rt.execute(&pipeline, &mut state).unwrap();
    assert_eq!(
        state.metadata.get("confidence:first").unwrap().as_f64(),
        Some(0.3)
    );
    assert_eq!(
        state.metadata.get("confidence:second").unwrap().as_f64(),
        Some(0.8)
    );
    assert_eq!(
        state.metadata.get("confidence").unwrap().as_f64(),
        Some(0.8)
    );
}

#[test]
fn token_budget_aborts_mid_pipeline() {
    let rt = Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .config(RuntimeConfig {
            max_tokens: Some(10),
            ..RuntimeConfig::default()
        })
        .build();
    let mut state = ExecState::new();
    state.prompts.define(
        "p",
        "a reasonably long prompt with enough words to cross ten tokens",
        "f",
        RefinementMode::Manual,
    );
    let pipeline = Pipeline::builder("over")
        .gen("a", "p")
        .gen("b", "p")
        .build();
    let err = rt.execute(&pipeline, &mut state).unwrap_err();
    assert!(
        matches!(err, SpearError::TokenBudgetExceeded { .. }),
        "{err}"
    );
    // The first generation completed before the budget tripped.
    assert!(state.context.contains("a"));
    assert!(!state.context.contains("b"));
}

#[test]
fn latency_budget_aborts_mid_pipeline() {
    let rt = Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .config(RuntimeConfig {
            max_latency: Some(Duration::from_micros(1)),
            ..RuntimeConfig::default()
        })
        .build();
    let mut state = ExecState::new();
    state
        .prompts
        .define("p", "prompt text here", "f", RefinementMode::Manual);
    let pipeline = Pipeline::builder("slow")
        .gen("a", "p")
        .gen("b", "p")
        .build();
    let err = rt.execute(&pipeline, &mut state).unwrap_err();
    assert!(
        matches!(err, SpearError::LatencyBudgetExceeded { .. }),
        "{err}"
    );
}

#[test]
fn budgets_are_per_call_not_cumulative() {
    let rt = Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .config(RuntimeConfig {
            max_tokens: Some(200),
            ..RuntimeConfig::default()
        })
        .build();
    let mut state = ExecState::new();
    state
        .prompts
        .define("p", "short prompt", "f", RefinementMode::Manual);
    let pipeline = Pipeline::builder("ok").gen("a", "p").build();
    // Many successive calls each stay within their own budget even
    // though cumulative usage far exceeds it.
    for _ in 0..20 {
        rt.execute(&pipeline, &mut state).unwrap();
    }
}

#[test]
fn execute_twice_accumulates_state() {
    let rt = runtime();
    let mut state = ExecState::new();
    let p1 = qa_pipeline();
    rt.execute(&p1, &mut state).unwrap();
    let step_after_first = state.step;
    rt.execute(&p1, &mut state).unwrap();
    assert!(
        state.step > step_after_first,
        "steps continue monotonically"
    );
}

#[test]
fn execute_program_runs_a_prelowered_plan_like_execute() {
    let rt = runtime();
    let pipeline = qa_pipeline();
    let program = lower(&pipeline).unwrap();

    let mut via_pipeline = ExecState::new();
    let mut via_plan = ExecState::new();
    let a = rt.execute(&pipeline, &mut via_pipeline).unwrap();
    let b = rt.execute_program(&program, &mut via_plan).unwrap();
    assert_eq!(a, b);
    assert_eq!(via_pipeline.trace, via_plan.trace);
}

#[test]
fn report_totals_equal_the_sums_over_the_trace_gen_events() {
    // Two GENs run and one is skipped: `EchoLlm` answers at confidence
    // 0.6, so the low-confidence CHECK's then-branch never runs.
    let rt = runtime();
    let mut state = ExecState::new();
    state
        .prompts
        .define("p", "summarize the notes", "f", RefinementMode::Manual);
    let pipeline = Pipeline::builder("totals")
        .gen("a", "p")
        .check(Cond::low_confidence(0.5), |t| t.gen("skipped", "p"))
        .gen("b", "p")
        .build();
    let report = rt.execute(&pipeline, &mut state).unwrap();

    let mut usage = TokenUsage::default();
    let mut latency = Duration::ZERO;
    let gens = state.trace.of_kind(TraceKind::Gen);
    for event in &gens {
        let field = |key: &str| -> u64 {
            let detail = event.detail.to_value();
            u64::try_from(detail.as_map().unwrap()[key].as_i64().unwrap()).unwrap()
        };
        usage.absorb(TokenUsage {
            prompt_tokens: field("prompt_tokens"),
            cached_tokens: field("cached_tokens"),
            completion_tokens: field("completion_tokens"),
        });
        latency += Duration::from_micros(field("latency_us"));
    }
    assert_eq!(report.gens, 2);
    assert_eq!(report.gens, gens.len() as u64);
    assert_eq!(report.usage, usage);
    assert_eq!(report.latency, latency);
    assert!(usage.total() > 0 && latency > Duration::ZERO);
    assert!(!state.context.contains("skipped"));
}

fn create_qa_prompt_from_view() -> Pipeline {
    Pipeline::builder("create")
        .create_from_view(
            "qa_prompt",
            "med_summary",
            [("drug".to_string(), Value::from("Enoxaparin"))]
                .into_iter()
                .collect(),
        )
        .build()
}

/// A durability sink that keeps its records where the test can read them.
#[derive(Default)]
struct MemoryLog(Arc<std::sync::Mutex<Vec<spear_kv::LogRecord<PromptEntry>>>>);

impl spear_kv::Persister<PromptEntry> for MemoryLog {
    fn append(&mut self, record: &spear_kv::LogRecord<PromptEntry>) -> spear_kv::Result<()> {
        self.0.lock().unwrap().push(record.clone());
        Ok(())
    }

    fn flush(&mut self) -> spear_kv::Result<()> {
        Ok(())
    }
}

#[test]
fn create_from_view_stores_one_complete_version() {
    let rt = runtime();
    let log = MemoryLog::default();
    let logged = Arc::clone(&log.0);
    let mut state = ExecState::new();
    state.prompts = PromptStore::new().with_persister(Box::new(log));
    rt.execute(&create_qa_prompt_from_view(), &mut state)
        .unwrap();

    // Storage and the durability log hold the entry once, and what they
    // hold is the view-derived entry, not a half-built ad-hoc one.
    let stored = state.prompts.backend().history("qa_prompt");
    assert_eq!(stored.len(), 1);
    let logged = logged.lock().unwrap();
    assert_eq!(logged.len(), 1);
    let spear_kv::LogOp::Put(entry) = &logged[0].op else {
        panic!("a put was logged");
    };
    assert!(Arc::ptr_eq(entry, stored[0].value.as_ref().unwrap()));
    assert_eq!(entry.version, 1);
    assert!(entry.derives_from_view("med_summary"));
    assert_eq!(
        entry.params.get("drug").and_then(Value::as_str),
        Some("Enoxaparin")
    );
    assert!(entry.cache_identity().is_some());
    assert_eq!(entry.ref_log[0].step, 1);
    assert!(entry.ref_log[0].note.as_deref().unwrap().contains("view"));
}

#[test]
fn eight_states_instantiated_from_one_view_share_one_text() {
    let rt = runtime();
    let pipeline = create_qa_prompt_from_view();
    let texts: Vec<Arc<str>> = (0..8)
        .map(|_| {
            let mut state = ExecState::new();
            rt.execute(&pipeline, &mut state).unwrap();
            let entry = state.prompts.get("qa_prompt").unwrap();
            assert!(Arc::ptr_eq(
                entry.text.shared(),
                entry.ref_log[0].text_after.shared()
            ));
            Arc::clone(entry.text.shared())
        })
        .collect();
    for text in &texts[1..] {
        assert!(Arc::ptr_eq(text, &texts[0]));
    }
}
