//! Integration: SPEAR-DL programs compile to core pipelines that execute
//! against the simulated LLM and retrieval substrates, with correct
//! adaptive behaviour (retries, fallbacks, merges, delegation).

use std::sync::Arc;

use spear::core::agent::FnAgent;
use spear::core::prelude::*;
use spear::llm::{ModelProfile, SimLlm};

const PROGRAM: &str = r#"
VIEW qa(drug, word_limit = 60) TAGS [clinical] =
  "Summarize the medication history and highlight any use of {{drug}}
within a word limit of {{word_limit}}.
Notes: {{ctx:notes}}";

PIPELINE adaptive_qa {
  REF CREATE "qa_prompt" FROM VIEW qa(drug = "Enoxaparin");
  GEN "answer_0" USING "qa_prompt";
  RETRY "retry" USING "qa_prompt" IF M["confidence"] < 0.9
    WITH auto_refine() MODE AUTO MAX 2;
  CHECK "orders" NOT IN C {
    RET "order_lookup" INTO "orders" LIMIT 3;
  }
  REF CREATE "fallback" TEXT "State that no medication data was found.";
  MERGE "qa_prompt" "fallback" INTO "final_prompt"
    POLICY BY_SIGNAL("confidence:retry_0", "confidence:fallback");
  DELEGATE "scorer" PAYLOAD C["answer_0"] INTO "score";
}
"#;

fn runtime() -> Runtime {
    Runtime::builder()
        .llm(Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())))
        .retriever(
            "order_lookup",
            Arc::new(InMemoryRetriever::from_texts([
                ("o1", "enoxaparin 40 mg order active"),
                ("o2", "lisinopril 10 mg order active"),
            ])),
        )
        .agent(
            "scorer",
            Arc::new(FnAgent(|payload: &Value, _ctx: &Context| {
                Ok(Value::from(payload.as_str().map_or(0, str::len)))
            })),
        )
        .build()
}

#[test]
fn compiled_program_runs_the_full_adaptive_flow() {
    let compiled = spear::dl::compile(PROGRAM).expect("program compiles");
    let rt = runtime();
    compiled.install_views(rt.views());

    let mut state = ExecState::new();
    state
        .context
        .set("notes", "enoxaparin 40 mg SC daily for DVT prophylaxis");
    let pipeline = compiled.pipeline("adaptive_qa").unwrap();
    let report = rt.execute(pipeline, &mut state).unwrap();

    // The base answer and at least one retry exist (QA confidence without
    // hints sits below 0.9, so the RETRY fires and the auto hint lifts it).
    assert!(state.context.contains("answer_0"));
    assert!(state.context.contains("retry_0"));
    assert!(report.checks_taken >= 2, "retry + missing-orders fallback");

    // The fallback retrieval populated orders.
    let orders = state.context.get("orders").unwrap();
    assert_eq!(orders.as_list().unwrap().len(), 2);

    // MERGE produced a prompt with merge provenance.
    let merged = state.prompts.get("final_prompt").unwrap();
    assert!(matches!(merged.origin, PromptOrigin::Merged { .. }));

    // DELEGATE wrote the agent's output.
    assert!(state.context.get("score").unwrap().as_i64().unwrap() > 0);

    // The view-derived prompt carries its origin and an AUTO record with
    // the triggering condition, straight from the DL text.
    let entry = state.prompts.get("qa_prompt").unwrap();
    assert!(entry.derives_from_view("qa"));
    let auto_recs: Vec<_> = entry
        .ref_log
        .iter()
        .filter(|r| r.mode == RefinementMode::Auto)
        .collect();
    assert!(!auto_recs.is_empty());
    assert!(auto_recs[0]
        .trigger
        .as_deref()
        .unwrap()
        .contains("confidence"));
}

#[test]
fn dl_views_are_versioned_on_reinstall() {
    let compiled = spear::dl::compile(PROGRAM).unwrap();
    let catalog = ViewCatalog::new();
    compiled.install_views(&catalog);
    compiled.install_views(&catalog);
    assert_eq!(catalog.get("qa").unwrap().version, 2);
    // Old version retrievable.
    assert!(catalog.get_version("qa", 1).is_ok());
}

#[test]
fn dl_errors_surface_with_positions() {
    let err = spear::dl::compile("PIPELINE p {\n  GEN \"a\";\n}").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("2:"), "line number in {msg}");
    assert!(msg.contains("USING"));
}

#[test]
fn executing_a_dl_pipeline_without_its_views_fails_cleanly() {
    let compiled = spear::dl::compile(PROGRAM).unwrap();
    let rt = Runtime::builder()
        .llm(Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())))
        .build(); // views never installed
    let mut state = ExecState::new();
    state.context.set("notes", "x");
    let err = rt
        .execute(compiled.pipeline("adaptive_qa").unwrap(), &mut state)
        .unwrap_err();
    assert!(matches!(err, SpearError::ViewNotFound(_)));
}

#[test]
fn a_pipeline_at_the_nesting_bound_round_trips_through_json() {
    // The deepest programs the front end accepts: MAX_DEPTH nested CHECK
    // bodies around one GEN, and a SWITCH of MAX_DEPTH CASEs, which lowers
    // to as many CHECKs, each in the last one's else, with the GEN in its
    // DEFAULT. Their JSON nests three levels per CHECK (the op, its
    // fields, its branch), deeper than serde_json's usual 128, and the
    // vendored parser's recursion limit must leave room for it.
    let n = spear::dl::MAX_DEPTH;
    let gen = "GEN \"a\" USING INLINE \"Say hi.\";";
    let checks = format!(
        "PIPELINE deep {{ {}{gen} {}}}",
        "CHECK TRUE { ".repeat(n),
        "} ".repeat(n)
    );
    let switch = format!(
        "PIPELINE deep {{ SWITCH {{ {}DEFAULT {{ {gen} }} }} }}",
        "CASE FALSE { } ".repeat(n)
    );
    for src in [checks, switch] {
        let compiled = spear::dl::compile(&src).expect("exactly the bound compiles");
        let pipeline = compiled.pipeline("deep").unwrap();
        let json = serde_json::to_string(pipeline).unwrap();
        // (No string in these programs holds a bracket.)
        let mut depth = 0usize;
        let mut deepest = 0usize;
        for b in json.bytes() {
            match b {
                b'[' | b'{' => {
                    depth += 1;
                    deepest = deepest.max(depth);
                }
                b']' | b'}' => depth -= 1,
                _ => {}
            }
        }
        assert!(deepest > 3 * n, "{deepest} levels");
        let back: Pipeline = serde_json::from_str(&json).expect("the pipeline parses back");
        assert_eq!(&back, pipeline);

        // ... and so does the trace of running it, which reaches the GEN.
        let rt = Runtime::builder()
            .llm(Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())))
            .build();
        let mut state = ExecState::new();
        let report = rt.execute(pipeline, &mut state).expect("runs");
        assert_eq!(report.gens, 1, "the GEN at the bottom runs");
        let jsonl = state.trace.to_jsonl().unwrap();
        assert_eq!(Trace::from_jsonl(&jsonl).unwrap(), state.trace);
    }
}
