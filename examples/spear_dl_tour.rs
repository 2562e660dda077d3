//! SPEAR-DL tour: declare views and an adaptive pipeline in the
//! declarative language (paper §6), compile it, and execute it.
//!
//! Run with: `cargo run --example spear_dl_tour`

use std::sync::Arc;

use spear::core::prelude::*;
use spear::dl;
use spear::llm::{ModelProfile, SimLlm};

const PROGRAM: &str = r#"
# Views are parameterized, versioned, and composable (paper §4.2).
VIEW output_format = "Answer with the label, then ' :: ', then the summary.";

VIEW med_summary(drug, word_limit = 60)
  TAGS [clinical]
  DESC "Medication summary scaffold for one drug"
= "Summarize the patient's medication history and highlight any use of
{{drug}} within a word limit of {{word_limit}}.
{{view:output_format}}
Notes: {{ctx:notes}}";

PIPELINE enoxaparin_qa {
  REF CREATE "qa_prompt" FROM VIEW med_summary(drug = "Enoxaparin");
  GEN "answer_0" USING "qa_prompt";

  # Manual expansion (the derived EXPAND of Table 2).
  EXPAND "qa_prompt" "Include dosage and timing.";

  # Confidence-driven retry, lowered onto CHECK + REF + GEN.
  RETRY "answer" USING "qa_prompt" IF M["confidence"] < 0.9
    WITH auto_refine() MODE AUTO MAX 2;

  # Fallback logic over context membership.
  CHECK "orders" NOT IN C {
    REF CREATE "note" TEXT "No structured orders were retrieved.";
  } ELSE {
    REF CREATE "note" TEXT "Structured orders present.";
  }

  DIFF "qa_prompt" "qa_prompt" INTO "self_diff";
}
"#;

fn main() -> Result<()> {
    // Compile: lexer → parser, which emits core views and pipelines.
    // Errors carry positions:
    let bad = dl::compile("PIPELINE p { GEN \"a\" \"b\"; }");
    println!("error reporting demo: {}\n", bad.unwrap_err());

    let compiled = dl::compile(PROGRAM).map_err(|e| SpearError::InvalidPipeline(e.to_string()))?;
    println!(
        "compiled {} views and {} pipelines",
        compiled.views.len(),
        compiled.pipelines.len()
    );
    let pipeline = compiled.pipeline("enoxaparin_qa").expect("declared");
    println!("{}", pipeline.describe());

    // Install the declared views, statically verify, and execute.
    let views = ViewCatalog::new();
    compiled.install_views(&views);
    let runtime = Runtime::builder()
        .llm(Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())))
        .views(views)
        .build();
    let verifier = Verifier::with_runtime(&runtime);
    let issues: Vec<_> = compiled
        .lower()?
        .iter()
        .flat_map(|plan| verifier.verify(plan))
        .filter(Diagnostic::is_error)
        .collect();
    println!(
        "static validation: {}",
        if issues.is_empty() {
            "clean".to_string()
        } else {
            format!("{issues:?}")
        }
    );

    let mut state = ExecState::new();
    state
        .context
        .set("notes", "enoxaparin 40 mg SC daily for DVT prophylaxis");
    let report = runtime.execute(pipeline, &mut state)?;

    println!(
        "ran {} ops / {} gens; answer_0 = {}",
        report.ops_executed,
        report.gens,
        state.context.get("answer_0").unwrap_or_default().render()
    );
    println!("fallback note: {}", state.prompts.get("note")?.text);
    println!(
        "self-diff similarity: {}",
        state
            .context
            .get("self_diff")
            .and_then(|v| v.path("similarity").cloned())
            .unwrap_or_default()
    );

    // The trace is structured data — serialize it like a query plan log.
    let jsonl = state
        .trace
        .to_jsonl()
        .map_err(|e| SpearError::InvalidPipeline(e.to_string()))?;
    println!("\ntrace has {} events; first three:", jsonl.lines().count());
    for line in jsonl.lines().take(3) {
        println!("  {line}");
    }
    Ok(())
}
