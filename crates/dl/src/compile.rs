//! The compiled form of a SPEAR-DL program, [`Compiled`], and its one way
//! in, [`compile`]: the lexer's tokens go to the parser, which emits core
//! [`ViewDef`]s and [`Pipeline`]s as it reads, so the only errors are
//! lexing and parsing errors.

use spear_core::pipeline::Pipeline;
use spear_core::view::{ViewCatalog, ViewDef};

use crate::error::Result;
use crate::lexer::lex;
use crate::parser;

/// A compiled program: the views to install and the executable pipelines.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// View definitions, in declaration order.
    pub views: Vec<ViewDef>,
    /// Pipelines, in declaration order.
    pub pipelines: Vec<Pipeline>,
}

impl Compiled {
    /// Register every declared view into `catalog` (re-registration bumps
    /// versions, matching the runtime's versioning rules).
    pub fn install_views(&self, catalog: &ViewCatalog) {
        for v in &self.views {
            catalog.register(v.clone());
        }
    }

    /// Find a compiled pipeline by name.
    #[must_use]
    pub fn pipeline(&self, name: &str) -> Option<&Pipeline> {
        self.pipelines.iter().find(|p| p.name == name)
    }

    /// Lower every compiled pipeline to the core plan IR, in declaration
    /// order. DL programs thereby target the same execution spine as
    /// optimizer plans and hand-built pipelines; a host can lower once,
    /// verify each plan with [`spear_core::analysis::Verifier`], compile
    /// once (`spear_core::vm::compile`) and re-execute via
    /// `Runtime::execute_program` without re-flattening.
    ///
    /// # Errors
    ///
    /// Returns [`spear_core::error::SpearError::InvalidPlan`] if any
    /// lowered plan fails the structural verifier (lowering fails closed
    /// rather than emitting a malformed slot program).
    pub fn lower(&self) -> spear_core::error::Result<Vec<spear_core::plan::LoweredPlan>> {
        self.pipelines.iter().map(spear_core::plan::lower).collect()
    }
}

/// Compile SPEAR-DL source to its views and pipelines.
///
/// # Errors
///
/// Returns the first lexing or parsing error, with its position.
pub fn compile(src: &str) -> Result<Compiled> {
    parser::program(lex(src)?)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spear_core::condition::Cond;
    use spear_core::history::{RefAction, RefinementMode};
    use spear_core::ops::Op;

    const PROGRAM: &str = r#"
    VIEW med_summary(drug) TAGS [clinical] =
      "Summarize the medication history and highlight {{drug}}.\nNotes: {{ctx:notes}}";

    PIPELINE qa {
      REF CREATE "qa_prompt" FROM VIEW med_summary(drug = "Enoxaparin");
      GEN "answer_0" USING "qa_prompt";
      RETRY "answer" USING "qa_prompt" IF M["confidence"] < 0.7
        WITH auto_refine() MODE AUTO MAX 2;
      CHECK "orders" NOT IN C {
        RET "order_lookup" INTO "orders" LIMIT 3;
      }
    }
    "#;

    #[test]
    fn compiles_views_with_params_and_tags() {
        let c = compile(PROGRAM).unwrap();
        assert_eq!(c.views.len(), 1);
        let v = &c.views[0];
        assert_eq!(v.name, "med_summary");
        assert!(v.params[0].required);
        assert!(v.tags.contains("clinical"));

        let catalog = ViewCatalog::new();
        c.install_views(&catalog);
        assert!(catalog.contains("med_summary"));
    }

    #[test]
    fn compiles_pipeline_with_lowered_derived_ops() {
        let c = compile(PROGRAM).unwrap();
        let p = c.pipeline("qa").expect("pipeline exists");
        // create + gen + (retry: gen + 2 checks) + check = 6 top-level ops.
        assert_eq!(p.ops.len(), 6);
        assert_eq!(p.ops[0].kind(), "REF");
        assert_eq!(p.ops[1].kind(), "GEN");
        assert_eq!(p.ops[2].kind(), "GEN"); // retry's initial gen
        assert_eq!(p.ops[3].kind(), "CHECK");
        assert_eq!(p.ops[4].kind(), "CHECK");
        assert_eq!(p.ops[5].kind(), "CHECK");
        // The retry checks contain REF (auto mode) + GEN.
        let Op::Check { then_ops, cond, .. } = &p.ops[3] else {
            panic!()
        };
        assert_eq!(cond, &Cond::low_confidence(0.7));
        let Op::Ref { mode, action, .. } = &then_ops[0] else {
            panic!()
        };
        assert_eq!(*mode, RefinementMode::Auto);
        assert_eq!(*action, RefAction::Update);
    }

    #[test]
    fn compiled_pipeline_executes_end_to_end() {
        use spear_core::prelude::*;
        use std::sync::Arc;

        let c = compile(PROGRAM).unwrap();
        let views = ViewCatalog::new();
        c.install_views(&views);
        let runtime = Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .retriever(
                "order_lookup",
                Arc::new(InMemoryRetriever::from_texts([(
                    "o1",
                    "enoxaparin 40mg order",
                )])),
            )
            .views(views)
            .build();
        let mut state = ExecState::new();
        state.context.set("notes", "enoxaparin 40 mg daily");
        runtime
            .execute(c.pipeline("qa").unwrap(), &mut state)
            .unwrap();
        assert!(state.context.contains("answer_0"));
        assert!(
            state.context.contains("orders"),
            "missing-order retrieval fired"
        );
        let entry = state.prompts.get("qa_prompt").unwrap();
        assert!(entry.derives_from_view("med_summary"));
    }

    #[test]
    fn expand_and_diff_lower_to_ref() {
        let c = compile(
            r#"PIPELINE d {
                 REF CREATE "a" TEXT "alpha";
                 REF CREATE "b" TEXT "alpha beta";
                 EXPAND "a" "gamma";
                 DIFF "a" "b" INTO "delta";
               }"#,
        )
        .unwrap();
        let p = c.pipeline("d").unwrap();
        assert_eq!(p.ops.len(), 4);
        assert!(p.ops.iter().all(|o| o.kind() == "REF"));
    }

    #[test]
    fn map_and_switch_lower_onto_core_ops() {
        let c = compile(
            r#"PIPELINE d {
                 REF CREATE "a" TEXT "one";
                 REF CREATE "b" TEXT "two";
                 MAP ["a", "b"] WITH normalize();
                 SWITCH {
                   CASE "discharge" IN C { EXPAND "a" "discharge extras"; }
                   DEFAULT { EXPAND "a" "generic extras"; }
                 }
               }"#,
        )
        .unwrap();
        let p = c.pipeline("d").unwrap();
        // 2 creates + 2 map refs + 1 nested check = 5 top-level ops.
        assert_eq!(p.ops.len(), 5);
        assert_eq!(p.ops[2].kind(), "REF");
        assert_eq!(p.ops[3].kind(), "REF");
        let Op::Check {
            then_ops, else_ops, ..
        } = &p.ops[4]
        else {
            panic!("expected lowered SWITCH to be a CHECK");
        };
        assert_eq!(then_ops.len(), 1);
        assert_eq!(else_ops.len(), 1);
    }

    #[test]
    fn switch_executes_first_matching_case() {
        use spear_core::prelude::*;
        use std::sync::Arc;
        let c = compile(
            r#"PIPELINE dispatch {
                 REF CREATE "p" TEXT "base";
                 SWITCH {
                   CASE "radiology" IN C { EXPAND "p" "radiology branch"; }
                   CASE "discharge" IN C { EXPAND "p" "discharge branch"; }
                   DEFAULT { EXPAND "p" "default branch"; }
                 }
               }"#,
        )
        .unwrap();
        let rt = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
        let mut state = ExecState::new();
        state.context.set("discharge", true);
        rt.execute(c.pipeline("dispatch").unwrap(), &mut state)
            .unwrap();
        let text = state.prompts.get("p").unwrap().text.clone();
        assert!(text.contains("discharge branch"), "{text}");
        assert!(!text.contains("default branch"));
    }

    #[test]
    fn compiled_programs_verify_against_a_runtime() {
        use spear_core::prelude::*;
        use std::sync::Arc;
        let c = compile(PROGRAM).unwrap();
        // Without views installed: issues; after install: clean (the
        // retriever is still missing, so exactly those issues remain).
        let rt = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
        let errors = |rt: &Runtime| -> Vec<_> {
            let verifier = Verifier::with_runtime(rt);
            c.lower()
                .unwrap()
                .iter()
                .flat_map(|plan| verifier.verify(plan))
                .filter(Diagnostic::is_error)
                .collect()
        };
        let before = errors(&rt);
        assert!(before.iter().any(|d| d.message.contains("view")));

        let rt2 = Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .retriever(
                "order_lookup",
                Arc::new(InMemoryRetriever::from_texts([("o", "x")])),
            )
            .views({
                let v = ViewCatalog::new();
                c.install_views(&v);
                v
            })
            .build();
        assert_eq!(errors(&rt2), vec![]);
    }

    #[test]
    fn lowering_targets_the_core_ir() {
        use spear_core::plan::LoweredOp;
        let c = compile(PROGRAM).unwrap();
        let lowered = c.lower().expect("compiled pipelines lower clean");
        assert_eq!(lowered.len(), 1);
        let plan = &lowered[0];
        assert_eq!(plan.name, "qa");
        assert_eq!(plan.source_size, c.pipeline("qa").unwrap().size());
        // The retry CHECKs flatten into explicit jump targets; executing
        // the lowered form matches executing the tree.
        assert!(plan
            .ops
            .iter()
            .any(|op| matches!(op, LoweredOp::Check { on_false, .. } if *on_false != 0)));

        use spear_core::prelude::*;
        use std::sync::Arc;
        let views = ViewCatalog::new();
        c.install_views(&views);
        let runtime = Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .retriever(
                "order_lookup",
                Arc::new(InMemoryRetriever::from_texts([("o1", "order")])),
            )
            .views(views)
            .build();
        let mut tree_state = ExecState::new();
        tree_state.context.set("notes", "enoxaparin 40 mg daily");
        let mut ir_state = tree_state.deep_clone();
        let tree = runtime
            .execute_tree(c.pipeline("qa").unwrap(), &mut tree_state)
            .unwrap();
        let program = spear_core::vm::compile(plan).unwrap();
        let ir = runtime.execute_program(&program, &mut ir_state).unwrap();
        assert_eq!(tree, ir);
        assert_eq!(tree_state.trace, ir_state.trace);
    }

    #[test]
    fn pipeline_lookup_by_name() {
        let c = compile("PIPELINE a { } PIPELINE b { }").unwrap();
        assert!(c.pipeline("a").is_some());
        assert!(c.pipeline("b").is_some());
        assert!(c.pipeline("z").is_none());
    }
}
