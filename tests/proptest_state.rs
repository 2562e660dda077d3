//! Workspace-level property tests: invariants of the prompt algebra that
//! must hold for *arbitrary* refinement sequences, templates, pipelines,
//! and tokenizer/cache inputs.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use spear::core::prelude::*;
use spear::core::replay;
use spear::llm::{ModelProfile, SimLlm, Tokenizer};

/// An arbitrary refinement step against a prompt store.
#[derive(Debug, Clone)]
enum RefStep {
    Update(String),
    Append(String),
    Rollback(u64),
    Clone,
}

fn ref_step() -> impl Strategy<Value = RefStep> {
    prop_oneof![
        "[a-z ]{0,40}".prop_map(RefStep::Update),
        "[a-z ]{1,20}".prop_map(RefStep::Append),
        (1u64..20).prop_map(RefStep::Rollback),
        Just(RefStep::Clone),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any refinement sequence, every entry's history verifies:
    /// versions strictly increase and the final record matches the entry.
    /// Every retained version replays to exactly the text it recorded.
    #[test]
    fn histories_always_verify_and_replay(steps in proptest::collection::vec(ref_step(), 0..30)) {
        let store = PromptStore::new();
        store.define("p", "base text", "f_base", RefinementMode::Manual);
        let mut clones = 0usize;
        for (i, step) in steps.iter().enumerate() {
            match step {
                RefStep::Update(text) => {
                    store.refine(
                        "p", text.as_str().into(), RefAction::Update, "f_up",
                        RefinementMode::Auto, i as u64, None, BTreeMap::new(), None,
                    ).unwrap();
                }
                RefStep::Append(text) => {
                    let current = store.get("p").unwrap();
                    let new = if current.text.is_empty() {
                        text.clone()
                    } else {
                        format!("{}\n{}", current.text, text)
                    };
                    store.refine(
                        "p", new.into(), RefAction::Append, "f_app",
                        RefinementMode::Manual, i as u64, None, BTreeMap::new(), None,
                    ).unwrap();
                }
                RefStep::Rollback(v) => {
                    let current = store.get("p").unwrap();
                    let target = 1 + (v % current.version);
                    store.rollback("p", target, i as u64).unwrap();
                }
                RefStep::Clone => {
                    clones += 1;
                    store.clone_entry("p", format!("clone-{clones}")).unwrap();
                }
            }
        }
        for key in store.keys() {
            let entry = store.get(&key).unwrap();
            replay::verify(&entry).unwrap();
            for rec in &entry.ref_log {
                let replayed = replay::replay_to(&entry, rec.version).unwrap();
                prop_assert_eq!(&replayed.text, &rec.text_after);
                prop_assert_eq!(replayed.version, rec.version);
            }
        }
    }

    /// Rendering a template built from arbitrary literal text with one
    /// placeholder always substitutes exactly the bound value.
    #[test]
    fn template_substitution_is_exact(
        prefix in "[^{}]{0,30}",
        suffix in "[^{}]{0,30}",
        value in "[a-zA-Z0-9 ]{0,20}",
    ) {
        let template = format!("{prefix}{{{{x}}}}{suffix}");
        let entry = PromptEntry::new(template.as_str(), "f", RefinementMode::Manual)
            .with_param("x", value.clone());
        let rendered = entry.render(&Context::new()).unwrap();
        prop_assert_eq!(rendered, format!("{prefix}{value}{suffix}"));
    }

    /// The tokenizer's prefix-sharing property: two texts with a common
    /// string prefix ending at a word boundary share at least the token
    /// prefix of that common part.
    #[test]
    fn tokenizer_preserves_word_boundary_prefixes(
        common in "[a-z]{1,8}( [a-z]{1,8}){0,10}",
        a_tail in "[a-z]{1,8}",
        b_tail in "[0-9]{1,8}",
    ) {
        let tok = Tokenizer::new();
        let a = tok.encode(&format!("{common} {a_tail}"));
        let b = tok.encode(&format!("{common} {b_tail}"));
        let common_tokens = tok.count(&common);
        let shared = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        prop_assert!(shared >= common_tokens);
    }

    /// Engine determinism: the same request on a fresh engine always yields
    /// the identical response, for arbitrary tweet-ish inputs.
    #[test]
    fn engine_is_deterministic_for_arbitrary_inputs(tweet in "[a-zA-Z0-9 #@!.]{1,80}") {
        let req = spear::core::llm::GenRequest::structured(
            format!("Classify the sentiment. Respond with one word.\nTweet: {tweet}"),
            "view:t@1#0/v1",
        );
        let r1 = {
            use spear::core::llm::LlmClient;
            SimLlm::new(ModelProfile::qwen25_7b_instruct()).generate(&req).unwrap()
        };
        let r2 = {
            use spear::core::llm::LlmClient;
            SimLlm::new(ModelProfile::qwen25_7b_instruct()).generate(&req).unwrap()
        };
        prop_assert_eq!(r1, r2);
    }

    /// Executor robustness: arbitrary CHECK nesting over arbitrary signal
    /// values never panics — it either runs or returns a typed error — and
    /// the op budget is never exceeded.
    #[test]
    fn executor_never_panics_on_arbitrary_checks(
        confidence in proptest::option::of(0.0f64..1.0),
        depth in 1usize..6,
        threshold in 0.0f64..1.0,
    ) {
        let rt = Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .config(RuntimeConfig {
                max_ops: 64,
                ..RuntimeConfig::default()
            })
            .build();
        let mut state = ExecState::new();
        state.prompts.define("p", "text", "f", RefinementMode::Manual);
        if let Some(c) = confidence {
            state.metadata.set("confidence", c);
        }
        let mut builder = Pipeline::builder("nested");
        for _ in 0..depth {
            builder = builder.check(Cond::low_confidence(threshold), |b| {
                b.expand("p", "x").gen("out", "p")
            });
        }
        let result = rt.execute(&builder.build(), &mut state);
        match result {
            Ok(report) => prop_assert!(report.ops_executed <= 64),
            Err(e) => {
                // Missing confidence makes the comparison incomparable —
                // the only acceptable failure here.
                prop_assert!(matches!(e, SpearError::Condition(_)), "{e}");
                prop_assert!(confidence.is_none());
            }
        }
    }
}
