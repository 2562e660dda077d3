//! Property tests for SPEAR-DL: the lexer and parser must be total over
//! arbitrary input (typed errors, never panics), and well-formed generated
//! programs must compile, lower and verify clean.

use proptest::prelude::*;
use spear_core::analysis::Verifier;
use spear_dl::compile;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The full front end never panics on arbitrary bytes.
    #[test]
    fn frontend_is_total(input in ".{0,200}") {
        match compile(&input) {
            Ok(_) => {}
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(msg.contains("error at"), "{msg}");
            }
        }
    }

    /// Arbitrary keyword soup (the adversarial case for a keyword-driven
    /// parser) never panics.
    #[test]
    fn keyword_soup_is_total(
        words in proptest::collection::vec(
            prop_oneof![
                Just("PIPELINE"), Just("VIEW"), Just("GEN"), Just("REF"),
                Just("CHECK"), Just("MERGE"), Just("DELEGATE"), Just("RETRY"),
                Just("SWITCH"), Just("MAP"), Just("{"), Just("}"), Just("("),
                Just(")"), Just(";"), Just("\"x\""), Just("USING"),
                Just("INTO"), Just("IF"), Just("WITH"), Just("=")
            ],
            0..30,
        )
    ) {
        let src = words.join(" ");
        let _ = compile(&src);
    }

    /// Generated well-formed programs parse and compile, and the compiled
    /// op count matches the statement count (GEN statements are 1:1).
    #[test]
    fn generated_programs_roundtrip(
        pipeline_name in "[a-z][a-z0-9_]{0,10}",
        labels in proptest::collection::vec("[a-z][a-z0-9_]{0,8}", 1..6),
        threshold in 0.0f64..1.0,
    ) {
        let mut body = String::new();
        for (i, label) in labels.iter().enumerate() {
            body.push_str(&format!(
                "  REF CREATE \"p{i}\" TEXT \"prompt {i}\";\n  GEN \"{label}\" USING \"p{i}\";\n"
            ));
        }
        body.push_str(&format!(
            "  CHECK M[\"confidence\"] < {threshold} {{ EXPAND \"p0\" \"more\"; }}\n"
        ));
        let src = format!("PIPELINE {pipeline_name} {{\n{body}}}\n");
        let compiled = compile(&src).unwrap();
        let p = compiled.pipeline(&pipeline_name).unwrap();
        prop_assert_eq!(p.ops.len(), labels.len() * 2 + 1);

        // Compile-time verification: everything the DL front end emits
        // must lower without placeholder leaks and pass the IR verifier
        // clean against a runtime with the program's own views installed.
        let lowered = compiled.lower().expect("DL pipelines lower clean");
        prop_assert_eq!(lowered.len(), 1);
        let views = spear_core::view::ViewCatalog::new();
        compiled.install_views(&views);
        let runtime = spear_core::runtime::Runtime::builder()
            .llm(std::sync::Arc::new(spear_core::llm::EchoLlm::default()))
            .views(views)
            .build();
        let diagnostics = Verifier::with_runtime(&runtime).verify(&lowered[0]);
        prop_assert!(
            diagnostics.is_empty(),
            "DL-compiled plan tripped the verifier: {diagnostics:?}"
        );
    }

    /// String literals survive the lexer's escape handling: a program
    /// embedding an arbitrary (escaped) string yields a view whose template
    /// is exactly that string.
    #[test]
    fn string_literal_roundtrip(text in "[a-zA-Z0-9 .,!?-]{0,60}") {
        let src = format!("VIEW v = \"{text}\";");
        let compiled = compile(&src).unwrap();
        prop_assert_eq!(&compiled.views[0].template, &text);
    }
}
