//! Durability-layer edge cases: `Trace::from_jsonl` failure modes (with
//! line-accurate diagnostics) and the independence of a cloned `ExecState`.

use spear::core::prelude::*;
use spear::core::trace::Trace;
use spear::core::SpearError;

fn sample_trace() -> Trace {
    let mut t = Trace::new();
    t.record(
        0,
        TraceKind::PipelineStart,
        "pipeline \"p\"".into(),
        Value::Null,
    );
    t.record(
        1,
        TraceKind::Gen,
        "GEN[\"a\"]".into(),
        spear::core::value::map([
            ("cached_tokens", Value::from(32)),
            ("latency_us", Value::from(1500)),
        ]),
    );
    t.record(
        2,
        TraceKind::PipelineEnd,
        "pipeline \"p\"".into(),
        Value::Null,
    );
    t
}

#[test]
fn malformed_line_mid_file_reports_its_line_number() {
    let jsonl = sample_trace().to_jsonl().unwrap();
    let mut lines: Vec<&str> = jsonl.lines().collect();
    lines[1] = "{\"seq\": 1, \"step\": oops";
    let corrupted = lines.join("\n");
    let err = Trace::from_jsonl(&corrupted).expect_err("malformed line must fail");
    match err {
        SpearError::TraceParse { line, .. } => {
            assert_eq!(line, 2, "the corrupted line is line 2");
        }
        other => panic!("expected TraceParse, got {other:?}"),
    }
}

#[test]
fn a_hostile_nesting_depth_is_a_parse_error_not_a_stack_overflow() {
    let jsonl = sample_trace().to_jsonl().unwrap();
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let corrupted = format!("{}\n{deep}", jsonl.lines().next().unwrap());
    match Trace::from_jsonl(&corrupted).expect_err("an over-deep line must fail") {
        SpearError::TraceParse { line, reason } => {
            assert_eq!(line, 2, "the deep line is line 2");
            assert!(reason.contains("recursion limit exceeded"), "{reason}");
        }
        other => panic!("expected TraceParse, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_after_a_valid_object_is_rejected() {
    let jsonl = sample_trace().to_jsonl().unwrap();
    let mut lines: Vec<String> = jsonl.lines().map(str::to_string).collect();
    let last = lines.len();
    lines[last - 1].push_str(" trailing garbage");
    let corrupted = lines.join("\n");
    let err = Trace::from_jsonl(&corrupted).expect_err("trailing garbage must fail");
    match err {
        SpearError::TraceParse { line, reason } => {
            assert_eq!(line, last, "the garbage is on the final line");
            assert!(!reason.is_empty());
        }
        other => panic!("expected TraceParse, got {other:?}"),
    }
}

#[test]
fn completely_non_json_input_fails_on_line_one() {
    let err = Trace::from_jsonl("this is not json\n{}").expect_err("must fail");
    match err {
        SpearError::TraceParse { line, .. } => assert_eq!(line, 1),
        other => panic!("expected TraceParse, got {other:?}"),
    }
}

#[test]
fn blank_lines_are_skipped_and_roundtrip_is_lossless() {
    let t = sample_trace();
    let jsonl = t.to_jsonl().unwrap();
    let with_blanks = jsonl.replace('\n', "\n\n");
    let back = Trace::from_jsonl(&with_blanks).unwrap();
    assert_eq!(back.events(), t.events());
}

#[test]
fn error_display_names_the_line() {
    let err = Trace::from_jsonl("not json").expect_err("must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("line 1"),
        "diagnostic should place the failure: {msg}"
    );
}

#[test]
fn a_cloned_state_is_fully_independent() {
    let mut original = ExecState::new();
    original.context.set("doc", "original context value");
    original
        .prompts
        .define("p", "original prompt text", "test", RefinementMode::Manual);
    original.metadata.set("confidence:answer", 0.9);
    original.trace = sample_trace();
    original.step = 3;

    let mut clone = original.clone();

    // Mutate every component of the clone.
    clone.context.set("doc", "mutated");
    clone.context.set("extra", "new key");
    clone
        .prompts
        .refine(
            "p",
            "mutated prompt text".into(),
            RefAction::Update,
            "test",
            RefinementMode::Auto,
            1,
            None,
            std::collections::BTreeMap::new(),
            None,
        )
        .unwrap();
    clone.metadata.set("confidence:answer", 0.1);
    clone
        .trace
        .record(4, TraceKind::Error, "synthetic".into(), Value::Null);
    clone.step = 99;

    // The original is untouched.
    assert_eq!(
        original.context.get("doc"),
        Some(Value::from("original context value"))
    );
    assert!(original.context.get("extra").is_none());
    let entry = original.prompts.get("p").unwrap();
    assert_eq!(&*entry.text, "original prompt text");
    assert_eq!(
        entry.version, 1,
        "clone's refine must not bump the original"
    );
    assert_eq!(
        original.metadata.get("confidence:answer"),
        Some(Value::from(0.9))
    );
    assert_eq!(original.trace.events().len(), 3);
    assert_eq!(original.step, 3);

    // And the clone saw all its own mutations.
    assert_eq!(clone.prompts.get("p").unwrap().version, 2);
    assert_eq!(clone.trace.events().len(), 4);
}
