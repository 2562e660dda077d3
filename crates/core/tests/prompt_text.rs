//! A prompt text carries its parse, so every path that hands out a text
//! must hand out the parse of *that* text: a replay, a rollback, and a
//! text read back from JSON render exactly as a fresh entry over the same
//! text does. The wire form is the bare string, parse left off.

use std::collections::BTreeMap;

use spear_core::prelude::*;
use spear_core::replay;
use spear_core::template::{PromptText, Segment};

/// An entry whose versions parse differently: v1 has one placeholder, v2
/// appends a second (its parse extends v1's), v3 rewrites the text whole.
fn entry() -> PromptEntry {
    let mut e = PromptEntry::new("Summarize {{drug}}.", "f_base", RefinementMode::Manual)
        .with_param("drug", "Enoxaparin")
        .with_tag("clinical");
    let v2 = e
        .text
        .successor("Summarize {{drug}}.\nFocus on {{ctx:focus}}.");
    e.apply_refinement(
        v2,
        RefAction::Append,
        "append",
        RefinementMode::Manual,
        1,
        None,
        BTreeMap::new(),
        None,
    );
    e.apply_refinement(
        "Rewritten: {{ctx:focus}} of {{drug}}".into(),
        RefAction::Update,
        "set_text",
        RefinementMode::Manual,
        2,
        None,
        BTreeMap::new(),
        None,
    );
    e
}

fn context() -> Context {
    let mut ctx = Context::new();
    ctx.set("focus", "dosing");
    ctx
}

/// `e` renders, segment for segment, as a fresh entry over its text.
fn renders_as_fresh(e: &PromptEntry) {
    let mut fresh = PromptEntry::new(e.text.to_string(), "f", RefinementMode::Manual);
    fresh.params = e.params.clone();
    assert_eq!(e.text.parsed(), fresh.text.parsed(), "{:?}", e.text);
    assert_eq!(
        e.render_segmented(&context()).expect("renders"),
        fresh.render_segmented(&context()).expect("renders"),
    );
}

#[test]
fn a_replayed_entry_renders_as_a_fresh_one() {
    let e = entry();
    renders_as_fresh(&e);
    for version in 1..=3 {
        let replayed = replay::replay_to(&e, version).expect("retained");
        assert_eq!(replayed.version, version);
        renders_as_fresh(&replayed);
    }
}

#[test]
fn a_rolled_back_entry_renders_as_a_fresh_one() {
    let mut store = PromptStore::new();
    store.insert("p", entry());
    for version in [1, 2] {
        store.rollback("p", version, 9).expect("retained");
        let rolled = store.get("p").expect("present");
        assert_eq!(&*rolled.text, &**entry().text_at_version(version).unwrap());
        renders_as_fresh(&rolled);
    }
}

/// The wire form of `entry()`'s first version: the text is the bare string.
const ENTRY_JSON: &str = "{\"text\":\"Summarize {{drug}}.\",\"params\":{\"drug\":\
\"Enoxaparin\"},\"tags\":[\"clinical\"],\"version\":1,\"ref_log\":[{\"step\":0,\
\"action\":\"Create\",\"f_name\":\"f_base\",\"mode\":\"Manual\",\"trigger\":null,\"signals\":{},\
\"version\":1,\"text_after\":\"Summarize {{drug}}.\",\"note\":null}],\"origin\":\"Adhoc\"}";

#[test]
fn an_entry_read_back_from_json_renders_as_a_fresh_one() {
    let v1 = replay::replay_to(&entry(), 1).expect("retained");
    assert_eq!(serde_json::to_string(&v1).expect("serializes"), ENTRY_JSON);

    let e = entry();
    let back: PromptEntry =
        serde_json::from_str(&serde_json::to_string(&e).expect("serializes")).expect("reads");
    assert_eq!(back, e);
    renders_as_fresh(&back);
    for record in &back.ref_log {
        renders_as_fresh(&PromptEntry {
            text: record.text_after.clone(),
            ..back.clone()
        });
    }
}

#[test]
fn an_inline_prompt_read_back_from_json_renders_as_a_fresh_one() {
    let pipeline = Pipeline::builder("inline")
        .gen_with(
            "a",
            PromptRef::Inline("Classify {{ctx:focus}} now.".into()),
            GenOptions::default(),
        )
        .build();
    let back: Pipeline =
        serde_json::from_str(&serde_json::to_string(&pipeline).expect("serializes"))
            .expect("reads");
    assert_eq!(back, pipeline);
    let Op::Gen {
        prompt: PromptRef::Inline(text),
        ..
    } = &back.ops[0]
    else {
        panic!("an inline GEN: {:?}", back.ops)
    };
    let fresh = PromptText::new(text.to_string());
    assert!(text.parsed().is_some());
    assert_eq!(text.parsed(), fresh.parsed());
    assert_eq!(
        text.render(&BTreeMap::new(), &context()).expect("renders"),
        fresh.render(&BTreeMap::new(), &context()).expect("renders"),
    );
}

/// Whether `text` parses to one literal that is the text's own allocation.
fn one_shared_literal(text: &PromptText) -> bool {
    match text.parsed().expect("parses").segments() {
        [Segment::Literal(literal)] => std::ptr::eq(literal.text(), &**text.shared()),
        segments => panic!("one literal: {segments:?}"),
    }
}

#[test]
fn a_literal_that_is_the_whole_text_shares_its_allocation() {
    let note = PromptText::new("Low confidence after refinement; route to review.");
    assert!(one_shared_literal(&note));
    // A successor whose merged literal spans the new text.
    let grown = note.successor("Low confidence after refinement; route to review. Twice.");
    assert!(one_shared_literal(&grown));
    // A literal beside a placeholder is its own slice.
    let templated = PromptText::new("Review {{ctx:item}}");
    let Segment::Literal(head) = &templated.parsed().expect("parses").segments()[0] else {
        panic!("a leading literal")
    };
    assert_eq!(head.text(), "Review ");
}
