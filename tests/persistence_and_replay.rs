//! Integration: durable prompt stores over the KV substrate's append-only
//! log, recovery after "restart", and prompt-history replay invariants
//! (paper §4.3/§6: versioned stores, structured logging, refinement
//! replay).

use std::collections::BTreeMap;
use std::path::PathBuf;

use spear::core::prelude::*;
use spear::core::replay;
use spear::kv::JsonlLog;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spear-it-{name}-{}", std::process::id()));
    p
}

#[test]
fn replay_reconstructs_any_version_after_a_long_evolution() {
    let store = PromptStore::new();
    store.define("p", "v1 text", "f_base", RefinementMode::Manual);
    for v in 2..=10u64 {
        store
            .refine(
                "p",
                format!("v{v} text").into(),
                RefAction::Update,
                &format!("f_{v}"),
                if v % 2 == 0 {
                    RefinementMode::Auto
                } else {
                    RefinementMode::Assisted
                },
                v,
                Some(format!("M[\"confidence\"] < 0.{v}")),
                BTreeMap::new(),
                None,
            )
            .unwrap();
    }
    let entry = store.get("p").unwrap();
    replay::verify(&entry).unwrap();
    for v in 1..=10u64 {
        let at = replay::replay_to(&entry, v).unwrap();
        assert_eq!(*at.text, format!("v{v} text"));
        assert_eq!(at.version, v);
        replay::verify(&at).unwrap();
    }
    // Forks share history up to the fork point.
    let fork = replay::fork_at(&entry, 5).unwrap();
    assert_eq!(fork.ref_log.len(), 5);
    assert!(fork.ref_log[4].note.as_deref().unwrap().contains("forked"));
}

#[test]
fn trace_roundtrips_through_jsonl_for_offline_analysis() {
    use std::sync::Arc;
    let rt = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
    let mut state = ExecState::new();
    let pipeline = Pipeline::builder("traced")
        .create_text("p", "Classify the note.", RefinementMode::Manual)
        .gen("a", "p")
        .check(Cond::low_confidence(0.99), |b| b.expand("p", "hint"))
        .gen("b", "p")
        .build();
    rt.execute(&pipeline, &mut state).unwrap();

    let jsonl = state.trace.to_jsonl().unwrap();
    let parsed = spear::core::trace::Trace::from_jsonl(&jsonl).unwrap();
    assert_eq!(parsed.events(), state.trace.events());
    assert!(jsonl.lines().count() >= 6, "start + 4 ops + nested + end");
}

#[test]
fn rollback_then_replay_is_consistent() {
    let store = PromptStore::new();
    store.define("p", "good version", "f", RefinementMode::Manual);
    store
        .refine(
            "p",
            "regressed version".into(),
            RefAction::Update,
            "f_bad",
            RefinementMode::Auto,
            2,
            None,
            BTreeMap::new(),
            None,
        )
        .unwrap();
    store.rollback("p", 1, 3).unwrap();

    let entry = store.get("p").unwrap();
    assert_eq!(&*entry.text, "good version");
    assert_eq!(entry.version, 3, "rollback appends rather than erases");
    replay::verify(&entry).unwrap();
    // The regressed state is still replayable for post-mortems.
    assert_eq!(
        &*replay::replay_to(&entry, 2).unwrap().text,
        "regressed version"
    );
}

#[test]
fn prompt_store_with_persister_survives_restart_transparently() {
    use std::sync::Arc;
    let path = temp_path("store-persister");
    let _ = std::fs::remove_file(&path);

    // Session 1: a durable PromptStore used through its normal API —
    // nothing in the pipeline code knows about durability.
    {
        let log = Arc::new(JsonlLog::open(&path).unwrap());
        let store = PromptStore::new().with_persister(log);
        store.define(
            "qa_prompt",
            "Summarize the medication history.",
            "f_base",
            RefinementMode::Manual,
        );
        store
            .refine(
                "qa_prompt",
                "Summarize the medication history.\nFocus on dosage.".into(),
                RefAction::Append,
                "f_specificity",
                RefinementMode::Manual,
                1,
                None,
                std::collections::BTreeMap::new(),
                None,
            )
            .unwrap();
        store.clone_entry("qa_prompt", "qa_fork").unwrap();
        store.define("scratch", "temp", "f", RefinementMode::Manual);
        assert!(store.remove("scratch"));
        store.sync().unwrap();
    }

    // The log's bytes are a format other sessions read: sharing texts and
    // records in memory must not show in them. Pinned from the copying
    // store this one replaced.
    let v1 = r#"{"step":0,"action":"Create","f_name":"f_base","mode":"Manual","trigger":null,"signals":{},"version":1,"text_after":"Summarize the medication history.","note":null}"#;
    let v2 = r#"{"step":1,"action":"Append","f_name":"f_specificity","mode":"Manual","trigger":null,"signals":{},"version":2,"text_after":"Summarize the medication history.\nFocus on dosage.","note":null}"#;
    let refined = format!(
        r#"{{"text":"Summarize the medication history.\nFocus on dosage.","params":{{}},"tags":[],"version":2,"ref_log":[{v1},{v2}],"origin":"Adhoc"}}"#
    );
    let expected = [
        format!(
            r#"{{"seq":1,"key":"qa_prompt","op":{{"Put":{{"text":"Summarize the medication history.","params":{{}},"tags":[],"version":1,"ref_log":[{v1}],"origin":"Adhoc"}}}}}}"#
        ),
        format!(r#"{{"seq":2,"key":"qa_prompt","op":{{"Put":{refined}}}}}"#),
        format!(r#"{{"seq":3,"key":"qa_fork","op":{{"Put":{refined}}}}}"#),
        r#"{"seq":4,"key":"scratch","op":{"Put":{"text":"temp","params":{},"tags":[],"version":1,"ref_log":[{"step":0,"action":"Create","f_name":"f","mode":"Manual","trigger":null,"signals":{},"version":1,"text_after":"temp","note":null}],"origin":"Adhoc"}}}"#.to_string(),
        r#"{"seq":5,"key":"scratch","op":"Delete"}"#.to_string(),
    ];
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written.lines().collect::<Vec<_>>(), expected);

    // Session 2: full recovery, including clones and deletes.
    let recovered = PromptStore::with_backend(JsonlLog::recover(&path).unwrap());
    let entry = recovered.get("qa_prompt").unwrap();
    assert_eq!(entry.version, 2);
    assert_eq!(entry.ref_log.len(), 2);
    assert!(recovered.contains("qa_fork"));
    assert!(!recovered.contains("scratch"));
    replay::verify(&entry).unwrap();
    // Storage-level versioning also survived: both writes are addressable.
    assert_eq!(recovered.backend().history("qa_prompt").len(), 2);
    // What was recovered serializes back to what was logged.
    assert_eq!(serde_json::to_string(&*entry).unwrap(), refined);
    let fork = recovered.get("qa_fork").unwrap();
    assert_eq!(serde_json::to_string(&*fork).unwrap(), refined);
    std::fs::remove_file(&path).unwrap();
}
