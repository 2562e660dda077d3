//! Property tests for the retrieval engine: BM25 results must agree with a
//! brute-force reference on membership, structured filters must behave like
//! predicate evaluation, and limits must always be respected.

use std::collections::BTreeMap;

use proptest::prelude::*;
use spear_core::retriever::{RetrievalQuery, RetrievalRequest, Retriever};
use spear_core::value::Value;
use spear_retrieval::{DocStore, Document};

fn word() -> impl Strategy<Value = String> {
    // Small vocabulary → frequent overlaps between docs and queries.
    prop_oneof![
        Just("enoxaparin".to_string()),
        Just("dose".to_string()),
        Just("daily".to_string()),
        Just("order".to_string()),
        Just("negative".to_string()),
        Just("stable".to_string()),
        Just("imaging".to_string()),
        "[a-z]{3,7}".prop_map(|s| s),
    ]
}

fn doc_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(word(), 1..12).prop_map(|w| w.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every BM25 hit contains at least one query keyword, and every
    /// document containing a keyword is a hit (when the limit allows).
    #[test]
    fn bm25_membership_matches_brute_force(
        docs in proptest::collection::vec(doc_text(), 1..15),
        query in proptest::collection::vec(word(), 1..4),
    ) {
        let mut store = DocStore::new();
        for (i, text) in docs.iter().enumerate() {
            store.add(Document::new(format!("d{i}"), text.clone(), BTreeMap::new()));
        }
        let query_text = query.join(" ");
        let keywords: Vec<&String> = query.iter().filter(|w| w.len() >= 2).collect();
        let hits = store
            .retrieve(&RetrievalRequest {
                source: "s".into(),
                query: RetrievalQuery::Prompt(query_text),
                limit: docs.len() + 1,
            })
            .unwrap();

        let expected: Vec<usize> = docs
            .iter()
            .enumerate()
            .filter(|(_, text)| {
                let words: Vec<&str> = text.split_whitespace().collect();
                keywords.iter().any(|k| words.contains(&k.as_str()))
            })
            .map(|(i, _)| i)
            .collect();
        let mut got: Vec<usize> = hits
            .iter()
            .map(|h| h.id.trim_start_matches('d').parse().unwrap())
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
        // Scores are positive and sorted descending by construction.
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    /// Structured filters behave exactly like predicate evaluation over the
    /// document fields.
    #[test]
    fn structured_filters_match_predicates(
        types in proptest::collection::vec(prop_oneof![Just("a"), Just("b"), Just("c")], 1..20),
        wanted in prop_oneof![Just("a"), Just("b"), Just("c")],
        ages in proptest::collection::vec(0u64..200, 1..20),
        max_age in 0u64..200,
    ) {
        let n = types.len().min(ages.len());
        let mut store = DocStore::new();
        for i in 0..n {
            let mut fields = BTreeMap::new();
            fields.insert("note_type".to_string(), Value::from(types[i]));
            fields.insert("age_hours".to_string(), Value::from(ages[i]));
            store.add(Document::new(format!("d{i}"), "text", fields));
        }
        let mut filters = BTreeMap::new();
        filters.insert("note_type".to_string(), Value::from(wanted));
        filters.insert("max_age_hours".to_string(), Value::from(max_age));
        let hits = store
            .retrieve(&RetrievalRequest {
                source: "s".into(),
                query: RetrievalQuery::Structured(filters),
                limit: n + 1,
            })
            .unwrap();
        let expected = (0..n)
            .filter(|&i| types[i] == wanted && ages[i] <= max_age)
            .count();
        prop_assert_eq!(hits.len(), expected);
    }

    /// Limits are respected in every query mode.
    #[test]
    fn limits_always_hold(
        docs in proptest::collection::vec(doc_text(), 0..12),
        limit in 0usize..6,
    ) {
        let mut store = DocStore::new();
        for (i, text) in docs.iter().enumerate() {
            store.add(Document::new(format!("d{i}"), text.clone(), BTreeMap::new()));
        }
        for query in [
            RetrievalQuery::All,
            RetrievalQuery::Prompt("enoxaparin dose order".into()),
            RetrievalQuery::Structured(BTreeMap::new()),
        ] {
            let hits = store
                .retrieve(&RetrievalRequest {
                    source: "s".into(),
                    query,
                    limit,
                })
                .unwrap();
            prop_assert!(hits.len() <= limit);
        }
    }
}
