//! The document store: structured + prompt-based retrieval behind the core
//! `Retriever` trait.
//!
//! RET's two query modes (paper §3.3) are both served here:
//!
//! - **structured** retrieval filters on document fields, with first-class
//!   support for the paper's examples — patient id and time windows
//!   (`RET["order_lookup", patient_id, time_window]`),
//! - **prompt-based** retrieval extracts content keywords from the rendered
//!   (and REF-refinable) retrieval prompt and ranks with BM25.

use std::collections::BTreeMap;

use spear_core::error::{Result, SpearError};
use spear_core::retriever::{RetrievalQuery, RetrievalRequest, RetrievedDoc, Retriever};
use spear_core::value::Value;

use crate::index::InvertedIndex;
use crate::text::keywords;

/// A stored document.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// External id.
    pub id: String,
    /// Document text.
    pub text: String,
    /// Structured fields (e.g. `patient_id`, `note_type`, `age_hours`).
    pub fields: BTreeMap<String, Value>,
}

impl Document {
    /// Create a document with fields.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        text: impl Into<String>,
        fields: BTreeMap<String, Value>,
    ) -> Self {
        Self {
            id: id.into(),
            text: text.into(),
            fields,
        }
    }
}

/// An indexed document store. A plain value: documents are added through
/// `&mut self` at set-up, and lanes then retrieve through a shared `&self`.
#[derive(Default)]
pub struct DocStore {
    docs: Vec<Document>,
    index: InvertedIndex,
}

impl DocStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document (indexed immediately).
    pub fn add(&mut self, doc: Document) {
        self.index.add(&doc.text);
        self.docs.push(doc);
    }

    /// Number of documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structured-filter match. Special keys:
    /// `max_age_hours` — numeric upper bound on the `age_hours` field;
    /// every other key requires exact equality with the document field.
    fn matches(doc: &Document, filters: &BTreeMap<String, Value>) -> Result<bool> {
        for (key, expected) in filters {
            if key == "max_age_hours" {
                let bound = expected.as_f64().ok_or_else(|| {
                    SpearError::Retrieval(format!("max_age_hours must be numeric, got {expected}"))
                })?;
                let age = doc
                    .fields
                    .get("age_hours")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::INFINITY);
                if age > bound {
                    return Ok(false);
                }
            } else if doc.fields.get(key) != Some(expected) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn to_retrieved(doc: &Document, score: f64) -> RetrievedDoc {
        RetrievedDoc {
            id: doc.id.clone(),
            text: doc.text.clone(),
            score,
            fields: doc.fields.clone(),
        }
    }
}

impl Retriever for DocStore {
    fn retrieve(&self, request: &RetrievalRequest) -> Result<Vec<RetrievedDoc>> {
        let mut out = match &request.query {
            RetrievalQuery::All => self
                .docs
                .iter()
                .map(|d| Self::to_retrieved(d, 0.0))
                .collect::<Vec<_>>(),
            RetrievalQuery::Structured(filters) => {
                let mut hits = Vec::new();
                for d in &self.docs {
                    if Self::matches(d, filters)? {
                        hits.push(Self::to_retrieved(d, 0.0));
                    }
                }
                hits
            }
            RetrievalQuery::Prompt(prompt) => {
                let terms = keywords(prompt);
                self.index
                    .search(&terms, request.limit)
                    .into_iter()
                    .map(|(doc_id, score)| Self::to_retrieved(&self.docs[doc_id], score))
                    .collect()
            }
        };
        out.truncate(request.limit);
        Ok(out)
    }
}

impl std::fmt::Debug for DocStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocStore")
            .field("docs", &self.len())
            .finish()
    }
}

/// Load a clinical cohort from `spear-data` into a [`DocStore`], mapping
/// note fields (`patient_id`, `note_type`, `age_hours`) to structured
/// filters.
#[must_use]
pub fn doc_store_from_notes(notes: &[spear_data::ClinicalNote]) -> DocStore {
    let mut store = DocStore::new();
    for n in notes {
        let mut fields = BTreeMap::new();
        fields.insert("patient_id".to_string(), Value::from(n.patient_id.clone()));
        fields.insert(
            "note_type".to_string(),
            Value::from(n.note_type.tag().to_string()),
        );
        fields.insert("age_hours".to_string(), Value::from(u64::from(n.age_hours)));
        store.add(Document::new(n.id.clone(), n.text.clone(), fields));
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect()
    }

    fn store() -> DocStore {
        let mut s = DocStore::new();
        s.add(Document::new(
            "n1",
            "enoxaparin 40 mg daily for dvt prophylaxis",
            fields(&[
                ("patient_id", Value::from("pt-1")),
                ("note_type", Value::from("discharge")),
                ("age_hours", Value::from(12)),
            ]),
        ));
        s.add(Document::new(
            "n2",
            "ct angiogram negative for pulmonary embolism",
            fields(&[
                ("patient_id", Value::from("pt-1")),
                ("note_type", Value::from("radiology")),
                ("age_hours", Value::from(80)),
            ]),
        ));
        s.add(Document::new(
            "n3",
            "administered enoxaparin 60 mg at 2100 per order",
            fields(&[
                ("patient_id", Value::from("pt-2")),
                ("note_type", Value::from("nursing")),
                ("age_hours", Value::from(30)),
            ]),
        ));
        s
    }

    fn req(query: RetrievalQuery, limit: usize) -> RetrievalRequest {
        RetrievalRequest {
            source: "notes".into(),
            query,
            limit,
        }
    }

    #[test]
    fn retrieve_all_in_insertion_order() {
        let s = store();
        let docs = s.retrieve(&req(RetrievalQuery::All, 10)).unwrap();
        assert_eq!(
            docs.iter().map(|d| d.id.as_str()).collect::<Vec<_>>(),
            vec!["n1", "n2", "n3"]
        );
    }

    #[test]
    fn structured_patient_and_time_window() {
        let s = store();
        // The paper's order-lookup: this patient, last 72 hours.
        let q = RetrievalQuery::Structured(fields(&[
            ("patient_id", Value::from("pt-1")),
            ("max_age_hours", Value::from(72)),
        ]));
        let docs = s.retrieve(&req(q, 10)).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].id, "n1");
    }

    #[test]
    fn structured_note_type_dispatch() {
        let s = store();
        let q = RetrievalQuery::Structured(fields(&[("note_type", Value::from("nursing"))]));
        let docs = s.retrieve(&req(q, 10)).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].id, "n3");
    }

    #[test]
    fn bad_time_window_type_is_an_error() {
        let s = store();
        let q = RetrievalQuery::Structured(fields(&[("max_age_hours", Value::from("soon"))]));
        assert!(matches!(
            s.retrieve(&req(q, 10)),
            Err(SpearError::Retrieval(_))
        ));
    }

    #[test]
    fn prompt_query_ranks_with_bm25() {
        let s = store();
        let q = RetrievalQuery::Prompt(
            "Retrieve all medication orders mentioning enoxaparin dosing".into(),
        );
        let docs = s.retrieve(&req(q, 10)).unwrap();
        assert_eq!(docs.len(), 2);
        assert!(docs.iter().all(|d| d.text.contains("enoxaparin")));
        assert!(docs[0].score >= docs[1].score);
    }

    #[test]
    fn limits_apply_to_every_mode() {
        let s = store();
        assert_eq!(s.retrieve(&req(RetrievalQuery::All, 2)).unwrap().len(), 2);
        let q = RetrievalQuery::Prompt("enoxaparin".into());
        assert_eq!(s.retrieve(&req(q, 1)).unwrap().len(), 1);
    }

    #[test]
    fn clinical_cohort_loads_with_fields() {
        let cohort = spear_data::clinical::generate(&spear_data::ClinicalConfig {
            patients: 5,
            ..spear_data::ClinicalConfig::default()
        });
        let s = doc_store_from_notes(&cohort.notes);
        assert_eq!(s.len(), 15);
        let pid = cohort.truth[0].patient_id.clone();
        let q = RetrievalQuery::Structured(fields(&[("patient_id", Value::from(pid))]));
        assert_eq!(s.retrieve(&req(q, 10)).unwrap().len(), 3);
    }
}
