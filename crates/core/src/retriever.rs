//! The retrieval boundary used by RET.
//!
//! RET "retrieves raw input or supporting data (e.g., from documents,
//! databases, or APIs) and places it into C" (paper §3.3), and supports both
//! structured retrieval (filters) and **prompt-based retrieval**, "where the
//! retrieval intent is expressed as a natural language prompt" that can be
//! refined with REF just like generation prompts. `spear-core` defines the
//! interface plus a small in-memory implementation; `spear-retrieval`
//! provides the BM25 engine.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::error::{Result, SpearError};
use crate::value::Value;

/// How RET expresses what to fetch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum RetrievalQuery {
    /// Everything in the source (bounded by the request limit).
    #[default]
    All,
    /// Structured retrieval: field filters such as source, time window, or
    /// patient id. Semantics of each filter key are retriever-defined.
    Structured(BTreeMap<String, Value>),
    /// Prompt-based retrieval: natural-language intent, rendered from a
    /// (refinable) prompt entry in P.
    Prompt(String),
}

/// One retrieved item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrievedDoc {
    /// Source-local document id.
    pub id: String,
    /// Document text.
    pub text: String,
    /// Relevance score (higher is better; 0 for unranked retrieval).
    pub score: f64,
    /// Structured fields (tags, timestamps, note type, …).
    pub fields: BTreeMap<String, Value>,
}

impl RetrievedDoc {
    /// Convert to a context [`Value`] (a map).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("id".to_string(), Value::from(self.id.clone()));
        m.insert("text".to_string(), Value::from(self.text.clone()));
        m.insert("score".to_string(), Value::from(self.score));
        m.insert("fields".to_string(), Value::Map(self.fields.clone()));
        Value::Map(m)
    }
}

/// A retrieval request dispatched by the RET operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrievalRequest {
    /// Logical source name (e.g. `"initial_notes"`, `"order_lookup"`).
    pub source: String,
    /// The query.
    pub query: RetrievalQuery,
    /// Maximum number of documents to return.
    pub limit: usize,
}

/// A retrieval backend.
pub trait Retriever: Send + Sync {
    /// Execute a retrieval.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::Retrieval`] on backend failure.
    fn retrieve(&self, request: &RetrievalRequest) -> Result<Vec<RetrievedDoc>>;
}

/// Named registry of retrievers; RET resolves `source` names here.
#[derive(Clone, Default)]
pub struct RetrieverRegistry {
    inner: Arc<RwLock<BTreeMap<String, Arc<dyn Retriever>>>>,
}

impl RetrieverRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `retriever` under `source` (replacing any previous one).
    pub fn register(&self, source: impl Into<String>, retriever: Arc<dyn Retriever>) {
        self.inner.write().insert(source.into(), retriever);
    }

    /// Resolve a source name.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::RetrieverNotFound`] when absent.
    pub fn resolve(&self, source: &str) -> Result<Arc<dyn Retriever>> {
        self.inner
            .read()
            .get(source)
            .cloned()
            .ok_or_else(|| SpearError::RetrieverNotFound(source.to_string()))
    }

    /// Whether `source` is registered.
    #[must_use]
    pub fn contains(&self, source: &str) -> bool {
        self.inner.read().contains_key(source)
    }

    /// Registered source names, sorted.
    #[must_use]
    pub fn sources(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }
}

impl std::fmt::Debug for RetrieverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetrieverRegistry")
            .field("sources", &self.sources())
            .finish()
    }
}

/// Simple in-memory retriever over a fixed document list.
///
/// - `All` returns documents in insertion order.
/// - `Structured` keeps documents whose `fields` contain every filter key
///   with an equal value.
/// - `Prompt` scores documents by case-insensitive word overlap with the
///   prompt text (a miniature of what `spear-retrieval` does with BM25).
#[derive(Debug, Default)]
pub struct InMemoryRetriever {
    docs: Vec<RetrievedDoc>,
}

impl InMemoryRetriever {
    /// Build from documents.
    #[must_use]
    pub fn new(docs: Vec<RetrievedDoc>) -> Self {
        Self { docs }
    }

    /// Convenience: build from `(id, text)` pairs.
    #[must_use]
    pub fn from_texts<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        Self {
            docs: pairs
                .into_iter()
                .map(|(id, text)| RetrievedDoc {
                    id: id.to_string(),
                    text: text.to_string(),
                    score: 0.0,
                    fields: BTreeMap::new(),
                })
                .collect(),
        }
    }
}

impl Retriever for InMemoryRetriever {
    fn retrieve(&self, request: &RetrievalRequest) -> Result<Vec<RetrievedDoc>> {
        let mut out: Vec<RetrievedDoc> = match &request.query {
            RetrievalQuery::All => self.docs.clone(),
            RetrievalQuery::Structured(filters) => self
                .docs
                .iter()
                .filter(|d| filters.iter().all(|(k, v)| d.fields.get(k) == Some(v)))
                .cloned()
                .collect(),
            RetrievalQuery::Prompt(prompt) => {
                let query_words: Vec<String> = prompt
                    .split(|c: char| !c.is_alphanumeric())
                    .filter(|w| w.len() > 2)
                    .map(str::to_lowercase)
                    .collect();
                let mut scored: Vec<RetrievedDoc> = self
                    .docs
                    .iter()
                    .map(|d| {
                        let text = d.text.to_lowercase();
                        let score = query_words
                            .iter()
                            .filter(|w| text.contains(w.as_str()))
                            .count() as f64;
                        let mut d = d.clone();
                        d.score = score;
                        d
                    })
                    .filter(|d| d.score > 0.0)
                    .collect();
                scored.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.id.cmp(&b.id))
                });
                scored
            }
        };
        out.truncate(request.limit);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: &str, text: &str, fields: &[(&str, Value)]) -> RetrievedDoc {
        RetrievedDoc {
            id: id.to_string(),
            text: text.to_string(),
            score: 0.0,
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        }
    }

    fn corpus() -> InMemoryRetriever {
        InMemoryRetriever::new(vec![
            doc(
                "n1",
                "Patient started on enoxaparin 40 mg daily for DVT prophylaxis",
                &[("type", Value::from("discharge"))],
            ),
            doc(
                "n2",
                "CT angiogram negative for pulmonary embolism",
                &[("type", Value::from("radiology"))],
            ),
            doc(
                "n3",
                "Enoxaparin held before procedure; resumed after 24 hours",
                &[("type", Value::from("nursing"))],
            ),
        ])
    }

    #[test]
    fn retrieve_all_respects_limit() {
        let r = corpus();
        let req = RetrievalRequest {
            source: "notes".into(),
            query: RetrievalQuery::All,
            limit: 2,
        };
        assert_eq!(r.retrieve(&req).unwrap().len(), 2);
    }

    #[test]
    fn structured_filters_match_fields_exactly() {
        let r = corpus();
        let mut filters = BTreeMap::new();
        filters.insert("type".to_string(), Value::from("radiology"));
        let req = RetrievalRequest {
            source: "notes".into(),
            query: RetrievalQuery::Structured(filters),
            limit: 10,
        };
        let docs = r.retrieve(&req).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].id, "n2");
    }

    #[test]
    fn prompt_query_ranks_by_overlap() {
        let r = corpus();
        let req = RetrievalRequest {
            source: "notes".into(),
            query: RetrievalQuery::Prompt("enoxaparin dosing".into()),
            limit: 10,
        };
        let docs = r.retrieve(&req).unwrap();
        assert_eq!(docs.len(), 2, "only enoxaparin notes match");
        assert!(docs.iter().all(|d| d.score > 0.0));
        assert!(docs
            .iter()
            .all(|d| d.text.to_lowercase().contains("enoxaparin")));
    }

    #[test]
    fn registry_resolves_and_errors() {
        let reg = RetrieverRegistry::new();
        reg.register("notes", Arc::new(corpus()));
        assert!(reg.resolve("notes").is_ok());
        assert!(matches!(
            reg.resolve("other"),
            Err(SpearError::RetrieverNotFound(_))
        ));
        assert_eq!(reg.sources(), vec!["notes".to_string()]);
    }

    #[test]
    fn doc_to_value_is_structured() {
        let d = doc("n1", "text", &[("type", Value::from("discharge"))]);
        let v = d.to_value();
        assert_eq!(v.path("id").unwrap().as_str(), Some("n1"));
        assert_eq!(v.path("fields.type").unwrap().as_str(), Some("discharge"));
    }
}
