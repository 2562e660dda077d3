//! # spear-retrieval — document store and BM25 retrieval engine
//!
//! The retrieval substrate behind SPEAR's RET operator. Implements the
//! [`spear_core::retriever::Retriever`] trait with three query modes:
//!
//! - **All** — bounded scan in insertion order,
//! - **Structured** — field-equality filters plus the paper's special
//!   cases (patient id, `max_age_hours` time windows),
//! - **Prompt** — natural-language retrieval intent: stopword-aware keyword
//!   extraction ([`text::keywords`]) ranked by BM25 ([`index`]). Because
//!   the intent prompt lives in **P**, REF can refine *what gets retrieved*
//!   at runtime (paper §2: `RET["med_context", prompt: P["retrieve_meds_72hr"]]`).
//!
//! ```
//! use std::collections::BTreeMap;
//! use spear_core::retriever::{RetrievalQuery, RetrievalRequest, Retriever};
//! use spear_retrieval::{DocStore, Document};
//!
//! let mut store = DocStore::new();
//! store.add(Document::new("n1", "enoxaparin 40 mg daily", BTreeMap::new()));
//! store.add(Document::new("n2", "vitals stable overnight", BTreeMap::new()));
//!
//! let hits = store
//!     .retrieve(&RetrievalRequest {
//!         source: "notes".into(),
//!         query: RetrievalQuery::Prompt("find enoxaparin orders".into()),
//!         limit: 5,
//!     })
//!     .unwrap();
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].id, "n1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod store;
pub mod text;

pub use index::{DocId, InvertedIndex};
pub use store::{doc_store_from_notes, DocStore, Document};
