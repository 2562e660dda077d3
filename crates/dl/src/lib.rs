//! # spear-dl — the SPEAR declarative language
//!
//! The developer-facing layer of the SPEAR architecture (paper §6): "SPEAR
//! provides a declarative language (SPEAR-DL) to define prompt views and
//! refinement logic. These views are parameterized, versioned, and
//! composable." Programs declare VIEWs and PIPELINEs; pipelines use the
//! core operators (RET, GEN, REF, CHECK, MERGE, DELEGATE) and the derived
//! ones (EXPAND, RETRY, DIFF, MAP, SWITCH), with the paper's condition
//! notation (`M["confidence"] < 0.7`, `"orders" NOT IN C`).
//!
//! The language is surface syntax over the one operator algebra: the
//! parser emits `spear-core` [`ViewDef`](spear_core::view::ViewDef)s and
//! [`Op`](spear_core::ops::Op)s as it reads, with no syntax tree of its
//! own, and [`compile()`] is the one way from source to a [`Compiled`]
//! program. Nesting and `RETRY … MAX` are bounded ([`MAX_DEPTH`],
//! [`MAX_RETRIES`]), so any input yields a program or a positioned
//! [`DlError`].
//!
//! ```
//! use spear_dl::compile;
//!
//! let compiled = compile(r#"
//!     VIEW qa(drug) = "Highlight any use of {{drug}}.\nNotes: {{ctx:notes}}";
//!
//!     PIPELINE demo {
//!       REF CREATE "qa_prompt" FROM VIEW qa(drug = "Enoxaparin");
//!       GEN "answer_0" USING "qa_prompt";
//!       CHECK M["confidence"] < 0.7 {
//!         REF UPDATE "qa_prompt" WITH auto_refine() MODE AUTO;
//!         GEN "answer_1" USING "qa_prompt";
//!       }
//!     }
//! "#).unwrap();
//! assert_eq!(compiled.pipelines[0].name, "demo");
//! assert_eq!(compiled.views[0].name, "qa");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod compile;
pub mod error;
pub mod lexer;
mod parser;

pub use compile::{compile, Compiled};
pub use error::{DlError, Phase, Result};
pub use parser::{MAX_DEPTH, MAX_RETRIES};
