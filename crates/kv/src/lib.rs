//! # spear-kv — versioned key-value substrate for SPEAR stores
//!
//! The SPEAR paper (§6) notes that the prompt store **P**, context **C**, and
//! metadata **M** "may be in-memory or backed by high-performance key-value
//! systems, enabling low-latency and distributed deployments". This crate is
//! that substrate for **P**: a concurrent, **versioned** key-value store —
//! one ordered map under one lock — with
//!
//! - per-key version chains (every write produces a new version; old versions
//!   remain readable until pruned) of immutable, shared values (a read is a
//!   pointer copy),
//! - ordered prefix scans, and
//! - optional durability through an append-only JSONL [`log`] with replay.
//!
//! Keys are `String`s; values are generic (`V: Clone`). The store backs
//! `spear-core`'s `PromptStore` (values are structured prompt entries) and
//! `ViewCatalog`, and the structured prompt-cache index in
//! `spear-optimizer`. The FNV-1a hash in [`shard`] is the workspace's one
//! stable hash.
//!
//! ## Example
//!
//! ```
//! use spear_kv::KvStore;
//!
//! let store: KvStore<String> = KvStore::new();
//! store.put("prompt/qa", "v1 text".to_string());
//! store.put("prompt/qa", "v2 text".to_string());
//!
//! // Reads share the stored value (`Arc<V>`); they never copy it.
//! assert_eq!(*store.get("prompt/qa").unwrap(), "v2 text");
//! // Both versions remain addressable:
//! assert_eq!(*store.get_version("prompt/qa", 1).unwrap(), "v1 text");
//! assert_eq!(*store.get_version("prompt/qa", 2).unwrap(), "v2 text");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot-path hygiene: these crates sit on the per-request fast path, where a
// stray clone or to_string() is a real regression, not a style nit.
#![deny(clippy::redundant_clone, clippy::inefficient_to_string)]

pub mod error;
pub mod log;
pub mod shard;
pub mod store;

pub use error::{KvError, Result};
pub use log::{JsonlLog, LogOp, LogRecord, Persister};
pub use store::{KvStore, VersionedValue};
