//! # spear-llm — deterministic LLM inference simulator
//!
//! The hardware substitution of this reproduction (DESIGN.md §1): a
//! [`spear_core::LlmClient`] backend that models exactly the two quantities
//! the SPEAR paper's evaluation depends on —
//!
//! 1. **latency**, decomposed into per-request overhead, uncached prefill,
//!    cached prefill, and decode, with a vLLM-style block [`cache`]
//!    deciding which prompt tokens are cached, and
//! 2. **task quality**, via a behavioural [`task`] model whose accuracy is
//!    a per-model function of prompt structure (objectives, hints,
//!    specificity, examples, view-derived consistency) minus fusion
//!    penalties.
//!
//! Three calibrated [`profile::ModelProfile`]s stand in for the paper's
//! Qwen2.5-7B-Instruct, Mistral-7B-Instruct, and GPT-4o-mini. Everything is
//! seeded and virtual-clocked, so benchmark tables are bit-reproducible.
//!
//! ```
//! use spear_core::llm::{GenRequest, LlmClient};
//! use spear_llm::{ModelProfile, SimLlm};
//!
//! let llm = SimLlm::new(ModelProfile::qwen25_7b_instruct());
//! let resp = llm
//!     .generate(&GenRequest::structured(
//!         "Classify the sentiment of the tweet. Respond with one word.\n\
//!          Tweet: i hate this awful homework",
//!         "view:sentiment@1#0/v1",
//!     ))
//!     .unwrap();
//! assert_eq!(resp.text, "negative");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot-path hygiene: these crates sit on the per-request fast path, where a
// stray clone or to_string() is a real regression, not a style nit.
#![deny(clippy::redundant_clone, clippy::inefficient_to_string)]

pub mod cache;
pub mod clock;
pub mod engine;
pub mod intern;
mod lru;
pub mod memo;
pub mod pool;
pub mod profile;
pub mod task;
pub mod tokenizer;
mod tree;

pub use cache::{
    BlockHasher, CacheStats, PrefixCache, StripedPrefixCache, DEFAULT_BLOCK_SIZE,
    DEFAULT_NUM_SHARDS, SHARED_OWNER,
};
pub use clock::{SimClock, MAX_LANES};
pub use engine::{EngineConfig, SimLlm};
pub use intern::{
    affinity_chain_key, chain_key, InternStats, InternedChain, TokenInterner, CHAIN_SEED,
};
pub use lru::{LruMap, LruStats};
pub use memo::{GenMemo, LeadGuard, Lookup, MemoEntry, MemoStats};
pub use pool::{AllocGrant, BlockPool, PoolExhausted, PoolStats, DEFAULT_POOL_STRIPES};
pub use profile::{ModelProfile, PromptFeatures, QualityWeights, TaskKind};
pub use tokenizer::{StreamingEncoder, Token, Tokenizer};
