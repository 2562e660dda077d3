//! Token interner: memoized tokenization, block hashing and task scanning
//! for shared prompt-segment chains.
//!
//! A [`spear_core::segment::SegmentedText`] identifies the shared prefix of
//! a prompt family by content hash. The interner maps each *segment chain*
//! (segments `0..=i`, keyed by a running fold of their content hashes) to
//! the chain's encoded tokens, its per-block hash chain, the trailing
//! unterminated word — everything a [`crate::tokenizer::StreamingEncoder`]
//! needs to resume encoding at the chain boundary ([`InternedChain`]) —
//! and, next to it, the task model's [`TaskScan`] state there
//! ([`ScannedChain`], what the engine interns). A warm prefix is thus
//! tokenized, block-hashed and scanned for task markers **once per
//! process, not once per request**; per-request work becomes O(suffix).
//!
//! ## Why this cannot change observable behaviour
//!
//! Entries are keyed purely by segment *content* and store pure functions
//! of that content (token ids are FNV-1a of piece bytes; block hashes are
//! FNV-1a of token bytes; the scan records marker offsets in the text). A
//! hit therefore returns byte-identical data to what re-encoding and
//! rescanning would produce — proven by the segmented-encoding
//! equivalence proptest — so hit/miss and eviction timing, and thread
//! interleaving, are all invisible to the engine's outputs. That is what
//! keeps every trace digest byte-identical with the interner on or off.
//!
//! One [`LruMap`] under one lock: every request of a prompt family probes
//! the same chain keys, so striping by key would not spread a family's
//! traffic, and no workload puts more than two lanes on one engine.

use std::sync::Arc;

use parking_lot::Mutex;
use spear_kv::shard::{fnv1a_extend, FNV1A_OFFSET};

use crate::lru::LruMap;
use crate::task::TaskScan;
use crate::tokenizer::Token;

/// Default maximum interned chains. Chains are one per distinct
/// prompt-family prefix — a small population — so the default is generous;
/// the bound exists to survive pathological workloads that mint unbounded
/// distinct prefixes.
pub const DEFAULT_INTERN_CAPACITY: usize = 4096;

/// Seed state for a segment-chain key fold.
pub const CHAIN_SEED: u64 = FNV1A_OFFSET;

/// Extend a chain key with the next segment's content hash. The key of
/// segments `0..=i` is `chain_key(...chain_key(CHAIN_SEED, h0)..., hi)` —
/// an FNV-1a fold over the segment hashes, so it depends on the full
/// ordered content of the chain and nothing else.
#[must_use]
pub fn chain_key(prev: u64, segment_hash: u64) -> u64 {
    fnv1a_extend(prev, &segment_hash.to_le_bytes())
}

/// Fold a plan's [`affinity seed`](spear_core::vm::Program::affinity_seed)
/// into the interner's chain-key space: the root chain key of the prompt
/// family that seed identifies. Cluster routing scores are further
/// [`chain_key`] folds over this value (one fold per placement salt), so
/// "the node a family is placed on" and "the interner chain a family's
/// prefix lives in" derive from the same keyed fold — a request routed by
/// this key lands where its longest memoized prefix already is.
#[must_use]
pub fn affinity_chain_key(affinity_seed: u64) -> u64 {
    chain_key(CHAIN_SEED, affinity_seed)
}

/// The memoized encoding of one segment chain.
#[derive(Debug, Clone)]
pub struct InternedChain {
    /// Tokens of the chain's *flushed* text: everything except the
    /// trailing unterminated word.
    pub tokens: Arc<[Token]>,
    /// The trailing word-in-progress at the chain boundary (the
    /// [`crate::tokenizer::StreamingEncoder`] resume state). Usually empty:
    /// template literals almost always end in whitespace or punctuation.
    pub pending: Arc<str>,
    /// Content hashes of the full cache blocks within `tokens`, in order
    /// (`tokens.len() / block_size` entries for the interner's block size).
    pub block_hashes: Arc<[u64]>,
}

/// What the engine interns per literal chain: the chain's encoding and the
/// task model's scan of its text, both resumed over the rest of the prompt
/// instead of redone for the prefix. The scan is a plain value, so copying
/// it out of a hit allocates nothing.
#[derive(Debug, Clone)]
pub struct ScannedChain {
    /// The tokenizer's and block hasher's resume state.
    pub chain: InternedChain,
    /// The task model's resume state.
    pub scan: TaskScan,
}

/// Interner activity counters (point-in-time snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct InternStats {
    /// Chain lookups that found an entry.
    pub hits: u64,
    /// Chain lookups that found nothing.
    pub misses: u64,
    /// Chains inserted.
    pub insertions: u64,
    /// Chains evicted to stay within capacity.
    pub evictions: u64,
    /// Chains currently resident.
    pub resident: u64,
}

/// Bounded map from chain key to an interned value: an [`InternedChain`]
/// by default; the engine interns [`ScannedChain`]s.
#[derive(Debug)]
pub struct TokenInterner<V = InternedChain> {
    chains: Mutex<LruMap<u64, V>>,
}

impl<V: Clone> TokenInterner<V> {
    /// An interner holding at most `capacity` chains.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            chains: Mutex::new(LruMap::new(capacity)),
        }
    }

    /// Defaults sized for benchmark and serving workloads.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_INTERN_CAPACITY)
    }

    /// Look up a chain by key. A hit refreshes the entry's LRU position.
    /// The returned value is a clone: for a chain, three `Arc` clones (and
    /// a copy of the scan) — no heap data is copied.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<V> {
        self.chains.lock().get(&key).cloned()
    }

    /// Intern a chain. If the key is already present the existing entry is
    /// kept (entries are content-determined, so both values are identical)
    /// and only its LRU position refreshes. At capacity, the least
    /// recently used chain is evicted first.
    pub fn insert(&self, key: u64, chain: V) {
        // The victim, if any, drops after the map unlocks.
        let _victim = self.chains.lock().insert(key, chain);
    }

    /// The interner's counters.
    #[must_use]
    pub fn stats(&self) -> InternStats {
        let chains = self.chains.lock();
        let s = chains.stats();
        InternStats {
            hits: s.hits,
            misses: s.misses,
            insertions: s.insertions,
            evictions: s.evictions,
            resident: chains.len() as u64,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn chain(n: usize, salt: u64) -> InternedChain {
        InternedChain {
            tokens: (0..n).map(|i| Token(i as u64 + salt)).collect(),
            pending: Arc::from(""),
            block_hashes: Arc::from(&[salt][..]),
        }
    }

    #[test]
    fn get_after_insert_returns_the_chain() {
        let interner = TokenInterner::new(64);
        let key = chain_key(CHAIN_SEED, 42);
        assert!(interner.get(key).is_none());
        interner.insert(key, chain(5, 7));
        let got = interner.get(key).expect("interned");
        assert_eq!(got.tokens.len(), 5);
        assert_eq!(got.block_hashes.as_ref(), &[7]);
        let s = interner.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.resident), (1, 1, 1, 1));
    }

    #[test]
    fn affinity_chain_key_is_the_seeded_root_fold() {
        assert_eq!(affinity_chain_key(7), chain_key(CHAIN_SEED, 7));
        assert_ne!(affinity_chain_key(7), affinity_chain_key(8));
        // Placement salts extend the family chain without colliding with it.
        assert_ne!(
            chain_key(affinity_chain_key(7), 0),
            chain_key(affinity_chain_key(7), 1)
        );
    }

    #[test]
    fn chain_keys_depend_on_order_and_content() {
        let a = chain_key(chain_key(CHAIN_SEED, 1), 2);
        let b = chain_key(chain_key(CHAIN_SEED, 2), 1);
        assert_ne!(a, b, "order matters");
        assert_eq!(a, chain_key(chain_key(CHAIN_SEED, 1), 2), "deterministic");
    }

    #[test]
    fn reinsert_keeps_the_existing_entry() {
        let interner = TokenInterner::new(64);
        interner.insert(9, chain(3, 1));
        interner.insert(9, chain(3, 1));
        let s = interner.stats();
        assert_eq!(s.insertions, 1, "idempotent");
        assert_eq!(s.resident, 1);
    }

    #[test]
    fn eviction_is_lru() {
        let interner = TokenInterner::new(2);
        interner.insert(1, chain(1, 1));
        interner.insert(2, chain(1, 2));
        let _ = interner.get(1); // refresh 1; 2 becomes LRU
        interner.insert(3, chain(1, 3));
        assert!(interner.get(1).is_some(), "refreshed entry survives");
        assert!(interner.get(2).is_none(), "LRU entry evicted");
        assert!(interner.get(3).is_some());
        let s = interner.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident, 2);
    }

    #[test]
    fn capacity_bounds_the_whole_interner() {
        let interner = TokenInterner::new(3);
        for key in 0..32 {
            interner.insert(key, chain(1, key));
        }
        let s = interner.stats();
        assert_eq!((s.resident, s.insertions, s.evictions), (3, 32, 29));
        assert!((29..32).all(|key| interner.get(key).is_some()));
    }
}
