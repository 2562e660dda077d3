//! Token interner: memoized tokenization and block hashing for shared
//! prompt-segment chains.
//!
//! A [`spear_core::segment::SegmentedText`] identifies the shared prefix of
//! a prompt family by content hash. The interner maps each *segment chain*
//! (segments `0..=i`, keyed by a running fold of their content hashes) to
//! the chain's encoded tokens, its per-block hash chain, and the trailing
//! unterminated word — everything a [`crate::tokenizer::StreamingEncoder`]
//! needs to resume encoding at the chain boundary. A warm prefix is thus
//! tokenized and block-hashed **once per process, not once per request**;
//! per-request work becomes O(suffix).
//!
//! ## Why this cannot change observable behaviour
//!
//! Entries are keyed purely by segment *content* and store pure functions
//! of that content (token ids are FNV-1a of piece bytes; block hashes are
//! FNV-1a of token bytes). A hit therefore returns byte-identical data to
//! what re-encoding would produce — proven by the segmented-encoding
//! equivalence proptest — so hit/miss and eviction timing, and thread
//! interleaving, are all invisible to the engine's outputs. That is what
//! keeps every trace digest byte-identical with the interner on or off.
//!
//! Lock-striped like the prefix cache, so concurrent lanes serving
//! unrelated prompt families never contend; each stripe is one [`LruMap`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use parking_lot::Mutex;
use spear_kv::shard::{fnv1a_extend, FNV1A_OFFSET};

use crate::lru::LruMap;
use crate::tokenizer::Token;

/// Default maximum interned chains (across all shards). Chains are one per
/// distinct prompt-family prefix — a small population — so the default is
/// generous; the bound exists to survive pathological workloads that mint
/// unbounded distinct prefixes.
pub const DEFAULT_INTERN_CAPACITY: usize = 4096;

/// Default shard count (matches the prefix cache's striping).
pub const DEFAULT_INTERN_SHARDS: usize = 16;

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

/// Fold a plan's [`affinity seed`](spear_core::plan::LoweredPlan::affinity_seed)
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

/// Bounded, lock-striped map from chain key to [`InternedChain`].
#[derive(Debug)]
pub struct TokenInterner {
    shards: Vec<Mutex<LruMap<u64, InternedChain>>>,
}

impl TokenInterner {
    /// An interner holding at most `capacity` chains across `num_shards`
    /// lock stripes.
    #[must_use]
    pub fn new(capacity: usize, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let capacity_per_shard = capacity.div_ceil(num_shards);
        Self {
            shards: (0..num_shards)
                .map(|_| Mutex::new(LruMap::new(capacity_per_shard)))
                .collect(),
        }
    }

    /// Defaults sized for benchmark and serving workloads.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_INTERN_CAPACITY, DEFAULT_INTERN_SHARDS)
    }

    fn shard(&self, key: u64) -> &Mutex<LruMap<u64, InternedChain>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Look up a chain by key. A hit refreshes the entry's LRU position.
    /// The returned chain is three `Arc` clones — no data is copied.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<InternedChain> {
        self.shard(key).lock().get(&key).cloned()
    }

    /// Intern a chain. If the key is already present the existing entry is
    /// kept (entries are content-determined, so both values are identical)
    /// and only its LRU position refreshes. At capacity, the least
    /// recently used chain in the shard is evicted first.
    pub fn insert(&self, key: u64, chain: InternedChain) {
        // The victim, if any, drops after the shard unlocks.
        let _victim = self.shard(key).lock().insert(key, chain);
    }

    /// Aggregate counters across all shards.
    #[must_use]
    pub fn stats(&self) -> InternStats {
        let mut total = InternStats::default();
        for shard in &self.shards {
            let shard = shard.lock();
            let s = shard.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.insertions += s.insertions;
            total.evictions += s.evictions;
            total.resident += shard.len() as u64;
        }
        total
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
        let interner = TokenInterner::new(64, 4);
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
        let interner = TokenInterner::new(64, 1);
        interner.insert(9, chain(3, 1));
        interner.insert(9, chain(3, 1));
        let s = interner.stats();
        assert_eq!(s.insertions, 1, "idempotent");
        assert_eq!(s.resident, 1);
    }

    #[test]
    fn eviction_is_lru_within_a_shard() {
        let interner = TokenInterner::new(2, 1);
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
}
