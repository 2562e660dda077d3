//! Block-based radix prefix cache, modelled on vLLM's automatic prefix
//! caching (paper refs \[9\], \[16\]).
//!
//! Token streams are grouped into fixed-size blocks; each cached block is a
//! node in a radix tree keyed by `(parent node, block content hash)`. A
//! lookup walks the tree from the root and returns how many *tokens* of the
//! request's prefix are already resident — those tokens skip (almost all of)
//! the prefill cost. Insertion adds the request's full blocks; when the
//! cache exceeds its block capacity, least-recently-used **leaf** blocks are
//! evicted, which mirrors vLLM: a block can only be freed once no longer
//! block extends it.

use std::collections::HashMap;

use parking_lot::Mutex;
use spear_kv::shard::{fnv1a_extend, FNV1A_OFFSET};

use crate::lru::LruIndex;
use crate::tokenizer::Token;

#[cfg(test)]
mod naive;

/// Incremental block hasher: push tokens one at a time; every
/// `block_size`-th token completes a block and appends its hash to the
/// output. Produces exactly the hashes [`PrefixCache`] computes internally
/// for full blocks (FNV-1a over the concatenated little-endian token
/// bytes), with no intermediate byte buffer — FNV-1a is a plain byte fold,
/// so streaming and batch hashing agree byte-for-byte. The trailing
/// partial block (if any) never emits a hash, matching the cache's rule
/// that partial blocks are not cacheable.
#[derive(Debug, Clone)]
pub struct BlockHasher {
    block_size: usize,
    state: u64,
    filled: usize,
}

impl BlockHasher {
    /// A hasher for `block_size`-token blocks.
    #[must_use]
    pub fn new(block_size: usize) -> Self {
        Self {
            block_size: block_size.max(1),
            state: FNV1A_OFFSET,
            filled: 0,
        }
    }

    /// Fold in one token; appends the completed block's hash to `out` when
    /// this token fills a block.
    pub fn push(&mut self, token: Token, out: &mut Vec<u64>) {
        self.state = fnv1a_extend(self.state, &token.0.to_le_bytes());
        self.filled += 1;
        if self.filled == self.block_size {
            out.push(self.state);
            self.state = FNV1A_OFFSET;
            self.filled = 0;
        }
    }

    /// Tokens folded into the current (incomplete) block.
    #[must_use]
    pub fn pending_tokens(&self) -> usize {
        self.filled
    }
}

/// Default tokens per block (vLLM's default).
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// Default shard count for [`StripedPrefixCache`].
pub const DEFAULT_NUM_SHARDS: usize = 16;

/// Owner tag for blocks visible to every pipeline instance (pre-warmed
/// prefixes and all ambient single-threaded inserts).
pub const SHARED_OWNER: u64 = 0;

/// Prefix-cache hit/miss/eviction counters.
///
/// Public and cloneable (`Copy`, serializable) so observers outside the
/// engine — the serving layer's scheduler, benchmark reports — can
/// snapshot them, diff snapshots ([`CacheStats::delta_since`]), and
/// attribute hit rates to scheduling decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Number of lookups performed.
    pub lookups: u64,
    /// Total tokens across all lookups.
    pub lookup_tokens: u64,
    /// Tokens served from cache across all lookups.
    pub hit_tokens: u64,
    /// Blocks inserted.
    pub inserted_blocks: u64,
    /// Blocks evicted.
    pub evicted_blocks: u64,
    /// Blocks dropped by explicit [`PrefixCache::clear`] calls, as opposed
    /// to capacity eviction. Defaults to 0 when deserializing reports
    /// written before this counter existed.
    #[serde(default)]
    pub freed_blocks: u64,
}

impl CacheStats {
    /// Overall token hit rate in `[0, 1]`; `None` before any lookup tokens.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        if self.lookup_tokens == 0 {
            None
        } else {
            Some(self.hit_tokens as f64 / self.lookup_tokens as f64)
        }
    }

    /// Tokens that missed the cache across all lookups (the prefill the
    /// engine actually had to pay for).
    #[must_use]
    pub fn miss_tokens(&self) -> u64 {
        self.lookup_tokens - self.hit_tokens
    }

    /// Counter-wise difference `self - earlier` — the activity between two
    /// snapshots of the same cache. All counters are monotonic, so the
    /// delta of a later snapshot against an earlier one is itself a valid
    /// `CacheStats` (saturating, in case snapshots are misordered).
    #[must_use]
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            lookup_tokens: self.lookup_tokens.saturating_sub(earlier.lookup_tokens),
            hit_tokens: self.hit_tokens.saturating_sub(earlier.hit_tokens),
            inserted_blocks: self.inserted_blocks.saturating_sub(earlier.inserted_blocks),
            evicted_blocks: self.evicted_blocks.saturating_sub(earlier.evicted_blocks),
            freed_blocks: self.freed_blocks.saturating_sub(earlier.freed_blocks),
        }
    }

    /// Resident blocks implied by the counters alone. For any cache all of
    /// whose removals flow through eviction or `clear`, this equals the
    /// actual [`PrefixCache::len_blocks`] — the reconciliation invariant
    /// the cross-stripe stats test pins.
    #[must_use]
    pub fn implied_live_blocks(&self) -> u64 {
        self.inserted_blocks
            .saturating_sub(self.evicted_blocks)
            .saturating_sub(self.freed_blocks)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    parent: u64,
    block_hash: u64,
    /// Which pipeline instance inserted the block ([`SHARED_OWNER`] for
    /// ambient/warm inserts). Part of the index key: a block inserted by
    /// owner A is invisible to owner B, which is what makes per-pipeline
    /// hit counts independent of concurrent interleaving.
    owner: u64,
    children: u32,
    last_used: u64,
}

/// The prefix cache. Not internally synchronized — the engine wraps it in a
/// mutex (one cache per simulated GPU).
#[derive(Debug)]
pub struct PrefixCache {
    block_size: usize,
    capacity_blocks: usize,
    /// `(parent id, block hash, owner) -> node id`
    index: HashMap<(u64, u64, u64), u64>,
    nodes: HashMap<u64, Node>,
    /// The childless blocks — the only evictable ones — in LRU order. Kept
    /// current wherever `children` or a leaf's `last_used` change, except
    /// that the chain being inserted stays out until its insert ends (see
    /// [`Self::evict_to_fit`]).
    leaves: LruIndex,
    next_id: u64,
    tick: u64,
    stats: CacheStats,
}

/// Root sentinel (not stored in `nodes`).
const ROOT: u64 = 0;

impl PrefixCache {
    /// Create a cache holding at most `capacity_blocks` blocks of
    /// `block_size` tokens.
    #[must_use]
    pub fn new(block_size: usize, capacity_blocks: usize) -> Self {
        Self {
            block_size: block_size.max(1),
            capacity_blocks: capacity_blocks.max(1),
            index: HashMap::new(),
            nodes: HashMap::new(),
            leaves: LruIndex::default(),
            next_id: 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// A cache with vLLM-like defaults (16-token blocks, 64Ki blocks ≈ 1M
    /// tokens — far more than any benchmark working set, so eviction only
    /// matters when configured smaller).
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_BLOCK_SIZE, 64 * 1024)
    }

    /// FNV-1a over the block's concatenated little-endian token bytes,
    /// folded incrementally (no byte-buffer allocation).
    fn hash_block(block: &[Token]) -> u64 {
        let mut h = FNV1A_OFFSET;
        for t in block {
            h = fnv1a_extend(h, &t.0.to_le_bytes());
        }
        h
    }

    /// Find the node for `block` under `parent` that `owner` is allowed to
    /// see: shared blocks match everyone; owned blocks match only their
    /// owner. Shared wins when both exist (its presence cannot depend on
    /// what concurrent pipelines did).
    fn visible(&self, parent: u64, hash: u64, owner: u64) -> Option<u64> {
        if let Some(&id) = self.index.get(&(parent, hash, SHARED_OWNER)) {
            return Some(id);
        }
        if owner != SHARED_OWNER {
            if let Some(&id) = self.index.get(&(parent, hash, owner)) {
                return Some(id);
            }
        }
        None
    }

    /// How many tokens of `tokens`' prefix are cached (ambient owner).
    /// Touches the matched path (LRU refresh).
    pub fn lookup(&mut self, tokens: &[Token]) -> usize {
        self.lookup_for(tokens, SHARED_OWNER)
    }

    /// How many tokens of `tokens`' prefix are cached *as seen by
    /// `owner`*: shared blocks plus the owner's private blocks. Touches
    /// the matched path (LRU refresh).
    pub fn lookup_for(&mut self, tokens: &[Token], owner: u64) -> usize {
        let bs = self.block_size;
        self.lookup_hashes(
            tokens.chunks_exact(bs).map(Self::hash_block),
            tokens.len(),
            owner,
        )
    }

    /// Hashed-path lookup: `block_hashes` are the stream's full-block
    /// content hashes in order (exactly what [`BlockHasher`] emits for the
    /// token stream) and `total_tokens` is the stream's total token count
    /// (full blocks plus the trailing partial block), used for stats.
    /// Behaves identically to [`Self::lookup_for`] on the corresponding
    /// tokens — the token path hashes each block on the fly; this path
    /// reuses hashes the caller already has.
    pub fn lookup_for_hashed(
        &mut self,
        block_hashes: &[u64],
        total_tokens: usize,
        owner: u64,
    ) -> usize {
        debug_assert!(block_hashes.len() * self.block_size <= total_tokens);
        self.lookup_hashes(block_hashes.iter().copied(), total_tokens, owner)
    }

    fn lookup_hashes(
        &mut self,
        hashes: impl Iterator<Item = u64>,
        total_tokens: usize,
        owner: u64,
    ) -> usize {
        self.tick += 1;
        self.stats.lookups += 1;
        self.stats.lookup_tokens += total_tokens as u64;
        let mut parent = ROOT;
        let mut matched_blocks = 0usize;
        for hash in hashes {
            match self.visible(parent, hash, owner) {
                Some(id) => {
                    if let Some(node) = self.nodes.get_mut(&id) {
                        let before = std::mem::replace(&mut node.last_used, self.tick);
                        if node.children == 0 {
                            self.leaves.touch(id, before, self.tick);
                        }
                    }
                    parent = id;
                    matched_blocks += 1;
                }
                None => break,
            }
        }
        let hit = matched_blocks * self.block_size;
        self.stats.hit_tokens += hit as u64;
        hit
    }

    /// Register `tokens`' full blocks in the cache with the ambient
    /// (shared) owner — the trailing partial block is never cached, as in
    /// vLLM.
    pub fn insert(&mut self, tokens: &[Token]) {
        self.insert_for(tokens, SHARED_OWNER);
    }

    /// Register `tokens`' full blocks on behalf of `owner`. Blocks already
    /// visible to the owner (shared, or previously inserted by it) are
    /// reused; new blocks are tagged with the owner and stay invisible to
    /// every other owner.
    pub fn insert_for(&mut self, tokens: &[Token], owner: u64) {
        let bs = self.block_size;
        self.insert_hashes(tokens.chunks_exact(bs).map(Self::hash_block), owner);
    }

    /// Hashed-path insert: register the blocks whose content hashes are
    /// `block_hashes` (see [`Self::lookup_for_hashed`] for the contract).
    pub fn insert_for_hashed(&mut self, block_hashes: &[u64], owner: u64) {
        self.insert_hashes(block_hashes.iter().copied(), owner);
    }

    fn insert_hashes(&mut self, hashes: impl Iterator<Item = u64>, owner: u64) {
        self.tick += 1;
        let mut parent = ROOT;
        for hash in hashes {
            let id = match self.visible(parent, hash, owner) {
                Some(id) => {
                    if let Some(node) = self.nodes.get_mut(&id) {
                        let before = std::mem::replace(&mut node.last_used, self.tick);
                        if node.children == 0 {
                            self.leaves.remove(before, id);
                        }
                    }
                    id
                }
                None => {
                    self.evict_to_fit();
                    if self.nodes.len() >= self.capacity_blocks {
                        // Nothing evictable (every resident block is on the
                        // chain being inserted right now). Inserting anyway
                        // would either breach capacity or — worse, the old
                        // behaviour — evict this chain's own freshly
                        // inserted ancestor, leaving an unreachable child
                        // whose eviction could never be accounted. Stop
                        // here; the remaining suffix is simply not cached.
                        break;
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    self.index.insert((parent, hash, owner), id);
                    self.nodes.insert(
                        id,
                        Node {
                            parent,
                            block_hash: hash,
                            owner,
                            children: 0,
                            last_used: self.tick,
                        },
                    );
                    if parent != ROOT {
                        if let Some(p) = self.nodes.get_mut(&parent) {
                            p.children += 1;
                        }
                    }
                    self.stats.inserted_blocks += 1;
                    id
                }
            };
            parent = id;
        }
        // Every block of the chain but its last now has a child.
        if self.nodes.get(&parent).is_some_and(|n| n.children == 0) {
            self.leaves.insert(self.tick, parent);
        }
    }

    /// Evict LRU leaves until there is room for one more block, taking
    /// each victim from the leaf index in O(log n) (ties on `last_used`
    /// go to the smaller id).
    ///
    /// Blocks touched at the current tick are exempt: they are the chain
    /// being inserted or refreshed *right now*, and evicting one of them
    /// would orphan its not-yet-inserted children (the accounting drift the
    /// cross-stripe reconciliation test guards against). They are exempt
    /// by absence: `insert_hashes` takes the chain's blocks out of the
    /// index as it reaches them and puts the last one back when it ends,
    /// and a block of the chain left childless here stays out likewise.
    fn evict_to_fit(&mut self) {
        while self.nodes.len() >= self.capacity_blocks {
            let Some(id) = self.leaves.pop_lru() else {
                return; // nothing evictable: every block is on the live chain
            };
            let Some(node) = self.nodes.remove(&id) else {
                continue;
            };
            self.index
                .remove(&(node.parent, node.block_hash, node.owner));
            if let Some(p) = self.nodes.get_mut(&node.parent) {
                p.children = p.children.saturating_sub(1);
                if p.children == 0 && p.last_used != self.tick {
                    self.leaves.insert(p.last_used, node.parent);
                }
            }
            self.stats.evicted_blocks += 1;
        }
    }

    /// Current number of resident blocks.
    #[must_use]
    pub fn len_blocks(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Block size in tokens.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all blocks. Statistics are retained, and the dropped blocks
    /// are counted as [`CacheStats::freed_blocks`] so the reconciliation
    /// invariant `inserted − evicted − freed == live` survives a clear.
    pub fn clear(&mut self) {
        self.stats.freed_blocks += self.nodes.len() as u64;
        self.index.clear();
        self.nodes.clear();
        self.leaves.clear();
    }
}

/// A lock-striped prefix cache: the radix tree is sharded by the hash of a
/// stream's **first block**, each shard behind its own mutex, so
/// concurrent GEN calls touching unrelated prompt families never contend
/// on one global lock.
///
/// Sharding by first-block hash is correctness-preserving: block `k`'s
/// radix key chains from block 0 via parent ids, so any two token streams
/// that share even a one-block prefix hash to the same shard, and every
/// radix path lives entirely within one shard. Streams shorter than one
/// block have nothing cacheable and route to shard 0 (their lookups still
/// count toward stats).
///
/// ## Determinism contract
///
/// Combined with owner tagging ([`PrefixCache::lookup_for`] /
/// [`PrefixCache::insert_for`]): as long as (a) shared blocks are only
/// inserted while no owned work is in flight (warm-up), and (b) each
/// owner's requests execute in program order, the hit count every request
/// observes is a pure function of the warm set and that owner's own
/// history — independent of thread count and interleaving. Eviction is
/// the one escape hatch: a cache under capacity pressure evicts in
/// LRU-touch order, which *is* interleaving-dependent, so deterministic
/// runs should size `capacity_blocks` above the working set (the default
/// is ~1M tokens per shard).
#[derive(Debug)]
pub struct StripedPrefixCache {
    shards: Vec<Mutex<PrefixCache>>,
    block_size: usize,
}

impl StripedPrefixCache {
    /// A striped cache of `num_shards` shards, each holding up to
    /// `capacity_blocks / num_shards` blocks (rounded up, minimum 1).
    #[must_use]
    pub fn new(block_size: usize, capacity_blocks: usize, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let per_shard = capacity_blocks.div_ceil(num_shards).max(1);
        Self {
            shards: (0..num_shards)
                .map(|_| Mutex::new(PrefixCache::new(block_size, per_shard)))
                .collect(),
            block_size: block_size.max(1),
        }
    }

    /// Striped cache with vLLM-like defaults and [`DEFAULT_NUM_SHARDS`].
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(
            DEFAULT_BLOCK_SIZE,
            DEFAULT_NUM_SHARDS * 64 * 1024,
            DEFAULT_NUM_SHARDS,
        )
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, tokens: &[Token]) -> &Mutex<PrefixCache> {
        let head = &tokens[..self.block_size.min(tokens.len())];
        let index = if head.is_empty() {
            0
        } else {
            (PrefixCache::hash_block(head) % self.shards.len() as u64) as usize
        };
        &self.shards[index]
    }

    /// Atomic lookup-then-insert on behalf of `owner` under a single
    /// shard lock — the engine's per-request fast path.
    pub fn lookup_insert(&self, tokens: &[Token], owner: u64) -> usize {
        let mut shard = self.shard_for(tokens).lock();
        let hit = shard.lookup_for(tokens, owner);
        shard.insert_for(tokens, owner);
        hit
    }

    /// Hashed-path variant of [`Self::lookup_insert`]: the caller supplies
    /// the stream's full-block content hashes (from [`BlockHasher`], or a
    /// memoized hash chain) plus the total token count, so the radix walk
    /// re-hashes nothing. Routing agrees with the token path: block 0's
    /// content hash *is* `block_hashes[0]`, so a hashed stream lands on
    /// the same shard — and therefore the same radix tree — as the
    /// equivalent token stream. Streams with no full block have nothing
    /// cacheable and route to shard 0.
    pub fn lookup_insert_hashed(
        &self,
        block_hashes: &[u64],
        total_tokens: usize,
        owner: u64,
    ) -> usize {
        let index = match block_hashes.first() {
            Some(&h) => (h % self.shards.len() as u64) as usize,
            None => 0,
        };
        let mut shard = self.shards[index].lock();
        let hit = shard.lookup_for_hashed(block_hashes, total_tokens, owner);
        shard.insert_for_hashed(block_hashes, owner);
        hit
    }

    /// Owner-aware lookup (see [`PrefixCache::lookup_for`]).
    pub fn lookup_for(&self, tokens: &[Token], owner: u64) -> usize {
        self.shard_for(tokens).lock().lookup_for(tokens, owner)
    }

    /// Owner-aware insert (see [`PrefixCache::insert_for`]).
    pub fn insert_for(&self, tokens: &[Token], owner: u64) {
        self.shard_for(tokens).lock().insert_for(tokens, owner);
    }

    /// Insert `tokens` as shared/pre-warmed blocks, visible to every
    /// owner.
    pub fn warm(&self, tokens: &[Token]) {
        self.insert_for(tokens, SHARED_OWNER);
    }

    /// Aggregate statistics across all shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats();
            total.lookups += s.lookups;
            total.lookup_tokens += s.lookup_tokens;
            total.hit_tokens += s.hit_tokens;
            total.inserted_blocks += s.inserted_blocks;
            total.evicted_blocks += s.evicted_blocks;
            total.freed_blocks += s.freed_blocks;
        }
        total
    }

    /// Total resident blocks across shards.
    #[must_use]
    pub fn len_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len_blocks()).sum()
    }

    /// Drop all blocks in every shard (statistics are retained).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::Tokenizer;

    fn toks(n: usize, salt: u64) -> Vec<Token> {
        (0..n).map(|i| Token(i as u64 * 7919 + salt)).collect()
    }

    #[test]
    fn cold_lookup_misses_then_hits_after_insert() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(16, 0);
        assert_eq!(c.lookup(&t), 0);
        c.insert(&t);
        assert_eq!(c.lookup(&t), 16);
        assert_eq!(c.len_blocks(), 4);
    }

    #[test]
    fn partial_trailing_block_is_not_cached() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(10, 0); // 2 full blocks + 2 tokens
        c.insert(&t);
        assert_eq!(c.lookup(&t), 8);
        assert_eq!(c.len_blocks(), 2);
    }

    #[test]
    fn shared_prefix_divergent_suffix() {
        let mut c = PrefixCache::new(4, 1024);
        let mut a = toks(12, 0);
        let mut b = a.clone();
        a.extend(toks(8, 100));
        b.extend(toks(8, 200));
        c.insert(&a);
        // b shares the first 12 tokens = 3 full blocks.
        assert_eq!(c.lookup(&b), 12);
        c.insert(&b);
        assert_eq!(c.lookup(&b), 20);
        // a is still fully resident.
        assert_eq!(c.lookup(&a), 20);
    }

    #[test]
    fn block_boundary_alignment_matters() {
        // Prefix sharing is block-granular: a one-token shift breaks reuse.
        let mut c = PrefixCache::new(4, 1024);
        let a = toks(16, 0);
        c.insert(&a);
        let mut shifted = vec![Token(999)];
        shifted.extend_from_slice(&a[..15]);
        assert_eq!(c.lookup(&shifted), 0);
    }

    #[test]
    fn eviction_is_lru_and_leaf_first() {
        // Capacity 4 blocks; insert two independent 2-block streams, then a
        // third: the least recently used stream's blocks go first.
        let mut c = PrefixCache::new(4, 4);
        let a = toks(8, 1);
        let b = toks(8, 2);
        c.insert(&a);
        c.insert(&b);
        assert_eq!(c.lookup(&a), 8, "refresh a; b becomes LRU");
        let d = toks(8, 3);
        c.insert(&d);
        assert_eq!(c.lookup(&b), 0, "b was evicted");
        assert_eq!(c.lookup(&a), 8, "a survived");
        assert!(c.stats().evicted_blocks >= 2);
        assert!(c.len_blocks() <= 4);
    }

    #[test]
    fn stats_accumulate_and_hit_rate() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(8, 0);
        c.lookup(&t);
        c.insert(&t);
        c.lookup(&t);
        let s = c.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.lookup_tokens, 16);
        assert_eq!(s.hit_tokens, 8);
        assert!((s.hit_rate().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clear_drops_blocks() {
        let mut c = PrefixCache::new(4, 1024);
        c.insert(&toks(8, 0));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.lookup(&toks(8, 0)), 0);
    }

    #[test]
    fn real_tokenizer_prompts_share_instruction_prefix() {
        let tok = Tokenizer::new();
        let mut c = PrefixCache::with_defaults();
        let instruction = "Classify the sentiment of the following tweet as \
             positive or negative. Respond with exactly one word. Keep your \
             reasoning implicit and do not exceed the word limit of one. "
            .repeat(4);
        let a = tok.encode(&format!("{instruction}Tweet: what a beautiful morning"));
        let b = tok.encode(&format!("{instruction}Tweet: worst commute ever"));
        c.insert(&a);
        let hit = c.lookup(&b);
        let instr_tokens = tok.count(&instruction);
        assert!(
            hit >= instr_tokens - DEFAULT_BLOCK_SIZE,
            "hit {hit} should cover nearly the whole {instr_tokens}-token instruction"
        );
    }

    #[test]
    fn owned_blocks_are_invisible_to_other_owners() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(16, 0);
        c.insert_for(&t, 1);
        assert_eq!(c.lookup_for(&t, 1), 16, "owner sees its own blocks");
        assert_eq!(c.lookup_for(&t, 2), 0, "another owner does not");
        assert_eq!(c.lookup(&t), 0, "nor does ambient work");
    }

    #[test]
    fn shared_blocks_are_visible_to_every_owner() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(16, 0);
        c.insert(&t); // ambient == shared
        for owner in [SHARED_OWNER, 1, 2, 99] {
            assert_eq!(c.lookup_for(&t, owner), 16);
        }
    }

    #[test]
    fn owner_chains_extend_shared_prefixes() {
        let mut c = PrefixCache::new(4, 1024);
        let shared = toks(8, 0);
        c.insert(&shared);
        let mut extended = shared.clone();
        extended.extend(toks(8, 50));
        c.insert_for(&extended, 1);
        assert_eq!(c.lookup_for(&extended, 1), 16);
        assert_eq!(
            c.lookup_for(&extended, 2),
            8,
            "other owners still see only the shared prefix"
        );
    }

    #[test]
    fn per_owner_hits_are_interleaving_independent() {
        // Two owners inserting the same stream: each sees exactly its own
        // history regardless of the order their inserts interleave.
        let t = toks(16, 7);
        let mut ab = PrefixCache::new(4, 1024);
        ab.insert_for(&t, 1);
        ab.insert_for(&t, 2);
        let mut ba = PrefixCache::new(4, 1024);
        ba.insert_for(&t, 2);
        ba.insert_for(&t, 1);
        for c in [&mut ab, &mut ba] {
            assert_eq!(c.lookup_for(&t, 1), 16);
            assert_eq!(c.lookup_for(&t, 2), 16);
        }
    }

    #[test]
    fn striped_cache_routes_shared_prefixes_to_one_shard() {
        let c = StripedPrefixCache::new(4, 4096, 8);
        let mut a = toks(12, 0);
        let mut b = a.clone();
        a.extend(toks(8, 100));
        b.extend(toks(8, 200));
        c.insert_for(&a, SHARED_OWNER);
        // b shares a's first 3 blocks; a cross-shard split would lose them.
        assert_eq!(c.lookup_for(&b, SHARED_OWNER), 12);
        let s = c.stats();
        assert_eq!(s.lookups, 1);
        assert_eq!(s.hit_tokens, 12);
    }

    #[test]
    fn striped_lookup_insert_is_one_round_trip() {
        let c = StripedPrefixCache::new(4, 4096, 8);
        let t = toks(16, 3);
        assert_eq!(c.lookup_insert(&t, 5), 0);
        assert_eq!(c.lookup_insert(&t, 5), 16);
        assert_eq!(c.lookup_insert(&t, 6), 0, "other owner still cold");
        c.clear();
        assert_eq!(c.len_blocks(), 0);
        assert_eq!(c.lookup_insert(&t, 5), 0);
    }

    #[test]
    fn striped_warm_is_shared() {
        let c = StripedPrefixCache::with_defaults();
        let tok = Tokenizer::new();
        let prefix = tok.encode(&"shared instruction text ".repeat(20));
        c.warm(&prefix);
        assert!(c.lookup_for(&prefix, 1) > 0);
        assert!(c.lookup_for(&prefix, 2) > 0);
        assert_eq!(c.shard_count(), DEFAULT_NUM_SHARDS);
    }

    #[test]
    fn striped_short_streams_route_to_shard_zero() {
        let c = StripedPrefixCache::new(16, 4096, 8);
        let t = toks(3, 0); // shorter than a block: nothing cacheable
        assert_eq!(c.lookup_insert(&t, 1), 0);
        assert_eq!(c.len_blocks(), 0);
        assert_eq!(c.stats().lookups, 1);
    }

    /// Full-block hashes of a token stream, via the public incremental
    /// hasher.
    fn block_hashes(tokens: &[Token], block_size: usize) -> Vec<u64> {
        let mut hasher = BlockHasher::new(block_size);
        let mut out = Vec::new();
        for &t in tokens {
            hasher.push(t, &mut out);
        }
        out
    }

    #[test]
    fn block_hasher_matches_internal_block_hashing() {
        let t = toks(19, 5); // 4 full blocks of 4 + partial
        let hashes = block_hashes(&t, 4);
        assert_eq!(hashes.len(), 4);
        for (i, chunk) in t.chunks_exact(4).enumerate() {
            assert_eq!(hashes[i], PrefixCache::hash_block(chunk), "block {i}");
        }
        let mut h = BlockHasher::new(4);
        let mut out = Vec::new();
        h.push(Token(1), &mut out);
        assert_eq!(h.pending_tokens(), 1);
        assert!(out.is_empty(), "partial blocks never emit a hash");
    }

    #[test]
    fn hashed_path_interoperates_with_token_path() {
        // Insert via the token path, look up via the hashed path (and the
        // reverse): both views of the same stream must agree exactly.
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(18, 0); // 4 full blocks + 2 trailing tokens
        let hashes = block_hashes(&t, 4);
        assert_eq!(c.lookup_for_hashed(&hashes, t.len(), 1), 0);
        c.insert_for(&t, 1);
        assert_eq!(c.lookup_for_hashed(&hashes, t.len(), 1), 16);
        assert_eq!(c.lookup_for(&t, 1), 16);

        let u = toks(12, 9);
        let u_hashes = block_hashes(&u, 4);
        c.insert_for_hashed(&u_hashes, 2);
        assert_eq!(c.lookup_for(&u, 2), 12);

        // Stats treat both paths identically.
        let s = c.stats();
        assert_eq!(s.lookups, 4);
        assert_eq!(s.lookup_tokens, 18 + 18 + 18 + 12);
        assert_eq!(s.hit_tokens, 16 + 16 + 12);
    }

    #[test]
    fn striped_hashed_path_routes_to_the_token_path_shard() {
        let c = StripedPrefixCache::new(4, 4096, 8);
        let t = toks(16, 3);
        let hashes = block_hashes(&t, 4);
        // Token-path insert, hashed-path lookup_insert: a cross-shard
        // split would miss.
        c.insert_for(&t, 5);
        assert_eq!(c.lookup_insert_hashed(&hashes, t.len(), 5), 16);
        // And the reverse: hashed insert is visible to token lookups.
        let u = toks(16, 11);
        let u_hashes = block_hashes(&u, 4);
        assert_eq!(c.lookup_insert_hashed(&u_hashes, u.len(), 7), 0);
        assert_eq!(c.lookup_for(&u, 7), 16);
        // No full block: nothing cacheable, stats still tick.
        let lookups_before = c.stats().lookups;
        assert_eq!(c.lookup_insert_hashed(&[], 3, 7), 0);
        assert_eq!(c.stats().lookups, lookups_before + 1);
    }

    #[test]
    fn counters_match_a_hand_computed_trace() {
        // Walk a scripted lookup/insert/evict sequence and check every
        // counter against values computed by hand. Block size 4, capacity
        // 3 blocks.
        let mut c = PrefixCache::new(4, 3);
        let a = toks(8, 1); // 2 full blocks
        let b = toks(8, 2); // 2 full blocks, disjoint from a

        // (1) cold lookup of a: 1 lookup, 8 tokens, 0 hit.
        assert_eq!(c.lookup(&a), 0);
        // (2) insert a: +2 blocks, no eviction (2 ≤ 3).
        c.insert(&a);
        // (3) warm lookup of a: 8/8 tokens hit.
        assert_eq!(c.lookup(&a), 8);
        // (4) insert b: b's first block fits (2 -> 3 resident), b's second
        //     block hits capacity, so the LRU *leaf* — a's tail block — is
        //     evicted. a's root block has a child at eviction time and
        //     stays. Net: +2 inserted, +1 evicted.
        c.insert(&b);
        // (5) lookup b: fully resident, 8/8 hit.
        assert_eq!(c.lookup(&b), 8);

        let s = c.stats();
        assert_eq!(s.lookups, 3, "steps 1, 3, 5");
        assert_eq!(s.lookup_tokens, 24, "3 lookups x 8 tokens");
        assert_eq!(s.hit_tokens, 16, "steps 3 and 5");
        assert_eq!(s.miss_tokens(), 8, "only the cold lookup missed");
        assert_eq!(s.inserted_blocks, 4, "2 for a + 2 for b");
        assert_eq!(s.evicted_blocks, 1, "a's leaf displaced by b's tail");
        assert!((s.hit_rate().unwrap() - 16.0 / 24.0).abs() < 1e-12);
        assert_eq!(c.len_blocks(), 3, "b's two blocks + a's orphaned root");
    }

    #[test]
    fn delta_since_isolates_activity_between_snapshots() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(8, 0);
        c.lookup(&t);
        c.insert(&t);
        let before = c.stats();
        c.lookup(&t);
        c.lookup(&t);
        let delta = c.stats().delta_since(&before);
        assert_eq!(delta.lookups, 2);
        assert_eq!(delta.lookup_tokens, 16);
        assert_eq!(delta.hit_tokens, 16);
        assert_eq!(delta.inserted_blocks, 0);
        assert_eq!(delta.miss_tokens(), 0);
        // Misordered snapshots saturate instead of wrapping.
        assert_eq!(before.delta_since(&c.stats()).lookups, 0);
    }

    #[test]
    fn stats_serialize_for_reports() {
        let mut c = PrefixCache::new(4, 1024);
        c.insert(&toks(8, 0));
        c.lookup(&toks(8, 0));
        let s = c.stats();
        let json = serde_json::to_string(&s).unwrap();
        let back: CacheStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(16, 0);
        c.insert(&t);
        let blocks = c.len_blocks();
        let inserted = c.stats().inserted_blocks;
        c.insert(&t);
        assert_eq!(c.len_blocks(), blocks);
        assert_eq!(c.stats().inserted_blocks, inserted);
    }

    #[test]
    fn tight_capacity_never_orphans_the_live_chain() {
        // Regression: with capacity 1 and a 2-block stream, the old
        // evict_to_fit would evict the chain's own just-inserted first
        // block to make room for the second, leaving an unreachable child
        // (its parent id dangling) that inflated len_blocks() forever and
        // broke counter reconciliation. Now the live chain is exempt and
        // the uncacheable suffix is skipped.
        let mut c = PrefixCache::new(4, 1);
        c.insert(&toks(8, 0));
        assert_eq!(c.len_blocks(), 1, "capacity is a hard bound");
        assert_eq!(c.lookup(&toks(8, 0)), 4, "the resident block is reachable");
        let s = c.stats();
        assert_eq!(s.inserted_blocks, 1, "the skipped suffix is not counted");
        assert_eq!(s.evicted_blocks, 0);
        assert_eq!(s.implied_live_blocks(), c.len_blocks() as u64);
        // A fresh stream still rotates the resident block via real LRU
        // eviction, with the eviction counted.
        c.insert(&toks(8, 1));
        assert_eq!(c.len_blocks(), 1);
        let s = c.stats();
        assert_eq!((s.inserted_blocks, s.evicted_blocks), (2, 1));
        assert_eq!(s.implied_live_blocks(), c.len_blocks() as u64);
    }

    #[test]
    fn clear_counts_freed_blocks_for_reconciliation() {
        let mut c = PrefixCache::new(4, 1024);
        c.insert(&toks(16, 0));
        assert_eq!(c.len_blocks(), 4);
        c.clear();
        let s = c.stats();
        assert_eq!(s.freed_blocks, 4);
        assert_eq!(s.implied_live_blocks(), 0);
        // delta_since saturates over the new counter like the others.
        let later = c.stats();
        assert_eq!(later.delta_since(&s).freed_blocks, 0);
        assert_eq!(s.delta_since(&later).freed_blocks, 0);
    }

    #[test]
    fn cross_stripe_stats_reconcile_under_churn() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Many owners, many families, a deliberately tiny per-shard
        // capacity, interleaved inserts/lookups/clears across every
        // stripe: the aggregated counters must reconcile with the actual
        // resident block count at every step.
        let c = StripedPrefixCache::new(4, 64, 8);
        let mut rng = SmallRng::seed_from_u64(0xC1D2);
        for step in 0..400 {
            let fam = rng.gen_range(0..24u64);
            let len = rng.gen_range(1..40usize) * 4;
            let owner = rng.gen_range(0..3u64);
            let tokens = toks(len, fam);
            match rng.gen_range(0..10u8) {
                0 => c.clear(),
                1..=4 => {
                    c.lookup_for(&tokens, owner);
                }
                _ => c.insert_for(&tokens, owner),
            }
            let s = c.stats();
            assert_eq!(
                s.implied_live_blocks(),
                c.len_blocks() as u64,
                "inserted − evicted − freed must equal live at step {step}"
            );
            assert!(c.len_blocks() <= 64, "capacity breached at step {step}");
        }
        let s = c.stats();
        assert!(s.evicted_blocks > 0, "churn must actually evict");
        assert!(s.freed_blocks > 0, "churn must actually clear");
    }

    /// The leaf index holds exactly the childless blocks, at their
    /// current recency.
    fn assert_leaves_indexed(cache: &PrefixCache, context: &str) {
        let mut leaves: Vec<(u64, u64)> = cache
            .nodes
            .iter()
            .filter(|(_, n)| n.children == 0)
            .map(|(&id, n)| (n.last_used, id))
            .collect();
        leaves.sort_unstable();
        let indexed: Vec<(u64, u64)> = cache.leaves.keys().collect();
        assert_eq!(indexed, leaves, "{context}: leaf index");
    }

    #[test]
    fn indexed_eviction_matches_the_scan_reference_under_multi_owner_churn() {
        use super::naive::NaivePrefixCache;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Forked hash chains (families share three blocks, then branch),
        // three owners, capacities small enough that most inserts evict.
        for (shards, capacity) in [(1usize, 40usize), (16, 160)] {
            let striped = StripedPrefixCache::new(4, capacity, shards);
            let per_shard = capacity.div_ceil(shards);
            let mut naive: Vec<NaivePrefixCache> = (0..shards)
                .map(|_| NaivePrefixCache::new(4, per_shard))
                .collect();
            let mut rng = SmallRng::seed_from_u64(0x1EAF + shards as u64);
            for step in 0..3000 {
                let fam = rng.gen_range(0..40u64);
                let variant = rng.gen_range(0..3u64);
                let len = rng.gen_range(1..14usize);
                let owner = rng.gen_range(0..3u64);
                let chain: Vec<u64> = (0..len)
                    .map(|i| {
                        let tail = if i < 3 { 0 } else { variant + 1 };
                        (fam + 1) * 1_000_003 + tail * 1_009 + i as u64
                    })
                    .collect();
                let tokens = len * 4 + 2;
                let shard = (chain[0] % shards as u64) as usize;
                match rng.gen_range(0..20u8) {
                    0 => {
                        striped.clear();
                        naive.iter_mut().for_each(NaivePrefixCache::clear);
                    }
                    1..=6 => {
                        let got = striped.shards[shard]
                            .lock()
                            .lookup_for_hashed(&chain, tokens, owner);
                        let want = naive[shard].lookup_for_hashed(&chain, tokens, owner);
                        assert_eq!(got, want, "step {step}: lookup hit");
                    }
                    _ => {
                        let got = striped.lookup_insert_hashed(&chain, tokens, owner);
                        let want = naive[shard].lookup_for_hashed(&chain, tokens, owner);
                        naive[shard].insert_for_hashed(&chain, owner);
                        assert_eq!(got, want, "step {step}: lookup_insert hit");
                    }
                }
                for (i, reference) in naive.iter().enumerate() {
                    let cache = striped.shards[i].lock();
                    let context = format!("{shards} shards, step {step}, shard {i}");
                    assert_eq!(cache.stats, reference.stats, "{context}: stats");
                    assert_eq!(cache.index, reference.index, "{context}: resident set");
                    assert_eq!(cache.nodes, reference.nodes, "{context}: nodes");
                    assert_leaves_indexed(&cache, &context);
                }
            }
            let stats = striped.stats();
            assert!(stats.evicted_blocks > 1000, "churn must evict: {stats:?}");
            assert!(stats.freed_blocks > 0, "churn must clear: {stats:?}");
        }
    }

    #[test]
    fn equal_recency_leaves_evict_smaller_id_first() {
        // Real traffic never ties two leaves (one tick touches one chain,
        // and a chain has one leaf), so set the tie up by hand: three
        // single-block streams, the first two forced to one recency.
        let mut c = PrefixCache::new(4, 3);
        let streams = [toks(4, 1), toks(4, 2), toks(4, 3)];
        for t in &streams {
            c.insert(t);
        }
        let ids: Vec<u64> = streams
            .iter()
            .map(|t| c.index[&(ROOT, PrefixCache::hash_block(t), SHARED_OWNER)])
            .collect();
        assert!(ids[0] < ids[1]);
        for &id in &ids[..2] {
            let node = c.nodes.get_mut(&id).unwrap();
            let before = std::mem::replace(&mut node.last_used, 1);
            c.leaves.touch(id, before, 1);
        }
        // Residency without the recency refresh a lookup would do.
        let resident = |c: &PrefixCache, stream: usize| c.nodes.contains_key(&ids[stream]);
        c.insert(&toks(4, 4));
        assert!(!resident(&c, 0), "smaller id of the tie goes first");
        assert!(resident(&c, 1));
        c.insert(&toks(4, 5));
        assert!(!resident(&c, 1), "then the larger id");
        assert!(resident(&c, 2), "the more recent leaf outlives both");
        assert_leaves_indexed(&c, "after tie-break evictions");
        // clear() resets the index with the blocks it describes.
        c.clear();
        assert_eq!(c.leaves.len(), 0);
        c.insert(&streams[0]);
        assert_leaves_indexed(&c, "after clear");
    }
}
