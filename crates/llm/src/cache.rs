//! Block-based radix prefix cache, modelled on vLLM's automatic prefix
//! caching (paper refs \[9\], \[16\]).
//!
//! Token streams are grouped into fixed-size blocks, and [`BlockHasher`]
//! turns a stream into the content hashes of its full blocks — the only
//! way into the cache. Each cached block is a node of the radix block tree
//! the KV block pool also stands on, keyed by `(parent node, block hash,
//! owner)`. A lookup walks the tree from the root and returns how many
//! *tokens* of the request's prefix are already resident — those tokens
//! skip (almost all of) the prefill cost. Insertion adds the request's
//! full blocks; when the cache exceeds its block capacity,
//! least-recently-used **leaf** blocks are evicted, which mirrors vLLM: a
//! block can only be freed once no longer block extends it.

use parking_lot::{Mutex, RwLock};
use spear_kv::shard::{fnv1a_extend, FNV1A_OFFSET};

use crate::hash::FoldMap;
use crate::tokenizer::Token;
use crate::tree::{Tree, ROOT};

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod naive;

/// Incremental block hasher: push tokens one at a time; every
/// `block_size`-th token completes a block and appends its hash to the
/// output. The one place a block's content hash is computed (FNV-1a over
/// the concatenated little-endian token bytes), with no intermediate byte
/// buffer — FNV-1a is a plain byte fold, so streaming and batch hashing
/// agree byte-for-byte. The trailing partial block (if any) never emits a
/// hash, matching the cache's rule that partial blocks are not cacheable.
/// A plain value: a copy is a resume point.
#[derive(Debug, Clone, Copy)]
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

    /// [`Self::push`] every token of `tokens`, in order.
    pub fn push_all(&mut self, tokens: &[Token], out: &mut Vec<u64>) {
        for &token in tokens {
            self.push(token, out);
        }
    }
}

/// Default tokens per block (vLLM's default).
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// Default shard count for [`StripedPrefixCache`].
pub const DEFAULT_NUM_SHARDS: usize = 16;

/// Owner tag for blocks visible to every pipeline instance (all ambient
/// single-threaded inserts; pre-warmed prefixes, kept in the
/// [`StripedPrefixCache`]'s warm tier, are shared the same way).
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

/// The matched head of a chain: its last node ([`ROOT`] when empty) and
/// its length in blocks. A walk that stopped there resumes from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Matched {
    node: u64,
    blocks: usize,
}

impl Matched {
    const NONE: Self = Self {
        node: ROOT,
        blocks: 0,
    };
}

/// The prefix cache. Not internally synchronized — the engine wraps it in a
/// mutex (one cache per simulated GPU).
///
/// Blocks are tagged with the owner that inserted them ([`SHARED_OWNER`]
/// for ambient inserts): a block inserted by owner A is invisible to
/// owner B, which is what makes per-pipeline hit counts independent of
/// concurrent interleaving.
#[derive(Debug)]
pub struct PrefixCache {
    block_size: usize,
    capacity_blocks: usize,
    /// Its `evictable` index holds the childless blocks in LRU order, kept
    /// current wherever a child count or a leaf's recency changes, except
    /// that the chain being inserted stays out until its insert ends (see
    /// [`Self::evict_to_fit`]).
    tree: Tree<u64>,
    tick: u64,
    stats: CacheStats,
}

impl PrefixCache {
    /// Create a cache holding at most `capacity_blocks` blocks of
    /// `block_size` tokens.
    #[must_use]
    pub fn new(block_size: usize, capacity_blocks: usize) -> Self {
        Self {
            block_size: block_size.max(1),
            capacity_blocks: capacity_blocks.max(1),
            tree: Tree::default(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Find the node for `hash` under `parent` that `owner` is allowed to
    /// see: shared blocks match everyone; owned blocks match only their
    /// owner. Shared wins when both exist (its presence cannot depend on
    /// what concurrent pipelines did).
    fn visible(&self, parent: u64, hash: u64, owner: u64) -> Option<u64> {
        let shared = self.tree.find(parent, hash, SHARED_OWNER);
        if shared.is_some() || owner == SHARED_OWNER {
            return shared;
        }
        self.tree.find(parent, hash, owner)
    }

    /// How many tokens of a stream's prefix are cached *as seen by
    /// `owner`*: shared blocks plus the owner's private blocks.
    /// `block_hashes` are the stream's full-block content hashes in order
    /// (what [`BlockHasher`] emits for it) and `total_tokens` its length,
    /// the trailing partial block included, which only the stats read.
    /// Touches the matched path (LRU refresh).
    pub fn lookup(&mut self, block_hashes: &[u64], total_tokens: usize, owner: u64) -> usize {
        self.lookup_from(Matched::NONE, block_hashes, total_tokens, owner)
    }

    /// [`Self::lookup`] of a chain whose first `from.blocks` blocks were
    /// matched outside this cache (in the warm tier), ending at
    /// `from.node`: they count as hits, and the walk resumes under
    /// `from.node`.
    pub(crate) fn lookup_from(
        &mut self,
        from: Matched,
        block_hashes: &[u64],
        total_tokens: usize,
        owner: u64,
    ) -> usize {
        self.count_lookup(block_hashes, total_tokens);
        let mut parent = from.node;
        let mut matched_blocks = from.blocks;
        for &hash in &block_hashes[from.blocks..] {
            let Some(id) = self.visible(parent, hash, owner) else {
                break;
            };
            if let Some(node) = self.tree.nodes.get_mut(&id) {
                let before = std::mem::replace(&mut node.last_used, self.tick);
                if node.children == 0 {
                    self.tree.evictable.touch(id, before, self.tick);
                }
            }
            parent = id;
            matched_blocks += 1;
        }
        self.count_hit(matched_blocks)
    }

    /// Register the blocks whose content hashes are `block_hashes` (see
    /// [`Self::lookup`]) on behalf of `owner`. Blocks already visible to
    /// the owner (shared, or previously inserted by it) are reused; new
    /// blocks are tagged with the owner and stay invisible to every other
    /// owner.
    pub fn insert(&mut self, block_hashes: &[u64], owner: u64) {
        self.insert_from(Matched::NONE, block_hashes, owner);
    }

    /// [`Self::insert`] resuming at `from`, as [`Self::lookup_from`] does.
    pub(crate) fn insert_from(&mut self, from: Matched, block_hashes: &[u64], owner: u64) {
        self.tick += 1;
        self.extend(from, block_hashes, owner);
    }

    /// [`Self::lookup_from`] followed by [`Self::insert_from`], in one
    /// walk: the same two ticks, touches, evictions and stats. The
    /// lookup's touches are all overwritten by the insert's, which
    /// re-walks the very blocks the lookup matched, so only the insert's
    /// pass is made.
    pub(crate) fn lookup_insert(
        &mut self,
        from: Matched,
        block_hashes: &[u64],
        total_tokens: usize,
        owner: u64,
    ) -> usize {
        self.count_lookup(block_hashes, total_tokens);
        self.tick += 1;
        let matched_blocks = self.extend(from, block_hashes, owner);
        self.count_hit(matched_blocks)
    }

    /// The tick and stats every lookup starts with.
    fn count_lookup(&mut self, block_hashes: &[u64], total_tokens: usize) {
        debug_assert!(block_hashes.len() * self.block_size <= total_tokens);
        self.tick += 1;
        self.stats.lookups += 1;
        self.stats.lookup_tokens += total_tokens as u64;
    }

    /// Count `matched_blocks` as the lookup's hit and return it in tokens.
    fn count_hit(&mut self, matched_blocks: usize) -> usize {
        let hit = matched_blocks * self.block_size;
        self.stats.hit_tokens += hit as u64;
        hit
    }

    /// The insert walk at the current tick: stamp the blocks `owner`
    /// already sees from `from` on, then add the rest of the chain.
    /// Returns how many of the chain's blocks were visible before it,
    /// `from.blocks` included.
    fn extend(&mut self, from: Matched, block_hashes: &[u64], owner: u64) -> usize {
        let mut parent = from.node;
        let mut matched_blocks = from.blocks;
        while let Some(id) = block_hashes
            .get(matched_blocks)
            .and_then(|&hash| self.visible(parent, hash, owner))
        {
            if let Some(node) = self.tree.nodes.get_mut(&id) {
                let before = std::mem::replace(&mut node.last_used, self.tick);
                if node.children == 0 {
                    self.tree.evictable.remove(before, id);
                }
            }
            parent = id;
            matched_blocks += 1;
        }
        // A block just added has no children, so nothing past the first
        // miss can be visible: the rest of the chain is new.
        for &hash in &block_hashes[matched_blocks..] {
            self.evict_to_fit();
            if self.tree.len() >= self.capacity_blocks {
                // Nothing evictable (every resident block is on the
                // chain being inserted right now). Inserting anyway would
                // either breach capacity or — worse, the old behaviour —
                // evict this chain's own freshly inserted ancestor,
                // leaving an unreachable child whose eviction could never
                // be accounted. Stop here; the remaining suffix is simply
                // not cached.
                break;
            }
            self.stats.inserted_blocks += 1;
            parent = self.tree.insert(parent, hash, owner, 0, self.tick);
        }
        // Every block of the chain but its last now has a child.
        if self
            .tree
            .nodes
            .get(&parent)
            .is_some_and(|n| n.children == 0)
        {
            self.tree.evictable.insert(self.tick, parent);
        }
        matched_blocks
    }

    /// Evict LRU leaves until there is room for one more block, taking
    /// each victim from the leaf index in O(log n) (ties on `last_used`
    /// go to the smaller id).
    ///
    /// Blocks touched at the current tick are exempt: they are the chain
    /// being inserted or refreshed *right now*, and evicting one of them
    /// would orphan its not-yet-inserted children (the accounting drift the
    /// cross-stripe reconciliation test guards against). They are exempt
    /// by absence: `insert` takes the chain's blocks out of the index as it
    /// reaches them and puts the last one back when it ends, and a block of
    /// the chain left childless here stays out likewise.
    fn evict_to_fit(&mut self) {
        while self.tree.len() >= self.capacity_blocks {
            let Some(id) = self.tree.evictable.pop_lru() else {
                return; // nothing evictable: every block is on the live chain
            };
            if let Some((parent, last_used)) = self.tree.remove(id) {
                if last_used != self.tick {
                    self.tree.evictable.insert(last_used, parent);
                }
            }
            self.stats.evicted_blocks += 1;
        }
    }

    /// Current number of resident blocks.
    #[must_use]
    pub fn len_blocks(&self) -> usize {
        self.tree.len()
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
        self.stats.freed_blocks += self.tree.len() as u64;
        self.tree.clear();
    }
}

/// Set in every warm-tier block id and in no shard tree's: those count
/// up from 1, so a live block can hang under a warm one.
const WARM_ID: u64 = 1 << 63;

/// The blocks [`StripedPrefixCache::warm`] inserted, keyed `(parent,
/// hash)`. They are shared with every owner, pinned (never evicted, never
/// touched, outside every shard's capacity), and change only under
/// `warm` and `clear`, so a lookup walks them under a read guard without
/// taking a shard lock.
#[derive(Debug, Default)]
struct WarmTier {
    index: FoldMap<(u64, u64), u64>,
    /// Blocks ever inserted; the last one's id is `WARM_ID | inserted`.
    inserted: u64,
    /// Blocks dropped by `clear`.
    freed: u64,
}

impl WarmTier {
    /// How far `block_hashes` runs along warm blocks from the root.
    fn walk(&self, block_hashes: &[u64]) -> Matched {
        let mut at = Matched::NONE;
        for &hash in block_hashes {
            let Some(&id) = self.index.get(&(at.node, hash)) else {
                break;
            };
            at = Matched {
                node: id,
                blocks: at.blocks + 1,
            };
        }
        at
    }

    /// Add `block_hashes` as a warm chain under `parent`.
    fn extend(&mut self, mut parent: u64, block_hashes: &[u64]) {
        for &hash in block_hashes {
            self.inserted += 1;
            let id = WARM_ID | self.inserted;
            self.index.insert((parent, hash), id);
            parent = id;
        }
    }
}

/// A lock-striped prefix cache over a frozen warm tier.
///
/// The blocks [`Self::warm`] inserts form one immutable tier, read by
/// every lookup under a read guard: pre-warmed prefixes are the blocks
/// nearly every request of a run shares, and reading them takes no lock
/// any other request waits on, touches no recency, and is never evicted.
/// Everything else lives in the radix tree, sharded by the hash of a
/// stream's **first block**, each shard behind its own mutex, so
/// concurrent GEN calls touching unrelated prompt families never contend
/// on one global lock. A lookup walks the warm tier as far as it reaches
/// and continues in the one shard, in one pass that matches and then
/// inserts.
///
/// Sharding by first-block hash is correctness-preserving: block `k`'s
/// radix key chains from block 0 via parent ids, so any two streams that
/// share even a one-block prefix hash to the same shard, and every radix
/// path lives entirely within one shard (below its warm head, if any).
/// Streams shorter than one block have nothing cacheable and route to
/// shard 0 (their lookups still count toward stats).
///
/// ## Determinism contract
///
/// Combined with owner tagging ([`PrefixCache::lookup`] /
/// [`PrefixCache::insert`]): as long as (a) blocks are only warmed while
/// no owned work is in flight (between runs), and (b) each owner's
/// requests execute in program order, the hit count every request
/// observes is a pure function of the warm set and that owner's own
/// history — independent of thread count and interleaving. Warm blocks
/// are pinned, so they never take part in it. Eviction of live blocks is
/// the one escape hatch: a shard under capacity pressure evicts in
/// LRU-touch order, which *is* interleaving-dependent, so deterministic
/// runs should size `capacity_blocks` above the live working set — per
/// shard: the engine's default 64Ki blocks (≈ 1M tokens) is 4Ki blocks in
/// each of its 16 shards.
#[derive(Debug)]
pub struct StripedPrefixCache {
    warm: RwLock<WarmTier>,
    shards: Vec<Mutex<PrefixCache>>,
    block_size: usize,
}

impl StripedPrefixCache {
    /// A striped cache of `num_shards` shards, each holding up to
    /// `capacity_blocks / num_shards` live blocks (rounded up, minimum 1);
    /// warm blocks come on top.
    #[must_use]
    pub fn new(block_size: usize, capacity_blocks: usize, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let per_shard = capacity_blocks.div_ceil(num_shards).max(1);
        Self {
            warm: RwLock::new(WarmTier::default()),
            shards: (0..num_shards)
                .map(|_| Mutex::new(PrefixCache::new(block_size, per_shard)))
                .collect(),
            block_size: block_size.max(1),
        }
    }

    fn shard_for(&self, block_hashes: &[u64]) -> &Mutex<PrefixCache> {
        let index = block_hashes
            .first()
            .map_or(0, |&h| (h % self.shards.len() as u64) as usize);
        &self.shards[index]
    }

    /// Atomic lookup-then-insert on behalf of `owner` — the engine's
    /// per-request fast path: the warm tier under a read guard, then the
    /// rest of the chain in one walk under a single shard lock. The caller
    /// supplies the stream's full-block content hashes (from
    /// [`BlockHasher`], or a memoized hash chain) plus its total token
    /// count, as [`PrefixCache::lookup`] takes them.
    pub fn lookup_insert_hashed(
        &self,
        block_hashes: &[u64],
        total_tokens: usize,
        owner: u64,
    ) -> usize {
        // Held through the shard walk, so no `clear` can drop the warm
        // head the live chain continues from.
        let warm = self.warm.read();
        let from = warm.walk(block_hashes);
        self.shard_for(block_hashes)
            .lock()
            .lookup_insert(from, block_hashes, total_tokens, owner)
    }

    /// Insert `tokens`' full blocks as shared blocks, visible to every
    /// owner and pinned in the warm tier.
    pub fn warm(&self, tokens: &[Token]) {
        let mut hashes = Vec::with_capacity(tokens.len() / self.block_size);
        BlockHasher::new(self.block_size).push_all(tokens, &mut hashes);
        self.warm_hashed(&hashes);
    }

    /// [`Self::warm`] of a stream's full-block content hashes.
    fn warm_hashed(&self, block_hashes: &[u64]) {
        let mut warm = self.warm.write();
        let from = warm.walk(block_hashes);
        let Some(&hash) = block_hashes.get(from.blocks) else {
            return;
        };
        let mut shard = self.shard_for(block_hashes).lock();
        if shard.tree.find(from.node, hash, SHARED_OWNER).is_some() {
            // A live shared block (an ambient insert) already continues
            // the warm head: extend that chain live, so none of its
            // blocks is cut off from the lookups that reach it.
            shard.insert_from(from, block_hashes, SHARED_OWNER);
        } else {
            warm.extend(from.node, &block_hashes[from.blocks..]);
        }
    }

    /// Aggregate statistics across the warm tier and all shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = {
            let warm = self.warm.read();
            CacheStats {
                inserted_blocks: warm.inserted,
                freed_blocks: warm.freed,
                ..CacheStats::default()
            }
        };
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

    /// Total resident blocks, warm and live.
    #[must_use]
    pub fn len_blocks(&self) -> usize {
        let warm = self.warm.read().index.len();
        warm + self
            .shards
            .iter()
            .map(|s| s.lock().len_blocks())
            .sum::<usize>()
    }

    /// Drop all blocks, warm and live (statistics are retained).
    pub fn clear(&self) {
        let mut warm = self.warm.write();
        warm.freed += warm.index.len() as u64;
        warm.index.clear();
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tokenizer::Tokenizer;

    fn toks(n: usize, salt: u64) -> Vec<Token> {
        (0..n).map(|i| Token(i as u64 * 7919 + salt)).collect()
    }

    /// Full-block hashes of a token stream: the cache's one way in.
    fn hashes(tokens: &[Token], block_size: usize) -> Vec<u64> {
        let mut out = Vec::new();
        BlockHasher::new(block_size).push_all(tokens, &mut out);
        out
    }

    /// [`PrefixCache::lookup`] of a token stream.
    fn lookup(c: &mut PrefixCache, tokens: &[Token], owner: u64) -> usize {
        c.lookup(&hashes(tokens, c.block_size()), tokens.len(), owner)
    }

    /// [`PrefixCache::insert`] of a token stream.
    fn insert(c: &mut PrefixCache, tokens: &[Token], owner: u64) {
        c.insert(&hashes(tokens, c.block_size()), owner);
    }

    /// A lookup through the warm tier and the shard a token stream routes
    /// to, without insert.
    fn striped_lookup(c: &StripedPrefixCache, tokens: &[Token], owner: u64) -> usize {
        let h = hashes(tokens, c.block_size);
        let from = c.warm.read().walk(&h);
        c.shard_for(&h)
            .lock()
            .lookup_from(from, &h, tokens.len(), owner)
    }

    /// An insert through the warm tier into the shard a token stream
    /// routes to, without lookup.
    fn striped_insert(c: &StripedPrefixCache, tokens: &[Token], owner: u64) {
        let h = hashes(tokens, c.block_size);
        let from = c.warm.read().walk(&h);
        c.shard_for(&h).lock().insert_from(from, &h, owner);
    }

    /// [`StripedPrefixCache::lookup_insert_hashed`] of a token stream.
    fn lookup_insert(c: &StripedPrefixCache, tokens: &[Token], owner: u64) -> usize {
        c.lookup_insert_hashed(&hashes(tokens, c.block_size), tokens.len(), owner)
    }

    #[test]
    fn cold_lookup_misses_then_hits_after_insert() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(16, 0);
        assert_eq!(lookup(&mut c, &t, SHARED_OWNER), 0);
        insert(&mut c, &t, SHARED_OWNER);
        assert_eq!(lookup(&mut c, &t, SHARED_OWNER), 16);
        assert_eq!(c.len_blocks(), 4);
    }

    #[test]
    fn partial_trailing_block_is_not_cached() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(10, 0); // 2 full blocks + 2 tokens
        insert(&mut c, &t, SHARED_OWNER);
        assert_eq!(lookup(&mut c, &t, SHARED_OWNER), 8);
        assert_eq!(c.len_blocks(), 2);
    }

    #[test]
    fn shared_prefix_divergent_suffix() {
        let mut c = PrefixCache::new(4, 1024);
        let mut a = toks(12, 0);
        let mut b = a.clone();
        a.extend(toks(8, 100));
        b.extend(toks(8, 200));
        insert(&mut c, &a, SHARED_OWNER);
        // b shares the first 12 tokens = 3 full blocks.
        assert_eq!(lookup(&mut c, &b, SHARED_OWNER), 12);
        insert(&mut c, &b, SHARED_OWNER);
        assert_eq!(lookup(&mut c, &b, SHARED_OWNER), 20);
        // a is still fully resident.
        assert_eq!(lookup(&mut c, &a, SHARED_OWNER), 20);
    }

    #[test]
    fn block_boundary_alignment_matters() {
        // Prefix sharing is block-granular: a one-token shift breaks reuse.
        let mut c = PrefixCache::new(4, 1024);
        let a = toks(16, 0);
        insert(&mut c, &a, SHARED_OWNER);
        let mut shifted = vec![Token(999)];
        shifted.extend_from_slice(&a[..15]);
        assert_eq!(lookup(&mut c, &shifted, SHARED_OWNER), 0);
    }

    #[test]
    fn eviction_is_lru_and_leaf_first() {
        // Capacity 4 blocks; insert two independent 2-block streams, then a
        // third: the least recently used stream's blocks go first.
        let mut c = PrefixCache::new(4, 4);
        let a = toks(8, 1);
        let b = toks(8, 2);
        insert(&mut c, &a, SHARED_OWNER);
        insert(&mut c, &b, SHARED_OWNER);
        assert_eq!(
            lookup(&mut c, &a, SHARED_OWNER),
            8,
            "refresh a; b becomes LRU"
        );
        let d = toks(8, 3);
        insert(&mut c, &d, SHARED_OWNER);
        assert_eq!(lookup(&mut c, &b, SHARED_OWNER), 0, "b was evicted");
        assert_eq!(lookup(&mut c, &a, SHARED_OWNER), 8, "a survived");
        assert!(c.stats().evicted_blocks >= 2);
        assert!(c.len_blocks() <= 4);
    }

    #[test]
    fn stats_accumulate_and_hit_rate() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(8, 0);
        lookup(&mut c, &t, SHARED_OWNER);
        insert(&mut c, &t, SHARED_OWNER);
        lookup(&mut c, &t, SHARED_OWNER);
        let s = c.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.lookup_tokens, 16);
        assert_eq!(s.hit_tokens, 8);
        assert!((s.hit_rate().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clear_drops_blocks() {
        let mut c = PrefixCache::new(4, 1024);
        insert(&mut c, &toks(8, 0), SHARED_OWNER);
        c.clear();
        assert_eq!(c.len_blocks(), 0);
        assert_eq!(lookup(&mut c, &toks(8, 0), SHARED_OWNER), 0);
    }

    #[test]
    fn real_tokenizer_prompts_share_instruction_prefix() {
        let tok = Tokenizer::new();
        let mut c = PrefixCache::new(DEFAULT_BLOCK_SIZE, 1024);
        let instruction = "Classify the sentiment of the following tweet as \
             positive or negative. Respond with exactly one word. Keep your \
             reasoning implicit and do not exceed the word limit of one. "
            .repeat(4);
        let a = tok.encode(&format!("{instruction}Tweet: what a beautiful morning"));
        let b = tok.encode(&format!("{instruction}Tweet: worst commute ever"));
        insert(&mut c, &a, SHARED_OWNER);
        let hit = lookup(&mut c, &b, SHARED_OWNER);
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
        insert(&mut c, &t, 1);
        assert_eq!(lookup(&mut c, &t, 1), 16, "owner sees its own blocks");
        assert_eq!(lookup(&mut c, &t, 2), 0, "another owner does not");
        assert_eq!(lookup(&mut c, &t, SHARED_OWNER), 0, "nor does ambient work");
    }

    #[test]
    fn shared_blocks_are_visible_to_every_owner() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(16, 0);
        insert(&mut c, &t, SHARED_OWNER);
        for owner in [SHARED_OWNER, 1, 2, 99] {
            assert_eq!(lookup(&mut c, &t, owner), 16);
        }
    }

    #[test]
    fn owner_chains_extend_shared_prefixes() {
        let mut c = PrefixCache::new(4, 1024);
        let shared = toks(8, 0);
        insert(&mut c, &shared, SHARED_OWNER);
        let mut extended = shared.clone();
        extended.extend(toks(8, 50));
        insert(&mut c, &extended, 1);
        assert_eq!(lookup(&mut c, &extended, 1), 16);
        assert_eq!(
            lookup(&mut c, &extended, 2),
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
        insert(&mut ab, &t, 1);
        insert(&mut ab, &t, 2);
        let mut ba = PrefixCache::new(4, 1024);
        insert(&mut ba, &t, 2);
        insert(&mut ba, &t, 1);
        for c in [&mut ab, &mut ba] {
            assert_eq!(lookup(c, &t, 1), 16);
            assert_eq!(lookup(c, &t, 2), 16);
        }
    }

    #[test]
    fn striped_cache_routes_shared_prefixes_to_one_shard() {
        let c = StripedPrefixCache::new(4, 4096, 8);
        let mut a = toks(12, 0);
        let mut b = a.clone();
        a.extend(toks(8, 100));
        b.extend(toks(8, 200));
        c.warm(&a);
        // b shares a's first 3 blocks; a cross-shard split would lose them.
        assert_eq!(striped_lookup(&c, &b, SHARED_OWNER), 12);
        let s = c.stats();
        assert_eq!(s.lookups, 1);
        assert_eq!(s.hit_tokens, 12);
    }

    #[test]
    fn striped_lookup_insert_is_one_round_trip() {
        let c = StripedPrefixCache::new(4, 4096, 8);
        let t = toks(16, 3);
        assert_eq!(lookup_insert(&c, &t, 5), 0);
        assert_eq!(lookup_insert(&c, &t, 5), 16);
        assert_eq!(lookup_insert(&c, &t, 6), 0, "other owner still cold");
        c.clear();
        assert_eq!(c.len_blocks(), 0);
        assert_eq!(lookup_insert(&c, &t, 5), 0);
    }

    #[test]
    fn striped_warm_is_shared() {
        let c = StripedPrefixCache::new(DEFAULT_BLOCK_SIZE, 4096, DEFAULT_NUM_SHARDS);
        let tok = Tokenizer::new();
        let prefix = tok.encode(&"shared instruction text ".repeat(20));
        c.warm(&prefix);
        assert!(striped_lookup(&c, &prefix, 1) > 0);
        assert!(striped_lookup(&c, &prefix, 2) > 0);
    }

    #[test]
    fn striped_short_streams_route_to_shard_zero() {
        let c = StripedPrefixCache::new(16, 4096, 8);
        let t = toks(3, 0); // shorter than a block: nothing cacheable
        assert_eq!(lookup_insert(&c, &t, 1), 0);
        c.warm(&t);
        assert_eq!(c.len_blocks(), 0);
        assert_eq!(c.stats().lookups, 1);
        let shard0 = c.shards[0].lock().stats();
        assert_eq!((shard0.lookups, shard0.lookup_tokens), (1, 3));
    }

    #[test]
    fn block_hasher_folds_each_full_block_with_fnv1a() {
        let t = toks(19, 5); // 4 full blocks of 4 + partial
        let got = hashes(&t, 4);
        let want: Vec<u64> = t
            .chunks_exact(4)
            .map(|block| {
                let bytes: Vec<u8> = block.iter().flat_map(|t| t.0.to_le_bytes()).collect();
                spear_kv::shard::fnv1a(&bytes)
            })
            .collect();
        assert_eq!(got, want);
        let mut out = Vec::new();
        BlockHasher::new(4).push_all(&t[..3], &mut out);
        assert!(out.is_empty(), "partial blocks never emit a hash");
    }

    #[test]
    fn total_tokens_feed_the_stats_alone() {
        // The trailing partial block is counted in lookup tokens but never
        // cached, whichever owner looks.
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(18, 0); // 4 full blocks + 2 trailing tokens
        let h = hashes(&t, 4);
        assert_eq!(c.lookup(&h, t.len(), 1), 0);
        c.insert(&h, 1);
        assert_eq!(c.lookup(&h, t.len(), 1), 16);
        assert_eq!(c.lookup(&h, t.len(), 1), 16);

        let u = toks(12, 9);
        c.insert(&hashes(&u, 4), 2);
        assert_eq!(lookup(&mut c, &u, 2), 12);

        let s = c.stats();
        assert_eq!(s.lookups, 4);
        assert_eq!(s.lookup_tokens, 18 + 18 + 18 + 12);
        assert_eq!(s.hit_tokens, 16 + 16 + 12);
    }

    #[test]
    fn striped_warm_routes_to_the_hashed_path_shard() {
        let c = StripedPrefixCache::new(4, 4096, 8);
        let t = toks(16, 3);
        // Warm by tokens, lookup_insert by hashes: a cross-shard split
        // would miss.
        c.warm(&t);
        assert_eq!(c.lookup_insert_hashed(&hashes(&t, 4), t.len(), 5), 16);
        // And the hashed insert is visible to a later lookup of the same
        // tokens.
        let u = toks(16, 11);
        assert_eq!(c.lookup_insert_hashed(&hashes(&u, 4), u.len(), 7), 0);
        assert_eq!(striped_lookup(&c, &u, 7), 16);
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
        assert_eq!(lookup(&mut c, &a, SHARED_OWNER), 0);
        // (2) insert a: +2 blocks, no eviction (2 ≤ 3).
        insert(&mut c, &a, SHARED_OWNER);
        // (3) warm lookup of a: 8/8 tokens hit.
        assert_eq!(lookup(&mut c, &a, SHARED_OWNER), 8);
        // (4) insert b: b's first block fits (2 -> 3 resident), b's second
        //     block hits capacity, so the LRU *leaf* — a's tail block — is
        //     evicted. a's root block has a child at eviction time and
        //     stays. Net: +2 inserted, +1 evicted.
        insert(&mut c, &b, SHARED_OWNER);
        // (5) lookup b: fully resident, 8/8 hit.
        assert_eq!(lookup(&mut c, &b, SHARED_OWNER), 8);

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
        lookup(&mut c, &t, SHARED_OWNER);
        insert(&mut c, &t, SHARED_OWNER);
        let before = c.stats();
        lookup(&mut c, &t, SHARED_OWNER);
        lookup(&mut c, &t, SHARED_OWNER);
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
        insert(&mut c, &toks(8, 0), SHARED_OWNER);
        lookup(&mut c, &toks(8, 0), SHARED_OWNER);
        let s = c.stats();
        let json = serde_json::to_string(&s).unwrap();
        let back: CacheStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut c = PrefixCache::new(4, 1024);
        let t = toks(16, 0);
        insert(&mut c, &t, SHARED_OWNER);
        let blocks = c.len_blocks();
        let inserted = c.stats().inserted_blocks;
        insert(&mut c, &t, SHARED_OWNER);
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
        insert(&mut c, &toks(8, 0), SHARED_OWNER);
        assert_eq!(c.len_blocks(), 1, "capacity is a hard bound");
        assert_eq!(
            lookup(&mut c, &toks(8, 0), SHARED_OWNER),
            4,
            "the resident block is reachable"
        );
        let s = c.stats();
        assert_eq!(s.inserted_blocks, 1, "the skipped suffix is not counted");
        assert_eq!(s.evicted_blocks, 0);
        assert_eq!(s.implied_live_blocks(), c.len_blocks() as u64);
        // A fresh stream still rotates the resident block via real LRU
        // eviction, with the eviction counted.
        insert(&mut c, &toks(8, 1), SHARED_OWNER);
        assert_eq!(c.len_blocks(), 1);
        let s = c.stats();
        assert_eq!((s.inserted_blocks, s.evicted_blocks), (2, 1));
        assert_eq!(s.implied_live_blocks(), c.len_blocks() as u64);
    }

    #[test]
    fn clear_counts_freed_blocks_for_reconciliation() {
        let mut c = PrefixCache::new(4, 1024);
        insert(&mut c, &toks(16, 0), SHARED_OWNER);
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
                    striped_lookup(&c, &tokens, owner);
                }
                _ => striped_insert(&c, &tokens, owner),
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
            .tree
            .nodes
            .iter()
            .filter(|(_, n)| n.children == 0)
            .map(|(&id, n)| (n.last_used, id))
            .collect();
        leaves.sort_unstable();
        let indexed: Vec<(u64, u64)> = cache.tree.evictable.keys().collect();
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
                        let got = striped.shards[shard].lock().lookup(&chain, tokens, owner);
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
                    assert_eq!(cache.tree.index, reference.index, "{context}: resident set");
                    assert_eq!(cache.tree.nodes, reference.nodes, "{context}: nodes");
                    assert_leaves_indexed(&cache, &context);
                }
            }
            let stats = striped.stats();
            assert!(stats.evicted_blocks > 1000, "churn must evict: {stats:?}");
            assert!(stats.freed_blocks > 0, "churn must clear: {stats:?}");
        }
    }

    #[test]
    fn the_warm_tier_matches_the_scan_reference_with_warms_between_steps() {
        use super::naive::NaivePrefixCache;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // The churn above with family chains warmed between steps. The
        // reference holds warm blocks as pinned shared nodes, so its live
        // blocks must equal the shards' and its pinned ones the warm tier.
        // Owner 0 is SHARED_OWNER: its inserts are live shared chains, and
        // a warm that lands on one must extend it live.
        for (shards, capacity) in [(1usize, 40usize), (16, 160)] {
            let striped = StripedPrefixCache::new(4, capacity, shards);
            let per_shard = capacity.div_ceil(shards);
            let mut naive: Vec<NaivePrefixCache> = (0..shards)
                .map(|_| NaivePrefixCache::new(4, per_shard))
                .collect();
            let mut warm_ids = 0u64;
            let mut live_warms = 0usize;
            let mut rng = SmallRng::seed_from_u64(0x3A7E + shards as u64);
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
                    1 => {
                        striped.warm_hashed(&chain);
                        let live = naive[shard].warm_for_hashed(&chain, || {
                            warm_ids += 1;
                            WARM_ID | warm_ids
                        });
                        live_warms += usize::from(live);
                    }
                    2..=6 => {
                        let from = striped.warm.read().walk(&chain);
                        let got = striped.shards[shard]
                            .lock()
                            .lookup_from(from, &chain, tokens, owner);
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
                let mut pinned = FoldMap::default();
                for (i, reference) in naive.iter().enumerate() {
                    let live = |id: &u64| reference.nodes[id].refs == 0;
                    let index: FoldMap<_, _> = reference
                        .index
                        .iter()
                        .filter(|(_, id)| live(id))
                        .map(|(&key, &id)| (key, id))
                        .collect();
                    let nodes: FoldMap<_, _> = reference
                        .nodes
                        .iter()
                        .filter(|(id, _)| live(id))
                        .map(|(&id, node)| (id, node.clone()))
                        .collect();
                    pinned.extend(
                        reference
                            .index
                            .iter()
                            .filter(|(_, id)| !live(id))
                            .map(|(&(parent, hash, _), &id)| ((parent, hash), id)),
                    );
                    let cache = striped.shards[i].lock();
                    let context = format!("{shards} shards, step {step}, shard {i}");
                    assert_eq!(cache.stats, reference.stats, "{context}: stats");
                    assert_eq!(cache.tree.index, index, "{context}: resident set");
                    assert_eq!(cache.tree.nodes, nodes, "{context}: nodes");
                    assert_leaves_indexed(&cache, &context);
                }
                assert_eq!(striped.warm.read().index, pinned, "step {step}: warm tier");
                assert_eq!(
                    striped.stats().implied_live_blocks(),
                    striped.len_blocks() as u64,
                    "step {step}: reconciliation"
                );
            }
            let stats = striped.stats();
            assert!(stats.evicted_blocks > 1000, "churn must evict: {stats:?}");
            assert!(stats.freed_blocks > 0, "churn must clear: {stats:?}");
            assert!(
                warm_ids > 0 && live_warms > 0,
                "{warm_ids} warm, {live_warms} live"
            );
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
            insert(&mut c, t, SHARED_OWNER);
        }
        let ids: Vec<u64> = streams
            .iter()
            .map(|t| c.tree.find(ROOT, hashes(t, 4)[0], SHARED_OWNER).unwrap())
            .collect();
        assert!(ids[0] < ids[1]);
        for &id in &ids[..2] {
            let node = c.tree.nodes.get_mut(&id).unwrap();
            let before = std::mem::replace(&mut node.last_used, 1);
            c.tree.evictable.touch(id, before, 1);
        }
        // Residency without the recency refresh a lookup would do.
        let resident = |c: &PrefixCache, stream: usize| c.tree.nodes.contains_key(&ids[stream]);
        insert(&mut c, &toks(4, 4), SHARED_OWNER);
        assert!(!resident(&c, 0), "smaller id of the tie goes first");
        assert!(resident(&c, 1));
        insert(&mut c, &toks(4, 5), SHARED_OWNER);
        assert!(!resident(&c, 1), "then the larger id");
        assert!(resident(&c, 2), "the more recent leaf outlives both");
        assert_leaves_indexed(&c, "after tie-break evictions");
        // clear() resets the index with the blocks it describes.
        c.clear();
        assert_eq!(c.tree.evictable.len(), 0);
        insert(&mut c, &streams[0], SHARED_OWNER);
        assert_leaves_indexed(&c, "after clear");
    }
}
