//! Bounded, ref-counted KV block pool — the serving layer's model of GPU
//! KV-cache memory, in the style of vLLM's automatic prefix caching.
//!
//! The pool holds a fixed budget of *blocks* (one block = `block_size`
//! tokens of KV state, though the pool itself is token-agnostic and works
//! purely on block content-hash chains). Each stripe stands on the same
//! radix block tree as [`crate::cache::PrefixCache`], keyed by `(parent,
//! content hash)` with no owner, so sequences that share a prefix share
//! the prefix's blocks physically.
//!
//! Unlike the prefix cache — which models *visibility* of reuse and may
//! drop any block — the pool models *occupancy*, and keeps that policy
//! (leases, pins, the feasibility check) on top of the tree:
//!
//! - an in-flight sequence **pins** every block on its path via a lease
//!   ([`BlockPool::allocate`] increments a per-block reference count);
//!   pinned blocks are never evicted, period;
//! - when a sequence finishes, [`BlockPool::release`] unpins its path but
//!   leaves the blocks resident — they become reusable cache for later
//!   sequences sharing the prefix;
//! - when a sequence is *preempted*, [`BlockPool::free`] unpins its path
//!   and immediately drops every block that is now unreferenced and
//!   childless (recompute-on-resume: the preempted sequence's private
//!   blocks are discarded, shared prefix blocks survive for whoever else
//!   holds or extends them);
//! - capacity pressure evicts **unpinned leaf blocks in LRU order**
//!   ([`PoolStats::evicted_blocks`]); if even after evicting every
//!   reclaimable block the request cannot fit, [`BlockPool::allocate`]
//!   fails with [`PoolExhausted`] *without mutating the pool* — the
//!   caller (the serving scheduler) must preempt somebody and retry.
//!
//! ## Accounting invariants
//!
//! The counters are designed to reconcile exactly (pinned by the
//! `block_pool_invariants` proptest):
//!
//! - `live_blocks() <= capacity()` at all times;
//! - `inserted_blocks − evicted_blocks − freed_blocks == live_blocks()`;
//! - a block on any active lease's path is never evicted or freed.
//!
//! The pool is lock-striped by each chain's first block hash (like
//! [`crate::cache::StripedPrefixCache`]), so a sequence's whole path lives
//! in one stripe and concurrent sequences from unrelated prompt families
//! never contend. Operations on *different* sequences are safe to race;
//! operations on the *same* sequence must be externally ordered (a
//! sequence has one owner — its scheduler).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::tree::{Tree, ROOT};

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod naive;

/// Default stripe count for [`BlockPool`].
pub const DEFAULT_POOL_STRIPES: usize = 4;

/// Pool activity counters. All counters are monotonic, so snapshots can be
/// diffed with [`PoolStats::delta_since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PoolStats {
    /// `allocate` calls (including failed ones).
    pub allocations: u64,
    /// Blocks requested across all allocations (the delta beyond each
    /// sequence's existing lease).
    pub requested_blocks: u64,
    /// Requested blocks that were already resident (prefix reuse — the
    /// tokens these cover skip recompute).
    pub reused_blocks: u64,
    /// Blocks newly inserted into the pool.
    pub inserted_blocks: u64,
    /// Blocks evicted by capacity pressure (always unpinned leaves).
    pub evicted_blocks: u64,
    /// Blocks explicitly dropped by [`BlockPool::free`] (preemption) —
    /// distinct from pressure eviction.
    pub freed_blocks: u64,
    /// Allocations that failed with [`PoolExhausted`].
    pub alloc_failures: u64,
}

impl PoolStats {
    /// Fraction of requested blocks served by resident prefixes, in
    /// `[0, 1]`; `None` before any request.
    #[must_use]
    pub fn reuse_rate(&self) -> Option<f64> {
        if self.requested_blocks == 0 {
            None
        } else {
            Some(self.reused_blocks as f64 / self.requested_blocks as f64)
        }
    }

    /// Counter-wise `self − earlier`, saturating on misordered snapshots.
    #[must_use]
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            allocations: self.allocations.saturating_sub(earlier.allocations),
            requested_blocks: self
                .requested_blocks
                .saturating_sub(earlier.requested_blocks),
            reused_blocks: self.reused_blocks.saturating_sub(earlier.reused_blocks),
            inserted_blocks: self.inserted_blocks.saturating_sub(earlier.inserted_blocks),
            evicted_blocks: self.evicted_blocks.saturating_sub(earlier.evicted_blocks),
            freed_blocks: self.freed_blocks.saturating_sub(earlier.freed_blocks),
            alloc_failures: self.alloc_failures.saturating_sub(earlier.alloc_failures),
        }
    }
}

/// Successful allocation: how much of the request was already resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocGrant {
    /// Requested blocks already resident (leading prefix beyond the
    /// sequence's existing lease) — their tokens skip recompute.
    pub reused_blocks: usize,
    /// Blocks newly inserted for this request.
    pub new_blocks: usize,
    /// Total blocks now pinned by the sequence's lease.
    pub lease_blocks: usize,
}

/// Allocation failure: the pool cannot make room without evicting a
/// pinned block. The caller must preempt a lease and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Blocks the request still needed.
    pub needed_blocks: usize,
    /// Blocks that were reclaimable (unpinned, no pinned descendant) at
    /// the time of the failure.
    pub reclaimable_blocks: usize,
}

impl std::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KV block pool exhausted: need {} blocks, only {} reclaimable",
            self.needed_blocks, self.reclaimable_blocks
        )
    }
}

#[derive(Debug, Default)]
struct PoolStripe {
    capacity: usize,
    /// Blocks are physical — no owner tagging; sharing is the point. Its
    /// `evictable` index holds the nodes with `refs == 0` and
    /// `children == 0` in LRU order, kept current wherever `refs`,
    /// `children` or `last_used` change.
    tree: Tree<()>,
    /// `sequence id -> pinned path (root-first node ids)`.
    leases: HashMap<u64, Vec<u64>>,
    /// Nodes with `refs > 0`. A lease is a root-first path, so a pinned
    /// node's ancestors are pinned by the same lease: this is also the
    /// number of nodes eviction may never touch.
    pinned: usize,
    tick: u64,
    stats: PoolStats,
}

impl PoolStripe {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ..Self::default()
        }
    }

    /// Evict the LRU unpinned leaf. Returns `false` when nothing is
    /// evictable (every block pinned or an ancestor of a pinned block).
    fn evict_one(&mut self) -> bool {
        let Some(id) = self.tree.evictable.pop_lru() else {
            return false;
        };
        self.remove_node(id);
        self.stats.evicted_blocks += 1;
        true
    }

    /// Drop node `id` (already out of `evictable`); a parent left
    /// unpinned and childless becomes evictable.
    fn remove_node(&mut self, id: u64) {
        if let Some((parent, last_used)) = self.tree.remove(id) {
            self.tree.evictable.insert(last_used, parent);
        }
    }

    /// Drop one pin from `id`. Returns the node's `last_used` when that
    /// left it unpinned and childless — evictable, or on preemption
    /// droppable.
    fn unpin(&mut self, id: u64) -> Option<u64> {
        let node = self.tree.nodes.get_mut(&id)?;
        debug_assert!(node.refs > 0, "unpinned block must be pinned");
        node.refs = node.refs.checked_sub(1)?;
        if node.refs > 0 {
            return None;
        }
        self.pinned -= 1;
        (node.children == 0).then_some(node.last_used)
    }

    /// Extend (or create) `seq`'s lease to cover the full `chain`.
    fn allocate(&mut self, seq: u64, chain: &[u64]) -> Result<AllocGrant, PoolExhausted> {
        self.tick += 1;
        self.stats.allocations += 1;
        let mut lease = self.leases.remove(&seq).unwrap_or_default();
        debug_assert!(
            lease.len() <= chain.len(),
            "a lease never shrinks without release/free"
        );
        let start = lease.len();
        let requested = chain.len() - start;
        self.stats.requested_blocks += requested as u64;

        // Walk the resident extension of the lease path.
        let parent = lease.last().copied().unwrap_or(ROOT);
        let resident: Vec<u64> = self.tree.walk(parent, &chain[start..], ()).collect();
        let new_needed = requested - resident.len();

        // Feasibility before mutation: can eviction make enough room
        // without touching a pinned path (ours included, once pinned)?
        let evictions_needed = (self.tree.len() + new_needed).saturating_sub(self.capacity);
        if evictions_needed > 0 {
            // Everything pinned survives (the lease included), and so does
            // the resident extension, which is about to be pinned — count
            // the part of it nobody pins yet so we neither evict it nor
            // call it reclaimable.
            let unpinned_resident = resident
                .iter()
                .filter(|id| self.tree.nodes.get(id).is_some_and(|n| n.refs == 0))
                .count();
            let reclaimable = self.tree.len() - self.pinned - unpinned_resident;
            if reclaimable < evictions_needed {
                self.stats.alloc_failures += 1;
                if !lease.is_empty() {
                    self.leases.insert(seq, lease);
                }
                return Err(PoolExhausted {
                    needed_blocks: new_needed,
                    reclaimable_blocks: reclaimable,
                });
            }
        }

        // Commit. Pin the resident extension first so eviction can never
        // select it while we insert the genuinely new blocks.
        let tick = self.tick;
        for &id in &resident {
            if let Some(node) = self.tree.nodes.get_mut(&id) {
                if node.refs == 0 {
                    self.pinned += 1;
                    if node.children == 0 {
                        self.tree.evictable.remove(node.last_used, id);
                    }
                }
                node.refs += 1;
                node.last_used = tick;
            }
            lease.push(id);
        }
        let mut parent = lease.last().copied().unwrap_or(ROOT);
        for &hash in &chain[start + resident.len()..] {
            while self.tree.len() >= self.capacity {
                let evicted = self.evict_one();
                debug_assert!(evicted, "feasibility check guarantees room");
                if !evicted {
                    break;
                }
            }
            parent = self.tree.insert(parent, hash, (), 1, tick);
            self.pinned += 1;
            self.stats.inserted_blocks += 1;
            lease.push(parent);
        }
        let grant = AllocGrant {
            reused_blocks: resident.len(),
            new_blocks: new_needed,
            lease_blocks: lease.len(),
        };
        self.stats.reused_blocks += resident.len() as u64;
        self.leases.insert(seq, lease);
        Ok(grant)
    }

    /// Unpin `seq`'s lease, leaving its blocks resident as reusable cache.
    fn release(&mut self, seq: u64) {
        let Some(lease) = self.leases.remove(&seq) else {
            return;
        };
        for id in lease {
            if let Some(last_used) = self.unpin(id) {
                self.tree.evictable.insert(last_used, id);
            }
        }
    }

    /// Unpin `seq`'s lease and drop every block on it that is now
    /// unreferenced and childless (leaf-first, so private suffixes vanish
    /// while shared prefixes survive).
    fn free(&mut self, seq: u64) {
        let Some(lease) = self.leases.remove(&seq) else {
            return;
        };
        for &id in lease.iter().rev() {
            if self.unpin(id).is_some() {
                self.remove_node(id);
                self.stats.freed_blocks += 1;
            }
        }
    }

    fn evict_idle(&mut self, max_blocks: usize) -> usize {
        let mut evicted = 0;
        while evicted < max_blocks && self.evict_one() {
            evicted += 1;
        }
        evicted
    }
}

/// Pin the longest prefix of `chain` that `allocate` accepts, for a
/// sequence already holding `held` blocks of it.
fn longest_feasible_prefix(
    held: usize,
    chain: &[u64],
    mut allocate: impl FnMut(&[u64]) -> Result<AllocGrant, PoolExhausted>,
) -> AllocGrant {
    // A lease never shrinks: blocks the sequence already holds are the
    // floor of the search, not probe candidates (probing below the
    // lease would ask `allocate` to shrink it).
    let held = held.min(chain.len());
    let mut lo = held;
    let mut grant = AllocGrant {
        reused_blocks: 0,
        new_blocks: 0,
        lease_blocks: held,
    };
    // Binary-search the longest feasible prefix: feasibility is
    // monotone in chain length for a fixed pool state, and each probe
    // either succeeds (committing the prefix, which only helps longer
    // probes) or leaves the pool unchanged.
    let mut hi = chain.len();
    while lo < hi {
        let mid = hi.min(lo + (hi - lo).div_ceil(2)).max(lo + 1);
        match allocate(&chain[..mid]) {
            Ok(g) => {
                grant = AllocGrant {
                    reused_blocks: grant.reused_blocks + g.reused_blocks,
                    new_blocks: grant.new_blocks + g.new_blocks,
                    lease_blocks: g.lease_blocks,
                };
                lo = mid;
            }
            Err(_) => hi = mid - 1,
        }
    }
    grant
}

/// The lock-striped bounded block pool. See the module docs for the
/// semantics; see [`crate::cache::StripedPrefixCache`] for why striping by
/// first-block hash keeps every chain within one stripe.
#[derive(Debug)]
pub struct BlockPool {
    stripes: Vec<Mutex<PoolStripe>>,
    /// `sequence id -> stripe index`, so `release`/`free` can find a lease
    /// without re-deriving its chain. Always locked *before* any stripe.
    routes: Mutex<HashMap<u64, usize>>,
}

impl BlockPool {
    /// A pool of `capacity_blocks` blocks across `stripes` lock stripes
    /// (per-stripe capacity is the ceiling split, minimum 1).
    #[must_use]
    pub fn new(capacity_blocks: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        let per_stripe = capacity_blocks.div_ceil(stripes).max(1);
        Self {
            stripes: (0..stripes)
                .map(|_| Mutex::new(PoolStripe::new(per_stripe)))
                .collect(),
            routes: Mutex::new(HashMap::new()),
        }
    }

    /// Total block capacity across stripes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().capacity).sum()
    }

    /// Stripe count.
    #[must_use]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe_for(&self, first_hash: u64) -> usize {
        (first_hash % self.stripes.len() as u64) as usize
    }

    /// Pin blocks for sequence `seq` covering the full `chain` (block
    /// content hashes from block 0). Extends the sequence's existing lease
    /// when one exists — `chain` must then start with the already-leased
    /// hashes. Empty chains are a no-op grant.
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`] when the new blocks cannot fit even after
    /// evicting every reclaimable (unpinned) block; the pool is left
    /// unchanged.
    pub fn allocate(&self, seq: u64, chain: &[u64]) -> Result<AllocGrant, PoolExhausted> {
        let Some(&first) = chain.first() else {
            return Ok(AllocGrant {
                reused_blocks: 0,
                new_blocks: 0,
                lease_blocks: 0,
            });
        };
        let stripe = {
            let mut routes = self.routes.lock();
            *routes.entry(seq).or_insert_with(|| self.stripe_for(first))
        };
        let result = self.stripes[stripe].lock().allocate(seq, chain);
        if result.is_err() {
            // A failed first allocation leaves no lease; drop the route so
            // the sequence does not leak a routing slot.
            let mut routes = self.routes.lock();
            if !self.stripes[stripe].lock().leases.contains_key(&seq) {
                routes.remove(&seq);
            }
        }
        result
    }

    /// Pin as many *leading* blocks of `chain` as currently fit — used by
    /// schedulers only when nothing is left to preempt, so a lone oversized
    /// sequence still makes progress (its uncovered tail is simply never
    /// resident, like a streamed suffix). Never fails.
    pub fn allocate_prefix(&self, seq: u64, chain: &[u64]) -> AllocGrant {
        let held = self.lease_blocks(seq).unwrap_or(0);
        longest_feasible_prefix(held, chain, |prefix| self.allocate(seq, prefix))
    }

    fn with_lease_stripe(&self, seq: u64, op: impl FnOnce(&mut PoolStripe, u64)) {
        let stripe = {
            let mut routes = self.routes.lock();
            routes.remove(&seq)
        };
        if let Some(stripe) = stripe {
            op(&mut self.stripes[stripe].lock(), seq);
        }
    }

    /// Unpin `seq`'s lease; its blocks stay resident as reusable cache.
    pub fn release(&self, seq: u64) {
        self.with_lease_stripe(seq, |stripe, seq| stripe.release(seq));
    }

    /// Unpin `seq`'s lease and immediately drop its now-unreferenced
    /// childless blocks (preemption: recompute-on-resume).
    pub fn free(&self, seq: u64) {
        self.with_lease_stripe(seq, |stripe, seq| stripe.free(seq));
    }

    /// Evict up to `max_blocks` unpinned LRU leaf blocks (memory
    /// reclamation outside allocation pressure). Returns how many were
    /// evicted.
    pub fn evict_idle(&self, max_blocks: usize) -> usize {
        let mut remaining = max_blocks;
        for stripe in &self.stripes {
            if remaining == 0 {
                break;
            }
            remaining -= stripe.lock().evict_idle(remaining);
        }
        max_blocks - remaining
    }

    /// Resident leading blocks of `chain`, without pinning or touching
    /// LRU order.
    #[must_use]
    pub fn peek(&self, chain: &[u64]) -> usize {
        match chain.first() {
            Some(&first) => {
                let stripe = self.stripes[self.stripe_for(first)].lock();
                stripe.tree.walk(ROOT, chain, ()).count()
            }
            None => 0,
        }
    }

    /// Blocks currently pinned by `seq`'s lease (`None` when it holds no
    /// lease).
    #[must_use]
    pub fn lease_blocks(&self, seq: u64) -> Option<usize> {
        let stripe = *self.routes.lock().get(&seq)?;
        self.stripes[stripe].lock().leases.get(&seq).map(Vec::len)
    }

    /// Resident blocks across all stripes.
    #[must_use]
    pub fn live_blocks(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().tree.len()).sum()
    }

    /// Resident blocks with a nonzero reference count.
    #[must_use]
    pub fn pinned_blocks(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().pinned).sum()
    }

    /// Aggregate counters across all stripes.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for stripe in &self.stripes {
            let s = stripe.lock().stats;
            total.allocations += s.allocations;
            total.requested_blocks += s.requested_blocks;
            total.reused_blocks += s.reused_blocks;
            total.inserted_blocks += s.inserted_blocks;
            total.evicted_blocks += s.evicted_blocks;
            total.freed_blocks += s.freed_blocks;
            total.alloc_failures += s.alloc_failures;
        }
        total
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A chain of `n` private blocks for family `fam`.
    fn chain(fam: u64, n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| fam * 1_000 + i + 1).collect()
    }

    fn single(capacity: usize) -> BlockPool {
        BlockPool::new(capacity, 1)
    }

    #[test]
    fn allocate_release_reuse_roundtrip() {
        let pool = single(16);
        let c = chain(1, 4);
        let g = pool.allocate(10, &c).unwrap();
        assert_eq!((g.reused_blocks, g.new_blocks, g.lease_blocks), (0, 4, 4));
        assert_eq!(pool.live_blocks(), 4);
        assert_eq!(pool.pinned_blocks(), 4);
        pool.release(10);
        assert_eq!(pool.pinned_blocks(), 0);
        assert_eq!(pool.live_blocks(), 4, "released blocks stay resident");
        // A second sequence over the same chain reuses everything.
        let g = pool.allocate(11, &c).unwrap();
        assert_eq!((g.reused_blocks, g.new_blocks), (4, 0));
        assert_eq!(pool.stats().inserted_blocks, 4);
    }

    #[test]
    fn lease_extension_pins_only_the_delta() {
        let pool = single(16);
        let c = chain(2, 6);
        pool.allocate(7, &c[..2]).unwrap();
        let g = pool.allocate(7, &c[..5]).unwrap();
        assert_eq!((g.reused_blocks, g.new_blocks, g.lease_blocks), (0, 3, 5));
        assert_eq!(pool.lease_blocks(7), Some(5));
        assert_eq!(pool.stats().requested_blocks, 5, "2 then 3");
    }

    #[test]
    fn pinned_blocks_are_never_evicted() {
        let pool = single(4);
        pool.allocate(1, &chain(1, 3)).unwrap();
        // A second sequence needing 3 blocks cannot fit: only 1 slot free,
        // the other 3 are pinned.
        let err = pool.allocate(2, &chain(2, 3)).unwrap_err();
        assert_eq!(err.needed_blocks, 3);
        assert_eq!(err.reclaimable_blocks, 0);
        assert_eq!(pool.live_blocks(), 3, "failed allocation mutates nothing");
        assert_eq!(pool.stats().alloc_failures, 1);
        // Release sequence 1: its blocks become evictable, so 2 now fits.
        pool.release(1);
        pool.allocate(2, &chain(2, 3)).unwrap();
        assert!(pool.live_blocks() <= 4);
        assert!(pool.stats().evicted_blocks >= 2, "made room by evicting");
    }

    #[test]
    fn shared_prefixes_share_physical_blocks() {
        let pool = single(16);
        let mut a = chain(9, 3);
        let mut b = a.clone();
        a.push(100);
        b.push(200);
        pool.allocate(1, &a).unwrap();
        let g = pool.allocate(2, &b).unwrap();
        assert_eq!((g.reused_blocks, g.new_blocks), (3, 1));
        assert_eq!(pool.live_blocks(), 5, "3 shared + 2 private tails");
        // Freeing sequence 2 drops only its private tail.
        pool.free(2);
        assert_eq!(pool.live_blocks(), 4);
        assert_eq!(pool.stats().freed_blocks, 1);
        assert_eq!(pool.peek(&a), 4, "sequence 1's path is untouched");
    }

    #[test]
    fn free_keeps_released_prefixes_resident() {
        let pool = single(16);
        pool.allocate(1, &chain(3, 4)).unwrap();
        pool.release(1);
        // Another sequence pins the same prefix and is then preempted:
        // free() finds every block still referenced by nobody but with the
        // radix structure intact — they drop only if childless+unpinned.
        pool.allocate(2, &chain(3, 4)).unwrap();
        pool.free(2);
        assert_eq!(
            pool.live_blocks(),
            0,
            "fully unreferenced childless chain is dropped leaf-first"
        );
        assert_eq!(pool.stats().freed_blocks, 4);
    }

    #[test]
    fn accounting_reconciles() {
        let pool = BlockPool::new(8, 2);
        for seq in 0..6u64 {
            let _ = pool.allocate(seq, &chain(seq, 3));
            if seq % 2 == 0 {
                pool.release(seq);
            } else {
                pool.free(seq);
            }
        }
        pool.evict_idle(2);
        let s = pool.stats();
        assert_eq!(
            s.inserted_blocks - s.evicted_blocks - s.freed_blocks,
            pool.live_blocks() as u64
        );
        assert!(pool.live_blocks() <= pool.capacity());
    }

    #[test]
    fn allocate_prefix_pins_what_fits() {
        let pool = single(4);
        pool.allocate(1, &chain(1, 3)).unwrap();
        // Sequence 2 wants 6 blocks; only 1 slot is free.
        let g = pool.allocate_prefix(2, &chain(2, 6));
        assert_eq!(g.lease_blocks, 1);
        assert_eq!(pool.live_blocks(), 4);
        pool.release(1);
        // With 1 pinned, 3 reclaimable: the prefix can now grow to 4.
        let g = pool.allocate_prefix(2, &chain(2, 6));
        assert_eq!(g.lease_blocks, 4);
        assert_eq!(pool.pinned_blocks(), 4);
        // And an empty pool takes the whole chain of a fitting sequence.
        pool.free(2);
        let g = pool.allocate_prefix(3, &chain(3, 4));
        assert_eq!(g.lease_blocks, 4);
    }

    #[test]
    fn eviction_is_lru_leaf_first() {
        let pool = single(4);
        pool.allocate(1, &chain(1, 2)).unwrap();
        pool.release(1);
        pool.allocate(2, &chain(2, 2)).unwrap();
        pool.release(2);
        // Touch chain 1 (LRU refresh via reuse).
        pool.allocate(3, &chain(1, 2)).unwrap();
        pool.release(3);
        // A new 2-block chain must evict chain 2 (LRU), not chain 1.
        pool.allocate(4, &chain(4, 2)).unwrap();
        assert_eq!(pool.peek(&chain(1, 2)), 2, "recently-used chain survives");
        assert_eq!(pool.peek(&chain(2, 2)), 0, "LRU chain evicted");
    }

    #[test]
    fn empty_chains_and_unknown_sequences_are_noops() {
        let pool = single(4);
        let g = pool.allocate(1, &[]).unwrap();
        assert_eq!(g.lease_blocks, 0);
        pool.release(99);
        pool.free(99);
        assert_eq!(pool.live_blocks(), 0);
        assert_eq!(pool.lease_blocks(1), None);
        assert_eq!(pool.peek(&[]), 0);
    }

    #[test]
    fn failed_first_allocation_leaks_no_route() {
        let pool = single(2);
        pool.allocate(1, &chain(1, 2)).unwrap();
        assert!(pool.allocate(2, &chain(2, 2)).is_err());
        assert_eq!(pool.lease_blocks(2), None);
        // The sequence can retry later without a stale route.
        pool.release(1);
        assert!(pool.allocate(2, &chain(2, 2)).is_ok());
    }

    #[test]
    fn stats_delta_and_serialization() {
        let pool = single(8);
        pool.allocate(1, &chain(1, 3)).unwrap();
        let before = pool.stats();
        pool.release(1);
        pool.allocate(2, &chain(1, 3)).unwrap();
        let delta = pool.stats().delta_since(&before);
        assert_eq!(delta.reused_blocks, 3);
        assert_eq!(delta.inserted_blocks, 0);
        assert!((delta.reuse_rate().unwrap() - 1.0).abs() < 1e-12);
        let json = serde_json::to_string(&delta).unwrap();
        let back: PoolStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
        // Misordered snapshots saturate.
        assert_eq!(before.delta_since(&pool.stats()).allocations, 0);
    }

    // --- Differential: the incremental stripe against the scan-based one.

    use super::naive::NaiveStripe;
    use proptest::prelude::*;

    /// Blocks every sequence of a family shares before its variants fork.
    const SHARED_BLOCKS: usize = 3;

    /// `len` blocks of `(fam, variant)`: variants of one family share the
    /// first [`SHARED_BLOCKS`] physically, then branch.
    fn forked_chain(fam: u64, variant: u64, len: usize) -> Vec<u64> {
        (0..len)
            .map(|i| {
                let tail = if i < SHARED_BLOCKS { 0 } else { variant + 1 };
                (fam + 1) * 100_000 + tail * 1_000 + i as u64 + 1
            })
            .collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Allocate {
            seq: u64,
            fam: u64,
            variant: u64,
            len: usize,
        },
        AllocatePrefix {
            seq: u64,
            fam: u64,
            variant: u64,
            len: usize,
        },
        Release {
            seq: u64,
        },
        Free {
            seq: u64,
        },
        EvictIdle {
            n: usize,
        },
        Peek {
            fam: u64,
            variant: u64,
            len: usize,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let target = || (0..6u64, 0..3u64, 0..3u64, 0..12usize);
        prop_oneof![
            5 => target().prop_map(|(seq, fam, variant, len)| Op::Allocate { seq, fam, variant, len }),
            2 => target().prop_map(|(seq, fam, variant, len)| Op::AllocatePrefix { seq, fam, variant, len }),
            3 => (0..6u64).prop_map(|seq| Op::Release { seq }),
            3 => (0..6u64).prop_map(|seq| Op::Free { seq }),
            1 => (1..6usize).prop_map(|n| Op::EvictIdle { n }),
            1 => (0..3u64, 0..3u64, 0..12usize)
                .prop_map(|(fam, variant, len)| Op::Peek { fam, variant, len }),
        ]
    }

    /// Same residency, pins, recency and counters as the reference, and
    /// the counted index agrees with a scan of the nodes it summarises.
    fn assert_same_state(stripe: &PoolStripe, naive: &NaiveStripe, context: &str) {
        assert_eq!(stripe.stats, naive.stats, "{context}: stats");
        assert_eq!(
            stripe.tree.index, naive.index,
            "{context}: resident (parent, hash) set"
        );
        assert_eq!(stripe.tree.nodes, naive.nodes, "{context}: nodes");
        assert_eq!(stripe.leases, naive.leases, "{context}: leases");
        assert_eq!(stripe.pinned, naive.pinned(), "{context}: pinned count");
        let mut leaves: Vec<(u64, u64)> = naive
            .nodes
            .iter()
            .filter(|(_, n)| n.refs == 0 && n.children == 0)
            .map(|(&id, n)| (n.last_used, id))
            .collect();
        leaves.sort_unstable();
        let indexed: Vec<(u64, u64)> = stripe.tree.evictable.keys().collect();
        assert_eq!(indexed, leaves, "{context}: evictable leaves");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn incremental_stripe_matches_the_scan_reference(
            capacity in 2..20usize,
            ops in proptest::collection::vec(op_strategy(), 1..80),
        ) {
            let pool = BlockPool::new(capacity, 1);
            let mut naive = NaiveStripe::new(capacity);
            // A sequence's chain is fixed while it holds a lease; later
            // allocations only ever extend it (the pool contract).
            let mut held: HashMap<u64, (u64, u64, usize)> = HashMap::new();
            let target = |held: &HashMap<u64, (u64, u64, usize)>, seq, fam, variant, len: usize| {
                match held.get(&seq) {
                    Some(&(fam, variant, leased)) => forked_chain(fam, variant, leased.max(len)),
                    None => forked_chain(fam, variant, len),
                }
            };
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Allocate { seq, fam, variant, len } => {
                        let chain = target(&held, seq, fam, variant, len);
                        let got = pool.allocate(seq, &chain);
                        // The facade answers empty chains itself.
                        let want = if chain.is_empty() {
                            Ok(AllocGrant { reused_blocks: 0, new_blocks: 0, lease_blocks: 0 })
                        } else {
                            naive.allocate(seq, &chain)
                        };
                        prop_assert_eq!(got, want, "step {} {:?}", step, op);
                        if got.is_ok() && !chain.is_empty() {
                            let (fam, variant) = held.get(&seq).map_or((fam, variant), |h| (h.0, h.1));
                            held.insert(seq, (fam, variant, chain.len()));
                        }
                    }
                    Op::AllocatePrefix { seq, fam, variant, len } => {
                        let chain = target(&held, seq, fam, variant, len);
                        let got = pool.allocate_prefix(seq, &chain);
                        let leased = naive.leases.get(&seq).map_or(0, Vec::len);
                        let want = longest_feasible_prefix(leased, &chain, |prefix| {
                            naive.allocate(seq, prefix)
                        });
                        prop_assert_eq!(got, want, "step {} {:?}", step, op);
                        if got.lease_blocks > 0 {
                            let (fam, variant) = held.get(&seq).map_or((fam, variant), |h| (h.0, h.1));
                            held.insert(seq, (fam, variant, got.lease_blocks));
                        }
                    }
                    Op::Release { seq } => {
                        pool.release(seq);
                        naive.release(seq);
                        held.remove(&seq);
                    }
                    Op::Free { seq } => {
                        pool.free(seq);
                        naive.free(seq);
                        held.remove(&seq);
                    }
                    Op::EvictIdle { n } => {
                        prop_assert_eq!(pool.evict_idle(n), naive.evict_idle(n));
                    }
                    Op::Peek { fam, variant, len } => {
                        let chain = forked_chain(fam, variant, len);
                        prop_assert_eq!(pool.peek(&chain), naive.peek(&chain));
                    }
                }
                assert_same_state(&pool.stripes[0].lock(), &naive, &format!("step {step} {op:?}"));
                prop_assert_eq!(pool.pinned_blocks(), naive.pinned());
                prop_assert_eq!(pool.lease_blocks(0), naive.leases.get(&0).map(Vec::len));
            }
        }
    }
}
