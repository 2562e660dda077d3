//! The scan-based pool the incremental one replaced, kept as the
//! reference the differential tests compare against: `protected()` rebuilds
//! the set of nodes that must survive on every feasibility check, and
//! `evict_one` scans every node for the LRU unpinned leaf.

use std::collections::HashSet;

use super::{AllocGrant, PoolExhausted, PoolStats};
use crate::hash::FoldMap;
use crate::tree::{Key, Node, ROOT};

#[derive(Debug, Default)]
pub(super) struct NaivePool {
    pub(super) capacity: usize,
    /// `(parent id, block hash) -> node id`. Blocks are physical — no
    /// owner tagging; sharing is the point.
    pub(super) index: FoldMap<Key<()>, u64>,
    pub(super) nodes: FoldMap<u64, Node<()>>,
    /// `sequence id -> pinned path (root-first node ids)`.
    pub(super) leases: FoldMap<u64, Vec<u64>>,
    pub(super) next_id: u64,
    pub(super) tick: u64,
    pub(super) stats: PoolStats,
}

impl NaivePool {
    pub(super) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            next_id: 1,
            ..Self::default()
        }
    }

    /// Node ids that must survive: every node with `refs > 0` plus all of
    /// its ancestors (evicting an ancestor would orphan a pinned block).
    fn protected(&self) -> HashSet<u64> {
        let mut keep = HashSet::new();
        for (&id, node) in &self.nodes {
            if node.refs == 0 {
                continue;
            }
            let mut cursor = id;
            while cursor != ROOT && keep.insert(cursor) {
                cursor = self.nodes[&cursor].parent;
            }
        }
        keep
    }

    /// Evict the LRU unpinned leaf. Returns `false` when nothing is
    /// evictable (every block pinned or an ancestor of a pinned block).
    fn evict_one(&mut self) -> bool {
        let victim = self
            .nodes
            .iter()
            .filter(|(_, n)| n.children == 0 && n.refs == 0)
            .min_by_key(|(&id, n)| (n.last_used, id))
            .map(|(&id, _)| id);
        let Some(id) = victim else {
            return false;
        };
        self.remove_node(id);
        self.stats.evicted_blocks += 1;
        true
    }

    fn remove_node(&mut self, id: u64) {
        let Some(node) = self.nodes.remove(&id) else {
            return;
        };
        self.index.remove(&(node.parent, node.hash, node.owner));
        if node.parent != ROOT {
            if let Some(parent) = self.nodes.get_mut(&node.parent) {
                parent.children = parent.children.saturating_sub(1);
            }
        }
    }

    /// Extend (or create) `seq`'s lease to cover the full `chain`.
    pub(super) fn allocate(
        &mut self,
        seq: u64,
        chain: &[u64],
    ) -> Result<AllocGrant, PoolExhausted> {
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
        let mut parent = lease.last().copied().unwrap_or(ROOT);
        let mut resident = Vec::new();
        for &hash in &chain[start..] {
            match self.index.get(&(parent, hash, ())) {
                Some(&id) => {
                    resident.push(id);
                    parent = id;
                }
                None => break,
            }
        }
        let new_needed = requested - resident.len();

        // Feasibility before mutation: can eviction make enough room
        // without touching a pinned path (ours included, once pinned)?
        let evictions_needed = (self.nodes.len() + new_needed).saturating_sub(self.capacity);
        if evictions_needed > 0 {
            let mut keep = self.protected();
            // The resident extension (and its ancestors, already on the
            // lease) is about to be pinned — protect it now so we neither
            // evict it nor count it as reclaimable.
            for &id in &resident {
                keep.insert(id);
            }
            for &id in lease.iter() {
                keep.insert(id);
            }
            let reclaimable = self.nodes.len() - keep.len();
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
            let node = self.nodes.get_mut(&id).expect("resident node exists");
            node.refs += 1;
            node.last_used = tick;
            lease.push(id);
        }
        let mut parent = lease.last().copied().unwrap_or(ROOT);
        for &hash in &chain[start + resident.len()..] {
            while self.nodes.len() >= self.capacity {
                let evicted = self.evict_one();
                debug_assert!(evicted, "feasibility check guarantees room");
                if !evicted {
                    break;
                }
            }
            let id = self.next_id;
            self.next_id += 1;
            self.index.insert((parent, hash, ()), id);
            self.nodes.insert(
                id,
                Node {
                    parent,
                    hash,
                    owner: (),
                    children: 0,
                    refs: 1,
                    last_used: tick,
                },
            );
            if parent != ROOT {
                if let Some(p) = self.nodes.get_mut(&parent) {
                    p.children += 1;
                }
            }
            self.stats.inserted_blocks += 1;
            lease.push(id);
            parent = id;
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
    pub(super) fn release(&mut self, seq: u64) {
        let Some(lease) = self.leases.remove(&seq) else {
            return;
        };
        for id in lease {
            if let Some(node) = self.nodes.get_mut(&id) {
                debug_assert!(node.refs > 0, "released block must be pinned");
                node.refs = node.refs.saturating_sub(1);
            }
        }
    }

    /// Unpin `seq`'s lease and drop every block on it that is now
    /// unreferenced and childless (leaf-first, so private suffixes vanish
    /// while shared prefixes survive).
    pub(super) fn free(&mut self, seq: u64) {
        let Some(lease) = self.leases.remove(&seq) else {
            return;
        };
        for &id in lease.iter().rev() {
            let Some(node) = self.nodes.get_mut(&id) else {
                continue;
            };
            debug_assert!(node.refs > 0, "freed block must be pinned");
            node.refs = node.refs.saturating_sub(1);
            if node.refs == 0 && node.children == 0 {
                self.remove_node(id);
                self.stats.freed_blocks += 1;
            }
        }
    }

    /// Resident leading blocks of `chain` (no pinning, no LRU touch).
    pub(super) fn peek(&self, chain: &[u64]) -> usize {
        let mut parent = ROOT;
        let mut matched = 0;
        for &hash in chain {
            match self.index.get(&(parent, hash, ())) {
                Some(&id) => {
                    parent = id;
                    matched += 1;
                }
                None => break,
            }
        }
        matched
    }

    pub(super) fn pinned(&self) -> usize {
        self.nodes.values().filter(|n| n.refs > 0).count()
    }
}
