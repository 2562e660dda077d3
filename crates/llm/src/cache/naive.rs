//! The scan-evicting prefix cache the leaf index replaced, cut down to the
//! hashed lookup/insert path and kept as the reference the differential
//! test compares against: every eviction scans all blocks for the least
//! recently used leaf not touched at the current tick (ties, which the
//! scan used to leave to map iteration order, go to the smaller id).
//! Warm blocks are ordinary shared nodes here, pinned by `refs = 1`: never
//! evicted, outside the capacity and the stats.

use std::collections::HashMap;

use super::{CacheStats, SHARED_OWNER};
use crate::tree::{Key, Node, ROOT};

pub(super) struct NaivePrefixCache {
    block_size: usize,
    capacity_blocks: usize,
    pub(super) index: HashMap<Key<u64>, u64>,
    pub(super) nodes: HashMap<u64, Node<u64>>,
    next_id: u64,
    tick: u64,
    pub(super) stats: CacheStats,
}

impl NaivePrefixCache {
    pub(super) fn new(block_size: usize, capacity_blocks: usize) -> Self {
        Self {
            block_size: block_size.max(1),
            capacity_blocks: capacity_blocks.max(1),
            index: HashMap::new(),
            nodes: HashMap::new(),
            next_id: 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

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

    /// Resident blocks that count against the capacity: all but the
    /// pinned warm ones.
    fn live_len(&self) -> usize {
        self.nodes.values().filter(|n| n.refs == 0).count()
    }

    /// Warm `block_hashes` as pinned shared blocks, taking their ids from
    /// `next_warm_id`. Where a live shared block already continues the
    /// pinned head, the whole chain is an ordinary shared insert instead;
    /// returns whether that happened.
    pub(super) fn warm_for_hashed(
        &mut self,
        block_hashes: &[u64],
        mut next_warm_id: impl FnMut() -> u64,
    ) -> bool {
        let mut parent = ROOT;
        for (i, &hash) in block_hashes.iter().enumerate() {
            match self.index.get(&(parent, hash, SHARED_OWNER)) {
                Some(&id) if self.nodes[&id].refs > 0 => parent = id,
                Some(_) => {
                    self.insert_for_hashed(block_hashes, SHARED_OWNER);
                    return true;
                }
                None => {
                    for &hash in &block_hashes[i..] {
                        let id = next_warm_id();
                        self.index.insert((parent, hash, SHARED_OWNER), id);
                        self.nodes.insert(
                            id,
                            Node {
                                parent,
                                hash,
                                owner: SHARED_OWNER,
                                children: 0,
                                refs: 1,
                                last_used: 0,
                            },
                        );
                        parent = id;
                    }
                    return false;
                }
            }
        }
        false
    }

    pub(super) fn lookup_for_hashed(
        &mut self,
        block_hashes: &[u64],
        total_tokens: usize,
        owner: u64,
    ) -> usize {
        self.tick += 1;
        self.stats.lookups += 1;
        self.stats.lookup_tokens += total_tokens as u64;
        let mut parent = ROOT;
        let mut matched_blocks = 0usize;
        for &hash in block_hashes {
            match self.visible(parent, hash, owner) {
                Some(id) => {
                    if let Some(node) = self.nodes.get_mut(&id) {
                        node.last_used = self.tick;
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

    pub(super) fn insert_for_hashed(&mut self, block_hashes: &[u64], owner: u64) {
        self.tick += 1;
        let mut parent = ROOT;
        for &hash in block_hashes {
            let id = match self.visible(parent, hash, owner) {
                Some(id) => {
                    if let Some(node) = self.nodes.get_mut(&id) {
                        node.last_used = self.tick;
                    }
                    id
                }
                None => {
                    self.evict_to_fit();
                    if self.live_len() >= self.capacity_blocks {
                        break;
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    self.index.insert((parent, hash, owner), id);
                    self.nodes.insert(
                        id,
                        Node {
                            parent,
                            hash,
                            owner,
                            children: 0,
                            refs: 0,
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
    }

    fn evict_to_fit(&mut self) {
        while self.live_len() >= self.capacity_blocks {
            let victim = self
                .nodes
                .iter()
                .filter(|(_, n)| n.children == 0 && n.refs == 0 && n.last_used != self.tick)
                .min_by_key(|(&id, n)| (n.last_used, id))
                .map(|(&id, _)| id);
            let Some(id) = victim else {
                return;
            };
            let node = self.nodes.remove(&id).expect("victim exists");
            self.index.remove(&(node.parent, node.hash, node.owner));
            if node.parent != ROOT {
                if let Some(p) = self.nodes.get_mut(&node.parent) {
                    p.children = p.children.saturating_sub(1);
                }
            }
            self.stats.evicted_blocks += 1;
        }
    }

    pub(super) fn clear(&mut self) {
        self.stats.freed_blocks += self.live_len() as u64;
        self.index.clear();
        self.nodes.clear();
    }
}
