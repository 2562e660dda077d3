//! The radix block tree under both [`crate::cache::PrefixCache`] and
//! [`crate::pool::BlockPool`]: a chain of blocks is a root-first
//! path of nodes keyed by `(parent id, content hash, owner)`, so chains
//! that share a prefix share its nodes. Which blocks are evictable is the
//! caller's policy: the cache exempts the chain it is inserting, the pool
//! every pinned block. The cache's owner is a `u64` owner id; the pool's
//! blocks are physical, owned by `()`.
//!
//! Each block step is a probe of `index` and one or two of `nodes`, so both
//! maps hash with the crate's seeded fold hasher (`crate::hash`): their keys
//! are node ids the tree counts out and block hashes `BlockHasher` already
//! mixed, which SipHash would only mix again.

use std::hash::Hash;

use crate::hash::FoldMap;
use crate::lru::LruIndex;

/// Parent of every chain's first block; never a node id.
pub(crate) const ROOT: u64 = 0;

/// One resident block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Node<O> {
    pub(crate) parent: u64,
    pub(crate) hash: u64,
    pub(crate) owner: O,
    pub(crate) children: u32,
    /// Leases pinning the block (the pool's; always 0 in the cache).
    pub(crate) refs: u32,
    pub(crate) last_used: u64,
}

/// `(parent id, content hash, owner)`: what a block is found by.
pub(crate) type Key<O> = (u64, u64, O);

#[derive(Debug, Default)]
pub(crate) struct Tree<O> {
    pub(crate) index: FoldMap<Key<O>, u64>,
    pub(crate) nodes: FoldMap<u64, Node<O>>,
    /// The blocks eviction may take, in LRU order.
    pub(crate) evictable: LruIndex,
    /// The last id handed out (ids start after [`ROOT`]).
    last_id: u64,
}

impl<O: Copy + Eq + Hash> Tree<O> {
    /// Resident blocks.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The block of content `hash` under `parent`, tagged `owner`.
    pub(crate) fn find(&self, parent: u64, hash: u64, owner: O) -> Option<u64> {
        self.index.get(&(parent, hash, owner)).copied()
    }

    /// The resident blocks continuing `parent` along `hashes`, as far as
    /// they reach.
    pub(crate) fn walk<'a>(
        &'a self,
        parent: u64,
        hashes: &'a [u64],
        owner: O,
    ) -> impl Iterator<Item = u64> + 'a {
        hashes.iter().scan(parent, move |parent, &hash| {
            *parent = self.find(*parent, hash, owner)?;
            Some(*parent)
        })
    }

    /// Add a block under `parent` and return its id. The parent must not
    /// be in `evictable`: it is about to have a child.
    pub(crate) fn insert(&mut self, parent: u64, hash: u64, owner: O, refs: u32, tick: u64) -> u64 {
        self.last_id += 1;
        let id = self.last_id;
        self.index.insert((parent, hash, owner), id);
        self.nodes.insert(
            id,
            Node {
                parent,
                hash,
                owner,
                children: 0,
                refs,
                last_used: tick,
            },
        );
        if let Some(p) = self.nodes.get_mut(&parent) {
            p.children += 1;
        }
        id
    }

    /// Drop block `id`, which must already be out of `evictable`. Returns
    /// the parent this left childless and unpinned, with its `last_used`,
    /// for the caller to index as evictable if its policy allows.
    pub(crate) fn remove(&mut self, id: u64) -> Option<(u64, u64)> {
        let node = self.nodes.remove(&id)?;
        self.index.remove(&(node.parent, node.hash, node.owner));
        let parent = self.nodes.get_mut(&node.parent)?;
        parent.children = parent.children.saturating_sub(1);
        (parent.children == 0 && parent.refs == 0).then_some((node.parent, parent.last_used))
    }

    /// Drop every block. Ids keep counting up.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.evictable.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A root-first chain of `hashes` under `owner`, one tick each.
    fn chain(tree: &mut Tree<u64>, hashes: &[u64], owner: u64) -> Vec<u64> {
        let mut parent = ROOT;
        hashes
            .iter()
            .enumerate()
            .map(|(tick, &hash)| {
                parent = tree.insert(parent, hash, owner, 0, tick as u64);
                parent
            })
            .collect()
    }

    fn children(tree: &Tree<u64>, id: u64) -> u32 {
        tree.nodes[&id].children
    }

    #[test]
    fn child_counts_follow_inserts_and_removes() {
        let mut tree = Tree::default();
        let a = chain(&mut tree, &[1, 2, 3], 0);
        // A fork off a's first block, and the same hashes under another
        // owner, which are different blocks.
        let fork = tree.insert(a[0], 9, 0, 0, 5);
        let other = chain(&mut tree, &[1, 2], 7);
        assert_eq!(tree.len(), 6);
        assert_eq!(
            [a[0], a[1], a[2], fork, other[0]].map(|id| children(&tree, id)),
            [2, 1, 0, 0, 1]
        );
        assert_eq!(tree.find(ROOT, 1, 0), Some(a[0]));
        assert_eq!(tree.find(ROOT, 1, 7), Some(other[0]));
        assert_eq!(tree.walk(ROOT, &[1, 2, 4], 0).collect::<Vec<_>>(), a[..2]);
        assert_eq!(tree.walk(a[0], &[9, 1], 0).collect::<Vec<_>>(), [fork]);

        tree.remove(a[2]);
        assert_eq!(children(&tree, a[1]), 0);
        assert_eq!(children(&tree, a[0]), 2, "a[1] is still there");
        assert_eq!(tree.find(a[1], 3, 0), None, "the index forgets the block");
        assert_eq!(tree.walk(ROOT, &[1, 2, 3], 0).count(), 2);
        assert_eq!(tree.remove(a[2]), None, "removing twice is a no-op");
    }

    #[test]
    fn remove_reports_a_parent_it_left_childless_and_unpinned() {
        let mut tree = Tree::default();
        let a = chain(&mut tree, &[1, 2, 3], 0);
        let fork = tree.insert(a[0], 9, 0, 0, 8);
        // a[1] loses its only child: reported, at its own recency.
        assert_eq!(tree.remove(a[2]), Some((a[1], 1)));
        // a[0] still has the fork after losing a[1].
        assert_eq!(tree.remove(a[1]), None);
        assert_eq!(tree.remove(fork), Some((a[0], 0)));
        // A root block has no parent to report.
        assert_eq!(tree.remove(a[0]), None);
        assert_eq!(tree.len(), 0);

        // A pinned parent is not reported, even when left childless.
        let mut pinned: Tree<()> = Tree::default();
        let parent = pinned.insert(ROOT, 1, (), 1, 0);
        let child = pinned.insert(parent, 2, (), 0, 0);
        assert_eq!(pinned.remove(child), None);
        assert_eq!(pinned.nodes[&parent].children, 0);
    }

    #[test]
    fn clear_keeps_ids_fresh() {
        let mut tree = Tree::default();
        let first = chain(&mut tree, &[1, 2], 0);
        tree.evictable.insert(1, first[1]);
        tree.clear();
        assert_eq!(
            (tree.len(), tree.index.len(), tree.evictable.len()),
            (0, 0, 0)
        );
        let again = chain(&mut tree, &[1], 0);
        assert!(again[0] > first[1], "an id is never reused");
    }
}
