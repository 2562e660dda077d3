//! Adapters that keep the names the stand-alone `benchmark/` crate calls
//! while the product changes underneath. Each is a thin shell over the
//! current design; DESIGN.md §18 lists every one with the call site that
//! needs it, and `scripts/compat.sh` fails on an adapter without a row.

use std::cell::RefCell;

use crate::pool::{self, AllocGrant, PoolExhausted};

/// The owned [`pool::BlockPool`] behind `&self`, with the stripe argument
/// the pool no longer has. A `RefCell`, not a lock: the adapter is
/// `!Sync`, so it cannot be shared between threads.
#[derive(Debug)]
pub struct BlockPool(RefCell<pool::BlockPool>);

impl BlockPool {
    /// A pool of `capacity_blocks` blocks.
    ///
    /// # Panics
    ///
    /// When `stripes` is not 1: the pool is not striped.
    #[must_use]
    pub fn new(capacity_blocks: usize, stripes: usize) -> Self {
        assert_eq!(stripes, 1, "the block pool has no stripes");
        Self(RefCell::new(pool::BlockPool::new(capacity_blocks)))
    }

    /// [`pool::BlockPool::allocate`].
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`], as the owned pool.
    pub fn allocate(&self, seq: u64, chain: &[u64]) -> Result<AllocGrant, PoolExhausted> {
        self.0.borrow_mut().allocate(seq, chain)
    }

    /// [`pool::BlockPool::allocate_prefix`].
    pub fn allocate_prefix(&self, seq: u64, chain: &[u64]) -> AllocGrant {
        self.0.borrow_mut().allocate_prefix(seq, chain)
    }

    /// [`pool::BlockPool::release`].
    pub fn release(&self, seq: u64) {
        self.0.borrow_mut().release(seq);
    }

    /// [`pool::BlockPool::free`].
    pub fn free(&self, seq: u64) {
        self.0.borrow_mut().free(seq);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no stripes")]
    fn a_striped_pool_is_refused() {
        let _ = BlockPool::new(8, 2);
    }

    #[test]
    fn the_adapter_grants_what_the_owned_pool_grants() {
        let chain = |fam: u64, n: u64| (1..=n).map(|i| fam * 100 + i).collect::<Vec<_>>();
        let adapter = BlockPool::new(6, 1);
        let mut owned = pool::BlockPool::new(6);
        // Sequence 1 holds four blocks, so sequence 2's five do not fit and
        // it pins the prefix that does.
        let first = adapter.allocate(1, &chain(1, 4));
        assert_eq!(first, owned.allocate(1, &chain(1, 4)));
        let refused = adapter.allocate(2, &chain(2, 5));
        assert_eq!(refused, owned.allocate(2, &chain(2, 5)));
        assert!(refused.is_err());
        let prefix = adapter.allocate_prefix(2, &chain(2, 5));
        assert_eq!(prefix, owned.allocate_prefix(2, &chain(2, 5)));
        assert_eq!(prefix.lease_blocks, 2);
        // Preempt 2 and finish 1: a longer chain of family 1 reuses its
        // four blocks.
        adapter.free(2);
        owned.free(2);
        adapter.release(1);
        owned.release(1);
        let reuse = adapter.allocate(3, &chain(1, 6));
        assert_eq!(reuse, owned.allocate(3, &chain(1, 6)));
        assert_eq!(reuse.map(|g| g.reused_blocks), Ok(4));
        assert_eq!(adapter.0.borrow().stats(), owned.stats());
    }
}
