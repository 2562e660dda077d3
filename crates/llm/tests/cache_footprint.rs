//! Allocations on the block tree's two hot paths: a prefix-cache hit and
//! a KV block-pool lease over a resident chain.
//!
//! Every GEN goes through `StripedPrefixCache::lookup_insert_hashed`, and
//! every serving step leases its sequences' chains from a `BlockPool`, so
//! what one call allocates is multiplied by the request rate. These tests
//! pin both with a counting allocator of their own; the counters are per
//! thread, so the harness running tests side by side cannot disturb a
//! reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spear_llm::{BlockPool, StripedPrefixCache};

thread_local! {
    // Const-initialised and without destructors: touching it never
    // allocates, which an allocator must not do.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised
// thread-local and so never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls this thread makes while running `op`.
fn allocs(op: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    op();
    ALLOCS.get() - before
}

/// A 32-block content-hash chain, as `BlockHasher` would emit it.
fn chain() -> Vec<u64> {
    (0..32).map(|i| 0x9E37_79B9_7F4A_7C15 ^ i).collect()
}

#[test]
fn a_resident_chain_hits_the_prefix_cache_without_allocating() {
    let cache = StripedPrefixCache::new(16, 4096, 4);
    let chain = chain();
    let tokens = chain.len() * 16 + 5;
    assert_eq!(cache.lookup_insert_hashed(&chain, tokens, 1), 0);
    for _ in 0..3 {
        let mut hit = 0;
        let n = allocs(|| hit = cache.lookup_insert_hashed(&chain, tokens, 1));
        assert_eq!(hit, chain.len() * 16, "the whole chain is resident");
        assert_eq!(n, 0, "a resident hit made {n} allocations");
    }
}

#[test]
fn leasing_a_resident_chain_allocates_at_most_its_two_paths() {
    let pool = BlockPool::new(64, 1);
    let chain = chain();
    pool.allocate(1, &chain).expect("fits");
    pool.release(1);
    for seq in 2..5 {
        let n = allocs(|| {
            let grant = pool.allocate(seq, &chain).expect("fits");
            assert_eq!(grant.reused_blocks, chain.len());
            pool.release(seq);
        });
        // The resident extension and the lease are each a growing Vec of
        // 32 ids: four allocations apiece.
        assert!(n <= 8, "allocate + release made {n} allocations");
    }
    assert_eq!(pool.stats().inserted_blocks, chain.len() as u64);
}
