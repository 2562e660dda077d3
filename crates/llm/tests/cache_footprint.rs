//! Allocations on the caches' hot paths: a prefix-cache hit (in a shard
//! alone, and through the warm tier into a shard), a KV block-pool lease
//! over a resident chain, a token-interner hit and a generation-memo hit.
//!
//! Every GEN goes through `StripedPrefixCache::lookup_insert_hashed` and
//! asks the interner for its prompt family's chain, a repeated GEN hits the
//! memo, and every serving step leases its sequences' chains from a
//! `BlockPool`, so what one call allocates is multiplied by the request
//! rate. These tests pin each with a counting allocator of their own; the
//! counters are per thread, so the harness running tests side by side
//! cannot disturb a reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use spear_core::llm::FinishReason;
use spear_llm::{
    BlockHasher, BlockPool, GenMemo, InternedChain, Lookup, MemoEntry, StripedPrefixCache, Token,
    TokenInterner,
};

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
fn a_warmed_prefix_with_a_resident_suffix_hits_without_allocating() {
    // Sixteen warmed blocks, then sixteen private ones the first call
    // inserts: every later call walks the warm tier, then the shard.
    let cache = StripedPrefixCache::new(16, 4096, 4);
    let tokens: Vec<Token> = (0..32 * 16 + 5).map(Token).collect();
    cache.warm(&tokens[..16 * 16]);
    let mut chain = Vec::new();
    BlockHasher::new(16).push_all(&tokens, &mut chain);
    assert_eq!(
        cache.lookup_insert_hashed(&chain, tokens.len(), 1),
        16 * 16,
        "the warmed prefix hits"
    );
    for _ in 0..3 {
        let mut hit = 0;
        let n = allocs(|| hit = cache.lookup_insert_hashed(&chain, tokens.len(), 1));
        assert_eq!(hit, chain.len() * 16, "the whole chain is resident");
        assert_eq!(n, 0, "a warm-then-shard hit made {n} allocations");
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

#[test]
fn a_resident_chain_hits_the_interner_without_allocating() {
    let interner = TokenInterner::new(64, 1);
    for key in 0..8 {
        interner.insert(
            key,
            InternedChain {
                tokens: (0..40).map(Token).collect(),
                pending: Arc::from(""),
                block_hashes: chain().into(),
            },
        );
    }
    for key in [3, 0, 3, 7] {
        let mut hit = None;
        let n = allocs(|| hit = interner.get(key));
        assert!(hit.is_some(), "chain {key} is resident");
        assert_eq!(n, 0, "a resident get made {n} allocations");
    }
}

#[test]
fn a_memo_hit_allocates_no_more_than_its_entry_clone() {
    let memo = GenMemo::new(1024);
    let entry = MemoEntry {
        text: "a generated answer".to_string(),
        confidence: 0.9,
        prompt_tokens: 512,
        completion_tokens: 4,
        finish: FinishReason::Stop,
        block_hashes: chain(),
    };
    let clone = allocs(|| drop(entry.clone()));
    // Enough keys that every lock stripe holds several.
    for key in 0..64 {
        let Lookup::Lead(lead) = memo.lookup_or_lead(key) else {
            panic!("an empty memo cannot hit");
        };
        lead.complete(entry.clone());
    }
    for key in [3, 0, 35, 3, 63] {
        let mut hit = None;
        let n = allocs(|| hit = Some(memo.lookup_or_lead(key)));
        assert!(matches!(hit, Some(Lookup::Hit(_))), "key {key} is resident");
        assert!(
            n <= clone,
            "a memo hit made {n} allocations, the clone {clone}"
        );
    }
}
