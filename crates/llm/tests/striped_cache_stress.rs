//! Concurrency stress test for the lock-striped prefix cache.
//!
//! Eight threads (one per owner) hammer one [`StripedPrefixCache`] with
//! overlapping prefixes — some shared and pre-warmed, some private
//! extensions — in every interleaving the scheduler cares to produce.
//! The determinism contract says interleaving must be *unobservable*:
//! per-request hit counts and the aggregate [`CacheStats`] must match a
//! single-threaded replay of the same request log exactly.
//!
//! This is the cache-level half of the batch executor's byte-identical
//! trace invariant (`tests/concurrent_batch.rs` is the pipeline-level
//! half).

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use spear_llm::{BlockHasher, CacheStats, StripedPrefixCache, Token};

const BLOCK_SIZE: usize = 4;
const NUM_THREADS: usize = 8;
/// Far above the worst-case working set so LRU eviction — the documented
/// escape hatch from the determinism contract — never triggers.
const CAPACITY_BLOCKS: usize = 16 * 1024;
const NUM_SHARDS: usize = 8;

/// One cache request: start from a warm prefix, then diverge.
#[derive(Debug, Clone)]
struct Request {
    /// Index into the warm-prefix pool (modulo its length).
    prefix: usize,
    /// How many whole blocks of the warm prefix to keep.
    keep_blocks: usize,
    /// Private extension appended after the kept prefix.
    extension: Vec<u64>,
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (0usize..8, 0usize..4, vec(0u64..32, 0..16)).prop_map(|(prefix, keep_blocks, extension)| {
        Request {
            prefix,
            keep_blocks,
            extension,
        }
    })
}

/// The full token stream for a request given the warm pool.
fn tokens_of(req: &Request, warm: &[Vec<u64>]) -> Vec<Token> {
    let base = &warm[req.prefix % warm.len()];
    let keep = (req.keep_blocks * BLOCK_SIZE).min(base.len());
    base[..keep]
        .iter()
        .chain(req.extension.iter())
        .map(|&t| Token(t))
        .collect()
}

/// The cache's hashed lookup-then-insert of a token stream.
fn lookup_insert(cache: &StripedPrefixCache, tokens: &[Token], owner: u64) -> usize {
    let mut hashes = Vec::new();
    BlockHasher::new(BLOCK_SIZE).push_all(tokens, &mut hashes);
    cache.lookup_insert_hashed(&hashes, tokens.len(), owner)
}

fn fresh_cache(warm: &[Vec<u64>]) -> StripedPrefixCache {
    let cache = StripedPrefixCache::new(BLOCK_SIZE, CAPACITY_BLOCKS, NUM_SHARDS);
    for prefix in warm {
        let tokens: Vec<Token> = prefix.iter().map(|&t| Token(t)).collect();
        cache.warm(&tokens);
    }
    cache
}

/// Apply each owner's request log on its own thread, all at once.
fn run_concurrent(warm: &[Vec<u64>], logs: &[Vec<Request>]) -> (Vec<Vec<usize>>, CacheStats) {
    let cache = Arc::new(fresh_cache(warm));
    let mut hits: Vec<Vec<usize>> = Vec::with_capacity(logs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(t, log)| {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    let owner = t as u64 + 1;
                    log.iter()
                        .map(|req| lookup_insert(&cache, &tokens_of(req, warm), owner))
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        for handle in handles {
            hits.push(handle.join().expect("worker panicked"));
        }
    });
    (hits, cache.stats())
}

/// Apply the same logs owner-by-owner on one thread.
fn run_sequential(warm: &[Vec<u64>], logs: &[Vec<Request>]) -> (Vec<Vec<usize>>, CacheStats) {
    let cache = fresh_cache(warm);
    let hits = logs
        .iter()
        .enumerate()
        .map(|(t, log)| {
            let owner = t as u64 + 1;
            log.iter()
                .map(|req| lookup_insert(&cache, &tokens_of(req, warm), owner))
                .collect()
        })
        .collect();
    (hits, cache.stats())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_hits_match_single_threaded_replay(
        warm in vec(vec(0u64..32, 4..20), 1..5),
        logs in vec(vec(request_strategy(), 1..12), NUM_THREADS..(NUM_THREADS + 1)),
    ) {
        let (concurrent_hits, concurrent_stats) = run_concurrent(&warm, &logs);
        let (replay_hits, replay_stats) = run_sequential(&warm, &logs);

        for (owner, (got, want)) in
            concurrent_hits.iter().zip(replay_hits.iter()).enumerate()
        {
            prop_assert_eq!(
                got, want,
                "owner {} saw interleaving-dependent hit counts", owner + 1
            );
        }
        prop_assert_eq!(concurrent_stats, replay_stats);
        prop_assert_eq!(
            concurrent_stats.evicted_blocks, 0,
            "workload must stay under capacity for the contract to apply"
        );
    }

    #[test]
    fn repeated_requests_always_fully_hit(
        warm in vec(vec(0u64..32, 4..20), 1..3),
        req in request_strategy(),
    ) {
        // Sanity for the generator itself: issuing the same stream twice
        // under one owner must hit every whole block the second time
        // (lookup_insert_hashed reports cached *tokens*; the partial tail block
        // is never cached).
        let cache = fresh_cache(&warm);
        let tokens = tokens_of(&req, &warm);
        lookup_insert(&cache, &tokens, 1);
        let second = lookup_insert(&cache, &tokens, 1);
        prop_assert_eq!(second, (tokens.len() / BLOCK_SIZE) * BLOCK_SIZE);
    }
}

/// Deterministic (non-proptest) smoke: heavy contention on a single shared
/// prefix from all threads, many repetitions, so the test exercises real
/// lock contention even when proptest generates sparse workloads.
#[test]
fn contended_shared_prefix_is_interleaving_independent() {
    let warm: Vec<Vec<u64>> = vec![(0..16).collect()];
    let logs: Vec<Vec<Request>> = (0..NUM_THREADS)
        .map(|t| {
            (0..32)
                .map(|i| Request {
                    prefix: 0,
                    keep_blocks: 4,
                    extension: vec![t as u64 * 1000 + i % 3],
                })
                .collect()
        })
        .collect();
    for _ in 0..8 {
        let (concurrent_hits, concurrent_stats) = run_concurrent(&warm, &logs);
        let (replay_hits, replay_stats) = run_sequential(&warm, &logs);
        assert_eq!(concurrent_hits, replay_hits);
        assert_eq!(concurrent_stats, replay_stats);
    }
}
