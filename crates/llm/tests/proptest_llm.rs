//! Property tests for the inference simulator: the radix prefix cache must
//! agree with a brute-force reference model, and the latency model must be
//! monotone in cached tokens.

use std::collections::HashSet;

use proptest::prelude::*;
use spear_llm::{BlockHasher, ModelProfile, PrefixCache, Token, SHARED_OWNER};

const BLOCK: usize = 4;

/// Full-block hashes of `tokens`: the cache's one way in.
fn hashes(tokens: &[Token]) -> Vec<u64> {
    let mut out = Vec::new();
    BlockHasher::new(BLOCK).push_all(tokens, &mut out);
    out
}

fn insert(cache: &mut PrefixCache, tokens: &[Token]) {
    cache.insert(&hashes(tokens), SHARED_OWNER);
}

fn lookup(cache: &mut PrefixCache, tokens: &[Token]) -> usize {
    cache.lookup(&hashes(tokens), tokens.len(), SHARED_OWNER)
}

/// Reference model: the set of inserted block-aligned prefixes; a lookup
/// returns the longest block-aligned prefix of the query present in the set.
#[derive(Default)]
struct ReferenceCache {
    prefixes: HashSet<Vec<u64>>,
}

impl ReferenceCache {
    fn insert(&mut self, tokens: &[u64]) {
        let full_blocks = tokens.len() / BLOCK;
        for b in 1..=full_blocks {
            self.prefixes.insert(tokens[..b * BLOCK].to_vec());
        }
    }

    fn lookup(&self, tokens: &[u64]) -> usize {
        let full_blocks = tokens.len() / BLOCK;
        (1..=full_blocks)
            .rev()
            .find(|b| self.prefixes.contains(&tokens[..b * BLOCK]))
            .map_or(0, |b| b * BLOCK)
    }
}

fn token_seq() -> impl Strategy<Value = Vec<u64>> {
    // A tiny alphabet maximizes shared prefixes between sequences.
    proptest::collection::vec(0u64..4, 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Without eviction pressure, the radix cache's hit lengths match the
    /// brute-force reference on arbitrary insert/lookup interleavings.
    #[test]
    fn prefix_cache_matches_reference_model(
        ops in proptest::collection::vec((any::<bool>(), token_seq()), 1..40)
    ) {
        let mut cache = PrefixCache::new(BLOCK, 1 << 16);
        let mut reference = ReferenceCache::default();
        for (is_insert, raw) in &ops {
            let tokens: Vec<Token> = raw.iter().map(|&t| Token(t)).collect();
            if *is_insert {
                insert(&mut cache, &tokens);
                reference.insert(raw);
            } else {
                prop_assert_eq!(lookup(&mut cache, &tokens), reference.lookup(raw));
            }
        }
    }

    /// Hit length never exceeds the block-aligned query length, and
    /// lookup-after-insert of the same sequence returns all full blocks.
    #[test]
    fn lookup_bounds(raw in token_seq()) {
        let tokens: Vec<Token> = raw.iter().map(|&t| Token(t)).collect();
        let mut cache = PrefixCache::new(BLOCK, 1 << 16);
        prop_assert_eq!(lookup(&mut cache, &tokens), 0, "cold cache misses");
        insert(&mut cache, &tokens);
        let hit = lookup(&mut cache, &tokens);
        prop_assert_eq!(hit, (raw.len() / BLOCK) * BLOCK);
    }

    /// The latency model is strictly decreasing in cached tokens (at fixed
    /// totals) and strictly increasing in decode tokens, for every
    /// evaluation profile.
    #[test]
    fn latency_monotonicity(
        prompt in 1u64..2000,
        cached_a in 0u64..2000,
        cached_b in 0u64..2000,
        decode in 0u64..500,
    ) {
        let lo = cached_a.min(cached_b).min(prompt);
        let hi = cached_a.max(cached_b).min(prompt);
        prop_assume!(lo < hi);
        for profile in ModelProfile::evaluation_models() {
            let more_cached = profile.latency_us(prompt - hi, hi, decode);
            let less_cached = profile.latency_us(prompt - lo, lo, decode);
            prop_assert!(
                more_cached < less_cached,
                "{}: caching more must be faster",
                profile.name
            );
            let more_decode = profile.latency_us(prompt, 0, decode + 1);
            let base = profile.latency_us(prompt, 0, decode);
            prop_assert!(more_decode > base);
        }
    }

    /// Evicting caches never return hits for sequences they could not
    /// still hold (sanity under pressure: no phantom hits longer than the
    /// query, never a panic).
    #[test]
    fn eviction_pressure_is_safe(
        ops in proptest::collection::vec(token_seq(), 1..30)
    ) {
        let mut cache = PrefixCache::new(BLOCK, 4); // tiny: constant eviction
        for raw in &ops {
            let tokens: Vec<Token> = raw.iter().map(|&t| Token(t)).collect();
            insert(&mut cache, &tokens);
            let hit = lookup(&mut cache, &tokens);
            prop_assert!(hit <= tokens.len());
            prop_assert_eq!(hit % BLOCK, 0, "hits are block-aligned");
            prop_assert!(cache.len_blocks() <= 4 + 1);
        }
    }
}
