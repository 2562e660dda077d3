//! Hash-based shard routing.
//!
//! The store splits its keyspace across a fixed number of shards, each
//! protected by its own `RwLock`, so unrelated keys never contend. Shard
//! selection uses a stable FNV-1a hash of the key bytes — stable so that the
//! mapping survives process restarts, which matters when replaying a
//! persistence log into a store with the same shard count.

/// Default number of shards. A small power of two keeps the modulo cheap and
/// is plenty for the prompt/context workloads SPEAR generates.
pub const DEFAULT_SHARDS: usize = 16;

/// FNV-1a 64-bit offset basis — the initial state of the hash.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a hash. Deliberately not `DefaultHasher`: we need a hash that
/// is stable across Rust versions and processes.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// Fold `bytes` into an in-progress FNV-1a state. Because FNV-1a is a plain
/// byte fold, hashing a stream in arbitrary chunks yields exactly the same
/// value as hashing the concatenation in one call — which is what lets the
/// prefix cache hash token blocks incrementally without materializing a
/// byte buffer.
#[must_use]
#[inline]
pub fn fnv1a_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV1A_PRIME);
    }
    h
}

/// Map a key to a shard index in `0..num_shards`.
///
/// # Panics
///
/// Panics if `num_shards` is zero; the store builder guarantees it never is.
#[must_use]
pub fn shard_for(key: &str, num_shards: usize) -> usize {
    assert!(num_shards > 0, "shard count must be non-zero");
    (fnv1a(key.as_bytes()) % num_shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Reference values for FNV-1a 64-bit.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_extend_equals_batch_hash() {
        let data = "the quick brown fox jumps over the lazy dog 🦀".as_bytes();
        let batch = fnv1a(data);
        for split in 0..=data.len() {
            let streamed = fnv1a_extend(fnv1a_extend(FNV1A_OFFSET, &data[..split]), &data[split..]);
            assert_eq!(streamed, batch, "split at {split}");
        }
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b""), fnv1a(b""));
    }

    #[test]
    fn shard_is_stable_and_in_range() {
        for key in ["", "a", "prompt/qa", "ctx/answer_0", "🦀"] {
            let s = shard_for(key, DEFAULT_SHARDS);
            assert!(s < DEFAULT_SHARDS);
            assert_eq!(s, shard_for(key, DEFAULT_SHARDS), "must be deterministic");
        }
    }

    #[test]
    fn keys_spread_across_shards() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..256 {
            seen.insert(shard_for(&format!("key-{i}"), DEFAULT_SHARDS));
        }
        // With 256 keys over 16 shards, expect every shard hit.
        assert_eq!(seen.len(), DEFAULT_SHARDS);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_shards_panics() {
        let _ = shard_for("k", 0);
    }
}
