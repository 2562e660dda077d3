//! The stable FNV-1a hash the workspace keys on.
//!
//! The store itself routes nothing: it is one map. The rest of the
//! workspace (prefix cache, interner, tokenizer, router, plan identities)
//! hashes with these functions because their values must not change across
//! processes or Rust versions.

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
}
