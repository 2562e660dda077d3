//! The hasher of the engine's maps keyed by `u64`s it computed itself:
//! block content hashes, chain keys, memo keys and node or sequence ids.
//!
//! Those keys are FNV folds or counters, not caller text, and a block step
//! probes two or three such maps, so std's SipHash-1-3 is the largest part
//! of its cost. [`FoldHasher`] instead folds each word into its state
//! through one 64×64→128-bit multiply whose halves are XORed: every input
//! bit reaches both the low bits that pick a bucket and the high bits the
//! table compares, so consecutive ids and keys that differ only above bit
//! 32 spread as well as random ones. Each map draws its own seed from std's
//! `RandomState`, so where a key lands still differs per map and per
//! process. Maps keyed by caller strings keep std's hasher.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` under a [`FoldState`].
pub(crate) type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// A `HashSet` under a [`FoldState`].
pub(crate) type FoldSet<K> = HashSet<K, FoldState>;

/// The fold's odd multiplier: the 64-bit golden ratio.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// `a × b` in 128 bits, its halves XORed together.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// One map's seed; every hasher it builds starts from it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldState {
    seed: u64,
}

impl Default for FoldState {
    /// A fresh seed from std's `RandomState`, which differs per call.
    fn default() -> Self {
        Self {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// Folds each written word `x` as `state = fold(state ^ x)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write_u64(&mut self, x: u64) {
        self.state = folded_multiply(self.state ^ x, MULTIPLIER);
    }

    /// Any other key: its bytes as little-endian words, the last one
    /// zero-padded, then its length, so padding cannot collide.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in words.by_ref() {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(buf));
        }
        self.write_u64(bytes.len() as u64);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn every_map_draws_its_own_seed() {
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        assert_eq!(a.hash_one(7u64), a.hash_one(7u64), "one map, one hash");
    }

    /// Keys a counter or a shifted field produces: the shapes a weak
    /// `u64` hasher piles into a few buckets.
    fn structured_keys() -> Vec<u64> {
        let consecutive = 0..2_048u64;
        let high_words = (1..2_048u64).map(|i| i << 32);
        let both_words = (1..512u64).map(|i| (i << 32) | 1);
        consecutive.chain(high_words).chain(both_words).collect()
    }

    #[test]
    fn structured_keys_spread_over_the_low_bits() {
        // 1024 keys into 1024 buckets: a random function fills about
        // 1024 × (1 − 1/e) ≈ 647 of them, give or take ten.
        let state = FoldState::default();
        for shift in [0u32, 32] {
            let buckets: FoldSet<u64> = (0..1_024u64)
                .map(|i| state.hash_one(i << shift) & 1_023)
                .collect();
            assert!(
                buckets.len() > 550,
                "keys i << {shift} fill {} of 1024 buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn a_map_of_structured_keys_matches_an_ordered_model() {
        let keys = structured_keys();
        let mut map: FoldMap<u64, u64> = FoldMap::default();
        let mut tuples: FoldMap<(u64, u64, ()), usize> = FoldMap::default();
        let mut model = BTreeMap::new();
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(map.insert(key, i as u64), model.insert(key, i as u64));
            tuples.insert((key >> 32, key & 0xFFFF_FFFF, ()), i);
        }
        // Remove every third key, overwrite every fifth.
        for (i, &key) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(map.remove(&key), model.remove(&key));
            } else if i % 5 == 0 {
                assert_eq!(map.insert(key, 0), model.insert(key, 0));
            }
        }
        assert_eq!(map.len(), model.len());
        let mut resident: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        resident.sort_unstable();
        assert!(resident.into_iter().eq(model.into_iter()));
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(tuples[&(key >> 32, key & 0xFFFF_FFFF, ())], i);
        }
    }

    #[test]
    fn byte_keys_hash_their_length_and_every_byte() {
        let state = FoldState::default();
        let distinct: FoldSet<u64> = ["", "a", "a\0", "ab", "abcdefgh", "abcdefgh\0", "abcdefgi"]
            .iter()
            .map(|s| state.hash_one(s.as_bytes()))
            .collect();
        assert_eq!(distinct.len(), 7);
    }
}
