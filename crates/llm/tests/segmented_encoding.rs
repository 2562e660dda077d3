//! Property tests for the host fast path (DESIGN.md §10).
//!
//! Two invariants keep the fast path observably invisible: encoding a
//! prompt segment-by-segment through the [`StreamingEncoder`] must equal
//! encoding the joined string in one pass, for *any* segment split — the
//! splits land mid-word, mid-punctuation, and between multi-byte
//! characters — and the [`TokenInterner`] must stay bounded and
//! content-consistent under concurrent access.

use std::sync::Arc;

use proptest::prelude::*;
use spear_core::llm::{GenRequest, LlmClient};
use spear_core::segment::{SegmentedText, TextSegment};
use spear_kv::shard::fnv1a;
use spear_llm::{
    chain_key, InternedChain, ModelProfile, SimLlm, StreamingEncoder, Token, TokenInterner,
    Tokenizer, CHAIN_SEED,
};

/// Words and punctuation, plus the task model's markers whole and in
/// halves (so a split lands inside one), word-limit phrases and digit runs
/// (so a number continues across segments), and fold edge cases: Σ (final
/// sigma), İ (lowercases to 3 bytes) and the Kelvin sign (lowercases to
/// ASCII `k`).
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z]{1,12}",
        "[A-Z0-9]{1,8}",
        Just(" ".to_string()),
        Just("\n".to_string()),
        Just(", ".to_string()),
        Just("! ".to_string()),
        Just("wörter, naïve".to_string()),
        Just("don't".to_string()),
        Just("{{x}}".to_string()),
        Just("summa".to_string()),
        Just("rize".to_string()),
        Just("Summarize".to_string()),
        Just("Classify the sentiment".to_string()),
        Just("Tw".to_string()),
        Just("eet: ".to_string()),
        Just("Input:".to_string()),
        Just("at most ".to_string()),
        Just("word limit of ".to_string()),
        "[0-9]{1,3}",
        Just("Σ".to_string()),
        Just("İ".to_string()),
        Just("\u{212A}".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Streaming encoding over an arbitrary split equals whole-string
    /// encoding — the foundation the interner's resume-from-chain logic
    /// rests on.
    #[test]
    fn streaming_over_any_split_equals_whole_string_encoding(
        fragments in proptest::collection::vec(fragment(), 0..12)
    ) {
        let text: String = fragments.concat();
        let tokenizer = Tokenizer::new();
        let expected = tokenizer.encode(&text);
        let mut encoder = StreamingEncoder::new();
        let mut got = Vec::new();
        for f in &fragments {
            encoder.feed(f, &mut got);
        }
        encoder.finish(&mut got);
        prop_assert_eq!(got, expected);
    }

    /// End to end: a segmented request (arbitrary literal/value split)
    /// produces a byte-identical `GenResponse` to the same text sent flat,
    /// on the first pass (cold interner) and the second (warm chains).
    /// Debug asserts inside the engine additionally pin the token count
    /// against a full recount.
    #[test]
    fn segmented_requests_are_engine_equivalent(
        pieces in proptest::collection::vec((any::<bool>(), fragment()), 1..8)
    ) {
        let fast = SimLlm::new(ModelProfile::qwen25_7b_instruct());
        let flat = SimLlm::new(ModelProfile::qwen25_7b_instruct());
        // Two passes: the second resumes from chains the first interned.
        for _pass in 0..2 {
            let mut segments = SegmentedText::new();
            for (literal, text) in &pieces {
                if *literal {
                    segments.push_segment(TextSegment::from_shared(
                        Arc::from(text.as_str()),
                        fnv1a(text.as_bytes()),
                    ));
                } else {
                    segments.push(text.clone());
                }
            }
            let text = segments.join();
            prop_assume!(!text.is_empty());
            let seg_req =
                GenRequest::structured(text.clone(), "view:prop@1#0/v1").with_segments(segments);
            let flat_req = GenRequest::structured(text, "view:prop@1#0/v1");
            prop_assert_eq!(
                fast.generate(&seg_req).unwrap(),
                flat.generate(&flat_req).unwrap()
            );
        }
    }
}

/// Hammer a small interner from many threads over an overlapping keyspace
/// larger than its capacity: residency stays bounded, the counters add up,
/// and every hit returns the content its key determines (no cross-key
/// corruption under eviction races).
#[test]
fn interner_is_bounded_and_consistent_under_concurrent_access() {
    let capacity = 32;
    let interner: TokenInterner = TokenInterner::new(capacity);
    let threads = 8;
    let per_thread = 400;
    std::thread::scope(|s| {
        for t in 0..threads {
            let interner = &interner;
            s.spawn(move || {
                for i in 0..per_thread {
                    let salt = ((t + i) % 48) as u64;
                    let key = chain_key(CHAIN_SEED, salt);
                    match interner.get(key) {
                        Some(chain) => {
                            assert_eq!(chain.tokens.len(), (salt as usize % 7) + 1);
                            assert_eq!(chain.block_hashes.as_ref(), &[salt]);
                            assert_eq!(chain.tokens[0], Token(salt));
                        }
                        None => {
                            interner.insert(
                                key,
                                InternedChain {
                                    tokens: (0..(salt as usize % 7) + 1)
                                        .map(|j| Token(salt ^ j as u64))
                                        .collect(),
                                    pending: Arc::from(""),
                                    block_hashes: Arc::from(&[salt][..]),
                                },
                            );
                        }
                    }
                }
            });
        }
    });
    let stats = interner.stats();
    assert!(stats.resident <= capacity as u64, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, (threads * per_thread) as u64);
    assert_eq!(
        stats.resident,
        stats.insertions - stats.evictions,
        "{stats:?}"
    );
    assert!(stats.evictions > 0, "keyspace exceeds capacity: {stats:?}");
}
