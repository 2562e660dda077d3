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
    chain_key, EngineConfig, InternedChain, ModelProfile, SimLlm, StreamingEncoder, Token,
    TokenInterner, Tokenizer, CHAIN_SEED,
};

/// Words and punctuation, plus the task model's markers whole and in
/// halves (so a split lands inside one), the fused-section header whole
/// and split, word-limit phrases and digit runs (so a number continues
/// across segments), and fold edge cases: Σ (final sigma), İ (lowercases
/// to 3 bytes) and the Kelvin sign (lowercases to ASCII `k`).
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
        Just("in this order:".to_string()),
        Just("in this or".to_string()),
        Just("der: ".to_string()),
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

    /// A run of requests on one thread, each keeping a leading run of the
    /// previous one's segments and replacing or extending the rest (a
    /// refined prompt's next GEN), resumes from the thread's previous
    /// prefill wherever it can: the interner and the prefix cache count
    /// what a twin sending each request from a fresh thread, with nothing
    /// to resume from, counts, and every response equals the flat text's
    /// on a twin that saw the same requests afterwards (a flat request in
    /// between would leave the thread nothing to resume from).
    #[test]
    fn requests_resumed_from_the_previous_prefill_are_engine_equivalent(
        first in pieces(),
        edits in proptest::collection::vec((0..8usize, pieces()), 1..8),
    ) {
        let engine = SimLlm::new(ModelProfile::qwen25_7b_instruct());
        let fresh = SimLlm::new(ModelProfile::qwen25_7b_instruct());
        let requests = requests(first, &edits);
        let mut responses = Vec::new();
        for request in &requests {
            let response = engine.generate(request).unwrap();
            let fresh_response = std::thread::scope(|s| {
                s.spawn(|| fresh.generate(request).unwrap()).join().unwrap()
            });
            prop_assert_eq!(&response, &fresh_response);
            prop_assert_eq!(engine.interner_stats(), fresh.interner_stats());
            prop_assert_eq!(engine.cache_stats(), fresh.cache_stats());
            responses.push(response);
        }
        let flat = SimLlm::new(ModelProfile::qwen25_7b_instruct());
        for (request, response) in requests.iter().zip(&responses) {
            let flat_request = GenRequest::structured(request.text.clone(), "view:prop@1#0/v1");
            prop_assert_eq!(response, &flat.generate(&flat_request).unwrap());
        }
        prop_assert_eq!(engine.cache_stats(), flat.cache_stats());
    }

    /// The same run through engines taking turns on one thread: two of
    /// block size 16, each with its own interner, and one of block size 8.
    /// The thread's previous prefill is another engine's, so an engine
    /// resumes from it only for its own block size, and still interns the
    /// literal chains it has not seen.
    #[test]
    fn engines_taking_turns_on_one_thread_are_engine_equivalent(
        first in pieces(),
        edits in proptest::collection::vec((0..8usize, pieces()), 1..6),
    ) {
        let engine = |block_size| {
            SimLlm::with_config(
                ModelProfile::qwen25_7b_instruct(),
                EngineConfig { block_size, ..EngineConfig::default() },
            )
        };
        let engines = [engine(16), engine(16), engine(8)];
        let requests = requests(first, &edits);
        let mut responses = Vec::new();
        for request in &requests {
            for e in &engines {
                responses.push(e.generate(request).unwrap());
            }
        }
        let flat = [engine(16), engine(16), engine(8)];
        let mut responses = responses.iter();
        for request in &requests {
            let flat_request = GenRequest::structured(request.text.clone(), "view:prop@1#0/v1");
            for f in &flat {
                prop_assert_eq!(responses.next().unwrap(), &f.generate(&flat_request).unwrap());
            }
        }
        for (e, f) in engines.iter().zip(&flat) {
            prop_assert_eq!(e.cache_stats(), f.cache_stats());
        }
        prop_assert_eq!(engines[0].interner_stats(), engines[1].interner_stats());
    }
}

/// A prompt's pieces: literal or value, each a [`fragment`].
fn pieces() -> impl Strategy<Value = Vec<(bool, String)>> {
    proptest::collection::vec((any::<bool>(), fragment()), 0..6)
}

/// The requests of a refinement run: `first`, then per edit `(keep,
/// more)` the previous request's first `keep` pieces followed by `more`.
/// Requests with no text are left out.
fn requests(first: Vec<(bool, String)>, edits: &[(usize, Vec<(bool, String)>)]) -> Vec<GenRequest> {
    let mut prompts = vec![first];
    for (keep, more) in edits {
        let mut next = prompts[prompts.len() - 1].clone();
        next.truncate(*keep);
        next.extend(more.iter().cloned());
        prompts.push(next);
    }
    prompts
        .iter()
        .filter(|pieces| !pieces.is_empty())
        .map(|pieces| {
            let mut segments = SegmentedText::new();
            for (literal, text) in pieces {
                if *literal {
                    segments.push_segment(TextSegment::from_shared(
                        Arc::from(text.as_str()),
                        fnv1a(text.as_bytes()),
                    ));
                } else {
                    segments.push(text.clone());
                }
            }
            GenRequest::structured(segments.join(), "view:prop@1#0/v1").with_segments(segments)
        })
        .collect()
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
