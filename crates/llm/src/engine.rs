//! The simulated inference engine: a [`spear_core::LlmClient`]
//! implementation combining the tokenizer, the prefix cache, the latency
//! model, and the behavioural task model.
//!
//! ## Structure gates caching
//!
//! The engine registers and reuses prefix-cache entries only for requests
//! whose [`PromptIdentity`] is `Structured` — i.e. prompts that came from
//! SPEAR's prompt store or views. Opaque ad-hoc strings bypass the cache.
//! This operationalizes the paper's core claim: a serving layer can only
//! exploit reuse it can *see*, and structured prompt management is what
//! makes reuse visible. (The cache ablation turns the whole cache off with
//! [`EngineConfig::cache_enabled`].)

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::sync::Arc;

use spear_core::error::Result;
use spear_core::llm::{
    FinishReason, GenRequest, GenResponse, GenReuse, LlmClient, PromptIdentity, ReusePolicy,
};
use spear_core::metadata::TokenUsage;
use spear_core::scope;
use spear_core::segment::SegmentedText;

use crate::cache::{
    BlockHasher, CacheStats, StripedPrefixCache, DEFAULT_BLOCK_SIZE, DEFAULT_NUM_SHARDS,
};
use crate::clock::SimClock;
use crate::intern::{chain_key, InternStats, InternedChain, TokenInterner, CHAIN_SEED};
use crate::memo::{GenMemo, Lookup, MemoEntry, MemoStats};
use crate::profile::ModelProfile;
use crate::task::{self, TaskParams};
use crate::tokenizer::{StreamingEncoder, Token, Tokenizer};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Master switch for the prefix cache.
    pub cache_enabled: bool,
    /// Tokens per cache block.
    pub block_size: usize,
    /// Cache capacity in blocks.
    pub capacity_blocks: usize,
    /// Lock stripes for the prefix cache (shards of the radix tree).
    pub cache_shards: usize,
    /// Run seed for the task model's correctness draws.
    pub seed: u64,
    /// Capacity (completed entries) of the whole-call generation memo
    /// consulted under [`spear_core::llm::ReusePolicy::Exact`]
    /// (DESIGN.md §15). The memo is always constructed; requests only
    /// touch it when their execution state opts in, so the default policy
    /// pays nothing.
    pub reuse_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            cache_enabled: true,
            block_size: DEFAULT_BLOCK_SIZE,
            capacity_blocks: 64 * 1024,
            cache_shards: DEFAULT_NUM_SHARDS,
            seed: 42,
            reuse_capacity: 8192,
        }
    }
}

/// The simulated LLM.
pub struct SimLlm {
    profile: ModelProfile,
    tokenizer: Tokenizer,
    cache: StripedPrefixCache,
    interner: TokenInterner,
    memo: GenMemo,
    clock: SimClock,
    config: EngineConfig,
}

/// Per-thread reusable prefill buffers: after the first few requests on a
/// thread, tokenizing and block-hashing a prompt allocates nothing.
struct Scratch {
    tokens: Vec<Token>,
    hashes: Vec<u64>,
    keys: Vec<u64>,
    encoder: StreamingEncoder,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        tokens: Vec::new(),
        hashes: Vec::new(),
        keys: Vec::new(),
        encoder: StreamingEncoder::new(),
    });
}

impl SimLlm {
    /// Engine with default config.
    #[must_use]
    pub fn new(profile: ModelProfile) -> Self {
        Self::with_config(profile, EngineConfig::default())
    }

    /// Engine with explicit config.
    #[must_use]
    pub fn with_config(profile: ModelProfile, config: EngineConfig) -> Self {
        Self {
            profile,
            tokenizer: Tokenizer::new(),
            cache: StripedPrefixCache::new(
                config.block_size,
                config.capacity_blocks,
                config.cache_shards,
            ),
            interner: TokenInterner::with_defaults(),
            memo: GenMemo::new(config.reuse_capacity),
            clock: SimClock::new(),
            config,
        }
    }

    /// The model profile.
    #[must_use]
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The virtual clock (total simulated busy time of this engine).
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Prefix-cache statistics, aggregated across all lock stripes.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop all cached blocks (between benchmark configurations).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Pre-register a prompt's blocks, simulating a prior pipeline run that
    /// left the view's rendered prefix resident (Table 3's setting: the
    /// base view V had already executed). The blocks go to the cache's
    /// warm tier: shared with every owner, pinned outside the capacity,
    /// and read by every GEN without a shard lock. Warm between runs, not
    /// while owned work is in flight (the cache's determinism contract).
    pub fn warm(&self, text: &str) {
        if self.config.cache_enabled {
            let tokens = self.tokenizer.encode(text);
            self.cache.warm(&tokens);
        }
    }

    /// Token-interner statistics (the host fast path's memoization layer).
    #[must_use]
    pub fn interner_stats(&self) -> InternStats {
        self.interner.stats()
    }

    /// Generation-reuse memo statistics (DESIGN.md §15). Physical host
    /// counters — serve reports derive their lane-invariant reuse ledger
    /// from per-request metadata instead, and only use the deterministic
    /// subset of these (insertions, evictions, resident bytes).
    #[must_use]
    pub fn reuse_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    fn cacheable(&self, identity: &PromptIdentity) -> bool {
        self.config.cache_enabled && matches!(identity, PromptIdentity::Structured { .. })
    }

    /// Tokenize the prompt, consult the prefix cache, and return
    /// `(prompt_tokens, cached_tokens)`.
    ///
    /// Requests that arrive with a segmented rendering take the interned
    /// fast path; everything else re-derives tokens from the flat string.
    /// Both hand the cache the same block-hash chain, so both produce
    /// identical numbers — the fast path is proven equivalent by the
    /// streaming-encoder tests and the segmented-encoding property test.
    fn prefill(&self, request: &GenRequest) -> (u64, u64) {
        self.prefill_capturing(request, None)
    }

    /// [`Self::prefill`], optionally copying the prompt's full-block
    /// hash chain into `capture` — the content-pure identity the
    /// generation memo stores so later hits can replay cache admission
    /// without re-tokenizing (see [`Self::generate_with_reuse`]).
    fn prefill_capturing(
        &self,
        request: &GenRequest,
        capture: Option<&mut Vec<u64>>,
    ) -> (u64, u64) {
        let cacheable = self.cacheable(&request.identity);
        let (prompt_tokens, cached_tokens) = SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let counts = match &request.segments {
                Some(segments) if !segments.is_empty() => {
                    self.segmented_prefill(segments, cacheable, scratch)
                }
                _ => self.whole_text_prefill(&request.text, cacheable, scratch, capture.is_some()),
            };
            if let Some(out) = capture {
                // Both paths leave the full-block chain in scratch.hashes
                // (the segmented path always, the flat path on demand).
                out.clear();
                out.extend_from_slice(&scratch.hashes);
            }
            counts
        });
        debug_assert_eq!(
            prompt_tokens,
            self.tokenizer.count(&request.text) as u64,
            "prefill paths must agree on the token count"
        );
        (prompt_tokens, cached_tokens)
    }

    /// The original prefill: encode the flat text (into a reused buffer)
    /// and fold it through a [`BlockHasher`] into `scratch.hashes` once,
    /// for the cache when the prompt is cacheable and for the memo's
    /// leader path when `capture` asks for the chain.
    fn whole_text_prefill(
        &self,
        text: &str,
        cacheable: bool,
        scratch: &mut Scratch,
        capture: bool,
    ) -> (u64, u64) {
        self.tokenizer.encode_into(text, &mut scratch.tokens);
        let prompt_tokens = scratch.tokens.len();
        if cacheable || capture {
            scratch.hashes.clear();
            BlockHasher::new(self.config.block_size).push_all(&scratch.tokens, &mut scratch.hashes);
        }
        let cached = if cacheable {
            // The owner comes from the ambient execution scope: pipeline
            // instances under a BatchRunner each see shared (pre-warmed)
            // blocks plus their own insert history, which keeps this hit
            // count independent of concurrent interleaving. Outside any
            // scope the owner is ambient and all blocks are shared —
            // exactly the original single-threaded semantics.
            self.cache
                .lookup_insert_hashed(&scratch.hashes, prompt_tokens, scope::owner())
                as u64
        } else {
            0
        };
        (prompt_tokens as u64, cached)
    }

    /// The host fast path: resume tokenization and block hashing from the
    /// longest interned literal-segment chain, so a warm prompt-family
    /// prefix costs O(suffix) per request instead of O(prompt).
    fn segmented_prefill(
        &self,
        segments: &SegmentedText,
        cacheable: bool,
        scratch: &mut Scratch,
    ) -> (u64, u64) {
        let segs = segments.segments();
        let bs = self.config.block_size;

        // Chain keys over the leading literal run — the only prefixes
        // whose tokenization recurs across requests of a prompt family.
        let literal_run = segs.iter().take_while(|s| s.is_literal()).count();
        scratch.keys.clear();
        let mut key = CHAIN_SEED;
        for seg in &segs[..literal_run] {
            key = chain_key(key, seg.hash());
            scratch.keys.push(key);
        }

        // Longest interned chain wins.
        let mut base: Option<(usize, InternedChain)> = None;
        for i in (0..literal_run).rev() {
            if let Some(chain) = self.interner.get(scratch.keys[i]) {
                base = Some((i + 1, chain));
                break;
            }
        }
        let (covered, base_tokens, base_hashes, base_pending): (usize, &[Token], &[u64], &str) =
            match &base {
                Some((covered, chain)) => {
                    (*covered, &chain.tokens, &chain.block_hashes, &chain.pending)
                }
                None => (0, &[], &[], ""),
            };

        // Resume the block-hash chain: interned full-block hashes, then the
        // straddling partial block's tokens re-folded into the hasher state.
        scratch.tokens.clear();
        scratch.hashes.clear();
        scratch.hashes.extend_from_slice(base_hashes);
        let mut hasher = BlockHasher::new(bs);
        hasher.push_all(&base_tokens[base_hashes.len() * bs..], &mut scratch.hashes);

        // Resume the encoder mid-word and feed the remaining segments.
        // `scratch.tokens` holds only suffix tokens — the interned prefix is
        // never copied per request.
        scratch.encoder.reset(base_pending);
        let mut hashed_upto = 0usize;
        for (i, seg) in segs.iter().enumerate().skip(covered) {
            scratch.encoder.feed(seg.text(), &mut scratch.tokens);
            hasher.push_all(&scratch.tokens[hashed_upto..], &mut scratch.hashes);
            hashed_upto = scratch.tokens.len();
            if i < literal_run {
                // Cold literal chain: memoize it for every later request
                // sharing this prefix. Allocation happens only here, once
                // per distinct chain per process.
                let mut tokens: Vec<Token> =
                    Vec::with_capacity(base_tokens.len() + scratch.tokens.len());
                tokens.extend_from_slice(base_tokens);
                tokens.extend_from_slice(&scratch.tokens);
                self.interner.insert(
                    scratch.keys[i],
                    InternedChain {
                        tokens: tokens.into(),
                        pending: Arc::from(scratch.encoder.pending()),
                        block_hashes: scratch.hashes.clone().into(),
                    },
                );
            }
        }
        let flushed = scratch.tokens.len();
        scratch.encoder.finish(&mut scratch.tokens);
        hasher.push_all(&scratch.tokens[flushed..], &mut scratch.hashes);

        let total_tokens = base_tokens.len() + scratch.tokens.len();
        let cached = if cacheable {
            self.cache
                .lookup_insert_hashed(&scratch.hashes, total_tokens, scope::owner())
                as u64
        } else {
            0
        };
        (total_tokens as u64, cached)
    }
}

impl SimLlm {
    /// Everything after prefill: the behavioural task model, `max_tokens`
    /// truncation, the latency model, and the clock advance. Pure in the
    /// request given fixed engine config — only prefill depends on live
    /// cache state, which is why the reuse memo stores this part's output
    /// and replays prefill accounting live.
    fn decode(&self, request: &GenRequest, prompt_tokens: u64, cached_tokens: u64) -> GenResponse {
        let structured = matches!(request.identity, PromptIdentity::Structured { .. });
        let mut outcome = task::detect_and_run(
            request.options.task.as_deref(),
            &request.text,
            &TaskParams {
                profile: &self.profile,
                structured_identity: structured,
                seed: self.config.seed,
            },
        );

        // Enforce max_tokens on the output.
        let mut completion_tokens = self.tokenizer.count(&outcome.text) as u64;
        let mut finish = FinishReason::Stop;
        let max = u64::from(request.options.max_tokens);
        if completion_tokens > max {
            // Truncate at a word boundary approximately proportional to the
            // token budget.
            let words: Vec<&str> = outcome.text.split_whitespace().collect();
            let keep = (words.len() as u64 * max / completion_tokens.max(1)) as usize;
            let keep = keep.min(words.len());
            // Whitespace separates tokens without emitting any, so the
            // count of the re-joined truncated text is the sum of the
            // per-word counts — no second tokenization pass over the join.
            completion_tokens = words[..keep]
                .iter()
                .map(|w| self.tokenizer.count(w) as u64)
                .sum();
            outcome.text = words[..keep].join(" ");
            finish = FinishReason::Length;
        }

        let latency_us = self.profile.latency_us(
            prompt_tokens - cached_tokens,
            cached_tokens,
            completion_tokens,
        );
        let latency = std::time::Duration::from_micros(latency_us as u64);
        self.clock.advance(latency);

        GenResponse {
            text: outcome.text,
            confidence: outcome.confidence,
            usage: TokenUsage {
                prompt_tokens,
                cached_tokens,
                completion_tokens,
            },
            latency,
            model: self.profile.name.clone(),
            finish,
        }
    }

    /// The memo key of `request`: a chain-key fold over everything the
    /// response observably depends on — the rendered content (segment-hash
    /// chain when a segmented rendering exists, a tagged hash of the flat
    /// text otherwise; the two keyspaces are disjoint, so a prompt that
    /// arrives both ways executes twice rather than ever aliasing), the
    /// identity class (structured vs opaque feeds the task model and the
    /// cacheability gate), and the decode parameters. Engine-fixed inputs
    /// (model, seed, config) need no folding: the memo lives inside one
    /// engine.
    fn reuse_key(&self, request: &GenRequest) -> u64 {
        const SEGMENTED_TAG: u64 = 0x7365_676d;
        const FLAT_TAG: u64 = 0x666c_6174;
        let mut key = match &request.segments {
            Some(segments) if !segments.is_empty() => {
                let mut key = chain_key(CHAIN_SEED, SEGMENTED_TAG);
                for seg in segments.segments() {
                    key = chain_key(key, seg.hash());
                }
                key
            }
            _ => chain_key(
                chain_key(CHAIN_SEED, FLAT_TAG),
                spear_kv::shard::fnv1a(request.text.as_bytes()),
            ),
        };
        key = chain_key(
            key,
            u64::from(matches!(
                request.identity,
                PromptIdentity::Structured { .. }
            )),
        );
        key = chain_key(key, u64::from(request.options.max_tokens));
        key = chain_key(key, request.options.temperature.to_bits());
        key = chain_key(
            key,
            request
                .options
                .task
                .as_deref()
                .map_or(0, |t| spear_kv::shard::fnv1a(t.as_bytes())),
        );
        key
    }

    /// Serve a memo hit: adopt the entry's content-pure outputs and
    /// *replay* the per-request state transitions a real execution would
    /// have performed — the exact prefix-cache admission (`cached_tokens`,
    /// LRU touches, stats) via the entry's block-hash chain, the latency
    /// model over the live hit count, and the clock advance. The response
    /// is byte-identical to re-executing; only tokenization and the task
    /// model are skipped.
    fn replay(&self, request: &GenRequest, entry: &MemoEntry) -> GenResponse {
        let cached_tokens = if self.cacheable(&request.identity) {
            self.cache.lookup_insert_hashed(
                &entry.block_hashes,
                entry.prompt_tokens as usize,
                scope::owner(),
            ) as u64
        } else {
            0
        };
        let latency_us = self.profile.latency_us(
            entry.prompt_tokens - cached_tokens,
            cached_tokens,
            entry.completion_tokens,
        );
        let latency = std::time::Duration::from_micros(latency_us as u64);
        self.clock.advance(latency);
        GenResponse {
            text: entry.text.clone(),
            confidence: entry.confidence,
            usage: TokenUsage {
                prompt_tokens: entry.prompt_tokens,
                cached_tokens,
                completion_tokens: entry.completion_tokens,
            },
            latency,
            model: self.profile.name.clone(),
            finish: entry.finish,
        }
    }
}

impl LlmClient for SimLlm {
    fn generate(&self, request: &GenRequest) -> Result<GenResponse> {
        let (prompt_tokens, cached_tokens) = self.prefill(request);
        Ok(self.decode(request, prompt_tokens, cached_tokens))
    }

    fn generate_with_reuse(
        &self,
        request: &GenRequest,
        policy: ReusePolicy,
    ) -> Result<(GenResponse, Option<GenReuse>)> {
        if policy == ReusePolicy::Off {
            return self.generate(request).map(|response| (response, None));
        }
        let key = self.reuse_key(request);
        match self.memo.lookup_or_lead(key) {
            Lookup::Hit(entry) => Ok((
                self.replay(request, &entry),
                Some(GenReuse { key, reused: true }),
            )),
            Lookup::Lead(guard) => {
                // Leader: execute for real, capturing the block-hash chain
                // so hits can replay admission. The guard is drop-safe —
                // if decode ever grew an error path, followers would be
                // released to retry rather than adopt a poisoned slot.
                let mut block_hashes = Vec::new();
                let (prompt_tokens, cached_tokens) =
                    self.prefill_capturing(request, Some(&mut block_hashes));
                let response = self.decode(request, prompt_tokens, cached_tokens);
                guard.complete(MemoEntry {
                    text: response.text.clone(),
                    confidence: response.confidence,
                    prompt_tokens,
                    completion_tokens: response.usage.completion_tokens,
                    finish: response.finish,
                    block_hashes,
                });
                Ok((response, Some(GenReuse { key, reused: false })))
            }
        }
    }

    fn model_name(&self) -> &str {
        &self.profile.name
    }
}

impl std::fmt::Debug for SimLlm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimLlm")
            .field("model", &self.profile.name)
            .field("cache_enabled", &self.config.cache_enabled)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spear_core::llm::GenOptions;

    fn engine() -> SimLlm {
        SimLlm::new(ModelProfile::qwen25_7b_instruct())
    }

    fn long_instruction() -> String {
        "Classify the sentiment of the following tweet as positive or negative, \
         considering tone, sarcasm, emphasis, and context. Respond with exactly \
         one word and respect a word limit of one. "
            .repeat(8)
    }

    #[test]
    fn structured_requests_hit_cache_on_repeat() {
        let e = engine();
        let text = format!("{}Tweet: awful homework tonight", long_instruction());
        let req = GenRequest::structured(text, "view:v@1#0/v1");
        let first = e.generate(&req).unwrap();
        let second = e.generate(&req).unwrap();
        assert_eq!(first.usage.cached_tokens, 0);
        assert!(second.usage.cached_tokens > 0);
        assert!(second.latency < first.latency);
        assert_eq!(first.text, second.text, "behaviour is cache-independent");
        assert_eq!(first.confidence, second.confidence);
    }

    #[test]
    fn opaque_requests_bypass_cache_by_default() {
        let e = engine();
        let text = format!("{}Tweet: awful homework tonight", long_instruction());
        let req = GenRequest::opaque(text);
        e.generate(&req).unwrap();
        let second = e.generate(&req).unwrap();
        assert_eq!(second.usage.cached_tokens, 0);
        assert_eq!(e.cache_stats().lookups, 0);
    }

    #[test]
    fn warm_preloads_the_view_prefix() {
        let e = engine();
        let instruction = long_instruction();
        e.warm(&instruction);
        let req = GenRequest::structured(
            format!("{instruction}Tweet: ruined my day"),
            "view:v@1#0/v1",
        );
        let first = e.generate(&req).unwrap();
        let hit_rate = first.usage.cache_hit_rate().unwrap();
        assert!(hit_rate > 0.85, "first call already warm: {hit_rate}");
    }

    #[test]
    fn shared_view_prefix_hits_across_different_tweets() {
        let e = engine();
        let instruction = long_instruction();
        e.warm(&instruction);
        let mut rates = Vec::new();
        for tweet in ["great sunshine", "horrible exam", "boring meeting ugh"] {
            let req =
                GenRequest::structured(format!("{instruction}Tweet: {tweet}"), "view:v@1#0/v1");
            rates.push(e.generate(&req).unwrap().usage.cache_hit_rate().unwrap());
        }
        assert!(rates.iter().all(|r| *r > 0.8), "{rates:?}");
    }

    #[test]
    fn latency_model_matches_profile() {
        let e = engine();
        let req = GenRequest::opaque("Classify the sentiment.\nTweet: i hate rain");
        let resp = e.generate(&req).unwrap();
        let expected =
            e.profile()
                .latency_us(resp.usage.prompt_tokens, 0, resp.usage.completion_tokens);
        assert_eq!(resp.latency.as_micros() as u64, expected as u64);
        assert_eq!(e.clock().elapsed(), resp.latency);
    }

    #[test]
    fn max_tokens_truncates_with_length_finish() {
        let e = engine();
        let req = GenRequest {
            text: "Summarize. \nTweet: one two three four five six seven eight nine ten"
                .to_string(),
            identity: PromptIdentity::Opaque,
            options: GenOptions {
                max_tokens: 3,
                ..GenOptions::default()
            },
            segments: None,
        };
        let resp = e.generate(&req).unwrap();
        assert!(resp.usage.completion_tokens <= 3);
        assert_eq!(resp.finish, FinishReason::Length);
    }

    #[test]
    fn clear_cache_resets_reuse() {
        let e = engine();
        let req =
            GenRequest::structured(format!("{}Tweet: x", long_instruction()), "view:v@1#0/v1");
        e.generate(&req).unwrap();
        e.clear_cache();
        let resp = e.generate(&req).unwrap();
        assert_eq!(resp.usage.cached_tokens, 0);
    }

    fn segmented_request(instruction: &Arc<str>, item: &str) -> GenRequest {
        let mut segments = SegmentedText::new();
        segments.push_segment(spear_core::segment::TextSegment::from_shared(
            Arc::clone(instruction),
            spear_kv::shard::fnv1a(instruction.as_bytes()),
        ));
        segments.push(item.to_string());
        GenRequest::structured(segments.join(), "view:v@1#0/v1").with_segments(segments)
    }

    #[test]
    fn segmented_fast_path_is_observably_identical() {
        let instruction: Arc<str> = Arc::from(long_instruction());
        let fast = engine();
        let flat = engine();
        for item in [
            "Tweet: awful homework tonight",
            "Tweet: great sunshine",
            "Tweet: awful homework tonight",
            "Tweet: a bad exam",
            "Tweet: b",
            "Tweet: a bad exam",
        ] {
            let seg_req = segmented_request(&instruction, item);
            let flat_req = GenRequest::structured(seg_req.text.clone(), "view:v@1#0/v1");
            assert_eq!(
                fast.generate(&seg_req).unwrap(),
                flat.generate(&flat_req).unwrap(),
                "fast path must be invisible for {item:?}"
            );
        }
        let stats = fast.interner_stats();
        assert_eq!(stats.insertions, 1, "one literal chain interned: {stats:?}");
        assert!(
            stats.hits >= 2,
            "later requests resume from the interned chain: {stats:?}"
        );
        assert_eq!(
            flat.interner_stats().insertions,
            0,
            "flat requests never intern"
        );
    }

    #[test]
    fn truncated_completion_count_is_exact_and_pinned() {
        // 10 words, two of them 7 chars (= 2 chunks), so the full output
        // counts 12 tokens; max_tokens 5 keeps 10*5/12 = 4 words whose
        // chunk counts sum to 5.
        let e = engine();
        let req = GenRequest {
            text: "Summarize. Use at most 40 words.\nTweet: alpha bravo charlie delta \
                   echo foxtrot golf hotel india juliet"
                .to_string(),
            identity: PromptIdentity::Opaque,
            options: GenOptions {
                max_tokens: 5,
                ..GenOptions::default()
            },
            segments: None,
        };
        let resp = e.generate(&req).unwrap();
        assert_eq!(resp.finish, FinishReason::Length);
        assert_eq!(resp.text, "alpha bravo charlie delta");
        assert_eq!(resp.usage.completion_tokens, 5);
        // The folded per-word count equals a full recount of the final text.
        assert_eq!(
            resp.usage.completion_tokens,
            Tokenizer::new().count(&resp.text) as u64
        );
    }

    #[test]
    fn reuse_replay_is_byte_identical_for_flat_prompts() {
        // A duplicate prompt under `ReusePolicy::Exact` must produce the
        // same response the duplicate would have produced *live* — which
        // runs warm (block-cache hits from the first call), so the replay
        // path has to re-account prefill against the live cache rather
        // than echo the leader's cold usage.
        let with = engine();
        let without = engine();
        let items = [
            "Tweet: awful homework tonight",
            "Tweet: great sunshine",
            "Tweet: awful homework tonight",
            "Tweet: awful homework tonight",
        ];
        let mut reuse_flags = Vec::new();
        for item in items {
            let req =
                GenRequest::structured(format!("{}{item}", long_instruction()), "view:v@1#0/v1");
            let (on, reuse) = with
                .generate_with_reuse(&req, spear_core::llm::ReusePolicy::Exact)
                .unwrap();
            let off = without.generate(&req).unwrap();
            assert_eq!(on, off, "reuse must be invisible for {item:?}");
            reuse_flags.push(reuse.expect("Exact policy always reports").reused);
        }
        assert_eq!(reuse_flags, [false, false, true, true]);
        let stats = with.reuse_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.insertions, 2);
        assert_eq!(with.clock().elapsed(), without.clock().elapsed());
        assert_eq!(with.cache_stats(), without.cache_stats());
    }

    #[test]
    fn reuse_replay_is_byte_identical_for_segmented_prompts() {
        let instruction: Arc<str> = Arc::from(long_instruction());
        let with = engine();
        let without = engine();
        for item in ["Tweet: a bad exam", "Tweet: b", "Tweet: a bad exam"] {
            let req = segmented_request(&instruction, item);
            let (on, reuse) = with
                .generate_with_reuse(&req, spear_core::llm::ReusePolicy::Exact)
                .unwrap();
            let off = without.generate(&req).unwrap();
            assert_eq!(on, off, "segmented reuse must be invisible for {item:?}");
            assert!(reuse.is_some());
        }
        assert_eq!(with.reuse_stats().hits, 1);
        assert_eq!(with.clock().elapsed(), without.clock().elapsed());
    }

    #[test]
    fn reuse_keys_separate_decode_params_and_identity() {
        // Same text, different max_tokens / identity kind ⇒ distinct memo
        // entries, never cross-served.
        let e = engine();
        let text = format!("{}Tweet: mixed feelings", long_instruction());
        let policy = spear_core::llm::ReusePolicy::Exact;
        let base = GenRequest::structured(text.clone(), "view:v@1#0/v1");
        let truncated = GenRequest {
            options: GenOptions {
                max_tokens: 1,
                ..GenOptions::default()
            },
            ..GenRequest::structured(text.clone(), "view:v@1#0/v1")
        };
        let opaque = GenRequest::opaque(text);
        e.generate_with_reuse(&base, policy).unwrap();
        e.generate_with_reuse(&truncated, policy).unwrap();
        e.generate_with_reuse(&opaque, policy).unwrap();
        let stats = e.reuse_stats();
        assert_eq!(stats.hits, 0, "no false sharing across keys: {stats:?}");
        assert_eq!(stats.insertions, 3);
    }

    #[test]
    fn reuse_off_policy_never_touches_the_memo() {
        let e = engine();
        let req =
            GenRequest::structured(format!("{}Tweet: x", long_instruction()), "view:v@1#0/v1");
        let (_, reuse) = e
            .generate_with_reuse(&req, spear_core::llm::ReusePolicy::Off)
            .unwrap();
        assert!(reuse.is_none());
        let stats = e.reuse_stats();
        assert_eq!((stats.leads, stats.insertions, stats.hits), (0, 0, 0));
    }

    #[test]
    fn different_models_have_different_latency_profiles() {
        let text = format!("{}Tweet: long enough to measure", long_instruction());
        let qwen = SimLlm::new(ModelProfile::qwen25_7b_instruct());
        let gpt = SimLlm::new(ModelProfile::gpt_4o_mini());
        let rq = qwen.generate(&GenRequest::opaque(text.clone())).unwrap();
        let rg = gpt.generate(&GenRequest::opaque(text)).unwrap();
        assert_ne!(rq.latency, rg.latency);
        assert_eq!(rq.model, "qwen2.5-7b-instruct-sim");
        assert_eq!(rg.model, "gpt-4o-mini-sim");
    }
}
