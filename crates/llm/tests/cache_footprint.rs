//! Allocations on the caches' hot paths: a prefix-cache hit (in a shard
//! alone, and through the warm tier into a shard), a KV block-pool lease
//! over a resident chain, extended over resident blocks and pinned at
//! admission, a token-interner hit, a generation-memo hit, the
//! task scan resumed from an interned chain, and a whole warm GEN, with
//! segments and without, and resumed from the GEN before it.
//!
//! Every GEN goes through `StripedPrefixCache::lookup_insert_hashed`, asks
//! the interner for its prompt family's chain and resumes its task scan, a
//! repeated GEN hits the memo, and every serving step leases its sequences'
//! chains from a `BlockPool`, so what one call allocates is multiplied by
//! the request rate. These tests pin each with the shared counting
//! allocator (`tests/support/counting.rs`); its counters are per thread, so
//! the harness running tests side by side cannot disturb a reading.

use std::sync::Arc;

use spear_core::llm::{FinishReason, GenRequest, LlmClient};
use spear_core::segment::{SegmentedText, TextSegment};
use spear_llm::{
    pool::BlockPool, BlockHasher, GenMemo, InternedChain, Lookup, MemoEntry, ModelProfile,
    ScannedChain, SimLlm, StripedPrefixCache, TaskKind, TaskScan, Token, TokenInterner,
};

#[path = "../../../tests/support/counting.rs"]
mod counting;

use counting::allocs;

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
    let mut pool = BlockPool::new(64);
    let chain = chain();
    pool.allocate(1, &chain).expect("fits");
    pool.release(1);
    for seq in 2..6 {
        let n = allocs(|| {
            let grant = pool.allocate(seq, &chain).expect("fits");
            assert_eq!(grant.reused_blocks, chain.len());
            pool.release(seq);
        });
        // The resident extension is walked into a buffer the pool keeps
        // (it grows on the first lease); the lease's own path is one Vec
        // of 32 ids. Collecting the walk into a fresh Vec and growing the
        // lease id by id made 8 allocations here.
        if seq > 2 {
            assert!(n <= 1, "allocate + release made {n} allocations");
        }
    }
    assert_eq!(pool.stats().inserted_blocks, chain.len() as u64);
}

#[test]
fn extending_a_lease_over_resident_blocks_allocates_only_its_growth() {
    let mut pool = BlockPool::new(64);
    let chain = chain();
    pool.allocate(1, &chain).expect("fits");
    pool.release(1);
    for seq in 2..6 {
        // A lease on half the chain, then a step that extends it over the
        // resident rest, as a prefill chunk does.
        pool.allocate(seq, &chain[..16]).expect("fits");
        let n = allocs(|| {
            let grant = pool.allocate(seq, &chain).expect("fits");
            assert_eq!((grant.reused_blocks, grant.lease_blocks), (16, 32));
            pool.release(seq);
        });
        // One reallocation of the lease from 16 to 32 ids; the walk goes
        // into the pool's buffer. A fresh Vec for the walk and the lease
        // grown id by id made 4 allocations here.
        if seq > 2 {
            assert!(n <= 1, "extending a lease + release made {n} allocations");
        }
    }
    assert_eq!(pool.stats().inserted_blocks, chain.len() as u64);
}

#[test]
fn pinning_a_resident_chain_at_admission_allocates_only_its_lease() {
    let mut pool = BlockPool::new(64);
    let chain = chain();
    pool.allocate(1, &chain).expect("fits");
    pool.release(1);
    for seq in 2..6 {
        let n = allocs(|| {
            let grant = pool.pin_resident(seq, &chain);
            assert_eq!((grant.reused_blocks, grant.lease_blocks), (32, 32));
            pool.release(seq);
        });
        // One walk into the pool's buffer, and the lease's path as one
        // Vec of 32 ids. `peek` followed by `allocate` of the resident
        // prefix made 8 allocations here.
        if seq > 2 {
            assert!(n <= 1, "an admission pin + release made {n} allocations");
        }
    }
    assert_eq!(pool.stats().inserted_blocks, chain.len() as u64);
}

#[test]
fn a_resident_chain_hits_the_interner_without_allocating() {
    let interner = TokenInterner::new(64);
    // More chains than one node of an ordered map holds, so a recency
    // structure that splits and merges nodes on a touch would show here.
    for key in 0..64 {
        interner.insert(
            key,
            InternedChain {
                tokens: (0..40).map(Token).collect(),
                pending: Arc::from(""),
                block_hashes: chain().into(),
            },
        );
    }
    for key in [3, 0, 3, 7, 63, 12, 40] {
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
    // A memo holding many entries, so a hit probes a populated map.
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

/// A prompt family's shared instruction, as a view renders it.
const INSTRUCTION: &str = "You are given one tweet per request. Summarize the tweet \
    and decide whether it is about the focus topic and expresses negative sentiment. \
    Answer with the label, then the cleaned summary, using a word limit of 40.\nTweet: ";

#[test]
fn resuming_an_interned_task_scan_over_an_ascii_suffix_does_not_allocate() {
    let interner = TokenInterner::new(64);
    interner.insert(
        7,
        ScannedChain {
            chain: InternedChain {
                tokens: (0..40).map(Token).collect(),
                pending: Arc::from(""),
                block_hashes: chain().into(),
            },
            scan: TaskScan::of(INSTRUCTION),
        },
    );
    let suffixes = [
        "ugh my homework is due tomorrow and i have not started it",
        "great sunshine today",
        "the exam went badly. Weigh the topic wording before the tone.",
    ];
    // The first feed on a thread sizes its lowering buffer.
    for suffix in suffixes {
        TaskScan::of(INSTRUCTION).feed(suffix);
    }
    for suffix in suffixes {
        let mut kind = None;
        let n = allocs(|| {
            let mut scan = interner.get(7).expect("interned").scan;
            scan.feed(suffix);
            kind = Some(scan.task(None));
        });
        assert_eq!(kind, Some(TaskKind::FusedMapFilter));
        assert_eq!(n, 0, "resuming the scan made {n} allocations");
    }
}

/// `[INSTRUCTION, payload, tail]`: the family's interned instruction, the
/// request's payload and a literal tail after it, which a refinement grows.
fn segmented(payload: &str, tail: &str) -> GenRequest {
    let mut segments = SegmentedText::new();
    segments.push_segment(TextSegment::from_shared(
        Arc::from(INSTRUCTION),
        spear_kv::shard::fnv1a(INSTRUCTION.as_bytes()),
    ));
    segments.push(payload.to_string());
    segments.push_segment(TextSegment::from_shared(
        Arc::from(tail),
        spear_kv::shard::fnv1a(tail.as_bytes()),
    ));
    GenRequest::structured(segments.join(), "view:filter@1#0/v1").with_segments(segments)
}

const PAYLOADS: [&str; 2] = [
    "so much homework tonight, the exam is going to be awful",
    "great sunshine today and the topic is the exam",
];

#[test]
fn a_warm_segmented_generate_stays_within_its_allocation_budget() {
    let llm = SimLlm::new(ModelProfile::qwen25_7b_instruct());
    // Two payloads in turn, so no GEN finds the one before it on the thread
    // to resume from: each resumes from the interned instruction.
    let requests = PAYLOADS.map(|payload| segmented(payload, "\nAnswer:"));
    // Intern the family's chain, fill the prefix cache and size this
    // thread's scratch buffers.
    for _ in 0..3 {
        for request in &requests {
            llm.generate(request).expect("generates");
        }
    }
    for _ in 0..3 {
        for request in &requests {
            let n = allocs(|| drop(llm.generate(request).expect("generates")));
            // What is left is the task's output and the response: neither
            // the scan resumed from the interned chain nor the lexicon
            // lookups allocate. Lowercasing the whole prompt and each item
            // word per GEN, as the task model did before, made it 21.
            assert!(n <= 8, "a warm segmented generate made {n} allocations");
        }
    }
}

#[test]
fn a_grown_prompt_resumed_from_the_previous_generate_stays_within_its_allocation_budget() {
    let llm = SimLlm::new(ModelProfile::qwen25_7b_instruct());
    // A request's GEN, then its next GEN after a refinement appended a
    // line: the second resumes after the payload the first read.
    let tail = "\nAnswer:";
    let grown = format!("{tail}\nPass 1: tighten it.");
    let gens = PAYLOADS.map(|payload| [segmented(payload, tail), segmented(payload, &grown)]);
    // Intern the chain, fill the cache, size the scratch and its record.
    for _ in 0..3 {
        for [first, second] in &gens {
            llm.generate(first).expect("generates");
            llm.generate(second).expect("generates");
        }
    }
    for _ in 0..3 {
        for [first, second] in &gens {
            // After the other payload's GEN, the grown prompt resumes from
            // the interned instruction; after its own first GEN, from the
            // end of the payload. The record costs nothing on top.
            let interned = allocs(|| drop(llm.generate(second).expect("generates")));
            llm.generate(first).expect("generates");
            let resumed = allocs(|| drop(llm.generate(second).expect("generates")));
            assert!(
                resumed <= 8,
                "a resumed generate made {resumed} allocations"
            );
            assert!(
                resumed <= interned,
                "resuming made {resumed} allocations, the interned path {interned}"
            );
        }
    }
}

#[test]
fn a_warm_flat_generate_stays_within_its_allocation_budget() {
    let llm = SimLlm::new(ModelProfile::qwen25_7b_instruct());
    let request = GenRequest::structured(
        format!("{INSTRUCTION}so much homework tonight, the exam is going to be awful"),
        "view:filter@1#0/v1",
    );
    for _ in 0..3 {
        llm.generate(&request).expect("generates");
    }
    for _ in 0..3 {
        let n = allocs(|| drop(llm.generate(&request).expect("generates")));
        // A prompt without segments is one chunk of the same prefill, so
        // what is left is again the task's output and the response.
        assert!(n <= 8, "a warm flat generate made {n} allocations");
    }
}
