//! Whole-call generation reuse: a bounded, lock-striped, exact-match
//! output memo with single-flight coalescing (DESIGN.md §15).
//!
//! The prompt-as-data thesis makes this sound: a generation's observable
//! outcome is a pure function of (rendered prompt ⊕ identity class ⊕
//! model ⊕ decode params), so requests that agree on that identity may
//! share one execution. [`GenMemo`] stores the *content-pure* part of a
//! completed generation — output text, confidence, token counts, and the
//! prompt's block-hash chain — and the engine replays per-request state
//! (prefix-cache admission, latency, virtual clock) live on every hit,
//! which is what keeps reuse observably invisible (see
//! `SimLlm::generate_with_reuse`).
//!
//! ## Single flight
//!
//! Concurrent lanes racing on one key coalesce: the first becomes the
//! *leader* and executes; followers block on the shard's condvar and
//! adopt the completed entry. A leader that fails (or panics — the guard
//! is drop-safe) removes its in-flight marker and wakes all followers,
//! one of which becomes the new leader: errors are never cached and
//! never poison the key.
//!
//! ## Eviction
//!
//! Each shard's completed entries are one [`LruMap`], bounded in entries
//! (capacity split evenly across shards); its misses are the leads.
//! In-flight keys sit in a set beside it, never in it, so they are never
//! victims.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;
use std::sync::{Condvar, Mutex, MutexGuard};

use spear_core::llm::FinishReason;

use crate::lru::LruMap;

/// Number of lock stripes. Matches the interner's default: enough to keep
/// 8 serving lanes from contending, cheap enough to aggregate.
const NUM_SHARDS: usize = 16;

/// The content-pure result of one generation, keyed by reuse identity.
///
/// Everything here is a function of the request's reuse key alone —
/// nothing depends on cache temperature, clock state, or which lane ran
/// it. Per-request numbers (cached tokens, latency) are deliberately
/// absent: the engine re-derives them live on every hit.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoEntry {
    /// Generated text (post `max_tokens` truncation).
    pub text: String,
    /// Model confidence.
    pub confidence: f64,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Completion length in tokens (post truncation).
    pub completion_tokens: u64,
    /// Why decoding stopped.
    pub finish: FinishReason,
    /// FNV block-hash chain of the full prompt-token blocks, as the
    /// prefix cache keys them. Hits replay these through
    /// `StripedPrefixCache::lookup_insert_hashed` so cache state and
    /// stats evolve exactly as if the prompt had been re-tokenized.
    pub block_hashes: Vec<u64>,
}

impl MemoEntry {
    /// Approximate resident size of this entry in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.text.len() + self.block_hashes.len() * 8 + std::mem::size_of::<Self>()) as u64
    }
}

/// Counters over the memo's lifetime, aggregated across shards.
///
/// `hits` and `coalesced_waits` count *physical* events on this host run
/// (a follower that raced a leader, a warm lookup); they are not
/// lane-invariant and are deliberately excluded from serve reports, which
/// derive their reuse ledger from per-request metadata instead.
/// `insertions`/`evictions`/`resident`/`resident_bytes` are functions of
/// the key set alone (single-flight admits one execution per key), so
/// with ample capacity they are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Completed entries adopted without executing (incl. coalesced
    /// followers).
    pub hits: u64,
    /// Lookups that blocked on an in-flight leader before adopting.
    pub coalesced_waits: u64,
    /// Lookups that became leaders (one per executed generation).
    pub leads: u64,
    /// Entries completed into the memo.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Completed entries currently resident.
    pub resident: u64,
    /// Approximate bytes held by resident entries.
    pub resident_bytes: u64,
}

struct ShardState {
    /// Completed generations.
    entries: LruMap<u64, MemoEntry>,
    /// Keys a leader is executing; followers wait on the shard condvar.
    in_flight: HashSet<u64>,
    coalesced_waits: u64,
    resident_bytes: u64,
}

struct Shard {
    state: Mutex<ShardState>,
    woken: Condvar,
}

/// Outcome of [`GenMemo::lookup_or_lead`].
pub enum Lookup<'a> {
    /// A completed entry existed (or a coalesced leader finished while we
    /// waited); adopt it.
    Hit(MemoEntry),
    /// The caller is the leader for this key: execute the generation and
    /// either [`LeadGuard::complete`] it or drop the guard on error.
    Lead(LeadGuard<'a>),
}

/// Leadership of an in-flight key. Dropping the guard without calling
/// [`LeadGuard::complete`] releases waiting followers to elect a new
/// leader — an error path can never poison the memo.
pub struct LeadGuard<'a> {
    memo: &'a GenMemo,
    key: u64,
    done: bool,
}

impl LeadGuard<'_> {
    /// Publish the completed entry and wake all followers.
    pub fn complete(mut self, entry: MemoEntry) {
        self.done = true;
        self.memo.publish(self.key, entry);
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.memo.abandon(self.key);
        }
    }
}

/// A bounded, lock-striped, single-flight exact-match generation memo.
pub struct GenMemo {
    shards: Vec<Shard>,
}

impl GenMemo {
    /// A memo bounded at roughly `capacity` completed entries, split
    /// evenly across the lock stripes (each stripe holds at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: (0..NUM_SHARDS)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        entries: LruMap::new(capacity.div_ceil(NUM_SHARDS)),
                        in_flight: HashSet::new(),
                        coalesced_waits: 0,
                        resident_bytes: 0,
                    }),
                    woken: Condvar::new(),
                })
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Ignore poisoning: shard state is a plain map + counters, always
    /// internally consistent at every unlock point, and the in-flight
    /// protocol recovers from abandoned leaders by construction.
    fn lock(shard: &Shard) -> MutexGuard<'_, ShardState> {
        match shard.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look `key` up, coalescing with any in-flight execution.
    ///
    /// Returns [`Lookup::Hit`] with the completed entry, blocking first if
    /// a leader is mid-execution, or [`Lookup::Lead`] making the caller
    /// the leader. The call only blocks while some other thread is
    /// actively executing the same key — the definition of single-flight.
    pub fn lookup_or_lead(&self, key: u64) -> Lookup<'_> {
        let shard = self.shard(key);
        let mut state = Self::lock(shard);
        while state.in_flight.contains(&key) {
            state.coalesced_waits += 1;
            state = match shard.woken.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // The leader either published (a hit below) or abandoned
            // (absent: we may lead).
        }
        if let Some(entry) = state.entries.get(&key) {
            return Lookup::Hit(entry.clone());
        }
        state.in_flight.insert(key);
        Lookup::Lead(LeadGuard {
            memo: self,
            key,
            done: false,
        })
    }

    /// A non-coalescing peek used by tests: `Some` iff a completed entry
    /// is resident (never blocks, never leads, does not touch LRU order).
    #[cfg(test)]
    fn peek(&self, key: u64) -> Option<MemoEntry> {
        Self::lock(self.shard(key)).entries.peek(&key).cloned()
    }

    fn publish(&self, key: u64, entry: MemoEntry) {
        let shard = self.shard(key);
        let mut state = Self::lock(shard);
        state.in_flight.remove(&key);
        state.resident_bytes += entry.bytes();
        let victim = state.entries.insert(key, entry);
        if let Some((_, victim)) = &victim {
            state.resident_bytes -= victim.bytes();
        }
        drop(state);
        drop(victim);
        shard.woken.notify_all();
    }

    fn abandon(&self, key: u64) {
        let shard = self.shard(key);
        Self::lock(shard).in_flight.remove(&key);
        shard.woken.notify_all();
    }

    /// Lifetime counters, aggregated across shards.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let mut out = MemoStats::default();
        for shard in &self.shards {
            let state = Self::lock(shard);
            let lru = state.entries.stats();
            out.hits += lru.hits;
            out.coalesced_waits += state.coalesced_waits;
            out.leads += lru.misses;
            out.insertions += lru.insertions;
            out.evictions += lru.evictions;
            out.resident += state.entries.len() as u64;
            out.resident_bytes += state.resident_bytes;
        }
        out
    }
}

impl std::fmt::Debug for GenMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenMemo")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    fn entry(text: &str) -> MemoEntry {
        MemoEntry {
            text: text.to_string(),
            confidence: 0.9,
            prompt_tokens: 10,
            completion_tokens: 3,
            finish: FinishReason::Stop,
            block_hashes: vec![1, 2, 3],
        }
    }

    #[test]
    fn lead_then_hit() {
        let memo = GenMemo::new(64);
        match memo.lookup_or_lead(7) {
            Lookup::Lead(guard) => guard.complete(entry("out")),
            Lookup::Hit(_) => panic!("empty memo cannot hit"),
        }
        match memo.lookup_or_lead(7) {
            Lookup::Hit(e) => assert_eq!(e.text, "out"),
            Lookup::Lead(_) => panic!("completed key must hit"),
        }
        let stats = memo.stats();
        assert_eq!(stats.leads, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.resident, 1);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn abandoned_lead_releases_key_without_caching() {
        let memo = GenMemo::new(64);
        match memo.lookup_or_lead(7) {
            Lookup::Lead(guard) => drop(guard),
            Lookup::Hit(_) => panic!("empty memo cannot hit"),
        }
        assert!(memo.peek(7).is_none(), "errors are never cached");
        // The key is immediately leadable again.
        assert!(matches!(memo.lookup_or_lead(7), Lookup::Lead(_)));
    }

    #[test]
    fn lru_eviction_is_bounded_and_recency_ordered() {
        let memo = GenMemo::new(1); // 1 entry per shard
                                    // Two keys on the same shard: k and k + NUM_SHARDS as u64.
        let (a, b) = (3u64, 3 + NUM_SHARDS as u64);
        for key in [a, b] {
            match memo.lookup_or_lead(key) {
                Lookup::Lead(g) => g.complete(entry(&format!("v{key}"))),
                Lookup::Hit(_) => panic!(),
            }
        }
        assert!(memo.peek(a).is_none(), "oldest entry evicted");
        assert_eq!(memo.peek(b).unwrap().text, format!("v{b}"));
        let stats = memo.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident, 1);
    }

    /// Single-flight under racing threads: exactly one execution per key,
    /// every other thread adopts the leader's entry.
    #[test]
    fn racing_lookups_coalesce_to_one_execution() {
        const THREADS: usize = 8;
        let memo = Arc::new(GenMemo::new(64));
        let start = Arc::new(Barrier::new(THREADS));
        let executions = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let memo = Arc::clone(&memo);
            let start = Arc::clone(&start);
            let executions = Arc::clone(&executions);
            handles.push(std::thread::spawn(move || {
                start.wait();
                match memo.lookup_or_lead(42) {
                    Lookup::Hit(e) => e.text,
                    Lookup::Lead(guard) => {
                        executions.fetch_add(1, Ordering::SeqCst);
                        // Give followers time to queue up on the condvar.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        guard.complete(entry("once"));
                        "once".to_string()
                    }
                }
            }));
        }
        for handle in handles {
            assert_eq!(handle.join().unwrap(), "once");
        }
        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one leader");
        let stats = memo.stats();
        assert_eq!(stats.leads, 1);
        assert_eq!(stats.hits, THREADS as u64 - 1);
    }

    /// An error-path leader wakes followers, one of which re-leads and
    /// completes; the memo is never poisoned.
    #[test]
    fn failed_leader_hands_off_to_a_follower() {
        const FOLLOWERS: usize = 4;
        let memo = Arc::new(GenMemo::new(64));
        let leader_in = Arc::new(Barrier::new(2));
        let leads = Arc::new(AtomicU64::new(0));

        // Thread A becomes the leader, then fails.
        let failing = {
            let memo = Arc::clone(&memo);
            let leader_in = Arc::clone(&leader_in);
            std::thread::spawn(move || {
                let Lookup::Lead(guard) = memo.lookup_or_lead(9) else {
                    panic!("first flight leads");
                };
                leader_in.wait(); // followers may now pile up
                std::thread::sleep(std::time::Duration::from_millis(20));
                drop(guard); // simulated backend error
            })
        };
        leader_in.wait();
        let mut handles = Vec::new();
        for _ in 0..FOLLOWERS {
            let memo = Arc::clone(&memo);
            let leads = Arc::clone(&leads);
            handles.push(std::thread::spawn(move || match memo.lookup_or_lead(9) {
                Lookup::Hit(e) => e.text,
                Lookup::Lead(guard) => {
                    leads.fetch_add(1, Ordering::SeqCst);
                    guard.complete(entry("recovered"));
                    "recovered".to_string()
                }
            }));
        }
        failing.join().unwrap();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), "recovered");
        }
        assert_eq!(
            leads.load(Ordering::SeqCst),
            1,
            "exactly one follower re-led after the failure"
        );
        assert_eq!(memo.peek(9).unwrap().text, "recovered");
    }
}
