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
//! Per-shard LRU over *completed* entries only; in-flight markers are
//! pinned (there is nothing to evict yet, and followers hold the key's
//! identity in their stacks). Capacity is split evenly across shards.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};

use spear_core::llm::FinishReason;

use crate::lru::LruIndex;

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

enum Slot {
    /// A leader is executing this key; followers wait on the shard
    /// condvar.
    InFlight,
    /// A completed generation.
    Ready { entry: MemoEntry, last_used: u64 },
}

#[derive(Default)]
struct ShardState {
    slots: HashMap<u64, Slot>,
    /// The `Ready` slots — the evictable ones — in LRU order.
    ready: LruIndex,
    tick: u64,
    hits: u64,
    coalesced_waits: u64,
    leads: u64,
    insertions: u64,
    evictions: u64,
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
    capacity_per_shard: usize,
}

impl GenMemo {
    /// A memo bounded at roughly `capacity` completed entries, split
    /// evenly across the lock stripes (each stripe holds at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: (0..NUM_SHARDS)
                .map(|_| Shard {
                    state: Mutex::new(ShardState::default()),
                    woken: Condvar::new(),
                })
                .collect(),
            capacity_per_shard: capacity.div_ceil(NUM_SHARDS).max(1),
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
        loop {
            let shard_state = &mut *state;
            match shard_state.slots.get_mut(&key) {
                Some(Slot::Ready { entry, last_used }) => {
                    shard_state.tick += 1;
                    shard_state.ready.touch(key, *last_used, shard_state.tick);
                    *last_used = shard_state.tick;
                    shard_state.hits += 1;
                    return Lookup::Hit(entry.clone());
                }
                Some(Slot::InFlight) => {
                    shard_state.coalesced_waits += 1;
                    state = match shard.woken.wait(state) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    // Loop: the leader either published (Ready → hit) or
                    // abandoned (absent → we may lead).
                }
                None => {
                    shard_state.slots.insert(key, Slot::InFlight);
                    shard_state.leads += 1;
                    return Lookup::Lead(LeadGuard {
                        memo: self,
                        key,
                        done: false,
                    });
                }
            }
        }
    }

    /// A non-coalescing peek used by tests: `Some` iff a completed entry
    /// is resident (never blocks, never leads, does not touch LRU order).
    #[must_use]
    pub fn peek(&self, key: u64) -> Option<MemoEntry> {
        let state = Self::lock(self.shard(key));
        match state.slots.get(&key) {
            Some(Slot::Ready { entry, .. }) => Some(entry.clone()),
            _ => None,
        }
    }

    fn publish(&self, key: u64, entry: MemoEntry) {
        let shard = self.shard(key);
        let mut state = Self::lock(shard);
        // Evict LRU completed entries to stay within bound; the slot being
        // published replaces an InFlight marker, so resident count grows
        // by one. In-flight markers are pinned.
        while state.ready.len() >= self.capacity_per_shard {
            let Some(victim) = state.ready.pop_lru() else {
                break;
            };
            if let Some(Slot::Ready { entry, .. }) = state.slots.remove(&victim) {
                state.resident_bytes -= entry.bytes();
                state.evictions += 1;
            }
        }
        state.tick += 1;
        let tick = state.tick;
        state.resident_bytes += entry.bytes();
        state.insertions += 1;
        state.ready.insert(tick, key);
        state.slots.insert(
            key,
            Slot::Ready {
                entry,
                last_used: tick,
            },
        );
        drop(state);
        shard.woken.notify_all();
    }

    fn abandon(&self, key: u64) {
        let shard = self.shard(key);
        let mut state = Self::lock(shard);
        // Only remove our own in-flight marker: if the slot is Ready some
        // later flight already published (cannot happen while we hold
        // leadership, but stay defensive).
        if matches!(state.slots.get(&key), Some(Slot::InFlight)) {
            state.slots.remove(&key);
        }
        drop(state);
        shard.woken.notify_all();
    }

    /// Lifetime counters, aggregated across shards.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let mut out = MemoStats::default();
        for shard in &self.shards {
            let state = Self::lock(shard);
            out.hits += state.hits;
            out.coalesced_waits += state.coalesced_waits;
            out.leads += state.leads;
            out.insertions += state.insertions;
            out.evictions += state.evictions;
            out.resident += state.ready.len() as u64;
            out.resident_bytes += state.resident_bytes;
        }
        out
    }

    /// Drop every completed entry (between benchmark configurations).
    /// In-flight markers are left alone; their leaders still own them.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut state = Self::lock(shard);
            state.slots.retain(|_, slot| matches!(slot, Slot::InFlight));
            state.ready.clear();
            state.resident_bytes = 0;
        }
    }
}

impl std::fmt::Debug for GenMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenMemo")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .finish()
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

    #[test]
    fn clear_drops_completed_entries() {
        let memo = GenMemo::new(64);
        if let Lookup::Lead(g) = memo.lookup_or_lead(1) {
            g.complete(entry("x"));
        }
        memo.clear();
        assert!(memo.peek(1).is_none());
        assert_eq!(memo.stats().resident, 0);
        assert_eq!(memo.stats().resident_bytes, 0);
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
