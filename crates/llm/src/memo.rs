//! Whole-call generation reuse: a bounded, exact-match output memo with
//! single-flight coalescing (DESIGN.md §15).
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
//! *leader* and executes; followers block on the memo's one condvar and
//! adopt the completed entry. A leader that fails (or panics — the guard
//! is drop-safe) removes its in-flight marker and wakes all followers,
//! one of which becomes the new leader: errors are never cached and
//! never poison the key.
//!
//! ## Eviction
//!
//! Completed entries are one [`LruMap`], bounded in entries; its misses
//! are the leads. In-flight keys sit in a set beside it, never in it, so
//! they are never victims. Map, set and counters share one lock: a
//! lookup holds it for a hash probe and a clone.

use std::sync::{Condvar, Mutex, MutexGuard};

use spear_core::llm::FinishReason;

use crate::hash::FoldSet;
use crate::lru::LruMap;

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

/// Counters over the memo's lifetime.
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

struct State {
    /// Completed generations.
    entries: LruMap<u64, MemoEntry>,
    /// Keys a leader is executing; followers wait on the condvar.
    in_flight: FoldSet<u64>,
    coalesced_waits: u64,
    resident_bytes: u64,
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

/// A bounded, single-flight exact-match generation memo.
pub struct GenMemo {
    state: Mutex<State>,
    woken: Condvar,
}

impl GenMemo {
    /// A memo bounded at `capacity` completed entries (at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                entries: LruMap::new(capacity),
                in_flight: FoldSet::default(),
                coalesced_waits: 0,
                resident_bytes: 0,
            }),
            woken: Condvar::new(),
        }
    }

    /// Ignore poisoning: the state is a plain map + counters, always
    /// internally consistent at every unlock point, and the in-flight
    /// protocol recovers from abandoned leaders by construction.
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
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
        let mut state = self.lock();
        while state.in_flight.contains(&key) {
            state.coalesced_waits += 1;
            state = match self.woken.wait(state) {
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
        self.lock().entries.peek(&key).cloned()
    }

    fn publish(&self, key: u64, entry: MemoEntry) {
        let mut state = self.lock();
        state.in_flight.remove(&key);
        state.resident_bytes += entry.bytes();
        let victim = state.entries.insert(key, entry);
        if let Some((_, victim)) = &victim {
            state.resident_bytes -= victim.bytes();
        }
        drop(state);
        drop(victim);
        self.woken.notify_all();
    }

    fn abandon(&self, key: u64) {
        self.lock().in_flight.remove(&key);
        self.woken.notify_all();
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let state = self.lock();
        let lru = state.entries.stats();
        MemoStats {
            hits: lru.hits,
            coalesced_waits: state.coalesced_waits,
            leads: lru.misses,
            insertions: lru.insertions,
            evictions: lru.evictions,
            resident: state.entries.len() as u64,
            resident_bytes: state.resident_bytes,
        }
    }
}

impl std::fmt::Debug for GenMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenMemo").finish_non_exhaustive()
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

    fn lead_and_complete(memo: &GenMemo, key: u64) {
        match memo.lookup_or_lead(key) {
            Lookup::Lead(g) => g.complete(entry(&format!("v{key}"))),
            Lookup::Hit(_) => panic!("key {key} is not resident"),
        }
    }

    #[test]
    fn lru_eviction_is_bounded_and_recency_ordered() {
        let memo = GenMemo::new(2);
        lead_and_complete(&memo, 3);
        lead_and_complete(&memo, 4);
        // Refresh 3; 4 becomes the least recently used.
        assert!(matches!(memo.lookup_or_lead(3), Lookup::Hit(_)));
        lead_and_complete(&memo, 5);
        assert!(memo.peek(4).is_none(), "least recently used entry evicted");
        assert_eq!(memo.peek(3).unwrap().text, "v3");
        assert_eq!(memo.peek(5).unwrap().text, "v5");
        let stats = memo.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident, 2);
    }

    #[test]
    fn capacity_bounds_the_whole_memo() {
        let memo = GenMemo::new(3);
        for key in 0..32 {
            lead_and_complete(&memo, key);
        }
        let stats = memo.stats();
        assert_eq!(
            (stats.resident, stats.insertions, stats.evictions),
            (3, 32, 29)
        );
        assert!((29..32).all(|key| memo.peek(key).is_some()));
        assert_eq!(stats.resident_bytes, 3 * entry("v29").bytes());
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
