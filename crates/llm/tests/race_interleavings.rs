//! Loom-style exhaustive interleaving check for the lock-striped prefix
//! cache's **owner discipline**: an owner's hit sequence may depend only
//! on its own history plus pre-warmed shared blocks — never on how its
//! operations interleave with another owner's.
//!
//! Instead of a stochastic thread stress (that is
//! `striped_cache_stress.rs`), this test *enumerates every schedule*: all
//! C(n+m, n) merge orders of two owners' operation logs. Each schedule is
//! driven through the real cache on two real threads that hand the turn
//! to each other (condvar turnstile), so the shard mutexes see genuine
//! cross-thread handoffs at every enumerated point. The invariant: every
//! owner's per-request hit counts equal its solo baseline, under every
//! schedule, and the aggregate stats are schedule-invariant.
//!
//! Referenced from DESIGN.md §5; run it alone via `just race`.

use std::sync::{Arc, Condvar, Mutex};

use spear_llm::{BlockHasher, StripedPrefixCache, Token};

const BLOCK_SIZE: usize = 4;
const CAPACITY_BLOCKS: usize = 1024;
const NUM_SHARDS: usize = 4;

fn tokens(raw: &[u64]) -> Vec<Token> {
    raw.iter().map(|&t| Token(t)).collect()
}

/// The cache's hashed lookup-then-insert of a token stream.
fn lookup_insert(cache: &StripedPrefixCache, tokens: &[Token], owner: u64) -> usize {
    let mut hashes = Vec::new();
    BlockHasher::new(BLOCK_SIZE).push_all(tokens, &mut hashes);
    cache.lookup_insert_hashed(&hashes, tokens.len(), owner)
}

/// A fresh cache pre-warmed with one shared 2-block prefix.
fn fresh_cache() -> StripedPrefixCache {
    let cache = StripedPrefixCache::new(BLOCK_SIZE, CAPACITY_BLOCKS, NUM_SHARDS);
    cache.warm(&tokens(&[1, 2, 3, 4, 5, 6, 7, 8]));
    cache
}

/// Enumerate every merge order of `a` slots for owner 0 and `b` slots for
/// owner 1 (each schedule is a vector of owner ids, C(a+b, a) in total).
fn schedules(a: usize, b: usize) -> Vec<Vec<usize>> {
    fn go(a: usize, b: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if a == 0 && b == 0 {
            out.push(prefix.clone());
            return;
        }
        if a > 0 {
            prefix.push(0);
            go(a - 1, b, prefix, out);
            prefix.pop();
        }
        if b > 0 {
            prefix.push(1);
            go(a, b - 1, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    go(a, b, &mut Vec::new(), &mut out);
    out
}

/// Turnstile: threads block until `turns[pos]` names them, perform one
/// operation, then advance `pos` and wake the other thread.
struct Turnstile {
    turns: Vec<usize>,
    pos: Mutex<usize>,
    cv: Condvar,
}

impl Turnstile {
    fn new(turns: Vec<usize>) -> Self {
        Self {
            turns,
            pos: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Run `op` at each of `who`'s scheduled turns, in order.
    fn drive<T>(&self, who: usize, mut op: impl FnMut() -> T) -> Vec<T> {
        let mut results = Vec::new();
        loop {
            let mut pos = self.pos.lock().expect("turnstile poisoned");
            while *pos < self.turns.len() && self.turns[*pos] != who {
                pos = self.cv.wait(pos).expect("turnstile poisoned");
            }
            if *pos >= self.turns.len() {
                return results;
            }
            drop(pos);
            // The turn is ours: touch the cache *outside* the turnstile
            // lock so the shard mutexes really arbitrate the handoff.
            results.push(op());
            let mut pos = self.pos.lock().expect("turnstile poisoned");
            *pos += 1;
            self.cv.notify_all();
        }
    }
}

/// Per-owner operation logs: overlapping prefixes, both extending the
/// warm shared prefix and each other's (which owner discipline must keep
/// invisible across owners).
fn logs() -> [Vec<Vec<Token>>; 2] {
    [
        vec![
            tokens(&[1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13]), // warm + private
            tokens(&[1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13]), // full self-hit
            tokens(&[1, 2, 3, 4, 20, 21, 22, 23]),             // half warm + private
            tokens(&[40, 41, 42, 43]),                         // cold
        ],
        vec![
            tokens(&[1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13]), // same bytes as owner 0!
            tokens(&[1, 2, 3, 4, 20, 21, 22, 23]),             // same as owner 0's third
            tokens(&[40, 41, 42, 43]),                         // same cold run
            tokens(&[1, 2, 3, 4, 5, 6, 7, 8]),                 // pure warm hit
        ],
    ]
}

/// Each owner's hit counts with the other owner absent entirely.
fn solo_baseline(log: &[Vec<Token>], owner: u64) -> Vec<usize> {
    let cache = fresh_cache();
    log.iter()
        .map(|t| lookup_insert(&cache, t, owner))
        .collect()
}

#[test]
fn owner_discipline_holds_under_every_interleaving() {
    let [log_a, log_b] = logs();
    let solo = [solo_baseline(&log_a, 1), solo_baseline(&log_b, 2)];
    let all = schedules(log_a.len(), log_b.len());
    assert_eq!(all.len(), 70, "C(8,4) schedules");

    let mut stats_witness = None;
    for schedule in all {
        let cache = Arc::new(fresh_cache());
        let turnstile = Arc::new(Turnstile::new(schedule.clone()));
        let mut per_owner: Vec<Vec<usize>> = Vec::with_capacity(2);
        std::thread::scope(|s| {
            let handles: Vec<_> = [&log_a, &log_b]
                .into_iter()
                .enumerate()
                .map(|(who, log)| {
                    let cache = Arc::clone(&cache);
                    let turnstile = Arc::clone(&turnstile);
                    s.spawn(move || {
                        let mut next = 0usize;
                        turnstile.drive(who, || {
                            let hits = lookup_insert(&cache, &log[next], who as u64 + 1);
                            next += 1;
                            hits
                        })
                    })
                })
                .collect();
            for handle in handles {
                per_owner.push(handle.join().expect("worker panicked"));
            }
        });

        for (who, observed) in per_owner.iter().enumerate() {
            assert_eq!(
                observed,
                &solo[who],
                "owner {} saw schedule-dependent hits under {:?}",
                who + 1,
                schedule
            );
        }
        // Aggregate stats are schedule-invariant too: same ops happened,
        // only their order differed, and order is unobservable.
        let stats = cache.stats();
        match &stats_witness {
            None => stats_witness = Some(stats),
            Some(expected) => assert_eq!(&stats, expected, "stats drifted under {schedule:?}"),
        }
    }
}

#[test]
fn schedule_enumeration_is_exhaustive_and_unique() {
    let all = schedules(3, 2);
    assert_eq!(all.len(), 10, "C(5,3)");
    let unique: std::collections::BTreeSet<Vec<usize>> = all.iter().cloned().collect();
    assert_eq!(unique.len(), all.len(), "no duplicate schedules");
    for s in &all {
        assert_eq!(s.iter().filter(|&&w| w == 0).count(), 3);
        assert_eq!(s.iter().filter(|&&w| w == 1).count(), 2);
    }
}
