//! Exhaustive interleaving check for the [`BlockPool`] **pin invariant**
//! on a single pool stripe: under *every* schedule of 2 allocator threads
//! × 1 evictor thread, a leased path is never (even partially) evicted,
//! capacity is never breached, and the counters reconcile after every
//! single operation.
//!
//! Like `race_interleavings.rs`, this enumerates all merge orders of the
//! participants' operation logs — here the multinomial (3+3+2)!/(3!·3!·2!)
//! = 560 schedules — and drives each through the real pool on three real
//! threads handing the turn over via a condvar turnstile, so the stripe
//! mutex sees genuine cross-thread handoffs at every enumerated point.
//! Eviction *counts* may differ between schedules (eviction is the
//! documented interleaving-dependent escape hatch); safety must not.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use spear_llm::BlockPool;

const CAPACITY: usize = 6;

/// A sequence that is never leased across turns: the evictor's.
const PRESSURE_SEQ: u64 = 3;

/// The evictor: lease as much as fits of a pool-sized chain of fresh
/// blocks, then preempt it. Capacity pressure is the pool's only
/// eviction, so this evicts every unpinned block it needs room for; with
/// nothing pinned it takes the pool to empty.
fn press(pool: &BlockPool) {
    let fresh: Vec<u64> = (0..CAPACITY as u64).map(|i| 9_000 + i).collect();
    pool.allocate_prefix(PRESSURE_SEQ, &fresh);
    pool.free(PRESSURE_SEQ);
}

/// Shared family prefix + per-sequence private tail.
fn chain(seq: u64, len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| if i < 2 { 100 + i } else { seq * 1_000 + i })
        .collect()
}

/// All merge orders of logs with the given per-participant lengths.
fn schedules(lens: &[usize]) -> Vec<Vec<usize>> {
    fn go(remaining: &mut [usize], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.iter().all(|&r| r == 0) {
            out.push(prefix.clone());
            return;
        }
        for who in 0..remaining.len() {
            if remaining[who] > 0 {
                remaining[who] -= 1;
                prefix.push(who);
                go(remaining, prefix, out);
                prefix.pop();
                remaining[who] += 1;
            }
        }
    }
    let mut out = Vec::new();
    go(&mut lens.to_vec(), &mut Vec::new(), &mut out);
    out
}

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

    /// Run `op(step)` at each of `who`'s scheduled turns, in order.
    fn drive(&self, who: usize, mut op: impl FnMut(usize)) {
        let mut step = 0usize;
        loop {
            let mut pos = self.pos.lock().expect("turnstile poisoned");
            while *pos < self.turns.len() && self.turns[*pos] != who {
                pos = self.cv.wait(pos).expect("turnstile poisoned");
            }
            if *pos >= self.turns.len() {
                return;
            }
            drop(pos);
            // Our turn: touch the pool *outside* the turnstile lock so the
            // stripe mutex really arbitrates the handoff.
            op(step);
            step += 1;
            let mut pos = self.pos.lock().expect("turnstile poisoned");
            *pos += 1;
            self.cv.notify_all();
        }
    }
}

/// Shared ground truth of which chains are currently leased. Updated and
/// checked inside each turn (turns are serialized by the turnstile, so a
/// plain mutex-protected map is a faithful observer).
#[derive(Default)]
struct Registry {
    leases: HashMap<u64, usize>,
}

fn check_safety(pool: &BlockPool, registry: &Registry, who: usize, step: usize) {
    assert!(
        pool.live_blocks() <= pool.capacity(),
        "participant {who} step {step}: capacity breached"
    );
    let s = pool.stats();
    assert_eq!(
        s.inserted_blocks - s.evicted_blocks - s.freed_blocks,
        pool.live_blocks() as u64,
        "participant {who} step {step}: counters do not reconcile"
    );
    for (&seq, &len) in &registry.leases {
        assert_eq!(
            pool.peek(&chain(seq, len)),
            len,
            "participant {who} step {step}: pinned path of seq {seq} evicted"
        );
    }
}

#[test]
fn pin_invariant_holds_under_every_allocator_evictor_schedule() {
    // Per-participant logs: allocator `seq` grows a lease in two steps
    // (shared prefix, then a private tail) and then frees it; the evictor
    // fires twice. 2 allocators × 3 ops + 1 evictor × 2 ops = 8 turns.
    let all = schedules(&[3, 3, 2]);
    assert_eq!(all.len(), 560, "(3+3+2)!/(3!·3!·2!) schedules");

    for schedule in all {
        // One stripe: every chain, lease, and eviction contends on the
        // same mutex — the hardest case for the pin discipline.
        let pool = Arc::new(BlockPool::new(CAPACITY, 1));
        let turnstile = Arc::new(Turnstile::new(schedule.clone()));
        let registry = Arc::new(Mutex::new(Registry::default()));

        std::thread::scope(|scope| {
            for who in 0..2usize {
                let pool = Arc::clone(&pool);
                let turnstile = Arc::clone(&turnstile);
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let seq = who as u64 + 1;
                    turnstile.drive(who, |step| {
                        let mut reg = registry.lock().expect("registry poisoned");
                        match step {
                            0 | 1 => {
                                // Grow the lease: 2 shared blocks, then +2
                                // private ones.
                                let len = (step + 1) * 2;
                                if pool.allocate(seq, &chain(seq, len)).is_ok() {
                                    reg.leases.insert(seq, len);
                                }
                            }
                            _ => {
                                pool.free(seq);
                                reg.leases.remove(&seq);
                            }
                        }
                        check_safety(&pool, &reg, who, step);
                    })
                });
            }
            let pool_e = Arc::clone(&pool);
            let turnstile_e = Arc::clone(&turnstile);
            let registry_e = Arc::clone(&registry);
            scope.spawn(move || {
                turnstile_e.drive(2, |step| {
                    let reg = registry_e.lock().expect("registry poisoned");
                    press(&pool_e);
                    check_safety(&pool_e, &reg, 2, step);
                });
            });
        });

        // End state: both sequences freed their leases, so nothing is
        // pinned; whatever survived is evictable cache.
        assert_eq!(pool.pinned_blocks(), 0, "dangling pins under {schedule:?}");
        press(&pool);
        assert_eq!(
            pool.live_blocks(),
            0,
            "unreachable blocks under {schedule:?}"
        );
        let s = pool.stats();
        assert_eq!(
            s.inserted_blocks,
            s.evicted_blocks + s.freed_blocks,
            "final counters do not reconcile under {schedule:?}"
        );
    }
}

#[test]
fn schedule_enumeration_is_exhaustive_and_unique() {
    let all = schedules(&[2, 2, 1]);
    assert_eq!(all.len(), 30, "5!/(2!·2!·1!)");
    let unique: std::collections::BTreeSet<Vec<usize>> = all.iter().cloned().collect();
    assert_eq!(unique.len(), all.len(), "no duplicate schedules");
    for s in &all {
        assert_eq!(s.iter().filter(|&&w| w == 0).count(), 2);
        assert_eq!(s.iter().filter(|&&w| w == 1).count(), 2);
        assert_eq!(s.iter().filter(|&&w| w == 2).count(), 1);
    }
}
