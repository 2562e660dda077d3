//! Property tests for the bounded KV [`BlockPool`]: for *arbitrary*
//! sequences of allocate / release / free / pressure operations, the pool's
//! three safety invariants hold after every single step —
//!
//! 1. pinned (leased) blocks are never evicted: every active lease's full
//!    path stays resident;
//! 2. `live_blocks() <= capacity()` at all times;
//! 3. the counters reconcile exactly:
//!    `inserted − evicted − freed == live`.
//!
//! A twin pool runs the same operations, except that it pins a resident
//! prefix with `peek` then `allocate` of that prefix, the two calls
//! `pin_resident` stands for: after every step both pools must agree on
//! grants, counters, residency and leases, so the one-walk `pin_resident`
//! leaves the same recency behind and later evictions pick the same
//! victims.
//!
//! On failure proptest shrinks to a minimal counterexample op sequence.

use std::collections::HashMap;

use proptest::prelude::*;
use spear_llm::pool::BlockPool;

const FAMILIES: u64 = 4;
const MAX_SEQS: u64 = 6;

/// Block hash `i` of family `fam` — sequences of the same family share a
/// physical prefix, which is what makes ref-counting interesting.
fn family_chain(fam: u64, len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| (fam + 1) * 10_000 + i + 1)
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate (or extend) sequence `seq`'s lease to `len` blocks of
    /// family `fam` (the family is fixed by the sequence's first
    /// allocation; later ones only ever extend the same chain).
    Allocate { seq: u64, fam: u64, len: usize },
    /// Unpin, keeping blocks resident.
    Release { seq: u64 },
    /// Unpin and drop private blocks (preemption).
    Free { seq: u64 },
    /// Extend `seq`'s lease over whatever of its chain is resident,
    /// inserting nothing (admission).
    PinResident { seq: u64, fam: u64, len: usize },
    /// A sequence outside the model leases as much as fits of `n` fresh
    /// blocks and is preempted at once: capacity pressure alone, which
    /// evicts unpinned blocks in LRU order.
    Pressure { n: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..MAX_SEQS, 0..FAMILIES, 0..10usize)
            .prop_map(|(seq, fam, len)| Op::Allocate { seq, fam, len }),
        2 => (0..MAX_SEQS).prop_map(|seq| Op::Release { seq }),
        2 => (0..MAX_SEQS).prop_map(|seq| Op::Free { seq }),
        2 => (0..MAX_SEQS, 0..FAMILIES, 0..10usize)
            .prop_map(|(seq, fam, len)| Op::PinResident { seq, fam, len }),
        2 => (1..6usize).prop_map(|n| Op::Pressure { n }),
    ]
}

/// The sequence [`Op::Pressure`] and [`drain`] lease for: outside the
/// model's `0..MAX_SEQS`.
const PRESSURE_SEQ: u64 = MAX_SEQS;

/// Lease as much as fits of `len` blocks that share no hash with any
/// family, then preempt them.
fn press(pool: &mut BlockPool, len: usize) {
    let chain: Vec<u64> = (0..len as u64).map(|i| i * 1_000_000).collect();
    pool.allocate_prefix(PRESSURE_SEQ, &chain);
    pool.free(PRESSURE_SEQ);
}

/// Take a pool with nothing pinned to empty through capacity pressure: one
/// pool-sized chain evicts every resident block, then is freed.
fn drain(pool: &mut BlockPool) {
    let capacity = pool.capacity();
    press(pool, capacity);
}

/// The reference model: which chain each active lease pins.
#[derive(Default)]
struct Model {
    /// `seq -> (family, leased chain length)`.
    leases: HashMap<u64, (u64, usize)>,
}

/// `pool` and its `twin` hold the same blocks, pins, leases and counters.
fn check_twins(pool: &BlockPool, twin: &BlockPool, step: usize, op: &Op) {
    assert_eq!(pool.stats(), twin.stats(), "step {step} ({op:?}): stats");
    assert_eq!(
        (pool.live_blocks(), pool.pinned_blocks()),
        (twin.live_blocks(), twin.pinned_blocks()),
        "step {step} ({op:?}): live and pinned blocks"
    );
    for fam in 0..FAMILIES {
        let chain = family_chain(fam, 10);
        assert_eq!(
            pool.peek(&chain),
            twin.peek(&chain),
            "step {step} ({op:?}): resident blocks of family {fam}"
        );
    }
    for seq in 0..MAX_SEQS {
        assert_eq!(
            pool.lease_blocks(seq),
            twin.lease_blocks(seq),
            "step {step} ({op:?}): lease of seq {seq}"
        );
    }
}

fn check_invariants(pool: &BlockPool, model: &Model, step: usize, op: &Op) {
    let live = pool.live_blocks();
    assert!(
        live <= pool.capacity(),
        "step {step} ({op:?}): live {live} exceeds capacity {}",
        pool.capacity()
    );
    let s = pool.stats();
    assert_eq!(
        s.inserted_blocks - s.evicted_blocks - s.freed_blocks,
        live as u64,
        "step {step} ({op:?}): counters do not reconcile: {s:?}"
    );
    for (&seq, &(fam, len)) in &model.leases {
        let chain = family_chain(fam, len);
        assert_eq!(
            pool.lease_blocks(seq),
            Some(len),
            "step {step} ({op:?}): lease length drifted for seq {seq}"
        );
        assert_eq!(
            pool.peek(&chain),
            len,
            "step {step} ({op:?}): pinned path of seq {seq} partially evicted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pool_invariants_hold_for_arbitrary_op_sequences(
        capacity in 2..16usize,
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut pool = BlockPool::new(capacity);
        let mut twin = BlockPool::new(capacity);
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Allocate { seq, fam, len } => {
                    // A sequence's chain is fixed at first allocation;
                    // later allocations extend it (the pool contract).
                    let (fam, len) = match model.leases.get(&seq) {
                        Some(&(held_fam, held_len)) => (held_fam, held_len.max(len)),
                        None => (fam, len),
                    };
                    let chain = family_chain(fam, len);
                    let before_live = pool.live_blocks();
                    let before_stats = pool.stats();
                    let result = pool.allocate(seq, &chain);
                    prop_assert_eq!(result, twin.allocate(seq, &chain));
                    match result {
                        Ok(grant) => {
                            prop_assert_eq!(grant.lease_blocks, len);
                            if len > 0 {
                                model.leases.insert(seq, (fam, len));
                            }
                        }
                        Err(_) => {
                            // Failure must not mutate residency or
                            // pin state (only the failure counters).
                            prop_assert_eq!(pool.live_blocks(), before_live);
                            let after = pool.stats();
                            prop_assert_eq!(
                                after.inserted_blocks,
                                before_stats.inserted_blocks
                            );
                            prop_assert_eq!(
                                after.evicted_blocks,
                                before_stats.evicted_blocks
                            );
                            prop_assert_eq!(
                                after.alloc_failures,
                                before_stats.alloc_failures + 1
                            );
                        }
                    }
                }
                Op::Release { seq } => {
                    pool.release(seq);
                    twin.release(seq);
                    model.leases.remove(&seq);
                }
                Op::Free { seq } => {
                    pool.free(seq);
                    twin.free(seq);
                    model.leases.remove(&seq);
                }
                Op::PinResident { seq, fam, len } => {
                    let (fam, len) = match model.leases.get(&seq) {
                        Some(&(held_fam, held_len)) => (held_fam, held_len.max(len)),
                        None => (fam, len),
                    };
                    let chain = family_chain(fam, len);
                    let grant = pool.pin_resident(seq, &chain);
                    let resident = twin.peek(&chain);
                    let want = twin.allocate(seq, &chain[..resident]);
                    prop_assert_eq!(Ok(grant), want);
                    prop_assert_eq!(grant.new_blocks, 0);
                    if grant.lease_blocks > 0 {
                        model.leases.insert(seq, (fam, grant.lease_blocks));
                    }
                }
                Op::Pressure { n } => {
                    press(&mut pool, n);
                    press(&mut twin, n);
                }
            }
            check_invariants(&pool, &model, step, op);
            check_twins(&pool, &twin, step, op);
        }
        // Drain every lease: with nothing pinned, pressure can take the pool
        // to empty and the counters still reconcile to zero.
        let seqs: Vec<u64> = model.leases.keys().copied().collect();
        for seq in seqs {
            pool.release(seq);
        }
        model.leases.clear();
        drain(&mut pool);
        prop_assert_eq!(pool.live_blocks(), 0);
        prop_assert_eq!(pool.pinned_blocks(), 0);
        let s = pool.stats();
        prop_assert_eq!(s.inserted_blocks, s.evicted_blocks + s.freed_blocks);
    }
}
