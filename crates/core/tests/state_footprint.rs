//! Heap footprint of a per-request [`ExecState`].
//!
//! The serving tiers build one state per queued request, so what an idle
//! state holds is multiplied by the queue length. These tests pin it with a
//! counting allocator of their own; the counters are per thread, so the
//! harness running tests side by side cannot disturb a reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spear_core::runtime::ExecState;

thread_local! {
    // Const-initialised and without destructors: touching them never
    // allocates, which an allocator must not do.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised
// thread-locals and so never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.with(|b| b.set(b.get() + layout.size() as i64));
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|b| b.set(b.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.with(|b| b.set(b.get() + new_size as i64 - layout.size() as i64));
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(live heap bytes, allocation calls)` this thread gained while building
/// the value `build` returns (which is still alive when they are read).
fn footprint<T>(build: impl FnOnce() -> T) -> (T, i64, u64) {
    let (bytes, allocs) = (LIVE_BYTES.get(), ALLOCS.get());
    let value = build();
    (value, LIVE_BYTES.get() - bytes, ALLOCS.get() - allocs)
}

#[test]
fn an_idle_state_owns_at_most_one_small_allocation() {
    let (state, bytes, allocs) = footprint(ExecState::new);
    assert!(
        bytes <= 64 && allocs <= 1,
        "ExecState::new() holds {bytes} heap bytes in {allocs} allocations"
    );

    // What admission reads from a queued request leaves it that way.
    let (_, bytes, allocs) = footprint(|| {
        assert!(state.prompts.keys().is_empty());
        assert!(state.prompts.is_empty());
        assert!(!state.prompts.contains("p"));
        assert!(state.prompts.try_get("p").is_none());
    });
    assert_eq!((bytes, allocs), (0, 0), "reads of an untouched store");
}

#[test]
fn a_queued_request_costs_its_one_input() {
    // The shape the serving tiers queue: one input in C, nothing in P.
    // What is left is C's own: a B-tree leaf, a four-slot write log and
    // the key, writer and value strings.
    let (_state, bytes, allocs) = footprint(|| {
        let mut state = ExecState::new();
        state.context.set("q", "question");
        state
    });
    assert!(
        bytes <= 904 && allocs <= 7,
        "ExecState::new() + one context.set holds {bytes} heap bytes in {allocs} allocations"
    );
}
