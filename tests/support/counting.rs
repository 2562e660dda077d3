//! The one counting `#[global_allocator]` of the tests that pin allocation
//! counts, included by each as
//! `#[path = "../../../tests/support/counting.rs"] mod counting;`.
//!
//! The counters are per thread, so tests running side by side cannot
//! disturb a reading.

#![allow(dead_code)] // each including test uses the helpers it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Allocation calls (reallocations included) this thread has made so far.
pub fn allocs_so_far() -> u64 {
    ALLOCS.get()
}

/// Allocation calls this thread makes while running `op`.
pub fn allocs(op: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    op();
    ALLOCS.get() - before
}

/// `(value, live heap bytes, allocation calls)`: what this thread gained
/// while building the value `build` returns (still alive when they are
/// read).
pub fn footprint<T>(build: impl FnOnce() -> T) -> (T, i64, u64) {
    let (bytes, allocs) = (LIVE_BYTES.get(), ALLOCS.get());
    let value = build();
    (value, LIVE_BYTES.get() - bytes, ALLOCS.get() - allocs)
}
