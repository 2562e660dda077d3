//! Allocations of one cold compile: `spear_dl::compile` on the kitchen-sink
//! program (every statement, clause and condition form). The front end
//! runs on every program a deployment has not seen, so what it allocates
//! per statement is part of each cold compile's cost. The counting
//! allocator is per thread, so tests running side by side cannot disturb
//! a reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without destructors: touching them never
    // allocates, which an allocator must not do.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised
// thread-local and so never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations compiling the kitchen-sink program makes: 513 when the
/// parser emits core ops directly (590 when it built a syntax tree that a
/// second pass translated).
const BUDGET: u64 = 513;

const KITCHEN_SINK: &str = include_str!("kitchen_sink.dl");

/// Allocation calls (reallocations included) one `compile` makes.
fn compile_allocs(src: &str) -> u64 {
    let before = ALLOCS.get();
    let compiled = spear_dl::compile(src);
    let allocs = ALLOCS.get() - before;
    assert!(compiled.is_ok(), "the program compiles");
    allocs
}

#[test]
fn compiling_the_kitchen_sink_stays_within_its_allocation_budget() {
    let allocs = compile_allocs(KITCHEN_SINK);
    assert!(
        allocs <= BUDGET,
        "compiling the kitchen-sink program made {allocs} allocations (budget {BUDGET})"
    );
    assert_eq!(
        compile_allocs(KITCHEN_SINK),
        allocs,
        "a compile is deterministic"
    );
}
