//! Allocations of one cold compile of the kitchen-sink program (every
//! statement, clause and condition form): `spear_dl::compile`, the front
//! end, and `Compiled::lower`, which emits the programs. Both run on every
//! program a deployment has not seen, so what they allocate per statement
//! is part of each cold compile's cost. The counting allocator is per
//! thread, so tests running side by side cannot disturb a reading.

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

/// Allocations lowering the kitchen-sink plans (2 plans, 68 slots) makes,
/// template parse cache warm: 445 when lowering emits the programs
/// directly. Lowering to a separate plan form and then translating that
/// into programs made 331 + 386 = 717 (393 for the translation on a cold
/// template cache).
const LOWER_BUDGET: u64 = 445;

/// Allocation calls (reallocations included) one `lower` makes.
fn lower_allocs(compiled: &spear_dl::Compiled) -> u64 {
    let before = ALLOCS.get();
    let plans = compiled.lower();
    let allocs = ALLOCS.get() - before;
    let plans = plans.expect("the kitchen sink lowers");
    let slots: usize = plans.iter().map(|plan| plan.code().len()).sum();
    assert_eq!((plans.len(), slots), (2, 68), "the kitchen-sink plans");
    allocs
}

#[test]
fn lowering_the_kitchen_sink_stays_within_its_allocation_budget() {
    let compiled = spear_dl::compile(KITCHEN_SINK).expect("the program compiles");
    // The first lowering fills the process-wide template parse cache.
    lower_allocs(&compiled);
    let allocs = lower_allocs(&compiled);
    assert!(
        allocs <= LOWER_BUDGET,
        "lowering the kitchen-sink plans made {allocs} allocations (budget {LOWER_BUDGET})"
    );
    assert_eq!(
        lower_allocs(&compiled),
        allocs,
        "a lowering is deterministic"
    );
}
