//! Allocations of one cold compile of the kitchen-sink program (every
//! statement, clause and condition form): `spear_dl::compile`, the front
//! end, and `Compiled::lower`, which emits the programs. Both run on every
//! program a deployment has not seen, so what they allocate per statement
//! is part of each cold compile's cost. The counting allocator is per
//! thread, so tests running side by side cannot disturb a reading.

#[path = "../../../tests/support/counting.rs"]
mod counting;

/// Allocations compiling the kitchen-sink program makes: 519 since an
/// inline GEN prompt is parsed where the parser builds its operator (513
/// when `lower` parsed it instead; 590 when the parser built a syntax tree
/// that a second pass translated).
const BUDGET: u64 = 519;

const KITCHEN_SINK: &str = include_str!("kitchen_sink.dl");

/// Allocation calls (reallocations included) one `compile` makes.
fn compile_allocs(src: &str) -> u64 {
    let before = counting::allocs_so_far();
    let compiled = spear_dl::compile(src);
    let allocs = counting::allocs_so_far() - before;
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

/// Allocations lowering the kitchen-sink plans (2 plans, 68 slots) makes:
/// 239, now that a program holds its code and its specs sized for the
/// tree up front, with no interned describe lines, triggers or frame
/// lists (444 with a string pool; 444 was also the first call's count
/// once `lower` parsed nothing). Compile and lower together made 963
/// then, against 965 when `lower` parsed inline prompts through a
/// process-wide cache (513 + 452 on its first call, 445 on a warm one).
/// Lowering to a separate plan form and then translating that into
/// programs made 331 + 386 = 717 (393 for the translation on a cold
/// template cache).
const LOWER_BUDGET: u64 = 239;

/// Allocation calls (reallocations included) one `lower` makes.
fn lower_allocs(compiled: &spear_dl::Compiled) -> u64 {
    let before = counting::allocs_so_far();
    let plans = compiled.lower();
    let allocs = counting::allocs_so_far() - before;
    let plans = plans.expect("the kitchen sink lowers");
    let slots: usize = plans.iter().map(|plan| plan.code().len()).sum();
    assert_eq!((plans.len(), slots), (2, 68), "the kitchen-sink plans");
    allocs
}

#[test]
fn lowering_the_kitchen_sink_stays_within_its_allocation_budget() {
    let compiled = spear_dl::compile(KITCHEN_SINK).expect("the program compiles");
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
