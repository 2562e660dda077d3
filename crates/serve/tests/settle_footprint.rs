//! The pool clock's heap bound. A pressured run executes every request
//! before the KV scheduler times any of them, so whatever a finished job
//! leaves behind is held for all of the run's requests at once, and so is
//! whatever the KV scheduler keeps of a finished sequence. Each job is
//! reduced to what serving keeps on the lane that ran it, and a finished
//! sequence frees its block-hash chain, so the peak heap of a run grows by
//! a fixed, small number of bytes per extra request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spear_core::batch::BatchRunner;
use spear_core::llm::LlmClient;
use spear_core::runtime::Runtime;
use spear_llm::{ModelProfile, SimLlm};
use spear_serve::prelude::*;

/// Bytes currently allocated, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Tracks live and peak bytes over every thread, lanes included. This file
/// holds one test, so no other test's allocations mix into a reading.
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only two atomics and so
// never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Restart the peak at what is live now, and return that.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The bursty, pressured workload of `preemption.rs`: arrivals far faster
/// than service, six GENs a request, four families.
fn bursty_load(requests: usize) -> LoadGenConfig {
    LoadGenConfig {
        seed: 7,
        requests,
        families: 4,
        mean_interarrival_us: 500,
        interactive_fraction: 0.6,
        interactive_deadline_us: None,
        gen_calls: 6,
        family_zipf: 0.0,
        duplicate_share: 0.0,
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        lanes: 2,
        admission: AdmissionConfig {
            max_depth: 100_000,
            ..AdmissionConfig::default()
        },
        pressure: Some(KvPressureConfig {
            pool_blocks: 200,
            block_size: 4,
            max_batched_tokens: 1024,
            prefill_chunk_tokens: 128,
            ..KvPressureConfig::default()
        }),
        ..ServeConfig::default()
    }
}

fn engine_and_runtime(workload: &GeneratedWorkload) -> (Arc<SimLlm>, Runtime) {
    let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
    let runtime = Runtime::builder()
        .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
        .views(workload.views.clone())
        .build();
    (engine, runtime)
}

/// Peak bytes a two-lane pressured run of `requests` allocates above what
/// was live when it began (the generated requests, engine and runtime).
fn run_peak(requests: usize) -> usize {
    let workload = generate(&bursty_load(requests));
    let (engine, runtime) = engine_and_runtime(&workload);
    let node = ServeNode::new(config());
    let base = reset_peak();
    let run = node.run(&runtime, Some(&engine), workload.requests);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(run.report.interactive.failed + run.report.batch.failed, 0);
    assert!(run.report.kv.preempted > 0, "the pool is contended");
    peak
}

/// Bytes one executed request's `ExecState` holds: its trace, context
/// and prompt versions, as freed when the outcome drops.
fn executed_state_bytes() -> usize {
    let workload = generate(&bursty_load(1));
    let (_engine, runtime) = engine_and_runtime(&workload);
    let request = workload.requests.into_iter().next().expect("one request");
    let mut outcomes =
        BatchRunner::new(1).run_lowered(&runtime, &request.plan, vec![*request.state]);
    let outcome = outcomes.pop().expect("one outcome").expect("it completes");
    let held = LIVE.load(Ordering::Relaxed);
    drop(outcome);
    held - LIVE.load(Ordering::Relaxed)
}

#[test]
fn pool_clock_peak_heap_grows_by_a_bounded_amount_per_request() {
    let state = executed_state_bytes();
    let small = run_peak(256);
    let large = run_peak(1024);
    let per_request = large.saturating_sub(small) / (1024 - 256);
    eprintln!(
        "executed state {state} B; peak above start {small} B at 256 requests, \
         {large} B at 1024; {per_request} B per extra request"
    );
    // Measured on the seed-7 workload: 736 to 762 B per extra request over
    // six runs (the two lanes' interleaving moves it by a few tens of
    // bytes), against a 5 390 B executed state. It was 2 564 B while the
    // KV scheduler kept every finished sequence's block-hash chain until
    // it returned; shipping every state back to the scheduler thread, to
    // be digested and freed after the lanes finish, grew the peak by
    // 10 502 B per request.
    assert!(
        per_request <= 800,
        "peak heap grows {per_request} B per request, an executed state is {state} B"
    );
}
