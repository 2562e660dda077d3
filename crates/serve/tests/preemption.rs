//! Memory-pressure invariants: a bounded KV block pool shapes *timing*
//! — queue waits, service time, preemptions, evictions — but never
//! *results*. A pressured run must produce byte-identical executions to
//! the unconstrained run of the same workload, and all contended
//! counters must be lane-count-invariant.

use std::sync::Arc;

use proptest::prelude::*;
use spear_core::llm::LlmClient;
use spear_core::runtime::Runtime;
use spear_llm::{ModelProfile, SimLlm};
use spear_serve::prelude::*;

/// A pool tight enough that a serving run with concurrent decode work
/// must evict resident blocks and preempt running sequences.
fn tight_pressure() -> KvPressureConfig {
    KvPressureConfig {
        pool_blocks: 200,
        block_size: 4,
        max_batched_tokens: 1024,
        prefill_chunk_tokens: 128,
        ..KvPressureConfig::default()
    }
}

fn config(lanes: usize, pressure: Option<KvPressureConfig>) -> ServeConfig {
    ServeConfig {
        lanes,
        quantum: 2,
        affinity_routing: true,
        // Generous depth and bucket: under pressure the bounded pool is
        // the backpressure valve, and the equivalence claim is about
        // requests that actually run.
        admission: AdmissionConfig {
            max_depth: 100_000,
            ..AdmissionConfig::default()
        },
        verify_admission: true,
        pressure,
        reuse: true,
    }
}

/// Run `load` on a fresh engine/runtime/node (so engine cache state never
/// leaks between compared runs).
fn serve(load: &LoadGenConfig, lanes: usize, pressure: Option<KvPressureConfig>) -> ServeRun {
    let workload = generate(load);
    let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
    let runtime = Runtime::builder()
        .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
        .views(workload.views.clone())
        .build();
    ServeNode::new(config(lanes, pressure)).run(&runtime, Some(&engine), workload.requests)
}

/// A bursty workload: arrivals far faster than service, so many
/// sequences contend for pool residency at once.
fn bursty_load(seed: u64, requests: usize) -> LoadGenConfig {
    LoadGenConfig {
        seed,
        requests,
        families: 4,
        mean_interarrival_us: 500,
        interactive_fraction: 0.6,
        interactive_deadline_us: None,
        // Six GEN slots: long decode phases make running requests' KV
        // footprints grow, which is what forces mid-flight preemption.
        gen_calls: 6,
        family_zipf: 0.0,
        duplicate_share: 0.0,
    }
}

/// The tentpole equivalence claim: same workload, with and without the
/// bounded pool — every request's status, trace digest, and token usage
/// are identical, while the pressured run visibly preempted and evicted.
#[test]
fn pressured_runs_execute_byte_identically_to_unconstrained_runs() {
    let load = bursty_load(1729, 64);
    let free = serve(&load, 4, None);
    let pressured = serve(&load, 4, Some(tight_pressure()));

    assert_eq!(free.outcomes.len(), pressured.outcomes.len());
    for (a, b) in free.outcomes.iter().zip(&pressured.outcomes) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.status, b.status, "request {}", a.id);
        assert_eq!(a.trace_digest, b.trace_digest, "request {}", a.id);
        assert_eq!(a.usage, b.usage, "request {}", a.id);
    }
    assert_eq!(
        free.report.trace_fingerprint,
        pressured.report.trace_fingerprint
    );

    // The unconstrained run never touches the pool…
    assert!(!free.report.kv.enabled);
    assert_eq!(free.report.kv.preempted, 0);
    assert!(free.outcomes.iter().all(|o| o.preemptions == 0));

    // …while the pressured run visibly fought for memory.
    let kv = &pressured.report.kv;
    assert!(kv.enabled);
    assert!(kv.preempted > 0, "tight pool must preempt: {kv:?}");
    assert!(kv.evicted_blocks > 0, "tight pool must evict: {kv:?}");
    assert!(kv.freed_blocks > 0, "preemption frees private blocks");
    assert!(kv.alloc_failures > 0);
    assert!(kv.peak_live_blocks <= kv.pool_blocks);
    assert!(kv.reused_blocks > 0, "families still share prefix blocks");
    // Per-request preemption counts reconcile with the report, both in
    // the KV totals and in the per-class split.
    let per_request: u64 = pressured
        .outcomes
        .iter()
        .map(|o| u64::from(o.preemptions))
        .sum();
    assert_eq!(per_request, kv.preempted);
    assert_eq!(
        pressured.report.interactive.preempted + pressured.report.batch.preempted,
        kv.preempted
    );

    // Contention costs time: under identical token economics, the tight
    // pool's recompute-on-resume makespan can only be worse than a pool
    // big enough to never contend. (The unconstrained run is not the
    // baseline here — it uses the lane-quantum timing model, not the
    // iteration scheduler's.)
    let roomy = serve(
        &load,
        4,
        Some(KvPressureConfig {
            pool_blocks: 1 << 20,
            ..tight_pressure()
        }),
    );
    assert_eq!(roomy.report.kv.preempted, 0, "a huge pool never preempts");
    assert_eq!(roomy.report.kv.evicted_blocks, 0);
    assert_eq!(
        roomy.report.trace_fingerprint,
        pressured.report.trace_fingerprint
    );
    assert!(pressured.report.makespan_us >= roomy.report.makespan_us);
}

/// Preempted requests still complete (recompute-on-resume, not drop).
#[test]
fn preempted_requests_complete_with_real_digests() {
    let run = serve(&bursty_load(7, 48), 4, Some(tight_pressure()));
    assert!(run.report.kv.preempted > 0);
    let preempted: Vec<_> = run.outcomes.iter().filter(|o| o.preemptions > 0).collect();
    assert!(!preempted.is_empty());
    for o in preempted {
        assert_eq!(o.status, ServeStatus::Completed, "request {}", o.id);
        assert!(o.trace_digest.is_some());
        assert!(o.finish_us > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Eviction and preemption counters are part of the determinism
    /// contract: identical fingerprints *and* identical contended
    /// counters at 1, 4, and 8 lanes. Lanes parallelize host execution;
    /// the simulated device schedule is lane-invariant by construction.
    #[test]
    fn pressure_counters_are_lane_count_invariant(
        seed in 0u64..500,
        requests in 24usize..40,
        pool_blocks in 64usize..160,
    ) {
        let load = bursty_load(seed, requests);
        let pressure = KvPressureConfig {
            pool_blocks,
            ..tight_pressure()
        };
        let r1 = serve(&load, 1, Some(pressure.clone()));
        let r4 = serve(&load, 4, Some(pressure.clone()));
        let r8 = serve(&load, 8, Some(pressure));

        prop_assert_eq!(r1.report.trace_fingerprint, r4.report.trace_fingerprint);
        prop_assert_eq!(r1.report.trace_fingerprint, r8.report.trace_fingerprint);
        prop_assert_eq!(&r1.report.kv, &r4.report.kv);
        prop_assert_eq!(&r1.report.kv, &r8.report.kv);
        prop_assert_eq!(r1.report.makespan_us, r4.report.makespan_us);
        prop_assert_eq!(r1.report.makespan_us, r8.report.makespan_us);
        prop_assert_eq!(
            r1.report.interactive.preempted,
            r4.report.interactive.preempted
        );
        prop_assert_eq!(r1.report.batch.preempted, r8.report.batch.preempted);
        for (a, b) in r1.outcomes.iter().zip(&r4.outcomes) {
            prop_assert_eq!(a.preemptions, b.preemptions);
            prop_assert_eq!(a.finish_us, b.finish_us);
            prop_assert_eq!(a.queue_wait_us, b.queue_wait_us);
        }
        for (a, b) in r1.outcomes.iter().zip(&r8.outcomes) {
            prop_assert_eq!(a.preemptions, b.preemptions);
            prop_assert_eq!(a.finish_us, b.finish_us);
        }
    }
}
