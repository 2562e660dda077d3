//! Serving-layer invariants: per-request traces must be byte-identical at
//! any lane count, batch work must not starve under interactive floods,
//! and affinity routing must actually buy cache hit-rate.

use std::sync::Arc;

use proptest::prelude::*;
use spear_core::llm::LlmClient;
use spear_core::runtime::Runtime;
use spear_llm::{ModelProfile, SimLlm};
use spear_serve::prelude::*;

/// Run one generated workload on a fresh engine/runtime/node and return
/// `(statuses, digests, report)` keyed by request id order.
fn serve(
    load: &LoadGenConfig,
    lanes: usize,
    affinity: bool,
) -> (Vec<String>, Vec<Option<u64>>, ServeReport) {
    let workload = generate(load);
    let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
    let runtime = Runtime::builder()
        .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
        .views(workload.views.clone())
        .build();
    let node = ServeNode::new(ServeConfig {
        lanes,
        quantum: 2,
        affinity_routing: affinity,
        // Generous depth: depth-based shedding is capacity-dependent by
        // design, and would legitimately differ across lane counts.
        admission: AdmissionConfig {
            max_depth: 100_000,
            ..AdmissionConfig::default()
        },
        verify_admission: true,
        pressure: None,
        reuse: true,
    });
    let run = node.run(&runtime, Some(&engine), workload.requests);
    let statuses = run
        .outcomes
        .iter()
        .map(|o| format!("{:?}", o.status))
        .collect();
    let digests = run.outcomes.iter().map(|o| o.trace_digest).collect();
    (statuses, digests, run.report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The scheduler's output traces are byte-identical for the same seed
    /// whether the node runs 1, 4, or 8 worker lanes — with affinity
    /// routing on or off. Queue waits and latency percentiles may differ
    /// (more lanes drain faster); what each request *computed* may not.
    #[test]
    fn traces_are_identical_across_lane_counts(
        seed in 0u64..1_000,
        requests in 8usize..28,
        families in 1usize..5,
        interactive_pct in 0u32..=100,
        affinity in any::<bool>(),
    ) {
        let load = LoadGenConfig {
            seed,
            requests,
            families,
            mean_interarrival_us: 5_000,
            interactive_fraction: f64::from(interactive_pct) / 100.0,
            interactive_deadline_us: None,
            gen_calls: 1,
            family_zipf: 0.0,
            duplicate_share: 0.0,
        };
        let (s1, d1, r1) = serve(&load, 1, affinity);
        let (s4, d4, r4) = serve(&load, 4, affinity);
        let (s8, d8, r8) = serve(&load, 8, affinity);
        prop_assert_eq!(&s1, &s4);
        prop_assert_eq!(&s1, &s8);
        prop_assert_eq!(&d1, &d4);
        prop_assert_eq!(&d1, &d8);
        prop_assert_eq!(r1.trace_fingerprint, r4.trace_fingerprint);
        prop_assert_eq!(r1.trace_fingerprint, r8.trace_fingerprint);
        // Every request completed (no shedding under the generous depth),
        // so the digests are real execution traces, not vacuous Nones.
        prop_assert!(d1.iter().all(Option::is_some));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Service deadlines are part of the determinism contract: cancelled
    /// requests cancel identically at any lane count.
    #[test]
    fn deadline_cancellations_are_lane_count_invariant(
        seed in 0u64..500,
        deadline_us in 1u64..200_000,
    ) {
        let load = LoadGenConfig {
            seed,
            requests: 16,
            families: 2,
            mean_interarrival_us: 5_000,
            interactive_fraction: 0.7,
            interactive_deadline_us: Some(deadline_us),
            gen_calls: 1,
            family_zipf: 0.0,
            duplicate_share: 0.0,
        };
        let (s1, d1, _) = serve(&load, 1, true);
        let (s8, d8, _) = serve(&load, 8, true);
        prop_assert_eq!(s1, s8);
        prop_assert_eq!(d1, d8);
    }
}

/// An interactive flood cannot indefinitely delay a batch request: the
/// aging rule dispatches the batch head after at most `starvation_limit`
/// consecutive interactive dispatches.
#[test]
fn interactive_flood_cannot_starve_batch() {
    use spear_core::history::RefinementMode;
    use spear_core::llm::EchoLlm;
    use spear_core::pipeline::Pipeline;
    use spear_core::plan::lower;
    use spear_core::runtime::ExecState;

    let runtime = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
    let plan = Arc::new(
        lower(
            &Pipeline::builder("flood")
                .create_text("p", "Answer: {{ctx:q}}", RefinementMode::Manual)
                .gen("a", "p")
                .build(),
        )
        .expect("lowers"),
    );
    let request = |id: u64, priority: Priority| {
        let mut state = ExecState::new();
        state.context.set("q", format!("q{id}"));
        ServeRequest::new(id, priority, Arc::clone(&plan), state, 0)
    };

    // One batch request buried under 40 simultaneous interactive ones, on
    // a single lane dispatching one request per round.
    let starvation_limit = 3u32;
    let mut requests = vec![request(0, Priority::Batch)];
    for id in 1..=40 {
        requests.push(request(id, Priority::Interactive));
    }
    let node = ServeNode::new(ServeConfig {
        lanes: 1,
        quantum: 1,
        affinity_routing: false,
        admission: AdmissionConfig {
            max_depth: 1_000,
            starvation_limit,
            ..AdmissionConfig::default()
        },
        verify_admission: true,
        pressure: None,
        reuse: true,
    });
    let run = node.run(&runtime, None, requests);

    let batch = run.outcome(0).expect("batch request served");
    assert_eq!(batch.status, ServeStatus::Completed);
    let interactive_finishes: Vec<u64> = run
        .outcomes
        .iter()
        .filter(|o| o.priority == Priority::Interactive)
        .map(|o| o.finish_us)
        .collect();
    let last = interactive_finishes.iter().max().copied().unwrap();
    assert!(
        batch.finish_us < last,
        "batch ({}) must not run after the whole flood ({last})",
        batch.finish_us
    );
    // Stronger: the aging bound says at most `starvation_limit`
    // interactive requests run first.
    let before_batch = interactive_finishes
        .iter()
        .filter(|&&f| f < batch.finish_us)
        .count();
    assert!(
        before_batch <= starvation_limit as usize,
        "only {starvation_limit} interactive dispatches may precede the \
         aged batch request, saw {before_batch}"
    );
    assert_eq!(run.report.batch.completed, 1);
    assert_eq!(run.report.interactive.completed, 40);
}

/// Affinity routing converts shared prompt prefixes into prefix-cache
/// hits; the same workload with routing off gets (almost) none.
#[test]
fn affinity_routing_buys_cache_hit_rate() {
    let load = LoadGenConfig {
        seed: 11,
        requests: 48,
        families: 3,
        mean_interarrival_us: 10_000,
        interactive_fraction: 0.5,
        interactive_deadline_us: None,
        gen_calls: 1,
        family_zipf: 0.0,
        duplicate_share: 0.0,
    };
    let (_, _, with_affinity) = serve(&load, 4, true);
    let (_, _, without) = serve(&load, 4, false);
    let on = with_affinity.cache_hit_rate().unwrap_or(0.0);
    let off = without.cache_hit_rate().unwrap_or(0.0);
    assert!(
        on > off + 0.3,
        "affinity routing should lift hit rate substantially: on={on:.3} off={off:.3}"
    );
    // The split by class is populated on both sides.
    assert!(with_affinity.interactive.prompt_tokens > 0);
    assert!(with_affinity.batch.prompt_tokens > 0);
    // Engine-level counters agree that the cache did real work.
    assert!(with_affinity.cache.lookups > 0);
    assert!(with_affinity.cache.hit_tokens > without.cache.hit_tokens);
}
