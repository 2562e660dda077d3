//! The generation memo's invisibility contract: for any duplicate-heavy
//! workload, serving with `ServeConfig::reuse` on is byte-identical to
//! serving with it off — statuses, trace digests, token usage, and the
//! virtual timeline — at any lane count, including runs where requests
//! abort on token budgets or cancel on service deadlines. The memo may
//! only change host-side cost and the `ServeReport::reuse` ledger, and
//! that ledger must itself be identical at every lane count.

use std::sync::Arc;

use proptest::prelude::*;
use spear_core::llm::LlmClient;
use spear_core::runtime::{Runtime, RuntimeConfig};
use spear_llm::{ModelProfile, SimLlm};
use spear_serve::prelude::*;

/// Outputs that must not depend on the reuse knob or the lane count.
#[derive(Debug, PartialEq)]
struct Observed {
    statuses: Vec<String>,
    digests: Vec<Option<u64>>,
    usage: Vec<(u64, u64, u64)>,
    makespan_us: u64,
}

fn serve(
    load: &LoadGenConfig,
    lanes: usize,
    reuse: bool,
    max_tokens: Option<u64>,
) -> (Observed, ReuseReport) {
    let workload = generate(load);
    let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
    let runtime = Runtime::builder()
        .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
        .views(workload.views.clone())
        .config(RuntimeConfig {
            max_tokens,
            ..RuntimeConfig::default()
        })
        .build();
    let node = ServeNode::new(ServeConfig {
        lanes,
        quantum: 2,
        affinity_routing: true,
        admission: AdmissionConfig {
            max_depth: 100_000,
            ..AdmissionConfig::default()
        },
        verify_admission: false,
        pressure: None,
        program_cache_capacity: 64,
        reuse,
    });
    let run = node.run(&runtime, Some(&engine), workload.requests);
    let observed = Observed {
        statuses: run
            .outcomes
            .iter()
            .map(|o| format!("{:?}", o.status))
            .collect(),
        digests: run.outcomes.iter().map(|o| o.trace_digest).collect(),
        usage: run
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.usage.prompt_tokens,
                    o.usage.cached_tokens,
                    o.usage.completion_tokens,
                )
            })
            .collect(),
        makespan_us: run.report.makespan_us,
    };
    (observed, run.report.reuse)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Reuse on ≡ reuse off at 1, 4, and 8 lanes, over random seeds and
    /// duplicate shares — and the reuse-on ledger is lane-invariant.
    #[test]
    fn reuse_is_invisible_at_any_lane_count(
        seed in 0u64..1_000,
        duplicate_pct in 30u32..=90,
        gen_calls in 1usize..=3,
    ) {
        let load = LoadGenConfig {
            seed,
            requests: 24,
            families: 3,
            mean_interarrival_us: 5_000,
            duplicate_share: f64::from(duplicate_pct) / 100.0,
            gen_calls,
            ..LoadGenConfig::default()
        };
        let mut ledgers = Vec::new();
        for lanes in [1usize, 4, 8] {
            let (on, ledger) = serve(&load, lanes, true, None);
            let (off, off_ledger) = serve(&load, lanes, false, None);
            prop_assert_eq!(&on, &off, "reuse must be invisible at {} lanes", lanes);
            prop_assert_eq!(off_ledger, ReuseReport::default());
            ledgers.push(ledger);
        }
        prop_assert!(
            ledgers.windows(2).all(|w| w[0] == w[1]),
            "reuse ledger must be lane-invariant: {:?}", ledgers
        );
    }

    /// Budget-aborted executions stay equivalent: a tight `max_tokens`
    /// fails requests identically whether their GENs replayed from the
    /// memo or executed live (replays restate the original usage, so the
    /// budget gate sees the same numbers).
    #[test]
    fn budget_aborts_are_reuse_invariant(
        seed in 0u64..500,
        max_tokens in 200u64..2_000,
    ) {
        let load = LoadGenConfig {
            seed,
            requests: 16,
            families: 2,
            mean_interarrival_us: 5_000,
            duplicate_share: 0.6,
            ..LoadGenConfig::default()
        };
        for lanes in [1usize, 4] {
            let (on, _) = serve(&load, lanes, true, Some(max_tokens));
            let (off, _) = serve(&load, lanes, false, Some(max_tokens));
            prop_assert_eq!(&on, &off, "budget aborts diverged at {} lanes", lanes);
        }
    }

    /// Deadline cancellations stay equivalent: replayed GENs advance the
    /// virtual clock by the same service time as live execution, so the
    /// deadline gate cancels the same requests at the same slots.
    #[test]
    fn deadline_cancellations_are_reuse_invariant(
        seed in 0u64..500,
        deadline_us in 1u64..150_000,
    ) {
        let load = LoadGenConfig {
            seed,
            requests: 16,
            families: 2,
            mean_interarrival_us: 5_000,
            interactive_fraction: 0.7,
            interactive_deadline_us: Some(deadline_us),
            duplicate_share: 0.6,
            gen_calls: 2,
            ..LoadGenConfig::default()
        };
        for lanes in [1usize, 8] {
            let (on, _) = serve(&load, lanes, true, None);
            let (off, _) = serve(&load, lanes, false, None);
            prop_assert_eq!(&on, &off, "cancellations diverged at {} lanes", lanes);
        }
    }
}

/// The duplicate-heavy sweep exercises both ledger classes: duplicates
/// inside their leader's service window count as `coalesced` (a bursty
/// stream), later ones as `hits` (a stretched stream), and the split is
/// identical at every lane count.
#[test]
fn ledger_classifies_hits_and_coalesced_deterministically() {
    let ledger = |mean_interarrival_us: u64| {
        let load = LoadGenConfig {
            seed: 7,
            requests: 96,
            families: 3,
            mean_interarrival_us,
            duplicate_share: 0.7,
            ..LoadGenConfig::default()
        };
        let (_, baseline) = serve(&load, 1, true, None);
        assert!(baseline.saved_calls == baseline.hits + baseline.coalesced);
        assert!(baseline.saved_tokens > 0);
        assert!(baseline.inserted > 0);
        for lanes in [4usize, 8] {
            let (_, ledger) = serve(&load, lanes, true, None);
            assert_eq!(ledger, baseline, "ledger diverged at {lanes} lanes");
        }
        baseline
    };
    assert!(ledger(2_000).coalesced > 0, "bursty duplicates coalesce");
    assert!(
        ledger(50_000).hits > 0,
        "duplicates of old requests hit the memo"
    );
}
