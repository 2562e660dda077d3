//! The tentpole invariant, end to end: running the Sentiment140-style
//! workload of `examples/sentiment_pipeline.rs` through the concurrent
//! [`BatchRunner`] produces **byte-identical per-pipeline traces and
//! reports at 1, 2, and 8 workers** for a fixed seed — concurrency changes
//! wall-clock, never results.

use std::sync::Arc;

use spear::core::prelude::*;
use spear::data::tweets::{self, TweetConfig};
use spear::llm::{EngineConfig, ModelProfile, SimLlm};

const N_TWEETS: usize = 48;
const SEED: u64 = 140;

fn corpus() -> Vec<spear::data::Tweet> {
    tweets::generate(&TweetConfig {
        count: N_TWEETS,
        negative_fraction: 0.4,
        school_fraction: 0.4,
        hard_fraction: 0.1,
        seed: 7,
    })
}

/// The example's view: sentiment filter with a topic parameter.
fn views() -> ViewCatalog {
    let views = ViewCatalog::new();
    views.register(
        ViewDef::new(
            "tweet_filter",
            "Classify the sentiment of the tweet as positive or negative; \
             select negative tweets about {{topic}}. Consider the whole \
             wording, sarcasm, and trailing qualifiers before deciding, and \
             answer with one word using a word limit of 1.\nTweet: {{ctx:tweet}}",
        )
        .with_param(ParamSpec::optional("topic", "any topic")),
    );
    views
}

fn runtime() -> (Runtime, Arc<SimLlm>) {
    let llm = Arc::new(SimLlm::with_config(
        ModelProfile::qwen25_7b_instruct(),
        EngineConfig {
            seed: SEED,
            ..EngineConfig::default()
        },
    ));
    let rt = Runtime::builder()
        .llm(llm.clone() as Arc<dyn spear::core::llm::LlmClient>)
        .views(views())
        .build();
    (rt, llm)
}

fn pipeline() -> Arc<Pipeline> {
    Arc::new(
        Pipeline::builder("sentiment_filter")
            .create_from_view(
                "filter_prompt",
                "tweet_filter",
                [("topic".to_string(), Value::from("school"))]
                    .into_iter()
                    .collect(),
            )
            .gen("verdict", "filter_prompt")
            .build(),
    )
}

fn states() -> Vec<ExecState> {
    corpus()
        .iter()
        .map(|tweet| {
            let mut state = ExecState::new();
            state.context.set("tweet", tweet.text.clone());
            state
        })
        .collect()
}

/// Run the whole workload at `workers` and return, per pipeline, the
/// serialized trace and debug-formatted report.
fn run_at(workers: usize) -> Vec<(String, String)> {
    let (rt, llm) = runtime();
    // Warm the shared instruction prefix, as a prior run of the view
    // would have: every pipeline instance then hits it, concurrently.
    let entry = rt
        .views()
        .instantiate(
            "tweet_filter",
            [("topic".to_string(), Value::from("school"))]
                .into_iter()
                .collect(),
        )
        .expect("view registered");
    let mut warm_ctx = Context::new();
    warm_ctx.set("tweet", "");
    llm.warm(&entry.render(&warm_ctx).expect("renders"));

    let runner = BatchRunner::new(workers);
    runner
        .run_states(&rt, &pipeline(), states())
        .into_iter()
        .map(|outcome| {
            let outcome = outcome.expect("pipeline succeeds");
            (
                outcome.state.trace.to_jsonl().expect("serializable trace"),
                format!("{:?}", outcome.report),
            )
        })
        .collect()
}

#[test]
fn traces_and_reports_are_byte_identical_at_1_2_and_8_workers() {
    let one = run_at(1);
    let two = run_at(2);
    let eight = run_at(8);
    assert_eq!(one.len(), N_TWEETS);
    for i in 0..N_TWEETS {
        assert_eq!(
            one[i].0, two[i].0,
            "pipeline {i}: trace differs between 1 and 2 workers"
        );
        assert_eq!(
            one[i].0, eight[i].0,
            "pipeline {i}: trace differs between 1 and 8 workers"
        );
        assert_eq!(
            one[i].1, eight[i].1,
            "pipeline {i}: report differs between 1 and 8 workers"
        );
    }
}

#[test]
fn traces_are_genuinely_cache_dependent() {
    // Guard against the determinism test passing vacuously: the traces
    // must actually embed cache-sensitive numbers (cached_tokens > 0 for
    // warm-prefix pipelines), so identical traces really do prove the
    // cache behaved identically.
    let runs = run_at(4);
    let with_hits = runs
        .iter()
        .filter(|(trace, _)| {
            Trace::from_jsonl(trace)
                .expect("roundtrips")
                .of_kind(TraceKind::Gen)
                .iter()
                .any(|e| {
                    e.detail
                        .path("cached_tokens")
                        .and_then(spear::core::Value::as_i64)
                        .unwrap_or(0)
                        > 0
                })
        })
        .count();
    assert!(
        with_hits == N_TWEETS,
        "all {N_TWEETS} pipelines should hit the warm prefix, got {with_hits}"
    );
}

#[test]
fn aggregate_busy_time_is_worker_count_independent_but_makespan_shrinks() {
    let totals: Vec<(std::time::Duration, std::time::Duration)> = [1usize, 8]
        .iter()
        .map(|&workers| {
            let (rt, llm) = runtime();
            let runner = BatchRunner::new(workers);
            let outcomes = runner.run_states(&rt, &pipeline(), states());
            assert!(outcomes.iter().all(Result::is_ok));
            (llm.clock().elapsed(), llm.clock().max_lane_elapsed())
        })
        .collect();
    let (busy_1, makespan_1) = totals[0];
    let (busy_8, makespan_8) = totals[1];
    assert_eq!(
        busy_1, busy_8,
        "total simulated busy time is a workload property, not a scheduling one"
    );
    assert_eq!(makespan_1, busy_1, "one worker: makespan == busy time");
    assert!(
        makespan_8 * 2 <= busy_8,
        "eight workers: the busiest lane holds at most half the work \
         ({makespan_8:?} of {busy_8:?})"
    );
}
