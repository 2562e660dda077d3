//! The paper's §7 evaluation workload as an application: a tweet
//! summarize+filter pipeline built from a reusable view, refined at
//! runtime, executed with prefix caching, and planned by the
//! selectivity-aware fusion optimizer.
//!
//! Run with: `cargo run --example sentiment_pipeline`

use spear::core::llm::{GenRequest, LlmClient};
use spear::core::prelude::*;
use spear::data::tweets::{self, Sentiment, TweetConfig};
use spear::llm::{ModelProfile, SimLlm};
use spear::optimizer::cost::CostModel;
use spear::optimizer::fusion::{self, PlanEstimates, Stage, StageEstimate};

fn main() -> Result<()> {
    let corpus = tweets::generate(&TweetConfig {
        count: 60,
        negative_fraction: 0.4,
        school_fraction: 0.4,
        hard_fraction: 0.1,
        seed: 7,
    });

    // ---------------------------------------------------------------
    // Part 1: view reuse + prefix caching across a batch of requests.
    // ---------------------------------------------------------------
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
    let entry = views.instantiate(
        "tweet_filter",
        [("topic".to_string(), Value::from("school"))]
            .into_iter()
            .collect(),
    )?;
    let identity = entry
        .cache_identity()
        .expect("view-derived prompts have identity");

    let llm = SimLlm::new(ModelProfile::qwen25_7b_instruct());
    let mut context = Context::new();
    let mut kept = 0usize;
    let mut correct = 0usize;
    for tweet in &corpus {
        context.set("tweet", tweet.text.clone());
        let rendered = entry.render(&context)?;
        let response = llm.generate(&GenRequest::structured(rendered, identity.clone()))?;
        // The refined filter answers yes/no (negative AND school-related).
        let selected = response.text.starts_with("yes");
        if selected {
            kept += 1;
        }
        let truth = tweet.label == Sentiment::Negative && tweet.topic == spear::data::Topic::School;
        if selected == truth {
            correct += 1;
        }
    }
    let stats = llm.cache_stats();
    println!(
        "view-based filter over {} tweets: kept {}, accuracy {:.2}",
        corpus.len(),
        kept,
        correct as f64 / corpus.len() as f64
    );
    println!(
        "prefix cache: {:.1}% of prompt tokens served from cache \
         (the instruction prefix is shared; only each tweet misses)",
        100.0 * stats.hit_rate().unwrap_or(0.0)
    );

    // ---------------------------------------------------------------
    // Part 2: the fusion optimizer deciding sequential vs fused plans.
    // ---------------------------------------------------------------
    let items: Vec<String> = corpus.iter().map(|t| t.text.clone()).collect();
    let map = Stage::Map("Clean up the tweet and summarize the remaining content.".into());
    let filter = Stage::Filter(
        "Classify the sentiment of the tweet as positive or negative \
         and keep only negative tweets; state a justification."
            .into(),
    );
    for (name, stages) in [
        ("Map→Filter", [map.clone(), filter.clone()]),
        ("Filter→Map", [filter, map]),
    ] {
        // Each form runs on its own fresh engine.
        let run = |fused: bool| {
            let engine = SimLlm::new(ModelProfile::qwen25_7b_instruct());
            let runtime = fusion::runtime_builder()
                .llm(std::sync::Arc::new(engine))
                .build();
            fusion::run(&runtime, &fusion::pipeline(&stages, fused, None), &items)
        };
        let seq = run(false)?;
        let fused = run(true)?;

        // Ask the optimizer what it would have chosen, from the observed
        // token profile and selectivity.
        let selectivity = seq.selectivity().unwrap_or(0.5);
        let per = |usage: spear::core::TokenUsage, calls: u64| StageEstimate {
            prompt_tokens: usage.prompt_tokens as f64 / calls.max(1) as f64,
            cached_fraction: 0.0,
            decode_tokens: usage.completion_tokens as f64 / calls.max(1) as f64,
        };
        let decision = fusion::decide(
            &stages,
            &PlanEstimates {
                n_items: items.len() as f64,
                selectivity,
                per_stage: per(seq.usage, seq.gen_calls),
                fused: per(fused.usage, fused.gen_calls),
            },
            &CostModel::default(),
        );
        println!(
            "\n{name} (selectivity {:.0}%): sequential {:.1}s, fused {:.1}s \
             → measured gain {:+.1}%",
            selectivity * 100.0,
            seq.latency.as_secs_f64(),
            fused.latency.as_secs_f64(),
            100.0 * (seq.latency.as_secs_f64() - fused.latency.as_secs_f64())
                / seq.latency.as_secs_f64(),
        );
        println!("optimizer decision: {}", decision.reason);
    }
    Ok(())
}
