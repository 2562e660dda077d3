//! Integration: the optimizer's decisions validated against measured
//! behaviour of the simulated serving stack — fusion choices vs actual
//! latencies, cost-model calibration from live observations, refinement
//! planning from mined ref_logs, and the structured prompt cache warming
//! the serving cache.

use std::collections::BTreeMap;

use spear::core::llm::{GenRequest, LlmClient};
use spear::core::prelude::*;
use spear::core::{meta, view::param_hash};
use spear::data::tweets::{self, TweetConfig};
use spear::llm::{ModelProfile, SimLlm};
use spear::optimizer::cost::{CostModel, CostObservation};
use spear::optimizer::fusion::{decide, PlanEstimates, StageEstimate};
use spear::optimizer::plan::{PhysicalPlan, SemanticPlan};
use spear::optimizer::prompt_cache::StructuredPromptCache;
use spear::optimizer::refinement_planner::{plan as plan_refinements, Budget, RefinerProfile};
use spear::optimizer::run_plan;

fn items(n: usize, negative_fraction: f64) -> Vec<String> {
    tweets::generate(&TweetConfig {
        count: n,
        negative_fraction,
        school_fraction: 0.3,
        hard_fraction: 0.1,
        seed: 99,
    })
    .into_iter()
    .map(|t| t.text)
    .collect()
}

#[test]
fn fusion_decision_agrees_with_measured_latency_on_both_sides_of_the_crossover() {
    let plan = SemanticPlan::filter_then_map(
        &spear_bench_filter_instruction(),
        "Clean up the tweet and summarize the remaining content.",
    );
    for (selectivity, expect_fuse) in [(0.1, false), (1.0, true)] {
        let corpus = items(120, selectivity);
        let seq_llm = std::sync::Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
        let seq = run_plan(seq_llm, &PhysicalPlan::sequential(&plan), &corpus).unwrap();
        let fused_llm = std::sync::Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
        let fused = run_plan(fused_llm, &PhysicalPlan::fused(&plan), &corpus).unwrap();

        let measured_fuse_wins = fused.latency < seq.latency;
        assert_eq!(
            measured_fuse_wins, expect_fuse,
            "measured outcome at selectivity {selectivity}"
        );

        let estimates = PlanEstimates {
            n_items: corpus.len() as f64,
            selectivity,
            per_stage: StageEstimate {
                prompt_tokens: seq.usage.prompt_tokens as f64 / seq.gen_calls as f64,
                cached_fraction: 0.0,
                decode_tokens: seq.usage.completion_tokens as f64 / seq.gen_calls as f64,
            },
            fused: StageEstimate {
                prompt_tokens: fused.usage.prompt_tokens as f64 / fused.gen_calls as f64,
                cached_fraction: 0.0,
                decode_tokens: fused.usage.completion_tokens as f64 / fused.gen_calls as f64,
            },
        };
        let decision = decide(&plan, &estimates, &CostModel::default());
        assert_eq!(
            decision.fuse, expect_fuse,
            "optimizer decision at selectivity {selectivity}: {}",
            decision.reason
        );
    }
}

#[test]
fn token_budget_aborts_optimized_plans_with_the_same_error_as_the_tree_walk() {
    use spear::optimizer::{run_plan_with, to_pipeline, PlanRunOptions};
    use std::sync::Arc;

    let plan = SemanticPlan::map_then_filter(
        "Clean up the tweet.",
        "Classify the sentiment as positive or negative; keep negative.",
    );
    let physical = PhysicalPlan::sequential(&plan);
    let corpus = items(4, 0.5);
    let config = RuntimeConfig {
        max_tokens: Some(10),
        ..RuntimeConfig::default()
    };

    // The optimized path: run_plan over the lowered IR. The first GEN
    // crosses the 10-token line, so the gate before the second stage
    // aborts the item mid-plan.
    let err = run_plan_with(
        Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())),
        &physical,
        &corpus,
        &PlanRunOptions {
            workers: 1,
            config: config.clone(),
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, SpearError::TokenBudgetExceeded { .. }),
        "optimized plan aborts on the runtime's budget: {err}"
    );

    // The tree-walk path over the same lowered pipeline hits the identical
    // variant — there is no budget bypass left in the optimizer executor.
    let rt = Runtime::builder()
        .llm(Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())))
        .config(config)
        .build();
    let mut state = ExecState::new();
    state.context.set("item", corpus[0].clone());
    let tree_err = rt
        .execute_tree(&to_pipeline(&physical), &mut state)
        .unwrap_err();
    assert!(
        matches!(tree_err, SpearError::TokenBudgetExceeded { .. }),
        "tree walk reports the same variant: {tree_err}"
    );
}

#[test]
fn sentiment_workload_traces_are_byte_identical_across_both_executors() {
    use spear::core::agent::FnAgent;
    use std::sync::Arc;

    // The paper's sentiment workload, lowered once; each executor gets its
    // own identically-seeded engine so backend state cannot leak between
    // the two paths.
    let plan = SemanticPlan::map_then_filter(
        "Clean up the tweet.",
        "Classify the sentiment as positive or negative; keep negative.",
    )
    .with_identity("view:tweet_pipeline@1");
    let pipeline = spear::optimizer::to_pipeline(&PhysicalPlan::sequential(&plan));
    let lowered = spear::core::lower(&pipeline).expect("lowers");
    let program = spear::core::vm::compile(&lowered).expect("compiles");

    let verdict = |payload: &Value, _: &Context| {
        Ok(Value::from(
            payload
                .as_str()
                .unwrap_or_default()
                .to_lowercase()
                .starts_with("negative"),
        ))
    };
    let runtime = || {
        Runtime::builder()
            .llm(Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())))
            .agent("plan_filter_verdict", Arc::new(FnAgent(verdict)))
            .build()
    };
    let tree_rt = runtime();
    let ir_rt = runtime();

    for tweet in items(6, 0.5) {
        let mut tree_state = ExecState::new();
        tree_state.context.set("item", tweet.clone());
        let mut ir_state = ExecState::new();
        ir_state.context.set("item", tweet.clone());

        let tree_report = tree_rt.execute_tree(&pipeline, &mut tree_state).unwrap();
        let ir_report = ir_rt.execute_program(&program, &mut ir_state).unwrap();

        assert_eq!(tree_report, ir_report, "reports diverge on {tweet:?}");
        assert_eq!(
            tree_state.trace.to_jsonl().unwrap(),
            ir_state.trace.to_jsonl().unwrap(),
            "traces diverge on {tweet:?}"
        );
    }
}

/// A long filter instruction (mirrors the benchmark workload's shape where
/// the filter is the expensive stage).
fn spear_bench_filter_instruction() -> String {
    format!(
        "Classify the sentiment of the tweet as positive or negative and keep \
         only negative tweets. Decision criteria:\n{}\nApply every criterion \
         above before answering, and state a justification.",
        (1..=4)
            .map(|i| format!(
                "{i}. Weigh the full wording including trailing qualifiers, \
                 sarcasm, quoted material, and the subject the author spends \
                 the most words on before deciding the label."
            ))
            .collect::<Vec<_>>()
            .join("\n")
    )
}

#[test]
fn cost_model_calibrated_from_live_traffic_predicts_unseen_calls() {
    let llm = SimLlm::new(ModelProfile::qwen25_7b_instruct());
    let mut observations = Vec::new();
    for i in 0..16 {
        let filler = "some additional context material for the request. ".repeat(i);
        let resp = llm
            .generate(&GenRequest::structured(
                format!("Classify the sentiment.\n{filler}Tweet: sample number {i}"),
                format!("view:probe@1#{i}/v1"),
            ))
            .unwrap();
        observations.push(CostObservation {
            usage: resp.usage,
            latency: resp.latency,
        });
    }
    let model = CostModel::fit(&observations).expect("enough observations to fit");

    // Predict a fresh call and compare against the engine.
    let resp = llm
        .generate(&GenRequest::structured(
            "Classify the sentiment.\nTweet: an entirely new probe item with more words"
                .to_string(),
            "view:probe@1#fresh/v1".to_string(),
        ))
        .unwrap();
    let predicted = model.estimate_call(
        (resp.usage.prompt_tokens - resp.usage.cached_tokens) as f64,
        resp.usage.cached_tokens as f64,
        resp.usage.completion_tokens as f64,
    );
    let actual = resp.latency.as_secs_f64();
    let err = (predicted.as_secs_f64() - actual).abs() / actual;
    assert!(err < 0.05, "prediction error {err:.3} should be < 5%");
}

#[test]
fn refinement_planner_consumes_mined_ref_logs() {
    // Build a store whose histories show one helpful and one harmful
    // refiner, mine it with core::meta, and confirm the planner keeps the
    // helpful one and drops the harmful one.
    let store = PromptStore::new();
    for i in 0..4 {
        let key = format!("p{i}");
        store.define(&key, "base", "f_base", RefinementMode::Manual);
        let mut sig = BTreeMap::new();
        sig.insert("confidence".to_string(), Value::from(0.55));
        store
            .refine(
                &key,
                "base + hint".into(),
                RefAction::Update,
                "add_hint",
                RefinementMode::Auto,
                1,
                None,
                sig,
                None,
            )
            .unwrap();
        let mut sig = BTreeMap::new();
        sig.insert("confidence".to_string(), Value::from(0.8));
        store
            .refine(
                &key,
                "base + hint + noise".into(),
                RefAction::Update,
                "generic_rewriter",
                RefinementMode::Auto,
                2,
                None,
                sig,
                None,
            )
            .unwrap();
        let mut sig = BTreeMap::new();
        sig.insert("confidence".to_string(), Value::from(0.72));
        store
            .refine(
                &key,
                "final".into(),
                RefAction::Update,
                "closer",
                RefinementMode::Manual,
                3,
                None,
                sig,
                None,
            )
            .unwrap();
    }
    let stats = meta::analyze_refiners(&store);
    let profiles: Vec<RefinerProfile> = stats
        .iter()
        .map(|s| RefinerProfile::from_stats(s, 15.0, 0.0))
        .collect();
    let plan = plan_refinements(&profiles, &Budget::default(), 0.0);
    assert!(plan.refiners.contains(&"add_hint".to_string()));
    assert!(
        !plan.refiners.contains(&"generic_rewriter".to_string()),
        "harmful refiner skipped: {:?}",
        plan
    );
}

#[test]
fn structured_prompt_cache_warms_the_serving_cache() {
    // Render a view once, cache it in the structured cache, and use it to
    // warm a *fresh* engine: the first request over that view then hits.
    let views = ViewCatalog::new();
    views.register(ViewDef::new(
        "scaffold",
        "Classify the sentiment of the tweet as positive or negative, \
         weighing sarcasm, emphasis, trailing qualifiers, quoted material, \
         and the dominant subject before deciding; respond with exactly one \
         word under a word limit of 1.\nTweet: {{ctx:tweet}}",
    ));
    let args: BTreeMap<String, Value> = BTreeMap::new();
    let entry = views.instantiate("scaffold", args.clone()).unwrap();
    let mut ctx = Context::new();
    ctx.set("tweet", "placeholder");
    // The stable prefix is everything before the per-item tweet.
    let rendered_prefix = entry.text.replace("{{ctx:tweet}}", "");

    let cache = StructuredPromptCache::new();
    cache.insert(
        Some("scaffold"),
        param_hash(&args),
        entry.version,
        rendered_prefix,
    );

    // "Restart": fresh engine, warmed from the structured cache.
    let llm = SimLlm::new(ModelProfile::qwen25_7b_instruct());
    let warm_entry = cache.latest_version("scaffold", param_hash(&args)).unwrap();
    llm.warm(&warm_entry.rendered);

    ctx.set("tweet", "what a terrible exam today");
    let rendered = entry.render(&ctx).unwrap();
    let resp = llm
        .generate(&GenRequest::structured(
            rendered,
            entry.cache_identity().unwrap(),
        ))
        .unwrap();
    assert!(
        resp.usage.cache_hit_rate().unwrap() > 0.5,
        "first request after warm-up already hits: {:?}",
        resp.usage
    );
    assert!(cache.is_view_warm("scaffold"));
}

#[test]
fn meta_optimization_closes_the_loop_end_to_end() {
    // A pipeline uses a harmful custom refiner (it deletes the reasoning
    // hints the QA task rewards). Run it, mine the ref_logs, let the
    // meta-optimizer swap the refiner, re-run, and verify the outcome
    // improved — §4.4's loop, executed for real.
    use spear::core::prelude::*;
    use spear::core::refiner::{FnRefiner, RefineOutput};
    use spear::llm::{ModelProfile, SimLlm};
    use spear::optimizer::meta_opt::{self, MetaOptConfig, Substitute};
    use std::sync::Arc;

    let build_runtime = || {
        Runtime::builder()
            .llm(Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())))
            .refiner(
                "hint_stripper",
                Arc::new(FnRefiner(|rcx: &spear::core::refiner::RefineCtx<'_>| {
                    Ok(RefineOutput::text(
                        rcx.current_text()
                            .replace("Think step by step about dosage and timing.", "")
                            .trim()
                            .to_string(),
                    ))
                })),
            )
            .build()
    };

    let pipeline = |refiner: &str, args: Value| {
        Pipeline::builder("qa")
            .create_text(
                "qa_prompt",
                "Highlight any use of Enoxaparin in the medication history. \
                 Think step by step about dosage and timing.\nNotes: {{ctx:notes}}",
                RefinementMode::Manual,
            )
            .gen("answer_0", "qa_prompt")
            .refine(
                "qa_prompt",
                RefAction::Update,
                refiner,
                args,
                RefinementMode::Auto,
            )
            .gen("answer_1", "qa_prompt")
            // Closing no-op refinement: its ref_log record snapshots the
            // post-regeneration confidence, which is what the miner reads
            // as the previous refiner's "after" observation.
            .refine(
                "qa_prompt",
                RefAction::Update,
                "normalize",
                Value::Null,
                RefinementMode::Manual,
            )
            .build()
    };

    // Round 1: the harmful refiner runs and the logs record its effect.
    let rt = build_runtime();
    let mut state = ExecState::new();
    state
        .context
        .set("notes", "enoxaparin 40 mg SC daily at 2100");
    rt.execute(&pipeline("hint_stripper", Value::Null), &mut state)
        .unwrap();
    let conf_after_bad = state
        .metadata
        .get("confidence:answer_1")
        .and_then(|v| v.as_f64())
        .unwrap();

    // Seed the stats with several observations (one pipeline run yields one
    // before/after pair per refiner; repeat to clear min_measured).
    for i in 0..2 {
        let mut s2 = ExecState::new();
        s2.context.set("notes", "enoxaparin 40 mg SC daily at 2100");
        rt.execute(&pipeline("hint_stripper", Value::Null), &mut s2)
            .unwrap();
        // Merge the mined entries into the main store under fresh keys.
        state
            .prompts
            .insert(format!("run-{i}"), s2.prompts.get("qa_prompt").unwrap());
    }
    let stats = spear::core::meta::analyze_refiners(&state.prompts);
    let stripper = stats.iter().find(|s| s.f_name == "hint_stripper").unwrap();
    assert!(
        stripper.avg_gain.unwrap() < 0.0,
        "logs show the refiner hurts"
    );

    // Also measure the substitute once so the optimizer has evidence for it.
    let mut s3 = ExecState::new();
    s3.context.set("notes", "enoxaparin 40 mg SC daily at 2100");
    rt.execute(
        &pipeline(
            "append",
            Value::from("Think step by step about the timing."),
        ),
        &mut s3,
    )
    .unwrap();
    for i in 0..2 {
        state.prompts.insert(
            format!("append-run-{i}"),
            s3.prompts.get("qa_prompt").unwrap(),
        );
    }
    let stats = spear::core::meta::analyze_refiners(&state.prompts);

    // Meta-optimize and re-run.
    let config = MetaOptConfig {
        underperformance_threshold: 0.0,
        min_measured: 2,
        pool: vec![Substitute {
            refiner: "append".into(),
            args: Value::from("Think step by step about the timing."),
        }],
    };
    let (better, applied) =
        meta_opt::replace_underperformers(&pipeline("hint_stripper", Value::Null), &stats, &config);
    assert_eq!(applied.len(), 1);
    assert_eq!(applied[0].to, "append");

    let rt2 = build_runtime();
    let mut state2 = ExecState::new();
    state2
        .context
        .set("notes", "enoxaparin 40 mg SC daily at 2100");
    rt2.execute(&better, &mut state2).unwrap();
    let conf_after_good = state2
        .metadata
        .get("confidence:answer_1")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(
        conf_after_good > conf_after_bad,
        "substituted pipeline outperforms: {conf_after_good} vs {conf_after_bad}"
    );
}
