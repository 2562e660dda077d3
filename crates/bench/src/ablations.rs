//! Ablation studies beyond the paper's headline tables (DESIGN.md §3,
//! experiments A–D). Each validates one §5 optimization in isolation.

use spear_core::error::{Result, SpearError};
use spear_core::history::RefinementMode;
use spear_core::llm::{GenOptions, GenRequest, LlmClient, PromptIdentity};
use spear_core::prompt::PromptEntry;
use spear_core::refiner::{self, RefineCtx};
use spear_core::store::PromptStore;
use spear_core::template::PromptText;
use spear_core::value::{map, Value};
use spear_core::view::{ViewCatalog, ViewDef};
use spear_data::tweets::{self, Sentiment, TweetConfig};
use spear_data::vocab;
use spear_llm::{EngineConfig, ModelProfile, SimLlm, Tokenizer};
use spear_optimizer::predictive::RiskModel;
use spear_optimizer::refinement_planner::{self, Budget, RefinerProfile};
use spear_optimizer::view_selector;

// ---------------------------------------------------------------------------
// Ablation B: cost-based refinement planning
// ---------------------------------------------------------------------------

/// One refiner's measured profile plus what the policies did with it.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PlannerRow {
    /// Policy name.
    pub policy: String,
    /// Refiners applied, in order.
    pub refiners: Vec<String>,
    /// Prompt tokens added by the applied refiners.
    pub tokens_added: u64,
    /// Mean confidence achieved on the probe task.
    pub confidence: f64,
}

/// Measure each candidate refiner's effect on a QA probe, then compare the
/// cost-based plan against naive all-refiners and no-refinement baselines
/// under a token budget.
///
/// # Errors
///
/// Propagates engine/refiner failures.
pub fn ablation_planner(seed: u64) -> Result<Vec<PlannerRow>> {
    let engine = SimLlm::with_config(
        ModelProfile::qwen25_7b_instruct(),
        EngineConfig {
            seed,
            ..EngineConfig::default()
        },
    );
    let tokenizer = Tokenizer::new();
    let builtins = refiner::builtins();
    let resolve = |name: &str| {
        builtins
            .get(name)
            .ok_or_else(|| SpearError::RefinerNotFound(name.to_string()))
    };
    let views = ViewCatalog::new();
    let store = PromptStore::new();
    let notes = "Medications: enoxaparin 40 mg SC daily for DVT prophylaxis. \
                 Also on lisinopril 10 mg.";
    let base_text = "Highlight any use of Enoxaparin in the medication history.";

    let probe = |prompt_text: &str| -> Result<f64> {
        let resp = engine.generate(&GenRequest {
            text: format!("{prompt_text}\nNotes: {notes}"),
            identity: PromptIdentity::Opaque,
            options: GenOptions {
                max_tokens: 128,
                temperature: 0.0,
                task: Some("qa".to_string()),
            },
            segments: None,
        })?;
        Ok(resp.confidence)
    };
    let base_confidence = probe(base_text)?;

    // Candidate refiners with per-candidate args.
    let candidates: Vec<(&str, Value)> = vec![
        ("auto_refine", Value::Null),
        (
            "inject_example",
            map([
                ("input", Value::from("enoxaparin 60 mg nightly for PE")),
                (
                    "output",
                    Value::from("Enoxaparin use documented: 60 mg nightly"),
                ),
            ]),
        ),
        ("append", Value::from("Answer in complete sentences.")),
        ("normalize", Value::Null),
    ];

    // Measure each refiner in isolation: confidence gain + token cost.
    let mut profiles = Vec::new();
    for (name, args) in &candidates {
        let entry = PromptEntry::new(base_text, "f_base", RefinementMode::Manual);
        let context = spear_core::context::Context::new();
        let metadata = spear_core::metadata::Metadata::new();
        let output = resolve(name)?.refine(&RefineCtx {
            current: Some(&entry),
            context: &context,
            metadata: &metadata,
            llm: Some(&engine),
            views: &views,
            prompts: &store,
            args,
        })?;
        let text = output.new_text.unwrap_or_else(|| base_text.into());
        let gain = probe(&text)? - base_confidence;
        let token_cost = tokenizer.count(&text) as f64 - tokenizer.count(base_text) as f64;
        profiles.push(RefinerProfile {
            name: (*name).to_string(),
            avg_gain: gain,
            token_cost: token_cost.max(0.0),
            latency_us: 0.0,
        });
    }

    // Apply a refiner sequence cumulatively and measure the result.
    let apply_sequence = |names: &[String]| -> Result<(u64, f64)> {
        let mut text: PromptText = base_text.into();
        for name in names {
            let entry = PromptEntry::new(text.clone(), "f", RefinementMode::Manual);
            let args = candidates
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, a)| a.clone())
                .unwrap_or(Value::Null);
            let context = spear_core::context::Context::new();
            let metadata = spear_core::metadata::Metadata::new();
            let output = resolve(name)?.refine(&RefineCtx {
                current: Some(&entry),
                context: &context,
                metadata: &metadata,
                llm: Some(&engine),
                views: &views,
                prompts: &store,
                args: &args,
            })?;
            if let Some(t) = output.new_text {
                text = t;
            }
        }
        let added = tokenizer
            .count(&text)
            .saturating_sub(tokenizer.count(base_text)) as u64;
        Ok((added, probe(&text)?))
    };

    let budget = Budget {
        max_tokens: Some(40.0),
        max_latency_us: None,
    };
    let planned = refinement_planner::plan(&profiles, &budget, 0.005);
    let all: Vec<String> = candidates.iter().map(|(n, _)| (*n).to_string()).collect();

    let mut rows = Vec::new();
    let (_, none_conf) = (0u64, base_confidence);
    rows.push(PlannerRow {
        policy: "No refinement".into(),
        refiners: vec![],
        tokens_added: 0,
        confidence: none_conf,
    });
    let (all_tokens, all_conf) = apply_sequence(&all)?;
    rows.push(PlannerRow {
        policy: "Naive (all refiners)".into(),
        refiners: all,
        tokens_added: all_tokens,
        confidence: all_conf,
    });
    let (plan_tokens, plan_conf) = apply_sequence(&planned.refiners)?;
    rows.push(PlannerRow {
        policy: "Cost-based plan (≤40 tokens)".into(),
        refiners: planned.refiners,
        tokens_added: plan_tokens,
        confidence: plan_conf,
    });
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Ablation C: view-guided refinement / cost-based view selection
// ---------------------------------------------------------------------------

/// One task's scratch-vs-view comparison.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ViewRow {
    /// Task description.
    pub task: String,
    /// View chosen by cost-based selection.
    pub chosen_view: String,
    /// Mean per-item time writing the prompt from scratch (opaque), s.
    pub scratch_time_s: f64,
    /// Mean per-item time deriving from the chosen view (cached), s.
    pub view_time_s: f64,
    /// Speedup of the view-guided path.
    pub speedup: f64,
}

/// Compare from-scratch prompt construction against view-guided refinement
/// over a small task suite, with the view's rendering warm in the cache.
///
/// # Errors
///
/// Propagates engine failures.
pub fn ablation_views(seed: u64, n_items: usize) -> Result<Vec<ViewRow>> {
    let catalog = ViewCatalog::new();
    catalog.register(crate::workload::view_v());
    catalog.register(
        ViewDef::new(
            "review_pipeline",
            crate::workload::view_v_text()
                .replace("tweet", "review")
                .replace("author", "customer"),
        )
        .with_tag("sentiment"),
    );

    let corpus = tweets::generate(&TweetConfig {
        count: n_items,
        negative_fraction: 0.5,
        school_fraction: 0.5,
        hard_fraction: 0.1,
        seed,
    });

    let tasks = [
        "summarize each tweet and select negative sentiment about school topics",
        "summarize each review and select negative sentiment from the customer",
    ];

    let mut rows = Vec::new();
    for task in tasks {
        let choice =
            view_selector::select_view(&catalog, task, None).expect("catalog is non-empty");
        let view = catalog.get(&choice.view)?;
        let view_prompt = format!("{}\nFocus on {task}.", view.template);
        let scratch_prompt = format!(
            "{}\nAdditional requirement derived from the task: {task}.",
            crate::workload::static_prompt_text()
        );

        let run = |prompt: &str, structured: bool, warm: Option<&str>| -> Result<f64> {
            let engine = SimLlm::with_config(
                ModelProfile::qwen25_7b_instruct(),
                EngineConfig {
                    seed,
                    ..EngineConfig::default()
                },
            );
            let mut total = 0.0;
            for tweet in &corpus {
                engine.clear_cache();
                if let Some(w) = warm {
                    engine.warm(w);
                }
                let resp = engine.generate(&GenRequest {
                    text: format!("{prompt}\nTweet: {}", tweet.text),
                    identity: if structured {
                        PromptIdentity::Structured {
                            id: format!("view:{}@1#0/v2", choice.view),
                        }
                    } else {
                        PromptIdentity::Opaque
                    },
                    options: GenOptions {
                        max_tokens: 128,
                        temperature: 0.0,
                        task: Some("classify_school_negative".to_string()),
                    },
                    segments: None,
                })?;
                total += resp.latency.as_secs_f64();
            }
            Ok(total / corpus.len().max(1) as f64)
        };

        let scratch_time = run(&scratch_prompt, false, None)?;
        let view_time = run(&view_prompt, true, Some(&view.template))?;
        rows.push(ViewRow {
            task: task.to_string(),
            chosen_view: choice.view,
            scratch_time_s: scratch_time,
            view_time_s: view_time,
            speedup: scratch_time / view_time,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Ablation D: predictive vs reactive refinement
// ---------------------------------------------------------------------------

/// One policy's aggregate result.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PredictiveRow {
    /// Policy name.
    pub policy: String,
    /// Total LLM calls over the corpus.
    pub calls: u64,
    /// Total time, seconds.
    pub time_s: f64,
    /// Classification accuracy.
    pub accuracy: f64,
}

/// Compare reactive retry (generate, then retry on low confidence) against
/// predictive refinement (refine *before* generating when the risk model
/// fires) on a corpus with a high fraction of ambiguous items.
///
/// # Errors
///
/// Propagates engine failures.
pub fn ablation_predictive(seed: u64, n_items: usize) -> Result<Vec<PredictiveRow>> {
    let corpus = tweets::generate(&TweetConfig {
        count: n_items,
        negative_fraction: 0.5,
        school_fraction: 0.3,
        hard_fraction: 0.35,
        seed,
    });
    let base_prompt = "Classify the sentiment of the tweet.";
    let refined_prompt = "Classify the sentiment of the tweet. Think step by \
                          step about the wording and be specific about which \
                          phrases decide the label.";
    // Retry threshold sits just above the ambiguous-item confidence band
    // (~0.72), so reactive retries fire on most ambiguous items.
    let threshold = 0.76;
    // Threshold chosen so that only genuinely ambiguous items (no lexicon
    // signal) trip pre-emptive refinement; crisp items run the cheap prompt.
    let risk_model = RiskModel {
        threshold: 0.75,
        ..RiskModel::default()
    };

    let classify = |engine: &SimLlm, prompt: &str, tweet: &str| -> Result<(bool, f64, f64)> {
        let resp = engine.generate(&GenRequest {
            text: format!("{prompt}\nTweet: {tweet}"),
            identity: PromptIdentity::Opaque,
            options: GenOptions {
                max_tokens: 16,
                temperature: 0.0,
                task: Some("classify_sentiment".to_string()),
            },
            segments: None,
        })?;
        Ok((
            resp.text.starts_with("negative"),
            resp.confidence,
            resp.latency.as_secs_f64(),
        ))
    };

    let mut rows = Vec::new();
    for policy in ["Reactive retry", "Predictive refinement"] {
        let engine = SimLlm::with_config(
            ModelProfile::qwen25_7b_instruct(),
            EngineConfig {
                seed,
                ..EngineConfig::default()
            },
        );
        let mut calls = 0u64;
        let mut time = 0.0;
        let mut correct = 0usize;
        for tweet in &corpus {
            let truth = tweet.label == Sentiment::Negative;
            let decided = if policy == "Reactive retry" {
                let (label, conf, t) = classify(&engine, base_prompt, &tweet.text)?;
                calls += 1;
                time += t;
                if conf < threshold {
                    let (label2, _, t2) = classify(&engine, refined_prompt, &tweet.text)?;
                    calls += 1;
                    time += t2;
                    label2
                } else {
                    label
                }
            } else {
                // Predictive: consult the risk model first; ambiguity proxy
                // is the absence of lexicon signal.
                let ambiguity = if vocab::sentiment_score(&tweet.text) == 0 {
                    1.0
                } else {
                    0.2
                };
                let prompt = if risk_model.should_refine(base_prompt, ambiguity) {
                    refined_prompt
                } else {
                    base_prompt
                };
                let (label, _, t) = classify(&engine, prompt, &tweet.text)?;
                calls += 1;
                time += t;
                label
            };
            if decided == truth {
                correct += 1;
            }
        }
        rows.push(PredictiveRow {
            policy: policy.to_string(),
            calls,
            time_s: time,
            accuracy: correct as f64 / corpus.len().max(1) as f64,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_beats_naive_on_token_efficiency() {
        let rows = ablation_planner(7).unwrap();
        assert_eq!(rows.len(), 3);
        let none = &rows[0];
        let naive = &rows[1];
        let planned = &rows[2];
        assert!(planned.confidence > none.confidence, "plan helps");
        assert!(
            planned.tokens_added < naive.tokens_added,
            "plan is cheaper than naive: {} vs {}",
            planned.tokens_added,
            naive.tokens_added
        );
        assert!(planned.tokens_added <= 40, "budget respected");
        assert!(
            !planned.refiners.contains(&"normalize".to_string()),
            "no-op refiner skipped as low impact"
        );
    }

    #[test]
    fn view_guidance_wins_on_latency() {
        let rows = ablation_views(7, 60).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.speedup > 1.1, "task {:?}: speedup {}", r.task, r.speedup);
        }
        assert_eq!(rows[0].chosen_view, "tweet_pipeline", "school task → V");
        assert_eq!(
            rows[1].chosen_view, "review_pipeline",
            "review task → review view"
        );
    }

    #[test]
    fn predictive_uses_fewer_calls_without_losing_accuracy() {
        let rows = ablation_predictive(7, 300).unwrap();
        let reactive = &rows[0];
        let predictive = &rows[1];
        assert!(
            predictive.calls < reactive.calls,
            "predictive {} < reactive {}",
            predictive.calls,
            reactive.calls
        );
        assert!(predictive.time_s < reactive.time_s);
        assert!(
            predictive.accuracy >= reactive.accuracy - 0.05,
            "accuracy comparable: {} vs {}",
            predictive.accuracy,
            reactive.accuracy
        );
    }
}
