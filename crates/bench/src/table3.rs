//! Table 3: comparison of prompt refinement strategies.
//!
//! Reproduces §7 "Refinement Strategies": 1K class-balanced tweets; the
//! base pipeline (summarize + negative filter) is stored as view **V**, then
//! refined to select school-related content. Five strategies are compared:
//!
//! 1. **Static Prompt** — a freshly written prompt, no reference to V,
//! 2. **Agentic Rewrite** — the LLM writes a prompt from just the objective,
//! 3. **Manual Refinement** — `REF[APPEND]` on V,
//! 4. **Assisted Refinement** — `REF[UPDATE, llm_rewrite(hint)]` on V,
//! 5. **Auto Refinement** — LLM refines V with the original instruction
//!    plus a high-level task objective.
//!
//! Cache semantics follow the paper's setting: the base view V is already
//! resident in the serving cache (it ran as the initial pipeline); each
//! task instance is independent, so what a strategy can reuse is exactly
//! the V prefix it preserved. Strategies 1–2 produce *opaque* prompts that
//! the structured cache cannot index at all — the paper's explanation for
//! their 0% hit rates.

use std::collections::BTreeMap;

use spear_core::error::Result;
use spear_core::history::{RefAction, RefinementMode};
use spear_core::llm::{GenOptions, GenRequest, LlmClient, PromptIdentity};
use spear_core::prompt::PromptEntry;
use spear_core::refiner::{RefineCtx, RefinerRegistry};
use spear_core::store::PromptStore;
use spear_core::value::Value;
use spear_core::view::ViewCatalog;
use spear_data::metrics::Confusion;
use spear_data::tweets::{self, Sentiment, Topic, TweetConfig};
use spear_llm::{EngineConfig, ModelProfile, SimLlm};

use crate::workload;

/// Configuration for the Table 3 run.
#[derive(Debug, Clone)]
pub struct Table3Config {
    /// Number of tweets (paper: 1000).
    pub n_tweets: usize,
    /// Corpus + engine seed.
    pub seed: u64,
    /// Model profile (paper: Qwen2.5-7B-Instruct).
    pub profile: ModelProfile,
    /// Prefix cache on/off (off = the cache ablation).
    pub cache_enabled: bool,
}

impl Default for Table3Config {
    fn default() -> Self {
        Self {
            n_tweets: 1000,
            seed: 140,
            profile: ModelProfile::qwen25_7b_instruct(),
            cache_enabled: true,
        }
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, serde::Serialize)]
pub struct StrategyRow {
    /// Strategy name (paper wording).
    pub strategy: String,
    /// Mean per-item time, seconds (one-time refinement cost amortized in).
    pub time_s: f64,
    /// Speedup over Static Prompt.
    pub speedup: f64,
    /// F1 of the school-negative selection against ground truth.
    pub f1: f64,
    /// F1 gain over Static Prompt, percent.
    pub f1_gain_pct: f64,
    /// Prompt-token cache hit rate, percent.
    pub cache_hit_pct: f64,
}

/// A prepared strategy: the prompt entry to run plus its one-time setup
/// latency (LLM calls spent refining/authoring the prompt).
struct Prepared {
    name: &'static str,
    entry: PromptEntry,
    setup_latency_s: f64,
}

#[allow(clippy::too_many_arguments)] // mirrors REF's fields
fn refine_with(
    store: &PromptStore,
    views: &ViewCatalog,
    llm: &dyn LlmClient,
    key: &str,
    refiner: &str,
    args: &Value,
    action: RefAction,
    mode: RefinementMode,
) -> Result<PromptEntry> {
    let registry = RefinerRegistry::with_builtins();
    let current = store.get(key)?;
    let context = spear_core::context::Context::new();
    let metadata = spear_core::metadata::Metadata::new();
    let output = registry.resolve(refiner)?.refine(&RefineCtx {
        current: Some(&current),
        context: &context,
        metadata: &metadata,
        llm: Some(llm),
        views,
        prompts: store,
        args,
    })?;
    let text = output.new_text.unwrap_or_else(|| current.text.clone());
    store.refine(
        key,
        text,
        action,
        refiner,
        mode,
        0,
        None,
        BTreeMap::new(),
        output.note,
    )?;
    Ok(PromptEntry::clone(&*store.get(key)?))
}

/// Build the five strategies. Each preparation goes through the real SPEAR
/// machinery (view catalog, prompt store, refiner registry), so ref_logs
/// and origins are authentic.
fn prepare_strategies(engine: &SimLlm) -> Result<Vec<Prepared>> {
    let views = ViewCatalog::new();
    views.register(workload::view_v());
    let store = PromptStore::new();

    // The base view V, instantiated and stored (its prior execution is what
    // warmed the serving cache).
    let v_entry = views.instantiate("tweet_pipeline", BTreeMap::new())?;
    store.insert("V", v_entry);

    let mut prepared = Vec::new();

    // 1. Static Prompt: an entirely new prompt, ad hoc (opaque).
    prepared.push(Prepared {
        name: "Static Prompt",
        entry: PromptEntry::new(
            workload::static_prompt_text(),
            "f_user_written",
            RefinementMode::Manual,
        ),
        setup_latency_s: 0.0,
    });

    // 2. Agentic Rewrite: LLM writes a prompt from the objective alone.
    let agentic_meta = engine.generate(&GenRequest {
        text: "Please write a prompt for the following task.\n\
               Objective: select tweets that are school-related and negative \
               in sentiment, with a cleaned summary of each"
            .to_string(),
        identity: PromptIdentity::Opaque,
        options: GenOptions {
            max_tokens: 1024,
            temperature: 0.0,
            task: Some("write_prompt".to_string()),
        },
        segments: None,
    })?;
    // Drop the generated per-item placeholder line; the harness appends the
    // tweet itself.
    let agentic_text = agentic_meta
        .text
        .rsplit_once("\nTweet:")
        .map_or(agentic_meta.text.clone(), |(head, _)| head.to_string());
    prepared.push(Prepared {
        name: "Agentic Rewrite",
        entry: PromptEntry::new(agentic_text, "f_llm_authored", RefinementMode::Manual),
        setup_latency_s: agentic_meta.latency.as_secs_f64(),
    });

    // 3. Manual Refinement: REF[APPEND] on V.
    store.clone_entry("V", "manual")?;
    let manual = refine_with(
        &store,
        &views,
        engine,
        "manual",
        "append",
        &Value::from("Focus on school-related tweets only."),
        RefAction::Append,
        RefinementMode::Manual,
    )?;
    prepared.push(Prepared {
        name: "Manual Refinement",
        entry: manual,
        setup_latency_s: 0.0,
    });

    // 4. Assisted Refinement: LLM rewrites V given a targeted hint.
    store.clone_entry("V", "assisted")?;
    let before = engine.clock().elapsed();
    let assisted = refine_with(
        &store,
        &views,
        engine,
        "assisted",
        "llm_rewrite",
        &Value::from("emphasize school-related tweets when selecting"),
        RefAction::Update,
        RefinementMode::Assisted,
    )?;
    let assisted_setup = (engine.clock().elapsed() - before).as_secs_f64();
    prepared.push(Prepared {
        name: "Assisted Refinement",
        entry: assisted,
        setup_latency_s: assisted_setup,
    });

    // 5. Auto Refinement: LLM refines V with the original instruction plus
    // the high-level task objective.
    store.clone_entry("V", "auto")?;
    let before = engine.clock().elapsed();
    let auto = refine_with(
        &store,
        &views,
        engine,
        "auto",
        "llm_rewrite",
        &Value::from("meet the task objective of selecting negative school-related tweets"),
        RefAction::Update,
        RefinementMode::Auto,
    )?;
    let auto_setup = (engine.clock().elapsed() - before).as_secs_f64();
    prepared.push(Prepared {
        name: "Auto Refinement",
        entry: auto,
        setup_latency_s: auto_setup,
    });

    Ok(prepared)
}

/// Ground truth of the refined task.
fn truth(label: Sentiment, topic: Topic) -> bool {
    label == Sentiment::Negative && topic == Topic::School
}

/// Run the full Table 3 experiment.
///
/// # Errors
///
/// Propagates engine and refiner failures.
pub fn run(config: &Table3Config) -> Result<Vec<StrategyRow>> {
    let corpus = tweets::generate(&TweetConfig {
        count: config.n_tweets,
        negative_fraction: 0.5,
        school_fraction: 0.3,
        hard_fraction: 0.12,
        seed: config.seed,
    });
    let v_text = workload::view_v_text();

    // One engine for strategy preparation (meta calls).
    let prep_engine = SimLlm::with_config(
        config.profile.clone(),
        EngineConfig {
            cache_enabled: config.cache_enabled,
            seed: config.seed,
            ..EngineConfig::default()
        },
    );
    let strategies = prepare_strategies(&prep_engine)?;

    let mut rows = Vec::new();
    for s in &strategies {
        let engine = SimLlm::with_config(
            config.profile.clone(),
            EngineConfig {
                cache_enabled: config.cache_enabled,
                seed: config.seed,
                ..EngineConfig::default()
            },
        );
        let identity = s.entry.cache_identity();
        let mut confusion = Confusion::default();
        let mut total_latency = s.setup_latency_s;
        let mut prompt_tokens = 0u64;
        let mut cached_tokens = 0u64;

        for tweet in &corpus {
            // Each task instance is independent: only the base view V is
            // resident (structured strategies can exploit it; opaque ones
            // cannot even be indexed).
            engine.clear_cache();
            if identity.is_some() {
                engine.warm(&v_text);
            }
            let request = GenRequest {
                text: format!("{}\nTweet: {}", s.entry.text, tweet.text),
                identity: identity.clone().map_or(PromptIdentity::Opaque, |id| {
                    PromptIdentity::Structured { id }
                }),
                options: GenOptions {
                    max_tokens: 128,
                    temperature: 0.0,
                    task: Some("classify_school_negative".to_string()),
                },
                segments: None,
            };
            let response = engine.generate(&request)?;
            total_latency += response.latency.as_secs_f64();
            prompt_tokens += response.usage.prompt_tokens;
            cached_tokens += response.usage.cached_tokens;

            let predicted = response.text.starts_with("yes");
            confusion.record(predicted, truth(tweet.label, tweet.topic));
        }

        rows.push(StrategyRow {
            strategy: s.name.to_string(),
            time_s: total_latency / corpus.len() as f64,
            speedup: 0.0, // filled against the static baseline below
            f1: confusion.f1(),
            f1_gain_pct: 0.0,
            cache_hit_pct: 100.0 * cached_tokens as f64 / prompt_tokens.max(1) as f64,
        });
    }

    let static_time = rows[0].time_s;
    let static_f1 = rows[0].f1;
    for row in &mut rows {
        row.speedup = static_time / row.time_s;
        row.f1_gain_pct = 100.0 * (row.f1 - static_f1) / static_f1;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run() -> Vec<StrategyRow> {
        run(&Table3Config {
            n_tweets: 300,
            ..Table3Config::default()
        })
        .unwrap()
    }

    #[test]
    fn reproduces_the_table3_shape() {
        let rows = small_run();
        assert_eq!(rows.len(), 5);
        let by_name = |n: &str| rows.iter().find(|r| r.strategy == n).unwrap();
        let static_p = by_name("Static Prompt");
        let agentic = by_name("Agentic Rewrite");
        let manual = by_name("Manual Refinement");
        let assisted = by_name("Assisted Refinement");
        let auto = by_name("Auto Refinement");

        // Cache hits: refinement strategies reuse V; opaque baselines get 0.
        assert_eq!(static_p.cache_hit_pct, 0.0);
        assert_eq!(agentic.cache_hit_pct, 0.0);
        assert!(manual.cache_hit_pct > assisted.cache_hit_pct);
        assert!(assisted.cache_hit_pct > auto.cache_hit_pct);
        assert!(auto.cache_hit_pct > 50.0);

        // Speedups: every refinement mode beats static clearly; agentic only
        // marginally (its prompt is shorter but uncacheable).
        assert!((static_p.speedup - 1.0).abs() < 1e-9);
        assert!(manual.speedup > 1.2, "manual {}", manual.speedup);
        assert!(assisted.speedup > 1.15);
        assert!(auto.speedup > 1.1);
        assert!(agentic.speedup > 1.0 && agentic.speedup < manual.speedup);

        // Quality: the expected ladder is Auto (0.81) > Agentic (0.79) >
        // Manual (0.75) > Assisted (0.74) > Static (0.70). At n=300 the
        // per-item correctness draws leave ±0.04-0.06 of noise on F1, so
        // assert the robust separations (≥ 2σ) and bracket the rest.
        assert!(
            auto.f1 > static_p.f1 + 0.05,
            "auto {} static {}",
            auto.f1,
            static_p.f1
        );
        assert!(agentic.f1 > static_p.f1 + 0.03);
        assert!(auto.f1 >= agentic.f1 - 0.02);
        for mid in [manual, assisted] {
            assert!(
                mid.f1 > static_p.f1 - 0.06 && mid.f1 < auto.f1 + 0.06,
                "{} f1 {} outside bracket",
                mid.strategy,
                mid.f1
            );
        }
        assert!(static_p.f1 > 0.5, "static f1 {}", static_p.f1);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small_run();
        let b = small_run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.f1, y.f1);
            assert_eq!(x.time_s, y.time_s);
            assert_eq!(x.cache_hit_pct, y.cache_hit_pct);
        }
    }

    #[test]
    fn cache_ablation_removes_speedups() {
        let rows = run(&Table3Config {
            n_tweets: 150,
            cache_enabled: false,
            ..Table3Config::default()
        })
        .unwrap();
        for r in &rows {
            assert_eq!(r.cache_hit_pct, 0.0, "{}", r.strategy);
        }
        let manual = rows
            .iter()
            .find(|r| r.strategy == "Manual Refinement")
            .unwrap();
        assert!(
            manual.speedup < 1.1,
            "without the cache, manual refinement loses its edge: {}",
            manual.speedup
        );
    }
}
