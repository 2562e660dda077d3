//! Table 4 and Figure 1: operator fusion vs sequential execution.
//!
//! Two pipeline configurations (paper §7 "Operator Fusion"):
//! `Map→Filter` (clean up the tweet, then classify sentiment) and
//! `Filter→Map` (filter for negative sentiment, then clean up), each run
//! sequentially and fused, across selectivity levels (Table 4, Qwen) and
//! across three models (Figure 1).
//!
//! Selectivity is controlled through the corpus: the filter keeps negative
//! tweets, so a corpus with `negative_fraction = s` has filter selectivity
//! `s`. Prompts here are not view-derived (opaque), so the prefix cache is
//! out of the picture and the measurement isolates fusion itself.

use std::sync::Arc;

use spear_core::error::Result;
use spear_data::tweets::{self, Sentiment, TweetConfig};
use spear_llm::{EngineConfig, ModelProfile, SimLlm};
use spear_optimizer::cost::CostModel;
use spear_optimizer::fusion::{self, PlanEstimates, Stage, StageEstimate};

use crate::workload;

/// Pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionOrder {
    /// Clean up, then classify (`Map→Filter`).
    MapFilter,
    /// Classify, then clean up (`Filter→Map`).
    FilterMap,
}

impl FusionOrder {
    /// Paper notation.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FusionOrder::MapFilter => "Map→Filter",
            FusionOrder::FilterMap => "Filter→Map",
        }
    }

    /// The stages, in order.
    #[must_use]
    pub fn stages(self) -> Vec<Stage> {
        let map = Stage::Map(workload::map_instruction());
        let filter = Stage::Filter(workload::filter_instruction());
        match self {
            FusionOrder::MapFilter => vec![map, filter],
            FusionOrder::FilterMap => vec![filter, map],
        }
    }
}

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct FusionConfig {
    /// Tweets per measurement (paper: 1000).
    pub n_tweets: usize,
    /// Corpus/engine seed.
    pub seed: u64,
    /// Filter selectivity (fraction of negative tweets).
    pub selectivity: f64,
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self {
            n_tweets: 1000,
            seed: 140,
            selectivity: 0.5,
        }
    }
}

/// One sequential-vs-fused measurement.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FusionMeasurement {
    /// Model name.
    pub model: String,
    /// Pipeline order, paper notation.
    pub order: String,
    /// Configured selectivity.
    pub selectivity: f64,
    /// Total sequential time over the corpus, seconds.
    pub seq_time_s: f64,
    /// Total fused time, seconds.
    pub fused_time_s: f64,
    /// Performance gain of fusion, percent (negative = fusion slower).
    pub gain_pct: f64,
    /// Sequential filter accuracy vs ground truth.
    pub seq_accuracy: f64,
    /// Fused filter accuracy.
    pub fused_accuracy: f64,
    /// Accuracy drop from fusing, percentage points.
    pub accuracy_drop_pct: f64,
    /// What the cost-based optimizer would have decided, given the
    /// sequential run's observed token profile.
    pub optimizer_would_fuse: bool,
}

fn accuracy(passed: &[bool], corpus: &[tweets::Tweet]) -> f64 {
    let correct = passed
        .iter()
        .zip(corpus)
        .filter(|(&p, t)| p == (t.label == Sentiment::Negative))
        .count();
    correct as f64 / corpus.len().max(1) as f64
}

/// Measure one `(model, order, selectivity)` cell.
///
/// # Errors
///
/// Propagates engine failures.
pub fn measure(
    profile: &ModelProfile,
    order: FusionOrder,
    config: &FusionConfig,
) -> Result<FusionMeasurement> {
    let corpus = tweets::generate(&TweetConfig {
        count: config.n_tweets,
        negative_fraction: config.selectivity,
        school_fraction: 0.3,
        hard_fraction: 0.12,
        seed: config.seed,
    });
    let items: Vec<String> = corpus.iter().map(|t| t.text.clone()).collect();
    let stages = order.stages();

    // Each form runs on its own identically-seeded engine.
    let run = |fused: bool| {
        let engine = SimLlm::with_config(
            profile.clone(),
            EngineConfig {
                seed: config.seed,
                ..EngineConfig::default()
            },
        );
        let runtime = fusion::runtime_builder().llm(Arc::new(engine)).build();
        fusion::run(&runtime, &fusion::pipeline(&stages, fused, None), &items)
    };
    let seq = run(false)?;
    let fused = run(true)?;

    let seq_time = seq.latency.as_secs_f64();
    let fused_time = fused.latency.as_secs_f64();
    let seq_acc = accuracy(&seq.passed, &corpus);
    let fused_acc = accuracy(&fused.passed, &corpus);

    // Feed the sequential run's observed per-call token profile to the
    // optimizer's fusion rule, checking that the cost-based decision agrees
    // with the measured outcome.
    let calls = seq.gen_calls.max(1) as f64;
    let estimates = PlanEstimates {
        n_items: corpus.len() as f64,
        selectivity: config.selectivity,
        per_stage: StageEstimate {
            prompt_tokens: seq.usage.prompt_tokens as f64 / calls,
            cached_fraction: 0.0,
            decode_tokens: seq.usage.completion_tokens as f64 / calls,
        },
        fused: StageEstimate {
            prompt_tokens: fused.usage.prompt_tokens as f64 / fused.gen_calls.max(1) as f64,
            cached_fraction: 0.0,
            decode_tokens: fused.usage.completion_tokens as f64 / fused.gen_calls.max(1) as f64,
        },
    };
    let cost_model = CostModel {
        overhead_us: profile.request_overhead_us,
        prefill_us: profile.prefill_us_per_token,
        cached_us: profile.cached_prefill_us_per_token,
        decode_us: profile.decode_us_per_token,
    };
    let decision = fusion::decide(&stages, &estimates, &cost_model);

    Ok(FusionMeasurement {
        model: profile.name.clone(),
        order: order.label().to_string(),
        selectivity: config.selectivity,
        seq_time_s: seq_time,
        fused_time_s: fused_time,
        gain_pct: 100.0 * (seq_time - fused_time) / seq_time,
        seq_accuracy: seq_acc,
        fused_accuracy: fused_acc,
        accuracy_drop_pct: 100.0 * (seq_acc - fused_acc),
        optimizer_would_fuse: decision.fuse,
    })
}

/// The selectivity levels of Table 4.
pub const TABLE4_SELECTIVITIES: [f64; 5] = [0.1, 0.3, 0.5, 0.8, 1.0];

/// Run the full Table 4 sweep (Qwen profile, both orders × selectivities).
///
/// # Errors
///
/// Propagates engine failures.
pub fn table4(n_tweets: usize, seed: u64) -> Result<Vec<FusionMeasurement>> {
    let profile = ModelProfile::qwen25_7b_instruct();
    let mut out = Vec::new();
    for order in [FusionOrder::MapFilter, FusionOrder::FilterMap] {
        for s in TABLE4_SELECTIVITIES {
            out.push(measure(
                &profile,
                order,
                &FusionConfig {
                    n_tweets,
                    seed,
                    selectivity: s,
                },
            )?);
        }
    }
    Ok(out)
}

/// Run the Figure 1 sweep: both orders across the three evaluation models
/// at the class-balanced default selectivity.
///
/// # Errors
///
/// Propagates engine failures.
pub fn figure1(n_tweets: usize, seed: u64) -> Result<Vec<FusionMeasurement>> {
    let mut out = Vec::new();
    for profile in ModelProfile::evaluation_models() {
        for order in [FusionOrder::MapFilter, FusionOrder::FilterMap] {
            out.push(measure(
                &profile,
                order,
                &FusionConfig {
                    n_tweets,
                    seed,
                    selectivity: 0.5,
                },
            )?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(selectivity: f64) -> FusionConfig {
        FusionConfig {
            n_tweets: 250,
            seed: 140,
            selectivity,
        }
    }

    #[test]
    fn map_filter_fusion_gains_at_all_selectivities() {
        let profile = ModelProfile::qwen25_7b_instruct();
        for s in [0.1, 0.5, 1.0] {
            let m = measure(&profile, FusionOrder::MapFilter, &cfg(s)).unwrap();
            assert!(
                (10.0..35.0).contains(&m.gain_pct),
                "gain {} at selectivity {s}",
                m.gain_pct
            );
            assert!(m.optimizer_would_fuse, "optimizer agrees at s={s}");
            assert!(
                m.accuracy_drop_pct > 1.0 && m.accuracy_drop_pct < 12.0,
                "accuracy drop {}",
                m.accuracy_drop_pct
            );
        }
    }

    #[test]
    fn filter_map_fusion_depends_on_selectivity() {
        let profile = ModelProfile::qwen25_7b_instruct();
        let low = measure(&profile, FusionOrder::FilterMap, &cfg(0.1)).unwrap();
        assert!(low.gain_pct < 0.0, "pushdown wins at 10%: {}", low.gain_pct);
        assert!(!low.optimizer_would_fuse);

        let high = measure(&profile, FusionOrder::FilterMap, &cfg(1.0)).unwrap();
        assert!(
            high.gain_pct > 12.0,
            "fusion wins at 100%: {}",
            high.gain_pct
        );
        assert!(high.optimizer_would_fuse);
    }

    #[test]
    fn filter_map_crossover_is_between_30_and_80_percent() {
        let profile = ModelProfile::qwen25_7b_instruct();
        let g30 = measure(&profile, FusionOrder::FilterMap, &cfg(0.3))
            .unwrap()
            .gain_pct;
        let g80 = measure(&profile, FusionOrder::FilterMap, &cfg(0.8))
            .unwrap()
            .gain_pct;
        assert!(g30 < 2.0, "gain at 30% should be ~0 or negative: {g30}");
        assert!(g80 > 8.0, "gain at 80% should be clearly positive: {g80}");
    }

    #[test]
    fn accuracy_drops_are_model_ordered_for_filter_map() {
        // Figure 1: Filter→Map accuracy drops ~0.3% (GPT-4o-mini) to ~6%
        // (Mistral).
        let gpt = measure(
            &ModelProfile::gpt_4o_mini(),
            FusionOrder::FilterMap,
            &cfg(0.5),
        )
        .unwrap();
        let mistral = measure(
            &ModelProfile::mistral_7b_instruct(),
            FusionOrder::FilterMap,
            &cfg(0.5),
        )
        .unwrap();
        assert!(
            gpt.accuracy_drop_pct < mistral.accuracy_drop_pct,
            "gpt {} < mistral {}",
            gpt.accuracy_drop_pct,
            mistral.accuracy_drop_pct
        );
    }

    #[test]
    fn measurements_are_deterministic() {
        let profile = ModelProfile::qwen25_7b_instruct();
        let a = measure(&profile, FusionOrder::MapFilter, &cfg(0.5)).unwrap();
        let b = measure(&profile, FusionOrder::MapFilter, &cfg(0.5)).unwrap();
        assert_eq!(a.seq_time_s, b.seq_time_s);
        assert_eq!(a.fused_accuracy, b.fused_accuracy);
    }
}
