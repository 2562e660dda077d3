//! Per-model cost and quality profiles.
//!
//! The simulator reproduces the two quantities every experiment in the paper
//! depends on: **latency** (split into per-request overhead, uncached
//! prefill, cached prefill, and decode — the same decomposition vLLM's
//! prefix caching exploits) and **task quality** (accuracy as a function of
//! prompt structure). The constants below are calibrated to a 7B model on a
//! single RTX 3090 (the paper's testbed) and an API-served small model for
//! GPT-4o-mini; DESIGN.md documents the substitution.

use serde::{Deserialize, Serialize};

pub use spear_core::features::PromptFeatures;

/// What a generation request is semantically asking for. Routed from
/// `GenOptions::task` or detected from prompt markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Clean up / summarize a short text (the Map stage).
    Summarize,
    /// Binary sentiment classification (the Filter stage).
    ClassifySentiment,
    /// The refined task of Table 3: negative AND school-related.
    ClassifySchoolNegative,
    /// One call doing Map then Filter (fused `Map→Filter`).
    FusedMapFilter,
    /// One call doing Filter then Map (fused `Filter→Map`).
    FusedFilterMap,
    /// Rewrite an existing prompt (assisted refinement).
    RewritePrompt,
    /// Write a prompt from scratch given an objective (agentic rewrite).
    WritePrompt,
    /// Clinical question answering over notes.
    Qa,
    /// Anything else.
    Generic,
}

/// Additive accuracy/confidence bonuses for prompt features (paper §4.1's
/// premise: instructions, hints, examples, and objectives measurably move
/// output quality).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityWeights {
    /// Prompt states a high-level task objective.
    pub objective_bonus: f64,
    /// Prompt demands specificity ("be specific", "every relevant detail").
    pub specificity_bonus: f64,
    /// Prompt carries a reasoning hint ("think step by step").
    pub hint_bonus: f64,
    /// Prompt embeds a worked example.
    pub example_bonus: f64,
    /// Prompt derives from a validated view (structural-consistency bonus:
    /// §5, view reuse "promotes structural consistency, reduces errors").
    pub consistency_bonus: f64,
    /// Accuracy penalty when one call fuses Map→Filter semantics.
    pub fused_map_filter_penalty: f64,
    /// Accuracy penalty when one call fuses Filter→Map semantics.
    pub fused_filter_map_penalty: f64,
}

impl QualityWeights {
    /// Total accuracy bonus for the detected `features`, plus the
    /// consistency bonus when the prompt carried a structured (view-derived)
    /// identity.
    #[must_use]
    pub fn bonus(&self, features: &PromptFeatures, structured_identity: bool) -> f64 {
        let mut b = 0.0;
        if features.has_objective {
            b += self.objective_bonus;
        }
        if features.has_specificity {
            b += self.specificity_bonus;
        }
        if features.has_hint {
            b += self.hint_bonus;
        }
        if features.has_example {
            b += self.example_bonus;
        }
        if structured_identity {
            b += self.consistency_bonus;
        }
        b
    }
}

/// A simulated model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Model name reported in responses and traces.
    pub name: String,
    /// Fixed per-request cost, µs (scheduler + sampler setup; network for
    /// API models).
    pub request_overhead_us: f64,
    /// Prefill cost per *uncached* prompt token, µs.
    pub prefill_us_per_token: f64,
    /// Prefill cost per *cached* prompt token, µs (block reuse is not
    /// entirely free: blocks are re-linked and attention still reads them).
    pub cached_prefill_us_per_token: f64,
    /// Decode cost per generated token, µs.
    pub decode_us_per_token: f64,
    /// Quality weights.
    pub quality: QualityWeights,
}

impl ModelProfile {
    /// Simulated Qwen2.5-7B-Instruct on an RTX 3090 under vLLM — the
    /// paper's primary model (Table 3, Table 4, Figure 1).
    #[must_use]
    pub fn qwen25_7b_instruct() -> Self {
        Self {
            name: "qwen2.5-7b-instruct-sim".to_string(),
            request_overhead_us: 100_000.0,
            prefill_us_per_token: 1_000.0,
            cached_prefill_us_per_token: 20.0,
            decode_us_per_token: 25_000.0,
            quality: QualityWeights {
                objective_bonus: 0.09,
                specificity_bonus: 0.03,
                hint_bonus: 0.02,
                example_bonus: 0.03,
                consistency_bonus: 0.02,
                fused_map_filter_penalty: 0.05,
                fused_filter_map_penalty: 0.030,
            },
        }
    }

    /// Simulated Mistral-7B-Instruct (Figure 1's second open model):
    /// similar hardware costs, weaker instruction following, larger fusion
    /// penalties.
    #[must_use]
    pub fn mistral_7b_instruct() -> Self {
        Self {
            name: "mistral-7b-instruct-sim".to_string(),
            request_overhead_us: 110_000.0,
            prefill_us_per_token: 1_050.0,
            cached_prefill_us_per_token: 22.0,
            decode_us_per_token: 27_000.0,
            quality: QualityWeights {
                objective_bonus: 0.07,
                specificity_bonus: 0.03,
                hint_bonus: 0.02,
                example_bonus: 0.04,
                consistency_bonus: 0.02,
                fused_map_filter_penalty: 0.08,
                fused_filter_map_penalty: 0.060,
            },
        }
    }

    /// Simulated GPT-4o-mini (Figure 1's proprietary model): API-served —
    /// large fixed overhead, fast tokens, strongest instruction following,
    /// smallest fusion penalties.
    #[must_use]
    pub fn gpt_4o_mini() -> Self {
        Self {
            name: "gpt-4o-mini-sim".to_string(),
            request_overhead_us: 400_000.0,
            prefill_us_per_token: 120.0,
            cached_prefill_us_per_token: 12.0,
            decode_us_per_token: 12_000.0,
            quality: QualityWeights {
                objective_bonus: 0.08,
                specificity_bonus: 0.03,
                hint_bonus: 0.02,
                example_bonus: 0.02,
                consistency_bonus: 0.02,
                fused_map_filter_penalty: 0.04,
                fused_filter_map_penalty: 0.003,
            },
        }
    }

    /// All three evaluation models, in the paper's order.
    #[must_use]
    pub fn evaluation_models() -> Vec<ModelProfile> {
        vec![
            Self::qwen25_7b_instruct(),
            Self::mistral_7b_instruct(),
            Self::gpt_4o_mini(),
        ]
    }

    /// Base accuracy for a task before prompt-feature effects. The refined
    /// school-negative task is markedly harder than plain sentiment — its
    /// 0.70 base is Table 3's Static Prompt F1.
    #[must_use]
    pub fn base_accuracy(&self, task: TaskKind) -> f64 {
        let by_model = match self.name.as_str() {
            "qwen2.5-7b-instruct-sim" => (0.90, 0.70),
            "mistral-7b-instruct-sim" => (0.85, 0.65),
            "gpt-4o-mini-sim" => (0.92, 0.74),
            _ => (0.85, 0.65),
        };
        let (sentiment, school) = by_model;
        match task {
            TaskKind::ClassifySentiment | TaskKind::FusedMapFilter | TaskKind::FusedFilterMap => {
                sentiment
            }
            TaskKind::ClassifySchoolNegative => school,
            // Non-classification tasks have no binary accuracy; give a
            // high nominal value used only for confidence shaping.
            TaskKind::Summarize
            | TaskKind::RewritePrompt
            | TaskKind::WritePrompt
            | TaskKind::Qa
            | TaskKind::Generic => 0.92,
        }
    }

    /// Latency of one request, µs.
    #[must_use]
    pub fn latency_us(&self, uncached_prompt: u64, cached_prompt: u64, completion: u64) -> f64 {
        self.request_overhead_us
            + uncached_prompt as f64 * self.prefill_us_per_token
            + cached_prompt as f64 * self.cached_prefill_us_per_token
            + completion as f64 * self.decode_us_per_token
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn latency_decomposes_linearly() {
        // The Table 3 shape: a ~450-token instruction with a ~37-token
        // per-item suffix and ~46 decoded tokens gives a ≈1.3× speedup when
        // the instruction prefix is served from cache — the Manual
        // Refinement row relative to Static.
        let p = ModelProfile::qwen25_7b_instruct();
        let cold = p.latency_us(450 + 37, 0, 46);
        let warm = p.latency_us(37, 450, 46);
        let expected_cold = 100_000.0 + 487.0 * 1_000.0 + 46.0 * 25_000.0;
        assert!((cold - expected_cold).abs() < 1.0, "cold={cold}");
        let speedup = cold / warm;
        assert!((1.25..=1.42).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn base_accuracy_orders_tasks_and_models() {
        for m in ModelProfile::evaluation_models() {
            assert!(
                m.base_accuracy(TaskKind::ClassifySentiment)
                    > m.base_accuracy(TaskKind::ClassifySchoolNegative),
                "refined task is harder for {}",
                m.name
            );
        }
        let q = ModelProfile::qwen25_7b_instruct();
        assert!(
            (q.base_accuracy(TaskKind::ClassifySchoolNegative) - 0.70).abs() < 1e-9,
            "Table 3 static baseline"
        );
    }

    #[test]
    fn feature_detection_matches_markers() {
        let f = PromptFeatures::detect(
            "Objective: find school tweets. Be specific. Think step by step.\n\
             Example:\nInput: x\nOutput: y\nUse at most 30 words.",
        );
        assert!(f.has_objective && f.has_specificity && f.has_hint);
        assert!(f.has_example && f.has_word_limit);
        assert_eq!(
            PromptFeatures::detect("plain text"),
            PromptFeatures::default()
        );
    }

    #[test]
    fn bonus_reproduces_table3_f1_ladder() {
        let w = ModelProfile::qwen25_7b_instruct().quality;
        let base = 0.70;
        let static_p = w.bonus(&PromptFeatures::default(), false);
        let agentic = w.bonus(
            &PromptFeatures {
                has_objective: true,
                ..Default::default()
            },
            false,
        );
        let manual = w.bonus(
            &PromptFeatures {
                has_specificity: true,
                ..Default::default()
            },
            true,
        );
        let assisted = w.bonus(
            &PromptFeatures {
                has_hint: true,
                ..Default::default()
            },
            true,
        );
        let auto = w.bonus(
            &PromptFeatures {
                has_objective: true,
                ..Default::default()
            },
            true,
        );
        assert!((base + static_p - 0.70).abs() < 1e-9);
        assert!((base + agentic - 0.79).abs() < 1e-9);
        assert!((base + manual - 0.75).abs() < 1e-9);
        assert!((base + assisted - 0.74).abs() < 1e-9);
        assert!((base + auto - 0.81).abs() < 1e-9);
    }

    #[test]
    fn fingerprint_distinguishes_feature_sets() {
        let a = PromptFeatures::detect("plain");
        let b = PromptFeatures::detect("think step by step");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
