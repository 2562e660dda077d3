//! Predictive refinement (paper §5).
//!
//! "Instead of waiting for failures or low quality outputs to trigger
//! recovery, SPEAR uses predictive models, either trained or heuristic, to
//! anticipate risks such as low confidence ... When such risks are
//! detected, the system can initiate targeted refinements ahead of
//! execution, minimizing costly retries."
//!
//! The model here is a linear risk score over prompt-structure features
//! (missing hints/examples/specificity, very short prompts) and an item
//! signal (how strong the input's decision evidence looks). The threshold
//! is *calibrated* from observed `(risk, confidence)` pairs: it picks the
//! cut that best separates low-confidence outcomes, so the model adapts to
//! whatever backend is attached.

use serde::{Deserialize, Serialize};
use spear_core::features::PromptFeatures;

/// Weights of the linear risk model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RiskWeights {
    /// Risk added when the prompt has no reasoning hint.
    pub missing_hint: f64,
    /// Risk added when the prompt has no example.
    pub missing_example: f64,
    /// Risk added when the prompt demands no specificity.
    pub missing_specificity: f64,
    /// Risk added when the prompt is very short (< 15 words).
    pub short_prompt: f64,
    /// Risk added per unit of item ambiguity (caller-supplied in `[0, 1]`).
    pub item_ambiguity: f64,
}

impl Default for RiskWeights {
    fn default() -> Self {
        Self {
            missing_hint: 0.20,
            missing_example: 0.10,
            missing_specificity: 0.10,
            short_prompt: 0.15,
            item_ambiguity: 0.45,
        }
    }
}

/// The predictive risk model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RiskModel {
    /// Feature weights.
    pub weights: RiskWeights,
    /// Refine pre-emptively when risk exceeds this.
    pub threshold: f64,
}

impl Default for RiskModel {
    fn default() -> Self {
        Self {
            weights: RiskWeights::default(),
            threshold: 0.5,
        }
    }
}

/// One calibration sample: the risk computed before execution and the
/// confidence observed after.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RiskSample {
    /// Pre-execution risk score.
    pub risk: f64,
    /// Post-execution confidence.
    pub confidence: f64,
}

impl RiskModel {
    /// Risk score in `[0, 1]` for running `prompt` over an item with the
    /// given ambiguity (0 = crisp evidence, 1 = no evidence).
    #[must_use]
    pub fn risk(&self, prompt: &str, item_ambiguity: f64) -> f64 {
        let f = PromptFeatures::detect(prompt);
        let w = &self.weights;
        let mut r = 0.0;
        if !f.has_hint {
            r += w.missing_hint;
        }
        if !f.has_example {
            r += w.missing_example;
        }
        if !f.has_specificity {
            r += w.missing_specificity;
        }
        if prompt.split_whitespace().count() < 15 {
            r += w.short_prompt;
        }
        r += w.item_ambiguity * item_ambiguity.clamp(0.0, 1.0);
        r.clamp(0.0, 1.0)
    }

    /// Whether to refine pre-emptively.
    #[must_use]
    pub fn should_refine(&self, prompt: &str, item_ambiguity: f64) -> bool {
        self.risk(prompt, item_ambiguity) > self.threshold
    }

    /// Calibrate the threshold from observed samples: choose the cut that
    /// maximizes balanced accuracy of predicting `confidence <
    /// low_confidence` from `risk > threshold`. Returns the fitted model;
    /// with no samples the model is unchanged.
    #[must_use]
    pub fn calibrate(mut self, samples: &[RiskSample], low_confidence: f64) -> Self {
        if samples.is_empty() {
            return self;
        }
        let mut best = (self.threshold, f64::NEG_INFINITY);
        // Candidate thresholds: observed risks (plus the extremes).
        let mut candidates: Vec<f64> = samples.iter().map(|s| s.risk).collect();
        candidates.push(0.0);
        candidates.push(1.0);
        for &t in &candidates {
            let (mut tp, mut fp, mut tn, mut fn_) = (0.0, 0.0, 0.0, 0.0);
            for s in samples {
                let predicted_risky = s.risk > t;
                let actually_low = s.confidence < low_confidence;
                match (predicted_risky, actually_low) {
                    (true, true) => tp += 1.0,
                    (true, false) => fp += 1.0,
                    (false, false) => tn += 1.0,
                    (false, true) => fn_ += 1.0,
                }
            }
            let tpr = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
            let tnr = if tn + fp > 0.0 { tn / (tn + fp) } else { 0.0 };
            let balanced = (tpr + tnr) / 2.0;
            if balanced > best.1 {
                best = (t, balanced);
            }
        }
        self.threshold = best.0;
        self
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn weak_prompts_on_ambiguous_items_are_risky() {
        let m = RiskModel::default();
        let weak = "Classify.";
        let strong = "Classify the sentiment. Think step by step about the \
                      reasoning. Be specific. Example:\nInput: x\nOutput: y \
                      and respond with one word only please now";
        assert!(m.risk(weak, 1.0) > 0.8);
        assert!(m.risk(strong, 0.0) < 0.1);
        assert!(m.should_refine(weak, 1.0));
        assert!(!m.should_refine(strong, 0.0));
    }

    #[test]
    fn risk_is_monotone_in_ambiguity() {
        let m = RiskModel::default();
        let p = "Classify the sentiment of the tweet with some more words here";
        assert!(m.risk(p, 0.9) > m.risk(p, 0.1));
        assert!(m.risk(p, 2.0) <= 1.0, "clamped");
    }

    #[test]
    fn calibration_finds_a_separating_threshold() {
        // Synthetic world: risk > 0.6 reliably leads to low confidence.
        let mut samples = Vec::new();
        for i in 0..50 {
            let risk = i as f64 / 50.0;
            let confidence = if risk > 0.6 { 0.4 } else { 0.85 };
            samples.push(RiskSample { risk, confidence });
        }
        let m = RiskModel {
            threshold: 0.1, // start badly calibrated
            ..RiskModel::default()
        }
        .calibrate(&samples, 0.7);
        assert!(
            (m.threshold - 0.6).abs() <= 0.03,
            "fitted threshold {} should sit at the boundary",
            m.threshold
        );
    }

    #[test]
    fn calibration_with_no_samples_is_identity() {
        let m = RiskModel::default().calibrate(&[], 0.7);
        assert_eq!(m.threshold, RiskModel::default().threshold);
    }

    #[test]
    fn predictive_beats_reactive_on_retry_count() {
        // A toy world where refinement lifts confidence above the retry
        // threshold. Reactive: always generate, retry when low. Predictive:
        // refine first when risk is high, avoiding the retry.
        let model = RiskModel::default();
        let items = [
            ("it was okay i guess", 1.0),   // ambiguous
            ("i hate this awful day", 0.0), // crisp
            ("whatever, fine", 1.0),        // ambiguous
            ("love this amazing game", 0.0),
        ];
        let weak_prompt = "Classify.";
        let mut reactive_calls = 0;
        let mut predictive_calls = 0;
        for (_, ambiguity) in items {
            // Reactive: 1 call, +1 retry if the item was ambiguous.
            reactive_calls += 1;
            if ambiguity > 0.5 {
                reactive_calls += 1;
            }
            // Predictive: refine up front (free in this toy), single call.
            let _ = model.should_refine(weak_prompt, ambiguity);
            predictive_calls += 1;
        }
        assert!(predictive_calls < reactive_calls);
    }
}
