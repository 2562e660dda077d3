//! Structural prompt features.
//!
//! A small, backend-agnostic analysis of prompt text used in two places:
//! the LLM simulator's quality model (`spear-llm`) maps features to
//! accuracy bonuses, and the optimizer's predictive-refinement risk model
//! (`spear-optimizer`) treats *missing* features as risk. Centralizing the
//! detection keeps the two views of "prompt structure" consistent.

use serde::{Deserialize, Serialize};

/// Structural features detected in a rendered prompt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromptFeatures {
    /// States a high-level objective ("Objective: …").
    pub has_objective: bool,
    /// Demands specificity ("be specific", "focus on …").
    pub has_specificity: bool,
    /// Carries a reasoning hint ("think step by step").
    pub has_hint: bool,
    /// Embeds a worked example ("Example: … Output: …").
    pub has_example: bool,
    /// Imposes a word limit.
    pub has_word_limit: bool,
}

impl PromptFeatures {
    /// Detect features from prompt text (case-insensitive marker scan).
    /// The simulator's task model reads the same markers in its resumable
    /// scan (`spear_llm::task::TaskScan`), which is tested against this.
    #[must_use]
    pub fn detect(prompt: &str) -> Self {
        let lower = prompt.to_lowercase();
        Self {
            has_objective: lower.contains("objective:") || lower.contains("the goal is"),
            has_specificity: lower.contains("be specific")
                || lower.contains("every relevant detail")
                || lower.contains("focus on"),
            has_hint: lower.contains("step by step") || lower.contains("reasoning"),
            has_example: lower.contains("example:") && lower.contains("output:"),
            has_word_limit: lower.contains("word limit")
                || lower.contains("at most")
                || lower.contains("no more than"),
        }
    }

    /// Number of present features.
    #[must_use]
    pub fn count(&self) -> u32 {
        u32::from(self.has_objective)
            + u32::from(self.has_specificity)
            + u32::from(self.has_hint)
            + u32::from(self.has_example)
            + u32::from(self.has_word_limit)
    }

    /// A stable fingerprint: prompts with the same feature set share it.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        u64::from(self.has_objective)
            | u64::from(self.has_specificity) << 1
            | u64::from(self.has_hint) << 2
            | u64::from(self.has_example) << 3
            | u64::from(self.has_word_limit) << 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_matches_markers() {
        let f = PromptFeatures::detect(
            "Objective: find school tweets. Be specific. Think step by step.\n\
             Example:\nInput: x\nOutput: y\nUse at most 30 words.",
        );
        assert!(f.has_objective && f.has_specificity && f.has_hint);
        assert!(f.has_example && f.has_word_limit);
        assert_eq!(f.count(), 5);
        assert_eq!(
            PromptFeatures::detect("plain text"),
            PromptFeatures::default()
        );
    }

    #[test]
    fn example_requires_both_markers() {
        assert!(!PromptFeatures::detect("Example: something").has_example);
        assert!(PromptFeatures::detect("Example:\nInput a\nOutput: b").has_example);
    }

    #[test]
    fn fingerprint_distinguishes_feature_sets() {
        let a = PromptFeatures::detect("plain");
        let b = PromptFeatures::detect("think step by step");
        let c = PromptFeatures::detect("focus on dosage");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(b.fingerprint(), c.fingerprint());
    }

    #[test]
    fn detection_is_case_insensitive() {
        assert!(PromptFeatures::detect("THINK STEP BY STEP").has_hint);
    }
}
