//! View-guided refinement: cost-based base-view selection (paper §5).
//!
//! "Prompts are not built from scratch but derived from reusable base views
//! with lightweight, task-specific refinements ... When multiple views are
//! available, SPEAR can employ cost-based selection to identify the best
//! starting point, e.g., the view that minimizes refinement effort or token
//! cost." The effort estimate is lexical distance between the task
//! description and each view's template (1 − Jaccard, scaled by template
//! size); warm structured-cache entries discount a view further because
//! their rendered prefixes are already resident in the serving cache.

use serde::{Deserialize, Serialize};
use spear_core::diff::jaccard_words;
use spear_core::view::ViewCatalog;

use crate::prompt_cache::StructuredPromptCache;

/// Scoring weights for view selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectorWeights {
    /// Cost per estimated refinement token.
    pub refinement_token_cost: f64,
    /// Discount applied when the view is warm in the structured cache
    /// (subtracted from the cost).
    pub warm_cache_discount: f64,
}

impl Default for SelectorWeights {
    fn default() -> Self {
        Self {
            refinement_token_cost: 1.0,
            warm_cache_discount: 25.0,
        }
    }
}

/// A scored candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewChoice {
    /// View name.
    pub view: String,
    /// Estimated refinement effort in tokens (lower is better).
    pub est_refinement_tokens: f64,
    /// Whether the structured prompt cache already holds renderings.
    pub cache_warm: bool,
    /// Final cost (effort − warm discount); selection minimizes this.
    pub cost: f64,
}

/// Approximate token count of a template (words ≈ tokens at this scale).
fn template_tokens(template: &str) -> f64 {
    template.split_whitespace().count() as f64
}

/// Estimated tokens of refinement needed to adapt `template` to `task`:
/// lexical distance scaled by how much text would need touching, plus the
/// task's own novel content.
#[must_use]
pub fn refinement_effort(task_description: &str, template: &str) -> f64 {
    let sim = jaccard_words(task_description, template);
    let task_tokens = template_tokens(task_description);
    (1.0 - sim) * (template_tokens(template) * 0.3 + task_tokens)
}

/// Score every view in `catalog` against `task_description`; best first.
#[must_use]
pub fn rank_views(
    catalog: &ViewCatalog,
    task_description: &str,
    cache: Option<&StructuredPromptCache>,
    weights: &SelectorWeights,
) -> Vec<ViewChoice> {
    let mut out: Vec<ViewChoice> = catalog
        .names()
        .into_iter()
        .filter_map(|name| {
            let view = catalog.get(&name).ok()?;
            let effort = refinement_effort(task_description, &view.template);
            let warm = cache.is_some_and(|c| c.is_view_warm(&name));
            let cost = effort * weights.refinement_token_cost
                - if warm {
                    weights.warm_cache_discount
                } else {
                    0.0
                };
            Some(ViewChoice {
                view: name,
                est_refinement_tokens: effort,
                cache_warm: warm,
                cost,
            })
        })
        .collect();
    out.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.view.cmp(&b.view))
    });
    out
}

/// The single best view for `task_description`, if any view exists.
#[must_use]
pub fn select_view(
    catalog: &ViewCatalog,
    task_description: &str,
    cache: Option<&StructuredPromptCache>,
) -> Option<ViewChoice> {
    rank_views(
        catalog,
        task_description,
        cache,
        &SelectorWeights::default(),
    )
    .into_iter()
    .next()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spear_core::view::ViewDef;

    fn catalog() -> ViewCatalog {
        let c = ViewCatalog::new();
        c.register(ViewDef::new(
            "tweet_sentiment",
            "Classify the sentiment of the tweet as positive or negative. \
             Respond with one word. Tweet: {{ctx:tweet}}",
        ));
        c.register(ViewDef::new(
            "med_summary",
            "Summarize the patient's medication history and highlight any use \
             of {{drug}}. Notes: {{ctx:notes}}",
        ));
        c.register(ViewDef::new(
            "radiology_summary",
            "Summarize the imaging findings and impression of the radiology \
             report. Report: {{ctx:report}}",
        ));
        c
    }

    #[test]
    fn closest_view_wins() {
        let c = catalog();
        let choice = select_view(&c, "classify the sentiment of school tweets", None).unwrap();
        assert_eq!(choice.view, "tweet_sentiment");

        let choice = select_view(&c, "summarize medication history for enoxaparin", None).unwrap();
        assert_eq!(choice.view, "med_summary");
    }

    #[test]
    fn warm_cache_breaks_near_ties() {
        let c = ViewCatalog::new();
        c.register(ViewDef::new("a", "summarize the findings of the report"));
        c.register(ViewDef::new("b", "summarize the findings of the study"));
        let cache = StructuredPromptCache::new();
        cache.insert(Some("b"), 0x1, 1, "rendered");
        let ranked = rank_views(
            &c,
            "summarize the findings",
            Some(&cache),
            &SelectorWeights::default(),
        );
        assert_eq!(ranked[0].view, "b");
        assert!(ranked[0].cache_warm);
        assert!(!ranked[1].cache_warm);
    }

    #[test]
    fn effort_is_zero_for_identical_text_and_positive_otherwise() {
        assert_eq!(refinement_effort("classify tweets", "classify tweets"), 0.0);
        assert!(refinement_effort("classify tweets", "summarize notes") > 0.0);
    }

    #[test]
    fn empty_catalog_selects_nothing() {
        assert!(select_view(&ViewCatalog::new(), "anything", None).is_none());
    }

    #[test]
    fn ranking_is_deterministic_and_complete() {
        let c = catalog();
        let r1 = rank_views(&c, "task", None, &SelectorWeights::default());
        let r2 = rank_views(&c, "task", None, &SelectorWeights::default());
        assert_eq!(r1.len(), 3);
        assert_eq!(
            r1.iter().map(|v| v.view.clone()).collect::<Vec<_>>(),
            r2.iter().map(|v| v.view.clone()).collect::<Vec<_>>()
        );
    }
}
