//! Cost-based refinement planning (paper §5).
//!
//! "SPEAR performs cost-based planning over refinements ... the system
//! learns which refiners consistently improve output quality, and at what
//! cost. Using these insights, SPEAR can dynamically prioritize or reorder
//! refiners, skip low-impact updates, and apply only those that maximize
//! utility under task-specific constraints (e.g., token budgets or latency
//! thresholds)."
//!
//! Profiles come from the ref_log mining in `spear_core::meta` joined with
//! observed costs; the planner greedily selects refiners by utility density
//! (gain per unit cost) under token/latency budgets — the classic knapsack
//! heuristic, which is exact enough here because refiner sets are small.

use serde::{Deserialize, Serialize};
use spear_core::meta::RefinerStats;

/// A refiner's learned utility/cost profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefinerProfile {
    /// Refiner (function) name.
    pub name: String,
    /// Mean confidence gain per application (from ref_log mining).
    pub avg_gain: f64,
    /// Mean extra prompt tokens an application adds downstream.
    pub token_cost: f64,
    /// Mean latency an application adds (its own LLM calls, if any), µs.
    pub latency_us: f64,
}

impl RefinerProfile {
    /// Join mined [`RefinerStats`] with observed costs. Unmeasured refiners
    /// (no before/after confidence pairs) get `avg_gain = 0` and will only
    /// be selected if the caller's `min_gain` admits them.
    #[must_use]
    pub fn from_stats(stats: &RefinerStats, token_cost: f64, latency_us: f64) -> Self {
        Self {
            name: stats.f_name.clone(),
            avg_gain: stats.avg_gain.unwrap_or(0.0),
            token_cost,
            latency_us,
        }
    }

    /// Utility density: gain per combined unit of cost. The combination
    /// normalizes tokens and latency so neither dominates by unit choice.
    #[must_use]
    pub fn density(&self) -> f64 {
        let cost = 1.0 + self.token_cost / 100.0 + self.latency_us / 1e6;
        self.avg_gain / cost
    }
}

/// Budgets for one planning episode.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Budget {
    /// Maximum extra prompt tokens allowed (None = unbounded).
    pub max_tokens: Option<f64>,
    /// Maximum extra latency allowed, µs (None = unbounded).
    pub max_latency_us: Option<f64>,
}

/// The planned refiner sequence with its expected totals.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementPlan {
    /// Selected refiner names, in application order (best density first).
    pub refiners: Vec<String>,
    /// Expected total confidence gain.
    pub expected_gain: f64,
    /// Expected total token cost.
    pub expected_tokens: f64,
    /// Expected total latency, µs.
    pub expected_latency_us: f64,
    /// Refiners skipped as low-impact (`avg_gain < min_gain`).
    pub skipped_low_impact: Vec<String>,
}

/// Plan a refiner sequence: skip low-impact refiners, order the rest by
/// utility density, and take while budgets allow.
#[must_use]
pub fn plan(profiles: &[RefinerProfile], budget: &Budget, min_gain: f64) -> RefinementPlan {
    let mut skipped_low_impact = Vec::new();
    let mut candidates: Vec<&RefinerProfile> = Vec::new();
    for p in profiles {
        if p.avg_gain < min_gain {
            skipped_low_impact.push(p.name.clone());
        } else {
            candidates.push(p);
        }
    }
    candidates.sort_by(|a, b| {
        b.density()
            .partial_cmp(&a.density())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });

    let mut plan = RefinementPlan {
        refiners: Vec::new(),
        expected_gain: 0.0,
        expected_tokens: 0.0,
        expected_latency_us: 0.0,
        skipped_low_impact,
    };
    for p in candidates {
        let tokens = plan.expected_tokens + p.token_cost;
        let latency = plan.expected_latency_us + p.latency_us;
        if budget.max_tokens.is_some_and(|max| tokens > max)
            || budget.max_latency_us.is_some_and(|max| latency > max)
        {
            continue; // this refiner does not fit; try cheaper ones
        }
        plan.refiners.push(p.name.clone());
        plan.expected_gain += p.avg_gain;
        plan.expected_tokens = tokens;
        plan.expected_latency_us = latency;
    }
    plan
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn profiles() -> Vec<RefinerProfile> {
        vec![
            RefinerProfile {
                name: "add_hint".into(),
                avg_gain: 0.12,
                token_cost: 15.0,
                latency_us: 0.0,
            },
            RefinerProfile {
                name: "inject_example".into(),
                avg_gain: 0.15,
                token_cost: 120.0,
                latency_us: 0.0,
            },
            RefinerProfile {
                name: "llm_rewrite".into(),
                avg_gain: 0.10,
                token_cost: 40.0,
                latency_us: 2_000_000.0,
            },
            RefinerProfile {
                name: "generic_rewriter".into(),
                avg_gain: -0.02,
                token_cost: 30.0,
                latency_us: 0.0,
            },
        ]
    }

    #[test]
    fn low_impact_refiners_are_skipped() {
        let p = plan(&profiles(), &Budget::default(), 0.0);
        assert_eq!(p.skipped_low_impact, vec!["generic_rewriter".to_string()]);
        assert!(!p.refiners.contains(&"generic_rewriter".to_string()));
    }

    #[test]
    fn ordering_is_by_utility_density() {
        let p = plan(&profiles(), &Budget::default(), 0.0);
        // add_hint: 0.12/1.15 ≈ 0.104; inject_example: 0.15/2.2 ≈ 0.068;
        // llm_rewrite: 0.10/3.4 ≈ 0.029.
        assert_eq!(
            p.refiners,
            vec!["add_hint", "inject_example", "llm_rewrite"]
        );
        assert!((p.expected_gain - 0.37).abs() < 1e-9);
    }

    #[test]
    fn token_budget_excludes_expensive_refiners_but_keeps_cheaper_later_ones() {
        let p = plan(
            &profiles(),
            &Budget {
                max_tokens: Some(60.0),
                max_latency_us: None,
            },
            0.0,
        );
        // inject_example (120 tokens) does not fit; add_hint (15) and
        // llm_rewrite (40) together stay under 60.
        assert_eq!(p.refiners, vec!["add_hint", "llm_rewrite"]);
        assert!(p.expected_tokens <= 60.0);
    }

    #[test]
    fn latency_budget_is_enforced() {
        let p = plan(
            &profiles(),
            &Budget {
                max_tokens: None,
                max_latency_us: Some(1_000_000.0),
            },
            0.0,
        );
        assert!(!p.refiners.contains(&"llm_rewrite".to_string()));
    }

    #[test]
    fn min_gain_threshold_raises_the_bar() {
        let p = plan(&profiles(), &Budget::default(), 0.11);
        assert_eq!(p.refiners, vec!["add_hint", "inject_example"]);
        assert_eq!(p.skipped_low_impact.len(), 2);
    }

    #[test]
    fn empty_profiles_yield_empty_plan() {
        let p = plan(&[], &Budget::default(), 0.0);
        assert!(p.refiners.is_empty());
        assert_eq!(p.expected_gain, 0.0);
    }

    #[test]
    fn from_stats_joins_mined_data() {
        let stats = RefinerStats {
            f_name: "auto_refine".into(),
            applications: 10,
            measured: 8,
            avg_confidence_before: Some(0.5),
            avg_confidence_after: Some(0.72),
            avg_gain: Some(0.22),
            by_mode: std::collections::BTreeMap::new(),
        };
        let p = RefinerProfile::from_stats(&stats, 20.0, 0.0);
        assert_eq!(p.name, "auto_refine");
        assert!((p.avg_gain - 0.22).abs() < 1e-12);
        assert!(p.density() > 0.0);
    }
}
