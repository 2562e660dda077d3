//! Meta prompts: querying and analysing prompt histories (paper §4.4).
//!
//! "Because SPEAR treats prompt histories as first-class data, it can
//! support meta-level reasoning in that pipelines can query, analyze, and
//! revise their own prompt logic." This module mines ref_logs across a
//! prompt store to answer the paper's example questions — which refiners
//! consistently raise confidence, which are underperforming and should be
//! replaced — and renders an entry's evolution as a textual *meta prompt*
//! suitable for feeding back into an LLM.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::history::{RefAction, RefinementMode};
use crate::prompt::PromptEntry;
use crate::store::PromptStore;
use crate::value::Value;

/// Aggregated effectiveness statistics for one refinement function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefinerStats {
    /// Refiner (function) name.
    pub f_name: String,
    /// Number of applications observed.
    pub applications: u64,
    /// Applications for which a confidence-after was observable.
    pub measured: u64,
    /// Mean confidence at application time (before the refinement's effect).
    pub avg_confidence_before: Option<f64>,
    /// Mean confidence at the *next* record on the same entry — the first
    /// observation after the refinement took effect.
    pub avg_confidence_after: Option<f64>,
    /// Mean confidence gain (`after - before`) over measured applications.
    pub avg_gain: Option<f64>,
    /// How often each mode applied this refiner.
    pub by_mode: BTreeMap<String, u64>,
}

impl RefinerStats {
    fn finalize(f_name: String, samples: &RefinerSamples) -> Self {
        let mean = |v: &[f64]| {
            if v.is_empty() {
                None
            } else {
                Some(v.iter().sum::<f64>() / v.len() as f64)
            }
        };
        let gains: Vec<f64> = samples.before_after.iter().map(|(b, a)| a - b).collect();
        let befores: Vec<f64> = samples.before_after.iter().map(|(b, _)| *b).collect();
        let afters: Vec<f64> = samples.before_after.iter().map(|(_, a)| *a).collect();
        Self {
            f_name,
            applications: samples.applications,
            measured: samples.before_after.len() as u64,
            avg_confidence_before: mean(&befores),
            avg_confidence_after: mean(&afters),
            avg_gain: mean(&gains),
            by_mode: samples.by_mode.clone(),
        }
    }
}

#[derive(Default)]
struct RefinerSamples {
    applications: u64,
    before_after: Vec<(f64, f64)>,
    by_mode: BTreeMap<String, u64>,
}

/// Mine refiner statistics from every entry in the store.
///
/// For each non-CREATE record, `confidence_before` is the confidence signal
/// snapshotted in that record; `confidence_after` is the confidence in the
/// *following* record of the same entry (the first post-refinement
/// observation). Records with no successor contribute to `applications`
/// but not to the gain estimate.
#[must_use]
pub fn analyze_refiners(store: &PromptStore) -> Vec<RefinerStats> {
    let mut samples: BTreeMap<String, RefinerSamples> = BTreeMap::new();
    for key in store.keys() {
        let Some(entry) = store.try_get(&key) else {
            continue;
        };
        for (idx, rec) in entry.ref_log.iter().enumerate() {
            if rec.action == RefAction::Create {
                continue;
            }
            let s = samples.entry(rec.f_name.clone()).or_default();
            s.applications += 1;
            *s.by_mode.entry(rec.mode.to_string()).or_default() += 1;
            let before = rec.signals.get("confidence").and_then(Value::as_f64);
            let after = entry
                .ref_log
                .get(idx + 1)
                .and_then(|next| next.signals.get("confidence"))
                .and_then(Value::as_f64);
            if let (Some(b), Some(a)) = (before, after) {
                s.before_after.push((b, a));
            }
        }
    }
    let mut out: Vec<RefinerStats> = samples
        .into_iter()
        .map(|(name, s)| RefinerStats::finalize(name, &s))
        .collect();
    // Best average gain first; unmeasured refiners sink to the end.
    out.sort_by(|a, b| {
        b.avg_gain
            .unwrap_or(f64::NEG_INFINITY)
            .partial_cmp(&a.avg_gain.unwrap_or(f64::NEG_INFINITY))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.f_name.cmp(&b.f_name))
    });
    out
}

/// Refiners whose measured average gain falls below `threshold` — candidates
/// for "automatic replacement of underperforming refiners" (paper §4.4).
#[must_use]
pub fn underperformers(stats: &[RefinerStats], threshold: f64) -> Vec<&RefinerStats> {
    stats
        .iter()
        .filter(|s| s.avg_gain.is_some_and(|g| g < threshold))
        .collect()
}

/// Recommend the best measured refiner, if any has a positive average gain.
#[must_use]
pub fn recommend(stats: &[RefinerStats]) -> Option<&RefinerStats> {
    stats
        .iter()
        .filter(|s| s.avg_gain.is_some_and(|g| g > 0.0))
        .max_by(|a, b| {
            a.avg_gain
                .unwrap_or(0.0)
                .partial_cmp(&b.avg_gain.unwrap_or(0.0))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
}

/// Render an entry's evolution as a textual meta prompt — the paper's
/// "visualize how a prompt evolved over the course of fallback or retry
/// chains" — formatted so it can be fed to an LLM for meta-reasoning.
#[must_use]
pub fn meta_prompt_for(key: &str, entry: &PromptEntry) -> String {
    let mut out = format!(
        "Prompt {key:?} evolution ({} versions, origin: {:?}):\n",
        entry.version, entry.origin
    );
    for rec in &entry.ref_log {
        out.push_str("  - ");
        out.push_str(&rec.summary());
        if let Some(conf) = rec.signals.get("confidence").and_then(Value::as_f64) {
            out.push_str(&format!(" [confidence={conf:.2}]"));
        }
        if let Some(note) = &rec.note {
            out.push_str(&format!(" note: {note}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("Current text:\n{}\n", entry.text));
    out.push_str(
        "Question: which refinements improved the outcome, and what should \
         be applied next?",
    );
    out
}

/// Counts of refinement applications by mode across the whole store — a
/// quick view of how automated a pipeline's prompt management has become.
#[must_use]
pub fn mode_distribution(store: &PromptStore) -> BTreeMap<RefinementMode, u64> {
    let mut out = BTreeMap::new();
    for key in store.keys() {
        if let Some(entry) = store.try_get(&key) {
            for rec in &entry.ref_log {
                *out.entry(rec.mode).or_default() += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;

    /// Build a store where `good_refiner` raises confidence by +0.3 and
    /// `bad_refiner` lowers it by 0.1 across several entries.
    fn mined_store() -> PromptStore {
        let mut store = PromptStore::new();
        for i in 0..3 {
            let key = format!("p{i}");
            store.define(&key, "base", "f_base", RefinementMode::Manual);
            let mut signals = Map::new();
            signals.insert("confidence".to_string(), Value::from(0.5));
            store
                .refine(
                    &key,
                    "base + good".into(),
                    RefAction::Update,
                    "good_refiner",
                    RefinementMode::Auto,
                    1,
                    None,
                    signals,
                    None,
                )
                .unwrap();
            let mut signals = Map::new();
            signals.insert("confidence".to_string(), Value::from(0.8));
            store
                .refine(
                    &key,
                    "base + good + bad".into(),
                    RefAction::Update,
                    "bad_refiner",
                    RefinementMode::Auto,
                    2,
                    None,
                    signals,
                    None,
                )
                .unwrap();
            let mut signals = Map::new();
            signals.insert("confidence".to_string(), Value::from(0.7));
            store
                .refine(
                    &key,
                    "final".into(),
                    RefAction::Update,
                    "closer",
                    RefinementMode::Manual,
                    3,
                    None,
                    signals,
                    None,
                )
                .unwrap();
        }
        store
    }

    #[test]
    fn analyze_computes_gains_per_refiner() {
        let stats = analyze_refiners(&mined_store());
        let good = stats.iter().find(|s| s.f_name == "good_refiner").unwrap();
        let bad = stats.iter().find(|s| s.f_name == "bad_refiner").unwrap();
        assert_eq!(good.applications, 3);
        assert!((good.avg_gain.unwrap() - 0.3).abs() < 1e-9);
        assert!((bad.avg_gain.unwrap() + 0.1).abs() < 1e-9);
        // Sorted best-first.
        assert_eq!(stats[0].f_name, "good_refiner");
    }

    #[test]
    fn trailing_records_count_but_are_unmeasured() {
        let stats = analyze_refiners(&mined_store());
        let closer = stats.iter().find(|s| s.f_name == "closer").unwrap();
        assert_eq!(closer.applications, 3);
        assert_eq!(closer.measured, 0);
        assert!(closer.avg_gain.is_none());
    }

    #[test]
    fn underperformers_and_recommendation() {
        let stats = analyze_refiners(&mined_store());
        let bad: Vec<&str> = underperformers(&stats, 0.0)
            .iter()
            .map(|s| s.f_name.as_str())
            .collect();
        assert_eq!(bad, vec!["bad_refiner"]);
        assert_eq!(recommend(&stats).unwrap().f_name, "good_refiner");
    }

    #[test]
    fn recommend_none_when_nothing_measured_positive() {
        let mut store = PromptStore::new();
        store.define("p", "x", "f", RefinementMode::Manual);
        let stats = analyze_refiners(&store);
        assert!(recommend(&stats).is_none());
    }

    #[test]
    fn meta_prompt_includes_history_and_question() {
        let store = mined_store();
        let entry = store.get("p0").unwrap();
        let mp = meta_prompt_for("p0", &entry);
        assert!(mp.contains("good_refiner"));
        assert!(mp.contains("confidence=0.50"));
        assert!(mp.contains("Current text"));
        assert!(mp.ends_with("applied next?"));
    }

    #[test]
    fn mode_distribution_counts_all_records() {
        let dist = mode_distribution(&mined_store());
        assert_eq!(dist[&RefinementMode::Manual], 6, "3 creates + 3 closers");
        assert_eq!(dist[&RefinementMode::Auto], 6);
    }
}
