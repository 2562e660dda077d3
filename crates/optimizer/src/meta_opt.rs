//! Meta-optimization: replacing underperforming refiners (paper §4.4).
//!
//! "Meta prompts ... support automatic replacement of underperforming
//! refiners, such as substituting a generic rewriter with a more targeted
//! strategy like example injection." This module closes that loop: refiner
//! effectiveness mined from ref_logs (`spear_core::meta`) drives a rewrite
//! of pipelines, swapping each REF whose function's measured gain falls
//! below a threshold for the best-measured alternative from a substitution
//! table.

use serde::{Deserialize, Serialize};
use spear_core::meta::RefinerStats;
use spear_core::ops::Op;
use spear_core::pipeline::Pipeline;
use spear_core::value::Value;

/// A candidate replacement the meta-optimizer may substitute in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Substitute {
    /// Refiner name.
    pub refiner: String,
    /// Arguments to use with it.
    pub args: Value,
}

/// One applied substitution, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedSubstitution {
    /// Prompt key whose REF was rewritten.
    pub target: String,
    /// The replaced refiner.
    pub from: String,
    /// Its measured average gain (the reason it was replaced).
    pub from_gain: f64,
    /// The replacement refiner.
    pub to: String,
    /// The replacement's measured average gain.
    pub to_gain: f64,
}

/// Configuration for a meta-optimization pass.
#[derive(Debug, Clone)]
pub struct MetaOptConfig {
    /// Refiners with measured `avg_gain` below this are replacement
    /// candidates.
    pub underperformance_threshold: f64,
    /// Minimum measured applications before a refiner may be judged (or
    /// chosen) — guards against deciding on one noisy sample.
    pub min_measured: u64,
    /// The substitution pool to draw replacements from.
    pub pool: Vec<Substitute>,
}

impl Default for MetaOptConfig {
    fn default() -> Self {
        Self {
            underperformance_threshold: 0.0,
            min_measured: 2,
            pool: vec![
                Substitute {
                    refiner: "inject_example".to_string(),
                    args: spear_core::value::map([
                        ("input", Value::from("a representative input")),
                        ("output", Value::from("the expected output")),
                    ]),
                },
                Substitute {
                    refiner: "auto_refine".to_string(),
                    args: Value::Null,
                },
            ],
        }
    }
}

fn measured_gain(stats: &[RefinerStats], name: &str, min_measured: u64) -> Option<f64> {
    stats
        .iter()
        .find(|s| s.f_name == name && s.measured >= min_measured)
        .and_then(|s| s.avg_gain)
}

/// Pick the best-measured substitute that is not the refiner being
/// replaced.
fn best_substitute<'a>(
    stats: &[RefinerStats],
    config: &'a MetaOptConfig,
    exclude: &str,
) -> Option<(&'a Substitute, f64)> {
    config
        .pool
        .iter()
        .filter(|s| s.refiner != exclude)
        .filter_map(|s| measured_gain(stats, &s.refiner, config.min_measured).map(|g| (s, g)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
}

fn rewrite_ops(
    ops: &[Op],
    stats: &[RefinerStats],
    config: &MetaOptConfig,
    applied: &mut Vec<AppliedSubstitution>,
) -> Vec<Op> {
    ops.iter()
        .map(|op| match op {
            Op::Ref {
                target,
                action,
                refiner,
                args,
                mode,
            } => {
                let gain = measured_gain(stats, refiner, config.min_measured);
                match gain {
                    Some(g) if g < config.underperformance_threshold => {
                        if let Some((sub, sub_gain)) = best_substitute(stats, config, refiner) {
                            if sub_gain > g {
                                applied.push(AppliedSubstitution {
                                    target: target.clone(),
                                    from: refiner.clone(),
                                    from_gain: g,
                                    to: sub.refiner.clone(),
                                    to_gain: sub_gain,
                                });
                                return Op::Ref {
                                    target: target.clone(),
                                    action: *action,
                                    refiner: sub.refiner.clone(),
                                    args: sub.args.clone(),
                                    mode: *mode,
                                };
                            }
                        }
                        op.clone()
                    }
                    _ => Op::Ref {
                        target: target.clone(),
                        action: *action,
                        refiner: refiner.clone(),
                        args: args.clone(),
                        mode: *mode,
                    },
                }
            }
            Op::Check {
                cond,
                then_ops,
                else_ops,
            } => Op::Check {
                cond: cond.clone(),
                then_ops: rewrite_ops(then_ops, stats, config, applied),
                else_ops: rewrite_ops(else_ops, stats, config, applied),
            },
            other => other.clone(),
        })
        .collect()
}

/// Rewrite `pipeline`, substituting underperforming refiners. Returns the
/// (possibly identical) pipeline and the substitutions applied.
#[must_use]
pub fn replace_underperformers(
    pipeline: &Pipeline,
    stats: &[RefinerStats],
    config: &MetaOptConfig,
) -> (Pipeline, Vec<AppliedSubstitution>) {
    let mut applied = Vec::new();
    let ops = rewrite_ops(&pipeline.ops, stats, config, &mut applied);
    (
        Pipeline {
            name: pipeline.name.clone(),
            ops,
        },
        applied,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spear_core::condition::Cond;
    use spear_core::history::{RefAction, RefinementMode};
    use spear_core::pipeline::Pipeline;
    use std::collections::BTreeMap;

    fn stats(entries: &[(&str, u64, Option<f64>)]) -> Vec<RefinerStats> {
        entries
            .iter()
            .map(|(name, measured, gain)| RefinerStats {
                f_name: (*name).to_string(),
                applications: *measured,
                measured: *measured,
                avg_confidence_before: Some(0.5),
                avg_confidence_after: gain.map(|g| 0.5 + g),
                avg_gain: *gain,
                by_mode: BTreeMap::new(),
            })
            .collect()
    }

    fn pool() -> MetaOptConfig {
        MetaOptConfig {
            underperformance_threshold: 0.0,
            min_measured: 2,
            pool: vec![
                Substitute {
                    refiner: "inject_example".into(),
                    args: Value::Null,
                },
                Substitute {
                    refiner: "auto_refine".into(),
                    args: Value::Null,
                },
            ],
        }
    }

    fn pipeline_using(refiner: &str) -> Pipeline {
        Pipeline::builder("p")
            .create_text("prompt", "base", RefinementMode::Manual)
            .refine(
                "prompt",
                RefAction::Update,
                refiner,
                Value::Null,
                RefinementMode::Auto,
            )
            .check(Cond::low_confidence(0.7), |b| {
                b.refine(
                    "prompt",
                    RefAction::Update,
                    refiner,
                    Value::Null,
                    RefinementMode::Auto,
                )
            })
            .build()
    }

    #[test]
    fn replaces_the_papers_generic_rewriter_example() {
        // §4.4's example: a generic rewriter is replaced by example
        // injection once the logs show it hurts.
        let stats = stats(&[
            ("generic_rewriter", 5, Some(-0.05)),
            ("inject_example", 5, Some(0.15)),
            ("auto_refine", 5, Some(0.10)),
        ]);
        let (rewritten, applied) =
            replace_underperformers(&pipeline_using("generic_rewriter"), &stats, &pool());
        assert_eq!(applied.len(), 2, "both REFs (incl. nested) rewritten");
        assert!(applied.iter().all(|a| a.from == "generic_rewriter"));
        assert!(
            applied.iter().all(|a| a.to == "inject_example"),
            "best substitute wins"
        );
        // The rewritten pipeline contains no generic_rewriter anymore.
        let text = format!("{rewritten:?}");
        assert!(!text.contains("generic_rewriter"));
    }

    #[test]
    fn performing_refiners_are_left_alone() {
        let stats = stats(&[
            ("auto_refine", 5, Some(0.12)),
            ("inject_example", 5, Some(0.15)),
        ]);
        let original = pipeline_using("auto_refine");
        let (rewritten, applied) = replace_underperformers(&original, &stats, &pool());
        assert!(applied.is_empty());
        assert_eq!(rewritten.ops, original.ops);
    }

    #[test]
    fn unmeasured_refiners_are_never_judged() {
        // One noisy sample is not evidence.
        let stats = stats(&[
            ("fresh_refiner", 1, Some(-0.5)),
            ("inject_example", 5, Some(0.15)),
        ]);
        let (_, applied) =
            replace_underperformers(&pipeline_using("fresh_refiner"), &stats, &pool());
        assert!(applied.is_empty(), "min_measured guards against noise");
    }

    #[test]
    fn no_substitution_when_pool_is_worse() {
        let stats = stats(&[
            ("mediocre", 5, Some(-0.01)),
            ("inject_example", 5, Some(-0.10)),
            ("auto_refine", 5, Some(-0.20)),
        ]);
        let (_, applied) = replace_underperformers(&pipeline_using("mediocre"), &stats, &pool());
        assert!(applied.is_empty(), "never swap for something worse");
    }

    #[test]
    fn substitution_report_carries_evidence() {
        let stats = stats(&[("bad", 5, Some(-0.08)), ("inject_example", 5, Some(0.2))]);
        let (_, applied) = replace_underperformers(&pipeline_using("bad"), &stats, &pool());
        let a = &applied[0];
        assert_eq!(a.target, "prompt");
        assert!((a.from_gain + 0.08).abs() < 1e-12);
        assert!((a.to_gain - 0.2).abs() < 1e-12);
    }
}
