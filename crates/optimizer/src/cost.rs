//! The cost model: calibrated per-token/per-call latency estimation.
//!
//! SPEAR's optimizer decisions (fusion, refinement planning, view
//! selection) need latency estimates before running anything. The model is
//! linear in the same four components the serving stack exposes —
//! per-request overhead, uncached prefill, cached prefill, decode — and is
//! **calibrated online** from observed `(usage, latency)` pairs by ordinary
//! least squares, so it tracks whatever backend is actually attached.

use std::time::Duration;

use spear_core::metadata::TokenUsage;

/// One calibration observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostObservation {
    /// Token usage of the call.
    pub usage: TokenUsage,
    /// Observed latency.
    pub latency: Duration,
}

/// A linear latency model: `overhead + a·uncached + b·cached + c·decode`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-call overhead, µs.
    pub overhead_us: f64,
    /// Per uncached prompt token, µs.
    pub prefill_us: f64,
    /// Per cached prompt token, µs.
    pub cached_us: f64,
    /// Per decoded token, µs.
    pub decode_us: f64,
}

impl Default for CostModel {
    /// Uncalibrated defaults in the ballpark of a 7B model on one GPU.
    fn default() -> Self {
        Self {
            overhead_us: 50_000.0,
            prefill_us: 1_000.0,
            cached_us: 20.0,
            decode_us: 25_000.0,
        }
    }
}

impl CostModel {
    /// Estimated latency for one call.
    #[must_use]
    pub fn estimate_call(&self, uncached: f64, cached: f64, decode: f64) -> Duration {
        let us = self.overhead_us
            + uncached * self.prefill_us
            + cached * self.cached_us
            + decode * self.decode_us;
        Duration::from_micros(us.max(0.0) as u64)
    }

    /// Fit the model by least squares over `observations`. Requires at
    /// least 4 observations with linearly independent feature rows; returns
    /// `None` otherwise (caller keeps its previous/default model).
    #[must_use]
    pub fn fit(observations: &[CostObservation]) -> Option<Self> {
        if observations.len() < 4 {
            return None;
        }
        // Normal equations for X^T X w = X^T y with features
        // [1, uncached, cached, decode].
        let mut xtx = [[0.0f64; 4]; 4];
        let mut xty = [0.0f64; 4];
        for obs in observations {
            let u = (obs.usage.prompt_tokens - obs.usage.cached_tokens) as f64;
            let c = obs.usage.cached_tokens as f64;
            let d = obs.usage.completion_tokens as f64;
            let x = [1.0, u, c, d];
            let y = obs.latency.as_micros() as f64;
            for i in 0..4 {
                for j in 0..4 {
                    xtx[i][j] += x[i] * x[j];
                }
                xty[i] += x[i] * y;
            }
        }
        // Tiny ridge term keeps the solve stable when a feature never
        // varies (e.g. no cached tokens observed yet).
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += 1e-6;
        }
        let w = solve4(xtx, xty)?;
        Some(Self {
            overhead_us: w[0].max(0.0),
            prefill_us: w[1].max(0.0),
            cached_us: w[2].max(0.0),
            decode_us: w[3].max(0.0),
        })
    }
}

/// `x` clamped into `[0, 1]`, NaN read as 0: for the probabilities and
/// fractions callers supply as estimates.
pub(crate) fn unit(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, 1.0)
    }
}

/// `s` seconds as a [`Duration`], without the panics of
/// `Duration::from_secs_f64`: negative and NaN read as zero, and what
/// overflows saturates at `Duration::MAX`.
pub(crate) fn secs(s: f64) -> Duration {
    if s > 0.0 {
        Duration::try_from_secs_f64(s).unwrap_or(Duration::MAX)
    } else {
        Duration::ZERO
    }
}

/// Solve a 4×4 linear system by Gaussian elimination with partial pivoting.
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        // Pivot.
        let pivot = (col..4).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate.
        for row in 0..4 {
            if row == col {
                continue;
            }
            let factor = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (k, pivot_val) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= factor * pivot_val;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0; 4];
    for (i, xi) in x.iter_mut().enumerate() {
        *xi = b[i] / a[i][i];
    }
    Some(x)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Any `f64` a caller could pass as an estimate: the shim's finite
    /// draws plus the non-finite and out-of-range edges.
    pub(crate) fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<f64>(),
            -2.0f64..2.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MAX),
            Just(f64::MIN),
        ]
    }

    fn synth(overhead: f64, prefill: f64, cached: f64, decode: f64) -> Vec<CostObservation> {
        let mut out = Vec::new();
        for (u, c, d) in [
            (100u64, 0u64, 50u64),
            (400, 0, 90),
            (50, 800, 90),
            (30, 600, 40),
            (800, 100, 10),
            (10, 10, 200),
            (250, 250, 60),
        ] {
            let us = overhead + u as f64 * prefill + c as f64 * cached + d as f64 * decode;
            out.push(CostObservation {
                usage: TokenUsage {
                    prompt_tokens: u + c,
                    cached_tokens: c,
                    completion_tokens: d,
                },
                latency: Duration::from_micros(us as u64),
            });
        }
        out
    }

    #[test]
    fn fit_recovers_known_coefficients() {
        let obs = synth(50_000.0, 1_000.0, 20.0, 25_000.0);
        let m = CostModel::fit(&obs).unwrap();
        assert!((m.overhead_us - 50_000.0).abs() < 50.0, "{m:?}");
        assert!((m.prefill_us - 1_000.0).abs() < 5.0);
        assert!((m.cached_us - 20.0).abs() < 5.0);
        assert!((m.decode_us - 25_000.0).abs() < 50.0);
    }

    #[test]
    fn estimate_matches_linear_form() {
        let m = CostModel::default();
        let est = m.estimate_call(100.0, 200.0, 50.0);
        let expect = 50_000.0 + 100.0 * 1_000.0 + 200.0 * 20.0 + 50.0 * 25_000.0;
        assert_eq!(est, Duration::from_micros(expect as u64));
    }

    #[test]
    fn too_few_observations_returns_none() {
        let obs = synth(1.0, 1.0, 1.0, 1.0);
        assert!(CostModel::fit(&obs[..3]).is_none());
    }

    #[test]
    fn degenerate_feature_matrix_is_handled() {
        // All-identical observations: ridge keeps the solve finite; the fit
        // may fold costs into the intercept but must not return garbage
        // (negative coefficients are clamped).
        let one = CostObservation {
            usage: TokenUsage {
                prompt_tokens: 100,
                cached_tokens: 0,
                completion_tokens: 10,
            },
            latency: Duration::from_micros(500_000),
        };
        let obs = vec![one; 6];
        if let Some(m) = CostModel::fit(&obs) {
            let est = m.estimate_call(100.0, 0.0, 10.0);
            assert!(
                (est.as_micros() as i64 - 500_000).abs() < 5_000,
                "fit must still explain the data: {est:?}"
            );
        }
    }

    #[test]
    fn fit_from_simulated_engine_tracks_profile() {
        use spear_core::llm::{GenRequest, LlmClient};
        use spear_llm::{ModelProfile, SimLlm};
        let llm = SimLlm::new(ModelProfile::qwen25_7b_instruct());
        let mut obs = Vec::new();
        for i in 0..12 {
            let filler = "context sentence to vary prompt length. ".repeat(i * 3 + 1);
            let req = GenRequest::structured(
                format!("Classify the sentiment.\n{filler}\nTweet: sample {i}"),
                format!("view:x@1#{i}/v1"),
            );
            let resp = llm.generate(&req).unwrap();
            obs.push(CostObservation {
                usage: resp.usage,
                latency: resp.latency,
            });
        }
        let m = CostModel::fit(&obs).unwrap();
        // Prefill dominates variation here; the fitted rate should be near
        // the profile's 1000 µs/token.
        assert!((m.prefill_us - 1_000.0).abs() < 150.0, "{m:?}");
    }
}
