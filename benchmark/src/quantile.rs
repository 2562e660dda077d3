//! Exact quantiles. Every `virt_p*` and `serve.queue.wait_p*` number comes
//! from here, never from `spear_serve::Histogram`, whose quantiles are
//! power-of-two bucket ceilings.

/// Nearest-rank quantile of `sorted` (ascending, non-empty): the smallest
/// sample with at least `q` of the samples at or below it.
pub fn of_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank quantile of unsorted `u64` samples (sorts a copy).
pub fn of_u64(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    of_sorted(&sorted, q)
}

/// `(q1, median, q3)` of `f64` samples, for host-time spreads. The median of
/// an even count is the mean of the two middle samples; quartiles are
/// nearest-rank.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    (of_sorted(&sorted, 0.25), median, of_sorted(&sorted, 0.75))
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use spear_serve::Histogram;

    /// The oracle: count samples at or below each candidate.
    fn oracle(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let need = (q * samples.len() as f64).ceil().max(1.0) as usize;
        *sorted
            .iter()
            .find(|&&v| samples.iter().filter(|&&s| s <= v).count() >= need)
            .unwrap()
    }

    #[test]
    fn matches_the_sorted_vector_oracle() {
        let mut rng = Rng::new(7, 0);
        for len in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let samples: Vec<u64> = (0..len).map(|_| rng.next_u64() % 5000).collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                assert_eq!(of_u64(&samples, q), oracle(&samples, q), "len {len} q {q}");
            }
        }
    }

    #[test]
    fn p99_leaves_one_percent_beyond_it() {
        let samples: Vec<u64> = (1..=8192).collect();
        let p99 = of_u64(&samples, 0.99);
        assert_eq!(p99, 8111);
        assert!(samples.iter().filter(|&&s| s > p99).count() >= 20);
    }

    /// ROADMAP item 5c: `Histogram::quantile` reports bucket ceilings
    /// (`2^k - 1`, clamped to the maximum), so on latencies spread inside one
    /// power-of-two bucket it cannot tell p50 from p99.
    #[test]
    fn disagrees_with_histogram_bucket_ceilings() {
        let samples: Vec<u64> = (0..1000).map(|i| 70_000 + i * 50).collect(); // 70..120 ms, in µs
        let mut histogram = Histogram::new();
        for &s in &samples {
            histogram.record(s);
        }
        let (h50, h99) = (
            histogram.quantile(0.5).unwrap(),
            histogram.quantile(0.99).unwrap(),
        );
        let (e50, e99) = (of_u64(&samples, 0.5), of_u64(&samples, 0.99));
        assert_eq!((e50, e99), (94_950, 119_450));
        // All samples share bucket [2^16, 2^17): its ceiling, clamped to the
        // largest sample, is reported for every quantile.
        assert_eq!(h50, histogram.max());
        assert_eq!(h99, histogram.max());
        assert!(h50 > e50 + 20_000, "histogram p50 {h50} vs exact {e50}");
        assert_ne!(h99, e99);
    }

    #[test]
    fn quartiles_of_small_samples() {
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.0, 2.5, 3.0));
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }
}
