//! Virtual time.
//!
//! The simulator charges latency to a [`SimClock`] instead of sleeping:
//! benchmark "Time (s)" columns are then deterministic functions of token
//! counts and cache behaviour, reproducible on any machine — which is the
//! point of reproducing the paper's *shape* rather than its wall clock.
//!
//! ## Worker lanes
//!
//! Under concurrent batch execution each job charges time to its worker
//! **lane** (selected by [`spear_core::scope::lane`]), so two
//! orthogonal quantities stay observable:
//!
//! - [`SimClock::elapsed`] — the sum over lanes: total engine busy time,
//!   identical to the single-threaded meaning (all work lands in lane 0
//!   outside a batch scope);
//! - [`SimClock::max_lane_elapsed`] — the busiest lane: the simulated
//!   *makespan* of a parallel run, i.e. the wall-clock a deployment with
//!   one engine replica per worker would observe.
//!
//! Because the batch executor assigns jobs to lanes statically, both
//! quantities are deterministic for a fixed workload and worker count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Maximum number of independent lanes; lane ids wrap modulo this. 64 is
/// far above any realistic worker-pool size and keeps the clock allocation
/// fixed-size.
pub const MAX_LANES: usize = 64;

/// A monotonically advancing virtual clock (microsecond resolution) with
/// per-worker lanes.
#[derive(Debug)]
pub struct SimClock {
    lanes: Vec<AtomicU64>,
}

impl Default for SimClock {
    fn default() -> Self {
        Self {
            lanes: (0..MAX_LANES).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl SimClock {
    /// A clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lane_slot(&self) -> &AtomicU64 {
        &self.lanes[spear_core::scope::lane() % MAX_LANES]
    }

    /// Advance the current thread's lane by `d`.
    pub fn advance(&self, d: Duration) {
        self.lane_slot().fetch_add(
            u64::try_from(d.as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// Total virtual time elapsed, summed across all lanes (aggregate
    /// engine busy time).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(
            self.lanes
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .fold(0u64, u64::saturating_add),
        )
    }

    /// Virtual time charged to one lane.
    #[must_use]
    pub fn lane_elapsed(&self, lane: usize) -> Duration {
        Duration::from_micros(self.lanes[lane % MAX_LANES].load(Ordering::Relaxed))
    }

    /// The busiest lane's time: the simulated makespan of a parallel run.
    #[must_use]
    pub fn max_lane_elapsed(&self) -> Duration {
        Duration::from_micros(
            self.lanes
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        )
    }

    /// Reset every lane to zero (between benchmark configurations).
    pub fn reset(&self) {
        for lane in &self.lanes {
            lane.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_resets() {
        let c = SimClock::new();
        assert_eq!(c.elapsed(), Duration::ZERO);
        c.advance(Duration::from_millis(3));
        c.advance(Duration::from_micros(500));
        assert_eq!(c.elapsed(), Duration::from_micros(3_500));
        c.reset();
        assert_eq!(c.elapsed(), Duration::ZERO);
    }

    #[test]
    fn concurrent_advances_accumulate() {
        let c = std::sync::Arc::new(SimClock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(Duration::from_micros(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.elapsed(), Duration::from_micros(4000));
    }

    #[test]
    fn lanes_split_by_scope_and_merge_in_elapsed() {
        let c = SimClock::new();
        c.advance(Duration::from_micros(100)); // lane 0 (ambient)
        {
            let _s = spear_core::scope::enter(1, 3);
            c.advance(Duration::from_micros(250));
        }
        {
            let _s = spear_core::scope::enter(2, 5);
            c.advance(Duration::from_micros(50));
        }
        assert_eq!(c.lane_elapsed(0), Duration::from_micros(100));
        assert_eq!(c.lane_elapsed(3), Duration::from_micros(250));
        assert_eq!(c.lane_elapsed(5), Duration::from_micros(50));
        assert_eq!(c.elapsed(), Duration::from_micros(400));
        assert_eq!(c.max_lane_elapsed(), Duration::from_micros(250));
        c.reset();
        assert_eq!(c.max_lane_elapsed(), Duration::ZERO);
    }

    #[test]
    fn lane_ids_wrap() {
        let c = SimClock::new();
        let _s = spear_core::scope::enter(1, MAX_LANES + 2);
        c.advance(Duration::from_micros(9));
        assert_eq!(c.lane_elapsed(2), Duration::from_micros(9));
    }
}
