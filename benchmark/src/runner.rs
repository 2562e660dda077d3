//! One run of one workload: set-up cycles, timed passes, output checks and
//! the knee search for the end-to-end metrics; or one traced pass plus
//! replays for the per-layer metrics.

use std::time::{Duration, Instant};

use crate::calibration::{Ladder, MIN_TIMED_PASSES, RUNGS, SETUP_CYCLES};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::quantile;
use crate::spans::Span;
use crate::workloads::batch::Batch;
use crate::workloads::cluster::ClusterZipf;
use crate::workloads::compile::CompileCold;
use crate::workloads::serve::Serve;
use crate::workloads::{Lanes, Pass, Workload, MISSED};

pub const WORKLOADS: [&str; 5] = [
    "batch_adaptive",
    "serve_steady",
    "serve_pressure",
    "cluster_zipf",
    "compile_cold",
];

/// Generate the workload's input from `seed` and compile what it runs.
pub fn prepare(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "batch_adaptive" => Box::new(Batch::prepare(seed)?),
        "serve_steady" => Box::new(Serve::steady(seed)?),
        "serve_pressure" => Box::new(Serve::pressure(seed)?),
        "cluster_zipf" => Box::new(ClusterZipf::prepare(seed)?),
        "compile_cold" => Box::new(CompileCold::prepare(seed)?),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    })
}

/// Result of an untraced run.
pub struct EndToEnd {
    pub metrics: Metrics,
    /// Operations over all timed passes, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Operations per pass and timed passes made.
    pub n: usize,
    pub passes: usize,
    /// Hash of the generated input, and the exact median latency (virtual
    /// ms), for the report.
    pub input_hash: u64,
    pub virt_p50_ms: f64,
    /// Per-pass (or per-cycle) samples behind the host-time metrics, for
    /// quartiles.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

/// How hard a pass pressed against its latency limit: the larger of the p99
/// over the whole run and over the last quarter of arrivals (a growing
/// backlog shows there first), as a multiple of the limit. Infinite when
/// more than 1 % of requests failed; a failed request misses the limit.
pub fn severity(pass: &Pass, ladder: &Ladder) -> f64 {
    let tail = &pass.latency_us[pass.latency_us.len() * 3 / 4..];
    let p99 = quantile::of_u64(&pass.latency_us, 0.99).max(quantile::of_u64(tail, 0.99));
    if p99 == MISSED || pass.failed as f64 > 0.01 * pass.attempted as f64 {
        f64::INFINITY
    } else {
        p99 as f64 / ladder.p99_limit_us as f64
    }
}

/// `virt_knee_rps`: the highest offered rate the workload sustains. The
/// highest sustained rung is found by bisection from the operating rung's
/// known result (severity rises with the offered rate; one pass per probe,
/// since virtual metrics repeat exactly); between it and the first rung that
/// fails, the rate at which severity crosses 1 is interpolated on log axes,
/// so the metric moves before a whole rung is lost.
fn knee_rps(workload: &dyn Workload, ladder: &Ladder, operating: &Pass) -> Result<f64, String> {
    let mut probed = [None; RUNGS];
    let at_operating = severity(operating, ladder);
    probed[ladder.operating_rung] = Some(at_operating);
    // Rungs below `sustains` are known to sustain, rungs from `fails` up to
    // fail.
    let (mut sustains, mut fails) = if at_operating <= 1.0 {
        (ladder.operating_rung + 1, RUNGS)
    } else {
        (0, ladder.operating_rung)
    };
    while fails > sustains {
        let rung = (sustains + fails) / 2;
        let s = severity(&workload.pass(Lanes::Standard, Some(rung))?, ladder);
        probed[rung] = Some(s);
        if s <= 1.0 {
            sustains = rung + 1;
        } else {
            fails = rung;
        }
    }
    Ok(match (sustains.checked_sub(1), fails) {
        // Below the ladder: one step under its slowest rung.
        (None, _) => ladder.rate_rps(0) / 1.2,
        (Some(top), RUNGS) => ladder.rate_rps(top),
        (Some(last), first_failing) => {
            let (lo, hi) = (
                probed[last].expect("bisection probed the bracketing rungs"),
                probed[first_failing].expect("bisection probed the bracketing rungs"),
            );
            let step = if hi.is_finite() && lo > 0.0 {
                ((1.0 / lo).ln() / (hi / lo).ln()).clamp(0.0, 1.0)
            } else {
                0.0
            };
            ladder.rate_rps(last) * 1.2f64.powf(step)
        }
    })
}

fn same_virtual_results(a: &Pass, b: &Pass) -> bool {
    a.outcomes == b.outcomes
        && a.makespan_us == b.makespan_us
        && a.latency_us == b.latency_us
        && a.failed == b.failed
}

pub fn end_to_end(name: &str, seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    // Set-up, several times over: input generation, DL compilation, and one
    // discarded warm-up pass on a fresh engine and runtime.
    let mut setup_s = Vec::with_capacity(SETUP_CYCLES);
    let mut prepared = None;
    for _ in 0..SETUP_CYCLES {
        let start = Instant::now();
        let workload = prepare(name, seed)?;
        let warmup = workload.pass(Lanes::Standard, None)?;
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some((workload, warmup));
    }
    let (workload, warmup) = prepared.expect("at least one set-up cycle");
    let workload = workload.as_ref();

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_TIMED_PASSES || start.elapsed() < budget {
        passes.push(workload.pass(Lanes::Standard, None)?);
    }

    // Output checks. Per-pass ledgers were checked inside each pass.
    for pass in &passes {
        if !same_virtual_results(pass, &warmup) {
            return Err("virtual results differ between passes over the same input".into());
        }
    }
    let other_lanes = workload.pass(Lanes::Alternate, None)?;
    let mismatches = warmup.digest_mismatches(&other_lanes);
    if mismatches > 0 || other_lanes.completed() * 2 < warmup.completed() {
        return Err(format!(
            "{mismatches} trace digests depend on the lane count ({} of {} operations completed \
             at the other count)",
            other_lanes.completed(),
            warmup.completed()
        ));
    }
    workload.reference_check(&warmup)?;

    let n = workload.n();
    let knee_rps = match workload.ladder() {
        Some(ladder) => knee_rps(workload, ladder, &warmup)?,
        // Closed loop: no arrival schedule, so the sustainable rate is the
        // completion rate.
        None => n as f64 / (warmup.makespan_us as f64 / 1e6),
    };

    let req_per_s: Vec<f64> = passes.iter().map(|p| n as f64 / p.host.wall_s).collect();
    let peak_mb = passes.iter().map(|p| p.host.peak_bytes).max().unwrap_or(0) as f64 / 1e6;
    let mut metrics = Metrics::zeroed(END_TO_END);
    metrics.set("setup_s", quantile::median(&setup_s));
    metrics.set("host_req_per_s", quantile::median(&req_per_s));
    metrics.set("peak_heap_mb", peak_mb);
    metrics.set("virt_makespan_s", warmup.makespan_us as f64 / 1e6);
    // The virtual clock is discrete (token-count arithmetic), so an exact
    // median sits on one heavily populated value whatever the seed; the mean
    // is the central measure that moves.
    let total_us: f64 = warmup.latency_us.iter().map(|&us| us as f64).sum();
    metrics.set("virt_mean_ms", total_us / n as f64 / 1e3);
    metrics.set(
        "virt_p99_ms",
        quantile::of_u64(&warmup.latency_us, 0.99) as f64 / 1e3,
    );
    metrics.set("virt_knee_rps", knee_rps);
    metrics.set("task_f1", warmup.quality);
    Ok(EndToEnd {
        metrics,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        n,
        passes: passes.len(),
        input_hash: workload.input_hash(),
        virt_p50_ms: quantile::of_u64(&warmup.latency_us, 0.5) as f64 / 1e3,
        samples: vec![("setup_s", setup_s), ("host_req_per_s", req_per_s)],
    })
}

/// Result of a traced run.
pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

pub fn traced(name: &str, seed: u64) -> Result<Traced, String> {
    let workload = prepare(name, seed)?;
    // A discarded warm-up, then the untraced pass the traced one is compared
    // with.
    workload.pass(Lanes::Standard, None)?;
    let untraced = workload.pass(Lanes::Standard, None)?;
    let mut metrics = Metrics::zeroed(PER_LAYER);
    let spans = workload.trace(&untraced, &mut metrics)?;
    Ok(Traced {
        metrics,
        attempted: untraced.attempted,
        failed: untraced.failed,
        spans,
    })
}

/// One rung of a ladder as `calibrate` prints it.
pub struct Rung {
    pub rate_rps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// p99 over the last quarter of arrivals.
    pub tail_p99_ms: f64,
    pub failed_share: f64,
    pub severity: f64,
}

/// Every rung of a workload's ladder, one pass each.
pub fn ladder_table(name: &str, seed: u64) -> Result<Vec<Rung>, String> {
    let workload = prepare(name, seed)?;
    let ladder = workload
        .ladder()
        .ok_or_else(|| format!("{name} is closed-loop"))?;
    (0..RUNGS)
        .map(|rung| {
            let pass = workload.pass(Lanes::Standard, Some(rung))?;
            let ms = |q: f64, of: &[u64]| match quantile::of_u64(of, q) {
                MISSED => f64::INFINITY,
                us => us as f64 / 1e3,
            };
            let tail = &pass.latency_us[pass.latency_us.len() * 3 / 4..];
            Ok(Rung {
                rate_rps: ladder.rate_rps(rung),
                p50_ms: ms(0.5, &pass.latency_us),
                p99_ms: ms(0.99, &pass.latency_us),
                tail_p99_ms: ms(0.99, tail),
                failed_share: pass.failed as f64 / pass.attempted as f64,
                severity: severity(&pass, ladder),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::workloads::HostCost;

    const LADDER: Ladder = Ladder {
        base_gap_us: 1000.0,
        operating_rung: 2,
        p99_limit_us: 100,
    };

    /// A workload whose latency is flat up to `breaks_at` and then grows by
    /// `growth` per rung.
    struct Fake {
        breaks_at: usize,
        growth: u64,
    }

    impl Fake {
        fn at(&self, rung: usize) -> Pass {
            let over = rung.saturating_sub(self.breaks_at) as u32;
            Pass {
                host: HostCost::default(),
                attempted: 100,
                failed: 0,
                outcomes: Vec::new(),
                makespan_us: 1,
                latency_us: vec![50 * self.growth.pow(over); 100],
                quality: 1.0,
            }
        }
    }

    impl Workload for Fake {
        fn n(&self) -> usize {
            100
        }
        fn input_hash(&self) -> u64 {
            0
        }
        fn pass(&self, _: Lanes, rung: Option<usize>) -> Result<Pass, String> {
            Ok(self.at(rung.unwrap_or(LADDER.operating_rung)))
        }
        fn trace(&self, _: &Pass, _: &mut Metrics) -> Result<Vec<Span>, String> {
            Ok(Vec::new())
        }
    }

    fn knee(breaks_at: usize, growth: u64) -> f64 {
        let fake = Fake { breaks_at, growth };
        knee_rps(&fake, &LADDER, &fake.at(LADDER.operating_rung)).unwrap()
    }

    #[test]
    fn knee_lies_between_the_last_sustained_rung_and_the_first_failing_one() {
        // Severity 0.5 through rung 4, then 2.0 at rung 5: the crossing is
        // half-way on log axes.
        let found = knee(4, 4);
        assert!(
            (found - LADDER.rate_rps(4) * 1.2f64.sqrt()).abs() < 1e-9,
            "{found}"
        );
        // A steeper wall moves the crossing toward the sustained rung.
        assert!(knee(4, 64) < found && knee(4, 64) > LADDER.rate_rps(4));
        // A wall below the operating rung is found by searching downward.
        let low = knee(0, 4);
        assert!(
            low > LADDER.rate_rps(0) && low < LADDER.rate_rps(1),
            "{low}"
        );
    }

    #[test]
    fn knee_saturates_at_the_ends_of_the_ladder() {
        assert!((knee(RUNGS, 4) - LADDER.rate_rps(RUNGS - 1)).abs() < 1e-6);
        let fake = Fake {
            breaks_at: 0,
            growth: 4,
        };
        let hopeless = Pass {
            latency_us: vec![MISSED; 100],
            ..fake.at(0)
        };
        struct Hopeless(Pass);
        impl Workload for Hopeless {
            fn n(&self) -> usize {
                100
            }
            fn input_hash(&self) -> u64 {
                0
            }
            fn pass(&self, _: Lanes, _: Option<usize>) -> Result<Pass, String> {
                Ok(self.0.clone())
            }
            fn trace(&self, _: &Pass, _: &mut Metrics) -> Result<Vec<Span>, String> {
                Ok(Vec::new())
            }
        }
        let found = knee_rps(&Hopeless(hopeless.clone()), &LADDER, &hopeless).unwrap();
        assert!((found - LADDER.rate_rps(0) / 1.2).abs() < 1e-6);
    }

    #[test]
    fn failures_beyond_one_percent_fail_a_rung_whatever_the_latency() {
        let fake = Fake {
            breaks_at: RUNGS,
            growth: 1,
        };
        let mut pass = fake.at(0);
        assert!(severity(&pass, &LADDER) <= 1.0);
        pass.failed = 2;
        assert_eq!(severity(&pass, &LADDER), f64::INFINITY);
    }
}
