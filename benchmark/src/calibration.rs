//! Frozen sizes and rate ladders. They were calibrated once, at the commit
//! that added the benchmark (the numbers behind them are in `README.md`), and
//! are the same for every commit measured afterwards. `BENCHMARK.json` admits
//! no extra keys, so they live here.

/// Operations per pass.
pub const BATCH_N: usize = 8192;
pub const SERVE_STEADY_N: usize = 8192;
pub const SERVE_PRESSURE_N: usize = 2048;
pub const CLUSTER_N: usize = 8192;
pub const COMPILE_N: usize = 16384;

/// Set-up cycles per run; `setup_s` is their median.
pub const SETUP_CYCLES: usize = 3;
/// Timed passes never fewer than this, however short `--seconds` is.
pub const MIN_TIMED_PASSES: usize = 3;

pub const RUNGS: usize = 8;

/// A rate ladder: eight offered rates, each 1.2 times the one before, the
/// same arrival draws at every rung with only the gaps scaled.
#[derive(Debug)]
pub struct Ladder {
    /// Mean inter-arrival gap at rung 0 (the slowest rung), virtual µs.
    pub base_gap_us: f64,
    /// Rung at which host and latency metrics are taken: the rung nearest
    /// 70 % of the knee found at calibration.
    pub operating_rung: usize,
    /// `virt_p99_ms` may not exceed this at a rung that counts as sustained.
    pub p99_limit_us: u64,
}

impl Ladder {
    pub fn gap_us(&self, rung: usize) -> f64 {
        self.base_gap_us / 1.2f64.powi(rung as i32)
    }

    /// Offered rate at `rung`, requests per virtual second.
    pub fn rate_rps(&self, rung: usize) -> f64 {
        1e6 / self.gap_us(rung)
    }
}

pub const SERVE_STEADY_LADDER: Ladder = Ladder {
    base_gap_us: 1_200_000.0,
    operating_rung: 2,
    p99_limit_us: 14_000_000,
};

pub const SERVE_PRESSURE_LADDER: Ladder = Ladder {
    base_gap_us: 11_574.0,
    operating_rung: 2,
    p99_limit_us: 1_000_000,
};

pub const CLUSTER_LADDER: Ladder = Ladder {
    base_gap_us: 833_333.0,
    operating_rung: 2,
    p99_limit_us: 12_000_000,
};

/// Service deadline stamped on interactive `serve_steady` requests, virtual
/// µs. Several times the longest service time, so it never fires; it is
/// there so admission runs its deadline-feasibility analysis.
pub const STEADY_DEADLINE_US: u64 = 20_000_000;
