//! The five workloads. Each prepares its input from the seed once per set-up
//! and then runs passes on a fresh engine and fresh caches.

pub mod batch;
pub mod cluster;
pub mod compile;
pub mod serve;

use std::sync::Arc;
use std::time::Instant;

use spear_core::llm::LlmClient;
use spear_llm::{InternStats, SimLlm};

use crate::alloc;
use crate::calibration::Ladder;
use crate::metrics::{ratio, Metrics};
use crate::spans::{Recorder, RequestIdOf, Span, SpanLlm};

/// Worker lanes every workload runs with (this host has two cores).
pub const LANES: usize = 2;

/// Lane count of a pass: the workload's own, or the other count of the
/// pair {1, 2}, at which trace digests must not change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    Standard,
    Alternate,
}

impl Lanes {
    /// The lane count for a workload whose standard count is `standard`.
    pub fn count(self, standard: usize) -> usize {
        match self {
            Lanes::Standard => standard,
            Lanes::Alternate => 3 - standard,
        }
    }
}

/// Latency recorded for an operation that did not complete: it misses any
/// latency limit.
pub const MISSED: u64 = u64::MAX;

/// What one pass produced, in the terms every workload shares.
#[derive(Debug, Clone)]
pub struct Pass {
    pub host: HostCost,
    pub attempted: u64,
    /// Operations rejected, failed, cancelled, past their deadline or
    /// errored, plus output-check failures.
    pub failed: u64,
    /// `(status tag, trace digest)` per operation, in id order; the digest of
    /// an operation that did not complete is 0.
    pub outcomes: Vec<(u64, u64)>,
    /// Virtual time to finish every operation.
    pub makespan_us: u64,
    /// Virtual end-to-end latency per operation in id order, timed from the
    /// scheduled arrival; [`MISSED`] for operations that did not complete.
    pub latency_us: Vec<u64>,
    /// `task_f1`.
    pub quality: f64,
}

/// What the product's run call cost this machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCost {
    pub wall_s: f64,
    /// High-water live heap bytes during the call.
    pub peak_bytes: u64,
    /// Allocations, and bytes allocated, during the call.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Run the product's `call` between readings of the wall clock and of the
/// allocator's counters, inside a span called `span` when traced.
pub fn measured<T>(
    span: Option<(&Tracer, &'static str)>,
    call: impl FnOnce() -> T,
) -> (T, HostCost) {
    let before = alloc::snapshot();
    alloc::reset_peak();
    let open = span.map(|(tracer, name)| (tracer, tracer.recorder.open(name, None)));
    let start = Instant::now();
    let result = call();
    let wall_s = start.elapsed().as_secs_f64();
    if let Some((tracer, id)) = open {
        tracer.recorder.close(id);
    }
    let peak_bytes = alloc::peak_bytes();
    let after = alloc::snapshot();
    let cost = HostCost {
        wall_s,
        peak_bytes,
        allocs: after.count - before.count,
        alloc_bytes: after.bytes - before.bytes,
    };
    (result, cost)
}

/// Status tags of `Pass::outcomes`.
pub mod status {
    pub const COMPLETED: u64 = 1;
    pub const REJECTED: u64 = 2;
    pub const DEADLINE: u64 = 3;
    pub const CANCELLED: u64 = 4;
    pub const FAILED: u64 = 5;
}

impl Pass {
    /// Operations that completed here and in `other` with different trace
    /// digests. Statuses may differ between lane counts (queue-depth
    /// shedding scales with capacity); what an operation computed may not.
    pub fn digest_mismatches(&self, other: &Pass) -> usize {
        self.outcomes
            .iter()
            .zip(&other.outcomes)
            .filter(|(a, b)| a.0 == status::COMPLETED && b.0 == status::COMPLETED && a.1 != b.1)
            .count()
    }

    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.0 == status::COMPLETED)
            .count()
    }

    /// `host.allocs_per_req` and `host.alloc_bytes_per_req` of this
    /// (untraced) pass.
    pub fn allocation_metrics(&self, metrics: &mut Metrics) {
        let n = self.attempted as f64;
        metrics.set("host.allocs_per_req", self.host.allocs as f64 / n);
        metrics.set("host.alloc_bytes_per_req", self.host.alloc_bytes as f64 / n);
    }
}

/// `llm.engine.*` of a traced pass whose enclosing span is called `parent`
/// and ran `n` operations on `lanes` lanes: calls per operation, host time
/// per call, and the share of lane time spent inside the engine.
pub fn engine_seam_metrics(
    spans: &[Span],
    parent: &str,
    lanes: usize,
    n: f64,
    metrics: &mut Metrics,
) {
    let calls = crate::spans::count_of(spans, "llm.generate") as f64;
    let llm_ns = crate::spans::total_ns_of(spans, "llm.generate") as f64;
    let parent_ns = crate::spans::total_ns_of(spans, parent) as f64;
    metrics.set("llm.engine.calls_per_req", calls / n);
    metrics.set(
        "llm.engine.generate_us_per_call",
        ratio(llm_ns / 1e3, calls),
    );
    metrics.set(
        "llm.engine.busy_share",
        ratio(llm_ns, parent_ns * lanes as f64),
    );
}

/// `llm.intern.hit_share` and `.evictions`, summed over the interners of the
/// engines that served a traced pass.
pub fn interner_metrics(interners: &[InternStats], metrics: &mut Metrics) {
    let sum = |f: fn(&InternStats) -> u64| interners.iter().map(f).sum::<u64>() as f64;
    let (hits, misses) = (sum(|s| s.hits), sum(|s| s.misses));
    metrics.set("llm.intern.hit_share", ratio(hits, hits + misses));
    metrics.set("llm.intern.evictions", sum(|s| s.evictions));
}

/// F1 of "completed with checked output" against "attempted", for the
/// workloads without labelled ground truth: precision is 1 and recall is the
/// completed share.
pub fn completion_f1(attempted: u64, failed: u64) -> f64 {
    let recall = (attempted - failed) as f64 / attempted as f64;
    2.0 * recall / (1.0 + recall)
}

/// Tracing state of a traced pass: the recorder and how to find the request
/// behind an engine call.
pub struct Tracer {
    pub recorder: Arc<Recorder>,
    pub request_id_of: RequestIdOf,
}

impl Tracer {
    pub fn new(request_id_of: RequestIdOf) -> Self {
        Self {
            recorder: Recorder::new(),
            request_id_of,
        }
    }

    /// The engine as the runtime should see it: bare when untraced, behind
    /// the span decorator when traced.
    pub fn wrap(
        tracer: Option<&Tracer>,
        engine: &Arc<SimLlm>,
    ) -> (Arc<dyn LlmClient>, Option<Arc<SpanLlm>>) {
        match tracer {
            None => (Arc::clone(engine) as Arc<dyn LlmClient>, None),
            Some(t) => {
                let llm =
                    SpanLlm::new(Arc::clone(engine), Arc::clone(&t.recorder), t.request_id_of);
                (Arc::clone(&llm) as Arc<dyn LlmClient>, Some(llm))
            }
        }
    }
}

/// Request id from the `case <id>:` marker the serving inputs carry.
pub fn case_id(request: &spear_core::llm::GenRequest, _owner: u64) -> Option<u64> {
    let at = request.text.rfind("case ")? + "case ".len();
    let digits = request.text[at..].split(':').next()?;
    digits.parse().ok()
}

/// What a workload offers the runner.
pub trait Workload {
    /// Operations per pass (N).
    fn n(&self) -> usize;
    fn input_hash(&self) -> u64;
    /// One untraced pass. Open-loop workloads run at ladder rung `rung`
    /// (`None` = the operating rung). `Err` is an output-check failure.
    fn pass(&self, lanes: Lanes, rung: Option<usize>) -> Result<Pass, String>;
    /// The frozen rate ladder of an open-loop workload.
    fn ladder(&self) -> Option<&'static Ladder> {
        None
    }
    /// A check against an independent reference, once per run.
    fn reference_check(&self, _pass: &Pass) -> Result<(), String> {
        Ok(())
    }
    /// The traced pass and the replays: fills every per-layer metric this
    /// workload exercises and returns the spans recorded.
    fn trace(&self, untraced: &Pass, metrics: &mut Metrics) -> Result<Vec<Span>, String>;
}
