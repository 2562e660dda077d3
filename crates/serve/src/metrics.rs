//! Serving metrics: log-bucketed histograms and the per-run
//! [`ServeReport`] snapshot.

use spear_llm::CacheStats;

use crate::request::Priority;

/// A power-of-two-bucketed histogram for non-negative integer samples
/// (virtual µs, queue depths). Bucket `i > 0` covers `[2^(i-1), 2^i - 1]`;
/// bucket 0 holds zeros. Quantiles are reported as the upper bound of the
/// covering bucket — a ≤2× overestimate, which is enough for the
/// order-of-magnitude comparisons the serving benchmarks make.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

const BUCKETS: usize = 64;

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the samples (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Largest sample seen.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), clamped to the maximum sample. `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Condensed, serializable view.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

/// Condensed histogram statistics for reports.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Exact mean (`None` when empty).
    pub mean: Option<f64>,
    /// Bucketed median upper bound.
    pub p50: Option<u64>,
    /// Bucketed 90th-percentile upper bound.
    pub p90: Option<u64>,
    /// Bucketed 99th-percentile upper bound.
    pub p99: Option<u64>,
    /// Exact maximum.
    pub max: u64,
}

/// Per-priority-class counters and distributions.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClassReport {
    /// Requests submitted in this class.
    pub submitted: u64,
    /// Requests admitted past the admission gate.
    pub admitted: u64,
    /// Requests shed by admission control (typed, counted — never silent).
    pub rejected: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests cancelled by their service deadline.
    pub deadline_exceeded: u64,
    /// Requests cancelled via their token.
    pub cancelled: u64,
    /// Requests whose pipeline failed.
    pub failed: u64,
    /// Preemption events suffered by this class's requests under memory
    /// pressure (a request preempted twice counts twice). Always 0 when
    /// `ServeConfig::pressure` is off. Defaults to 0 when deserializing
    /// reports written before this counter existed.
    #[serde(default)]
    pub preempted: u64,
    /// Prompt tokens across completed requests.
    pub prompt_tokens: u64,
    /// Prompt tokens served from the prefix cache across completed
    /// requests.
    pub cached_tokens: u64,
    /// Queue depth observed at each admission into this class.
    pub queue_depth: HistogramSummary,
    /// Virtual µs between arrival and dispatch.
    pub queue_wait_us: HistogramSummary,
    /// Virtual µs of execution (service) time.
    pub service_us: HistogramSummary,
    /// Virtual µs between arrival and completion.
    pub e2e_us: HistogramSummary,
}

impl ClassReport {
    /// Prefix-cache token hit rate over this class's completed requests
    /// (`None` before any prompt tokens).
    #[must_use]
    pub fn cache_hit_rate(&self) -> Option<f64> {
        if self.prompt_tokens == 0 {
            None
        } else {
            Some(self.cached_tokens as f64 / self.prompt_tokens as f64)
        }
    }
}

/// Snapshot of one serving run, serializable for benchmark artifacts.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeReport {
    /// Worker lanes the scheduler dispatched onto.
    pub lanes: usize,
    /// Whether cache-affinity routing was enabled.
    pub affinity_routing: bool,
    /// Virtual time at which the last lane went idle.
    pub makespan_us: u64,
    /// Order-canonical FNV fold of per-request trace digests and
    /// statuses — two runs served identically iff fingerprints match.
    pub trace_fingerprint: u64,
    /// Interactive-class metrics.
    pub interactive: ClassReport,
    /// Batch-class metrics.
    pub batch: ClassReport,
    /// Engine-level prefix-cache counters accumulated during the run
    /// (all classes combined; the per-class split lives in
    /// `interactive`/`batch` token counts).
    pub cache: CacheStats,
    /// KV block-pool and iteration-scheduler counters (all zeros with
    /// `enabled: false` when the run had no `ServeConfig::pressure`).
    /// Defaults for reports written before memory pressure existed.
    #[serde(default)]
    pub kv: KvReport,
    /// Plan-compilation counters from the program cache. Defaults for
    /// reports written before the compiled hot path existed.
    #[serde(default)]
    pub compile: CompileReport,
    /// Linkage to the cluster run this node-level report was produced
    /// under, stamped by the cluster fabric after the node run completes.
    /// `None` for standalone (single-node) serving and for reports written
    /// before the cluster existed.
    #[serde(default)]
    pub cluster: Option<ClusterLinkage>,
    /// Whole-call generation-reuse counters (all zeros with
    /// `ServeConfig::reuse` off). Defaults for reports written before the
    /// reuse layer existed.
    #[serde(default)]
    pub reuse: ReuseReport,
}

/// Counters from the whole-call generation-reuse layer (DESIGN.md §15).
///
/// The hit/coalesced split and the savings ledger are derived from
/// per-request reuse metadata by a deterministic post-pass over requests
/// in arrival order — a duplicate whose arrival falls inside its nominal
/// leader's service window counts as `coalesced` (it would have raced the
/// leader on an unloaded node), later duplicates as `hits` — so, like
/// [`KvReport`], every number here is lane-count-invariant for a fixed
/// workload: physical condvar races decide host speed, never counters.
/// Traces report each reused call's *original* usage (responses are
/// byte-identical to reuse-off); `saved_tokens`/`saved_calls` record what
/// the backend did not actually execute.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReuseReport {
    /// Duplicate GEN calls served from a completed memo entry.
    pub hits: u64,
    /// Duplicate GEN calls that arrived inside their leader's service
    /// window (single-flight coalescing on an unloaded node).
    pub coalesced: u64,
    /// Entries completed into the memo during the run.
    pub inserted: u64,
    /// Entries evicted by the memo's LRU bound during the run.
    pub evicted: u64,
    /// Approximate bytes resident in the memo at the end of the run.
    pub bytes: u64,
    /// Prompt + completion tokens of reused calls — work the backend
    /// skipped (the traces still report the original usage).
    pub saved_tokens: u64,
    /// GEN executions the memo absorbed.
    pub saved_calls: u64,
}

/// How a node-level [`ServeReport`] relates to the cluster run that
/// produced it. Every post-PR-3 `ServeReport` field carries
/// `#[serde(default)]`, so reports written by any earlier schema — and
/// standalone reports written today — deserialize under the current one
/// (pinned by `tests/report_compat.rs` against the checked-in reports in
/// `tests/data/`).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ClusterLinkage {
    /// The node's id within the cluster.
    pub node_id: u64,
    /// Virtual timestamp the node joined the cluster (0 for seed nodes).
    pub joined_us: u64,
    /// Whether the node was draining (or drained) when the run ended.
    pub drained: bool,
}

/// Counters from the memory-pressure KV scheduler: the bounded block
/// pool's accounting plus iteration-level batching totals. All counters
/// are lane-count-invariant for a fixed workload, pool size, and token
/// budget — the scheduler's decisions live on the virtual clock, not on
/// worker threads.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KvReport {
    /// Whether the run scheduled under a bounded pool at all.
    pub enabled: bool,
    /// Pool capacity in blocks.
    pub pool_blocks: u64,
    /// Tokens per KV block.
    pub block_size: u64,
    /// Per-iteration token budget (decode steps + prefill chunks).
    pub max_batched_tokens: u64,
    /// Iterations that processed at least one token.
    pub steps: u64,
    /// Preemption events across all classes (recompute-on-resume).
    pub preempted: u64,
    /// Blocks evicted by pool capacity pressure (unpinned LRU leaves).
    pub evicted_blocks: u64,
    /// Blocks dropped by preemption (`BlockPool::free`).
    pub freed_blocks: u64,
    /// Blocks newly inserted into the pool.
    pub inserted_blocks: u64,
    /// Requested blocks served by resident prefixes (the *contended* reuse
    /// measure: what prefix sharing is worth when blocks actually fight
    /// for residency).
    pub reused_blocks: u64,
    /// Blocks requested across all allocations.
    pub requested_blocks: u64,
    /// Allocation attempts that found the pool exhausted (each is followed
    /// by a preemption or a deferred admission).
    pub alloc_failures: u64,
    /// High-water mark of resident blocks.
    pub peak_live_blocks: u64,
}

/// Counters from the scheduler's [`crate::program_cache::ProgramCache`]:
/// how many admissions cached a fresh program and how many reused a
/// cached program. All counters are lane-count-invariant — admission order
/// is deterministic and caching happens before dispatch.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CompileReport {
    /// Programs cached on a miss, optimized or not (cache misses); the
    /// optimized share is `optimized`.
    pub compiled: u64,
    /// Admissions served by an already-compiled cached program.
    pub cache_hits: u64,
    /// Cached programs evicted by capacity pressure.
    pub evicted: u64,
    /// Freshly cached programs additionally improved by the verified
    /// bytecode optimizer (translation validation passed and at least one
    /// op was removed or rethreaded).
    #[serde(default)]
    pub optimized: u64,
    /// Admission verifications skipped because an identical plan family
    /// (fingerprint + assumed prompts + deadline) already verified clean
    /// this run.
    #[serde(default)]
    pub verify_memo_hits: u64,
}

impl CompileReport {
    /// Fraction of admissions served from the program cache, in `[0, 1]`;
    /// `None` before any admission.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.compiled + self.cache_hits;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }
}

impl ServeReport {
    /// The class report for `class`.
    #[must_use]
    pub fn class(&self, class: Priority) -> &ClassReport {
        match class {
            Priority::Interactive => &self.interactive,
            Priority::Batch => &self.batch,
        }
    }

    /// Combined prefix-cache token hit rate over completed requests.
    #[must_use]
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let prompt = self.interactive.prompt_tokens + self.batch.prompt_tokens;
        if prompt == 0 {
            None
        } else {
            Some((self.interactive.cached_tokens + self.batch.cached_tokens) as f64 / prompt as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000, 1000, 1000, 1000, 50_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 50_000);
        assert!((h.mean().unwrap() - 5410.6).abs() < 1e-9);
        // p50: rank 5 lands in the bucket covering 100 -> upper bound 127.
        assert_eq!(h.quantile(0.5), Some(127));
        // p90: rank 9 is the last 1000 -> bucket [512,1023].
        assert_eq!(h.quantile(0.9), Some(1023));
        // p99 and p100 clamp to the true max.
        assert_eq!(h.quantile(0.99), Some(50_000));
        assert_eq!(h.quantile(1.0), Some(50_000));
    }

    #[test]
    fn empty_histogram_is_honest() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, None);
    }

    #[test]
    fn default_histogram_records_lazily() {
        // Default (deserialized) histograms have no bucket storage yet.
        let mut h = Histogram::default();
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), Some(7));
    }

    #[test]
    fn zero_samples_live_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn hit_rates_split_by_class() {
        let mut r = ServeReport::default();
        r.interactive.prompt_tokens = 100;
        r.interactive.cached_tokens = 80;
        r.batch.prompt_tokens = 300;
        r.batch.cached_tokens = 60;
        assert!((r.interactive.cache_hit_rate().unwrap() - 0.8).abs() < 1e-12);
        assert!((r.batch.cache_hit_rate().unwrap() - 0.2).abs() < 1e-12);
        assert!((r.cache_hit_rate().unwrap() - 0.35).abs() < 1e-12);
        assert_eq!(r.class(Priority::Interactive).prompt_tokens, 100);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = ServeReport {
            lanes: 4,
            affinity_routing: true,
            makespan_us: 123,
            trace_fingerprint: 42,
            ..ServeReport::default()
        };
        let mut h = Histogram::new();
        h.record(10);
        r.interactive.service_us = h.summary();
        let json = serde_json::to_string(&r).unwrap();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
