//! The serving scheduler: virtual-time dispatch of admitted requests onto
//! [`BatchRunner`] lanes, with cache-affinity routing.
//!
//! ## Execution model
//!
//! [`ServeNode::run`] is a discrete-event loop over the workload's virtual
//! clock. Each round it (1) admits every request whose arrival timestamp
//! has been reached, (2) pops up to `lanes × quantum` requests from the
//! priority queue, (3) executes them as one assigned batch, charging each
//! job's virtual service time to its lane's clock, and (4) advances the
//! clock to the earliest moment a lane frees up (or to the next arrival
//! when idle). [`BatchRunner::run_assigned`] does the work — the thread
//! that called `run` executes the round's first active lane and each
//! further active lane gets a scoped thread, so the usual one-lane round
//! spawns nothing — but all *timing* is virtual, so a run is reproducible
//! regardless of the host machine.
//!
//! ## Cache-affinity routing
//!
//! With `affinity_routing` on, requests whose lowered plans share an
//! [`affinity key`](spear_core::plan::LoweredPlan::affinity_key) — i.e.
//! whose prompts share a structured prefix — are mapped to the same cache
//! owner and the same lane. Same-owner jobs execute sequentially in
//! arrival order on one thread, so each sees its predecessors' prefix
//! insertions deterministically; the owner-aware cache in `spear-llm`
//! turns that into real hit-rate, as `BENCH_serve.json` witnesses. With
//! affinity off, every request gets a fresh owner (full isolation, no
//! cross-request reuse) and lanes are assigned round-robin.
//!
//! ## Determinism across lane counts
//!
//! For a fixed workload, per-request **traces** are byte-identical at any
//! lane count (pinned by proptest), because every input to an execution
//! is lane-count-invariant: token-bucket admission is a function of
//! arrival timestamps only; an owner group's members are dispatched in
//! arrival order (per-class FIFO) whatever the interleaving; deadlines
//! bound the job's *own* accumulated service time, not wall or queue
//! time. Queue waits, end-to-end latencies, and depth-based shedding do
//! scale with capacity — that is the point of adding lanes — so the
//! *report* is per-configuration while the *traces* are not.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spear_core::batch::{AssignedJob, BatchRunner};
use spear_core::error::SpearError;
use spear_core::llm::ReusePolicy;
use spear_core::metadata::{ReuseEvent, TokenUsage};
use spear_core::plan::LoweredPlan;
use spear_core::runtime::Runtime;
use spear_kv::shard::fnv1a;
use spear_llm::{MemoStats, SimLlm};

use crate::error::ServeError;
use crate::kv::{self, KvPressureConfig, SeqInput};
use crate::metrics::{ClassReport, Histogram, ReuseReport, ServeReport};
use crate::program_cache::{ProgramCache, ProgramKey};
use crate::queue::{AdmissionConfig, AdmissionQueue};
use crate::request::{Priority, ServeRequest};

/// Owner-id namespace for serve-assigned cache groups: disjoint from
/// `BatchRunner`'s small sequential ids and from `SimLlm::submit_many`'s
/// `1 << 63` namespace.
const SERVE_OWNER_BASE: u64 = 1 << 62;

/// Distinct plan families the admission-verification memo holds before
/// resetting (overflow means an adversarially diverse workload; clearing
/// just re-verifies, it never changes decisions).
const VERIFY_MEMO_CAPACITY: usize = 1024;

/// Scheduler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker lanes to dispatch onto (also the `BatchRunner` pool size).
    pub lanes: usize,
    /// Maximum requests dispatched per lane per round.
    pub quantum: usize,
    /// Route same-affinity-key requests to a shared cache owner and lane.
    pub affinity_routing: bool,
    /// Admission-control limits.
    pub admission: AdmissionConfig,
    /// Statically verify each request's plan at admission and reject
    /// requests whose plan has error-severity defects (bad jump targets,
    /// undefined prompt keys, budget-infeasible deadlines, …) before any
    /// LLM call or queue slot is spent. Default on; turn off only for
    /// workloads known-verified out of band.
    pub verify_admission: bool,
    /// Schedule the run's token footprints through a bounded KV block
    /// pool with token-level continuous batching (see [`crate::kv`]).
    /// Executions stay byte-identical to the unconstrained path — the
    /// pool shapes *timing* (queue waits, service, preemptions,
    /// evictions), not results. With pressure on, the KV pool itself is
    /// the backpressure valve: queue-depth shedding never binds (token
    /// bucket and plan verification still apply). `None` = unbounded
    /// memory, the classic lane scheduler.
    pub pressure: Option<KvPressureConfig>,
    /// Capacity of the node's compiled-program cache
    /// ([`crate::program_cache::ProgramCache`]): distinct
    /// `(plan fingerprint, affinity key)` pairs held resident. Admissions
    /// beyond capacity evict least-recently-used programs (counted in
    /// [`crate::metrics::CompileReport`]).
    pub program_cache_capacity: usize,
    /// Whole-call generation reuse (DESIGN.md §15): stamp each request's
    /// execution state with [`ReusePolicy::Exact`] so duplicate GENs are
    /// served from the engine's single-flight memo. Observably invisible —
    /// statuses, digests, per-request usage, and cache counters are
    /// byte-identical to reuse-off (pinned by proptest); only host cost
    /// and the [`crate::metrics::ReuseReport`] ledger change. Default on:
    /// serving is exactly where duplicate-heavy traffic lives.
    pub reuse: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            lanes: 4,
            quantum: 4,
            affinity_routing: true,
            admission: AdmissionConfig::default(),
            verify_admission: true,
            pressure: None,
            program_cache_capacity: 64,
            reuse: true,
        }
    }
}

/// Terminal status of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeStatus {
    /// Ran to completion.
    Completed,
    /// Shed by admission control (never executed).
    Rejected {
        /// The typed overload error.
        error: ServeError,
    },
    /// Cancelled by its service deadline between plan slots.
    DeadlineExceeded {
        /// Virtual service time accumulated when cancelled.
        after_us: u64,
    },
    /// Cancelled via its [`spear_core::cancel::CancelToken`].
    Cancelled {
        /// Reason carried by the token.
        reason: String,
    },
    /// The pipeline failed with a runtime error.
    Failed {
        /// Rendered error.
        error: String,
    },
}

/// Per-request result of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Request id.
    pub id: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Terminal status.
    pub status: ServeStatus,
    /// Virtual µs spent queued (0 unless dispatched).
    pub queue_wait_us: u64,
    /// Virtual µs of execution time (partial time for cancelled runs).
    pub service_us: u64,
    /// Virtual completion timestamp (0 for rejected requests).
    pub finish_us: u64,
    /// Trace digest of the completed execution (`None` unless completed).
    pub trace_digest: Option<u64>,
    /// Token usage of the completed execution (zero unless completed).
    pub usage: TokenUsage,
    /// Times the request was preempted by the KV scheduler (always 0
    /// without `ServeConfig::pressure`).
    pub preemptions: u32,
}

/// Everything a serving run produced: per-request outcomes (in request-id
/// order) and the aggregate report.
#[derive(Debug)]
pub struct ServeRun {
    /// One outcome per submitted request, sorted by id.
    pub outcomes: Vec<ServeOutcome>,
    /// Aggregate metrics snapshot.
    pub report: ServeReport,
}

impl ServeRun {
    /// The outcome for a request id, if it was part of the run.
    #[must_use]
    pub fn outcome(&self, id: u64) -> Option<&ServeOutcome> {
        self.outcomes
            .binary_search_by_key(&id, |o| o.id)
            .ok()
            .map(|i| &self.outcomes[i])
    }
}

/// Aggregation scratch for one priority class.
#[derive(Debug, Default)]
struct ClassAccum {
    report: ClassReport,
    queue_depth: Histogram,
    queue_wait_us: Histogram,
    service_us: Histogram,
    e2e_us: Histogram,
}

impl ClassAccum {
    fn finish(mut self) -> ClassReport {
        self.report.queue_depth = self.queue_depth.summary();
        self.report.queue_wait_us = self.queue_wait_us.summary();
        self.report.service_us = self.service_us.summary();
        self.report.e2e_us = self.e2e_us.summary();
        self.report
    }
}

/// Per-run memo of admission-verification results, keyed by plan family
/// (plan fingerprint ⊕ assumed prompt keys ⊕ deadline). Verification also
/// depends on the runtime's registries, and each run may bring a
/// different runtime, so the memo is cleared at the start of every run —
/// within a run the full `Verifier` executes once per family instead of
/// once per request.
#[derive(Debug, Default)]
struct VerifyMemo {
    map: HashMap<u64, Option<Vec<String>>>,
    hits: u64,
}

/// What the scheduler needs to know about a plan. `fingerprint()`
/// serialises the whole plan and `affinity_key()` hashes and formats, and a
/// run replays a handful of plans thousands of times, so both are derived
/// once per distinct `Arc<LoweredPlan>` per run.
struct PlanIdentity {
    /// Held so the address keying the table cannot be reused by another
    /// plan while the run lasts.
    _plan: Arc<LoweredPlan>,
    key: ProgramKey,
    affinity_seed: u64,
}

#[derive(Default)]
struct PlanIdentities(HashMap<*const LoweredPlan, PlanIdentity>);

impl PlanIdentities {
    fn of(&mut self, plan: &Arc<LoweredPlan>) -> &PlanIdentity {
        self.0
            .entry(Arc::as_ptr(plan))
            .or_insert_with(|| PlanIdentity {
                _plan: Arc::clone(plan),
                key: ProgramKey::of(plan),
                affinity_seed: plan.affinity_seed().unwrap_or_default(),
            })
    }
}

/// One run's lane and cache-owner placement. With affinity routing on,
/// every (class, affinity key) pair is one group with one owner and one
/// hashed lane, however many distinct plans carry the key; everything else
/// gets a fresh owner and the next lane round-robin.
struct Placement {
    owner_base: u64,
    lanes: usize,
    affinity_routing: bool,
    /// Affinity key -> (owner, lane), one table per priority class so a
    /// dispatch looks its group up by `&str`.
    groups: [HashMap<String, (u64, usize)>; Priority::ALL.len()],
    next_owner: u64,
    round_robin: usize,
}

impl Placement {
    fn new(owner_base: u64, config: &ServeConfig) -> Self {
        Self {
            owner_base,
            lanes: config.lanes,
            affinity_routing: config.affinity_routing,
            groups: Default::default(),
            next_owner: 0,
            round_robin: 0,
        }
    }

    fn fresh_owner(&mut self) -> u64 {
        let owner = self.owner_base + self.next_owner;
        self.next_owner += 1;
        owner
    }

    /// `(owner, lane, grouped)` for a request of `class` running
    /// `identity`'s plan.
    fn place(&mut self, identity: &PlanIdentity, class: Priority) -> (u64, usize, bool) {
        let key = match &identity.key.affinity {
            Some(key) if self.affinity_routing => key.as_str(),
            _ => {
                let lane = self.round_robin % self.lanes;
                self.round_robin += 1;
                return (self.fresh_owner(), lane, false);
            }
        };
        if let Some(&(owner, lane)) = self.groups[class as usize].get(key) {
            return (owner, lane, true);
        }
        let lane = (identity.affinity_seed % self.lanes as u64) as usize;
        let owner = self.fresh_owner();
        self.groups[class as usize].insert(key.to_owned(), (owner, lane));
        (owner, lane, true)
    }
}

/// The long-lived serving node: a scheduler plus its worker-lane pool.
/// One node can serve many successive [`ServeNode::run`] calls; owner ids
/// never alias across runs.
#[derive(Debug)]
pub struct ServeNode {
    config: ServeConfig,
    runner: BatchRunner,
    run_seq: AtomicU64,
    programs: ProgramCache,
    verify_memo: Mutex<VerifyMemo>,
}

impl ServeNode {
    /// A node with `config.lanes` worker lanes.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        let lanes = config.lanes.max(1);
        let programs = ProgramCache::new(config.program_cache_capacity);
        Self {
            config: ServeConfig { lanes, ..config },
            runner: BatchRunner::new(lanes),
            run_seq: AtomicU64::new(0),
            programs,
            verify_memo: Mutex::new(VerifyMemo::default()),
        }
    }

    /// Memoized admission verification: the full [`verify_for_admission`]
    /// runs once per plan family per run; later family members reuse the
    /// cached verdict (including rejection details).
    fn verify_admission_memoized(
        &self,
        runtime: &Runtime,
        request: &ServeRequest,
        fingerprint: u64,
    ) -> Option<Vec<String>> {
        let key = Self::verify_key(request, fingerprint);
        {
            let mut memo = match self.verify_memo.lock() {
                Ok(memo) => memo,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(cached) = memo.map.get(&key).cloned() {
                memo.hits += 1;
                return cached;
            }
        }
        // Verify outside the lock: the memo only makes the common
        // (already-seen family) case cheap.
        let verdict = verify_for_admission(runtime, request);
        let mut memo = match self.verify_memo.lock() {
            Ok(memo) => memo,
            Err(poisoned) => poisoned.into_inner(),
        };
        if memo.map.len() >= VERIFY_MEMO_CAPACITY {
            memo.map.clear();
        }
        memo.map.insert(key, verdict.clone());
        verdict
    }

    /// The memo key: everything [`verify_for_admission`] reads from the
    /// request (the runtime's contribution is handled by clearing the memo
    /// each run); `fingerprint` is the plan's.
    fn verify_key(request: &ServeRequest, fingerprint: u64) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&fingerprint.to_le_bytes());
        for key in request.state.prompts.keys() {
            bytes.extend_from_slice(key.as_bytes());
            bytes.push(0xff);
        }
        bytes.extend_from_slice(&request.deadline_us.unwrap_or(u64::MAX).to_le_bytes());
        fnv1a(&bytes)
    }

    /// Reset the memo for a fresh run (a new run may bring a different
    /// runtime, whose registries verification depends on).
    fn reset_verify_memo(&self) {
        let mut memo = match self.verify_memo.lock() {
            Ok(memo) => memo,
            Err(poisoned) => poisoned.into_inner(),
        };
        memo.map.clear();
        memo.hits = 0;
    }

    /// Take the memo hits accumulated this run (for
    /// [`crate::metrics::CompileReport::verify_memo_hits`]).
    fn drain_verify_memo_hits(&self) -> u64 {
        let mut memo = match self.verify_memo.lock() {
            Ok(memo) => memo,
            Err(poisoned) => poisoned.into_inner(),
        };
        std::mem::take(&mut memo.hits)
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The node's compiled-program cache (shared across runs).
    #[must_use]
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// Serve a workload to completion and return per-request outcomes
    /// plus the aggregate report.
    ///
    /// `requests` must be sorted by non-decreasing `arrival_us` with
    /// unique ids (the load generator produces exactly this shape); the
    /// engine reference, when given, lets the report include engine-level
    /// cache counters for the run.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not sorted by arrival time or contains
    /// duplicate ids — both are harness bugs, not load conditions.
    pub fn run(
        &self,
        runtime: &Runtime,
        engine: Option<&SimLlm>,
        mut requests: Vec<ServeRequest>,
    ) -> ServeRun {
        assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_us <= w[1].arrival_us),
            "requests must arrive in non-decreasing virtual-time order"
        );
        self.reset_verify_memo();
        if let Some(pressure) = self.config.pressure.clone() {
            return self.run_pressured(runtime, engine, requests, &pressure);
        }
        let cache_before = engine.map(|e| e.cache_stats());
        let reuse_before = engine.map(|e| e.reuse_stats());
        let reuse_policy = self.reuse_policy();
        let run_nonce = self.run_seq.fetch_add(1, Ordering::Relaxed);
        let owner_base = SERVE_OWNER_BASE | (run_nonce << 32);

        let lanes = self.config.lanes;
        let round_size = lanes * self.config.quantum.max(1);
        let mut queue = AdmissionQueue::new(self.config.admission.clone());
        let mut accum: HashMap<Priority, ClassAccum> = HashMap::new();
        let mut outcomes: Vec<ServeOutcome> = Vec::with_capacity(requests.len());
        let mut placement = Placement::new(owner_base, &self.config);
        let mut lane_clock = vec![0u64; lanes];
        let mut now = 0u64;
        let mut plans = PlanIdentities::default();
        // (arrival_us, id, service_us, per-GEN reuse events) of completed
        // requests, for the deterministic reuse ledger.
        let mut reuse_rows: Vec<(u64, u64, u64, Vec<ReuseEvent>)> = Vec::new();

        requests.reverse(); // pop() takes the earliest arrival
        for r in &requests {
            accum.entry(r.priority).or_default().report.submitted += 1;
        }

        loop {
            // (1) Admit everything that has arrived by `now`.
            while requests.last().is_some_and(|r| r.arrival_us <= now) {
                let Some(request) = requests.pop() else {
                    break;
                };
                let class = request.priority;
                let entry = accum.entry(class).or_default();
                if self.config.verify_admission {
                    let fingerprint = plans.of(&request.plan).key.fingerprint;
                    if let Some(details) =
                        self.verify_admission_memoized(runtime, &request, fingerprint)
                    {
                        entry.report.rejected += 1;
                        outcomes.push(ServeOutcome {
                            id: request.id,
                            priority: class,
                            status: ServeStatus::Rejected {
                                error: ServeError::InvalidPlan {
                                    plan: request.plan.name.clone(),
                                    details,
                                },
                            },
                            queue_wait_us: 0,
                            service_us: 0,
                            finish_us: 0,
                            trace_digest: None,
                            usage: TokenUsage::default(),
                            preemptions: 0,
                        });
                        continue;
                    }
                }
                match queue.offer(request) {
                    Ok(()) => {
                        entry.report.admitted += 1;
                        entry.queue_depth.record(queue.depth(class) as u64);
                    }
                    Err(shed) => {
                        let (rejected, error) = *shed;
                        entry.report.rejected += 1;
                        outcomes.push(ServeOutcome {
                            id: rejected.id,
                            priority: class,
                            status: ServeStatus::Rejected { error },
                            queue_wait_us: 0,
                            service_us: 0,
                            finish_us: 0,
                            trace_digest: None,
                            usage: TokenUsage::default(),
                            preemptions: 0,
                        });
                    }
                }
            }

            // (2) Pop a dispatch round.
            let popped = queue.pop_batch(round_size);
            if popped.is_empty() {
                match requests.last() {
                    Some(r) => {
                        now = now.max(r.arrival_us);
                        continue;
                    }
                    None => break,
                }
            }

            // (3) Place each popped request on a lane with an owner group.
            let mut jobs = Vec::with_capacity(popped.len());
            let mut meta = Vec::with_capacity(popped.len());
            for mut request in popped {
                let identity = plans.of(&request.plan);
                let (owner, lane, _) = placement.place(identity, request.priority);
                request.state.deadline_us = request.deadline_us;
                request.state.cancel = Some(request.cancel.clone());
                request.state.reuse = reuse_policy;
                meta.push((request.id, request.priority, request.arrival_us, lane));
                let program = self.programs.get_or_compile_keyed(
                    &identity.key,
                    &request.plan,
                    runtime,
                    engine,
                );
                jobs.push(AssignedJob {
                    lane,
                    owner,
                    plan: Arc::clone(&request.plan),
                    program,
                    state: std::mem::take(&mut request.state),
                });
            }
            let results = self.runner.run_assigned(runtime, jobs);

            // (4) Charge virtual time and record outcomes, in dispatch
            // order (same-lane jobs queue behind each other).
            for ((id, priority, arrival_us, lane), result) in meta.into_iter().zip(results) {
                let start_us = lane_clock[lane].max(now);
                let entry = accum.entry(priority).or_default();
                let (status, service_us, digest, usage) = match result {
                    Ok(mut outcome) => {
                        let service = outcome.state.metadata.latency_us;
                        let digest = outcome.state.trace.digest().ok();
                        entry.report.completed += 1;
                        entry.report.prompt_tokens += outcome.state.metadata.usage.prompt_tokens;
                        entry.report.cached_tokens += outcome.state.metadata.usage.cached_tokens;
                        let events = std::mem::take(&mut outcome.state.metadata.reuse_events);
                        if !events.is_empty() {
                            reuse_rows.push((arrival_us, id, service, events));
                        }
                        (
                            ServeStatus::Completed,
                            service,
                            digest,
                            outcome.state.metadata.usage,
                        )
                    }
                    Err(SpearError::Cancelled { reason, after_us }) => {
                        let status = if reason == "deadline" {
                            entry.report.deadline_exceeded += 1;
                            ServeStatus::DeadlineExceeded { after_us }
                        } else {
                            entry.report.cancelled += 1;
                            ServeStatus::Cancelled { reason }
                        };
                        (status, after_us, None, TokenUsage::default())
                    }
                    Err(error) => {
                        entry.report.failed += 1;
                        (
                            ServeStatus::Failed {
                                error: error.to_string(),
                            },
                            0,
                            None,
                            TokenUsage::default(),
                        )
                    }
                };
                let finish_us = start_us + service_us;
                lane_clock[lane] = finish_us;
                let queue_wait_us = start_us.saturating_sub(arrival_us);
                entry.queue_wait_us.record(queue_wait_us);
                entry.service_us.record(service_us);
                entry.e2e_us.record(finish_us.saturating_sub(arrival_us));
                outcomes.push(ServeOutcome {
                    id,
                    priority,
                    status,
                    queue_wait_us,
                    service_us,
                    finish_us,
                    trace_digest: digest,
                    usage,
                    preemptions: 0,
                });
            }

            // (5) Advance to the earliest time a lane frees up.
            let earliest_free = lane_clock.iter().copied().min().unwrap_or(now);
            now = now.max(earliest_free);
        }

        outcomes.sort_by_key(|o| o.id);
        assert!(
            outcomes.windows(2).all(|w| w[0].id < w[1].id),
            "request ids must be unique"
        );

        let mut report = ServeReport {
            lanes,
            affinity_routing: self.config.affinity_routing,
            makespan_us: lane_clock.iter().copied().max().unwrap_or(0),
            trace_fingerprint: Self::fingerprint(&outcomes),
            interactive: accum
                .remove(&Priority::Interactive)
                .unwrap_or_default()
                .finish(),
            batch: accum.remove(&Priority::Batch).unwrap_or_default().finish(),
            cache: Default::default(),
            kv: Default::default(),
            compile: {
                let mut compile = self.programs.drain_counters();
                compile.verify_memo_hits = self.drain_verify_memo_hits();
                compile
            },
            cluster: None,
            reuse: Self::reuse_ledger(reuse_rows),
        };
        if let (Some(engine), Some(before)) = (engine, cache_before) {
            report.cache = engine.cache_stats().delta_since(&before);
        }
        if let (Some(engine), Some(before)) = (engine, reuse_before) {
            Self::stamp_memo_stats(&mut report.reuse, &before, &engine.reuse_stats());
        }
        ServeRun { outcomes, report }
    }

    /// The memory-pressure path: execute everything exactly as the
    /// unconstrained scheduler would (same owner groups, same per-group
    /// order — byte-identical traces), then schedule the measured token
    /// footprints through the KV iteration scheduler (`crate::kv`) for
    /// timing, preemption, and eviction behaviour. Split this way, every
    /// pool decision lives on the single-threaded virtual clock, so the
    /// contended counters are lane-count-invariant by construction.
    fn run_pressured(
        &self,
        runtime: &Runtime,
        engine: Option<&SimLlm>,
        requests: Vec<ServeRequest>,
        pressure: &KvPressureConfig,
    ) -> ServeRun {
        let cache_before = engine.map(|e| e.cache_stats());
        let reuse_before = engine.map(|e| e.reuse_stats());
        let reuse_policy = self.reuse_policy();
        let run_nonce = self.run_seq.fetch_add(1, Ordering::Relaxed);
        let owner_base = SERVE_OWNER_BASE | (run_nonce << 32);
        let lanes = self.config.lanes;

        let mut accum: HashMap<Priority, ClassAccum> = HashMap::new();
        let mut outcomes: Vec<ServeOutcome> = Vec::with_capacity(requests.len());

        // Phase 0 — admission, in arrival order. The token bucket and the
        // plan verifier apply exactly as in the unconstrained path (both
        // are pure functions of the arrival-ordered stream); depth-based
        // shedding does not, because under pressure the bounded pool —
        // not queue depth — is the backpressure valve: each admitted
        // request is drained into the KV waiting set immediately.
        let mut queue = AdmissionQueue::new(self.config.admission.clone());
        let mut admitted: Vec<ServeRequest> = Vec::with_capacity(requests.len());
        let mut plans = PlanIdentities::default();
        for request in requests {
            let class = request.priority;
            let entry = accum.entry(class).or_default();
            entry.report.submitted += 1;
            if self.config.verify_admission {
                let fingerprint = plans.of(&request.plan).key.fingerprint;
                if let Some(details) =
                    self.verify_admission_memoized(runtime, &request, fingerprint)
                {
                    entry.report.rejected += 1;
                    outcomes.push(ServeOutcome {
                        id: request.id,
                        priority: class,
                        status: ServeStatus::Rejected {
                            error: ServeError::InvalidPlan {
                                plan: request.plan.name.clone(),
                                details,
                            },
                        },
                        queue_wait_us: 0,
                        service_us: 0,
                        finish_us: 0,
                        trace_digest: None,
                        usage: TokenUsage::default(),
                        preemptions: 0,
                    });
                    continue;
                }
            }
            match queue.offer(request) {
                Ok(()) => {
                    // The queue is only the token-bucket gate here: what
                    // it accepts is drained straight back out.
                    if let Some(request) = queue.pop() {
                        entry.report.admitted += 1;
                        admitted.push(request);
                    }
                }
                Err(shed) => {
                    let (rejected, error) = *shed;
                    entry.report.rejected += 1;
                    outcomes.push(ServeOutcome {
                        id: rejected.id,
                        priority: class,
                        status: ServeStatus::Rejected { error },
                        queue_wait_us: 0,
                        service_us: 0,
                        finish_us: 0,
                        trace_digest: None,
                        usage: TokenUsage::default(),
                        preemptions: 0,
                    });
                }
            }
        }

        // Phase 1 — execute, with the unconstrained path's placement:
        // same (class, affinity-key) owner groups, same hashed lane,
        // members in arrival order. Lanes parallelize host execution
        // only; results and digests are placement-invariant.
        let mut placement = Placement::new(owner_base, &self.config);
        let mut jobs = Vec::with_capacity(admitted.len());
        let mut meta = Vec::with_capacity(admitted.len());
        for mut request in admitted {
            // `grouped` ⇒ the request shares a cache owner with its
            // affinity family, and its `shared_prefix_tokens` map to the
            // family's shared pool blocks. Isolated requests share no
            // owner, hence no shared KV: their seed is unique and their
            // prefix claim is dropped.
            let identity = plans.of(&request.plan);
            let (owner, lane, grouped) = placement.place(identity, request.priority);
            let family_seed = if grouped {
                identity.affinity_seed
            } else {
                fnv1a(&request.id.to_le_bytes())
            };
            let shared_prefix_tokens = if grouped {
                request.shared_prefix_tokens
            } else {
                0
            };
            request.state.deadline_us = request.deadline_us;
            request.state.cancel = Some(request.cancel.clone());
            request.state.reuse = reuse_policy;
            meta.push((
                request.id,
                request.priority,
                request.arrival_us,
                shared_prefix_tokens,
                family_seed,
            ));
            let program =
                self.programs
                    .get_or_compile_keyed(&identity.key, &request.plan, runtime, engine);
            jobs.push(AssignedJob {
                lane,
                owner,
                plan: Arc::clone(&request.plan),
                program,
                state: std::mem::take(&mut request.state),
            });
        }
        let results = self.runner.run_assigned(runtime, jobs);

        // Phase 2 — schedule the measured footprints through the bounded
        // pool. Completed requests carry their real prefill/decode token
        // counts; cancelled and failed ones pass through with an empty
        // footprint but keep their measured partial service time.
        let mut inputs = Vec::with_capacity(meta.len());
        let mut executed = Vec::with_capacity(meta.len());
        let mut reuse_rows: Vec<(u64, u64, u64, Vec<ReuseEvent>)> = Vec::new();
        for ((id, priority, arrival_us, shared_prefix_tokens, family_seed), result) in
            meta.into_iter().zip(results)
        {
            let entry = accum.entry(priority).or_default();
            let mut gen_calls = 1u64;
            let (status, exec_service_us, digest, usage) = match result {
                Ok(mut outcome) => {
                    let digest = outcome.state.trace.digest().ok();
                    entry.report.completed += 1;
                    entry.report.prompt_tokens += outcome.state.metadata.usage.prompt_tokens;
                    entry.report.cached_tokens += outcome.state.metadata.usage.cached_tokens;
                    gen_calls = outcome.state.metadata.gen_calls.max(1);
                    let events = std::mem::take(&mut outcome.state.metadata.reuse_events);
                    if !events.is_empty() {
                        reuse_rows.push((
                            arrival_us,
                            id,
                            outcome.state.metadata.latency_us,
                            events,
                        ));
                    }
                    (
                        ServeStatus::Completed,
                        outcome.state.metadata.latency_us,
                        digest,
                        outcome.state.metadata.usage,
                    )
                }
                Err(SpearError::Cancelled { reason, after_us }) => {
                    let status = if reason == "deadline" {
                        entry.report.deadline_exceeded += 1;
                        ServeStatus::DeadlineExceeded { after_us }
                    } else {
                        entry.report.cancelled += 1;
                        ServeStatus::Cancelled { reason }
                    };
                    (status, after_us, None, TokenUsage::default())
                }
                Err(error) => {
                    entry.report.failed += 1;
                    (
                        ServeStatus::Failed {
                            error: error.to_string(),
                        },
                        0,
                        None,
                        TokenUsage::default(),
                    )
                }
            };
            let completed = status == ServeStatus::Completed;
            // KV footprint of the sequence's device residency. Usage
            // totals accumulate over every GEN call of the plan, but the
            // calls run serially over one growing context — the resident
            // footprint is the per-call prompt (averaged: calls share the
            // prompt's prefix) plus everything decoded across calls.
            inputs.push(SeqInput {
                id,
                priority,
                arrival_us,
                prompt_tokens: if completed {
                    usage.prompt_tokens / gen_calls
                } else {
                    0
                },
                completion_tokens: if completed {
                    usage.completion_tokens
                } else {
                    0
                },
                shared_prefix_tokens: if completed { shared_prefix_tokens } else { 0 },
                family_seed,
            });
            executed.push((
                id,
                priority,
                arrival_us,
                status,
                exec_service_us,
                digest,
                usage,
            ));
        }
        let sim = kv::simulate(&inputs, pressure);

        for ((id, priority, arrival_us, status, exec_service_us, digest, usage), timing) in
            executed.into_iter().zip(&sim.timings)
        {
            let completed = status == ServeStatus::Completed;
            // Completed requests take the KV scheduler's token-level
            // timing; non-completed ones keep their measured partial
            // service, placed at their scheduling instant.
            let service_us = if completed {
                timing.service_us
            } else {
                exec_service_us
            };
            let finish_us = if completed {
                timing.finish_us
            } else {
                timing.start_us + exec_service_us
            };
            let queue_wait_us = timing.start_us.saturating_sub(arrival_us);
            let entry = accum.entry(priority).or_default();
            entry.queue_wait_us.record(queue_wait_us);
            entry.service_us.record(service_us);
            entry.e2e_us.record(finish_us.saturating_sub(arrival_us));
            outcomes.push(ServeOutcome {
                id,
                priority,
                status,
                queue_wait_us,
                service_us,
                finish_us,
                trace_digest: digest,
                usage,
                preemptions: timing.preemptions,
            });
        }
        for (class, depth) in &sim.depth_samples {
            accum.entry(*class).or_default().queue_depth.record(*depth);
        }
        for (i, class) in Priority::ALL.iter().enumerate() {
            accum.entry(*class).or_default().report.preempted = sim.preempted_by_class[i];
        }

        outcomes.sort_by_key(|o| o.id);
        assert!(
            outcomes.windows(2).all(|w| w[0].id < w[1].id),
            "request ids must be unique"
        );
        let mut report = ServeReport {
            lanes,
            affinity_routing: self.config.affinity_routing,
            makespan_us: sim.makespan_us,
            trace_fingerprint: Self::fingerprint(&outcomes),
            interactive: accum
                .remove(&Priority::Interactive)
                .unwrap_or_default()
                .finish(),
            batch: accum.remove(&Priority::Batch).unwrap_or_default().finish(),
            cache: Default::default(),
            kv: sim.report,
            compile: {
                let mut compile = self.programs.drain_counters();
                compile.verify_memo_hits = self.drain_verify_memo_hits();
                compile
            },
            cluster: None,
            reuse: Self::reuse_ledger(reuse_rows),
        };
        if let (Some(engine), Some(before)) = (engine, cache_before) {
            report.cache = engine.cache_stats().delta_since(&before);
        }
        if let (Some(engine), Some(before)) = (engine, reuse_before) {
            Self::stamp_memo_stats(&mut report.reuse, &before, &engine.reuse_stats());
        }
        ServeRun { outcomes, report }
    }

    /// The [`ReusePolicy`] stamped on every admitted request's
    /// [`spear_core::ExecState`].
    fn reuse_policy(&self) -> ReusePolicy {
        if self.config.reuse {
            ReusePolicy::Exact
        } else {
            ReusePolicy::Off
        }
    }

    /// Deterministic reuse ledger: classify each duplicate GEN as `coalesced`
    /// (its request arrived while the nominal leader — the first arrival for
    /// that memo key — was still in service) or a plain cache `hit`
    /// (arrived after the leader finished). Built from arrival order and
    /// virtual service times only, so the counters are identical at any lane
    /// count even though *which* physical call populated the memo varies.
    fn reuse_ledger(mut rows: Vec<(u64, u64, u64, Vec<ReuseEvent>)>) -> ReuseReport {
        rows.sort_by_key(|&(arrival_us, id, _, _)| (arrival_us, id));
        let mut leaders: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut report = ReuseReport::default();
        for (arrival_us, _, service_us, events) in rows {
            for event in events {
                match leaders.entry(event.key) {
                    Entry::Vacant(slot) => {
                        slot.insert((arrival_us, service_us));
                    }
                    Entry::Occupied(slot) => {
                        let (lead_arrival, lead_service) = *slot.get();
                        if arrival_us < lead_arrival.saturating_add(lead_service) {
                            report.coalesced += 1;
                        } else {
                            report.hits += 1;
                        }
                        report.saved_calls += 1;
                        report.saved_tokens += event.prompt_tokens + event.completion_tokens;
                    }
                }
            }
        }
        report
    }

    /// Fill in the memo-occupancy half of a [`ReuseReport`] from engine-side
    /// [`MemoStats`] snapshots taken before and after the run.
    fn stamp_memo_stats(reuse: &mut ReuseReport, before: &MemoStats, after: &MemoStats) {
        reuse.inserted = after.insertions.saturating_sub(before.insertions);
        reuse.evicted = after.evictions.saturating_sub(before.evictions);
        reuse.bytes = after.resident_bytes;
    }

    /// Order-canonical fold of statuses and trace digests, keyed by id.
    fn fingerprint(outcomes: &[ServeOutcome]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for o in outcomes {
            mix(o.id);
            let tag = match &o.status {
                ServeStatus::Completed => 1,
                ServeStatus::Rejected { .. } => 2,
                ServeStatus::DeadlineExceeded { .. } => 3,
                ServeStatus::Cancelled { .. } => 4,
                ServeStatus::Failed { .. } => 5,
            };
            mix(tag);
            mix(o.trace_digest.unwrap_or(0));
        }
        hash
    }
}

/// Statically verify a request's plan at admission: full IR verification
/// against the runtime's registries, seeded with the prompt keys already
/// present in the request's starting state, with the request's service
/// deadline as the feasibility budget. When the IR verifier is clean and
/// a deadline is set, the decision is refined with the bytecode abstract
/// interpreter's interval bounds
/// ([`spear_core::analysis::absint::analyze`]): its latency floor walks
/// only paths that survive statically-decided CHECKs, so it is at least
/// the IR floor and can expose infeasibility the slot-order walk misses —
/// refinement only ever *adds* rejections, keeping the previous decisions
/// a strict subset. Returns the rendered error-severity diagnostics, or
/// `None` when the plan is sound enough to run.
fn verify_for_admission(runtime: &Runtime, request: &ServeRequest) -> Option<Vec<String>> {
    let mut verifier = spear_core::analysis::Verifier::with_runtime(runtime);
    for key in request.state.prompts.keys() {
        verifier = verifier.assume_prompt(key);
    }
    if let Some(deadline) = request.deadline_us {
        verifier = verifier.deadline_us(deadline);
    }
    let mut details: Vec<String> = verifier
        .verify(&request.plan)
        .iter()
        .filter(|d| d.is_error())
        .map(ToString::to_string)
        .collect();
    if details.is_empty() {
        if let Some(deadline) = request.deadline_us {
            if let Ok(program) = spear_core::vm::compile(&request.plan) {
                let bounds = spear_core::analysis::analyze(
                    &program,
                    &spear_core::analysis::ResourceModel::default(),
                );
                if bounds.latency_lo_us > deadline {
                    details.push(
                        spear_core::analysis::Diagnostic::plan_level(
                            &spear_core::analysis::lints::BUDGET_INFEASIBLE,
                            format!(
                                "every executable path needs at least {} µs of generation \
                                 but the deadline is {deadline} µs (bytecode interval bounds)",
                                bounds.latency_lo_us
                            ),
                        )
                        .to_string(),
                    );
                }
            }
        }
    }
    if details.is_empty() {
        None
    } else {
        Some(details)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_core::history::RefinementMode;
    use spear_core::llm::EchoLlm;
    use spear_core::pipeline::Pipeline;
    use spear_core::plan::{lower, LoweredPlan};
    use spear_core::runtime::ExecState;

    fn runtime() -> Runtime {
        Runtime::builder().llm(Arc::new(EchoLlm::default())).build()
    }

    fn plan(gens: usize) -> Arc<LoweredPlan> {
        let mut b = Pipeline::builder("serve_test").create_text(
            "p",
            "Answer briefly: {{ctx:q}}",
            RefinementMode::Manual,
        );
        for i in 0..gens {
            b = b.gen(&format!("a{i}"), "p");
        }
        Arc::new(lower(&b.build()).expect("lowers"))
    }

    fn request(id: u64, class: Priority, arrival_us: u64) -> ServeRequest {
        let mut state = ExecState::new();
        state.context.set("q", format!("question {id}"));
        ServeRequest::new(id, class, plan(1), state, arrival_us)
    }

    #[test]
    fn two_plans_with_one_affinity_key_share_one_owner_per_class() {
        // Same base text, different GEN counts: two plans (two
        // fingerprints) with one affinity key.
        let (one, two) = (plan(1), plan(2));
        let mut plans = PlanIdentities::default();
        let config = ServeConfig::default();
        let mut placement = Placement::new(100, &config);
        let first = placement.place(plans.of(&one), Priority::Interactive);
        assert_eq!(first.0, 100);
        assert!(first.2, "keyed plans are grouped");
        assert_eq!(
            placement.place(plans.of(&two), Priority::Interactive),
            first
        );
        let batch = placement.place(plans.of(&one), Priority::Batch);
        assert_eq!((batch.0, batch.1), (101, first.1), "a group per class");
        assert_eq!(placement.place(plans.of(&two), Priority::Batch), batch);

        // Affinity off: a fresh owner and the next lane, every time.
        let config = ServeConfig {
            affinity_routing: false,
            ..config
        };
        let mut placement = Placement::new(100, &config);
        let placed: Vec<_> = (0..3)
            .map(|_| placement.place(plans.of(&one), Priority::Interactive))
            .collect();
        let lanes = config.lanes;
        assert_eq!(
            placed,
            [
                (100, 0, false),
                (101, 1 % lanes, false),
                (102, 2 % lanes, false)
            ]
        );
    }

    #[test]
    fn all_requests_get_exactly_one_outcome() {
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let requests: Vec<_> = (0..20)
            .map(|i| {
                request(
                    i,
                    if i % 3 == 0 {
                        Priority::Batch
                    } else {
                        Priority::Interactive
                    },
                    i * 10,
                )
            })
            .collect();
        let run = node.run(&rt, None, requests);
        assert_eq!(run.outcomes.len(), 20);
        assert!(run
            .outcomes
            .iter()
            .all(|o| o.status == ServeStatus::Completed));
        let ids: Vec<u64> = run.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
        assert_eq!(
            run.report.interactive.completed + run.report.batch.completed,
            20
        );
        assert!(run.report.makespan_us > 0);
        assert!(run.outcome(7).is_some());
        assert!(run.outcome(99).is_none());
    }

    #[test]
    fn admission_verification_is_memoized_per_plan_family() {
        // Ten requests sharing one plan family (same fingerprint, same
        // prompt keys, no deadline): the first admission verifies, the
        // other nine hit the memo.
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let requests: Vec<_> = (0..10)
            .map(|i| request(i, Priority::Interactive, i * 10))
            .collect();
        let run = node.run(&rt, None, requests);
        assert_eq!(run.report.compile.verify_memo_hits, 9);

        // The memo is per-run state: a second run on the same node
        // re-verifies once, it does not carry 10 stale entries over.
        let requests: Vec<_> = (0..10)
            .map(|i| request(i, Priority::Interactive, i * 10))
            .collect();
        let run = node.run(&rt, None, requests);
        assert_eq!(run.report.compile.verify_memo_hits, 9);
    }

    #[test]
    fn service_deadline_produces_deadline_exceeded() {
        // Admission verification off: a 1 µs deadline is statically
        // infeasible and would be shed up front; this test exercises the
        // *runtime* deadline gate between plan slots.
        let node = ServeNode::new(ServeConfig {
            verify_admission: false,
            ..ServeConfig::default()
        });
        let rt = runtime();
        let mut state = ExecState::new();
        state.context.set("q", "slow question");
        // Two GEN slots with a 1us budget: the first completes (crossing
        // the line), the gate cancels before the second.
        let r = ServeRequest::new(1, Priority::Interactive, plan(2), state, 0).with_deadline_us(1);
        let run = node.run(&rt, None, vec![r]);
        let o = run.outcome(1).unwrap();
        assert!(
            matches!(o.status, ServeStatus::DeadlineExceeded { after_us } if after_us > 1),
            "{:?}",
            o.status
        );
        assert!(o.service_us > 0, "partial service time is charged");
        assert_eq!(run.report.interactive.deadline_exceeded, 1);
    }

    #[test]
    fn tripped_token_cancels_without_execution_effects() {
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let r = request(5, Priority::Batch, 0);
        r.cancel_handle().cancel();
        let run = node.run(&rt, None, vec![r]);
        let o = run.outcome(5).unwrap();
        assert!(
            matches!(&o.status, ServeStatus::Cancelled { reason } if reason == "cancelled"),
            "{:?}",
            o.status
        );
        assert_eq!(o.service_us, 0);
        assert_eq!(run.report.batch.cancelled, 1);
    }

    #[test]
    fn depth_overload_sheds_explicitly() {
        let node = ServeNode::new(ServeConfig {
            lanes: 1,
            quantum: 1,
            admission: AdmissionConfig {
                max_depth: 2,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        });
        let rt = runtime();
        // All arrive at t=0: one is dispatched per round; with depth 2,
        // later arrivals shed.
        let requests: Vec<_> = (0..6)
            .map(|i| request(i, Priority::Interactive, 0))
            .collect();
        let run = node.run(&rt, None, requests);
        let rejected = run
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, ServeStatus::Rejected { .. }))
            .count();
        assert!(rejected > 0, "overflow must shed");
        assert_eq!(run.report.interactive.rejected, rejected as u64);
        assert_eq!(
            run.report.interactive.admitted + run.report.interactive.rejected,
            6
        );
        for o in &run.outcomes {
            if let ServeStatus::Rejected { error } = &o.status {
                assert!(matches!(error, ServeError::Overloaded { .. }));
            }
        }
    }

    #[test]
    fn invalid_plans_are_rejected_at_admission() {
        // A plan that GENs from a never-created prompt key is caught by
        // the IR verifier at admission: rejected with a stable lint code
        // before any LLM call, while sound neighbours run to completion.
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let bad = Arc::new(
            lower(&Pipeline::builder("bad").gen("a", "missing_prompt").build())
                .expect("structurally sound, so it lowers"),
        );
        let requests = vec![
            request(1, Priority::Interactive, 0),
            ServeRequest::new(2, Priority::Interactive, bad, ExecState::new(), 0),
            request(3, Priority::Interactive, 0),
        ];
        let run = node.run(&rt, None, requests);
        assert_eq!(run.outcome(1).unwrap().status, ServeStatus::Completed);
        let o = run.outcome(2).unwrap();
        match &o.status {
            ServeStatus::Rejected {
                error: ServeError::InvalidPlan { plan, details },
            } => {
                assert_eq!(plan, "bad");
                assert!(
                    details.iter().any(|d| d.contains("SPEAR-E004")),
                    "{details:?}"
                );
            }
            other => panic!("expected admission rejection, got {other:?}"),
        }
        assert_eq!(o.service_us, 0, "rejected before any execution");
        assert_eq!(run.outcome(3).unwrap().status, ServeStatus::Completed);
        assert_eq!(run.report.interactive.rejected, 1);
    }

    #[test]
    fn admission_verifier_respects_preseeded_prompts() {
        // The same "missing key" plan is sound when the request's own
        // starting state carries the prompt: the verifier seeds from it.
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let plan = Arc::new(
            lower(&Pipeline::builder("pre").gen("a", "preexisting").build()).expect("lowers"),
        );
        let state = ExecState::new();
        state
            .prompts
            .define("preexisting", "seeded text", "test", RefinementMode::Manual);
        let run = node.run(
            &rt,
            None,
            vec![ServeRequest::new(1, Priority::Interactive, plan, state, 0)],
        );
        assert_eq!(run.outcome(1).unwrap().status, ServeStatus::Completed);
    }

    #[test]
    fn infeasible_deadlines_are_rejected_at_admission() {
        // Two GEN slots cost at least 200 virtual µs; a 1 µs deadline can
        // never be met, so the verifier sheds the request up front
        // (SPEAR-E005) instead of burning an LLM call to find out.
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let mut state = ExecState::new();
        state.context.set("q", "doomed question");
        let r = ServeRequest::new(1, Priority::Interactive, plan(2), state, 0).with_deadline_us(1);
        let run = node.run(&rt, None, vec![r]);
        match &run.outcome(1).unwrap().status {
            ServeStatus::Rejected {
                error: ServeError::InvalidPlan { details, .. },
            } => assert!(
                details.iter().any(|d| d.contains("SPEAR-E005")),
                "{details:?}"
            ),
            other => panic!("expected admission rejection, got {other:?}"),
        }
    }

    #[test]
    fn pipeline_failures_are_contained() {
        // Runtime failures (as opposed to statically detectable defects)
        // still surface as Failed without poisoning neighbouring requests.
        let node = ServeNode::new(ServeConfig::default());
        let rt = Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .agent(
                "boom",
                Arc::new(spear_core::agent::FnAgent(
                    |_: &spear_core::value::Value, _: &spear_core::context::Context| {
                        Err(SpearError::Agent {
                            agent: "boom".into(),
                            reason: "intentional test failure".into(),
                        })
                    },
                )),
            )
            .build();
        let failing = Arc::new(
            lower(
                &Pipeline::builder("failing")
                    .create_text("p", "payload", RefinementMode::Manual)
                    .delegate(
                        "boom",
                        spear_core::ops::PayloadSpec::PromptKey("p".into()),
                        "out",
                    )
                    .build(),
            )
            .expect("lowers"),
        );
        let requests = vec![
            request(1, Priority::Interactive, 0),
            ServeRequest::new(2, Priority::Interactive, failing, ExecState::new(), 0),
            request(3, Priority::Interactive, 0),
        ];
        let run = node.run(&rt, None, requests);
        assert_eq!(run.outcome(1).unwrap().status, ServeStatus::Completed);
        assert!(matches!(
            run.outcome(2).unwrap().status,
            ServeStatus::Failed { .. }
        ));
        assert_eq!(run.outcome(3).unwrap().status, ServeStatus::Completed);
        assert_eq!(run.report.interactive.failed, 1);
    }

    #[test]
    fn virtual_queueing_orders_lane_time() {
        // One lane: three simultaneous arrivals queue behind each other,
        // so finish times strictly increase and waits accumulate.
        let node = ServeNode::new(ServeConfig {
            lanes: 1,
            quantum: 8,
            affinity_routing: false,
            ..ServeConfig::default()
        });
        let rt = runtime();
        let requests: Vec<_> = (0..3)
            .map(|i| request(i, Priority::Interactive, 0))
            .collect();
        let run = node.run(&rt, None, requests);
        let finishes: Vec<u64> = run.outcomes.iter().map(|o| o.finish_us).collect();
        assert!(finishes[0] < finishes[1] && finishes[1] < finishes[2]);
        assert_eq!(run.outcomes[0].queue_wait_us, 0);
        assert!(run.outcomes[2].queue_wait_us > run.outcomes[1].queue_wait_us);
        assert_eq!(run.report.makespan_us, finishes[2]);
    }

    #[test]
    fn affinity_groups_share_lanes_and_owners_deterministically() {
        // Same plan (same affinity key) => same lane; report identical
        // across repeated runs of a fresh node.
        let config = ServeConfig {
            lanes: 4,
            ..ServeConfig::default()
        };
        let rt = runtime();
        let make = || {
            let shared = plan(1);
            (0..8)
                .map(|i| {
                    let mut state = ExecState::new();
                    state.context.set("q", format!("question {i}"));
                    ServeRequest::new(i, Priority::Interactive, Arc::clone(&shared), state, i * 5)
                })
                .collect::<Vec<_>>()
        };
        let a = ServeNode::new(config.clone()).run(&rt, None, make());
        let b = ServeNode::new(config).run(&rt, None, make());
        assert_eq!(a.report.trace_fingerprint, b.report.trace_fingerprint);
        assert_eq!(a.report.makespan_us, b.report.makespan_us);
    }
}
