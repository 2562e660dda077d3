//! The serving scheduler: one request lifecycle, timed by one of two
//! virtual clocks.
//!
//! ## The lifecycle
//!
//! Under either clock a request takes the same five steps, written once on
//! the private per-run `Lifecycle`: **admit** (verify the plan, then the
//! token-bucket and depth gate; a refusal is a typed `Rejected` outcome),
//! **job** (place it on a lane under a cache owner, stamp deadline, cancel
//! token and reuse policy on its state, fetch its compiled program),
//! **settle** (count the executed request in its class and keep its reuse
//! row), **record** (the clock's start / service / finish enter the
//! histograms and the [`ServeOutcome`]) and **finish** (sort, fingerprint,
//! assemble the [`ServeReport`]). The lifecycle owns every piece of
//! per-run state, so a [`ServeNode`] holds only what outlives a run:
//! configuration, lanes, program cache.
//!
//! Between *job* and *settle* the execution's result is reduced to what
//! serving keeps — status, measured service, trace digest, usage, GEN
//! calls, reuse events — on the lane that ran it, the moment the job ends
//! (`Settled::of`, [`BatchRunner::run_assigned`]'s `finish`). The job's
//! state (trace, context, prompt versions) is freed there and never comes
//! back to the scheduler thread, so the pool clock, which executes a whole
//! run before it times any of it, holds one small `Settled` per request
//! rather than every request's state at once.
//!
//! ## Two clocks
//!
//! [`ServeConfig::pressure`] names the modelled device and with it *when*
//! things happen, never *what* a request computes (DESIGN.md §11 says why
//! the second clock is not the first with an infinite pool).
//!
//! - **Lane clock** (`None`, unbounded memory): a discrete-event loop. Each
//!   round admits every request whose arrival has been reached, pops up to
//!   `lanes × quantum` from the priority queue, executes them as one
//!   assigned batch charging each job's virtual service time to its lane,
//!   and advances to the earliest moment a lane frees up (or to the next
//!   arrival when idle). Execution feeds back into admission: service time
//!   moves `now`, and `now` decides the queue depth the next arrival meets.
//! - **Pool clock** (`Some`, a bounded KV block pool): admit the whole
//!   stream in arrival order, execute it as one batch, then let
//!   [`crate::kv`]'s token-level iteration scheduler time the measured
//!   footprints — every start, service, finish and preemption is its.
//!
//! [`BatchRunner::run_assigned`] does the host work for both (the calling
//! thread runs the first active lane, each further active lane gets a
//! scoped thread), but all *timing* is virtual, so a run is reproducible
//! regardless of the host machine.
//!
//! ## Cache-affinity routing
//!
//! With `affinity_routing` on, requests whose programs share an
//! [`affinity seed`](spear_core::vm::Program::affinity_seed) — i.e.
//! whose prompts share a structured prefix — are mapped to the same cache
//! owner and the same lane. Same-owner jobs execute sequentially in
//! arrival order on one thread, so each sees its predecessors' prefix
//! insertions deterministically; the owner-aware cache in `spear-llm`
//! turns that into real hit-rate, as `tests/determinism.rs` pins. With
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
//! time. Under the lane clock queue waits, end-to-end latencies, and
//! depth-based shedding do scale with capacity — that is the point of
//! adding lanes — so the *report* is per-configuration while the *traces*
//! are not; the pool clock's report is lane-count-invariant too.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use spear_core::batch::{AssignedJob, BatchOutcome, BatchRunner};
use spear_core::error::SpearError;
use spear_core::llm::ReusePolicy;
use spear_core::metadata::{ReuseEvent, TokenUsage};
use spear_core::runtime::Runtime;
use spear_kv::shard::{fnv1a, fnv1a_extend, FNV1A_OFFSET};
use spear_llm::{CacheStats, LruMap, MemoStats, SimLlm};

use crate::error::ServeError;
use crate::kv::{self, KvPressureConfig, SeqInput, SeqTiming};
use crate::metrics::{ClassReport, Histogram, KvReport, ReuseReport, ServeReport};
use crate::program_cache::ProgramCache;
use crate::queue::{AdmissionConfig, AdmissionQueue};
use crate::request::{Priority, ServeRequest};

/// Owner-id namespace for serve-assigned cache groups: disjoint from
/// `BatchRunner`'s small sequential ids.
const SERVE_OWNER_BASE: u64 = 1 << 62;

/// Distinct plan families the admission-verification memo holds; beyond
/// that the least recently used verdict goes (overflow means an
/// adversarially diverse workload; a miss just re-verifies, it never
/// changes decisions).
const VERIFY_MEMO_CAPACITY: usize = 1024;

/// Scheduler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker lanes to dispatch onto (also the `BatchRunner` pool size).
    pub lanes: usize,
    /// Maximum requests dispatched per lane per round.
    pub quantum: usize,
    /// Route same-affinity-seed requests to a shared cache owner and lane.
    pub affinity_routing: bool,
    /// Admission-control limits.
    pub admission: AdmissionConfig,
    /// Statically verify each request's plan at admission and reject
    /// requests whose plan has error-severity defects (bad jump targets,
    /// undefined prompt keys, budget-infeasible deadlines, …) before any
    /// LLM call or queue slot is spent. Default on; turn off only for
    /// workloads known-verified out of band.
    pub verify_admission: bool,
    /// The modelled device's memory. `Some`: a bounded KV block pool with
    /// token-level continuous batching (see [`crate::kv`]) times the run.
    /// Executions stay byte-identical to the unbounded device — the pool
    /// shapes *timing* (queue waits, service, preemptions, evictions), not
    /// results — and the pool itself is the backpressure valve:
    /// queue-depth shedding never binds (token bucket and plan
    /// verification still apply). `None` = unbounded memory, timed by
    /// `lanes` × `quantum` dispatch rounds.
    pub pressure: Option<KvPressureConfig>,
    /// Capacity of the node's compiled-program cache
    /// ([`crate::program_cache::ProgramCache`]): distinct plan
    /// fingerprints held resident. Admissions beyond capacity evict
    /// least-recently-used programs (counted in
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

/// One run's lane and cache-owner placement. With affinity routing on,
/// every (class, affinity seed) pair is one group with one owner and one
/// hashed lane, however many distinct plans carry the seed; everything
/// else gets a fresh owner and the next lane round-robin.
struct Placement {
    owner_base: u64,
    lanes: usize,
    affinity_routing: bool,
    /// Affinity seed -> (owner, lane), one table per priority class.
    groups: [HashMap<u64, (u64, usize)>; Priority::ALL.len()],
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

    /// `(owner, lane, group)` for a request of `class` running a plan
    /// with `affinity_seed`; `group` is the affinity seed it was grouped
    /// by, `None` when it runs under an owner of its own.
    fn place(&mut self, affinity_seed: Option<u64>, class: Priority) -> (u64, usize, Option<u64>) {
        let seed = match affinity_seed {
            Some(seed) if self.affinity_routing => seed,
            _ => {
                let lane = self.round_robin % self.lanes;
                self.round_robin += 1;
                return (self.fresh_owner(), lane, None);
            }
        };
        if let Some(&(owner, lane)) = self.groups[class as usize].get(&seed) {
            return (owner, lane, Some(seed));
        }
        let lane = (seed % self.lanes as u64) as usize;
        let owner = self.fresh_owner();
        self.groups[class as usize].insert(seed, (owner, lane));
        (owner, lane, Some(seed))
    }
}

/// What stays with the scheduler once a request's plan and state have
/// moved into its [`AssignedJob`].
struct Ticket {
    id: u64,
    class: Priority,
    arrival_us: u64,
    lane: usize,
    /// KV chain-hash seed: the affinity group's, or unique to the request
    /// when it runs under an owner of its own.
    family_seed: u64,
    /// Leading prompt tokens that map to the group's shared KV blocks
    /// (zero outside a group: no shared owner, no shared KV).
    shared_prefix_tokens: u64,
}

/// What an execution amounted to, before any clock has placed it in time.
struct Settled {
    status: ServeStatus,
    /// Virtual µs the execution itself accumulated: the whole run when
    /// completed, the part before the gate tripped when cancelled, zero
    /// when failed.
    service_us: u64,
    digest: Option<u64>,
    /// Zero unless completed.
    usage: TokenUsage,
    /// GEN calls the usage totals accumulate over (1 unless completed).
    gen_calls: u64,
    /// Per-GEN reuse events of a completed execution (empty otherwise),
    /// until [`Lifecycle::settle`] moves them into the reuse rows.
    reuse_events: Vec<ReuseEvent>,
}

/// One serving run's request lifecycle and every piece of state that lives
/// exactly as long as the run (module docs). The two timing models call
/// these steps; neither touches the accumulators behind them.
struct Lifecycle<'a> {
    node: &'a ServeNode,
    runtime: &'a Runtime,
    engine: Option<&'a SimLlm>,
    /// Engine counters when the run began; the report carries the deltas.
    engine_before: Option<(CacheStats, MemoStats)>,
    reuse_policy: ReusePolicy,
    /// Admission verdicts by plan family ([`verify_key`]). Verification
    /// also reads the runtime's registries and each run may bring another
    /// runtime, which is why the memo lives here and not on the node.
    verify_memo: LruMap<u64, Option<Vec<String>>>,
    queue: AdmissionQueue,
    placement: Placement,
    /// Indexed by `Priority as usize`, like [`Placement::groups`].
    classes: [ClassAccum; Priority::ALL.len()],
    outcomes: Vec<ServeOutcome>,
    /// (arrival_us, id, service_us, per-GEN reuse events) of completed
    /// requests, for the deterministic reuse ledger.
    reuse_rows: Vec<(u64, u64, u64, Vec<ReuseEvent>)>,
    /// Largest `finish_us` recorded: the run's makespan under either clock.
    last_finish_us: u64,
}

impl<'a> Lifecycle<'a> {
    fn begin(
        node: &'a ServeNode,
        runtime: &'a Runtime,
        engine: Option<&'a SimLlm>,
        requests: &[ServeRequest],
    ) -> Self {
        let run_nonce = node.run_seq.fetch_add(1, Ordering::Relaxed);
        let mut classes: [ClassAccum; Priority::ALL.len()] = Default::default();
        for request in requests {
            classes[request.priority as usize].report.submitted += 1;
        }
        Self {
            node,
            runtime,
            engine,
            engine_before: engine.map(|e| (e.cache_stats(), e.reuse_stats())),
            reuse_policy: if node.config.reuse {
                ReusePolicy::Exact
            } else {
                ReusePolicy::Off
            },
            verify_memo: LruMap::new(VERIFY_MEMO_CAPACITY),
            queue: AdmissionQueue::new(node.config.admission.clone()),
            placement: Placement::new(SERVE_OWNER_BASE | (run_nonce << 32), &node.config),
            classes,
            outcomes: Vec::with_capacity(requests.len()),
            reuse_rows: Vec::new(),
            last_finish_us: 0,
        }
    }

    /// Memoized [`verify_for_admission`]: the full verifier runs once per
    /// plan family per run; later family members reuse the verdict
    /// (rejection details included).
    fn verify(&mut self, request: &ServeRequest) -> Option<Vec<String>> {
        let key = verify_key(request, request.plan.fingerprint());
        if let Some(cached) = self.verify_memo.get(&key) {
            return cached.clone();
        }
        let verdict = verify_for_admission(self.runtime, request);
        self.verify_memo.insert(key, verdict.clone());
        verdict
    }

    fn reject(&mut self, id: u64, class: Priority, error: ServeError) {
        self.classes[class as usize].report.rejected += 1;
        self.outcomes.push(ServeOutcome {
            id,
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

    /// Verify the request's plan, then offer it to the queue. `true`: it
    /// is queued and counted admitted; `false`: it has its `Rejected`
    /// outcome.
    fn admit(&mut self, request: ServeRequest) -> bool {
        let (id, class) = (request.id, request.priority);
        if self.node.config.verify_admission {
            if let Some(details) = self.verify(&request) {
                let plan = request.plan.name().to_owned();
                self.reject(id, class, ServeError::InvalidPlan { plan, details });
                return false;
            }
        }
        match self.queue.offer(request) {
            Ok(()) => {
                self.classes[class as usize].report.admitted += 1;
                true
            }
            Err(shed) => {
                let (_, error) = *shed;
                self.reject(id, class, error);
                false
            }
        }
    }

    fn sample_depth(&mut self, class: Priority, depth: u64) {
        self.classes[class as usize].queue_depth.record(depth);
    }

    /// Turn a dequeued request into its executable job plus the ticket
    /// that identifies the result. Callers must make these calls in their
    /// dispatch order: owner ids and program-cache recency follow it.
    fn job(&mut self, mut request: ServeRequest) -> (AssignedJob, Ticket) {
        let (owner, lane, group) = self
            .placement
            .place(request.plan.affinity_seed(), request.priority);
        let (family_seed, shared_prefix_tokens) = match group {
            Some(seed) => (seed, request.shared_prefix_tokens),
            None => (fnv1a(&request.id.to_le_bytes()), 0),
        };
        let ticket = Ticket {
            id: request.id,
            class: request.priority,
            arrival_us: request.arrival_us,
            lane,
            family_seed,
            shared_prefix_tokens,
        };
        request.state.deadline_us = request.deadline_us;
        request.state.cancel = Some(request.cancel);
        request.state.reuse = self.reuse_policy;
        let program = self.node.programs.resident(&request.plan);
        let job = AssignedJob {
            lane,
            owner,
            program,
            state: *request.state,
        };
        (job, ticket)
    }

    /// Count an executed request in its class and keep its reuse row.
    /// Callers settle in their dispatch order, under either clock; timing
    /// comes later, from whichever clock is running.
    fn settle(&mut self, ticket: &Ticket, mut settled: Settled) -> Settled {
        let report = &mut self.classes[ticket.class as usize].report;
        match settled.status {
            ServeStatus::Completed => {
                report.completed += 1;
                report.prompt_tokens += settled.usage.prompt_tokens;
                report.cached_tokens += settled.usage.cached_tokens;
                if !settled.reuse_events.is_empty() {
                    self.reuse_rows.push((
                        ticket.arrival_us,
                        ticket.id,
                        settled.service_us,
                        std::mem::take(&mut settled.reuse_events),
                    ));
                }
            }
            ServeStatus::DeadlineExceeded { .. } => report.deadline_exceeded += 1,
            ServeStatus::Cancelled { .. } => report.cancelled += 1,
            ServeStatus::Failed { .. } => report.failed += 1,
            ServeStatus::Rejected { .. } => unreachable!("a rejected request never executes"),
        }
        settled
    }

    /// Place a settled request in virtual time.
    fn record(&mut self, ticket: &Ticket, settled: Settled, at: SeqTiming) {
        let queue_wait_us = at.start_us.saturating_sub(ticket.arrival_us);
        let class = &mut self.classes[ticket.class as usize];
        class.queue_wait_us.record(queue_wait_us);
        class.service_us.record(at.service_us);
        class.report.preempted += u64::from(at.preemptions);
        class
            .e2e_us
            .record(at.finish_us.saturating_sub(ticket.arrival_us));
        self.last_finish_us = self.last_finish_us.max(at.finish_us);
        self.outcomes.push(ServeOutcome {
            id: ticket.id,
            priority: ticket.class,
            status: settled.status,
            queue_wait_us,
            service_us: at.service_us,
            finish_us: at.finish_us,
            trace_digest: settled.digest,
            usage: settled.usage,
            preemptions: at.preemptions,
        });
    }

    /// Close the run: outcomes in id order, the report assembled. `kv` is
    /// the pool clock's counters (default under the lane clock).
    fn finish(mut self, kv: KvReport) -> ServeRun {
        self.outcomes.sort_by_key(|o| o.id);
        assert!(
            self.outcomes.windows(2).all(|w| w[0].id < w[1].id),
            "request ids must be unique"
        );
        let [interactive, batch] = self.classes.map(ClassAccum::finish);
        let mut compile = self.node.programs.drain_counters();
        compile.verify_memo_hits = self.verify_memo.stats().hits;
        let mut report = ServeReport {
            lanes: self.node.config.lanes,
            affinity_routing: self.node.config.affinity_routing,
            makespan_us: self.last_finish_us,
            trace_fingerprint: fingerprint(&self.outcomes),
            interactive,
            batch,
            cache: CacheStats::default(),
            kv,
            compile,
            cluster: None,
            reuse: reuse_ledger(self.reuse_rows),
        };
        if let (Some(engine), Some((cache, memo))) = (self.engine, self.engine_before) {
            report.cache = engine.cache_stats().delta_since(&cache);
            let after = engine.reuse_stats();
            report.reuse.inserted = after.insertions.saturating_sub(memo.insertions);
            report.reuse.evicted = after.evictions.saturating_sub(memo.evictions);
            report.reuse.bytes = after.resident_bytes;
        }
        ServeRun {
            outcomes: self.outcomes,
            report,
        }
    }
}

impl Settled {
    /// Reduce what an execution returned to what serving keeps. It runs on
    /// the lane that ran the job (module docs), so the outcome's state —
    /// trace, context, prompt versions — is dropped there.
    fn of(result: spear_core::Result<BatchOutcome>) -> Self {
        match result {
            Ok(outcome) => {
                let metadata = outcome.state.metadata;
                Self {
                    status: ServeStatus::Completed,
                    service_us: metadata.latency_us,
                    digest: outcome.state.trace.digest().ok(),
                    usage: metadata.usage,
                    gen_calls: metadata.gen_calls.max(1),
                    reuse_events: metadata.reuse_events,
                }
            }
            Err(SpearError::Cancelled { reason, after_us }) => {
                let status = if reason == "deadline" {
                    ServeStatus::DeadlineExceeded { after_us }
                } else {
                    ServeStatus::Cancelled { reason }
                };
                Self::unfinished(status, after_us)
            }
            Err(error) => {
                let error = error.to_string();
                Self::unfinished(ServeStatus::Failed { error }, 0)
            }
        }
    }

    /// A cancelled or failed execution: no digest, no usage.
    fn unfinished(status: ServeStatus, service_us: u64) -> Self {
        Self {
            status,
            service_us,
            digest: None,
            usage: TokenUsage::default(),
            gen_calls: 1,
            reuse_events: Vec::new(),
        }
    }

    /// KV footprint of the sequence's device residency. Usage totals
    /// accumulate over every GEN call of the plan, but the calls run
    /// serially over one growing context — the resident footprint is the
    /// per-call prompt (averaged: calls share the prompt's prefix) plus
    /// everything decoded across calls. Cancelled and failed executions
    /// settle with zero usage, so they pass through the pool as empty
    /// footprints (the simulator clamps the prefix claim to the prompt).
    fn footprint(&self, ticket: &Ticket) -> SeqInput {
        SeqInput {
            id: ticket.id,
            priority: ticket.class,
            arrival_us: ticket.arrival_us,
            prompt_tokens: self.usage.prompt_tokens / self.gen_calls,
            completion_tokens: self.usage.completion_tokens,
            shared_prefix_tokens: ticket.shared_prefix_tokens,
            family_seed: ticket.family_seed,
        }
    }
}

/// The long-lived serving node: a scheduler plus its worker-lane pool.
/// One node can serve many successive (or overlapping) [`ServeNode::run`]
/// calls; owner ids never alias across runs.
#[derive(Debug)]
pub struct ServeNode {
    config: ServeConfig,
    runner: BatchRunner,
    run_seq: AtomicU64,
    programs: ProgramCache,
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
        }
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
        requests: Vec<ServeRequest>,
    ) -> ServeRun {
        assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_us <= w[1].arrival_us),
            "requests must arrive in non-decreasing virtual-time order"
        );
        let life = Lifecycle::begin(self, runtime, engine, &requests);
        match &self.config.pressure {
            None => self.run_on_lane_clock(life, requests),
            Some(pressure) => self.run_on_pool_clock(life, requests, pressure),
        }
    }

    /// The lane clock: a discrete-event loop in which a job occupies its
    /// lane for its measured service time (module docs).
    fn run_on_lane_clock(&self, mut life: Lifecycle<'_>, requests: Vec<ServeRequest>) -> ServeRun {
        let round_size = self.config.lanes * self.config.quantum.max(1);
        let mut lane_clock = vec![0u64; self.config.lanes];
        let mut now = 0u64;
        let mut arrivals = requests.into_iter().peekable();

        loop {
            // (1) Admit everything that has arrived by `now`.
            while let Some(request) = arrivals.next_if(|r| r.arrival_us <= now) {
                let class = request.priority;
                if life.admit(request) {
                    let depth = life.queue.depth(class) as u64;
                    life.sample_depth(class, depth);
                }
            }

            // (2) Pop a dispatch round.
            let popped = life.queue.pop_batch(round_size);
            if popped.is_empty() {
                match arrivals.peek() {
                    Some(r) => {
                        now = now.max(r.arrival_us);
                        continue;
                    }
                    None => break,
                }
            }

            // (3) Execute the round as one assigned batch.
            let mut jobs = Vec::with_capacity(popped.len());
            let mut tickets = Vec::with_capacity(popped.len());
            for request in popped {
                let (job, ticket) = life.job(request);
                jobs.push(job);
                tickets.push(ticket);
            }
            let results = self.runner.run_assigned(life.runtime, jobs, Settled::of);

            // (4) Charge virtual time in dispatch order (same-lane jobs
            // queue behind each other).
            for (ticket, settled) in tickets.iter().zip(results) {
                let settled = life.settle(ticket, settled);
                let start_us = lane_clock[ticket.lane].max(now);
                let at = SeqTiming {
                    start_us,
                    finish_us: start_us + settled.service_us,
                    service_us: settled.service_us,
                    preemptions: 0,
                };
                lane_clock[ticket.lane] = at.finish_us;
                life.record(ticket, settled, at);
            }

            // (5) Advance to the earliest time a lane frees up.
            let earliest_free = lane_clock.iter().copied().min().unwrap_or(now);
            now = now.max(earliest_free);
        }
        life.finish(KvReport::default())
    }

    /// The pool clock: execute everything exactly as the lane clock's
    /// placement would (same owner groups, same hashed lanes, members in
    /// arrival order — byte-identical traces; lanes parallelize host
    /// execution only), then let the KV iteration scheduler (`crate::kv`)
    /// time the measured token footprints. Split this way, every pool
    /// decision lives on the single-threaded virtual clock, so the
    /// contended counters are lane-count-invariant by construction.
    fn run_on_pool_clock(
        &self,
        mut life: Lifecycle<'_>,
        requests: Vec<ServeRequest>,
        pressure: &KvPressureConfig,
    ) -> ServeRun {
        // Admission in arrival order. The token bucket and the plan
        // verifier apply exactly as under the lane clock (both are pure
        // functions of the arrival-ordered stream); depth-based shedding
        // cannot, because the queue is only the token-bucket gate here:
        // what it accepts is drained straight back out, into the KV
        // waiting set.
        let mut jobs = Vec::with_capacity(requests.len());
        let mut tickets = Vec::with_capacity(requests.len());
        for request in requests {
            if life.admit(request) {
                if let Some(request) = life.queue.pop() {
                    let (job, ticket) = life.job(request);
                    jobs.push(job);
                    tickets.push(ticket);
                }
            }
        }
        let results = self.runner.run_assigned(life.runtime, jobs, Settled::of);
        let (executed, footprints): (Vec<_>, Vec<_>) = (tickets.into_iter().zip(results))
            .map(|(ticket, settled)| {
                let settled = life.settle(&ticket, settled);
                let footprint = settled.footprint(&ticket);
                ((ticket, settled), footprint)
            })
            .unzip();
        let sim = kv::simulate(&footprints, pressure);

        for ((ticket, settled), timing) in executed.into_iter().zip(&sim.timings) {
            // Completed requests take the KV scheduler's token-level
            // timing; the others keep their measured partial service,
            // placed at their scheduling instant.
            let at = if settled.status == ServeStatus::Completed {
                *timing
            } else {
                SeqTiming {
                    finish_us: timing.start_us + settled.service_us,
                    service_us: settled.service_us,
                    ..*timing
                }
            };
            life.record(&ticket, settled, at);
        }
        for (class, depth) in sim.depth_samples {
            life.sample_depth(class, depth);
        }
        life.finish(sim.report)
    }
}

/// The admission-verify memo key: everything [`verify_for_admission`]
/// reads from the request (the runtime's contribution is constant within
/// the run the memo lives for); `fingerprint` is the plan's.
fn verify_key(request: &ServeRequest, fingerprint: u64) -> u64 {
    let mut hash = fnv1a(&fingerprint.to_le_bytes());
    for key in request.state.prompts.keys() {
        hash = fnv1a_extend(fnv1a_extend(hash, key.as_bytes()), &[0xff]);
    }
    fnv1a_extend(hash, &request.deadline_us.unwrap_or(u64::MAX).to_le_bytes())
}

/// Deterministic reuse ledger: classify each duplicate GEN as `coalesced`
/// (its request arrived while the nominal leader — the first arrival for
/// that memo key — was still in service) or a plain cache `hit`
/// (arrived after the leader finished). Built from arrival order and
/// virtual service times only, so the counters are identical at any lane
/// count even though *which* physical call populated the memo varies. The
/// memo-occupancy half of the report is stamped by [`Lifecycle::finish`].
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

/// Order-canonical fold of statuses and trace digests, keyed by id.
fn fingerprint(outcomes: &[ServeOutcome]) -> u64 {
    outcomes.iter().fold(FNV1A_OFFSET, |hash, o| {
        let tag = match &o.status {
            ServeStatus::Completed => 1,
            ServeStatus::Rejected { .. } => 2,
            ServeStatus::DeadlineExceeded { .. } => 3,
            ServeStatus::Cancelled { .. } => 4,
            ServeStatus::Failed { .. } => 5,
        };
        [o.id, tag, o.trace_digest.unwrap_or(0)]
            .iter()
            .fold(hash, |hash, word| fnv1a_extend(hash, &word.to_le_bytes()))
    })
}

/// Statically verify a request's plan at admission: full verification
/// against the runtime's registries, seeded with the prompt keys already
/// present in the request's starting state, with the request's service
/// deadline as the feasibility budget (the bytecode bounds of
/// [`spear_core::analysis::absint::analyze`]: their latency floor walks
/// only paths that survive statically-decided CHECKs). Returns the
/// rendered error-severity diagnostics, or `None` when the plan is sound
/// enough to run.
fn verify_for_admission(runtime: &Runtime, request: &ServeRequest) -> Option<Vec<String>> {
    let mut verifier = spear_core::analysis::Verifier::with_runtime(runtime);
    for key in request.state.prompts.keys() {
        verifier = verifier.assume_prompt(key);
    }
    if let Some(deadline) = request.deadline_us {
        verifier = verifier.deadline_us(deadline);
    }
    let details: Vec<String> = verifier
        .verify(&request.plan)
        .iter()
        .filter(|d| d.is_error())
        .map(ToString::to_string)
        .collect();
    (!details.is_empty()).then_some(details)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_core::history::RefinementMode;
    use spear_core::llm::EchoLlm;
    use spear_core::pipeline::Pipeline;
    use spear_core::plan::lower;
    use spear_core::runtime::ExecState;
    use spear_core::vm::Program;
    use std::sync::Arc;

    fn runtime() -> Runtime {
        Runtime::builder().llm(Arc::new(EchoLlm::default())).build()
    }

    fn plan(gens: usize) -> Arc<Program> {
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

    /// A default node under each timing model: the lane clock, and the
    /// pool clock over a pool roomy enough that nothing is preempted.
    fn node_per_clock(verify_admission: bool) -> [ServeNode; 2] {
        [None, Some(KvPressureConfig::default())].map(|pressure| {
            ServeNode::new(ServeConfig {
                verify_admission,
                pressure,
                ..ServeConfig::default()
            })
        })
    }

    /// Serve `requests`, then check what holds for any run under either
    /// clock: the per-class ledgers add up, a rejected request has no
    /// timing at all, and one that was executed without completing was
    /// never preempted and finishes where its wait and service put it.
    fn run_checked(node: &ServeNode, rt: &Runtime, requests: Vec<ServeRequest>) -> ServeRun {
        let arrivals: HashMap<u64, u64> = requests.iter().map(|r| (r.id, r.arrival_us)).collect();
        let run = node.run(rt, None, requests);
        for class in Priority::ALL {
            let c = run.report.class(class);
            assert_eq!(c.submitted, c.admitted + c.rejected, "{class:?}");
            assert_eq!(
                c.admitted,
                c.completed + c.deadline_exceeded + c.cancelled + c.failed,
                "{class:?}"
            );
        }
        for o in &run.outcomes {
            match o.status {
                ServeStatus::Completed => {}
                ServeStatus::Rejected { .. } => assert_eq!(
                    (o.queue_wait_us, o.service_us, o.finish_us, o.preemptions),
                    (0, 0, 0, 0),
                    "{o:?}"
                ),
                _ => {
                    assert_eq!(o.preemptions, 0, "{o:?}");
                    assert_eq!(
                        o.finish_us,
                        arrivals[&o.id] + o.queue_wait_us + o.service_us,
                        "{o:?}"
                    );
                }
            }
        }
        run
    }

    #[test]
    fn two_plans_with_one_affinity_seed_share_one_owner_per_class() {
        // Same base text, different GEN counts: two plans (two
        // fingerprints) with one affinity seed.
        let (one, two) = (plan(1), plan(2));
        let config = ServeConfig::default();
        let mut placement = Placement::new(100, &config);
        let first = placement.place(one.affinity_seed(), Priority::Interactive);
        assert_eq!(first.0, 100);
        assert_eq!(first.2, one.affinity_seed(), "seeded plans are grouped");
        assert!(first.2.is_some());
        assert_eq!(
            placement.place(two.affinity_seed(), Priority::Interactive),
            first
        );
        let batch = placement.place(one.affinity_seed(), Priority::Batch);
        assert_eq!((batch.0, batch.1), (101, first.1), "a group per class");
        assert_eq!(placement.place(two.affinity_seed(), Priority::Batch), batch);

        // Affinity off: a fresh owner and the next lane, every time.
        let config = ServeConfig {
            affinity_routing: false,
            ..config
        };
        let mut placement = Placement::new(100, &config);
        let placed: Vec<_> = (0..3)
            .map(|_| placement.place(one.affinity_seed(), Priority::Interactive))
            .collect();
        let lanes = config.lanes;
        assert_eq!(
            placed,
            [
                (100, 0, None),
                (101, 1 % lanes, None),
                (102, 2 % lanes, None)
            ]
        );
    }

    #[test]
    fn all_requests_get_exactly_one_outcome() {
        let rt = runtime();
        for node in node_per_clock(true) {
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
            let run = run_checked(&node, &rt, requests);
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
    fn overlapping_runs_keep_their_own_verify_memo() {
        // Two runs of ten same-family requests on one node. Every
        // execution waits at a barrier for the other run's, so the runs
        // overlap from first admission to last execution: neither can
        // reset, fill or drain a memo behind the other's back.
        let barrier = std::sync::Barrier::new(2);
        let rt = Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .agent(
                "rendezvous",
                Arc::new(spear_core::agent::FnAgent(
                    move |payload: &spear_core::value::Value, _: &spear_core::context::Context| {
                        barrier.wait();
                        Ok(payload.clone())
                    },
                )),
            )
            .build();
        let meeting = Arc::new(
            lower(
                &Pipeline::builder("meeting")
                    .create_text("p", "payload", RefinementMode::Manual)
                    .delegate(
                        "rendezvous",
                        spear_core::ops::PayloadSpec::PromptKey("p".into()),
                        "out",
                    )
                    .build(),
            )
            .expect("lowers"),
        );
        let node = ServeNode::new(ServeConfig {
            lanes: 1,
            ..ServeConfig::default()
        });
        let serve = || {
            let requests: Vec<_> = (0..10)
                .map(|i| {
                    let plan = Arc::clone(&meeting);
                    ServeRequest::new(i, Priority::Interactive, plan, ExecState::new(), i * 10)
                })
                .collect();
            node.run(&rt, None, requests)
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(serve);
            (serve(), other.join().expect("the second run finishes"))
        });
        for run in [a, b] {
            assert_eq!(run.report.interactive.completed, 10);
            // `compile.compiled` / `cache_hits` come from the node's shared
            // program cache and split between the runs by timing.
            assert_eq!(run.report.compile.verify_memo_hits, 9);
        }
    }

    #[test]
    fn service_deadline_produces_deadline_exceeded() {
        // Admission verification off: a 1 µs deadline is statically
        // infeasible and would be shed up front; this test exercises the
        // *runtime* deadline gate between plan slots.
        let rt = runtime();
        for node in node_per_clock(false) {
            let mut state = ExecState::new();
            state.context.set("q", "slow question");
            // Two GEN slots with a 1us budget: the first completes (crossing
            // the line), the gate cancels before the second.
            let r =
                ServeRequest::new(1, Priority::Interactive, plan(2), state, 0).with_deadline_us(1);
            let run = run_checked(&node, &rt, vec![r]);
            let o = run.outcome(1).unwrap();
            assert!(
                matches!(o.status, ServeStatus::DeadlineExceeded { after_us } if after_us > 1),
                "{:?}",
                o.status
            );
            assert!(o.service_us > 0, "partial service time is charged");
            assert_eq!(run.report.interactive.deadline_exceeded, 1);
            // The run lasts until its last finish, even one the KV
            // simulator saw as an empty footprint done at its start.
            assert_eq!(run.report.makespan_us, o.finish_us);
        }
    }

    #[test]
    fn tripped_token_cancels_without_execution_effects() {
        let rt = runtime();
        for node in node_per_clock(true) {
            let r = request(5, Priority::Batch, 0);
            r.cancel_handle().cancel();
            let run = run_checked(&node, &rt, vec![r]);
            let o = run.outcome(5).unwrap();
            assert!(
                matches!(&o.status, ServeStatus::Cancelled { reason } if reason == "cancelled"),
                "{:?}",
                o.status
            );
            assert_eq!(o.service_us, 0);
            assert_eq!(run.report.batch.cancelled, 1);
        }
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
        let rt = runtime();
        let bad = Arc::new(
            lower(&Pipeline::builder("bad").gen("a", "missing_prompt").build())
                .expect("structurally sound, so it lowers"),
        );
        for node in node_per_clock(true) {
            let requests = vec![
                request(1, Priority::Interactive, 0),
                ServeRequest::new(
                    2,
                    Priority::Interactive,
                    Arc::clone(&bad),
                    ExecState::new(),
                    0,
                ),
                request(3, Priority::Interactive, 0),
            ];
            let run = run_checked(&node, &rt, requests);
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
        let mut state = ExecState::new();
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
        let rt = runtime();
        for node in node_per_clock(true) {
            let mut state = ExecState::new();
            state.context.set("q", "doomed question");
            let r =
                ServeRequest::new(1, Priority::Interactive, plan(2), state, 0).with_deadline_us(1);
            let run = run_checked(&node, &rt, vec![r]);
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
    }

    #[test]
    fn pipeline_failures_are_contained() {
        // Runtime failures (as opposed to statically detectable defects)
        // still surface as Failed without poisoning neighbouring requests.
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
        for node in node_per_clock(true) {
            let requests = vec![
                request(1, Priority::Interactive, 0),
                ServeRequest::new(
                    2,
                    Priority::Interactive,
                    Arc::clone(&failing),
                    ExecState::new(),
                    0,
                ),
                request(3, Priority::Interactive, 0),
            ];
            let run = run_checked(&node, &rt, requests);
            assert_eq!(run.outcome(1).unwrap().status, ServeStatus::Completed);
            assert!(matches!(
                run.outcome(2).unwrap().status,
                ServeStatus::Failed { .. }
            ));
            assert_eq!(run.outcome(3).unwrap().status, ServeStatus::Completed);
            assert_eq!(run.report.interactive.failed, 1);
        }
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
