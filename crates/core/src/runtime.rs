//! The SPEAR runtime: executes pipelines over the state triple (P, C, M).
//!
//! The runtime is a thin dispatch layer. [`Runtime::execute`] lowers the
//! pipeline to its bytecode program with [`crate::plan::lower`] (the one
//! structural gate) and steps the program; the VM loop owns tracing,
//! budget enforcement, and the
//! op-count cap, and each operator's semantics live in its own handler
//! module (`exec::{ret,gen,refine,check,merge,delegate}`). The recursive
//! tree walk ([`Runtime::execute_tree`]) is kept as the specification the
//! VM is tested against; both produce byte-identical traces and reports.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crate::agent::Agent;
use crate::cancel::CancelToken;
use crate::context::Context;
use crate::error::{Result, SpearError};
use crate::exec::{self, CallLimits};
use crate::llm::LlmClient;
use crate::metadata::{Metadata, TokenUsage};
use crate::pipeline::Pipeline;
use crate::plan;
use crate::refiner::{self, Refiner};
use crate::retriever::Retriever;
use crate::store::PromptStore;
use crate::trace::{shared, Detail, Trace, TraceKind};
use crate::value::Value;
use crate::view::ViewCatalog;
use crate::vm::{self, Program};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Hard cap on operators executed per `execute` call. Guards against
    /// pathological pipelines (e.g. enormous unrolled retries).
    pub max_ops: u64,
    /// Token budget per `execute` call (prompt + completion across all
    /// GENs); `None` = unbounded. Checked after each generation, so the
    /// call that crosses the line completes and then the pipeline aborts —
    /// the paper's "token budgets" constraint (§5).
    pub max_tokens: Option<u64>,
    /// Latency budget per `execute` call (accumulated virtual latency);
    /// `None` = unbounded.
    pub max_latency: Option<Duration>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            max_ops: 10_000,
            max_tokens: None,
            max_latency: None,
        }
    }
}

/// The mutable execution state: the paper's (P, C, M) plus the trace.
///
/// A plain value: a clone shares nothing writable with the original (P's
/// entries are immutable and shared by pointer), so a shadow run against a
/// clone cannot leak writes into the primary. The clone keeps the
/// cancellation token, so cancelling the primary stops its shadows too.
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    /// The prompt store P.
    pub prompts: PromptStore,
    /// The context C.
    pub context: Context,
    /// The metadata M.
    pub metadata: Metadata,
    /// Structured execution trace.
    pub trace: Trace,
    /// Current executor step (monotonic across pipelines run on this state).
    pub step: u64,
    /// Optional cooperative cancellation token, checked between operators
    /// (see [`crate::cancel`]).
    pub cancel: Option<CancelToken>,
    /// Optional virtual deadline: executions abort with
    /// [`crate::error::SpearError::Cancelled`] once the state's accumulated
    /// virtual latency (`metadata.latency_us`) exceeds this bound. Used by
    /// the serving layer for per-request timeouts; deterministic because it
    /// never consults wall time.
    pub deadline_us: Option<u64>,
    /// Whole-call generation-reuse policy handed to the LLM backend on
    /// every GEN (see [`crate::llm::ReusePolicy`]). `Off` by default so
    /// standalone runs behave exactly as before; the serving layer stamps
    /// `Exact` per request when its `ServeConfig::reuse` knob is on.
    pub reuse: crate::llm::ReusePolicy,
}

impl ExecState {
    /// Fresh, empty state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Summary of one `execute` call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Operators executed (including nested CHECK branches).
    pub ops_executed: u64,
    /// GEN invocations.
    pub gens: u64,
    /// REF applications.
    pub refs: u64,
    /// CHECKs whose condition held.
    pub checks_taken: u64,
    /// Token usage across the call.
    pub usage: TokenUsage,
    /// Accumulated (virtual) latency across the call.
    pub latency: Duration,
}

/// Builds a [`Runtime`].
pub struct RuntimeBuilder {
    llm: Option<Arc<dyn LlmClient>>,
    retrievers: BTreeMap<String, Arc<dyn Retriever>>,
    agents: BTreeMap<String, Arc<dyn Agent>>,
    refiners: BTreeMap<String, Arc<dyn Refiner>>,
    views: ViewCatalog,
    config: RuntimeConfig,
}

impl RuntimeBuilder {
    /// Set the LLM backend.
    #[must_use]
    pub fn llm(mut self, llm: Arc<dyn LlmClient>) -> Self {
        self.llm = Some(llm);
        self
    }

    /// Register a retriever (replacing any previous one under `source`).
    #[must_use]
    pub fn retriever(mut self, source: &str, retriever: Arc<dyn Retriever>) -> Self {
        self.retrievers.insert(source.to_string(), retriever);
        self
    }

    /// Register an agent (replacing any previous one under `name`).
    #[must_use]
    pub fn agent(mut self, name: &str, agent: Arc<dyn Agent>) -> Self {
        self.agents.insert(name.to_string(), agent);
        self
    }

    /// Register a custom refiner (built-ins are pre-registered; a name
    /// already taken is replaced).
    #[must_use]
    pub fn refiner(mut self, name: &str, refiner: Arc<dyn Refiner>) -> Self {
        self.refiners.insert(name.to_string(), refiner);
        self
    }

    /// Use an existing view catalog (shared with calling code).
    #[must_use]
    pub fn views(mut self, views: ViewCatalog) -> Self {
        self.views = views;
        self
    }

    /// Override the configuration.
    #[must_use]
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Finish building.
    #[must_use]
    pub fn build(self) -> Runtime {
        Runtime {
            llm: self.llm,
            retrievers: self.retrievers,
            agents: self.agents,
            refiners: self.refiners,
            views: self.views,
            config: self.config,
        }
    }
}

/// The pipeline executor and its registries.
///
/// `Runtime` is `Send + Sync`: `execute` takes `&self`, the agent, refiner
/// and retriever maps are filled by the builder and only read afterwards
/// (without a lock), and all backends are required to be
/// thread-safe (`LlmClient: Send + Sync` etc.), so one runtime can serve
/// many concurrent pipeline instances — this is what
/// [`crate::batch::BatchRunner`] relies on to share a single runtime
/// across its worker pool.
pub struct Runtime {
    pub(crate) llm: Option<Arc<dyn LlmClient>>,
    retrievers: BTreeMap<String, Arc<dyn Retriever>>,
    agents: BTreeMap<String, Arc<dyn Agent>>,
    refiners: BTreeMap<String, Arc<dyn Refiner>>,
    pub(crate) views: ViewCatalog,
    pub(crate) config: RuntimeConfig,
}

/// Compile-time guarantee that a runtime and per-job state can cross
/// thread boundaries; batch execution depends on both.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Runtime>();
    assert_send::<ExecState>();
    assert_send::<ExecReport>();
};

impl Runtime {
    /// Start building a runtime (built-in refiners pre-registered).
    #[must_use]
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder {
            llm: None,
            retrievers: BTreeMap::new(),
            agents: BTreeMap::new(),
            refiners: refiner::builtins(),
            views: ViewCatalog::new(),
            config: RuntimeConfig::default(),
        }
    }

    /// The view catalog.
    #[must_use]
    pub fn views(&self) -> &ViewCatalog {
        &self.views
    }

    /// The LLM backend, if configured.
    #[must_use]
    pub fn llm(&self) -> Option<&Arc<dyn LlmClient>> {
        self.llm.as_ref()
    }

    /// The executor configuration.
    #[must_use]
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Whether a retriever is registered under `source`.
    #[must_use]
    pub fn has_retriever(&self, source: &str) -> bool {
        self.retrievers.contains_key(source)
    }

    /// Whether a refiner is registered under `name`.
    #[must_use]
    pub fn has_refiner(&self, name: &str) -> bool {
        self.refiners.contains_key(name)
    }

    /// Whether an agent is registered under `name`.
    #[must_use]
    pub fn has_agent(&self, name: &str) -> bool {
        self.agents.contains_key(name)
    }

    /// The retriever registered under `source`
    /// ([`SpearError::RetrieverNotFound`] when none is).
    pub(crate) fn retriever(&self, source: &str) -> Result<&dyn Retriever> {
        lookup(&self.retrievers, source, SpearError::RetrieverNotFound)
    }

    /// The refiner registered under `name`
    /// ([`SpearError::RefinerNotFound`] when none is).
    pub(crate) fn refiner(&self, name: &str) -> Result<&dyn Refiner> {
        lookup(&self.refiners, name, SpearError::RefinerNotFound)
    }

    /// The agent registered under `name` ([`SpearError::AgentNotFound`]
    /// when none is).
    pub(crate) fn agent(&self, name: &str) -> Result<&dyn Agent> {
        lookup(&self.agents, name, SpearError::AgentNotFound)
    }

    /// Execute `pipeline` against `state`: lower it to its program with
    /// [`crate::plan::lower`] and run that with [`Runtime::execute_program`]
    /// — the path an already-lowered plan takes too, minus the lowering.
    ///
    /// # Errors
    ///
    /// [`crate::error::SpearError::InvalidPlan`] from lowering's structural
    /// gate (nothing is traced); otherwise propagates the first operator
    /// failure (after recording it in the trace) and
    /// [`crate::error::SpearError::OpBudgetExceeded`] if the op cap is hit.
    pub fn execute(&self, pipeline: &Pipeline, state: &mut ExecState) -> Result<ExecReport> {
        self.execute_program(&plan::lower(pipeline)?, state)
    }

    /// Execute a [`Program`] against `state`. No verify gate runs here:
    /// programs only exist via [`crate::plan::lower`] (fail-closed), so the
    /// VM may assume the gate's structural invariants.
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::execute`].
    pub fn execute_program(&self, program: &Program, state: &mut ExecState) -> Result<ExecReport> {
        self.traced_run(
            program.name(),
            program.source_size(),
            state,
            |rt, st, budget, limits| vm::run_program(rt, program, st, budget, limits),
        )
    }

    /// Execute `pipeline` via the reference recursive tree walk — the
    /// specification the compiled path is tested against; the two produce
    /// byte-identical traces and reports.
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::execute`].
    pub fn execute_tree(&self, pipeline: &Pipeline, state: &mut ExecState) -> Result<ExecReport> {
        self.traced_run(
            &pipeline.name,
            pipeline.size(),
            state,
            |rt, st, budget, limits| exec::run_tree(rt, &pipeline.ops, st, budget, None, limits),
        )
    }

    /// Shared per-call wrapper: pipeline start/end/error trace events,
    /// budget and limit initialization, and the before/after report delta.
    fn traced_run(
        &self,
        name: &str,
        size: u64,
        state: &mut ExecState,
        body: impl FnOnce(&Self, &mut ExecState, &mut u64, &CallLimits) -> Result<()>,
    ) -> Result<ExecReport> {
        let before = Snapshot::of(state);
        // The start and end lines share one allocation.
        let line = shared(format_args!("pipeline {name:?}"));
        state.trace.record(
            state.step,
            TraceKind::PipelineStart,
            Arc::clone(&line),
            Value::from(size),
        );
        let mut budget = self.config.max_ops;
        let limits = CallLimits {
            tokens_start: state.metadata.usage.total(),
            latency_start_us: state.metadata.latency_us,
            max_tokens: self.config.max_tokens,
            max_latency_us: self
                .config
                .max_latency
                .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX)),
        };
        let result = body(self, state, &mut budget, &limits);
        match &result {
            Ok(()) => state
                .trace
                .record(state.step, TraceKind::PipelineEnd, line, Value::Null),
            Err(e) => state.trace.record(
                state.step,
                TraceKind::Error,
                line,
                Detail::Message(shared(format_args!("{e}"))),
            ),
        }
        result?;
        Ok(before.report(state, self.config.max_ops - budget))
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field(
                "llm",
                &self.llm.as_ref().map(|l| l.model_name().to_string()),
            )
            .field("retrievers", &self.retrievers.keys())
            .field("agents", &self.agents.keys())
            .field("views", &self.views.names())
            .finish()
    }
}

/// The value registered under `name`, or the `missing` error naming it.
fn lookup<'a, T: ?Sized>(
    registered: &'a BTreeMap<String, Arc<T>>,
    name: &str,
    missing: fn(String) -> SpearError,
) -> Result<&'a T> {
    registered
        .get(name)
        .map(|found| &**found)
        .ok_or_else(|| missing(name.to_string()))
}

/// Metadata snapshot used to compute per-call report deltas.
struct Snapshot {
    gens: u64,
    refs: u64,
    usage: TokenUsage,
    latency_us: u64,
    checks_taken: usize,
}

impl Snapshot {
    fn of(state: &ExecState) -> Self {
        Self {
            gens: state.metadata.gen_calls,
            refs: state.metadata.ref_calls,
            usage: state.metadata.usage,
            latency_us: state.metadata.latency_us,
            checks_taken: state.trace.count(TraceKind::CheckTaken),
        }
    }

    fn report(&self, state: &ExecState, ops_executed: u64) -> ExecReport {
        ExecReport {
            ops_executed,
            gens: state.metadata.gen_calls - self.gens,
            refs: state.metadata.ref_calls - self.refs,
            checks_taken: (state.trace.count(TraceKind::CheckTaken) - self.checks_taken) as u64,
            usage: TokenUsage {
                prompt_tokens: state.metadata.usage.prompt_tokens - self.usage.prompt_tokens,
                cached_tokens: state.metadata.usage.cached_tokens - self.usage.cached_tokens,
                completion_tokens: state.metadata.usage.completion_tokens
                    - self.usage.completion_tokens,
            },
            latency: Duration::from_micros(state.metadata.latency_us - self.latency_us),
        }
    }
}
