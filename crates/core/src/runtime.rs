//! The SPEAR runtime: executes pipelines over the state triple (P, C, M).
//!
//! The runtime is a thin dispatch layer. [`Runtime::execute`] lowers the
//! pipeline to the flat IR of [`crate::plan`], compiles it to bytecode
//! with [`crate::vm::compile`] (the one verify gate), and steps the
//! compiled program; the VM loop owns tracing, budget enforcement, and the
//! op-count cap, and each operator's semantics live in its own handler
//! module (`exec::{ret,gen,refine,check,merge,delegate}`). The recursive
//! tree walk ([`Runtime::execute_tree`]) is kept as the specification the
//! VM is tested against; both produce byte-identical traces and reports.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use crate::agent::AgentRegistry;
use crate::cancel::CancelToken;
use crate::context::Context;
use crate::error::Result;
use crate::exec::{self, CallLimits};
use crate::llm::LlmClient;
use crate::metadata::{Metadata, TokenUsage};
use crate::pipeline::Pipeline;
use crate::plan::{self, LoweredPlan};
use crate::refiner::RefinerRegistry;
use crate::retriever::RetrieverRegistry;
use crate::store::PromptStore;
use crate::trace::{Trace, TraceKind};
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

    /// Deep copy: the clone shares nothing with the original, so a shadow
    /// run cannot leak writes into the primary (note `PromptStore::clone`
    /// alone would share the backing KV store).
    #[must_use]
    pub fn deep_clone(&self) -> Self {
        Self {
            prompts: self.prompts.deep_clone(),
            context: self.context.clone(),
            metadata: self.metadata.clone(),
            trace: self.trace.clone(),
            step: self.step,
            // A shadow run shares the cancellation signals: cancelling the
            // primary should stop its shadows too.
            cancel: self.cancel.clone(),
            deadline_us: self.deadline_us,
            reuse: self.reuse,
        }
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
    retrievers: RetrieverRegistry,
    agents: AgentRegistry,
    refiners: RefinerRegistry,
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

    /// Register a retriever.
    #[must_use]
    pub fn retriever(self, source: &str, retriever: Arc<dyn crate::retriever::Retriever>) -> Self {
        self.retrievers.register(source, retriever);
        self
    }

    /// Register an agent.
    #[must_use]
    pub fn agent(self, name: &str, agent: Arc<dyn crate::agent::Agent>) -> Self {
        self.agents.register(name, agent);
        self
    }

    /// Register a custom refiner (built-ins are pre-registered).
    #[must_use]
    pub fn refiner(self, name: &str, refiner: Arc<dyn crate::refiner::Refiner>) -> Self {
        self.refiners.register(name, refiner);
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
/// `Runtime` is `Send + Sync`: `execute` takes `&self`, every registry is
/// read-only after construction, and all backends are required to be
/// thread-safe (`LlmClient: Send + Sync` etc.), so one runtime can serve
/// many concurrent pipeline instances — this is what
/// [`crate::batch::BatchRunner`] relies on to share a single runtime
/// across its worker pool.
pub struct Runtime {
    pub(crate) llm: Option<Arc<dyn LlmClient>>,
    pub(crate) retrievers: RetrieverRegistry,
    pub(crate) agents: AgentRegistry,
    pub(crate) refiners: RefinerRegistry,
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
            retrievers: RetrieverRegistry::new(),
            agents: AgentRegistry::new(),
            refiners: RefinerRegistry::with_builtins(),
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
        self.retrievers.contains(source)
    }

    /// Whether a refiner is registered under `name`.
    #[must_use]
    pub fn has_refiner(&self, name: &str) -> bool {
        self.refiners.contains(name)
    }

    /// Whether an agent is registered under `name`.
    #[must_use]
    pub fn has_agent(&self, name: &str) -> bool {
        self.agents.contains(name)
    }

    /// Execute `pipeline` against `state` by lowering it to the flat IR
    /// and stepping that — equivalent to
    /// `execute_lowered(&plan::lower(pipeline), state)`.
    ///
    /// # Errors
    ///
    /// Propagates the first operator failure (after recording it in the
    /// trace) and [`crate::error::SpearError::OpBudgetExceeded`] if the op
    /// cap is hit.
    pub fn execute(&self, pipeline: &Pipeline, state: &mut ExecState) -> Result<ExecReport> {
        let lowered = plan::lower(pipeline)?;
        self.execute_lowered(&lowered, state)
    }

    /// Execute an already-lowered plan against `state`: compile it with
    /// [`crate::vm::compile`] and run the program. Optimizer plans,
    /// DL-compiled programs, and tree pipelines all funnel through here.
    /// A plan of unknown provenance (deserialized, hand-built) that fails
    /// structural verification is rejected before any operator runs.
    ///
    /// # Errors
    ///
    /// [`crate::error::SpearError::InvalidPlan`] from the compiler's verify
    /// gate (nothing is traced); otherwise the same contract as
    /// [`Runtime::execute`].
    pub fn execute_lowered(
        &self,
        lowered: &LoweredPlan,
        state: &mut ExecState,
    ) -> Result<ExecReport> {
        let program = vm::compile(lowered)?;
        self.execute_program(&program, state)
    }

    /// Execute a compiled [`Program`] against `state`. No verify gate runs
    /// here: programs only exist via [`crate::vm::compile`] (fail-closed),
    /// so the VM may assume the verifier's structural invariants.
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

    /// Run the full static verifier over `lowered` against this runtime's
    /// registries — shorthand for
    /// `analysis::Verifier::with_runtime(self).verify(lowered)`. Unlike
    /// the structural gate in [`crate::vm::compile`], this includes
    /// def-use, registry resolution, and affinity checks.
    #[must_use]
    pub fn verify_lowered(&self, lowered: &LoweredPlan) -> Vec<crate::analysis::Diagnostic> {
        crate::analysis::Verifier::with_runtime(self).verify(lowered)
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
        state.trace.record(
            state.step,
            TraceKind::PipelineStart,
            format!("pipeline {name:?}"),
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
            Ok(()) => state.trace.record(
                state.step,
                TraceKind::PipelineEnd,
                format!("pipeline {name:?}"),
                Value::Null,
            ),
            Err(e) => state.trace.record(
                state.step,
                TraceKind::Error,
                format!("pipeline {name:?}"),
                Value::from(e.to_string()),
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
            .field("retrievers", &self.retrievers.sources())
            .field("agents", &self.agents.names())
            .field("views", &self.views.names())
            .finish()
    }
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
