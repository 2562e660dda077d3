//! Static analysis over the lowered plan IR and its compiled bytecode.
//!
//! Pipelines are data, so plans can be checked like query plans before a
//! single token is spent. Every execution path runs a
//! [`crate::plan::LoweredPlan`], so this is the checker that sees what
//! actually runs: optimizer-lowered physical plans with free `Jump`s,
//! DELEGATE-based filters, and fused GEN stages included.
//!
//! The pieces:
//!
//! - [`cfg`](mod@cfg) is the one control-flow graph: [`Cfg::build`] over
//!   the slot program, rejecting malformed slots (out-of-bounds targets,
//!   the `usize::MAX` lowering placeholder, a CHECK in a leaf slot) before
//!   anything else runs, and [`Cfg::of_code`] over compiled bytecode, with
//!   statically-decided CHECKs refined to their live edge. Its
//!   [`Cfg::sweep`] is the one forward-dataflow engine: every verified
//!   plan only jumps forward, so one pass in slot order is the fixpoint;
//! - [`passes`] holds the built-in lint passes — reachability/termination,
//!   prompt-key def-use (optimistic across CHECK branches), and
//!   affinity-key consistency across fused stages — plus the
//!   [`LintPass`] trait future passes implement;
//! - [`lints`] is the registry of stable diagnostic codes
//!   (`SPEAR-E001`…) every pass draws from;
//! - [`absint`] is the one cost walk: an abstract interpreter over
//!   compiled [`crate::vm::Program`] bytecode deriving sound interval
//!   bounds (tokens, LLM calls, latency floor, unwind depth, KV
//!   footprint), which the verifier's deadline check reads, plus the
//!   opt-in [`BytecodePass`] surfacing `SPEAR-W004`/`SPEAR-W005`;
//! - [`tv`] is translation validation: symbolic equivalence checks of
//!   `vm::compile` output against its source plan, and of optimized
//!   bytecode against the original — the proof obligation gating
//!   [`crate::vm::optimize`].
//!
//! [`Verifier`] ties them together; spear-serve admission runs it as a
//! gate that rejects with [`crate::error::SpearError::InvalidPlan`], and
//! [`crate::vm::compile`] runs its structural subset
//! ([`verify_structural`]) on every plan before emitting code.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod absint;
pub mod cfg;
pub mod lints;
pub mod passes;
pub mod tv;

use std::collections::BTreeSet;

use crate::plan::LoweredPlan;
use crate::runtime::Runtime;

pub use absint::{
    analyze, static_cond, BytecodePass, Interval, ProgramBounds, ResourceModel, SlotBounds,
};
pub use cfg::Cfg;
pub use lints::{lint, Diagnostic, Lint, Severity, REGISTRY};
pub use passes::{AffinityPass, DefUsePass, LintPass, PassContext, ReachabilityPass};
pub use tv::{validate_compile, validate_optimized, TvFailure};

/// The structural checks that make a slot program safe to execute at
/// all: every target in bounds, no lowering placeholders, no CHECK in a
/// leaf slot, no backward jumps (the termination argument). This is the
/// subset [`crate::vm::compile`] enforces before emitting code — cheap,
/// runtime-independent, and never triggered by plans produced by
/// [`crate::plan::lower`].
#[must_use]
pub fn verify_structural(plan: &LoweredPlan) -> Vec<Diagnostic> {
    match Cfg::build(plan) {
        Err(diags) => diags,
        Ok(cfg) => cfg::termination_diagnostics(plan, &cfg),
    }
}

/// The static verifier: CFG construction plus a configurable stack of
/// lint passes over it.
///
/// ```
/// use spear_core::analysis::Verifier;
/// use spear_core::pipeline::Pipeline;
/// use spear_core::plan::lower;
///
/// let plan = lower(
///     &Pipeline::builder("p")
///         .create_text("p", "base", spear_core::history::RefinementMode::Manual)
///         .gen("a", "p")
///         .build(),
/// )
/// .unwrap();
/// assert!(Verifier::new().verify(&plan).is_empty());
/// ```
pub struct Verifier<'rt> {
    runtime: Option<&'rt Runtime>,
    assumed: BTreeSet<String>,
    deadline_us: Option<u64>,
    extra_passes: Vec<Box<dyn LintPass>>,
}

impl Default for Verifier<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'rt> Verifier<'rt> {
    /// A runtime-independent verifier: structure, termination, def-use,
    /// and (when a deadline is set) feasibility — but no registry checks.
    #[must_use]
    pub fn new() -> Self {
        Self {
            runtime: None,
            assumed: BTreeSet::new(),
            deadline_us: None,
            extra_passes: Vec::new(),
        }
    }

    /// Verify against `runtime`'s registries too (views, refiners,
    /// retrievers, agents, LLM availability).
    #[must_use]
    pub fn with_runtime(runtime: &'rt Runtime) -> Self {
        Self {
            runtime: Some(runtime),
            ..Self::new()
        }
    }

    /// Declare a prompt key that exists in the starting state, so reading
    /// it before any CREATE is not an error.
    #[must_use]
    pub fn assume_prompt(mut self, key: impl Into<String>) -> Self {
        self.assumed.insert(key.into());
        self
    }

    /// Require the plan to fit a virtual deadline (µs), judged by the
    /// [`analyze`] bounds of the compiled plan: a cheapest path over it is
    /// `SPEAR-E005`, a worst case over it `SPEAR-W003`. Only a verifier
    /// with a deadline compiles the plan.
    #[must_use]
    pub fn deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Register an additional lint pass, run after the built-in ones.
    #[must_use]
    pub fn register_pass(mut self, pass: Box<dyn LintPass>) -> Self {
        self.extra_passes.push(pass);
        self
    }

    /// Run every pass over `plan`. An empty result means the plan is
    /// statically sound under this verifier's configuration; any
    /// [`Diagnostic::is_error`] finding means it must not execute.
    ///
    /// Structural defects short-circuit: a plan whose targets are
    /// malformed has no meaningful CFG, so only those diagnostics are
    /// returned. Dataflow passes additionally require termination (every
    /// reachable edge forward); when backward jumps exist they are
    /// skipped — the E006 errors already reject the plan.
    #[must_use]
    pub fn verify(&self, plan: &LoweredPlan) -> Vec<Diagnostic> {
        let cfg = match Cfg::build(plan) {
            Ok(cfg) => cfg,
            Err(diags) => return diags,
        };
        let cx = PassContext {
            plan,
            cfg: &cfg,
            runtime: self.runtime,
            assumed: &self.assumed,
            deadline_us: self.deadline_us,
        };
        let mut diags = ReachabilityPass.run(&cx);
        if cfg.terminates() {
            diags.extend(DefUsePass.run(&cx));
            if let Some(deadline) = self.deadline_us {
                diags.extend(absint::deadline_diagnostic(plan, deadline));
            }
            diags.extend(AffinityPass.run(&cx));
            for pass in &self.extra_passes {
                diags.extend(pass.run(&cx));
            }
        }
        diags
    }
}

/// Render diagnostics anchored to their plan slots, each in the slot-line
/// form of `spear_optimizer`'s listing (`  NNNN  <op>`, the text from
/// [`crate::plan::LoweredOp::describe`]) so verifier output and plan
/// listings read the same:
///
/// ```text
/// error[SPEAR-E004] in plan "bad": P["ghost"] is never created before this GEN
///   0000  GEN["answer"] using P["ghost"]
/// ```
#[must_use]
pub fn render_diagnostics(plan: &LoweredPlan, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}[{}] in plan {:?}: {}\n",
            d.severity, d.code, plan.name, d.message
        ));
        if let Some(slot) = d.slot {
            let rendered = plan
                .ops
                .get(slot)
                .map_or_else(|| d.op.clone(), crate::plan::LoweredOp::describe);
            out.push_str(&format!("  {slot:04}  {rendered}\n"));
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::condition::Cond;
    use crate::history::RefinementMode;
    use crate::pipeline::Pipeline;
    use crate::plan::{lower, LoweredOp};

    fn lowered(p: &Pipeline) -> LoweredPlan {
        lower(p).expect("test pipelines lower")
    }

    #[test]
    fn sound_plans_verify_clean_without_a_runtime() {
        let p = Pipeline::builder("ok")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::Always,
                |b| b.expand("p", "then"),
                |b| b.expand("p", "else"),
            )
            .gen("a", "p")
            .build();
        assert_eq!(Verifier::new().verify(&lowered(&p)), vec![]);
    }

    #[test]
    fn undefined_keys_surface_as_e004_in_program_order() {
        let p = Pipeline::builder("bad")
            .gen("answer", "ghost_prompt")
            .expand("other_ghost", "text")
            .build();
        let diags = Verifier::new().verify(&lowered(&p));
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == "SPEAR-E004"));
        assert!(diags[0].message.contains("never created"));
        assert!(diags[1].message.contains("before any CREATE"));
        assert_eq!(diags[0].slot, Some(0));
        assert_eq!(diags[1].slot, Some(1));
    }

    #[test]
    fn branch_definitions_are_optimistic_on_the_ir_too() {
        let p = Pipeline::builder("branchy")
            .check_else(
                Cond::Always,
                |b| b.create_text("p", "then text", RefinementMode::Manual),
                |b| b.create_text("p", "else text", RefinementMode::Manual),
            )
            .gen("answer", "p")
            .build();
        assert_eq!(Verifier::new().verify(&lowered(&p)), vec![]);
    }

    #[test]
    fn assumed_prompts_seed_the_entry_fact() {
        let p = Pipeline::builder("pre")
            .gen("answer", "preexisting")
            .build();
        assert_eq!(Verifier::new().verify(&lowered(&p)).len(), 1);
        let diags = Verifier::new()
            .assume_prompt("preexisting")
            .verify(&lowered(&p));
        assert_eq!(diags, vec![]);
    }

    #[test]
    fn infeasible_deadlines_are_errors_and_risky_ones_warnings() {
        let must = Pipeline::builder("must")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .gen("b", "p")
            .build();
        // Two unconditional GENs at >= 100 µs each can't fit 150 µs.
        let diags = Verifier::new().deadline_us(150).verify(&lowered(&must));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E005");

        // A conditional second GEN *may* fit: warning, not error.
        let maybe = Pipeline::builder("maybe")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .check(Cond::low_confidence(0.5), |b| b.gen("b", "p"))
            .build();
        let diags = Verifier::new().deadline_us(150).verify(&lowered(&maybe));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-W003");

        // A roomy deadline is clean.
        assert_eq!(
            Verifier::new().deadline_us(10_000).verify(&lowered(&must)),
            vec![]
        );
    }

    fn runtime() -> Runtime {
        use crate::retriever::InMemoryRetriever;
        use std::sync::Arc;
        let views = crate::view::ViewCatalog::new();
        views.register(crate::view::ViewDef::new("known_view", "template"));
        Runtime::builder()
            .llm(Arc::new(crate::llm::EchoLlm::default()))
            .retriever(
                "notes",
                Arc::new(InMemoryRetriever::from_texts([("a", "x")])),
            )
            .agent(
                "scorer",
                Arc::new(crate::agent::FnAgent(
                    |p: &crate::value::Value, _: &crate::context::Context| Ok(p.clone()),
                )),
            )
            .views(views)
            .build()
    }

    #[test]
    fn registered_names_resolve_and_unknown_ones_are_errors() {
        use crate::history::RefAction;
        use crate::ops::PayloadSpec;
        use crate::value::Value;
        let rt = runtime();
        let sound = Pipeline::builder("ok")
            .ret("notes", "docs", 5)
            .create_from_view("prompt", "known_view", Default::default())
            .gen("answer", "prompt")
            .check(Cond::low_confidence(0.7), |b| b.expand("prompt", "hint"))
            .delegate("scorer", PayloadSpec::PromptKey("prompt".into()), "score")
            .build();
        assert_eq!(Verifier::with_runtime(&rt).verify(&lowered(&sound)), vec![]);

        let ghosts = Pipeline::builder("bad")
            .ret("ghost_source", "docs", 5)
            .create_from_view("p", "ghost_view", Default::default())
            .refine(
                "p",
                RefAction::Update,
                "ghost_refiner",
                Value::Null,
                RefinementMode::Manual,
            )
            .delegate("ghost_agent", PayloadSpec::Lit(Value::Null), "out")
            .build();
        let diags = Verifier::with_runtime(&rt).verify(&lowered(&ghosts));
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            ["SPEAR-E009", "SPEAR-E008", "SPEAR-E007", "SPEAR-E010"]
        );
        assert!(diags[0].message.contains("retriever source"));
        assert!(diags[1].message.contains("view \"ghost_view\""));
        assert!(diags[2].message.contains("refiner \"ghost_refiner\""));
        assert!(diags[3].message.contains("agent \"ghost_agent\""));
    }

    #[test]
    fn merge_sources_are_checked() {
        let p = Pipeline::builder("m")
            .create_text("left", "x", RefinementMode::Manual)
            .merge(
                "left",
                "missing_right",
                "out",
                crate::ops::MergePolicy::PreferLeft,
            )
            .gen("a", "out")
            .build();
        let diags = Verifier::new().verify(&lowered(&p));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("missing_right"));
    }

    #[test]
    fn gen_without_an_llm_is_an_error() {
        let p = Pipeline::builder("no_llm")
            .create_text("p", "x", RefinementMode::Manual)
            .gen("a", "p")
            .build();
        let diags = Verifier::with_runtime(&Runtime::builder().build()).verify(&lowered(&p));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E011");
        assert_eq!(diags[0].message, "runtime has no LLM configured");
    }

    #[test]
    fn structural_defects_short_circuit() {
        let plan = LoweredPlan {
            name: "broken".into(),
            source_size: 1,
            ops: vec![LoweredOp::Jump { target: usize::MAX }],
        };
        let diags = Verifier::new().deadline_us(1).verify(&plan);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E003");
    }

    #[test]
    fn extra_passes_plug_in() {
        struct AlwaysWarn;
        impl LintPass for AlwaysWarn {
            fn name(&self) -> &'static str {
                "always-warn"
            }
            fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
                vec![Diagnostic::plan_level(
                    &lints::BUDGET_AT_RISK,
                    format!("custom pass saw {} slot(s)", cx.plan.ops.len()),
                )]
            }
        }
        let p = Pipeline::builder("x")
            .create_text("p", "t", RefinementMode::Manual)
            .build();
        let diags = Verifier::new()
            .register_pass(Box::new(AlwaysWarn))
            .verify(&lowered(&p));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("1 slot(s)"));
    }

    #[test]
    fn rendering_anchors_diagnostics_to_slots() {
        let p = Pipeline::builder("bad").gen("answer", "ghost").build();
        let plan = lowered(&p);
        let diags = Verifier::new().verify(&plan);
        let rendered = render_diagnostics(&plan, &diags);
        assert!(rendered.contains("error[SPEAR-E004] in plan \"bad\""));
        assert!(rendered.contains("\n  0000  GEN"));
    }
}
