//! Static analysis over programs, the one plan form.
//!
//! Pipelines are data, so plans can be checked like query plans before a
//! single token is spent. Every execution path runs a
//! [`crate::vm::Program`], so this is the checker that sees what actually
//! runs: lowered physical plans with free `Jump`s, DELEGATE-based
//! filters, and fused GEN stages included.
//!
//! The pieces:
//!
//! - [`cfg`](mod@cfg) is the one control-flow graph: [`Cfg::new`] over a
//!   program's code and pool, optionally with statically-decided CHECKs
//!   refined to their live edge, plus the structural gate
//!   (`verify_structural`) that [`crate::plan::lower`] runs on emitted
//!   code — out-of-bounds targets, the lowering placeholder, a CHECK in a
//!   leaf slot, backward jumps. Its [`Cfg::sweep`] is the one
//!   forward-dataflow engine: every released program only jumps forward,
//!   so one pass in slot order is the fixpoint;
//! - [`passes`] holds the built-in lint passes — reachability, prompt-key
//!   def-use (optimistic across CHECK branches), and affinity-key
//!   consistency across fused stages — plus the [`LintPass`] trait future
//!   passes implement;
//! - [`lints`] is the registry of stable diagnostic codes
//!   (`SPEAR-E001`…) every pass draws from;
//! - [`absint`] is the one cost walk: an abstract interpreter over a
//!   program's bytecode deriving sound interval bounds (tokens, LLM calls,
//!   latency floor, unwind depth, KV footprint), which the verifier's
//!   deadline check reads, plus the opt-in [`BytecodePass`] surfacing
//!   `SPEAR-W004`/`SPEAR-W005`;
//! - [`tv`] is the slot-for-slot comparison of two programs (what
//!   translation validation once checked, kept for the benchmark's calls).
//!
//! [`Verifier`] ties them together; spear-serve admission runs it as a
//! gate that rejects with [`crate::error::SpearError::InvalidPlan`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod absint;
pub mod cfg;
pub mod lints;
pub mod passes;
pub mod tv;

use std::collections::BTreeSet;

use crate::runtime::Runtime;
use crate::vm::Program;

pub use absint::{
    analyze, static_cond, BytecodePass, Interval, ProgramBounds, ResourceModel, SlotBounds,
};
pub use cfg::Cfg;
pub use lints::{lint, Diagnostic, Lint, Severity, REGISTRY};
pub use passes::{AffinityPass, DefUsePass, LintPass, PassContext, ReachabilityPass};
pub use tv::{validate_compile, validate_optimized, TvFailure};

/// The structural checks that make emitted code safe to execute at all:
/// every target in bounds, no lowering placeholders, no CHECK in a leaf
/// slot, no backward jumps (the termination argument). This is the gate
/// [`crate::plan::lower`] runs before releasing a program — cheap,
/// runtime-independent, and never triggered by code `lower` emits.
#[must_use]
pub(crate) fn verify_structural(program: &Program) -> Vec<Diagnostic> {
    let diags = cfg::structural_diagnostics(program);
    if !diags.is_empty() {
        return diags;
    }
    let cfg = Cfg::new(program.code(), program.pool(), false);
    cfg::termination_diagnostics(program, &cfg)
}

/// The static verifier: CFG construction plus a configurable stack of
/// lint passes over it.
///
/// ```
/// use spear_core::analysis::Verifier;
/// use spear_core::pipeline::Pipeline;
/// use spear_core::plan::lower;
///
/// let program = lower(
///     &Pipeline::builder("p")
///         .create_text("p", "base", spear_core::history::RefinementMode::Manual)
///         .gen("a", "p")
///         .build(),
/// )
/// .unwrap();
/// assert!(Verifier::new().verify(&program).is_empty());
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
    /// [`analyze`] bounds of the program: a cheapest path over it is
    /// `SPEAR-E005`, a worst case over it `SPEAR-W003`. Only a verifier
    /// with a deadline runs the abstract interpreter.
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

    /// Run every pass over `program`. An empty result means the plan is
    /// statically sound under this verifier's configuration; any
    /// [`Diagnostic::is_error`] finding means it must not execute.
    ///
    /// The program passed the structural gate when it was lowered, so its
    /// graph is well formed and moves strictly forward.
    #[must_use]
    pub fn verify(&self, program: &Program) -> Vec<Diagnostic> {
        let cfg = Cfg::new(program.code(), program.pool(), false);
        let cx = PassContext {
            program,
            cfg: &cfg,
            runtime: self.runtime,
            assumed: &self.assumed,
            deadline_us: self.deadline_us,
        };
        let mut diags = ReachabilityPass.run(&cx);
        diags.extend(DefUsePass.run(&cx));
        if let Some(deadline) = self.deadline_us {
            diags.extend(absint::deadline_diagnostic(program, deadline));
        }
        diags.extend(AffinityPass.run(&cx));
        for pass in &self.extra_passes {
            diags.extend(pass.run(&cx));
        }
        diags
    }
}

/// Render diagnostics anchored to their program slots, each in the
/// slot-line form of `spear_optimizer`'s listing (`  NNNN  <op>`, the text
/// from [`Program::describe`]) so verifier output and plan listings read
/// the same:
///
/// ```text
/// error[SPEAR-E004] in plan "bad": P["ghost"] is never created before this GEN
///   0000  GEN["answer"] using P["ghost"]
/// ```
#[must_use]
pub fn render_diagnostics(program: &Program, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}[{}] in plan {:?}: {}\n",
            d.severity,
            d.code,
            program.name(),
            d.message
        ));
        if let Some(slot) = d.slot {
            let rendered = program.describe(slot).unwrap_or_else(|| d.op.clone());
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
    use crate::error::SpearError;
    use crate::history::RefinementMode;
    use crate::ops::Op;
    use crate::pipeline::Pipeline;
    use crate::plan::asm::{assemble, create, release, Slot};
    use crate::plan::{lower, PLACEHOLDER};

    fn lowered(p: &Pipeline) -> Program {
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
    fn extra_passes_plug_in() {
        struct AlwaysWarn;
        impl LintPass for AlwaysWarn {
            fn name(&self) -> &'static str {
                "always-warn"
            }
            fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
                vec![Diagnostic::plan_level(
                    &lints::BUDGET_AT_RISK,
                    format!("custom pass saw {} slot(s)", cx.program.code().len()),
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

    /// The gate's findings on hand-written `slots`, rendered; the gate must
    /// refuse to release them.
    fn gated(name: &str, slots: Vec<Slot>) -> String {
        let program = assemble(name, slots);
        match release(program.clone()) {
            Err(SpearError::InvalidPlan { plan, diagnostics }) => {
                assert_eq!(plan, name);
                render_diagnostics(&program, &diagnostics)
            }
            other => panic!("the gate released {name}: {other:?}"),
        }
    }

    fn gen_key(label: &str, key: &str) -> Op {
        Op::Gen {
            label: label.into(),
            prompt: crate::ops::PromptRef::key(key),
            options: crate::llm::GenOptions::default(),
        }
    }

    #[test]
    fn golden_e001_bad_jump_target() {
        assert_eq!(
            gated("bad_jump", vec![Slot::Leaf(create("p")), Slot::Jump(9)]),
            "error[SPEAR-E001] in plan \"bad_jump\": jump target 9 is out of bounds (2 slots)\n\
             \x20 0001  JUMP -> 0009\n"
        );
    }

    #[test]
    fn golden_e002_check_target_escapes() {
        let slots = vec![
            Slot::Leaf(create("p")),
            Slot::Check(Cond::Always, 7),
            Slot::Leaf(gen_key("a", "p")),
        ];
        assert_eq!(
            gated("bad_else", slots),
            "error[SPEAR-E002] in plan \"bad_else\": CHECK else-target 7 escapes the plan (3 \
             slots)\n\
             \x20 0001  CHECK[true] else -> 0007\n"
        );
    }

    #[test]
    fn golden_e003_placeholder_leak() {
        let text = gated("leaked", vec![Slot::Jump(PLACEHOLDER)]);
        assert!(
            text.starts_with(
                "error[SPEAR-E003] in plan \"leaked\": JUMP at slot 0000 kept the u32::MAX \
                 lowering placeholder\n"
            ),
            "{text}"
        );
        let text = gated("leaked_else", vec![Slot::Check(Cond::Always, PLACEHOLDER)]);
        assert!(
            text.starts_with(
                "error[SPEAR-E003] in plan \"leaked_else\": CHECK at slot 0000 kept the \
                 u32::MAX lowering placeholder\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn golden_e006_backward_jump() {
        assert_eq!(
            gated("looping", vec![Slot::Leaf(create("p")), Slot::Jump(0)]),
            "error[SPEAR-E006] in plan \"looping\": slot 0001 jumps backwards to 0000; lowered \
             plans must move strictly forward to guarantee termination\n\
             \x20 0001  JUMP -> 0000\n"
        );
    }

    #[test]
    fn golden_e012_check_in_leaf_slot() {
        // A hand-built program can put a CHECK where only data operators
        // belong; its then-branch has no slots, so executing it would
        // silently skip the CREATE. The gate refuses it instead.
        let check = Op::Check {
            cond: Cond::Always,
            then_ops: vec![create("p")],
            else_ops: Vec::new(),
        };
        assert_eq!(
            gated("leaf_check", vec![Slot::Leaf(check)]),
            "error[SPEAR-E012] in plan \"leaf_check\": leaf slot 0000 carries a CHECK; its \
             branches must be lowered to Check and Jump slots\n\
             \x20 0000  CHECK[true]\n"
        );
    }

    #[test]
    fn golden_w001_unreachable_slot() {
        // Code `lower` never emits but the gate admits: a forward jump
        // over a slot nothing else reaches.
        let slots = vec![
            Slot::Jump(2),
            Slot::Leaf(create("orphan")),
            Slot::Leaf(create("p")),
        ];
        let program = release(assemble("dead_code", slots)).expect("forward and in bounds");
        assert_eq!(
            render_diagnostics(&program, &Verifier::new().verify(&program)),
            "warning[SPEAR-W001] in plan \"dead_code\": slot 0001 can never be reached from \
             entry\n\
             \x20 0001  REF[CREATE, set_text] on P[\"orphan\"]\n"
        );
    }
}
