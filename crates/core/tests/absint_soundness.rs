//! Soundness of the bytecode abstract interpreter: for random pipelines,
//! every *completed* concrete execution must land inside the statically
//! derived intervals — completion tokens in `tokens`, GEN invocations in
//! `llm_calls`, virtual latency at or above `latency_lo_us`, and the KV
//! footprint within `ProgramBounds::kv_blocks`. The concrete runs come
//! from the [`EchoLlm`] reference backend (deterministic, ≥ 1 completion
//! token and ≥ 100 virtual µs per call — i.e. it satisfies the default
//! [`ResourceModel`]), driven solo and through a [`BatchRunner`] at 1, 4,
//! and 8 workers so the bounds are checked against every execution spine.

use std::sync::Arc;

use proptest::prelude::*;

use spear_core::analysis::{analyze, ProgramBounds, ResourceModel};
use spear_core::prelude::*;
use spear_core::runtime::ExecReport;

/// A generator-friendly pipeline script, mirroring the trace-equivalence
/// grammar: leaves that can fail (GEN on a possibly-undefined key) keep
/// the corpus honest, nested CHECKs give the analyzer real branching.
#[derive(Debug, Clone)]
enum Instr {
    CreateText(u8, String),
    Expand(u8, String),
    Gen(u8, u8),
    Check(Cond, Vec<Instr>, Vec<Instr>),
}

fn key(k: u8) -> String {
    format!("p{k}")
}

fn apply(mut b: PipelineBuilder, instrs: &[Instr]) -> PipelineBuilder {
    for instr in instrs {
        b = match instr {
            Instr::CreateText(k, text) => b.create_text(&key(*k), text, RefinementMode::Manual),
            Instr::Expand(k, text) => b.expand(&key(*k), text),
            Instr::Gen(label, k) => b.gen(&format!("g{label}"), &key(*k)),
            Instr::Check(cond, then, els) => {
                if els.is_empty() {
                    b.check(cond.clone(), |b| apply(b, then))
                } else {
                    b.check_else(cond.clone(), |b| apply(b, then), |b| apply(b, els))
                }
            }
        };
    }
    b
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Always),
        Just(Cond::Never),
        Just(Cond::low_confidence(0.7)),
        (0u8..4).prop_map(|k| Cond::InContext(format!("g{k}"))),
    ]
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    let leaf = prop_oneof![
        ((0u8..4), "[a-z ]{1,12}").prop_map(|(k, t)| Instr::CreateText(k, t)),
        ((0u8..4), "[a-z ]{1,8}").prop_map(|(k, t)| Instr::Expand(k, t)),
        ((0u8..4), (0u8..4)).prop_map(|(l, k)| Instr::Gen(l, k)),
    ];
    leaf.prop_recursive(2, 10, 3, |inner| {
        (
            cond_strategy(),
            proptest::collection::vec(inner.clone(), 0..3),
            proptest::collection::vec(inner, 0..2),
        )
            .prop_map(|(c, t, e)| Instr::Check(c, t, e))
    })
}

fn runtime() -> Runtime {
    Runtime::builder().llm(Arc::new(EchoLlm::default())).build()
}

fn seeded_state(tweet: &str) -> ExecState {
    let mut state = ExecState::new();
    state.context.set("tweet", tweet.to_string());
    state.prompts.define(
        "p0",
        "base prompt {{ctx:tweet}}",
        "seed",
        RefinementMode::Manual,
    );
    state
}

/// Check one completed run against the program's static envelope.
fn assert_within(
    bounds: &ProgramBounds,
    report: &ExecReport,
) -> std::result::Result<(), TestCaseError> {
    prop_assert!(
        bounds.llm_calls.contains(report.gens),
        "gens {} outside llm_calls {}",
        report.gens,
        bounds.llm_calls
    );
    prop_assert!(
        bounds.tokens.contains(report.usage.completion_tokens),
        "completion tokens {} outside tokens {}",
        report.usage.completion_tokens,
        bounds.tokens
    );
    prop_assert!(
        u64::try_from(report.latency.as_micros()).unwrap_or(u64::MAX) >= bounds.latency_lo_us,
        "latency {}us below static floor {}us",
        report.latency.as_micros(),
        bounds.latency_lo_us
    );
    for block_size in [8u64, 16, 32] {
        let used = report
            .usage
            .prompt_tokens
            .saturating_add(report.usage.completion_tokens)
            .div_ceil(block_size);
        prop_assert!(
            used <= bounds.kv_blocks(report.usage.prompt_tokens, block_size),
            "{used} KV blocks exceed static footprint {} (block size {block_size})",
            bounds.kv_blocks(report.usage.prompt_tokens, block_size)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Solo runs: the analyzer's intervals contain every completed
    /// execution of the program.
    #[test]
    fn completed_runs_stay_inside_the_static_envelope(
        instrs in proptest::collection::vec(instr_strategy(), 0..6),
        tweet in "[a-z ]{0,16}",
    ) {
        let p = apply(Pipeline::builder("sound"), &instrs).build();
        let program = lower(&p).unwrap();
        let bounds = analyze(&program, &ResourceModel::default());

        let rt = runtime();
        let mut state = seeded_state(&tweet);
        if let Ok(report) = rt.execute_program(&program, &mut state) {
            assert_within(&bounds, &report)?;
        }
    }

    /// Batch runs: the same containment holds for every job at 1, 4, and
    /// 8 workers — worker count never moves an execution outside bounds.
    #[test]
    fn batch_runs_stay_inside_the_static_envelope(
        instrs in proptest::collection::vec(instr_strategy(), 0..5),
    ) {
        let p = apply(Pipeline::builder("sound"), &instrs).build();
        let lowered = Arc::new(lower(&p).unwrap());
        let bounds = analyze(&lowered, &ResourceModel::default());
        let tweets: Vec<String> = (0..6).map(|i| format!("tweet number {i}")).collect();

        for workers in [1usize, 4, 8] {
            let rt = runtime();
            let states = tweets.iter().map(|t| seeded_state(t)).collect();
            for outcome in BatchRunner::new(workers)
                .run_lowered(&rt, &lowered, states)
                .into_iter()
                .flatten()
            {
                assert_within(&bounds, &outcome.report)?;
            }
        }
    }
}
