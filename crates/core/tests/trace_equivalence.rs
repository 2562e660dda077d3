//! Differential testing of the executors: random small pipelines must
//! produce **byte-identical** traces and reports whether they run
//! through the reference tree walk (`Runtime::execute_tree`, the
//! specification), the compiled bytecode VM (`vm::compile` +
//! `Runtime::execute_program`),
//! or the *optimized* bytecode VM (`vm::optimize` +
//! `Runtime::execute_program`) — including pipelines that fail mid-run,
//! whose error unwind (one `Error` trace event per enclosing CHECK) the VM
//! replays from its pooled frames; pipelines aborted mid-run by an
//! operator budget; and pipelines entered with an already-cancelled token.
//! A second property pins batch determinism: running the pipeline on a
//! [`BatchRunner`], from its tree form or its lowered plan, returns the
//! same per-job bytes at 1, 4, and 8 workers. Every compiled program in
//! the corpus must also pass translation validation
//! (`analysis::validate_compile`) against its source plan. A third
//! property checks the structural identity over the same corpus: plan
//! fingerprints and trace digests partition plans and traces exactly as
//! their serialized form does, except where JSON text conflates values.

use std::sync::Arc;

use proptest::prelude::*;
use serde::{Content, Serialize};

use spear_core::prelude::*;

/// A generator-friendly pipeline script; `apply` maps it onto the builder.
/// The grammar deliberately includes sometimes-failing ops (GEN on a
/// possibly-missing key, MERGE with a possibly-undefined source) so error
/// paths are exercised, and nested CHECKs so unwind frames stack.
#[derive(Debug, Clone)]
enum Instr {
    CreateText(u8, String),
    Expand(u8, String),
    Gen(u8, u8),
    GenInline(u8, String),
    Merge(u8, u8, u8),
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
            Instr::GenInline(label, text) => b.gen_with(
                &format!("g{label}"),
                PromptRef::Inline(format!("{text} {{{{ctx:tweet}}}}")),
                GenOptions::default(),
            ),
            Instr::Merge(l, r, into) => b.merge(
                &key(*l),
                &key(*r),
                &key(*into),
                MergePolicy::Concat {
                    separator: " / ".into(),
                },
            ),
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
        (0i64..2).prop_map(|n| Cond::signal_cmp("confidence", CmpOp::Ge, n)),
        (0u8..4).prop_map(|k| Cond::InContext(format!("g{k}"))),
        (0u8..4).prop_map(|k| Cond::Truthy(Operand::Ctx(format!("g{k}")))),
    ]
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    let leaf = prop_oneof![
        ((0u8..4), "[a-z ]{1,12}").prop_map(|(k, t)| Instr::CreateText(k, t)),
        ((0u8..4), "[a-z ]{1,8}").prop_map(|(k, t)| Instr::Expand(k, t)),
        ((0u8..4), (0u8..4)).prop_map(|(l, k)| Instr::Gen(l, k)),
        ((0u8..4), "[a-z ]{1,8}").prop_map(|(l, t)| Instr::GenInline(l, t)),
        ((0u8..4), (0u8..4), (0u8..4)).prop_map(|(l, r, i)| Instr::Merge(l, r, i)),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        (
            cond_strategy(),
            proptest::collection::vec(inner.clone(), 0..3),
            proptest::collection::vec(inner, 0..2),
        )
            .prop_map(|(c, t, e)| Instr::Check(c, t, e))
    })
}

fn pipeline(instrs: &[Instr]) -> Pipeline {
    apply(Pipeline::builder("prop"), instrs).build()
}

fn runtime() -> Runtime {
    Runtime::builder().llm(Arc::new(EchoLlm::default())).build()
}

fn runtime_with_budget(max_ops: u64) -> Runtime {
    Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .config(RuntimeConfig {
            max_ops,
            ..RuntimeConfig::default()
        })
        .build()
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

/// Everything observable about one execution, rendered to bytes.
fn fingerprint(result: &Result<ExecReport>, state: &ExecState) -> String {
    format!(
        "{result:?}|{}|{}|{}",
        state.trace.to_jsonl().expect("trace serializes"),
        state.step,
        state
            .metadata
            .get("confidence")
            .map(|v| format!("{v:?}"))
            .unwrap_or_default(),
    )
}

/// `instrs` with every integer comparison literal replaced by the equal
/// float: a different plan whose JSON text is the same.
fn floated(instrs: &[Instr]) -> Vec<Instr> {
    instrs
        .iter()
        .map(|instr| match instr {
            Instr::Check(cond, then, els) => {
                let cond = match cond {
                    Cond::Cmp {
                        lhs,
                        op,
                        rhs: Operand::Lit(Value::Int(n)),
                    } => Cond::Cmp {
                        lhs: lhs.clone(),
                        op: *op,
                        rhs: Operand::Lit(Value::Float(*n as f64)),
                    },
                    other => other.clone(),
                };
                Instr::Check(cond, floated(then), floated(els))
            }
            other => other.clone(),
        })
        .collect()
}

/// The one conflation of the JSON writer this corpus can reach: an
/// integral float is written without a fraction, as the integer is.
fn json_conflates_integral_floats(content: Content) -> Content {
    match content {
        Content::F64(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Content::I64(f as i64),
        Content::Seq(items) => Content::Seq(
            items
                .into_iter()
                .map(json_conflates_integral_floats)
                .collect(),
        ),
        Content::Map(entries) => Content::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k, json_conflates_integral_floats(v)))
                .collect(),
        ),
        other => other,
    }
}

/// The structural hash separates exactly what the serialized tree
/// separates (which keeps ints and floats apart), and the JSON text
/// separates exactly what that tree separates once integral floats are
/// read as integers.
fn same_partition<T: Serialize>(
    a: &T,
    b: &T,
    hash: impl Fn(&T) -> u64,
) -> std::result::Result<(), String> {
    let (tree_a, tree_b) = (a.serialize_content(), b.serialize_content());
    let json_a = serde_json::to_string(a).map_err(|e| e.to_string())?;
    let json_b = serde_json::to_string(b).map_err(|e| e.to_string())?;
    if (hash(a) == hash(b)) != (tree_a == tree_b) {
        return Err(format!("hash and tree disagree: {json_a} vs {json_b}"));
    }
    let (text_a, text_b) = (
        json_conflates_integral_floats(tree_a),
        json_conflates_integral_floats(tree_b),
    );
    if (json_a == json_b) != (text_a == text_b) {
        return Err(format!(
            "JSON conflates more than floats: {json_a} vs {json_b}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan fingerprints and trace digests induce the same equivalence
    /// classes as the serialized tree, over pairs that are identical,
    /// identical up to `Int(n)` vs `Float(n)` literals (JSON-equal, yet
    /// different programs), or independent.
    #[test]
    fn structural_identity_partitions_like_the_serialized_form(
        a in proptest::collection::vec(instr_strategy(), 0..6),
        b in proptest::collection::vec(instr_strategy(), 0..6),
        pairing in 0u8..3,
        tweets in ("[ab]{0,2}", "[ab]{0,2}"),
    ) {
        let b = match pairing {
            0 => a.clone(),
            1 => floated(&a),
            _ => b,
        };
        let (plan_a, plan_b) = (lower(&pipeline(&a)).unwrap(), lower(&pipeline(&b)).unwrap());
        let fingerprints = same_partition(&plan_a, &plan_b, LoweredPlan::fingerprint);
        prop_assert!(fingerprints.is_ok(), "plans: {:?}", fingerprints);

        let rt = runtime();
        let (mut state_a, mut state_b) = (seeded_state(&tweets.0), seeded_state(&tweets.1));
        for (plan, state) in [(&plan_a, &mut state_a), (&plan_b, &mut state_b)] {
            let program = spear_core::compile(plan).expect("builder plans compile");
            let _ = rt.execute_program(&program, state);
        }
        let digest = |t: &Trace| t.digest().unwrap_or_else(|never| match never {});
        let digests = same_partition(&state_a.trace, &state_b.trace, digest);
        prop_assert!(digests.is_ok(), "traces: {:?}", digests);
    }

    /// Tree walk, bytecode VM, and optimized VM agree byte-for-byte on
    /// every random pipeline — reports, traces (success and error
    /// unwinds), and state.
    #[test]
    fn tree_vm_and_optimized_vm_traces_are_byte_identical(
        instrs in proptest::collection::vec(instr_strategy(), 0..6),
        tweet in "[a-z ]{0,16}",
    ) {
        let p = pipeline(&instrs);
        let lowered = lower(&p).unwrap();
        let rt = runtime();

        let mut tree_state = seeded_state(&tweet);
        let mut vm_state = tree_state.deep_clone();
        let mut opt_state = tree_state.deep_clone();
        let tree_result = rt.execute_tree(&p, &mut tree_state);
        let program = spear_core::compile(&lowered).expect("builder plans compile");
        let vm_result = rt.execute_program(&program, &mut vm_state);

        // Translation validation holds over the whole random corpus, and
        // the verified-optimized program replays the same observable run.
        if let Err(failures) = spear_core::analysis::validate_compile(&lowered, &program) {
            prop_assert!(false, "TV failed: {:?}, pipeline: {:?}", failures, p);
        }
        prop_assert_eq!(program.code().len(), lowered.ops.len(), "one pc per slot");
        let optimized = spear_core::optimize(&program).unwrap_or(program);
        let opt_result = rt.execute_program(&optimized, &mut opt_state);

        let tree = fingerprint(&tree_result, &tree_state);
        prop_assert_eq!(
            &tree,
            &fingerprint(&vm_result, &vm_state),
            "tree vs VM, pipeline: {:?}", p
        );
        prop_assert_eq!(
            &tree,
            &fingerprint(&opt_result, &opt_state),
            "tree vs optimized VM, pipeline: {:?}", p
        );
    }

    /// Tree walk, VM, and optimized VM also agree when the run is cut
    /// short from outside: a tight operator budget aborts mid-run (same
    /// slot, same unwind frames), and an already-cancelled token aborts at
    /// the first gate.
    #[test]
    fn budget_aborts_and_cancellation_unwind_identically(
        instrs in proptest::collection::vec(instr_strategy(), 1..6),
        tweet in "[a-z ]{0,12}",
        max_ops in 1u64..6,
        cancelled in any::<bool>(),
    ) {
        let p = pipeline(&instrs);
        let lowered = lower(&p).unwrap();
        let rt = runtime_with_budget(max_ops);

        let mut tree_state = seeded_state(&tweet);
        if cancelled {
            let token = CancelToken::new("admission reset");
            token.cancel();
            tree_state.cancel = Some(token);
        }
        let mut vm_state = tree_state.deep_clone();
        let mut opt_state = tree_state.deep_clone();
        let tree_result = rt.execute_tree(&p, &mut tree_state);
        let program = spear_core::compile(&lowered).expect("builder plans compile");
        let vm_result = rt.execute_program(&program, &mut vm_state);
        if let Err(failures) = spear_core::analysis::validate_compile(&lowered, &program) {
            prop_assert!(false, "TV failed: {:?}, pipeline: {:?}", failures, p);
        }
        prop_assert_eq!(program.code().len(), lowered.ops.len(), "one pc per slot");
        let optimized = spear_core::optimize(&program).unwrap_or(program);
        let opt_result = rt.execute_program(&optimized, &mut opt_state);

        let tree = fingerprint(&tree_result, &tree_state);
        prop_assert_eq!(
            &tree,
            &fingerprint(&vm_result, &vm_state),
            "tree vs VM, max_ops={}, cancelled={}, pipeline: {:?}",
            max_ops, cancelled, p
        );
        prop_assert_eq!(
            &tree,
            &fingerprint(&opt_result, &opt_state),
            "tree vs optimized VM, max_ops={}, cancelled={}, pipeline: {:?}",
            max_ops, cancelled, p
        );
    }

    /// A batch of jobs returns identical per-job bytes under 1, 4, and 8
    /// workers whether it is submitted as the pipeline (`run_states`) or
    /// its lowered plan (`run_lowered`), and each job matches a solo tree
    /// walk.
    #[test]
    fn batch_execution_is_worker_count_invariant(
        instrs in proptest::collection::vec(instr_strategy(), 0..5),
    ) {
        let p = Arc::new(pipeline(&instrs));
        let lowered = Arc::new(lower(&p).unwrap());
        let tweets: Vec<String> = (0..6).map(|i| format!("tweet number {i}")).collect();

        let run = |workers: usize, from_tree: bool| -> Vec<String> {
            let rt = runtime();
            let states = tweets.iter().map(|t| seeded_state(t)).collect();
            let runner = BatchRunner::new(workers);
            let outcomes = if from_tree {
                runner.run_states(&rt, &p, states)
            } else {
                runner.run_lowered(&rt, &lowered, states)
            };
            outcomes
                .into_iter()
                .map(|slot| match slot {
                    Ok(outcome) => fingerprint(&Ok(outcome.report), &outcome.state),
                    Err(e) => format!("err:{e:?}"),
                })
                .collect()
        };
        let solo: Vec<String> = tweets
            .iter()
            .map(|t| {
                let rt = runtime();
                let mut state = seeded_state(t);
                let result = rt.execute_tree(&p, &mut state);
                match result {
                    Ok(report) => fingerprint(&Ok(report), &state),
                    Err(e) => format!("err:{e:?}"),
                }
            })
            .collect();
        // The verified-optimized program runs other code than the batch:
        // its solo runs must match the batch bytes at every worker count.
        let program = spear_core::compile(&lowered).expect("builder plans compile");
        let optimized = spear_core::optimize(&program).unwrap_or(program);
        let solo_opt: Vec<String> = tweets
            .iter()
            .map(|t| {
                let rt = runtime();
                let mut state = seeded_state(t);
                let result = rt.execute_program(&optimized, &mut state);
                match result {
                    Ok(report) => fingerprint(&Ok(report), &state),
                    Err(e) => format!("err:{e:?}"),
                }
            })
            .collect();

        let one = run(1, false);
        prop_assert_eq!(&one, &run(4, false), "worker count 4 changed results");
        prop_assert_eq!(&one, &run(8, false), "worker count 8 changed results");
        for workers in [1, 4, 8] {
            prop_assert_eq!(&one, &run(workers, true), "run_states at {} workers", workers);
        }
        prop_assert_eq!(&one, &solo, "batch diverges from solo tree walk");
        prop_assert_eq!(&one, &solo_opt, "batch diverges from optimized VM");
    }
}
