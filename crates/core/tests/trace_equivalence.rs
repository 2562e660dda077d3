//! Differential testing of the executors: random small pipelines must
//! produce **byte-identical** traces and reports whether they run
//! through the reference tree walk (`Runtime::execute_tree`, the
//! specification) or the bytecode VM (`plan::lower` +
//! `Runtime::execute_program`) — including pipelines that fail mid-run,
//! whose error unwind (one `Error` trace event per enclosing CHECK) the VM
//! replays by walking each slot's chain of enclosing branches, innermost
//! first, with CHECKs nested up to three deep; pipelines aborted mid-run by an
//! operator budget; and pipelines entered with an already-cancelled token.
//! A second property pins batch determinism: running the pipeline on a
//! [`BatchRunner`], from its tree form or its lowered plan, returns the
//! same per-job bytes at 1, 4, and 8 workers. Lowering emits the program
//! directly, so these properties are what hold its slots and specs to the
//! specification. A third property checks the structural
//! identity over the same corpus: plan fingerprints and trace digests
//! partition pipelines and traces exactly as their serialized form does,
//! except where JSON text conflates values. The generator rarely unwinds
//! through three frames or records a three-deep trigger (most generated
//! conditions fail, or an earlier operator aborts first), so deterministic
//! cases pin those paths: a GEN failing under three CHECKs, and a REF in a
//! three-deep then-branch and else-branch — where both spines share the
//! check's label and trigger text into the trace.

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
                PromptRef::Inline(format!("{text} {{{{ctx:tweet}}}}").into()),
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
    leaf.prop_recursive(3, 12, 3, |inner| {
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

/// The structural hashes of `a` and `b` separate exactly what the
/// serialized tree separates (which keeps ints and floats apart), and the
/// JSON text separates exactly what that tree separates once integral
/// floats are read as integers.
fn same_partition<T: Serialize>(
    a: &T,
    b: &T,
    (hash_a, hash_b): (u64, u64),
) -> std::result::Result<(), String> {
    let (tree_a, tree_b) = (a.serialize_content(), b.serialize_content());
    let json_a = serde_json::to_string(a).map_err(|e| e.to_string())?;
    let json_b = serde_json::to_string(b).map_err(|e| e.to_string())?;
    if (hash_a == hash_b) != (tree_a == tree_b) {
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

/// Run `instrs` through the tree walk and the VM from one seeded state and
/// require the two runs to agree event for event, digest for digest and
/// byte for byte; returns the VM's state.
fn agree(instrs: &[Instr]) -> ExecState {
    let p = pipeline(instrs);
    let rt = runtime();
    let mut tree = seeded_state("a tweet");
    let mut vm = tree.clone();
    let tree_result = rt.execute_tree(&p, &mut tree);
    let vm_result = rt.execute_program(&lower(&p).unwrap(), &mut vm);
    assert_eq!(tree.trace.events(), vm.trace.events(), "pipeline: {p:?}");
    let digest = |t: &Trace| t.digest().unwrap_or_else(|never| match never {});
    assert_eq!(digest(&tree.trace), digest(&vm.trace));
    assert_eq!(
        fingerprint(&tree_result, &tree),
        fingerprint(&vm_result, &vm)
    );
    assert_eq!(
        tree.prompts.get("p0").unwrap(),
        vm.prompts.get("p0").unwrap()
    );
    vm
}

/// `inner` three CHECKs deep: each level holds (`"tweet" in C`,
/// `truthy(C["tweet"])`, `true`) unless `innermost_else`, where the third
/// fails (`"g3" in C`) and `inner` is its else-branch.
fn three_deep(inner: Vec<Instr>, innermost_else: bool) -> Vec<Instr> {
    let third = if innermost_else {
        Instr::Check(
            Cond::InContext("g3".into()),
            vec![Instr::Expand(0, "unused".into())],
            inner,
        )
    } else {
        Instr::Check(Cond::Always, inner, vec![])
    };
    let second = Instr::Check(
        Cond::Truthy(Operand::Ctx("tweet".into())),
        vec![third],
        vec![],
    );
    vec![Instr::Check(
        Cond::InContext("tweet".into()),
        vec![second],
        vec![],
    )]
}

/// The op lines of the run's `Error` events, in order.
fn errors(state: &ExecState) -> Vec<&str> {
    state
        .trace
        .of_kind(TraceKind::Error)
        .into_iter()
        .map(|event| &*event.op)
        .collect()
}

#[test]
fn a_gen_failing_under_three_checks_unwinds_through_three_frames_on_both_spines() {
    let state = agree(&three_deep(vec![Instr::Gen(0, 3)], false));
    assert_eq!(
        errors(&state),
        [
            "GEN[\"g0\"] using P[\"p3\"]",
            "CHECK[true]",
            "CHECK[truthy(C[\"tweet\"])]",
            "CHECK[\"tweet\" in C]",
            "pipeline \"prop\"",
        ]
    );
}

#[test]
fn a_ref_three_deep_records_its_branch_trigger_on_both_spines() {
    for (innermost_else, trigger) in [(false, "true"), (true, "!(\"g3\" in C)")] {
        // The REF records its trigger; the GEN after it fails and unwinds
        // through the same three frames.
        let inner = vec![Instr::Expand(0, "deep".into()), Instr::Gen(1, 3)];
        let state = agree(&three_deep(inner, innermost_else));
        let refs = state.trace.of_kind(TraceKind::Ref);
        assert_eq!(refs.len(), 1);
        let recorded = refs[0].detail.to_value();
        assert_eq!(
            recorded.path("trigger").and_then(Value::as_str),
            Some(trigger)
        );
        let entry = state.prompts.get("p0").unwrap();
        let logged = entry.ref_log.last().unwrap().trigger.as_deref();
        assert_eq!(logged, Some(trigger));
        let innermost = if innermost_else {
            "CHECK[\"g3\" in C]"
        } else {
            "CHECK[true]"
        };
        assert_eq!(errors(&state)[1], innermost);
        assert_eq!(errors(&state).len(), 1 + 3 + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan fingerprints and trace digests induce the same equivalence
    /// classes as the serialized tree of the pipeline a plan is lowered
    /// from and of the trace, over pairs that are identical, identical up
    /// to `Int(n)` vs `Float(n)` literals (JSON-equal, yet different
    /// programs), or independent.
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
        let (pipeline_a, pipeline_b) = (pipeline(&a), pipeline(&b));
        let (plan_a, plan_b) = (lower(&pipeline_a).unwrap(), lower(&pipeline_b).unwrap());
        let fingerprints = same_partition(
            &pipeline_a,
            &pipeline_b,
            (plan_a.fingerprint(), plan_b.fingerprint()),
        );
        prop_assert!(fingerprints.is_ok(), "plans: {:?}", fingerprints);

        let rt = runtime();
        let (mut state_a, mut state_b) = (seeded_state(&tweets.0), seeded_state(&tweets.1));
        for (plan, state) in [(&plan_a, &mut state_a), (&plan_b, &mut state_b)] {
            let _ = rt.execute_program(plan, state);
        }
        let digest = |t: &Trace| t.digest().unwrap_or_else(|never| match never {});
        let digests = same_partition(
            &state_a.trace,
            &state_b.trace,
            (digest(&state_a.trace), digest(&state_b.trace)),
        );
        prop_assert!(digests.is_ok(), "traces: {:?}", digests);
    }

    /// Tree walk and bytecode VM agree byte-for-byte on every random
    /// pipeline — reports, traces (success and error unwinds), and state.
    #[test]
    fn tree_and_vm_traces_are_byte_identical(
        instrs in proptest::collection::vec(instr_strategy(), 0..6),
        tweet in "[a-z ]{0,16}",
    ) {
        let p = pipeline(&instrs);
        let lowered = lower(&p).unwrap();
        let rt = runtime();

        let mut tree_state = seeded_state(&tweet);
        let mut vm_state = tree_state.clone();
        let tree_result = rt.execute_tree(&p, &mut tree_state);
        let vm_result = rt.execute_program(&lowered, &mut vm_state);

        prop_assert_eq!(
            fingerprint(&tree_result, &tree_state),
            fingerprint(&vm_result, &vm_state),
            "tree vs VM, pipeline: {:?}", p
        );
    }

    /// Tree walk and VM also agree when the run is cut
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
        let mut vm_state = tree_state.clone();
        let tree_result = rt.execute_tree(&p, &mut tree_state);
        let vm_result = rt.execute_program(&lowered, &mut vm_state);

        prop_assert_eq!(
            fingerprint(&tree_result, &tree_state),
            fingerprint(&vm_result, &vm_state),
            "tree vs VM, max_ops={}, cancelled={}, pipeline: {:?}",
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
        let one = run(1, false);
        prop_assert_eq!(&one, &run(4, false), "worker count 4 changed results");
        prop_assert_eq!(&one, &run(8, false), "worker count 8 changed results");
        for workers in [1, 4, 8] {
            prop_assert_eq!(&one, &run(workers, true), "run_states at {} workers", workers);
        }
        prop_assert_eq!(&one, &solo, "batch diverges from solo tree walk");
    }
}
