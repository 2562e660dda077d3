//! The whole grammar in one program: `kitchen_sink.dl` must compile to
//! exactly the views and pipelines written out below with `ViewDef` and
//! `Pipeline::builder`, so any change to how the front end assembles core
//! operators shows up as a diff here.

use std::collections::BTreeMap;

use spear_core::condition::{CmpOp, Cond, Operand};
use spear_core::history::{RefAction, RefinementMode};
use spear_core::llm::GenOptions;
use spear_core::ops::{MergePolicy, Op, PayloadSpec, PromptRef};
use spear_core::pipeline::Pipeline;
use spear_core::value::{map, Value};
use spear_core::view::{ParamSpec, ViewDef};
use spear_dl::compile;

const KITCHEN_SINK: &str = include_str!("kitchen_sink.dl");

fn args<const N: usize>(pairs: [(&str, Value); N]) -> BTreeMap<String, Value> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn signal(key: &str) -> Operand {
    Operand::Signal(key.to_string())
}

fn ctx(key: &str) -> Operand {
    Operand::Ctx(key.to_string())
}

fn cmp(lhs: Operand, op: CmpOp, rhs: Operand) -> Cond {
    Cond::Cmp { lhs, op, rhs }
}

fn lit(value: impl Into<Value>) -> Operand {
    Operand::Lit(value.into())
}

fn not(cond: Cond) -> Cond {
    Cond::Not(Box::new(cond))
}

fn gen_view(label: &str, name: &str, args: BTreeMap<String, Value>) -> Op {
    Op::Gen {
        label: label.to_string(),
        prompt: PromptRef::View {
            name: name.to_string(),
            args,
        },
        options: GenOptions::default(),
    }
}

fn expected_views() -> Vec<ViewDef> {
    vec![
        ViewDef::new(
            "full",
            "Use {{drug}} within {{word_limit}} words.\n\t\"quoted\" \\ backslash\n\
             Notes: {{ctx:notes}}",
        )
        .with_param(ParamSpec::required("drug"))
        .with_param(ParamSpec::optional("word_limit", 50))
        .with_param(ParamSpec::optional("ratio", 0.25))
        .with_param(ParamSpec::optional("strict", true))
        .with_param(ParamSpec::optional("loose", false))
        .with_param(ParamSpec::optional("none", Value::Null))
        .with_param(ParamSpec::optional("label", "x"))
        .with_tag("zeta")
        .with_tag("alpha")
        .with_description("Every view clause"),
        ViewDef::new("bare", "plain"),
        ViewDef::new("empty", ""),
    ]
}

fn expected_sink() -> Pipeline {
    let filters = args([
        ("patient", Value::from("pt-1")),
        ("max age", Value::Int(72)),
        ("weight", Value::Float(-1.5)),
        ("on", Value::Bool(true)),
    ]);
    let manual = RefinementMode::Manual;
    Pipeline::builder("sink")
        .ret("notes", "all", 16)
        .op(Op::Ret {
            source: "notes".to_string(),
            query: spear_core::retriever::RetrievalQuery::Structured(filters),
            prompt: Some("intent".to_string()),
            into: "filtered".to_string(),
            limit: 4,
        })
        .ret_structured("notes", BTreeMap::new(), "none", 0)
        .gen("by_key", "p")
        .op(gen_view(
            "by_view",
            "full",
            args([("drug", Value::from("x")), ("word_limit", Value::Int(10))]),
        ))
        .op(gen_view("bare_view", "bare", BTreeMap::new()))
        .op(gen_view("empty_args", "bare", BTreeMap::new()))
        .gen_with(
            "inline",
            PromptRef::Inline("Classify: {{ctx:tweet}}".into()),
            GenOptions::default(),
        )
        .create_from_view("p", "full", args([("drug", Value::from("Enoxaparin"))]))
        .refine(
            "p",
            RefAction::Append,
            "from_view",
            map([
                ("view", Value::from("bare")),
                ("args", Value::Map(BTreeMap::new())),
            ]),
            manual,
        )
        .refine(
            "p",
            RefAction::Prepend,
            "set_text",
            Value::from("Preface."),
            manual,
        )
        .refine("p", RefAction::Update, "normalize", Value::Null, manual)
        .refine(
            "p",
            RefAction::Update,
            "append",
            Value::from("Focus."),
            RefinementMode::Assisted,
        )
        .refine(
            "p",
            RefAction::Update,
            "replace",
            map([("find", Value::from("old")), ("with_", Value::from("new"))]),
            RefinementMode::Auto,
        )
        .refine(
            "q",
            RefAction::Create,
            "set_text",
            Value::Float(2.5),
            manual,
        )
        .check(Cond::low_confidence(0.7), |b| b.gen("low", "p"))
        .check_else(
            Cond::Any(vec![
                Cond::All(vec![
                    cmp(signal("a"), CmpOp::Le, lit(1)),
                    cmp(ctx("b"), CmpOp::Ge, lit(2)),
                ]),
                not(cmp(ctx("c"), CmpOp::Gt, signal("d"))),
            ]),
            |b| b,
            |b| b.gen("otherwise", "p"),
        )
        .check(
            Cond::All(vec![
                Cond::InContext("k".to_string()),
                Cond::NotInContext("k".to_string()),
                Cond::HasSignal("s".to_string()),
                not(Cond::HasSignal("s".to_string())),
            ]),
            |b| b,
        )
        .check(
            Cond::Any(vec![
                cmp(ctx("x"), CmpOp::Eq, lit("y")),
                cmp(ctx("x"), CmpOp::Ne, lit(Value::Null)),
                cmp(signal("n"), CmpOp::Eq, lit(-3)),
            ]),
            |b| b,
        )
        .check(Cond::Always, |b| {
            b.check_else(
                Cond::Never,
                |b| b,
                |b| b.check(not(not(Cond::Truthy(ctx("flag")))), |b| b),
            )
        })
        .check(Cond::Truthy(signal("sig")), |b| b)
        .check(Cond::Truthy(lit(1)), |b| b)
        .merge("a", "b", "m1", MergePolicy::PreferLeft)
        .merge("a", "b", "m2", MergePolicy::PreferLeft)
        .merge("a", "b", "m3", MergePolicy::PreferRight)
        .merge(
            "a",
            "b",
            "m4",
            MergePolicy::Concat {
                separator: "\n---\n".to_string(),
            },
        )
        .merge(
            "a",
            "b",
            "m5",
            MergePolicy::BySignal {
                left_signal: "confidence:a".to_string(),
                right_signal: "confidence:b".to_string(),
            },
        )
        .delegate("agent", PayloadSpec::CtxKey("ctx_key".to_string()), "d1")
        .delegate("agent", PayloadSpec::PromptKey("p".to_string()), "d2")
        .delegate("agent", PayloadSpec::Lit(Value::from("literal")), "d3")
        .delegate("agent", PayloadSpec::Lit(Value::Int(42)), "d4")
        .delegate("agent", PayloadSpec::Lit(Value::Float(0.5)), "d5")
        .delegate("agent", PayloadSpec::Lit(Value::Bool(false)), "d6")
        .delegate("agent", PayloadSpec::Lit(Value::Null), "d7")
        .expand("p", "More detail.")
        .retry_gen(
            "r",
            "p",
            Cond::low_confidence(0.7),
            "auto_refine",
            Value::Null,
            RefinementMode::Auto,
            3,
        )
        .retry_gen(
            "once",
            "p",
            Cond::Truthy(ctx("retry")),
            "append",
            Value::from("again"),
            manual,
            1,
        )
        .retry_gen(
            "never",
            "p",
            Cond::Always,
            "normalize",
            Value::Null,
            manual,
            0,
        )
        .diff("a", "b", "delta")
        .map_prompts(&["a", "b"], "normalize", Value::Null, manual)
        .map_prompts(&[], "append", Value::from("x"), RefinementMode::Auto)
        .switch(
            vec![
                (
                    Cond::InContext("discharge".to_string()),
                    Pipeline::builder("case")
                        .expand("p", "discharge")
                        .build()
                        .ops,
                ),
                (
                    cmp(ctx("kind"), CmpOp::Eq, lit("radiology")),
                    Pipeline::builder("case")
                        .switch(
                            vec![],
                            Pipeline::builder("default")
                                .expand("p", "nested")
                                .build()
                                .ops,
                        )
                        .build()
                        .ops,
                ),
            ],
            Pipeline::builder("default")
                .expand("p", "generic")
                .build()
                .ops,
        )
        .switch(vec![(Cond::Always, vec![])], vec![])
        .switch(
            vec![],
            Pipeline::builder("default")
                .gen("only_default", "p")
                .build()
                .ops,
        )
        .build()
}

#[test]
fn kitchen_sink_compiles_to_the_builder_form() {
    let compiled = compile(KITCHEN_SINK).unwrap();
    assert_eq!(compiled.views, expected_views());
    assert_eq!(
        compiled.pipelines,
        vec![expected_sink(), Pipeline::builder("empty").build()]
    );
}

#[test]
fn kitchen_sink_lowers() {
    let compiled = compile(KITCHEN_SINK).unwrap();
    let plans = compiled.lower().unwrap();
    assert_eq!(plans.len(), 2);
    assert_eq!(plans[0].source_size(), expected_sink().size());
}

#[test]
fn kitchen_sink_plan_identities_are_pinned() {
    // Pinned: the fingerprint (program-cache key) and affinity seed of the
    // kitchen-sink plans, which between them hold every statement form. A
    // change to lowering or to the identity fold moves these values.
    let plans = compile(KITCHEN_SINK).unwrap().lower().unwrap();
    let identities: Vec<(&str, usize, u64, Option<u64>)> = plans
        .iter()
        .map(|p| (p.name(), p.code().len(), p.fingerprint(), p.affinity_seed()))
        .collect();
    assert_eq!(
        identities,
        [
            (
                "sink",
                68,
                0xdc1f_2c4e_24a3_0dd3,
                Some(0x4824_cfe3_29ce_c78f)
            ),
            ("empty", 0, 0xadc2_9fcd_4695_a3d1, None),
        ]
    );
}
