//! Property tests for `spear-core`'s pure components: the condition
//! evaluator, the template engine, the value model, and the diff engine
//! must be total (no panics) and law-abiding for arbitrary inputs.

use std::collections::BTreeMap;

use proptest::prelude::*;

use spear_core::condition::{CmpOp, Cond, Operand};
use spear_core::context::Context;
use spear_core::diff;
use spear_core::error::SpearError;
use spear_core::metadata::Metadata;
use spear_core::template::{self, PromptText};
use spear_core::value::Value;
use spear_kv::shard::fnv1a;

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::from),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(Value::Map),
        ]
    })
}

/// Template text from the pieces that stress the parser: lone braces, `:`,
/// spaces, multibyte characters and well-formed placeholders.
fn hostile_template() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        3 => Just("{".to_string()),
        3 => Just("}".to_string()),
        2 => Just(":".to_string()),
        2 => Just(" ".to_string()),
        2 => "[éß漢🦀]{1,2}",
        2 => "\\{\\{ {0,1}[a-zé]{1,3} {0,1}\\}\\}",
        1 => "\\{\\{param:[a-z]{1,3}\\}\\}",
        1 => "\\{\\{ctx:[a-z]{1,3}\\}\\}",
        1 => "\\{\\{view:[a-z]{1,3}\\}\\}",
    ];
    proptest::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
}

/// Text to append to: mostly the characters a `{{`, `}}` or `source:`
/// split across an append would be made of, a multibyte character and a
/// few letters for names.
fn appendable_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        4 => Just("{".to_string()),
        3 => Just("}".to_string()),
        2 => Just(":".to_string()),
        2 => Just(" ".to_string()),
        1 => Just("é".to_string()),
        2 => "[a-c]{1,3}",
    ];
    proptest::collection::vec(piece, 0..16).prop_map(|pieces| pieces.concat())
}

fn operand_strategy() -> impl Strategy<Value = Operand> {
    prop_oneof![
        "[a-z]{1,8}".prop_map(Operand::Signal),
        "[a-z]{1,8}".prop_map(Operand::Ctx),
        value_strategy().prop_map(Operand::Lit),
    ]
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    let cmp = (
        operand_strategy(),
        prop_oneof![
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
            Just(CmpOp::Eq),
            Just(CmpOp::Ne)
        ],
        operand_strategy(),
    )
        .prop_map(|(lhs, op, rhs)| Cond::Cmp { lhs, op, rhs });
    let leaf = prop_oneof![
        Just(Cond::Always),
        Just(Cond::Never),
        cmp,
        "[a-z]{1,8}".prop_map(Cond::InContext),
        "[a-z]{1,8}".prop_map(Cond::NotInContext),
        "[a-z]{1,8}".prop_map(Cond::HasSignal),
        operand_strategy().prop_map(Cond::Truthy),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|c| Cond::Not(Box::new(c))),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Cond::All),
            proptest::collection::vec(inner, 0..3).prop_map(Cond::Any),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary condition trees over arbitrary state never panic, and
    /// double negation is semantics-preserving.
    #[test]
    fn condition_eval_is_total_and_involutive(
        cond in cond_strategy(),
        ctx_entries in proptest::collection::btree_map("[a-z]{1,8}", value_strategy(), 0..4),
        sig_entries in proptest::collection::btree_map("[a-z]{1,8}", value_strategy(), 0..4),
    ) {
        let mut c = Context::new();
        for (k, v) in ctx_entries {
            c.set(k, v);
        }
        let mut m = Metadata::new();
        for (k, v) in sig_entries {
            m.set(k, v);
        }
        let direct = cond.eval(&c, &m);
        let doubled = Cond::Not(Box::new(Cond::Not(Box::new(cond.clone())))).eval(&c, &m);
        match (direct, doubled) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "inconsistent results: {a:?} vs {b:?}"),
        }
        // Display never panics either (conditions end up in ref_logs).
        let _ = cond.to_string();
    }

    /// The template parser is total: arbitrary input, and input built from
    /// the pieces that stress it (lone braces, `:`, spaces, multibyte
    /// characters, well-formed placeholders of every source), either parses
    /// or returns a typed error. A parse is canonical (no empty literal, no
    /// two literals adjacent, each literal hashed as the engine hashes it)
    /// and deterministic (a second parse is equal); rendering with every
    /// placeholder bound succeeds, and the flat and segmented renders agree.
    /// A `{{view:..}}` or unknown source fails the render instead.
    #[test]
    fn template_parser_is_total(arbitrary in ".{0,120}", hostile in hostile_template()) {
        for input in [arbitrary, hostile] {
            let parsed = match template::parse(&input) {
                Ok(parsed) => parsed,
                Err(e) => {
                    prop_assert!(matches!(e, SpearError::MalformedTemplate(_)), "{input:?}: {e}");
                    continue;
                }
            };
            prop_assert_eq!(&parsed, &template::parse(&input).unwrap());
            // Bind every placeholder to "x"; the render is then the literals
            // with "x" between them.
            let mut params = BTreeMap::new();
            let mut ctx = Context::new();
            let mut expected = String::new();
            let mut renderable = true;
            let mut after_literal = false;
            for seg in parsed.segments() {
                match seg {
                    template::Segment::Literal(text) => {
                        prop_assert!(!text.text().is_empty() && !after_literal, "{input:?}");
                        prop_assert_eq!(text.hash(), fnv1a(text.text().as_bytes()));
                        expected.push_str(text.text());
                    }
                    template::Segment::Placeholder { source, name } => {
                        match source.as_deref() {
                            None | Some("param") => {
                                params.insert(name.to_string(), Value::from("x"));
                            }
                            Some("ctx") => ctx.set(name.to_string(), "x"),
                            // A view or unknown source fails the render.
                            _ => renderable = false,
                        }
                        expected.push('x');
                    }
                }
                after_literal = matches!(seg, template::Segment::Literal(_));
            }
            let flat = template::render_segmented(&input, &params, &ctx).map(|s| s.join());
            if renderable {
                let flat = flat.unwrap();
                prop_assert_eq!(&flat, &expected);
                let segmented = template::render_segmented(&input, &params, &ctx).unwrap();
                prop_assert_eq!(segmented.join(), flat);
            } else {
                prop_assert!(flat.is_err(), "{input:?}");
            }
        }
    }

    /// Diff laws: diff(a, a) is identical with similarity 1; apply counts
    /// are consistent with the edit script; similarity is symmetric.
    #[test]
    fn diff_laws(a in "[a-z \n]{0,80}", b in "[a-z \n]{0,80}") {
        let same = diff::diff(&a, &a);
        prop_assert!(same.is_identical());
        prop_assert_eq!(same.similarity, 1.0);

        let d = diff::diff(&a, &b);
        let adds = d.edits.iter().filter(|e| matches!(e, diff::DiffEdit::Add(_))).count();
        let removes = d.edits.iter().filter(|e| matches!(e, diff::DiffEdit::Remove(_))).count();
        let keeps = d.edits.iter().filter(|e| matches!(e, diff::DiffEdit::Keep(_))).count();
        prop_assert_eq!(adds, d.added);
        prop_assert_eq!(removes, d.removed);
        prop_assert_eq!(keeps + removes, a.lines().count());
        prop_assert_eq!(keeps + adds, b.lines().count());
        prop_assert!((0.0..=1.0).contains(&d.similarity));

        let reverse = diff::diff(&b, &a);
        prop_assert_eq!(d.similarity, reverse.similarity, "jaccard is symmetric");
        prop_assert_eq!(d.added, reverse.removed);
    }

    /// Values roundtrip through JSON whenever they contain no floats (the
    /// untagged representation maps integral floats to ints, which is fine
    /// for prompts but makes exact roundtrip float-sensitive).
    #[test]
    fn value_json_roundtrip_without_floats(v in value_strategy()) {
        fn has_float(v: &Value) -> bool {
            match v {
                Value::Float(_) => true,
                Value::List(l) => l.iter().any(has_float),
                Value::Map(m) => m.values().any(has_float),
                _ => false,
            }
        }
        prop_assume!(!has_float(&v));
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(v, back);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// There is one parse routine, and it appends: the parse a text's
    /// successor derives by extending `parse(base)` with `suffix` equals
    /// `parse(base + suffix)` — the same segments and literal hashes, and
    /// `None` exactly when the whole parse errs — and a render through it
    /// joins to the flat render of the whole text. A `base` that ends in
    /// `{` before a `suffix` that starts with one (a `{{` across the
    /// boundary) is common in this alphabet.
    #[test]
    fn an_extended_parse_equals_the_whole_parse(
        base in appendable_text(),
        suffix in appendable_text(),
    ) {
        let whole = format!("{base}{suffix}");
        let extended = PromptText::new(base.as_str()).successor(whole.as_str());
        let fresh = template::parse(&whole);
        prop_assert_eq!(extended.parsed(), fresh.as_ref().ok(), "{:?} + {:?}", base, suffix);
        let Some(parse) = extended.parsed() else {
            return Ok(());
        };
        let (mut params, mut ctx) = (BTreeMap::new(), Context::new());
        for seg in parse.segments() {
            if let template::Segment::Placeholder { name, .. } = seg {
                params.insert(name.to_string(), Value::from("x"));
                ctx.set(name.to_string(), "x");
            }
        }
        match (
            extended.render(&params, &ctx),
            template::render_segmented(&whole, &params, &ctx).map(|s| s.join()),
        ) {
            (Ok(segmented), Ok(flat)) => prop_assert_eq!(segmented.join(), flat),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "{whole:?}: {a:?} vs {b:?}"),
        }
    }
}
