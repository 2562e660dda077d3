//! Microbenchmarks for the substrates: tokenizer, prefix cache, KV store,
//! prompt store, templates, conditions, diff, SPEAR-DL, and the executor.
//!
//! Run with: `cargo bench -p spear-bench --bench microbench`

use std::collections::BTreeMap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use spear_core::prelude::*;
use spear_kv::KvStore;
use spear_llm::{PrefixCache, Tokenizer};

fn bench_tokenizer(c: &mut Criterion) {
    let tok = Tokenizer::new();
    let text = spear_bench::workload::view_v_text();
    c.bench_function("tokenizer/encode_450_token_instruction", |b| {
        b.iter(|| std::hint::black_box(tok.encode(&text)));
    });
    // Regression guards for the zero-alloc hot paths: `count` must not
    // build a token vector, and `encode_into` must reuse the caller's
    // buffer. Both should run well under `encode`'s fresh-Vec time.
    c.bench_function("tokenizer/count_alloc_free", |b| {
        b.iter(|| std::hint::black_box(tok.count(&text)));
    });
    c.bench_function("tokenizer/encode_into_reused_buffer", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            tok.encode_into(&text, &mut buf);
            std::hint::black_box(buf.len())
        });
    });
    c.bench_function("tokenizer/streaming_resume_suffix_only", |b| {
        // The interner fast path: a warm 450-token prefix costs only the
        // per-request suffix.
        let suffix = "case 17: ledger gasket orbit\nAnswer with a word limit of 50.";
        let mut buf = Vec::new();
        let mut encoder = spear_llm::StreamingEncoder::new();
        b.iter(|| {
            buf.clear();
            encoder.reset("");
            encoder.feed(suffix, &mut buf);
            encoder.finish(&mut buf);
            std::hint::black_box(buf.len())
        });
    });
}

fn bench_prefix_cache(c: &mut Criterion) {
    let tok = Tokenizer::new();
    let instruction = spear_bench::workload::view_v_text();
    let warm_tokens = tok.encode(&instruction);
    let probe = tok.encode(&format!("{instruction}\nTweet: terrible exam today"));

    c.bench_function("prefix_cache/lookup_hit_450_tokens", |b| {
        let mut cache = PrefixCache::with_defaults();
        cache.insert(&warm_tokens);
        b.iter(|| std::hint::black_box(cache.lookup(&probe)));
    });
    c.bench_function("prefix_cache/insert_450_tokens", |b| {
        b.iter_batched(
            PrefixCache::with_defaults,
            |mut cache| cache.insert(&warm_tokens),
            BatchSize::SmallInput,
        );
    });
}

fn bench_kv_store(c: &mut Criterion) {
    c.bench_function("kv/put_get", |b| {
        let store: KvStore<u64> = KvStore::new();
        let mut i = 0u64;
        b.iter(|| {
            store.put(format!("key-{}", i % 512), i);
            i += 1;
            std::hint::black_box(store.get(&format!("key-{}", i % 512)))
        });
    });
    c.bench_function("kv/snapshot_read", |b| {
        let store: KvStore<u64> = KvStore::new();
        for i in 0..512u64 {
            store.put(format!("key-{i}"), i);
        }
        let snap = store.snapshot();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(snap.get(&format!("key-{}", i % 512)))
        });
    });
}

fn bench_prompt_store(c: &mut Criterion) {
    c.bench_function("prompt_store/refine_with_history", |b| {
        let store = PromptStore::new();
        store.define("p", "base prompt text", "f", RefinementMode::Manual);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store
                .refine(
                    "p",
                    format!("base prompt text v{i}").into(),
                    RefAction::Update,
                    "bench",
                    RefinementMode::Auto,
                    i,
                    None,
                    BTreeMap::new(),
                    None,
                )
                .unwrap()
        });
    });
}

fn bench_template_and_condition(c: &mut Criterion) {
    let entry = PromptEntry::new(
        "Summarize {{drug}} from {{ctx:notes}} within {{limit}} words.",
        "f",
        RefinementMode::Manual,
    )
    .with_param("drug", "Enoxaparin")
    .with_param("limit", 60);
    let mut ctx = Context::new();
    ctx.set("notes", "enoxaparin 40 mg daily");
    c.bench_function("template/render_three_placeholders", |b| {
        b.iter(|| std::hint::black_box(entry.render(&ctx).unwrap()));
    });

    let mut m = Metadata::new();
    m.set("confidence", 0.62);
    let cond = Cond::All(vec![
        Cond::low_confidence(0.7),
        Cond::NotInContext("orders".into()),
    ]);
    c.bench_function("condition/eval_conjunction", |b| {
        b.iter(|| std::hint::black_box(cond.eval(&ctx, &m).unwrap()));
    });
}

fn bench_diff(c: &mut Criterion) {
    let v1 = spear_bench::workload::view_v_text();
    let v2 = format!("{v1}\nFocus on school-related tweets only.");
    c.bench_function("diff/line_lcs_450_tokens", |b| {
        b.iter(|| std::hint::black_box(spear_core::diff::diff(&v1, &v2)));
    });
}

fn bench_dl(c: &mut Criterion) {
    let program = r#"
        VIEW qa(drug) = "Highlight {{drug}}.\nNotes: {{ctx:notes}}";
        PIPELINE p {
          REF CREATE "qa_prompt" FROM VIEW qa(drug = "Enoxaparin");
          GEN "answer_0" USING "qa_prompt";
          RETRY "answer" USING "qa_prompt" IF M["confidence"] < 0.7
            WITH auto_refine() MODE AUTO MAX 2;
          CHECK "orders" NOT IN C { RET "lookup" INTO "orders"; }
        }
    "#;
    c.bench_function("dl/parse_and_compile", |b| {
        b.iter(|| std::hint::black_box(spear_dl::compile(program).unwrap()));
    });
}

fn bench_executor(c: &mut Criterion) {
    let runtime = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
    let pipeline = Pipeline::builder("bench")
        .create_text(
            "p",
            "Classify the note. {{ctx:item}}",
            RefinementMode::Manual,
        )
        .gen("a", "p")
        .check(Cond::low_confidence(0.99), |b| b.expand("p", "hint"))
        .build();
    c.bench_function("executor/three_op_pipeline", |b| {
        b.iter_batched(
            || {
                let mut state = ExecState::new();
                state.context.set("item", "sample");
                state
            },
            |mut state| runtime.execute(&pipeline, &mut state).unwrap(),
            BatchSize::SmallInput,
        );
    });
}

fn bench_fusion_planning(c: &mut Criterion) {
    use spear_optimizer::cost::CostModel;
    use spear_optimizer::fusion::{decide, PlanEstimates, StageEstimate};
    use spear_optimizer::plan::SemanticPlan;
    let plan = SemanticPlan::filter_then_map("negative?", "clean");
    let est = PlanEstimates {
        n_items: 1000.0,
        selectivity: 0.3,
        per_stage: StageEstimate {
            prompt_tokens: 60.0,
            cached_fraction: 0.0,
            decode_tokens: 20.0,
        },
        fused: StageEstimate {
            prompt_tokens: 95.0,
            cached_fraction: 0.0,
            decode_tokens: 26.0,
        },
    };
    let model = CostModel::default();
    c.bench_function("optimizer/fusion_decision", |b| {
        b.iter(|| std::hint::black_box(decide(&plan, &est, &model)));
    });
}

criterion_group!(
    benches,
    bench_tokenizer,
    bench_prefix_cache,
    bench_kv_store,
    bench_prompt_store,
    bench_template_and_condition,
    bench_diff,
    bench_dl,
    bench_executor,
    bench_fusion_planning
);
criterion_main!(benches);
