//! Deterministic seeded open-loop load generator.
//!
//! Produces a serving workload — registered prompt-family views, shared
//! lowered plans, and a timestamped request stream — as a pure function of
//! [`LoadGenConfig`]. Two calls with the same config yield byte-identical
//! workloads, which is what lets the benchmarks compare scheduler
//! configurations (affinity on vs off, 1 vs 8 lanes) under *the same*
//! offered load.
//!
//! The stream is **open-loop**: arrival timestamps follow a seeded
//! exponential (Poisson) process that does not react to scheduler
//! progress, so queueing behaviour under overload is actually exercised
//! instead of being throttled away by the generator.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::prelude::*;

use spear_core::pipeline::Pipeline;
use spear_core::plan::lower;
use spear_core::runtime::ExecState;
use spear_core::view::{ViewCatalog, ViewDef};
use spear_core::vm::Program;
use spear_llm::Tokenizer;

use crate::request::{Priority, ServeRequest};

/// Shape of a generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenConfig {
    /// RNG seed; the workload is a pure function of this config.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Number of distinct prompt families (views). Requests in one family
    /// share a long instruction prefix — the reuse affinity routing
    /// exploits.
    pub families: usize,
    /// Mean virtual µs between arrivals (exponential inter-arrival).
    pub mean_interarrival_us: u64,
    /// Probability a request is [`Priority::Interactive`].
    pub interactive_fraction: f64,
    /// Optional service deadline stamped on interactive requests.
    pub interactive_deadline_us: Option<u64>,
    /// GEN slots per pipeline (min 1). More slots mean longer decode
    /// phases — the knob memory-pressure workloads use to make running
    /// requests' KV footprints *grow* enough to fight for pool blocks.
    /// The default of 1 produces exactly the classic single-GEN plan.
    pub gen_calls: usize,
    /// Zipf exponent for family popularity. `0.0` (the default) keeps the
    /// historical uniform draw — byte-identical workloads, so existing
    /// workload fingerprints are preserved. `s > 0.0` samples family `k`
    /// (0-indexed rank) with probability proportional to `1/(k+1)^s`,
    /// reproducing the skewed family popularity real prompt corpora
    /// exhibit — the regime cluster routing's hot-prefix replication is
    /// built for.
    pub family_zipf: f64,
    /// Probability a request is an exact duplicate of an earlier request in
    /// the stream: same family *and* same item payload, so it renders to the
    /// byte-identical prompt (the regime the generation memo serves). `0.0`
    /// (the default) draws nothing extra from the RNG, so existing workload
    /// fingerprints are preserved byte-for-byte. Duplicates keep their own
    /// fresh arrival time and priority draw.
    pub duplicate_share: f64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            requests: 64,
            families: 4,
            mean_interarrival_us: 20_000,
            interactive_fraction: 0.6,
            interactive_deadline_us: None,
            gen_calls: 1,
            family_zipf: 0.0,
            duplicate_share: 0.0,
        }
    }
}

/// A generated workload: the view catalog the runtime needs, the shared
/// per-family plans, and the timestamped request stream (sorted by
/// arrival).
#[derive(Debug)]
pub struct GeneratedWorkload {
    /// Views referenced by the plans (hand to `Runtime::builder().views`).
    pub views: ViewCatalog,
    /// One shared lowered plan per family; requests hold clones of these
    /// `Arc`s, so affinity grouping is visible through pointer-independent
    /// [`Program::affinity_seed`]s.
    pub plans: Vec<Arc<Program>>,
    /// The request stream, sorted by non-decreasing `arrival_us` with ids
    /// `0..requests`.
    pub requests: Vec<ServeRequest>,
}

/// Family topics: first line of each family's instruction, so different
/// families diverge at the very first token block (no cross-family prefix
/// sharing muddying the affinity measurement).
const TOPICS: &[&str] = &[
    "support tickets about account access",
    "product reviews of kitchen appliances",
    "incident reports from the payments service",
    "meeting notes from the design team",
    "bug reports filed against the mobile app",
    "customer emails about delivery delays",
    "forum posts discussing firmware updates",
    "survey answers on commute patterns",
];

/// Filler vocabulary for unique per-request payload text.
const WORDS: &[&str] = &[
    "ledger", "gasket", "thread", "signal", "carton", "branch", "kernel", "saddle", "lantern",
    "mortar", "pulley", "quartz", "ribbon", "socket", "tunnel", "valley", "walnut", "zephyr",
    "anchor", "bobbin",
];

/// Render one family's instruction text: a topic-first header plus a long
/// shared guideline block and a trailing context slot. Long enough
/// (hundreds of tokens) that prefix reuse is worth routing for.
#[must_use]
pub fn family_instruction(family: usize) -> String {
    let topic = TOPICS[family % TOPICS.len()];
    let mut text = format!(
        "You are processing {topic}. Summarize the item below and flag \
         anything requiring follow-up.\nGuidelines for every item:\n"
    );
    for i in 1..=10 {
        text.push_str(&format!(
            "{i}. Read the full item before answering; weigh wording about \
             {topic} over incidental detail, keep the summary faithful to \
             the original claims, and never invent facts the item does not \
             state.\n"
        ));
    }
    text.push_str("Item: {{ctx:item}}\nAnswer with a word limit of 50.");
    text
}

/// The registered view name for a family.
#[must_use]
pub fn family_view_name(family: usize) -> String {
    format!("serve_family_{family}")
}

/// Generate a workload from `config`. Deterministic: same config, same
/// workload.
#[must_use]
pub fn generate(config: &LoadGenConfig) -> GeneratedWorkload {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let tokenizer = Tokenizer::new();
    let families = config.families.max(1);

    let views = ViewCatalog::new();
    let mut plans = Vec::with_capacity(families);
    let mut instruction_tokens = Vec::with_capacity(families);
    for family in 0..families {
        let text = family_instruction(family);
        instruction_tokens.push(tokenizer.count(&text) as u64);
        views.register(ViewDef::new(family_view_name(family), text).with_tag("serve-load"));
        // The first GEN keeps its historical name so `gen_calls: 1`
        // lowers to exactly the classic plan (stable trace digests).
        let mut builder = Pipeline::builder(format!("serve_{family}"))
            .create_from_view("p", &family_view_name(family), BTreeMap::new())
            .gen("answer", "p");
        for extra in 1..config.gen_calls.max(1) {
            builder = builder.gen(&format!("answer_{extra}"), "p");
        }
        let pipeline = builder.build();
        plans.push(Arc::new(
            lower(&pipeline).expect("generated pipelines lower clean"),
        ));
    }

    // Family-popularity CDF. `None` keeps the historical uniform
    // `gen_range` draw — the exact same RNG consumption as before the knob
    // existed, so default-config workloads stay byte-identical.
    let zipf_cdf: Option<Vec<f64>> = (config.family_zipf > 0.0).then(|| {
        let weights: Vec<f64> = (0..families)
            .map(|k| 1.0 / ((k + 1) as f64).powf(config.family_zipf))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    });

    let mut requests = Vec::with_capacity(config.requests);
    // (family, item) of every *original* request generated so far —
    // duplicate draws replay one of these verbatim.
    let mut originals: Vec<(usize, String)> = Vec::new();
    let mut arrival_us = 0u64;
    for id in 0..config.requests as u64 {
        // Exponential inter-arrival on the virtual clock.
        let unit: f64 = rng.gen_unit();
        let dt = (-(1.0 - unit).ln() * config.mean_interarrival_us as f64).round() as u64;
        arrival_us += dt.max(1);

        // The duplicate gate only consumes RNG when the knob is on, so
        // `duplicate_share: 0.0` keeps the historical draw sequence (and
        // thus the existing workload fingerprints) byte-identical.
        let duplicate_of: Option<usize> = (config.duplicate_share > 0.0)
            .then(|| {
                let u: f64 = rng.gen_unit();
                (u < config.duplicate_share && !originals.is_empty())
                    .then(|| rng.gen_range(0..originals.len()))
            })
            .flatten();

        let (family, item) = match duplicate_of {
            Some(idx) => originals[idx].clone(),
            None => {
                let family = match &zipf_cdf {
                    None => rng.gen_range(0..families),
                    Some(cdf) => {
                        let u = rng.gen_unit();
                        cdf.iter().position(|&c| u < c).unwrap_or(families - 1)
                    }
                };
                (family, String::new())
            }
        };
        let interactive = rng.gen_bool(config.interactive_fraction);
        let priority = if interactive {
            Priority::Interactive
        } else {
            Priority::Batch
        };

        // Unique per-request payload: same family => shared instruction
        // prefix, distinct suffix. (Duplicates reuse their source's payload
        // wholesale, so they render to the byte-identical prompt.)
        let item = if duplicate_of.is_some() {
            item
        } else {
            let mut item = format!("case {id}:");
            for _ in 0..12 {
                item.push(' ');
                item.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
            }
            originals.push((family, item.clone()));
            item
        };
        let mut state = ExecState::new();
        state.context.set("item", item.as_str());

        let est_tokens = instruction_tokens[family] + tokenizer.count(&item) as u64 + 50;
        let mut request =
            ServeRequest::new(id, priority, Arc::clone(&plans[family]), state, arrival_us)
                .with_est_tokens(est_tokens)
                // The family instruction is the prefix every same-family
                // request shares — under memory pressure those tokens map
                // to the family's shared KV blocks.
                .with_shared_prefix_tokens(instruction_tokens[family]);
        if interactive {
            if let Some(deadline) = config.interactive_deadline_us {
                request = request.with_deadline_us(deadline);
            }
        }
        requests.push(request);
    }

    GeneratedWorkload {
        views,
        plans,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = LoadGenConfig::default();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.priority, y.priority);
            assert_eq!(x.arrival_us, y.arrival_us);
            assert_eq!(x.est_tokens, y.est_tokens);
            assert_eq!(x.plan.affinity_seed(), y.plan.affinity_seed());
        }
        let c = generate(&LoadGenConfig { seed: 43, ..config });
        let arrivals_a: Vec<u64> = a.requests.iter().map(|r| r.arrival_us).collect();
        let arrivals_c: Vec<u64> = c.requests.iter().map(|r| r.arrival_us).collect();
        assert_ne!(arrivals_a, arrivals_c, "different seeds differ");
    }

    #[test]
    fn arrivals_are_sorted_and_ids_unique() {
        let w = generate(&LoadGenConfig {
            requests: 100,
            ..LoadGenConfig::default()
        });
        assert!(w
            .requests
            .windows(2)
            .all(|p| p[0].arrival_us <= p[1].arrival_us));
        let ids: Vec<u64> = w.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn families_share_affinity_seeds_and_differ_across_families() {
        let w = generate(&LoadGenConfig {
            requests: 40,
            families: 3,
            ..LoadGenConfig::default()
        });
        let mut seeds = std::collections::BTreeSet::new();
        for r in &w.requests {
            let seed = r
                .plan
                .affinity_seed()
                .expect("view-backed plans have seeds");
            seeds.insert(seed);
        }
        assert_eq!(seeds.len(), 3, "one seed per family");
        // Each family's seed is its view's identity text, hashed.
        let expected: std::collections::BTreeSet<u64> = (0..3)
            .map(|f| {
                let key = format!(
                    "view:{}#{:x}",
                    family_view_name(f),
                    spear_core::view::param_hash(&BTreeMap::new())
                );
                spear_kv::shard::fnv1a(key.as_bytes())
            })
            .collect();
        assert_eq!(seeds, expected);
        // Instructions diverge at the first line.
        let a = family_instruction(0);
        let b = family_instruction(1);
        assert_ne!(a.lines().next(), b.lines().next());
    }

    #[test]
    fn interactive_deadlines_are_stamped() {
        let w = generate(&LoadGenConfig {
            requests: 50,
            interactive_deadline_us: Some(9_000),
            ..LoadGenConfig::default()
        });
        for r in &w.requests {
            match r.priority {
                Priority::Interactive => assert_eq!(r.deadline_us, Some(9_000)),
                Priority::Batch => assert_eq!(r.deadline_us, None),
            }
        }
        assert!(w.requests.iter().any(|r| r.priority == Priority::Batch));
        assert!(w
            .requests
            .iter()
            .any(|r| r.priority == Priority::Interactive));
    }

    #[test]
    fn zipf_skews_family_popularity_deterministically() {
        let config = LoadGenConfig {
            requests: 400,
            families: 8,
            family_zipf: 1.2,
            ..LoadGenConfig::default()
        };
        let w = generate(&config);
        let seeds: Vec<u64> = (0..8)
            .map(|f| w.plans[f].affinity_seed().expect("view-backed"))
            .collect();
        let mut counts = vec![0usize; 8];
        for r in &w.requests {
            let seed = r.plan.affinity_seed().unwrap();
            let family = seeds.iter().position(|&s| s == seed).unwrap();
            counts[family] += 1;
        }
        // Rank-0 dominates; the tail is thin. (Zipf 1.2 over 8 families
        // gives rank 0 ≈ 41% and rank 7 ≈ 3.4% of mass.)
        assert!(
            counts[0] > counts[7] * 3,
            "rank 0 should dwarf rank 7: {counts:?}"
        );
        assert!(
            counts[0] * 100 > 400 * 25,
            "rank 0 should hold >25% of requests: {counts:?}"
        );
        // All families still sampled (the CDF covers the whole range).
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");

        // Deterministic: same config, same stream.
        let v = generate(&config);
        for (a, b) in w.requests.iter().zip(&v.requests) {
            assert_eq!(a.plan.affinity_seed(), b.plan.affinity_seed());
            assert_eq!(a.arrival_us, b.arrival_us);
        }
    }

    #[test]
    fn zero_exponent_is_the_uniform_sampler() {
        // `family_zipf: 0.0` takes the exact historical uniform code path:
        // the config equals the default, and the draw sequence (hence the
        // whole workload) is the default workload.
        let uniform = generate(&LoadGenConfig {
            family_zipf: 0.0,
            ..LoadGenConfig::default()
        });
        let default = generate(&LoadGenConfig::default());
        for (a, b) in uniform.requests.iter().zip(&default.requests) {
            assert_eq!(a.plan.affinity_seed(), b.plan.affinity_seed());
            assert_eq!(a.arrival_us, b.arrival_us);
            assert_eq!(a.priority, b.priority);
        }
    }

    #[test]
    fn zero_duplicate_share_is_the_historical_stream() {
        // `duplicate_share: 0.0` draws nothing extra, so the workload is
        // byte-identical to the pre-knob generator (pinning the existing
        // workload fingerprints).
        let plain = generate(&LoadGenConfig::default());
        let gated = generate(&LoadGenConfig {
            duplicate_share: 0.0,
            ..LoadGenConfig::default()
        });
        for (a, b) in plain.requests.iter().zip(&gated.requests) {
            assert_eq!(a.arrival_us, b.arrival_us);
            assert_eq!(a.priority, b.priority);
            assert_eq!(a.plan.affinity_seed(), b.plan.affinity_seed());
            assert_eq!(
                a.state.context.get_ref("item"),
                b.state.context.get_ref("item")
            );
        }
    }

    #[test]
    fn duplicates_replay_family_and_item_verbatim() {
        let config = LoadGenConfig {
            requests: 200,
            duplicate_share: 0.6,
            ..LoadGenConfig::default()
        };
        let w = generate(&config);
        // A duplicate shares (affinity seed, item) with an earlier request;
        // count requests whose payload pair appeared before them.
        let mut seen = std::collections::BTreeSet::new();
        let mut duplicates = 0usize;
        for r in &w.requests {
            let item = format!("{:?}", r.state.context.get_ref("item"));
            let pair = (r.plan.affinity_seed(), item);
            if !seen.insert(pair) {
                duplicates += 1;
            }
        }
        assert!(
            duplicates > 60,
            "share 0.6 over 200 requests should replay many payloads, got {duplicates}"
        );
        // Arrivals still strictly ordered with unique ids.
        assert!(w
            .requests
            .windows(2)
            .all(|p| p[0].arrival_us <= p[1].arrival_us));

        // Deterministic: same config, same duplicate pattern.
        let v = generate(&config);
        for (a, b) in w.requests.iter().zip(&v.requests) {
            assert_eq!(a.arrival_us, b.arrival_us);
            assert_eq!(
                a.state.context.get_ref("item"),
                b.state.context.get_ref("item")
            );
        }
    }

    #[test]
    fn instructions_are_long_enough_to_cache() {
        let tokens = Tokenizer::new().count(&family_instruction(0));
        assert!(
            tokens > 200,
            "family instruction should be hundreds of tokens, got {tokens}"
        );
    }

    #[test]
    fn family_plan_identities_are_pinned() {
        // Pinned: the fingerprint and the placement seed of every family
        // plan, one and two GENs deep. A change to lowering or to the
        // identity fold moves these values, and with them every
        // admission-verify memo key and the router's placement.
        const PINNED: [[(u64, u64); 8]; 2] = [
            [
                (0xb679_46c7_ee44_79ae, 0x0b81_3de1_3670_4370),
                (0x3630_0a07_034a_b12a, 0x060e_c30f_81ca_a421),
                (0x0b1a_fd37_ba80_69b6, 0xff53_3ef8_18c3_a51a),
                (0x55a7_bf26_5476_5dea, 0x56fb_84c1_8fff_21a3),
                (0x9c7b_122b_e5ca_d036, 0xae37_b965_48f1_94ec),
                (0x4e4c_efdd_b20c_b03a, 0x19f4_76c7_8ed8_63ad),
                (0x9af1_02a0_652e_f6ce, 0x9793_efa3_c699_c026),
                (0x882c_e4b7_d0b8_e3ba, 0x25eb_37b1_c9a5_84af),
            ],
            [
                (0x114a_74c9_2386_1c7f, 0x0b81_3de1_3670_4370),
                (0xf7e2_f441_7fa5_d89b, 0x060e_c30f_81ca_a421),
                (0x18ac_0962_5785_cd97, 0xff53_3ef8_18c3_a51a),
                (0x81f9_9928_80be_815b, 0x56fb_84c1_8fff_21a3),
                (0x1b65_37b8_87f7_6397, 0xae37_b965_48f1_94ec),
                (0x3ac1_8742_72fd_a26b, 0x19f4_76c7_8ed8_63ad),
                (0x29cd_c6af_2ba7_d91f, 0x9793_efa3_c699_c026),
                (0x2665_3127_b211_1b6b, 0x25eb_37b1_c9a5_84af),
            ],
        ];
        for (gen_calls, pinned) in (1..).zip(PINNED) {
            let workload = generate(&LoadGenConfig {
                families: TOPICS.len(),
                gen_calls,
                ..LoadGenConfig::default()
            });
            let identities: Vec<(u64, u64)> = workload
                .plans
                .iter()
                .map(|plan| (plan.fingerprint(), plan.affinity_seed().expect("seeded")))
                .collect();
            assert_eq!(identities, pinned, "gen_calls {gen_calls}");
        }
    }
}
