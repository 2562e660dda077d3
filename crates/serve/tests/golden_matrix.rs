//! Golden digests of whole serving runs, pinned on the code *before* the
//! request-lifecycle refactor of `scheduler.rs` (as `kv::simulate`'s were
//! before its pressure-path refactor): fixed `loadgen` seeds served
//! through a matrix of timing model × affinity × reuse × lane count, on
//! streams that reach every terminal status, with *everything* a run
//! returns folded into one digest per cell — each outcome's status,
//! queue wait, service, finish, preemptions, trace digest and usage, and
//! the whole `ServeReport` as JSON. A scheduler change that claims to move
//! nothing observable must leave this table alone; one that means to move
//! a number names the cells it moves.

use std::fmt::Write as _;
use std::sync::Arc;

use spear_core::agent::FnAgent;
use spear_core::context::Context;
use spear_core::error::SpearError;
use spear_core::history::RefinementMode;
use spear_core::llm::LlmClient;
use spear_core::ops::PayloadSpec;
use spear_core::pipeline::Pipeline;
use spear_core::plan::{lower, LoweredPlan};
use spear_core::runtime::Runtime;
use spear_core::value::Value;
use spear_kv::shard::fnv1a;
use spear_llm::{ModelProfile, SimLlm};
use spear_serve::prelude::*;

/// The pool of `tests/preemption.rs`, tight enough that concurrent decode
/// work must evict and preempt, on a device slow enough that the pool
/// clock runs on the engine's timescale: a request cancelled after one
/// whole GEN of engine time still finishes before the stream's last
/// completed request does.
fn tight_pressure() -> KvPressureConfig {
    KvPressureConfig {
        pool_blocks: 200,
        block_size: 4,
        pool_stripes: 1,
        max_batched_tokens: 1024,
        prefill_chunk_tokens: 128,
        decode_us_per_token: 4_000,
        ..KvPressureConfig::default()
    }
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    pressured: bool,
    affinity: bool,
    reuse: bool,
    lanes: usize,
}

impl Cell {
    fn name(self) -> String {
        format!(
            "{}/affinity-{}/reuse-{}/lanes-{}",
            if self.pressured { "tight" } else { "none" },
            if self.affinity { "on" } else { "off" },
            if self.reuse { "on" } else { "off" },
            self.lanes
        )
    }

    fn config(self, verify_admission: bool) -> ServeConfig {
        ServeConfig {
            lanes: self.lanes,
            quantum: 2,
            affinity_routing: self.affinity,
            // A bucket that drains under the burst (token-bucket sheds) and
            // a depth the lane model's backlog reaches (`max_depth` sheds;
            // the pool model drains its queue at once, so depth never
            // binds there).
            admission: AdmissionConfig {
                max_depth: 4,
                bucket_capacity: 2_500,
                refill_per_us: 0.45,
                starvation_limit: 2,
            },
            verify_admission,
            pressure: self.pressured.then(tight_pressure),
            program_cache_capacity: 2,
            reuse: self.reuse,
        }
    }
}

/// Arrivals far faster than service, four GENs each, three families over
/// a two-entry program cache, 30 % exact duplicates.
fn load(seed: u64) -> LoadGenConfig {
    LoadGenConfig {
        seed,
        requests: 48,
        families: 3,
        mean_interarrival_us: 500,
        interactive_fraction: 0.6,
        interactive_deadline_us: None,
        gen_calls: 4,
        family_zipf: 0.0,
        duplicate_share: 0.3,
    }
}

fn lowered(pipeline: &Pipeline) -> Arc<LoweredPlan> {
    Arc::new(lower(pipeline).expect("test pipelines lower"))
}

/// The stream served with `verify_admission: true`: an invalid plan and a
/// statically infeasible deadline join the generated load, and one request
/// asks for more tokens than the bucket holds (the load also sheds on its
/// own under [`Cell::config`]'s bucket and depth, but where a lane stays
/// idle the lane model never builds the backlog for it).
fn admission_stream(requests: &mut [ServeRequest]) {
    requests[2].est_tokens = 1_000_000;
    requests[3].plan = lowered(&Pipeline::builder("bad").gen("a", "missing_prompt").build());
    requests[5].deadline_us = Some(1);
}

/// The stream served with `verify_admission: false`: a deadline that trips
/// after the first GEN, a token tripped before submission and a plan whose
/// agent fails — all free of charge to the bucket, early enough that depth
/// shedding cannot take them and that completed requests finish after them.
fn runtime_stream(requests: &mut [ServeRequest]) {
    for i in [1, 2, 4] {
        requests[i].est_tokens = 0;
    }
    requests[1].deadline_us = Some(1);
    requests[2].cancel_handle().cancel();
    requests[4].plan = lowered(
        &Pipeline::builder("failing")
            .create_text("p", "payload", RefinementMode::Manual)
            .delegate("boom", PayloadSpec::PromptKey("p".into()), "out")
            .build(),
    );
}

/// Serve `requests` on a fresh engine, runtime and node.
fn serve(workload: GeneratedWorkload, config: ServeConfig) -> ServeRun {
    let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
    let runtime = Runtime::builder()
        .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
        .views(workload.views.clone())
        .agent(
            "boom",
            Arc::new(FnAgent(|_: &Value, _: &Context| {
                Err(SpearError::Agent {
                    agent: "boom".into(),
                    reason: "intentional test failure".into(),
                })
            })),
        )
        .build();
    ServeNode::new(config).run(&runtime, Some(&engine), workload.requests)
}

/// Everything the run returned, as text.
fn render(run: &ServeRun, out: &mut String) {
    for o in &run.outcomes {
        writeln!(
            out,
            "{} {:?} {:?} wait={} service={} finish={} preempt={} digest={:?} usage={:?}",
            o.id,
            o.priority,
            o.status,
            o.queue_wait_us,
            o.service_us,
            o.finish_us,
            o.preemptions,
            o.trace_digest,
            o.usage
        )
        .expect("writing to a String");
    }
    let report = serde_json::to_string(&run.report).expect("report serializes");
    writeln!(out, "{report}").expect("writing to a String");
}

fn status_tag(status: &ServeStatus) -> usize {
    match status {
        ServeStatus::Completed => 0,
        ServeStatus::Rejected {
            error: ServeError::InvalidPlan { .. },
        } => 1,
        ServeStatus::Rejected { .. } => 2,
        ServeStatus::DeadlineExceeded { .. } => 3,
        ServeStatus::Cancelled { .. } => 4,
        ServeStatus::Failed { .. } => 5,
    }
}

fn status_counts(run: &ServeRun) -> [usize; 6] {
    let mut counts = [0; 6];
    for o in &run.outcomes {
        counts[status_tag(&o.status)] += 1;
    }
    counts
}

/// One matrix cell: both streams, one digest.
fn cell_digest(cell: Cell) -> u64 {
    let name = cell.name();
    let mut text = String::new();

    let mut workload = generate(&load(1729));
    admission_stream(&mut workload.requests);
    let run = serve(workload, cell.config(true));
    let [completed, invalid, ..] = status_counts(&run);
    assert!(completed > 0, "{name}: something completes");
    assert_eq!(invalid, 2, "{name}: bad plan + infeasible deadline");
    // A depth shed carries no retry hint; a bucket shed always does.
    let sheds = |by_depth: bool| {
        run.outcomes
            .iter()
            .filter(|o| match &o.status {
                ServeStatus::Rejected {
                    error: ServeError::Overloaded { retry_after_us, .. },
                } => (*retry_after_us == 0) == by_depth,
                _ => false,
            })
            .count()
    };
    assert!(sheds(false) > 0, "{name}: the bucket sheds");
    if cell.pressured {
        assert_eq!(sheds(true), 0, "{name}: depth never binds on the pool");
        assert!(run.report.kv.preempted > 0, "{name}: the pool preempts");
    } else if cell.lanes == 1 {
        assert!(sheds(true) > 0, "{name}: `max_depth` sheds");
    }
    render(&run, &mut text);

    let mut workload = generate(&load(140));
    runtime_stream(&mut workload.requests);
    let run = serve(workload, cell.config(false));
    let [completed, _, _, deadline, cancelled, failed] = status_counts(&run);
    assert!(completed > 0, "{name}: something completes");
    assert_eq!(
        (deadline, cancelled, failed),
        (1, 1, 1),
        "{name}: one of each runtime status"
    );
    render(&run, &mut text);

    fnv1a(text.as_bytes())
}

/// The cell outside the matrix: a pressured run whose *last* finisher is a
/// request cancelled by its deadline, so the run's makespan is decided by
/// a request the KV simulator sees as an empty footprint.
fn cancelled_tail_digest() -> u64 {
    let mut workload = generate(&LoadGenConfig {
        requests: 6,
        ..load(7)
    });
    let last = workload.requests.len() - 1;
    workload.requests[last].arrival_us += 10_000_000;
    workload.requests[last].deadline_us = Some(1);
    let cell = Cell {
        pressured: true,
        affinity: true,
        reuse: true,
        lanes: 1,
    };
    let run = serve(workload, cell.config(false));
    let [completed, _, _, deadline, ..] = status_counts(&run);
    assert_eq!((completed, deadline), (5, 1));
    assert_eq!(
        Some(run.report.makespan_us),
        run.outcomes.iter().map(|o| o.finish_us).max(),
        "the makespan is the last finish, whoever finishes last"
    );
    let mut text = String::new();
    render(&run, &mut text);
    fnv1a(text.as_bytes())
}

const CANCELLED_TAIL: &str = "tight/cancelled-tail";

/// `(cell, digest)`, captured at commit 1cb11c2 (two scheduler paths). The
/// lifecycle refactor left the sixteen matrix cells alone and moved
/// [`CANCELLED_TAIL`] (0xe5e18aa61cff6591 there) through its `makespan_us`
/// alone: 10002600, the simulator's last instant, became 10350840, the
/// cancelled request's finish. All seventeen moved once more when trace
/// digests stopped hashing JSON text and became structural
/// (DESIGN.md §17); with each outcome's digest and the report's
/// `trace_fingerprint` masked, every cell rendered byte-identically before
/// and after that change. All seventeen moved again when the program cache
/// stopped specializing programs and `CompileReport` lost its
/// `"specialized"` counter: the old rendering with that one key stripped
/// from the report JSON hashes to each digest below.
const GOLDEN: &[(&str, u64)] = &[
    ("none/affinity-on/reuse-on/lanes-1", 0xe9fe5ee97e2b4b48),
    ("none/affinity-on/reuse-on/lanes-4", 0x9da63fd962b67c4d),
    ("none/affinity-on/reuse-off/lanes-1", 0xdd4f962170174509),
    ("none/affinity-on/reuse-off/lanes-4", 0x11764fcd5f7bd85b),
    ("none/affinity-off/reuse-on/lanes-1", 0x8405c2b3be3dde61),
    ("none/affinity-off/reuse-on/lanes-4", 0x9a369450d48e476b),
    ("none/affinity-off/reuse-off/lanes-1", 0x18b7414f74b761de),
    ("none/affinity-off/reuse-off/lanes-4", 0x98c71c70fc21185a),
    ("tight/affinity-on/reuse-on/lanes-1", 0x393bc2b1333b186b),
    ("tight/affinity-on/reuse-on/lanes-4", 0x26919ca88035053d),
    ("tight/affinity-on/reuse-off/lanes-1", 0x0f92dcdf7e3f51b5),
    ("tight/affinity-on/reuse-off/lanes-4", 0x321cacafd390d1af),
    ("tight/affinity-off/reuse-on/lanes-1", 0xe78c0316c907a4c6),
    ("tight/affinity-off/reuse-on/lanes-4", 0x06b1f2911d96cb10),
    ("tight/affinity-off/reuse-off/lanes-1", 0x74b02356461fd354),
    ("tight/affinity-off/reuse-off/lanes-4", 0xbd17739b7aded8e6),
    (CANCELLED_TAIL, 0x450d16cce1354977),
];

#[test]
fn whole_run_digests_match_the_golden_table() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for pressured in [false, true] {
        for affinity in [true, false] {
            for reuse in [true, false] {
                for lanes in [1, 4] {
                    let cell = Cell {
                        pressured,
                        affinity,
                        reuse,
                        lanes,
                    };
                    actual.push((cell.name(), cell_digest(cell)));
                }
            }
        }
    }
    actual.push((CANCELLED_TAIL.to_owned(), cancelled_tail_digest()));

    let table: String = actual
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", 0x{digest:016x}),\n"))
        .collect();
    let golden: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(name, digest)| (name.to_owned(), digest))
        .collect();
    let moved: Vec<&str> = actual
        .iter()
        .zip(&golden)
        .filter(|(a, g)| a != g)
        .map(|(a, _)| a.0.as_str())
        .collect();
    assert!(
        actual == golden,
        "cells that moved: {moved:?}\nthe table this build produces:\n{table}"
    );
}

/// The digests are a function of the inputs alone — not of thread timing
/// at 4 lanes, nor of which physical call filled the generation memo.
#[test]
fn a_cell_digest_repeats_exactly() {
    let cell = Cell {
        pressured: true,
        affinity: false,
        reuse: true,
        lanes: 4,
    };
    assert_eq!(cell_digest(cell), cell_digest(cell));
}
