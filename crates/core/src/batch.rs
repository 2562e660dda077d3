//! Concurrent batch execution of independent pipeline instances.
//!
//! The paper's runtime (§6) executes one pipeline at a time; a
//! production-scale deployment runs *many* instances concurrently against
//! shared backends. [`BatchRunner`] is that executor: it fans N jobs — each
//! a program plus its own [`ExecState`] — across a fixed number of worker
//! lanes, every lane sharing the same [`Runtime`], and collects the per-job
//! outcomes in submission order. A batch of one plan runs the one shared
//! program in every job. A caller that keeps less than the whole outcome
//! (serving keeps a digest, a status and usage) reduces each job on the
//! lane that ran it ([`BatchRunner::run_assigned`]'s `finish`), so the
//! job's state is freed there and never crosses back.
//!
//! ## Determinism under any thread count
//!
//! The runner is built so that for a fixed workload and seed, every job's
//! [`ExecReport`] and [`crate::trace::Trace`] is **byte-identical whether
//! the pool has 1, 2, or 8 workers**:
//!
//! - jobs never share mutable state: each owns its `ExecState`;
//! - each job runs inside an execution scope ([`crate::scope`]) carrying a
//!   unique owner id, which owner-aware backends (e.g. the spear-llm
//!   prefix cache) use to keep per-pipeline visible state independent of
//!   cross-pipeline interleaving;
//! - jobs are assigned to workers by **static placement** — round-robin
//!   striping (worker `w` of `W` runs jobs `w, w+W, w+2W, …`) or the
//!   caller's explicit lanes — not by a racy work queue, so the lane a job
//!   charges virtual time to is a pure function of the submission.
//!
//! A lane is a sequence of jobs, not a thread: the calling thread runs the
//! first lane that has work and every other such lane gets a scoped thread
//! (`std::thread::scope`, so the runner borrows the runtime without
//! `'static` lifetimes or reference counting at the call site). A call
//! that keeps one lane busy — one worker, or a serving round whose jobs
//! share a lane — therefore spawns nothing. Nothing a job can observe
//! depends on which thread that is: owner and lane come from the scope.
//!
//! ## Failure containment
//!
//! A panicking job must not poison the batch: each job body runs under
//! `catch_unwind`, so a panic surfaces as
//! [`crate::error::SpearError::WorkerPanicked`] in that job's slot while
//! the rest of the lane keeps running. The spine itself is panic-free
//! (`clippy::unwrap_used` / `clippy::expect_used` are denied here, in
//! `exec/`, and in `runtime.rs`).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Result, SpearError};
use crate::pipeline::Pipeline;
use crate::plan;
use crate::runtime::{ExecReport, ExecState, Runtime};
use crate::scope;
use crate::vm::Program;

/// What one job produced: the report and the (mutated) state, including
/// its trace.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The execution report.
    pub report: ExecReport,
    /// The job's state after execution (trace, context, prompts).
    pub state: ExecState,
}

/// A batch job with explicit placement: which worker lane runs it and
/// which cache-owner group it charges its prefix-cache state to. Built by
/// schedulers (e.g. `spear-serve`) that route jobs for cache affinity, and
/// by [`BatchRunner::run_lowered`] for round-robin striping.
#[derive(Debug)]
pub struct AssignedJob {
    /// Worker lane (wraps modulo the runner's worker count). All jobs of
    /// one owner group must share a lane for deterministic cache reuse.
    pub lane: usize,
    /// Cache-owner id (see [`crate::scope`]). Jobs sharing an owner see
    /// each other's prefix-cache insertions.
    pub owner: u64,
    /// The program to execute.
    pub program: Arc<Program>,
    /// The job's private execution state.
    pub state: ExecState,
}

/// Executes batches of independent pipeline instances on a worker pool.
#[derive(Debug)]
pub struct BatchRunner {
    workers: usize,
    next_owner: AtomicU64,
}

impl BatchRunner {
    /// A runner with `workers` lanes (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            next_owner: AtomicU64::new(1),
        }
    }

    /// Worker-pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Reserve `n` fresh owner ids and return the first of them.
    fn reserve_owners(&self, n: usize) -> u64 {
        self.next_owner.fetch_add(n as u64, Ordering::Relaxed)
    }

    /// Execute one program over many per-job states. Jobs are striped
    /// round-robin (job `i` runs on
    /// lane `i % workers`), each under a fresh owner id; owner ids are
    /// unique across successive calls on the same runner, so two batches
    /// never alias each other's owner-private backend state. Outcomes come
    /// back in submission order, each `Err` slot holding its job's failure.
    pub fn run_lowered(
        &self,
        runtime: &Runtime,
        program: &Arc<Program>,
        states: Vec<ExecState>,
    ) -> Vec<Result<BatchOutcome>> {
        if states.is_empty() {
            return Vec::new();
        }
        let owner_base = self.reserve_owners(states.len());
        let jobs = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| AssignedJob {
                lane: i % self.workers,
                owner: owner_base + i as u64,
                program: Arc::clone(program),
                state,
            })
            .collect();
        self.run_assigned(runtime, jobs, |result| result)
    }

    /// Execute jobs with **caller-chosen lane and owner placement** — the
    /// serving layer's entry point for cache-affinity routing.
    ///
    /// Where [`BatchRunner::run_lowered`] stripes jobs round-robin and
    /// allocates a fresh owner per job (full isolation), `run_assigned`
    /// lets the caller pin each job to a worker lane and cache-owner group:
    /// jobs that share an owner *and* a lane execute sequentially in
    /// submission order on one thread, so they observe each other's
    /// prefix-cache insertions deterministically — the mechanism behind
    /// affinity routing (`spear-serve`). The caller owns the invariant that
    /// same-owner jobs share a lane; violating it forfeits determinism, not
    /// safety.
    ///
    /// Lanes wrap modulo the runner's worker count. The calling thread runs
    /// the first lane in use and each further lane in use gets one scoped
    /// thread, so a round whose jobs all share a lane — the common serving
    /// round — spawns nothing.
    ///
    /// `finish` reduces each job's result to what the caller keeps. The
    /// lane calls it right after the job, inside the job's scope and
    /// `catch_unwind`, so whatever `finish` drops — the job's trace,
    /// context and prompts — is freed on the thread that built it, while
    /// the lane's other jobs still run. A job whose lane thread died, or a
    /// slot no lane filled, gets `finish` of its typed error on the calling
    /// thread. Results come back in submission order.
    ///
    /// The jobs stay where the caller submitted them: each lane holds its
    /// jobs' submission indices and a mutable borrow of each, and takes a
    /// job's state out of the buffer when it runs it, so no job is copied
    /// into a lane. A job's program `Arc` stays in the buffer until the
    /// call returns.
    pub fn run_assigned<T: Send>(
        &self,
        runtime: &Runtime,
        mut jobs: Vec<AssignedJob>,
        finish: impl Fn(Result<BatchOutcome>) -> T + Sync,
    ) -> Vec<T> {
        let n = jobs.len();
        let mut lanes: Vec<Vec<(usize, &mut AssignedJob)>> =
            (0..self.workers).map(|_| Vec::new()).collect();
        for (index, job) in jobs.iter_mut().enumerate() {
            lanes[job.lane % self.workers].push((index, job));
        }
        run_lanes(runtime, n, lanes, &finish)
    }

    /// Common case: run the *same* pipeline over many per-job states —
    /// lowered once, then [`BatchRunner::run_lowered`].
    pub fn run_states(
        &self,
        runtime: &Runtime,
        pipeline: &Arc<Pipeline>,
        states: Vec<ExecState>,
    ) -> Vec<Result<BatchOutcome>> {
        match plan::lower(pipeline) {
            Ok(plan) => self.run_lowered(runtime, &Arc::new(plan), states),
            // Lowering is deterministic, so every slot gets the error
            // `Runtime::execute` returns for this pipeline; the batch still
            // reserves the owner ids it would have run under.
            Err(_) => {
                self.reserve_owners(states.len());
                states
                    .into_iter()
                    .map(|mut state| {
                        runtime
                            .execute(pipeline, &mut state)
                            .map(|report| BatchOutcome { report, state })
                    })
                    .collect()
            }
        }
    }
}

/// Run one placed job on the state taken out of it (an idle state, which
/// owns no heap, is left in its place).
fn execute(runtime: &Runtime, job: &mut AssignedJob) -> Result<BatchOutcome> {
    let mut state = std::mem::replace(&mut job.state, ExecState::new());
    runtime
        .execute_program(&job.program, &mut state)
        .map(|report| BatchOutcome { report, state })
}

/// The lane executor. Each non-empty lane runs its jobs — each tagged with
/// its submission index, the outcome slot it fills — in order, every job
/// and its `finish` inside the job's own execution scope and under
/// `catch_unwind`; the calling thread takes the first such lane itself and
/// each of the others gets a scoped thread, so `k` lanes in use cost
/// `k - 1` spawns. Which thread runs a lane is unobservable: owner and
/// lane travel in the scope, never in the thread's identity, and the
/// caller's own scope is restored as each job's guard drops.
fn run_lanes<T: Send>(
    runtime: &Runtime,
    n: usize,
    lanes: Vec<Vec<(usize, &mut AssignedJob)>>,
    finish: &(impl Fn(Result<BatchOutcome>) -> T + Sync),
) -> Vec<T> {
    let run_lane = |lane: usize, jobs: Vec<(usize, &mut AssignedJob)>| {
        jobs.into_iter()
            .map(|(index, job)| {
                let _scope = scope::enter(job.owner, lane);
                let result = catch_unwind(AssertUnwindSafe(|| finish(execute(runtime, job))))
                    .unwrap_or_else(|_| finish(Err(SpearError::WorkerPanicked { lane })));
                (index, result)
            })
            .collect::<Vec<(usize, T)>>()
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut in_use = lanes
        .into_iter()
        .enumerate()
        .filter(|(_, jobs)| !jobs.is_empty());
    let Some((own_lane, own_jobs)) = in_use.next() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let run_lane = &run_lane;
        let handles: Vec<WorkerHandle<'_, T>> = in_use
            .map(|(lane, jobs)| {
                let indices = jobs.iter().map(|(index, _)| *index).collect();
                (lane, indices, s.spawn(move || run_lane(lane, jobs)))
            })
            .collect();
        for (index, result) in run_lane(own_lane, own_jobs) {
            slots[index] = Some(result);
        }
        collect_outcomes(&mut slots, handles, finish);
    });
    seal_slots(slots, finish)
}

/// One spawned worker: its lane, the job indices it owns, and its handle.
type WorkerHandle<'scope, T> = (
    usize,
    Vec<usize>,
    std::thread::ScopedJoinHandle<'scope, Vec<(usize, T)>>,
);

/// Join every worker and place its results; a worker whose thread died
/// despite per-job `catch_unwind` fills all of its assigned slots with
/// `finish` of [`SpearError::WorkerPanicked`] instead of poisoning the
/// batch.
fn collect_outcomes<T>(
    slots: &mut [Option<T>],
    handles: Vec<WorkerHandle<'_, T>>,
    finish: impl Fn(Result<BatchOutcome>) -> T,
) {
    for (lane, indices, handle) in handles {
        match handle.join() {
            Ok(produced) => {
                for (index, result) in produced {
                    slots[index] = Some(result);
                }
            }
            Err(_) => {
                for index in indices {
                    slots[index] = Some(finish(Err(SpearError::WorkerPanicked { lane })));
                }
            }
        }
    }
}

/// Turn the slot table into the final result vector. Every index is
/// assigned to exactly one worker, so an unfilled slot is a bug in this
/// module — reported as `finish` of a typed error, not a panic.
fn seal_slots<T>(slots: Vec<Option<T>>, finish: impl Fn(Result<BatchOutcome>) -> T) -> Vec<T> {
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                finish(Err(SpearError::Internal("job slot never filled".into())))
            })
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;
    use crate::llm::EchoLlm;
    use crate::pipeline::Pipeline;
    use crate::value::Value;

    fn runtime() -> Runtime {
        Runtime::builder().llm(Arc::new(EchoLlm::default())).build()
    }

    fn pipeline() -> Arc<Pipeline> {
        Arc::new(
            Pipeline::builder("batch_test")
                .create_text("p", "Answer briefly: {{ctx:q}}", RefinementMode::Manual)
                .gen("a", "p")
                .build(),
        )
    }

    fn state(i: usize) -> ExecState {
        let mut st = ExecState::new();
        st.context.set("q", format!("question number {i}"));
        st
    }

    /// Where one GEN ran: the thread, and the scope it saw.
    type Sighting = (std::thread::ThreadId, u64, usize);

    /// An echo backend that records where each call ran and panics on a
    /// prompt containing "bomb".
    #[derive(Default)]
    struct Probe {
        echo: EchoLlm,
        seen: std::sync::Mutex<Vec<Sighting>>,
    }

    impl crate::llm::LlmClient for Probe {
        fn generate(&self, request: &crate::llm::GenRequest) -> Result<crate::llm::GenResponse> {
            self.seen.lock().unwrap().push((
                std::thread::current().id(),
                scope::owner(),
                scope::lane(),
            ));
            assert!(!request.text.contains("bomb"), "intentional test panic");
            self.echo.generate(request)
        }

        fn model_name(&self) -> &str {
            "probe"
        }
    }

    fn probed() -> (Arc<Probe>, Runtime) {
        let probe = Arc::new(Probe::default());
        let rt = Runtime::builder()
            .llm(Arc::clone(&probe) as Arc<dyn crate::llm::LlmClient>)
            .build();
        (probe, rt)
    }

    fn assigned(lane: usize, i: usize) -> AssignedJob {
        AssignedJob {
            lane,
            owner: 1000 + lane as u64,
            program: Arc::new(crate::plan::lower(&pipeline()).expect("lowers")),
            state: state(i),
        }
    }

    #[test]
    fn outcomes_come_back_in_submission_order() {
        let rt = runtime();
        let p = pipeline();
        let runner = BatchRunner::new(4);
        let outcomes = runner.run_states(&rt, &p, (0..13).map(state).collect());
        assert_eq!(outcomes.len(), 13);
        for (i, o) in outcomes.iter().enumerate() {
            let o = o.as_ref().expect("job succeeds");
            let answer = o.state.context.get("a").expect("generated");
            let Value::Str(text) = answer else {
                panic!("string answer")
            };
            assert!(
                text.contains(&format!("question number {i}")),
                "slot {i} holds its own job's output: {text}"
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run_with = |workers: usize| -> Vec<String> {
            let rt = runtime();
            let p = pipeline();
            let runner = BatchRunner::new(workers);
            runner
                .run_states(&rt, &p, (0..10).map(state).collect())
                .into_iter()
                .map(|o| {
                    let o = o.expect("job succeeds");
                    format!(
                        "{:?}|{}",
                        o.report,
                        o.state.trace.to_jsonl().expect("serializable")
                    )
                })
                .collect()
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2));
        assert_eq!(one, run_with(8));
    }

    #[test]
    fn failures_stay_in_their_slot() {
        let rt = runtime();
        let bad = Pipeline::builder("bad").gen("a", "missing_prompt").build();
        let mut jobs: Vec<AssignedJob> = (0..3).map(|i| assigned(i, i)).collect();
        jobs[1].program = Arc::new(crate::plan::lower(&bad).expect("lowers"));
        let outcomes = BatchRunner::new(3).run_assigned(&rt, jobs, |r| r);
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err());
        assert!(outcomes[2].is_ok());
    }

    #[test]
    fn panicking_jobs_are_contained_to_their_slot() {
        let (probe, rt) = probed();
        // Two workers: the bomb is alone on the spawned lane.
        let mut striped: Vec<ExecState> = (0..3).map(state).collect();
        striped[1].context.set("q", "bomb");
        // One lane in use: the bomb sits between two jobs on the lane the
        // caller runs itself.
        let mut own: Vec<AssignedJob> = (0..3).map(|i| assigned(2, i)).collect();
        own[1].state.context.set("q", "bomb");
        // Silence the default panic hook for the intentional panics.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let striped = BatchRunner::new(2).run_states(&rt, &pipeline(), striped);
        probe.seen.lock().unwrap().clear();
        let own = BatchRunner::new(4).run_assigned(&rt, own, |r| r);
        std::panic::set_hook(hook);

        assert!(striped[0].is_ok());
        assert!(matches!(
            striped[1].as_ref().unwrap_err(),
            SpearError::WorkerPanicked { lane: 1 }
        ));
        assert!(striped[2].is_ok(), "later jobs on the lane keep running");

        assert!(own[0].is_ok());
        assert!(matches!(
            own[1].as_ref().unwrap_err(),
            SpearError::WorkerPanicked { lane: 2 }
        ));
        assert!(own[2].is_ok(), "later jobs on the lane keep running");
        let me = std::thread::current().id();
        let seen = probe.seen.lock().unwrap();
        assert_eq!(
            *seen,
            [(me, 1002, 2); 3],
            "all three ran, all on the caller"
        );
        assert_eq!((scope::owner(), scope::lane()), (scope::AMBIENT_OWNER, 0));
    }

    #[test]
    fn one_lane_in_use_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let (probe, rt) = probed();
        let jobs = (0..5).map(|i| assigned(2, i)).collect();
        let outcomes = BatchRunner::new(4).run_assigned(&rt, jobs, |r| r);
        assert!(outcomes.iter().all(std::result::Result::is_ok));
        let outcomes =
            BatchRunner::new(1).run_states(&rt, &pipeline(), (0..5).map(state).collect());
        assert!(outcomes.iter().all(std::result::Result::is_ok));
        let seen = probe.seen.lock().unwrap();
        assert_eq!(seen.len(), 10);
        assert!(seen.iter().all(|(thread, _, _)| *thread == me));
    }

    #[test]
    fn k_lanes_in_use_take_k_minus_one_other_threads() {
        let me = std::thread::current().id();
        let threads_by_lane = |seen: &[Sighting]| {
            let mut by_lane = std::collections::BTreeMap::new();
            for (thread, _, lane) in seen {
                let on: &mut std::collections::HashSet<_> = by_lane.entry(*lane).or_default();
                on.insert(*thread);
            }
            assert!(
                by_lane.values().all(|on| on.len() == 1),
                "a lane is one thread"
            );
            let threads: Vec<_> = by_lane.into_values().flatten().collect();
            let distinct: std::collections::HashSet<_> = threads.iter().collect();
            assert_eq!(distinct.len(), threads.len(), "a thread is one lane");
            threads
        };

        // Lanes 1, 2 and 3 of five are in use: the caller takes lane 1.
        let (probe, rt) = probed();
        let jobs = (0..9).map(|i| assigned(1 + i % 3, i)).collect();
        let outcomes = BatchRunner::new(5).run_assigned(&rt, jobs, |r| r);
        assert!(outcomes.iter().all(std::result::Result::is_ok));
        let threads = threads_by_lane(&probe.seen.lock().unwrap());
        assert_eq!(threads.len(), 3);
        assert_eq!(threads[0], me);

        // Round-robin striping: seven jobs on three workers.
        let (probe, rt) = probed();
        let outcomes =
            BatchRunner::new(3).run_states(&rt, &pipeline(), (0..7).map(state).collect());
        assert!(outcomes.iter().all(std::result::Result::is_ok));
        let threads = threads_by_lane(&probe.seen.lock().unwrap());
        assert_eq!(threads.len(), 3);
        assert_eq!(threads[0], me);
    }

    #[test]
    fn the_callers_scope_survives_a_run() {
        let (probe, rt) = probed();
        let runner = BatchRunner::new(2);
        runner.run_states(&rt, &pipeline(), (0..4).map(state).collect());
        assert_eq!((scope::owner(), scope::lane()), (scope::AMBIENT_OWNER, 0));

        // A caller already inside a scope gets its own scope back, and the
        // jobs it ran inline never saw it.
        let _outer = scope::enter(77, 5);
        runner.run_assigned(&rt, (0..4).map(|i| assigned(i % 2, i)).collect(), |r| r);
        assert_eq!((scope::owner(), scope::lane()), (77, 5));
        let seen = probe.seen.lock().unwrap();
        assert_eq!(seen.len(), 8);
        assert!(seen
            .iter()
            .all(|(_, owner, lane)| *owner != 77 && *lane < 2));
    }

    #[test]
    fn empty_input_does_no_work_on_any_entry_point() {
        // Regression: an empty submission must return an empty result
        // before any owner allocation or thread spawn. The owner counter
        // staying untouched is the observable witness that the early
        // return fired.
        let rt = runtime();
        let runner = BatchRunner::new(8);
        let before = runner.next_owner.load(Ordering::Relaxed);
        assert!(runner.run_states(&rt, &pipeline(), Vec::new()).is_empty());
        let plan = Arc::new(crate::plan::lower(&pipeline()).expect("lowers"));
        assert!(runner.run_lowered(&rt, &plan, Vec::new()).is_empty());
        assert!(runner.run_assigned(&rt, Vec::new(), |r| r).is_empty());
        assert_eq!(
            runner.next_owner.load(Ordering::Relaxed),
            before,
            "empty batches must not consume owner ids"
        );
    }

    #[test]
    fn assigned_jobs_share_lanes_and_keep_submission_order() {
        let rt = runtime();
        let jobs = (0..9).map(|i| assigned(i % 3, i)).collect();
        let outcomes = BatchRunner::new(4).run_assigned(&rt, jobs, |r| r);
        assert_eq!(outcomes.len(), 9);
        for (i, o) in outcomes.iter().enumerate() {
            let o = o.as_ref().expect("job succeeds");
            let Value::Str(text) = o.state.context.get("a").expect("generated") else {
                panic!("string answer")
            };
            assert!(
                text.contains(&format!("question number {i}")),
                "slot {i} holds its own job's output: {text}"
            );
        }
    }

    #[test]
    fn assigned_lanes_wrap_modulo_worker_count() {
        let rt = runtime();
        // All wrap onto lane 7 % 2 == 1.
        let jobs = (0..4).map(|i| assigned(7, i)).collect();
        let outcomes = BatchRunner::new(2).run_assigned(&rt, jobs, |r| r);
        assert!(outcomes.iter().all(std::result::Result::is_ok));
    }

    /// A job of its own owner on `lane`, so a sighting names its job.
    fn owned(lane: usize, i: usize) -> AssignedJob {
        AssignedJob {
            owner: 2000 + i as u64,
            ..assigned(lane, i)
        }
    }

    /// The answer a job wrote, read where `finish` runs.
    fn answer(result: &Result<BatchOutcome>) -> String {
        match result.as_ref().map(|o| o.state.context.get("a")) {
            Ok(Some(Value::Str(text))) => text,
            other => panic!("string answer, got {other:?}"),
        }
    }

    #[test]
    fn finish_runs_on_the_thread_that_ran_its_job() {
        let me = std::thread::current().id();
        let (probe, rt) = probed();
        // Lanes 0, 1 and 2 in use: the caller takes lane 0.
        let jobs = (0..9).map(|i| owned(i % 3, i)).collect();
        let finished = BatchRunner::new(3).run_assigned(&rt, jobs, |result| {
            assert!(result.is_ok());
            (std::thread::current().id(), scope::owner(), scope::lane())
        });
        let seen = probe.seen.lock().unwrap();
        assert_eq!(seen.len(), 9);
        for (i, sighting) in finished.iter().enumerate() {
            assert_eq!(*sighting, (sighting.0, 2000 + i as u64, i % 3), "job {i}");
            assert!(
                seen.contains(sighting),
                "job {i}'s finish ran where its GEN did"
            );
            assert_eq!(sighting.0 == me, i % 3 == 0, "job {i}");
        }
        assert_eq!((scope::owner(), scope::lane()), (scope::AMBIENT_OWNER, 0));
    }

    #[test]
    fn finished_results_come_back_in_submission_order() {
        let rt = runtime();
        for workers in [1, 2, 4] {
            let jobs = (0..11).map(|i| owned(i % workers, i)).collect();
            let answers = BatchRunner::new(workers).run_assigned(&rt, jobs, |r| answer(&r));
            assert_eq!(answers.len(), 11);
            for (i, text) in answers.iter().enumerate() {
                assert!(
                    text.contains(&format!("question number {i}")),
                    "{workers} workers: slot {i} holds its own job's output: {text}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_job_finishes_as_worker_panicked() {
        let (_, rt) = probed();
        let finish = |result: Result<BatchOutcome>| match result {
            Ok(_) => None,
            Err(SpearError::WorkerPanicked { lane }) => Some(lane),
            Err(other) => panic!("unexpected error {other}"),
        };
        // Bombs on the caller's lane 0 (job 2) and the spawned lane 1
        // (job 3).
        let mut jobs: Vec<AssignedJob> = (0..6).map(|i| owned(i % 2, i)).collect();
        for bomb in [2, 3] {
            jobs[bomb].state.context.set("q", "bomb");
        }
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let finished = BatchRunner::new(2).run_assigned(&rt, jobs, finish);
        std::panic::set_hook(hook);
        assert_eq!(finished, [None, None, Some(0), Some(1), None, None]);
    }

    #[test]
    fn an_empty_submission_never_calls_finish() {
        let rt = runtime();
        let runner = BatchRunner::new(4);
        let before = runner.next_owner.load(Ordering::Relaxed);
        let calls = AtomicU64::new(0);
        let finished = runner.run_assigned(&rt, Vec::new(), |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert!(finished.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(runner.next_owner.load(Ordering::Relaxed), before);
    }

    #[test]
    fn owners_are_unique_across_runs() {
        let runner = BatchRunner::new(2);
        let rt = runtime();
        let p = pipeline();
        runner.run_states(&rt, &p, (0..5).map(state).collect());
        let before = runner.next_owner.load(Ordering::Relaxed);
        runner.run_states(&rt, &p, (0..5).map(state).collect());
        assert_eq!(runner.next_owner.load(Ordering::Relaxed), before + 5);
    }
}
