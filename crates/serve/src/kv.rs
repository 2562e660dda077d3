//! Token-level continuous batching under a bounded KV block pool — the
//! memory-pressure model behind `ServeConfig::pressure`.
//!
//! ## Two-phase design: execute, then schedule
//!
//! The serving scheduler keeps the repo-wide determinism invariant (same
//! traces and counters at 1, 4, or 8 lanes) by splitting a pressured run
//! in two:
//!
//! 1. **Execute** every admitted request exactly as the unconstrained
//!    path would — same owner groups, same per-group arrival order, same
//!    engine — so `GenResponse`s and trace digests are byte-identical
//!    whether or not memory pressure is configured (pinned by the
//!    preemption-equivalence test).
//! 2. **Schedule** the measured token footprints through this module's
//!    single-threaded virtual-time iteration loop against a bounded
//!    [`BlockPool`]. Lanes parallelize phase 1's host execution only; the
//!    batching engine being modelled here is one token-interleaved
//!    device, so every eviction and preemption decision happens on the
//!    virtual clock and the counters are lane-invariant *by
//!    construction*.
//!
//! ## The iteration loop (vLLM-style)
//!
//! Each virtual-time iteration composes one batch under a
//! `max_batched_tokens` budget: first a decode step (one token) for every
//! running decode-phase sequence, then chunked prefill for running
//! prefill-phase sequences, then admission of waiting sequences while
//! budget remains (bounded by `max_running_seqs`). Blocks are allocated
//! **as the context materializes** — admission pins only whatever prefix
//! is already resident (prefix-cache reuse, skipping its recompute), and
//! every prefill chunk or decode step first extends the sequence's lease
//! to cover the tokens about to be processed. When the pool is
//! exhausted, the scheduler preempts a *later-admitted* running sequence
//! (preferring the batch class, then the latest admission) — freeing its
//! blocks ([`BlockPool::free`], recompute-on-resume) and re-queueing it
//! **ahead of new arrivals** — and retries. Never preempting an
//! earlier-admitted sequence makes progress unconditional: the oldest
//! running sequence can always grow, so every run terminates. A sequence
//! too large for the whole pool degrades to a streamed tail (it pins
//! what fits and keeps going) instead of livelocking on itself.
//!
//! Preempted sequences keep their generated-token count; on re-admission
//! they re-prefill `prompt + decoded` tokens, minus whatever prefix
//! blocks survived in the pool (the family's shared prefix usually did —
//! that is prefix caching earning its keep under contention).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use spear_kv::shard::fnv1a_extend;
use spear_llm::pool::BlockPool;
use spear_llm::PoolExhausted;

use crate::metrics::KvReport;
use crate::queue::ClassFifo;
use crate::request::Priority;

/// Memory-pressure configuration: the bounded pool plus the iteration
/// scheduler's token economics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvPressureConfig {
    /// Total KV block budget (the "GPU memory" of the simulated device).
    pub pool_blocks: usize,
    /// Tokens per KV block.
    pub block_size: usize,
    /// Compat only, read by no product code: the stripe count
    /// `benchmark/src/layers.rs` passes to `spear_llm::compat::BlockPool`,
    /// which requires 1. The pool is not striped.
    #[doc(hidden)]
    pub pool_stripes: usize,
    /// Per-iteration token budget shared by decode steps and prefill
    /// chunks.
    pub max_batched_tokens: u64,
    /// Largest prefill chunk one sequence gets per iteration.
    pub prefill_chunk_tokens: u64,
    /// Cap on concurrently running sequences (vLLM's `max_num_seqs`).
    pub max_running_seqs: usize,
    /// Fixed virtual µs per iteration (kernel launch / scheduling
    /// overhead).
    pub step_overhead_us: u64,
    /// Virtual µs per prefill token.
    pub prefill_us_per_token: u64,
    /// Virtual µs per decode token.
    pub decode_us_per_token: u64,
}

impl Default for KvPressureConfig {
    fn default() -> Self {
        Self {
            pool_blocks: 4096,
            block_size: 16,
            pool_stripes: 1,
            max_batched_tokens: 2048,
            prefill_chunk_tokens: 256,
            max_running_seqs: 16,
            step_overhead_us: 50,
            prefill_us_per_token: 2,
            decode_us_per_token: 40,
        }
    }
}

/// One sequence's token footprint, measured by the execution phase.
#[derive(Debug, Clone)]
pub(crate) struct SeqInput {
    /// Request id (reporting only).
    pub id: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Arrival timestamp on the virtual clock.
    pub arrival_us: u64,
    /// Prompt tokens to prefill.
    pub prompt_tokens: u64,
    /// Tokens the execution actually generated.
    pub completion_tokens: u64,
    /// Leading prompt tokens shared with the sequence's affinity group
    /// (clamped to `prompt_tokens`; only full blocks are shared).
    pub shared_prefix_tokens: u64,
    /// Chain-hash seed: equal for sequences in one affinity group, unique
    /// otherwise.
    pub family_seed: u64,
}

/// Virtual-time placement of one sequence, produced by the scheduler.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeqTiming {
    /// When the sequence first entered the running set.
    pub start_us: u64,
    /// When its last token (or empty footprint) completed.
    pub finish_us: u64,
    /// Its own tokens' share of iteration time.
    pub service_us: u64,
    /// Preemption events it suffered.
    pub preemptions: u32,
}

/// Everything one simulation produced.
#[derive(Debug)]
pub(crate) struct KvSimRun {
    /// Per-sequence timings, parallel to the input slice.
    pub timings: Vec<SeqTiming>,
    /// Pool + scheduler counters.
    pub report: KvReport,
    /// Waiting-set depth per class observed at each arrival, in
    /// [`Priority::ALL`] order.
    pub depth_samples: Vec<(Priority, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Waiting,
    Running,
    Finished,
}

struct Seq {
    phase: Phase,
    /// Context tokens whose KV is materialized (prefill progress; during
    /// decode it tracks `prompt + decoded`).
    prefilled: u64,
    decoded: u64,
    leased_blocks: usize,
    admission_order: u64,
    /// Decode finished this iteration; release happens at iteration end.
    finishing: bool,
    started_at: Option<u64>,
    finished_at: u64,
    service_us: u64,
    preemptions: u32,
    /// Leading block hashes of the context computed so far. The chain is
    /// a pure function of the sequence and only ever grows, so it is
    /// extended on demand rather than rebuilt per allocation attempt.
    chain: Vec<u64>,
}

/// Preemption preference rank: lower ranks are preempted first.
fn preempt_rank(p: Priority) -> u8 {
    match p {
        Priority::Batch => 0,
        Priority::Interactive => 1,
    }
}

fn mix(seed: u64, parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(seed | 1, |h, p| fnv1a_extend(h, &p.to_le_bytes()))
}

struct Sim<'a> {
    cfg: &'a KvPressureConfig,
    inputs: &'a [SeqInput],
    seqs: Vec<Seq>,
    pool: BlockPool,
    running: Vec<usize>,
    resume: std::collections::VecDeque<usize>,
    waiting: ClassFifo<usize>,
    admission_counter: u64,
    preempted: u64,
    depth_samples: Vec<(Priority, u64)>,
    peak_live_blocks: u64,
    steps: u64,
}

impl<'a> Sim<'a> {
    /// Pool sequence ids are `index + 1` (0 is nobody).
    fn pool_seq(idx: usize) -> u64 {
        idx as u64 + 1
    }

    /// Context tokens the sequence must have materialized before its next
    /// decode step: the prompt plus everything decoded so far.
    fn context_target(&self, idx: usize) -> u64 {
        self.inputs[idx].prompt_tokens + self.seqs[idx].decoded
    }

    /// Make `idx`'s cached block-hash chain cover the first `blocks`
    /// blocks of its context. Blocks inside the (full-block) shared prefix
    /// hash by family only, so same-family sequences share them
    /// physically; the rest is salted by id, shareable only with this
    /// sequence's own resumed self.
    fn extend_chain(&mut self, idx: usize, blocks: usize) {
        let input = &self.inputs[idx];
        let bs = self.cfg.block_size as u64;
        let shared_blocks = input.shared_prefix_tokens.min(input.prompt_tokens) / bs;
        let chain = &mut self.seqs[idx].chain;
        for b in chain.len() as u64..blocks as u64 {
            chain.push(if b < shared_blocks {
                mix(input.family_seed, &[b])
            } else {
                mix(input.family_seed, &[input.id + 1, b])
            });
        }
    }

    fn blocks_for_tokens(&self, tokens: u64) -> usize {
        (tokens as usize).div_ceil(self.cfg.block_size)
    }

    /// Preempt `idx`: drop its private blocks (recompute-on-resume) and
    /// re-queue it ahead of new arrivals.
    fn preempt(&mut self, idx: usize) {
        self.pool.free(Self::pool_seq(idx));
        let seq = &mut self.seqs[idx];
        seq.leased_blocks = 0;
        seq.prefilled = 0;
        seq.phase = Phase::Waiting;
        seq.preemptions += 1;
        self.preempted += 1;
        self.running.retain(|&r| r != idx);
        self.resume.push_back(idx);
    }

    /// The running sequence to preempt so `for_idx` can allocate: among
    /// sequences admitted strictly *later* than the requester (so the
    /// oldest running sequence is never preempted and progress is
    /// unconditional), prefer the batch class, then the latest admission.
    /// Never a finishing sequence — its lease releases this iteration
    /// anyway.
    fn pick_victim(&self, for_idx: usize) -> Option<usize> {
        let requester_order = self.seqs[for_idx].admission_order;
        self.running
            .iter()
            .copied()
            .filter(|&v| {
                v != for_idx
                    && !self.seqs[v].finishing
                    && self.seqs[v].leased_blocks > 0
                    && self.seqs[v].admission_order > requester_order
            })
            .max_by_key(|&v| {
                (
                    std::cmp::Reverse(preempt_rank(self.inputs[v].priority)),
                    self.seqs[v].admission_order,
                )
            })
    }

    /// Grow `idx`'s lease to cover `blocks` blocks, preempting
    /// later-admitted victims as needed. Returns `false` when the step
    /// must be skipped this iteration — earlier-admitted sequences (or
    /// this iteration's finishers) hold the pool, and their progress or
    /// release is what frees it.
    fn ensure_blocks(&mut self, idx: usize, blocks: usize) -> bool {
        self.extend_chain(idx, blocks);
        loop {
            let chain = &self.seqs[idx].chain[..blocks];
            match self.pool.allocate(Self::pool_seq(idx), chain) {
                Ok(grant) => {
                    self.seqs[idx].leased_blocks = grant.lease_blocks;
                    return true;
                }
                Err(PoolExhausted { .. }) => {
                    if let Some(victim) = self.pick_victim(idx) {
                        self.preempt(victim);
                        continue;
                    }
                    if self
                        .running
                        .iter()
                        .any(|&v| v != idx && self.seqs[v].leased_blocks > 0)
                    {
                        // Earlier-admitted sequences (or finishers about
                        // to release) pin the pool: wait for them rather
                        // than inverting admission order.
                        return false;
                    }
                    // Nobody else holds blocks: the sequence is bigger
                    // than the pool. Pin what fits and stream the tail —
                    // never livelock on self-preemption.
                    let chain = &self.seqs[idx].chain[..blocks];
                    let grant = self.pool.allocate_prefix(Self::pool_seq(idx), chain);
                    self.seqs[idx].leased_blocks = grant.lease_blocks;
                    return true;
                }
            }
        }
    }

    fn run(mut self) -> KvSimRun {
        let n = self.inputs.len();
        let mut next_arrival = 0usize;
        let mut finished = 0usize;
        let mut now = 0u64;
        let mut stalled_iterations = 0u32;

        while finished < n {
            // Admit arrivals whose timestamp has been reached.
            while next_arrival < n && self.inputs[next_arrival].arrival_us <= now {
                let class = self.inputs[next_arrival].priority;
                self.waiting.push_back(class, next_arrival);
                self.depth_samples
                    .push((class, self.waiting.depth(class) as u64));
                next_arrival += 1;
            }
            if self.running.is_empty() && self.resume.is_empty() && self.waiting.is_empty() {
                // Idle: jump to the next arrival.
                let arrival = self.inputs[next_arrival].arrival_us;
                now = now.max(arrival);
                continue;
            }

            let mut budget = self.cfg.max_batched_tokens.max(1);
            let mut prefill_tokens = 0u64;
            let mut decode_tokens = 0u64;
            let mut admissions = 0u32;
            let preempted_before = self.preempted;

            // --- Decode: one token for every running decode-phase
            // sequence, in admission order. `running` is kept in admission
            // order and a step only ever preempts sequences admitted after
            // the one it serves, so removals land beyond the cursor.
            let mut cursor = 0;
            while cursor < self.running.len() && budget > 0 {
                let idx = self.running[cursor];
                cursor += 1;
                let seq = &self.seqs[idx];
                if seq.phase != Phase::Running || seq.finishing {
                    continue;
                }
                let target = self.context_target(idx);
                let input = &self.inputs[idx];
                if seq.prefilled < target || seq.decoded >= input.completion_tokens {
                    continue; // still prefilling, or nothing to decode
                }
                // KV room for the token about to be generated.
                let blocks_needed = self.blocks_for_tokens(target + 1);
                if blocks_needed > self.seqs[idx].leased_blocks
                    && !self.ensure_blocks(idx, blocks_needed)
                {
                    continue;
                }
                if self.seqs[idx].phase != Phase::Running {
                    continue; // lost a preemption fight for its own slot
                }
                budget -= 1;
                decode_tokens += 1;
                let seq = &mut self.seqs[idx];
                seq.decoded += 1;
                seq.prefilled += 1;
                seq.service_us += self.cfg.decode_us_per_token;
                if seq.decoded == self.inputs[idx].completion_tokens {
                    seq.finishing = true;
                }
            }

            // --- Prefill: chunked, for running prefill-phase sequences.
            // Each chunk first extends the lease to cover the tokens it
            // is about to materialize; a sequence that cannot get blocks
            // (earlier-admitted holders) simply skips its turn.
            let mut cursor = 0;
            while cursor < self.running.len() && budget > 0 {
                let idx = self.running[cursor];
                cursor += 1;
                if self.seqs[idx].phase != Phase::Running || self.seqs[idx].finishing {
                    continue;
                }
                let target = self.context_target(idx);
                let remaining = target.saturating_sub(self.seqs[idx].prefilled);
                if remaining == 0 {
                    continue;
                }
                let chunk = budget
                    .min(self.cfg.prefill_chunk_tokens.max(1))
                    .min(remaining);
                let covered = self.seqs[idx].prefilled + chunk;
                let blocks_needed = self.blocks_for_tokens(covered);
                if blocks_needed > self.seqs[idx].leased_blocks
                    && !self.ensure_blocks(idx, blocks_needed)
                {
                    continue;
                }
                budget -= chunk;
                prefill_tokens += chunk;
                let seq = &mut self.seqs[idx];
                seq.prefilled += chunk;
                seq.service_us += chunk * self.cfg.prefill_us_per_token;
                if seq.prefilled >= target && seq.decoded >= self.inputs[idx].completion_tokens {
                    seq.finishing = true; // nothing to decode (empty completion)
                }
            }

            // --- Admission: resumed sequences first (ahead of new
            // arrivals), then the waiting set, while budget and running
            // slots remain. Admission pins only the already-resident
            // prefix (which allocates nothing new, so it cannot fail);
            // blocks for the rest of the context are leased chunk by
            // chunk as prefill materializes it.
            let max_running = self.cfg.max_running_seqs.max(1);
            while budget > 0 && self.running.len() < max_running {
                let idx = match self.resume.pop_front() {
                    Some(idx) => idx,
                    None => match self.waiting.pop() {
                        Some((_, idx)) => idx,
                        None => break,
                    },
                };
                let target = self.context_target(idx);
                let blocks = self.blocks_for_tokens(target);
                self.extend_chain(idx, blocks);
                let chain = &self.seqs[idx].chain[..blocks];
                // Pinning resident blocks needs no new ones, so this does
                // not fail.
                let leased_blocks = self
                    .pool
                    .pin_resident(Self::pool_seq(idx), chain)
                    .lease_blocks;
                admissions += 1;
                let bs = self.cfg.block_size as u64;
                let seq = &mut self.seqs[idx];
                seq.leased_blocks = leased_blocks;
                // Resident prefix blocks skip recompute (pool prefix
                // reuse — shared family blocks and, on resume, whatever
                // of the sequence's own context survived).
                seq.prefilled = (leased_blocks as u64 * bs).min(target);
                seq.phase = Phase::Running;
                seq.admission_order = self.admission_counter;
                self.admission_counter += 1;
                if seq.started_at.is_none() {
                    seq.started_at = Some(now);
                }
                self.running.push(idx);
                // First prefill chunk within this same iteration, lease
                // permitting (a full pool just leaves it for later).
                let remaining = target.saturating_sub(self.seqs[idx].prefilled);
                let chunk = budget
                    .min(self.cfg.prefill_chunk_tokens.max(1))
                    .min(remaining);
                let covered = self.seqs[idx].prefilled + chunk;
                let blocks_needed = self.blocks_for_tokens(covered);
                if chunk > 0
                    && blocks_needed > self.seqs[idx].leased_blocks
                    && !self.ensure_blocks(idx, blocks_needed)
                {
                    continue;
                }
                budget -= chunk;
                prefill_tokens += chunk;
                let seq = &mut self.seqs[idx];
                seq.prefilled += chunk;
                seq.service_us += chunk * self.cfg.prefill_us_per_token;
                if seq.prefilled >= target && seq.decoded >= self.inputs[idx].completion_tokens {
                    seq.finishing = true; // empty or fully-cached footprint
                }
            }

            // --- Advance the clock and settle finishers.
            let batched = prefill_tokens + decode_tokens;
            if batched > 0 {
                now += self.cfg.step_overhead_us
                    + prefill_tokens * self.cfg.prefill_us_per_token
                    + decode_tokens * self.cfg.decode_us_per_token;
                self.steps += 1;
            }
            // Only running sequences finish; release order is immaterial
            // (unpinning touches neither recency nor counters).
            let mut running = std::mem::take(&mut self.running);
            running.retain(|&idx| {
                let seq = &mut self.seqs[idx];
                if !seq.finishing {
                    return true;
                }
                seq.finishing = false;
                seq.phase = Phase::Finished;
                seq.finished_at = now;
                seq.leased_blocks = 0;
                // A finished sequence never leases again: its chain is
                // dead, and a pressured run finishes every sequence
                // before it returns, so keeping it would hold every
                // request's chain at once.
                seq.chain = Vec::new();
                self.pool.release(Self::pool_seq(idx));
                finished += 1;
                false
            });
            self.running = running;
            self.peak_live_blocks = self.peak_live_blocks.max(self.pool.live_blocks() as u64);

            // Stall guard: an iteration that moved no tokens, admitted
            // nothing, and preempted nothing means a scheduling bug — the
            // design guarantees at least one of the three.
            let progressed = batched > 0 || admissions > 0 || self.preempted > preempted_before;
            if progressed {
                stalled_iterations = 0;
            } else {
                stalled_iterations += 1;
                assert!(
                    stalled_iterations < 4,
                    "KV iteration scheduler stalled: {} running, {} waiting, {} resumed, \
                     pool {}/{} blocks live",
                    self.running.len(),
                    self.waiting.len(),
                    self.resume.len(),
                    self.pool.live_blocks(),
                    self.pool.capacity(),
                );
            }
        }

        let stats = self.pool.stats();
        let timings = self
            .seqs
            .iter()
            .map(|s| SeqTiming {
                start_us: s.started_at.unwrap_or(s.finished_at),
                finish_us: s.finished_at,
                service_us: s.service_us,
                preemptions: s.preemptions,
            })
            .collect();
        KvSimRun {
            timings,
            report: KvReport {
                enabled: true,
                pool_blocks: self.pool.capacity() as u64,
                block_size: self.cfg.block_size as u64,
                max_batched_tokens: self.cfg.max_batched_tokens,
                steps: self.steps,
                preempted: self.preempted,
                evicted_blocks: stats.evicted_blocks,
                freed_blocks: stats.freed_blocks,
                inserted_blocks: stats.inserted_blocks,
                reused_blocks: stats.reused_blocks,
                requested_blocks: stats.requested_blocks,
                alloc_failures: stats.alloc_failures,
                peak_live_blocks: self.peak_live_blocks,
            },
            depth_samples: self.depth_samples,
        }
    }
}

/// Schedule `inputs` (sorted by non-decreasing `arrival_us`) through the
/// iteration loop. Single-threaded and fully deterministic: the output is
/// a pure function of `inputs` and `cfg`.
pub(crate) fn simulate(inputs: &[SeqInput], cfg: &KvPressureConfig) -> KvSimRun {
    debug_assert!(
        inputs
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us),
        "sequences must be sorted by arrival"
    );
    let seqs = inputs
        .iter()
        .map(|_| Seq {
            phase: Phase::Waiting,
            prefilled: 0,
            decoded: 0,
            leased_blocks: 0,
            admission_order: 0,
            finishing: false,
            started_at: None,
            finished_at: 0,
            service_us: 0,
            preemptions: 0,
            chain: Vec::new(),
        })
        .collect();
    Sim {
        cfg,
        inputs,
        seqs,
        pool: BlockPool::new(cfg.pool_blocks),
        running: Vec::new(),
        resume: std::collections::VecDeque::new(),
        waiting: ClassFifo::new(u32::MAX), // aging handled upstream; FIFO per class here
        admission_counter: 0,
        preempted: 0,
        depth_samples: Vec::new(),
        peak_live_blocks: 0,
        steps: 0,
    }
    .run()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn seq(id: u64, arrival_us: u64, prompt: u64, completion: u64, shared: u64) -> SeqInput {
        SeqInput {
            id,
            priority: if id.is_multiple_of(2) {
                Priority::Interactive
            } else {
                Priority::Batch
            },
            arrival_us,
            prompt_tokens: prompt,
            completion_tokens: completion,
            shared_prefix_tokens: shared,
            family_seed: 7,
        }
    }

    fn tight_cfg() -> KvPressureConfig {
        KvPressureConfig {
            pool_blocks: 24,
            block_size: 16,
            max_batched_tokens: 64,
            prefill_chunk_tokens: 32,
            ..KvPressureConfig::default()
        }
    }

    #[test]
    fn roomy_pool_never_preempts_and_finishes_everything() {
        let inputs: Vec<SeqInput> = (0..8).map(|i| seq(i, i * 100, 320, 40, 256)).collect();
        let run = simulate(&inputs, &KvPressureConfig::default());
        assert_eq!(run.report.preempted, 0);
        assert_eq!(run.report.evicted_blocks, 0);
        assert!(run.report.steps > 0);
        assert!(run.report.reused_blocks > 0, "family prefix reuse");
        for (t, input) in run.timings.iter().zip(&inputs) {
            assert!(t.start_us >= input.arrival_us);
            assert!(t.finish_us > t.start_us);
            assert!(t.service_us > 0);
            assert_eq!(t.preemptions, 0);
        }
    }

    #[test]
    fn tight_pool_preempts_and_still_finishes_everything() {
        // 24 blocks = 384 tokens of KV for 8 concurrent sequences that
        // each need 360 context tokens: decode must fight for blocks.
        let inputs: Vec<SeqInput> = (0..8).map(|i| seq(i, i * 10, 320, 40, 256)).collect();
        let run = simulate(&inputs, &tight_cfg());
        assert!(
            run.report.preempted > 0,
            "pressure must preempt: {:?}",
            run.report
        );
        assert!(
            run.report.freed_blocks > 0,
            "preemption frees private blocks"
        );
        assert!(run.report.alloc_failures > 0);
        assert!(run.report.peak_live_blocks <= 24);
        let preempted_total: u64 = run.timings.iter().map(|t| u64::from(t.preemptions)).sum();
        assert_eq!(preempted_total, run.report.preempted);
        for t in &run.timings {
            assert!(t.finish_us > 0, "every sequence still finishes");
        }
        // Preempted sequences recompute, so total service exceeds the
        // unconstrained run's.
        let unconstrained = simulate(&inputs, &KvPressureConfig::default());
        let pressured_service: u64 = run.timings.iter().map(|t| t.service_us).sum();
        let free_service: u64 = unconstrained.timings.iter().map(|t| t.service_us).sum();
        assert!(pressured_service > free_service);
    }

    #[test]
    fn sequences_larger_than_the_pool_stream_instead_of_livelocking() {
        let cfg = KvPressureConfig {
            pool_blocks: 4,
            block_size: 16,
            ..KvPressureConfig::default()
        };
        // 640 prompt tokens = 40 blocks, 10× the pool.
        let inputs = vec![seq(0, 0, 640, 32, 0)];
        let run = simulate(&inputs, &cfg);
        assert!(run.timings[0].finish_us > 0);
        assert!(run.report.peak_live_blocks <= 4);
    }

    #[test]
    fn empty_footprints_finish_instantly() {
        // A cancelled/failed execution has no measured tokens; it passes
        // through the scheduler at its admission instant.
        let inputs = vec![seq(0, 50, 0, 0, 0), seq(1, 60, 64, 8, 0)];
        let run = simulate(&inputs, &KvPressureConfig::default());
        assert_eq!(run.timings[0].service_us, 0);
        assert_eq!(run.timings[0].finish_us, run.timings[0].start_us);
        assert!(run.timings[1].service_us > 0);
    }

    /// FNV-1a over everything a simulation produces: every `SeqTiming`
    /// field, the full `KvReport` and `depth_samples` — plus the per-class
    /// preemption totals and the last finish, which `KvSimRun` carried as
    /// `preempted_by_class` and `makespan_us` when the digests were pinned
    /// and which follow from the timings.
    fn digest(inputs: &[SeqInput], run: &KvSimRun) -> u64 {
        let r = &run.report;
        let preempted_in = |class: Priority| -> u64 {
            (inputs.iter().zip(&run.timings))
                .filter(|(input, _)| input.priority == class)
                .map(|(_, t)| u64::from(t.preemptions))
                .sum()
        };
        let mut words = vec![
            u64::from(r.enabled),
            r.pool_blocks,
            r.block_size,
            r.max_batched_tokens,
            r.steps,
            r.preempted,
            r.evicted_blocks,
            r.freed_blocks,
            r.inserted_blocks,
            r.reused_blocks,
            r.requested_blocks,
            r.alloc_failures,
            r.peak_live_blocks,
            preempted_in(Priority::Interactive),
            preempted_in(Priority::Batch),
            run.timings.iter().map(|t| t.finish_us).max().unwrap_or(0),
        ];
        for t in &run.timings {
            words.extend([
                t.start_us,
                t.finish_us,
                t.service_us,
                u64::from(t.preemptions),
            ]);
        }
        for &(class, depth) in &run.depth_samples {
            words.extend([class as u64, depth]);
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        spear_kv::shard::fnv1a(&bytes)
    }

    /// 512 sequences in bursts of twelve over four families with shared
    /// prefixes, drawn from a fixed LCG.
    fn bursty_inputs() -> Vec<SeqInput> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut arrival_us = 0u64;
        (0..512u64)
            .map(|id| {
                arrival_us += if id % 16 < 12 {
                    20 + draw(40)
                } else {
                    1_500 + draw(2_000)
                };
                let family = draw(4);
                SeqInput {
                    id,
                    priority: if draw(10) < 6 {
                        Priority::Interactive
                    } else {
                        Priority::Batch
                    },
                    arrival_us,
                    prompt_tokens: 260 + draw(220),
                    completion_tokens: 6 + draw(42),
                    shared_prefix_tokens: 128 + 64 * family,
                    family_seed: 0x51ed_2701 + family * 0x1000_0001,
                }
            })
            .collect()
    }

    /// Golden digests, recorded with the scan-based pool (kept as
    /// `spear_llm`'s `pool::naive` test reference) and a simulator that
    /// rebuilt every chain per allocation attempt: the pool's incremental
    /// index and the cached chains must not move a timestamp or counter.
    #[test]
    fn golden_digests_pin_every_timing_and_counter() {
        let staggered: Vec<SeqInput> = (0..8).map(|i| seq(i, i * 100, 320, 40, 256)).collect();
        let crowded: Vec<SeqInput> = (0..8).map(|i| seq(i, i * 10, 320, 40, 256)).collect();
        let tiny = KvPressureConfig {
            pool_blocks: 4,
            block_size: 16,
            ..KvPressureConfig::default()
        };
        let bursty_cfg = KvPressureConfig {
            pool_blocks: 256,
            block_size: 16,
            max_batched_tokens: 1024,
            prefill_chunk_tokens: 128,
            ..KvPressureConfig::default()
        };
        let roomy = simulate(&staggered, &KvPressureConfig::default());
        let tight = simulate(&crowded, &tight_cfg());
        let lone = [seq(0, 0, 640, 32, 0)];
        let oversized = simulate(&lone, &tiny);
        let burst = bursty_inputs();
        let bursty = simulate(&burst, &bursty_cfg);
        assert!(tight.report.preempted > 0 && tight.report.evicted_blocks > 0);
        assert!(bursty.report.preempted > 0 && bursty.report.evicted_blocks > 0);
        assert_eq!(
            [
                digest(&staggered, &roomy),
                digest(&crowded, &tight),
                digest(&lone, &oversized),
                digest(&burst, &bursty)
            ],
            [
                9_915_116_632_029_514_797,
                14_134_403_833_580_421_031,
                12_621_088_748_780_322_634,
                13_739_723_301_749_704_966
            ]
        );
    }

    #[test]
    fn simulation_is_a_pure_function_of_its_inputs() {
        let inputs: Vec<SeqInput> = (0..12).map(|i| seq(i, i * 7, 200, 24, 128)).collect();
        let cfg = tight_cfg();
        let a = simulate(&inputs, &cfg);
        let b = simulate(&inputs, &cfg);
        assert_eq!(a.report, b.report);
        for (x, y) in a.timings.iter().zip(&b.timings) {
            assert_eq!(
                (x.start_us, x.finish_us, x.service_us, x.preemptions),
                (y.start_us, y.finish_us, y.service_us, y.preemptions)
            );
        }
    }
}
