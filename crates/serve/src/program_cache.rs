//! Bounded cache of compiled programs.
//!
//! The scheduler compiles each admitted plan to `spear-core`'s bytecode
//! once per plan fingerprint ([`LoweredPlan::fingerprint`]) and reuses the
//! `Arc<Program>` for every later admission of the same plan. The
//! fingerprint hashes every slot, and the affinity seed is a pure function
//! of the slots, so the fingerprint alone identifies the program.
//!
//! Threads that share one cache (the benchmark's `compile_cold` lanes; a
//! `ServeNode` or `Cluster` node calls it from its one scheduler thread)
//! must not serialize on it, hence the lock discipline on
//! [`ProgramCache`]. Of its two halves, freeing each victim on its
//! compiling thread is the one that mattered: a `Program` is about 120
//! allocations, and dropping one took 7–8 µs when one lane ran but 13–16
//! µs when the other lane had compiled it, with every later allocation of
//! both lanes slowed by the shared allocator arenas. Measured with
//! `compile_cold` on a 2-core host: with each victim freed by whichever
//! lane evicted it, two lanes ran no faster than one; freed by the lane
//! that compiled it, about 1.5× faster. Moving only the compile out of the
//! lock changed nothing measurable.
//!
//! Bound, recency and the lookup counters are one [`LruMap`]; the cache
//! adds only compiling outside the lock and freeing on the compiling
//! thread.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

use spear_core::plan::LoweredPlan;
use spear_core::runtime::Runtime;
use spear_core::vm::{self, Program};
use spear_llm::{LruMap, SimLlm};

use crate::metrics::CompileReport;

struct Slot {
    program: Arc<Program>,
    /// The thread that compiled the program, and so the one that frees it.
    compiled_by: ThreadId,
}

struct Inner {
    /// Keyed by [`LoweredPlan::fingerprint`].
    programs: LruMap<u64, Slot>,
    /// Evicted slots waiting for the thread that compiled them, oldest
    /// first; never longer than the cache's capacity.
    retired: Vec<Slot>,
    /// The optimizer counter; the lookup ones live in `programs`.
    counters: CompileReport,
}

impl Inner {
    /// Touch `key`'s resident program, counting a hit.
    fn hit(&mut self, key: u64) -> Option<Arc<Program>> {
        self.programs
            .get(&key)
            .map(|slot| Arc::clone(&slot.program))
    }

    /// Take out the retired slots `thread` compiled.
    fn take_retired(&mut self, thread: ThreadId) -> Vec<Slot> {
        self.retired
            .extract_if(.., |slot| slot.compiled_by == thread)
            .collect()
    }

    /// Insert `program`, just compiled by thread `caller`, under `key`.
    /// Returns the slot `caller` must free: the victim if `caller`
    /// compiled it, else (when parking the victim overflows `retired`) the
    /// oldest retired slot.
    fn insert(&mut self, key: u64, program: Arc<Program>, caller: ThreadId) -> Option<Slot> {
        let slot = Slot {
            program,
            compiled_by: caller,
        };
        let (_, victim) = self.programs.insert(key, slot)?;
        if victim.compiled_by == caller {
            return Some(victim);
        }
        self.retired.push(victim);
        (self.retired.len() > self.programs.capacity()).then(|| self.retired.remove(0))
    }
}

/// A bounded, thread-safe LRU cache of compiled programs, owned by the
/// serving node and shared across its runs.
///
/// Lock discipline: nothing compiles under the lock. A miss looks the key
/// up, releases the lock, compiles and optimizes, then re-locks to
/// insert; if another thread inserted the same key meanwhile,
/// the first insert wins and the late caller counts a hit and drops its
/// own copy. An evicted program is freed by the thread that
/// compiled it, after that thread releases the lock: a victim of another
/// thread waits in a retired list, capped at the cache's capacity, until
/// its compiling thread next calls (or until an overflow releases the
/// oldest), because freeing another thread's program makes the two
/// threads contend on each other's allocator arenas (measurements in the
/// module docs). A cache used from one thread parks nothing: every victim
/// is that thread's and is freed in the call that evicts it.
pub struct ProgramCache {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramCache").finish_non_exhaustive()
    }
}

impl ProgramCache {
    /// A cache holding at most `capacity` compiled programs (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                programs: LruMap::new(capacity),
                retired: Vec::new(),
                counters: CompileReport::default(),
            }),
        }
    }

    /// The state lock; a panic elsewhere cannot leave `Inner` half-updated
    /// (every update is a few field writes), so a poisoned lock is reused.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of resident compiled programs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().programs.len()
    }

    /// `true` when no program is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up (or compile) the program for `plan`. Returns `None` when the
    /// plan fails to compile — i.e. fails structural verification — in
    /// which case nothing is cached and the caller can take the
    /// `InvalidPlan` error from [`spear_core::vm::compile`] itself.
    ///
    /// `runtime` and `engine` are not read: a program depends on its plan
    /// alone. They stay in the signature for existing callers.
    pub fn get_or_compile(
        &self,
        plan: &LoweredPlan,
        _runtime: &Runtime,
        _engine: Option<&SimLlm>,
    ) -> Option<Arc<Program>> {
        self.get_or_compile_keyed(plan.fingerprint(), plan)
    }

    /// [`Self::get_or_compile`] with `plan`'s fingerprint already derived
    /// (`key` must be [`LoweredPlan::fingerprint`] of this very plan).
    pub(crate) fn get_or_compile_keyed(
        &self,
        key: u64,
        plan: &LoweredPlan,
    ) -> Option<Arc<Program>> {
        let me = thread::current().id();
        let mut inner = self.lock();
        let retired = inner.take_retired(me);
        let hit = inner.hit(key);
        drop(inner);
        drop(retired);
        if hit.is_some() {
            return hit;
        }

        // Verified bytecode optimization: jump threading, dead else-edge
        // redirection, and unreachable-op pruning — accepted only when the
        // optimized form symbolically bisimulates the original
        // (`vm::optimize` is fail-closed), so traces stay byte-identical.
        let program = vm::compile(plan).ok()?;
        let optimized = vm::optimize(&program);
        let counted = u64::from(optimized.is_some());
        let program = Arc::new(optimized.unwrap_or(program));

        let mut inner = self.lock();
        if let Some(resident) = inner.hit(key) {
            // Another thread inserted this key while we compiled: the first
            // insert wins, and our copy drops after the unlock.
            drop(inner);
            return Some(resident);
        }
        inner.counters.optimized += counted;
        let released = inner.insert(key, Arc::clone(&program), me);
        drop(inner);
        drop(released);
        Some(program)
    }

    /// Take the counters accumulated since the last drain (the per-run
    /// delta for [`crate::metrics::ServeReport::compile`]).
    pub fn drain_counters(&self) -> CompileReport {
        let mut inner = self.lock();
        let lookups = inner.programs.take_stats();
        CompileReport {
            compiled: lookups.insertions,
            cache_hits: lookups.hits,
            evicted: lookups.evictions,
            ..std::mem::take(&mut inner.counters)
        }
    }
}
