//! A bounded, thread-safe LRU cache of program copies, kept as an adapter
//! for the stand-alone benchmark (DESIGN.md §18): no serving path calls
//! it, because a `ServeNode` runs each request's own plan. The benchmark's
//! `compile_cold` drives it from two lanes, and its `serve.program_cache.*`
//! layer metrics time it.
//!
//! Threads that share one cache must not serialize on it, hence the lock
//! discipline on [`ProgramCache`]. Of its two halves, freeing each victim
//! on its compiling thread (the one that built the cached copy) is the one
//! that mattered: a `Program` is about 120 allocations, and dropping one
//! took 7–8 µs when one lane ran but 13–16 µs when the other lane had
//! compiled it, with every later allocation of both lanes slowed by the
//! shared allocator arenas. Measured with `compile_cold` on a 2-core host:
//! with each victim freed by whichever lane evicted it, two lanes ran no
//! faster than one; freed by the lane that compiled it, about 1.5× faster.
//! Moving only the miss's work (then an optimizer pass and a copy) out of
//! the lock changed nothing measurable.
//!
//! Bound, recency and the lookup counters are one [`LruMap`]; the cache
//! adds only copying outside the lock and freeing on the compiling thread.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

use spear_core::runtime::Runtime;
use spear_core::vm::Program;
use spear_llm::{LruMap, SimLlm};

use crate::metrics::CompileReport;

struct Slot {
    program: Arc<Program>,
    /// The thread that compiled the program, and so the one that frees it.
    compiled_by: ThreadId,
}

struct Inner {
    /// Keyed by [`Program::fingerprint`].
    programs: LruMap<u64, Slot>,
    /// Evicted slots waiting for the thread that compiled them, oldest
    /// first; never longer than the cache's capacity.
    retired: Vec<Slot>,
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

/// A bounded, thread-safe LRU cache of program copies, keyed by
/// [`Program::fingerprint`].
///
/// Lock discipline: nothing is copied under the lock. A miss looks the key
/// up, releases the lock, copies the plan, then re-locks to
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
#[doc(hidden)]
pub struct ProgramCache {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramCache").finish_non_exhaustive()
    }
}

impl ProgramCache {
    /// A cache holding at most `capacity` programs (clamped to at least
    /// 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                programs: LruMap::new(capacity),
                retired: Vec::new(),
            }),
        }
    }

    /// The state lock; a panic elsewhere cannot leave `Inner` half-updated
    /// (every update is a few field writes), so a poisoned lock is reused.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of resident programs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().programs.len()
    }

    /// `true` when no program is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The program for `plan`: the resident copy on a hit; on a miss, a
    /// copy of `plan`, now resident and built (so later freed) by the
    /// calling thread. Never `None`: every program passed lowering's
    /// structural gate.
    ///
    /// `runtime` and `engine` are not read: a program depends on its plan
    /// alone. They stay in the signature for existing callers.
    pub fn get_or_compile(
        &self,
        plan: &Program,
        _runtime: &Runtime,
        _engine: Option<&SimLlm>,
    ) -> Option<Arc<Program>> {
        let key = plan.fingerprint();
        let me = thread::current().id();
        let mut inner = self.lock();
        let retired = inner.take_retired(me);
        let hit = inner.hit(key);
        drop(inner);
        drop(retired);
        if hit.is_some() {
            return hit;
        }
        let program = Arc::new(plan.clone());

        let mut inner = self.lock();
        if let Some(resident) = inner.hit(key) {
            // Another thread inserted this key while we copied: the first
            // insert wins, and our copy drops after the unlock.
            drop(inner);
            return Some(resident);
        }
        let released = inner.insert(key, Arc::clone(&program), me);
        drop(inner);
        drop(released);
        Some(program)
    }

    /// Take the lookup counters accumulated since the last drain: misses
    /// as `compiled`, hits as `cache_hits`, and evictions. A `ServeReport`
    /// never carries them.
    pub fn drain_counters(&self) -> CompileReport {
        let lookups = self.lock().programs.take_stats();
        CompileReport {
            compiled: lookups.insertions,
            cache_hits: lookups.hits,
            evicted: lookups.evictions,
            ..CompileReport::default()
        }
    }
}
