//! Bounded cache of compiled (and per-affinity specialized) programs.
//!
//! The scheduler compiles each admitted plan to `spear-core`'s bytecode
//! once per `(plan fingerprint, affinity key)` pair and reuses the
//! `Arc<Program>` for every later member of the family. On first compile
//! of a keyed family the cache additionally **specializes** the program:
//! it constant-folds the family's fixed prompt prefix (the leading
//! template literal every member renders identically) and pre-resolves
//! that prefix's token/block-hash chain through the engine's token
//! interner, so the family's first real request already starts warm.
//!
//! Specialization touches only host-side memoization state — the prefix
//! cache and all response-visible numbers are untouched, so specialized
//! and generic programs produce byte-identical traces (pinned by the
//! `program_cache` integration tests).

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

use spear_core::analysis::{analyze, ProgramBounds, ResourceModel};
use spear_core::plan::LoweredPlan;
use spear_core::runtime::Runtime;
use spear_core::segment::{SegmentedText, TextSegment};
use spear_core::vm::{self, Program};
use spear_llm::SimLlm;

use crate::metrics::CompileReport;

/// Cache key: content fingerprint of the plan plus its affinity key.
/// Fingerprint-equal plans compile identically; the affinity component
/// keeps per-family specialized programs distinct from each other (two
/// families can share a plan shape but not a prefix).
///
/// Deriving it serialises the whole plan, so callers replaying one plan
/// many times derive it once ([`ProgramKey::of`]) and pass it to
/// [`ProgramCache::get_or_compile_keyed`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ProgramKey {
    /// [`LoweredPlan::fingerprint`].
    pub(crate) fingerprint: u64,
    /// [`LoweredPlan::affinity_key`].
    pub(crate) affinity: Option<String>,
}

impl ProgramKey {
    pub(crate) fn of(plan: &LoweredPlan) -> Self {
        Self {
            fingerprint: plan.fingerprint(),
            affinity: plan.affinity_key(),
        }
    }
}

struct Slot {
    program: Arc<Program>,
    bounds: Arc<ProgramBounds>,
    last_used: u64,
}

struct Inner {
    map: HashMap<ProgramKey, Slot>,
    tick: u64,
    counters: CompileReport,
}

/// A bounded, thread-safe LRU cache of compiled programs, owned by the
/// serving node and shared across its runs.
pub struct ProgramCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramCache")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl ProgramCache {
    /// A cache holding at most `capacity` compiled programs (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                counters: CompileReport::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Number of resident compiled programs.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.inner.lock() {
            Ok(inner) => inner.map.len(),
            Err(poisoned) => poisoned.into_inner().map.len(),
        }
    }

    /// `true` when no program is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up (or compile, and for keyed families specialize) the program
    /// for `plan`. Returns `None` when the plan fails to compile — i.e.
    /// fails structural verification — in which case nothing is cached and
    /// the caller should fall back to interpreting the plan so the error
    /// surfaces through the normal execution path.
    pub fn get_or_compile(
        &self,
        plan: &LoweredPlan,
        runtime: &Runtime,
        engine: Option<&SimLlm>,
    ) -> Option<Arc<Program>> {
        self.get_or_compile_keyed(&ProgramKey::of(plan), plan, runtime, engine)
    }

    /// [`Self::get_or_compile`] with `plan`'s key already derived (`key`
    /// must be [`ProgramKey::of`] this very plan).
    pub(crate) fn get_or_compile_keyed(
        &self,
        key: &ProgramKey,
        plan: &LoweredPlan,
        runtime: &Runtime,
        engine: Option<&SimLlm>,
    ) -> Option<Arc<Program>> {
        let mut guard = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.map.get_mut(key) {
            slot.last_used = tick;
            inner.counters.cache_hits += 1;
            return Some(Arc::clone(&slot.program));
        }

        // Mirror the runtime's own gate: with verification on, compilation
        // is fail-closed; with it off, out-of-range targets are clamped
        // exactly as the interpreter would fall off the end.
        let compiled = if runtime.config().verify {
            vm::compile(plan)
        } else {
            vm::compile_assuming_verified(plan)
        };
        let mut program = compiled.ok()?;
        inner.counters.compiled += 1;

        // Verified bytecode optimization: jump threading, dead else-edge
        // redirection, and unreachable-op pruning — accepted only when the
        // optimized form symbolically bisimulates the original
        // (`vm::optimize` is fail-closed), so traces stay byte-identical.
        if let Some(optimized) = vm::optimize(&program) {
            program = optimized;
            inner.counters.optimized += 1;
        }

        // Static cost envelope for the code that will actually run.
        let bounds = Arc::new(analyze(&program, &ResourceModel::default()));

        // Per-affinity specialization: constant-fold the family's fixed
        // prompt prefix and pre-resolve its token chain.
        if key.affinity.is_some() {
            if let Some((prefix, hash)) =
                vm::family_template(plan, runtime.views()).and_then(|text| vm::family_prefix(&text))
            {
                if let Some(engine) = engine {
                    let mut segments = SegmentedText::new();
                    segments.push_segment(TextSegment::from_shared(Arc::clone(&prefix), hash));
                    engine.preresolve(&segments);
                }
                program.set_prefix(prefix);
                inner.counters.specialized += 1;
            }
        }

        let program = Arc::new(program);
        inner.map.insert(
            key.clone(),
            Slot {
                program: Arc::clone(&program),
                bounds,
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            // Evict the least-recently-used entry. Ties cannot happen:
            // every touch gets a fresh tick under the lock.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                inner.counters.evicted += 1;
            } else {
                break;
            }
        }
        Some(program)
    }

    /// The static cost envelope derived for `plan`'s resident program, if
    /// any (any affinity variant: bounds depend only on the plan's code,
    /// which is fingerprint-determined, not on the specialized prefix).
    #[must_use]
    pub fn bounds_of(&self, plan: &LoweredPlan) -> Option<Arc<ProgramBounds>> {
        let fingerprint = plan.fingerprint();
        let guard = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard
            .map
            .iter()
            .find(|(k, _)| k.fingerprint == fingerprint)
            .map(|(_, slot)| Arc::clone(&slot.bounds))
    }

    /// Take the counters accumulated since the last drain (the per-run
    /// delta for [`crate::metrics::ServeReport::compile`]).
    pub fn drain_counters(&self) -> CompileReport {
        let mut inner = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        std::mem::take(&mut inner.counters)
    }
}
