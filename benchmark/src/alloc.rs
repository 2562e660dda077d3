//! Counting global allocator: live bytes, high-water live bytes, allocation
//! count and allocated bytes, all process-wide.
//!
//! `peak_heap_mb`, `host.allocs_per_req` and `host.alloc_bytes_per_req` are
//! read from here. A single set of shared counters would bounce one cache
//! line between the two lanes on every allocation and slow the program under
//! measurement, so each thread counts in one of 64 padded slots and totals
//! are sums over the slots. The high-water mark needs that sum, so it is
//! sampled: on every 256th allocation of a thread, on every allocation of
//! 64 KiB or more, and whenever it is read. The counters are statistics only
//! (they publish no other data), hence `Relaxed` everywhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 64;
const SAMPLE_EVERY: u32 = 256;
const SAMPLE_AT_BYTES: u64 = 64 * 1024;

#[repr(align(64))]
struct Slot {
    /// Bytes allocated minus bytes freed through this slot; negative when
    /// its threads free what others allocated.
    live: AtomicI64,
    count: AtomicU64,
    bytes: AtomicU64,
}

static COUNTERS: [Slot; SLOTS] = [const {
    Slot {
        live: AtomicI64::new(0),
        count: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];
static THREADS: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without destructors: touching them never
    // allocates, which an allocator must not do.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static TICK: Cell<u32> = const { Cell::new(0) };
}

fn slot() -> &'static Slot {
    SLOT.with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(THREADS.fetch_add(1, Relaxed) % SLOTS);
        }
        &COUNTERS[slot.get()]
    })
}

fn live_bytes() -> u64 {
    let live: i64 = COUNTERS.iter().map(|s| s.live.load(Relaxed)).sum();
    live.max(0) as u64
}

fn grew(by: u64) {
    let slot = slot();
    slot.count.fetch_add(1, Relaxed);
    slot.bytes.fetch_add(by, Relaxed);
    slot.live.fetch_add(by as i64, Relaxed);
    let tick = TICK.with(|t| {
        t.set(t.get().wrapping_add(1));
        t.get()
    });
    if by >= SAMPLE_AT_BYTES || tick.is_multiple_of(SAMPLE_EVERY) {
        PEAK.fetch_max(live_bytes(), Relaxed);
    }
}

fn shrank(by: u64) {
    slot().live.fetch_sub(by as i64, Relaxed);
}

/// The allocator installed by `main.rs`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, which
        // means it came from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // `new_size` is the caller's, passed through unchanged.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            shrank(layout.size() as u64);
            grew(new_size as u64);
        }
        new_ptr
    }
}

/// A snapshot of the counters.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Allocations so far (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Current allocation count and byte total.
pub fn snapshot() -> Snapshot {
    Snapshot {
        count: COUNTERS.iter().map(|s| s.count.load(Relaxed)).sum(),
        bytes: COUNTERS.iter().map(|s| s.bytes.load(Relaxed)).sum(),
    }
}

/// Restart the high-water mark from the bytes live right now.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Relaxed);
}

/// High-water live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.fetch_max(live_bytes(), Relaxed).max(live_bytes())
}
