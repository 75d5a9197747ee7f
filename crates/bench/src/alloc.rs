//! Counting global allocator for allocation budgets.
//!
//! The fleet hot path claims to be allocation-free in steady state; a
//! claim like that rots the moment someone adds an innocent
//! `format!` to a tick handler. This module makes it checkable: a
//! [`CountingAlloc`] wrapper around the [`System`] allocator that, while
//! armed, counts every allocation (and reallocation) crossing the global
//! allocator. Disarmed, each allocator call pays one relaxed atomic load
//! and nothing else.
//!
//! Install it per test binary (it is deliberately **not** installed by
//! the library, so the `experiments` bin keeps the plain system
//! allocator):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rpas_bench::alloc::CountingAlloc = rpas_bench::alloc::CountingAlloc;
//!
//! let (out, stats) = rpas_bench::alloc::measure(|| hot_loop());
//! assert_eq!(stats.allocs, 0);
//! ```
//!
//! Deallocations are not tracked: the budget guards *pressure* (how
//! often the hot path hits the allocator), not leaks. Counts are exact
//! and deterministic for single-threaded sections (`RPAS_THREADS=1`),
//! which is how the `alloc_*` tests use them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Whether allocator traffic is currently being counted.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Allocator calls observed while armed (alloc + alloc_zeroed + realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested while armed.
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper around the system allocator; see the module docs.
pub struct CountingAlloc;

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps atomic counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocator traffic observed by one [`measure`] section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocator calls (alloc + alloc_zeroed + realloc).
    pub allocs: u64,
    /// Bytes requested across those calls.
    pub bytes: u64,
}

/// Run `f` with the counting allocator armed and return its allocator
/// traffic alongside its result.
///
/// Counts everything the *process* allocates while `f` runs, so arm it
/// only around single-threaded sections (or accept that concurrent
/// threads contribute). Requires [`CountingAlloc`] to be installed as
/// the `#[global_allocator]` of the running binary — without it the
/// section reports zero traffic regardless of what `f` does, so callers
/// should sanity-check with [`installed`] first.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    let stats = AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed) - a0,
        bytes: BYTES.load(Ordering::Relaxed) - b0,
    };
    (out, stats)
}

/// Whether the counting allocator is actually routing this process's
/// allocations (i.e. the binary installed it as `#[global_allocator]`).
/// Guards against a silent always-zero budget check in a binary that
/// forgot the install line.
pub fn installed() -> bool {
    let (_probe, stats) = measure(|| std::hint::black_box(Vec::<u8>::with_capacity(64)));
    stats.allocs > 0
}
