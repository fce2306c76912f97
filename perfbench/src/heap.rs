//! A counting global allocator: live heap bytes and their high-water
//! mark. Unlike the resident set, the peak of live bytes does not depend
//! on how the C allocator spreads threads over arenas or fragments, so
//! it repeats from run to run.
//!
//! Each thread batches its changes and folds them into the shared count
//! once they pass [`BATCH`] bytes, so the shared atomics are touched
//! rarely; the count is exact to within `BATCH` per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator plus two statistics. The counters publish no
/// other data, so `Relaxed` suffices.
pub struct Counting;

const BATCH: isize = 64 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// This thread's change not yet folded into `LIVE`. Const-initialised
    /// and without a destructor, so touching it never allocates.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn changed(by: isize) {
    let pending = PENDING.with(|p| {
        let v = p.get() + by;
        if v.abs() < BATCH {
            p.set(v);
            0
        } else {
            p.set(0);
            v
        }
    });
    if pending != 0 {
        let now = LIVE.fetch_add(pending, Ordering::Relaxed) + pending;
        if now > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
    }
}

fn grew(by: usize) {
    changed(by as isize);
}

fn shrank(by: usize) {
    changed(-(by as isize));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are plain
// atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Highest live heap, in MiB, since the process started.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}
