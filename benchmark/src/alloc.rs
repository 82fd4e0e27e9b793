//! The benchmark binary's counting allocator.
//!
//! Always installed, counting only while [`set_counting`] is on (the
//! traced pass), so untraced passes pay one relaxed load per allocation.
//! Counters are statistics that publish no other data: `Relaxed` suffices.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    if ON.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn on_free(size: usize) {
    if ON.load(Relaxed) {
        // Blocks allocated before counting began are freed against a
        // counter that never saw them; saturate instead of wrapping.
        let _ = LIVE.fetch_update(Relaxed, Relaxed, |l| Some(l.saturating_sub(size as u64)));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on (zeroing the counters) or off.
pub fn set_counting(on: bool) {
    if on {
        ALLOCS.store(0, Relaxed);
        LIVE.store(0, Relaxed);
        PEAK.store(0, Relaxed);
    }
    ON.store(on, Relaxed);
}

/// `(allocation calls, peak live bytes)` since counting was turned on —
/// live bytes count only blocks allocated while counting.
pub fn counted() -> (u64, u64) {
    (ALLOCS.load(Relaxed), PEAK.load(Relaxed))
}
