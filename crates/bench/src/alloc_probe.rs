//! A counting allocator probe for the feeds harness.
//!
//! The feeds bench binary installs [`CountingAlloc`] as its global
//! allocator; the harness then measures heap-allocation counts across
//! regions of simulated time — the steady-state idle ticks with a
//! drained feed installed, which `BENCH_feeds.json` pins at **zero**
//! allocations (`allocs_per_sim_sec`). The counter is thread-local, so background
//! threads cannot pollute a measurement.
//!
//! The probe is inert unless the running binary actually declared the
//! `#[global_allocator]`; callers use [`probe_active`] to distinguish
//! "zero allocations" from "not counting at all".

// One of the two sanctioned `unsafe` sites in the workspace (see
// `[workspace.lints.rust]`): implementing `GlobalAlloc` requires it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with a thread-local allocation counter.
pub struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter bump performs no
// allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations recorded on this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Whether the probe is actually wired in: any warm process that has done
/// real work will have allocated many times, so a zero counter means the
/// binary did not install [`CountingAlloc`].
pub fn probe_active() -> bool {
    allocs() > 0
}

/// Runs `f` and returns how many heap allocations it performed on this
/// thread.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}
