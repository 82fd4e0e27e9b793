//! Intake-policy burst rows and the idle allocation probe; emits
//! `BENCH_feeds.json` at the repo root. See `experiments::feeds`.
//!
//! This binary installs the counting allocator so the harness can prove
//! steady-state ticks allocation-free with a drained feed installed.

#[global_allocator]
static ALLOC: mortar_bench::alloc_probe::CountingAlloc = mortar_bench::alloc_probe::CountingAlloc;

fn main() {
    mortar_bench::experiments::feeds::run();
}
