//! Chaos scenario sweep plus the churn-storm anti-entropy run; emits
//! `BENCH_chaos.json` at the repo root. See `experiments::chaos`.

fn main() {
    mortar_bench::experiments::chaos::run();
}
