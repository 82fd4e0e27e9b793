//! The 1000-host shard sweep; emits `BENCH_shards.json` at the repo
//! root. See `experiments::shards`.

fn main() {
    mortar_bench::experiments::shards::run();
}
