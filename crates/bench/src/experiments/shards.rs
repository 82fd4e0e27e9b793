//! Shards: the 1000-host shard sweep of the one event loop.
//!
//! A fleet-scale workload — 1000 hosts, thirteen fleet-wide sums whose
//! slides span 25 ms to 10 s over the paper's four-tree Inet topology —
//! driven as fast as the host CPU allows, once per simulator shard count
//! in [`SHARD_COUNTS`]. The metric is **simulated seconds per real
//! second**. Determinism demands every non-throughput column match the
//! one-shard row exactly; the speedup column is what decides whether the
//! windowed multi-shard protocol earns its keep. The artifact is
//! `BENCH_shards.json` at the repo root.
//!
//! Ground-truth tracking is off (`track_truth: false`), the production
//! configuration.

use super::common::count_peers_spec;
use crate::{banner, scaled};
use mortar_core::engine::{Engine, EngineConfig};
use mortar_core::metrics::mean_completeness;
use mortar_core::query::SensorSpec;
use std::time::Instant;

/// Hosts in the sweep's fleet.
pub const HOSTS: usize = 1_000;

/// Simulator shard counts swept; 1 runs the one shard on the calling
/// thread, without windows, and is every other row's baseline.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The workload's window-slide tiers, µs: one high-rate telemetry query
/// plus slow 1 s and 10 s tiers.
pub const SLIDES_US: [u64; 3] = [25_000, 1_000_000, 10_000_000];

/// Fleet-wide queries installed per slide tier. One 25 ms query keeps the
/// data plane hot; the twelve slow queries are idle on ≥ 96% of ticks —
/// the regime the due index exists for: waking every query would pay 13
/// query passes per peer per tick, the due index pays ~3.
pub const QUERIES_PER_SLIDE: [usize; 3] = [1, 4, 8];

/// One timed run's measurements.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Simulator shards (worker threads) that drove the run.
    pub shards: usize,
    /// Simulated seconds in the timed region (warm-up excluded).
    pub sim_secs: f64,
    /// Wall-clock seconds the timed region took.
    pub wall_secs: f64,
    /// Mean per-query tick passes actually run per timer tick, fleet-wide.
    pub wakeups_per_tick: f64,
    /// Fraction of ticks (%) on which no query was due at all.
    pub idle_tick_pct: f64,
    /// Steady-state completeness (%) of the high-rate query.
    pub completeness_fast: f64,
    /// TS-list evictions performed fleet-wide.
    pub evictions: u64,
    /// Summary tuples sent fleet-wide.
    pub summaries_out: u64,
}

impl ShardRun {
    /// Simulated seconds per real second.
    pub fn sim_per_real(&self) -> f64 {
        self.sim_secs / self.wall_secs.max(1e-9)
    }
}

/// Runs the mixed-slide workload on `n` hosts and `shards` simulator
/// shards: install + 5 s warm-up untimed, then `sim_secs` under the wall
/// clock.
pub fn run_shards(n: usize, sim_secs: f64, seed: u64, shards: usize) -> ShardRun {
    let mut cfg = EngineConfig::paper(n, seed);
    cfg.plan_on_true_latency = true;
    cfg.peer.track_truth = false;
    cfg.shards = shards;
    let mut eng = Engine::new(cfg).expect("valid config");
    let mut qi = 0;
    for (tier, &slide_us) in SLIDES_US.iter().enumerate() {
        for _ in 0..QUERIES_PER_SLIDE[tier] {
            let mut spec = count_peers_spec(&format!("scale{qi}"), n, slide_us);
            spec.sensor = SensorSpec::Periodic { period_us: slide_us, value: 1.0 };
            eng.install(spec).expect("valid spec");
            qi += 1;
        }
    }
    // Warm up: installation multicast, first windows, netDist settling.
    eng.run_secs(5.0);
    let start = Instant::now();
    eng.run_secs(sim_secs);
    let wall_secs = start.elapsed().as_secs_f64();
    let (mut ticks, mut idle, mut wakeups, mut evictions, mut summaries_out) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for p in eng.sim.apps() {
        ticks += p.stats.ticks;
        idle += p.stats.idle_ticks;
        wakeups += p.stats.query_wakeups;
        evictions += p.stats.evictions;
        summaries_out += p.stats.summaries_out;
    }
    let fast: Vec<_> = eng.results(0).iter().filter(|r| &*r.query == "scale0").cloned().collect();
    ShardRun {
        shards,
        sim_secs,
        wall_secs,
        wakeups_per_tick: wakeups as f64 / ticks.max(1) as f64,
        idle_tick_pct: 100.0 * idle as f64 / ticks.max(1) as f64,
        completeness_fast: mean_completeness(&fast, n, 40),
        evictions,
        summaries_out,
    }
}

fn json_field(out: &mut String, key: &str, value: String) {
    out.push_str(&format!("  \"{key}\": {value},\n"));
}

/// Renders a numeric array field: `[a, b, c]`.
fn json_array<T, F: Fn(&T) -> String>(items: &[T], fmt: F) -> String {
    format!("[{}]", items.iter().map(fmt).collect::<Vec<_>>().join(", "))
}

/// Renders the sweep as JSON; `rows[0]` is the one-shard baseline.
pub fn to_json(rows: &[ShardRun]) -> String {
    let base = &rows[0];
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut s = String::from("{\n");
    json_field(&mut s, "bench", "\"shards\"".into());
    json_field(&mut s, "hosts", HOSTS.to_string());
    json_field(&mut s, "queries", QUERIES_PER_SLIDE.iter().sum::<usize>().to_string());
    json_field(&mut s, "slides_us", json_array(&SLIDES_US, u64::to_string));
    json_field(&mut s, "sim_secs", format!("{:.1}", base.sim_secs));
    json_field(&mut s, "wakeups_per_tick", format!("{:.3}", base.wakeups_per_tick));
    json_field(&mut s, "idle_tick_pct", format!("{:.2}", base.idle_tick_pct));
    json_field(&mut s, "available_parallelism", cores.to_string());
    json_field(&mut s, "shards", json_array(rows, |r| r.shards.to_string()));
    json_field(
        &mut s,
        "sim_secs_per_real_sec",
        json_array(rows, |r| format!("{:.2}", r.sim_per_real())),
    );
    json_field(
        &mut s,
        "speedup",
        json_array(rows, |r| format!("{:.2}", r.sim_per_real() / base.sim_per_real().max(1e-9))),
    );
    json_field(
        &mut s,
        "completeness_pct",
        json_array(rows, |r| format!("{:.2}", r.completeness_fast)),
    );
    json_field(&mut s, "evictions", json_array(rows, |r| r.evictions.to_string()));
    // Last field without the trailing comma.
    s.push_str(&format!(
        "  \"summary_tuples_sent\": {}\n}}\n",
        json_array(rows, |r| r.summaries_out.to_string())
    ));
    s
}

/// Runs the sweep and writes `BENCH_shards.json` at the repo root.
pub fn run() {
    banner("shards", "1000-host shard sweep of the one event loop");
    let sim_secs = scaled(15.0, 60.0);
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    // Single runs: the timed region is long enough (15+ simulated seconds
    // over 1000 hosts) that scheduler noise stays in the noise.
    let rows: Vec<ShardRun> =
        SHARD_COUNTS.iter().map(|&s| run_shards(HOSTS, sim_secs, 13, s)).collect();
    let base = &rows[0];
    println!(
        "\n{HOSTS}-host mixed-slide fleet (slides {SLIDES_US:?} µs, {sim_secs:.0} simulated \
         seconds, {cores} cores available):\n\
         {:.3} query wakeups/tick ({:.1}% ticks fully idle)\n\
         {:>8} {:>18} {:>10} {:>14} {:>12} {:>14}",
        base.wakeups_per_tick,
        base.idle_tick_pct,
        "shards",
        "sim-s/real-s",
        "speedup",
        "completeness",
        "evictions",
        "tuples",
    );
    for r in &rows {
        println!(
            "{:>8} {:>18.2} {:>9.2}x {:>13.2}% {:>12} {:>14}",
            r.shards,
            r.sim_per_real(),
            r.sim_per_real() / base.sim_per_real().max(1e-9),
            r.completeness_fast,
            r.evictions,
            r.summaries_out,
        );
        assert_eq!(
            (r.evictions, r.summaries_out, r.completeness_fast.to_bits()),
            (base.evictions, base.summaries_out, base.completeness_fast.to_bits()),
            "shards={} run diverged from the one-shard baseline",
            r.shards
        );
    }
    let json = to_json(&rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shards.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
