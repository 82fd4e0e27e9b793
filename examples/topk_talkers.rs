//! Top-k talkers via keyed GROUP-BY aggregation: peers observe flow
//! records keyed by source address and aggregate per-source byte counts
//! *in the network* — the root receives one bounded per-key map per
//! window (riding the window's stripe tree on the way up) and ranks it,
//! instead of every raw flow crossing the federation.
//!
//! ```sh
//! cargo run --release --example topk_talkers
//! ```

use mortar::prelude::*;
use mortar::stream::tuple::RawTuple;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Synthesizes one peer's flow trace: 40 background talkers with light
/// traffic, plus three heavy hitters that dominate byte volume.
fn flow_trace(seed: u64) -> Vec<(u64, RawTuple)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0u64;
    while t < 60_000_000 {
        let (talker, bytes) = if rng.gen::<f64>() < 0.25 {
            // Heavy hitters: few sources, large transfers.
            ([7u64, 23, 31][rng.gen_range(0..3)], rng.gen_range(20_000.0..80_000.0))
        } else {
            (rng.gen_range(100..140), rng.gen_range(60.0..1_500.0))
        };
        out.push((t, RawTuple { key: talker, vals: vec![bytes] }));
        t += rng.gen_range(80_000..220_000); // ~7 flows/s per peer.
    }
    out
}

fn main() -> Result<(), MortarError> {
    let n = 36;
    let mut cfg = EngineConfig::paper(n, 4242);
    cfg.plan_on_true_latency = true;
    let mut mortar = Mortar::new(cfg)?;
    for i in 0..n as NodeId {
        mortar.set_replay(i, flow_trace(9_000 + i as u64));
    }
    // Per-talker byte sums, grouped by the tuple's routing key (the
    // source address), bounded to 64 distinct talkers per window.
    let talkers = mortar
        .query("talkers")
        .members(0..n as NodeId)
        .replay()
        .sum(0)
        .group_by_key()
        .group_cap(64)
        .every_secs(5.0)
        .install()?;
    mortar.run_secs(60.0);

    println!("top talkers across {n} peers (5 s windows, per-key sums in-network):\n");
    for r in &mortar.results(&talkers) {
        let Some(groups) = r.state.groups() else { continue };
        if r.participants < n as u32 / 2 || groups.is_empty() {
            continue; // warm-up or straggler fragments
        }
        // Rank the window's per-key map at the root.
        let mut ranked: Vec<(u64, f64)> =
            groups.iter().filter_map(|(k, st)| st.scalar().map(|v| (*k, v))).collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let top: Vec<String> =
            ranked.iter().take(5).map(|(k, v)| format!("{k}:{:.0}kB", v / 1_000.0)).collect();
        println!(
            "[{:>3}s  p={:>2}  {:>2} talkers]  {}",
            r.te / 1_000_000,
            r.participants,
            groups.len(),
            top.join("  ")
        );
    }
    println!(
        "\nsources 7, 23 and 31 dominate every window; the root only ever \
         saw bounded per-key maps, never raw flows."
    );
    Ok(())
}
