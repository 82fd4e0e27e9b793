//! Figure 13: system scaling — unique heartbeat children per node as
//! queries (and nodes per query) grow (Section 7.2.1), plus the summary
//! frame-batching message-event reduction on a wide simulated run.
//!
//! Paper setup: one query rooted at every peer, each aggregating over all
//! other nodes, over a shared coordinate set. Heartbeats are shared across
//! trees and queries, so overhead scales sub-linearly: a second tree
//! roughly doubles the single-tree cost, but going from 2 to 4 trees adds
//! only ~50% more.
//!
//! The children-per-node sweep is a pure planning computation (no
//! simulation needed): we plan every query's tree set and count each
//! node's distinct children across all of them. The batching comparison
//! runs a 100-host high-rate query through the simulator twice — per-tuple
//! frames versus default batching — and reports message events.

use super::common::count_peers_spec;
use crate::{banner, header, row};
use mortar_core::engine::{Engine, EngineConfig};
use mortar_core::metrics::{mean_completeness, participants_by_index};
use mortar_core::query::SensorSpec;
use mortar_overlay::{plan_tree_set, PlannerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// Mean unique children per node with `queries` queries over `n` nodes.
fn children_per_node(n: usize, tree_count: usize, bf: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    // A shared coordinate set (clustered, as Vivaldi output would be).
    let coords: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let cluster = rng.gen_range(0..8);
            vec![
                (cluster % 4) as f64 * 40.0 + rng.gen::<f64>() * 8.0,
                (cluster / 4) as f64 * 40.0 + rng.gen::<f64>() * 8.0,
            ]
        })
        .collect();
    let cfg = PlannerConfig { branching_factor: bf, tree_count, kmeans_iters: 15 };
    let mut children: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    // One query per peer, rooted there, aggregating over everyone.
    for root in 0..n {
        let trees = plan_tree_set(&coords, root, &cfg, &mut rng);
        for t in trees.trees() {
            for (m, kids) in children.iter_mut().enumerate().take(n) {
                kids.extend(t.children(m).iter().copied());
            }
        }
    }
    children.iter().map(HashSet::len).sum::<usize>() as f64 / n as f64
}

/// One batching run's transport and accuracy measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchingOutcome {
    /// Summary frames sent fleet-wide (data-class message events).
    pub frames: u64,
    /// Summary tuples carried by those frames.
    pub tuples: u64,
    /// Per-window-index participant sums at the root.
    pub by_index: BTreeMap<i64, u32>,
    /// Steady-state completeness (%).
    pub completeness: f64,
}

/// Runs a high-rate (25 ms slide) fleet-wide sum over `n` hosts with the
/// given frame-batching cap and returns the transport counts. Eight
/// windows close per 200 ms tick and all eight ride that tick's stripe
/// tree, so a leaf owes its parent eight tuples per tick — the
/// telemetry-rate regime batching targets.
pub fn batching_run(n: usize, batch_max: usize, seed: u64, secs: f64) -> BatchingOutcome {
    let mut cfg = EngineConfig::paper(n, seed);
    cfg.plan_on_true_latency = true;
    cfg.peer.summary_batch_max = batch_max;
    let mut eng = Engine::new(cfg).expect("valid config");
    let mut spec = count_peers_spec("fast", n, 25_000);
    spec.sensor = SensorSpec::Periodic { period_us: 25_000, value: 1.0 };
    eng.install(spec).expect("valid spec");
    eng.run_secs(secs);
    let results = eng.results(0);
    let totals = eng.peer_totals();
    BatchingOutcome {
        frames: totals.frames_out,
        tuples: totals.summaries_out,
        by_index: participants_by_index(results),
        completeness: mean_completeness(results, n, 40),
    }
}

/// One envelope run's transport and accuracy measurements on the
/// multi-query regime.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeOutcome {
    /// Data-class wire messages (send events — what envelopes amortize).
    pub wire_msgs: u64,
    /// Logical summary frames (conserved across envelope budgets).
    pub frames: u64,
    /// Summary tuples carried (conserved).
    pub tuples: u64,
    /// Per-window-index participant sums at the first query's root.
    pub by_index: BTreeMap<i64, u32>,
    /// Worst steady-state completeness (%) across the queries.
    pub completeness: f64,
}

/// Figure 13's "a query rooted at every peer" regime, scaled down:
/// `queries` co-resident high-rate fleet-wide sums rooted at distinct
/// peers. With `envelope_budget > 0`, every frame a peer owes one next
/// hop in a tick — across all the queries and their tree sets — shares a
/// single wire envelope; `0` sends per-query frames.
pub fn envelope_run(
    n: usize,
    queries: usize,
    envelope_budget: u32,
    seed: u64,
    secs: f64,
) -> EnvelopeOutcome {
    let mut cfg = EngineConfig::paper(n, seed);
    cfg.plan_on_true_latency = true;
    cfg.peer.envelope_budget = envelope_budget;
    let mut eng = Engine::new(cfg).expect("valid config");
    let roots: Vec<mortar_net::NodeId> =
        (0..queries).map(|qi| (qi * n / queries) as mortar_net::NodeId).collect();
    for (qi, &root) in roots.iter().enumerate() {
        let mut spec = count_peers_spec(&format!("q{qi}"), n, 25_000);
        spec.root = root;
        spec.sensor = SensorSpec::Periodic { period_us: 25_000, value: 1.0 };
        eng.install(spec).expect("valid spec");
    }
    eng.run_secs(secs);
    let completeness = roots
        .iter()
        .enumerate()
        .map(|(qi, &root)| {
            let name = format!("q{qi}");
            let mine: Vec<_> =
                eng.results(root).iter().filter(|r| *r.query == name).cloned().collect();
            mean_completeness(&mine, n, 40)
        })
        .fold(f64::INFINITY, f64::min);
    let first: Vec<_> =
        eng.results(roots[0]).iter().filter(|r| &*r.query == "q0").cloned().collect();
    let totals = eng.peer_totals();
    EnvelopeOutcome {
        wire_msgs: eng.sim.bandwidth().msgs_total(mortar_net::TrafficClass::Data),
        frames: totals.frames_out,
        tuples: totals.summaries_out,
        by_index: participants_by_index(&first),
        completeness,
    }
}

/// Runs the scaling sweep.
pub fn run() {
    banner("Figure 13", "unique heartbeat children per node vs. query count");
    let sizes = [25usize, 50, 100, 150, 200];
    header("children/node at N=", &sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    row("N (no sharing bound)", &sizes.map(|s| s as f64));
    for trees in [4usize, 2, 1] {
        let cells: Vec<f64> = sizes.iter().map(|&s| children_per_node(s, trees, 16, 7)).collect();
        row(&format!("{trees} trees"), &cells);
    }
    let one = children_per_node(100, 1, 16, 7);
    let two = children_per_node(100, 2, 16, 7);
    let four = children_per_node(100, 4, 16, 7);
    println!(
        "\nAt N=100: 1 tree = {one:.1}, 2 trees = {two:.1} ({:.2}x), 4 trees = \
         {four:.1} ({:.2}x over 2).\nExpected shape (paper): a sibling roughly \
         doubles the primary's overhead, but 4 trees cost only ~1.5x of 2 — \
         heartbeats are shared across queries and trees.",
        two / one,
        four / two
    );

    // Frame batching: the other axis of scaling cost — data-plane message
    // events on a wide, high-rate run.
    let n = 100;
    let per_tuple = batching_run(n, 1, 13, 30.0);
    let batched = batching_run(n, 32, 13, 30.0);
    let participants = |o: &BatchingOutcome| o.by_index.values().map(|&v| v as u64).sum::<u64>();
    println!(
        "\nSummary message events over a {n}-host 25 ms-slide sum (30 s):\n\
         per-tuple frames: {} events for {} tuples\n\
         batched (cap 32): {} events for {} tuples — {:.2}x fewer messages,\n\
         completeness {:.1}% vs {:.1}%, root participants {} vs {}",
        per_tuple.frames,
        per_tuple.tuples,
        batched.frames,
        batched.tuples,
        per_tuple.frames as f64 / batched.frames.max(1) as f64,
        batched.completeness,
        per_tuple.completeness,
        participants(&batched),
        participants(&per_tuple),
    );

    // Cross-query envelopes: the multi-query regime the figure actually
    // describes — co-resident queries rooted at distinct peers sharing
    // one wire envelope per next hop per tick.
    let queries = 3;
    let off = envelope_run(n, queries, 0, 13, 20.0);
    let on = envelope_run(n, queries, 16_384, 13, 20.0);
    println!(
        "\nCross-query envelopes, {queries} co-resident 25 ms-slide sums over {n} hosts (20 s):\n\
         per-query frames: {} wire messages for {} frames\n\
         envelopes:        {} wire messages — {:.2}x fewer, results bit-identical,\n\
         completeness {:.1}% vs {:.1}%",
        off.wire_msgs,
        off.frames,
        on.wire_msgs,
        off.wire_msgs as f64 / on.wire_msgs.max(1) as f64,
        on.completeness,
        off.completeness,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_run_batches_summary_messages_at_least_2x() {
        // The ISSUE 1 acceptance bar: a 100-host fig13-style run must
        // deliver the same results with ≥ 2x fewer summary message events.
        //
        // "Same results" here is the paper's own tolerance: with four trees
        // the syncless re-index can disperse a constituent into an adjacent
        // window when its dynamic timeout shifts by one tick (Section 5.1),
        // so per-index counts may differ by a couple of participants while
        // steady-state totals and completeness are conserved. The strict
        // bit-for-bit parity claim is proven separately on single-tree
        // plans by `prop_batching` in mortar-core.
        let n = 100;
        let per_tuple = batching_run(n, 1, 13, 30.0);
        let batched = batching_run(n, 32, 13, 30.0);
        assert!(per_tuple.completeness > 90.0, "run unhealthy: {per_tuple:?}");
        assert!(
            (per_tuple.completeness - batched.completeness).abs() < 0.5,
            "completeness diverged: {} vs {}",
            per_tuple.completeness,
            batched.completeness
        );
        // Steady-state conservation: trim the in-flight tail second, then
        // totals match and per-index dispersion stays within ±2.
        let horizon = *per_tuple.by_index.keys().last().unwrap() - 1_000_000;
        let steady = |m: &BTreeMap<i64, u32>| -> (u64, BTreeMap<i64, u32>) {
            let trimmed: BTreeMap<i64, u32> = m.range(..horizon).map(|(&k, &v)| (k, v)).collect();
            (trimmed.values().map(|&v| v as u64).sum(), trimmed)
        };
        let (total_a, idx_a) = steady(&per_tuple.by_index);
        let (total_b, idx_b) = steady(&batched.by_index);
        assert_eq!(total_a, total_b, "steady-state participant totals diverged");
        for (k, va) in &idx_a {
            let vb = idx_b.get(k).copied().unwrap_or(0);
            assert!(va.abs_diff(vb) <= 2, "window {k} dispersed beyond tolerance: {va} vs {vb}");
        }
        assert!(
            batched.frames * 2 <= per_tuple.frames,
            "expected ≥2x fewer summary messages: {} vs {}",
            batched.frames,
            per_tuple.frames
        );
    }

    #[test]
    fn envelopes_cut_wire_messages_on_the_multi_query_run() {
        // The envelope acceptance bar: on a fig13-style 100-host run with
        // co-resident queries, envelopes must deliver identical results
        // with measurably fewer wire messages. Chaos-free runs are
        // deterministic and envelope coalescing is pure transport, so
        // "identical" here is exact — bit-for-bit, not a tolerance.
        let n = 100;
        let off = envelope_run(n, 3, 0, 13, 20.0);
        let on = envelope_run(n, 3, 16_384, 13, 20.0);
        assert!(off.completeness > 90.0, "run unhealthy: {off:?}");
        assert_eq!(off.by_index, on.by_index, "envelopes changed root results");
        assert!(
            (off.completeness - on.completeness).abs() < 1e-9,
            "completeness diverged: {} vs {}",
            off.completeness,
            on.completeness
        );
        // Logical traffic is conserved; only the wire grouping changes.
        assert_eq!(off.frames, on.frames);
        assert_eq!(off.tuples, on.tuples);
        // Each query's tick of windows rides one tree, so a peer owes few
        // next hops per tick and envelopes have little left to merge
        // (31,915 enveloped against 36,925 per-frame messages). They must
        // still save messages, and the enveloped run is held to its
        // measured count + 2 %.
        assert!(
            on.wire_msgs < off.wire_msgs,
            "envelopes saved no wire messages: {} vs {}",
            on.wire_msgs,
            off.wire_msgs
        );
        assert!(on.wire_msgs <= 32_553, "enveloped run sent {} wire messages", on.wire_msgs);
    }
}
