//! Property tests of summary-frame batching and cross-query envelope
//! coalescing: both are pure transport — across random seeds, batch sizes
//! and envelope budgets, an engine must deliver the same root results as
//! the per-tuple (`summary_batch_max = 1`, envelopes off) protocol, with
//! identical modelled payload wire bytes and never more messages.

use mortar_core::engine::{Engine, EngineConfig};
use mortar_core::op::OpKind;
use mortar_core::query::{QuerySpec, SensorSpec};
use mortar_core::window::WindowSpec;
use mortar_net::{ClockModel, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A fast tumbling-window sum: 100 ms slide against the 200 ms peer tick,
/// so every tick evicts several windows — the coalescing case.
fn fast_spec(n: usize) -> QuerySpec {
    QuerySpec {
        name: "fast".into(),
        root: 0,
        members: (0..n as NodeId).collect(),
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(100_000),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: 100_000, value: 1.0 },
        post: None,
    }
}

/// Root results plus transport counters for one run.
struct RunOutcome {
    /// (tb, te, scalar, participants) per emission, in order.
    results: Vec<(i64, i64, Option<f64>, u32)>,
    frames: u64,
    tuples: u64,
    payload_bytes: u64,
}

fn run_trees(seed: u64, batch_max: usize, n: usize, trees: usize) -> RunOutcome {
    let mut cfg = EngineConfig::paper(n, seed);
    cfg.plan_on_true_latency = true;
    cfg.planner.tree_count = trees;
    cfg.planner.branching_factor = 4;
    cfg.peer.summary_batch_max = batch_max;
    let mut eng = Engine::new(cfg).expect("valid config");
    eng.install(fast_spec(n)).expect("valid spec");
    eng.run_secs(15.0);
    RunOutcome {
        results: eng.results(0).iter().map(|r| (r.tb, r.te, r.scalar, r.participants)).collect(),
        frames: eng.summary_frames_sent(),
        tuples: eng.summary_tuples_sent(),
        payload_bytes: eng.summary_payload_bytes_sent(),
    }
}

/// Single-tree run: every peer has a single (dest, tree) stream, so frames
/// preserve the exact per-tuple arrival order — the strictest comparison.
fn run(seed: u64, batch_max: usize, n: usize) -> RunOutcome {
    run_trees(seed, batch_max, n, 1)
}

/// A second query sharing the members but with its own op and window —
/// the cross-query coalescing case: both queries' frames to one next hop
/// share a wire envelope.
fn peak_spec(n: usize) -> QuerySpec {
    QuerySpec {
        name: "peak".into(),
        root: 0,
        members: (0..n as NodeId).collect(),
        op: OpKind::Max { field: 0 },
        window: WindowSpec::time_tumbling_us(150_000),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: 75_000, value: 1.0 },
        post: None,
    }
}

/// One root emission: (tb, te, scalar, participants).
type Emission = (i64, i64, Option<f64>, u32);

/// Multi-query outcome: per-query result streams plus transport counters.
struct MultiOutcome {
    /// query name → emissions, in order.
    results: BTreeMap<String, Vec<Emission>>,
    frames: u64,
    tuples: u64,
    payload_bytes: u64,
    envelopes: u64,
}

/// Runs two queries over the same 4-tree deployment with the given frame
/// batch cap and envelope byte budget (`0` disables envelopes).
fn run_multi(seed: u64, batch_max: usize, envelope_budget: u32, n: usize) -> MultiOutcome {
    let mut cfg = EngineConfig::paper(n, seed);
    cfg.plan_on_true_latency = true;
    cfg.planner.tree_count = 4;
    cfg.planner.branching_factor = 4;
    cfg.peer.summary_batch_max = batch_max;
    cfg.peer.envelope_budget = envelope_budget;
    let mut eng = Engine::new(cfg).expect("valid config");
    eng.install(fast_spec(n)).expect("valid spec");
    eng.install(peak_spec(n)).expect("valid spec");
    eng.run_secs(15.0);
    let mut results: BTreeMap<String, Vec<Emission>> = BTreeMap::new();
    for r in eng.results(0) {
        results.entry(r.query.to_string()).or_default().push((
            r.tb,
            r.te,
            r.scalar,
            r.participants,
        ));
    }
    MultiOutcome {
        results,
        frames: eng.summary_frames_sent(),
        tuples: eng.summary_tuples_sent(),
        payload_bytes: eng.summary_payload_bytes_sent(),
        envelopes: eng.summary_envelopes_sent(),
    }
}

/// A slow query sharing the deployment: 1 s slide against the 200 ms
/// tick, so with due-driven scheduling it is idle on four of every five
/// ticks — the case the due index exists for.
fn slow_spec(n: usize) -> QuerySpec {
    QuerySpec {
        name: "slow".into(),
        root: 0,
        members: (0..n as NodeId).collect(),
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(1_000_000),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: 500_000, value: 1.0 },
        post: None,
    }
}

/// Runs a mixed-slide multi-query plan (100 ms + 1 s slides, four trees,
/// envelopes on) under skewed local clocks, with due-driven ticks on or
/// off, optionally churning the installed set mid-run (late install of a
/// third query, then removal of the fast one).
fn run_sched(seed: u64, due_driven: bool, churn: bool, n: usize) -> MultiOutcome {
    let mut cfg = EngineConfig::paper(n, seed);
    cfg.plan_on_true_latency = true;
    cfg.planner.tree_count = 4;
    cfg.planner.branching_factor = 4;
    cfg.peer.due_driven_ticks = due_driven;
    // Skewed clocks: due instants and tick boundaries both live on each
    // peer's local clock, so scheduling must commute with clock error.
    cfg.clock_model = ClockModel::planetlab_like(1.0);
    let mut eng = Engine::new(cfg).expect("valid config");
    eng.install(fast_spec(n)).expect("valid spec");
    eng.install(slow_spec(n)).expect("valid spec");
    if churn {
        eng.run_secs(6.0);
        let mut late = peak_spec(n);
        late.name = "late".into();
        eng.install(late).expect("valid spec");
        eng.run_secs(6.0);
        eng.remove("fast", 0).expect("installed");
        eng.run_secs(8.0);
    } else {
        eng.run_secs(15.0);
    }
    let mut results: BTreeMap<String, Vec<Emission>> = BTreeMap::new();
    for r in eng.results(0) {
        results.entry(r.query.to_string()).or_default().push((
            r.tb,
            r.te,
            r.scalar,
            r.participants,
        ));
    }
    MultiOutcome {
        results,
        frames: eng.summary_frames_sent(),
        tuples: eng.summary_tuples_sent(),
        payload_bytes: eng.summary_payload_bytes_sent(),
        envelopes: eng.summary_envelopes_sent(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_delivery_matches_per_tuple(seed in 0u64..1_000, batch in 2usize..48) {
        let n = 12;
        let single = run(seed, 1, n);
        let batched = run(seed, batch, n);
        // Semantics preserved bit-for-bit: same emissions, same order.
        prop_assert_eq!(&single.results, &batched.results,
            "results diverged at seed {} batch {}", seed, batch);
        prop_assert!(!single.results.is_empty(), "no results at seed {}", seed);
        // Payload conservation: batching regroups tuples, it never adds,
        // drops, or re-merges them — modelled payload bytes are identical.
        prop_assert_eq!(single.tuples, batched.tuples);
        prop_assert_eq!(single.payload_bytes, batched.payload_bytes);
        // The whole point: fewer message events, never more.
        prop_assert!(batched.frames <= single.frames,
            "batching increased frames: {} > {}", batched.frames, single.frames);
        // With a 100 ms slide and batch ≥ 2, coalescing must actually occur.
        prop_assert!(batched.frames < single.frames,
            "no coalescing happened at seed {} batch {}", seed, batch);
    }

    #[test]
    fn batched_delivery_matches_per_tuple_on_multi_tree_plans(seed in 0u64..1_000, batch in 2usize..48) {
        // On the paper's multi-tree plans, striping interleaves a tick's
        // evictions across trees, so batching regroups (and so reorders)
        // the tuples a receiver sees within one tick. Everything the
        // receive path computes per tick is order-insensitive — AggState
        // merges commute, per-entry deadlines are set by interval (not
        // arrival), and netDist folds arrivals into a per-window max
        // before its EWMA step — so results must still match bit-for-bit.
        let n = 12;
        let single = run_trees(seed, 1, n, 4);
        let batched = run_trees(seed, batch, n, 4);
        prop_assert_eq!(&single.results, &batched.results,
            "multi-tree results diverged at seed {} batch {}", seed, batch);
        prop_assert!(!single.results.is_empty(), "no results at seed {}", seed);
        prop_assert_eq!(single.tuples, batched.tuples);
        prop_assert_eq!(single.payload_bytes, batched.payload_bytes);
        prop_assert!(batched.frames < single.frames,
            "no coalescing happened at seed {} batch {}", seed, batch);
    }

    #[test]
    fn cross_query_envelopes_match_per_tuple(seed in 0u64..1_000, batch in 2usize..48) {
        // The tentpole claim: enveloping *all* frames a peer owes one next
        // hop in a tick — across two queries and four trees — is pure
        // transport. An enveloped engine at an arbitrary batch cap must
        // reproduce the per-tuple, envelope-free engine's root results
        // bit-for-bit, query by query.
        let n = 12;
        let single = run_multi(seed, 1, 0, n);
        let enveloped = run_multi(seed, batch, 16_384, n);
        prop_assert_eq!(&single.results, &enveloped.results,
            "multi-query results diverged at seed {} batch {}", seed, batch);
        prop_assert!(single.results.len() == 2, "expected both queries to emit at seed {}", seed);
        prop_assert!(!single.results["fast"].is_empty() && !single.results["peak"].is_empty());
        // Payload conservation: envelopes regroup frames, never tuples.
        prop_assert_eq!(single.tuples, enveloped.tuples);
        prop_assert_eq!(single.payload_bytes, enveloped.payload_bytes);
        // The whole point: per-query frames share wire messages, so the
        // enveloped run sends strictly fewer messages than it has frames —
        // cross-query coalescing actually occurred.
        prop_assert!(single.envelopes == 0, "envelopes leaked into the disabled run");
        prop_assert!(enveloped.envelopes > 0, "no envelopes at seed {} batch {}", seed, batch);
        prop_assert!(enveloped.envelopes < enveloped.frames,
            "frames never shared an envelope at seed {} batch {}: {} envelopes for {} frames",
            seed, batch, enveloped.envelopes, enveloped.frames);
        prop_assert!(enveloped.envelopes < single.frames);
    }

    #[test]
    fn envelopes_off_is_bit_for_bit_the_per_query_frame_protocol(seed in 0u64..1_000, batch in 1usize..48) {
        // The acceptance bar for `envelope_budget = 0`: disabling
        // envelopes reproduces the per-query-frame protocol exactly —
        // same results, same logical frames, same payload — and turning
        // them on changes nothing but the wire grouping.
        let n = 12;
        let off = run_multi(seed, batch, 0, n);
        let on = run_multi(seed, batch, 16_384, n);
        prop_assert_eq!(&off.results, &on.results,
            "envelope on/off diverged at seed {} batch {}", seed, batch);
        prop_assert_eq!(off.frames, on.frames, "logical frame count must not change");
        prop_assert_eq!(off.tuples, on.tuples);
        prop_assert_eq!(off.payload_bytes, on.payload_bytes);
        prop_assert_eq!(off.envelopes, 0);
    }

    #[test]
    fn due_driven_ticks_match_full_scan(seed in 0u64..1_000) {
        // The PR 5 tentpole claim: due-driven tick scheduling is pure
        // *when*, never *what*. On a mixed-slide multi-query plan under
        // skewed local clocks, a peer that only wakes the queries whose
        // slide boundary, sensor cadence, or TS-list deadline has arrived
        // must reproduce the exhaustive every-query-every-tick scan
        // bit-for-bit: same emissions in the same order for every query,
        // same frames, tuples, payload bytes and envelopes on the wire.
        let n = 12;
        let scan = run_sched(seed, false, false, n);
        let due = run_sched(seed, true, false, n);
        prop_assert_eq!(&scan.results, &due.results,
            "due-driven results diverged from the full scan at seed {}", seed);
        prop_assert!(scan.results.len() == 2, "expected both queries to emit at seed {}", seed);
        prop_assert!(!scan.results["fast"].is_empty() && !scan.results["slow"].is_empty());
        prop_assert_eq!(scan.frames, due.frames);
        prop_assert_eq!(scan.tuples, due.tuples);
        prop_assert_eq!(scan.payload_bytes, due.payload_bytes);
        prop_assert_eq!(scan.envelopes, due.envelopes);
    }

    #[test]
    fn due_driven_ticks_match_full_scan_under_churn(seed in 0u64..1_000) {
        // Install/remove churn moves due instants wholesale: a late
        // install must enter the index mid-run, a removal must leave it,
        // and reconciliation-driven reinstalls must reschedule — all
        // without perturbing a single emission relative to the scan.
        let n = 12;
        let scan = run_sched(seed, false, true, n);
        let due = run_sched(seed, true, true, n);
        prop_assert_eq!(&scan.results, &due.results,
            "churn results diverged at seed {}", seed);
        prop_assert!(scan.results.contains_key("late"),
            "late install produced no results at seed {}", seed);
        prop_assert_eq!(scan.frames, due.frames);
        prop_assert_eq!(scan.tuples, due.tuples);
        prop_assert_eq!(scan.payload_bytes, due.payload_bytes);
        prop_assert_eq!(scan.envelopes, due.envelopes);
    }

    #[test]
    fn batch_of_one_is_the_per_tuple_protocol(seed in 0u64..1_000) {
        // Determinism parity: two separate engines at batch 1 reproduce
        // each other exactly — frame count equals tuple count (one tuple
        // per message), and results are identical.
        let n = 10;
        let a = run(seed, 1, n);
        let b = run(seed, 1, n);
        prop_assert_eq!(&a.results, &b.results);
        prop_assert_eq!(a.frames, b.frames);
        prop_assert_eq!(a.frames, a.tuples, "batch=1 must send one tuple per frame");
    }
}
