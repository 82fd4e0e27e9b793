//! Replay sensors (the trace-driven sources of Section 7): the replay
//! cursor belongs to the query, not the peer, so every `Replay` query
//! walks its peer's whole trace from its own activation — two replay
//! queries on one peer both see every tuple, and a query installed after
//! another was removed starts at the trace's first tuple.

use mortar::prelude::*;
use mortar::stream::tuple::RawTuple;

const HOSTS: usize = 8;

/// Tuples per host per second of trace; each carries the value 1.
const PER_SEC: u64 = 10;

/// `secs` seconds of trace: one tuple of value 1 every 100 ms.
fn trace(secs: u64) -> Vec<(u64, RawTuple)> {
    (0..secs * PER_SEC)
        .map(|i| (50_000 + i * 1_000_000 / PER_SEC, RawTuple { key: 0, vals: vec![1.0] }))
        .collect()
}

fn session(seed: u64, trace_secs: u64) -> Mortar {
    let mut cfg = EngineConfig::paper(HOSTS, seed);
    cfg.plan_on_true_latency = true;
    let mut mortar = Mortar::new(cfg).expect("valid config");
    for i in 0..HOSTS as NodeId {
        mortar.set_replay(i, trace(trace_secs));
    }
    mortar
}

/// A fleet-wide 1 s sum over the replayed trace.
fn install_sum(mortar: &mut Mortar, name: &str) -> QueryHandle {
    mortar
        .query(name)
        .members(0..HOSTS as NodeId)
        .replay()
        .sum(0)
        .every_secs(1.0)
        .install()
        .expect("valid replay query")
}

/// The sum of a query's results over the windows ending by `te_us` in its
/// own frame (microseconds since its activation).
fn total_until(mortar: &Mortar, q: &QueryHandle, te_us: i64) -> f64 {
    mortar.results(q).iter().filter(|r| r.te <= te_us).filter_map(|r| r.scalar).sum()
}

#[test]
fn two_replay_queries_on_one_peer_each_see_the_whole_trace() {
    let mut mortar = session(5, 30);
    let a = install_sum(&mut mortar, "a");
    let b = install_sum(&mut mortar, "b");
    mortar.run_secs(30.0);
    let (sa, sb) = (total_until(&mortar, &a, i64::MAX), total_until(&mortar, &b, i64::MAX));
    // 8 hosts × 10 tuples/s × 30 s = 2,400 tuples; the last windows are
    // still in flight when the run stops.
    let whole = (HOSTS as u64 * PER_SEC * 30) as f64;
    assert!(sa >= 0.8 * whole && sb >= 0.8 * whole, "sums {sa} and {sb} of {whole}");
    assert!((sa - sb).abs() <= 0.1 * sa.max(sb), "sums {sa} and {sb} differ by more than 10 %");
}

#[test]
fn a_replay_query_installed_after_a_removal_starts_from_its_own_activation() {
    let mut mortar = session(6, 40);
    let a = install_sum(&mut mortar, "a");
    mortar.run_secs(10.0);
    assert!(total_until(&mortar, &a, i64::MAX) > 0.0, "the first query saw no data");
    mortar.remove(a).expect("removes");
    mortar.run_secs(2.0);
    let b = install_sum(&mut mortar, "b");
    mortar.run_secs(20.0);
    // The trace restarts at b's activation: its first 8 s of windows carry
    // the trace's first 8 s (a shared cursor would leave them empty until
    // frame 10 s, where `a` stopped reading).
    let early = total_until(&mortar, &b, 8_000_000);
    let want = (HOSTS as u64 * PER_SEC * 8) as f64;
    assert!(early >= 0.8 * want, "b's first 8 s summed {early} of {want}");
}
