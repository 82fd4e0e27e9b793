//! Keyed GROUP-BY aggregation end to end: per-key partial aggregates lift
//! at the sources, ride each window's stripe tree like any scalar state,
//! re-merge key-wise through the tree set, and surface as a bounded
//! per-key map at the root — through both the typed builder
//! (`group_by`/`group_by_key`) and the MSL `group by` clause.

use mortar::prelude::*;
use mortar::stream::tuple::RawTuple;

const KEYS: u64 = 6;

/// A replay trace for one peer: every second, one tuple keyed by
/// `host % KEYS` whose value is `host + 1` — so a complete window's
/// per-key sum is exactly `Σ (i + 1)` over the hosts in that key class.
fn trace(host: u64, secs: u64) -> Vec<(u64, RawTuple)> {
    (0..secs)
        .map(|s| {
            let t = 500_000 + s * 1_000_000;
            let svc = (host % KEYS) as f64 + 1_000.0;
            (t, RawTuple { key: host % KEYS, vals: vec![svc, host as f64 + 1.0] })
        })
        .collect()
}

/// Expected per-key sum of `host + 1` over a complete `n`-host window.
fn expected_sum(n: u64, key: u64) -> f64 {
    (0..n).filter(|h| h % KEYS == key).map(|h| h as f64 + 1.0).sum()
}

fn session(n: usize, seed: u64) -> Mortar {
    let mut cfg = EngineConfig::paper(n, seed);
    cfg.plan_on_true_latency = true;
    let mut mortar = Mortar::new(cfg).expect("valid config");
    for i in 0..n as NodeId {
        mortar.set_replay(i, trace(i as u64, 60));
    }
    mortar
}

/// Folds the root's emission stream per window index: a straggling
/// subtree's summary that misses the root entry's timeout re-emits as a
/// fragment of the same `[tb, te)` interval (ordinary multipath
/// behaviour), so the window's answer is the merge of its emissions.
fn fold_windows(
    results: &[mortar::stream::metrics::ResultRecord],
) -> std::collections::BTreeMap<(i64, i64), (u32, std::collections::BTreeMap<u64, f64>)> {
    let mut windows = std::collections::BTreeMap::new();
    for r in results {
        let slot: &mut (u32, std::collections::BTreeMap<u64, f64>) =
            windows.entry((r.tb, r.te)).or_default();
        slot.0 += r.participants;
        if let Some(groups) = r.state.groups() {
            for (k, st) in groups {
                *slot.1.entry(*k).or_insert(0.0) += st.scalar().expect("per-key scalar");
            }
        }
    }
    windows
}

/// Complete windows (participants == n across all fragments) must carry
/// the exact centralized per-key answer, bit for bit.
fn assert_complete_windows_exact(results: &[mortar::stream::metrics::ResultRecord], n: usize) {
    let windows = fold_windows(results);
    let complete: Vec<_> = windows.values().filter(|(p, _)| *p == n as u32).collect();
    assert!(!complete.is_empty(), "no complete windows out of {}", windows.len());
    for (_, groups) in &complete {
        assert_eq!(groups.len() as u64, KEYS, "complete window missing key classes");
        for (k, got) in groups {
            let want = expected_sum(n as u64, *k);
            assert_eq!(got.to_bits(), want.to_bits(), "key {k}: got {got}, want {want}");
        }
    }
}

#[test]
fn builder_group_by_key_end_to_end() {
    let n = 24;
    let mut mortar = session(n, 11);
    let q = mortar
        .query("per_src")
        .members(0..n as NodeId)
        .replay()
        .sum(1)
        .group_by_key()
        .group_cap(64)
        .every_secs(1.0)
        .install()
        .expect("valid keyed query");
    mortar.run_secs(45.0);
    let results = mortar.results(&q);
    assert_complete_windows_exact(&results, n);
    // `subscribe` drains the same keyed records incrementally.
    let fresh = mortar.subscribe(&q);
    assert_eq!(fresh.len(), results.len());
    assert!(fresh.iter().all(|r| r.state.groups().is_some() || r.scalar.is_none()));
}

#[test]
fn msl_group_by_end_to_end() {
    let n = 24;
    let mut mortar = session(n, 13);
    // `group by svc` keys the sum by the declared `svc` field; the trace
    // stores `key class + 1000` there, so groups land on 1000..1006.
    let def =
        compile("stream flows(svc, v);\nper_svc = sum(flows, v) group by svc cap 64 every 1s;")
            .expect("compiles");
    let q = mortar.install(def.stage().members(0..n as NodeId).replay()).expect("installs");
    mortar.run_secs(45.0);
    let windows = fold_windows(&mortar.results(&q));
    let complete: Vec<_> = windows.values().filter(|(p, _)| *p == n as u32).collect();
    assert!(!complete.is_empty(), "no complete windows");
    for (_, groups) in &complete {
        assert_eq!(groups.len() as u64, KEYS);
        for (k, got) in groups {
            let want = expected_sum(n as u64, k - 1_000);
            assert_eq!(got.to_bits(), want.to_bits(), "svc {k}");
        }
    }
}

#[test]
fn keyed_state_is_bounded_by_cap() {
    // 32 hosts, 32 distinct keys, cap 8: every surfaced window must track
    // at most 8 groups no matter how partials merged along the way.
    let n = 32;
    let mut cfg = EngineConfig::paper(n, 17);
    cfg.plan_on_true_latency = true;
    let mut mortar = Mortar::new(cfg).expect("valid config");
    for i in 0..n as NodeId {
        let t: Vec<(u64, RawTuple)> = (0..40u64)
            .map(|s| (500_000 + s * 1_000_000, RawTuple { key: i as u64, vals: vec![1.0] }))
            .collect();
        mortar.set_replay(i, t);
    }
    let q = mortar
        .query("capped")
        .members(0..n as NodeId)
        .replay()
        .count()
        .group_by_key()
        .group_cap(8)
        .every_secs(1.0)
        .install()
        .expect("valid keyed query");
    mortar.run_secs(30.0);
    let results = mortar.results(&q);
    assert!(!results.is_empty());
    for r in &results {
        if let Some(groups) = r.state.groups() {
            assert!(groups.len() <= 8, "cap violated: {} groups", groups.len());
        }
    }
}
