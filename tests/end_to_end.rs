//! Cross-crate integration: the typed session API (and the MSL front end
//! compiling into it) → planned overlay → simulated federation → handles
//! draining root results.

use mortar::prelude::*;

fn session(n: usize, seed: u64) -> Mortar {
    let mut cfg = EngineConfig::paper(n, seed);
    cfg.plan_on_true_latency = true;
    Mortar::new(cfg).expect("valid config")
}

#[test]
fn fluent_sum_query_end_to_end() {
    let n = 64;
    let mut cfg = EngineConfig::paper(n, 1);
    cfg.plan_on_true_latency = true;
    cfg.planner.branching_factor = 8;
    let mut mortar = Mortar::new(cfg).expect("valid config");
    let up = mortar
        .query("up")
        .fields(["value"])
        .members(0..n as NodeId)
        .periodic_secs(1.0, 1.0)
        .sum("value")
        .every_secs(1.0)
        .install()
        .expect("valid query");
    mortar.run_secs(45.0);
    assert_eq!(mortar.active_count(&up), n);
    let completeness = mortar.completeness(&up, 10);
    assert!(completeness > 93.0, "steady-state completeness {completeness}%");
    // The sum of "1"s from every live peer approaches n.
    let results = mortar.results(&up);
    let best = results.iter().filter_map(|r| r.scalar).fold(0.0f64, f64::max);
    assert!((best - n as f64).abs() < 1e-9, "best window sum {best}");
    // Each participant contributes exactly one "1" per window (the slide
    // is no shorter than the tick), so every record, not only the best,
    // must sum to its participant count.
    let mismatched: Vec<_> = results
        .iter()
        .filter(|r| r.scalar != Some(f64::from(r.participants)))
        .map(|r| (r.tb, r.scalar, r.participants))
        .collect();
    assert!(mismatched.is_empty(), "(tb, value, participants) that disagree: {mismatched:?}");
}

#[test]
fn msl_definitions_compile_into_the_builder() {
    let n = 24;
    let mut mortar = session(n, 3);
    let mean_def = compile("stream s(v);\nmean_v = avg(s, v) every 1s;").expect("compiles");
    let max_def = compile("stream s(v);\nmax_v = max(s, v) every 1s;").expect("compiles");
    let mean = mortar
        .install(mean_def.stage().members(0..n as NodeId).periodic_secs(1.0, 1.0))
        .expect("installs");
    let max = mortar
        .install(max_def.stage().members(0..n as NodeId).periodic_secs(1.0, 1.0))
        .expect("installs");
    mortar.run_secs(30.0);
    let avg_vals: Vec<f64> = mortar.results(&mean).iter().filter_map(|r| r.scalar).collect();
    let max_vals: Vec<f64> = mortar.results(&max).iter().filter_map(|r| r.scalar).collect();
    assert!(!avg_vals.is_empty() && !max_vals.is_empty());
    // Constant streams of 1.0: every average and max must be exactly 1.
    assert!(avg_vals.iter().all(|&v| (v - 1.0).abs() < 1e-9), "{avg_vals:?}");
    assert!(max_vals.iter().all(|&v| (v - 1.0).abs() < 1e-9));
}

#[test]
fn two_queries_share_heartbeats() {
    let n = 32;
    let mut mortar = session(n, 5);
    mortar
        .query("q1")
        .members(0..n as NodeId)
        .periodic_secs(1.0, 1.0)
        .sum(0)
        .every_secs(1.0)
        .install()
        .expect("installs");
    mortar.run_secs(8.0);
    let one = mortar.engine().mean_heartbeat_children();
    mortar
        .query("q2")
        .members(0..n as NodeId)
        .periodic_secs(1.0, 1.0)
        .count()
        .every_secs(1.0)
        .install()
        .expect("installs");
    mortar.run_secs(8.0);
    let two = mortar.engine().mean_heartbeat_children();
    // Figure 13's claim: overhead grows sub-linearly because primary trees
    // repeat across queries over the same coordinate set.
    assert!(two < one * 2.0, "children grew linearly: {one} → {two}");
    assert!(two >= one * 0.9, "children should not shrink: {one} → {two}");
}

#[test]
fn time_division_never_overcounts() {
    // The central invariant versus SDIMS (Figure 16): whatever failures
    // occur, a window's participants can never exceed the member count.
    let n = 48;
    let mut mortar = session(n, 7);
    let q = mortar
        .query("q")
        .members(0..n as NodeId)
        .periodic_secs(1.0, 1.0)
        .sum(0)
        .every_secs(1.0)
        .install()
        .expect("installs");
    mortar.run_secs(20.0);
    let down = mortar.disconnect_random(0.3, q.root());
    mortar.run_secs(20.0);
    mortar.reconnect(&down);
    mortar.run_secs(20.0);
    let by_index = metrics::participants_by_index(&mortar.results(&q));
    let total: u64 = by_index.values().map(|&v| v as u64).sum();
    assert!(
        total <= (by_index.len() * n) as u64,
        "global over-count: {total} over {} windows of {n} peers",
        by_index.len()
    );
    for (idx, participants) in by_index {
        // Adjacent-window dispersion allows small local excess; systematic
        // SDIMS-style over-counting (120–180%) must be impossible.
        assert!(
            f64::from(participants) <= n as f64 * 1.25,
            "window {idx} over-counted: {participants} ≫ {n}"
        );
    }
}

#[test]
fn bad_queries_never_reach_the_fleet() {
    let n = 16;
    let mut mortar = session(n, 9);
    // Root outside the member list.
    let err = mortar
        .query("broken")
        .members(0..4)
        .root(12)
        .periodic_secs(1.0, 1.0)
        .sum(0)
        .install()
        .unwrap_err();
    assert_eq!(err, MortarError::RootNotMember { query: "broken".into(), root: 12 });
    // Member outside the topology.
    let err = mortar
        .query("broken")
        .members([0, 1, 200])
        .periodic_secs(1.0, 1.0)
        .sum(0)
        .install()
        .unwrap_err();
    assert!(matches!(err, MortarError::MemberOutOfRange { peer: 200, .. }));
    mortar.run_secs(5.0);
    assert_eq!(mortar.engine().installed_count("broken"), 0);
}
