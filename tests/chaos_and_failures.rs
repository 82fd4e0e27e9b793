//! Failure injection: message loss, duplication, reordering, and node
//! disconnection — validating the best-effort contract and the
//! duplicate-suppression requirement of Section 4.3, driven end-to-end
//! through the typed session API ([`EngineConfig::chaos`] wires transport
//! misbehaviour under the session).

use mortar::prelude::*;

fn chaotic_session(n: usize, chaos: ChaosConfig, seed: u64) -> Mortar {
    let mut cfg = EngineConfig::paper(n, seed);
    cfg.plan_on_true_latency = true;
    cfg.planner.branching_factor = 4;
    cfg.planner.tree_count = 4;
    cfg.chaos = chaos;
    Mortar::new(cfg).expect("valid config")
}

fn install_sum(mortar: &mut Mortar, n: usize) -> QueryHandle {
    mortar
        .query("q")
        .members(0..n as NodeId)
        .periodic_secs(1.0, 1.0)
        .sum(0)
        .every_secs(1.0)
        .install()
        .expect("valid query")
}

#[test]
fn duplicated_messages_never_double_count() {
    // 30% of every message duplicated: the transport dedup layer plus
    // time-division indexing must keep sums ≤ n.
    let n = 32;
    let chaos = ChaosConfig { dup_prob: 0.3, ..ChaosConfig::none() };
    let mut mortar = chaotic_session(n, chaos, 21);
    let q = install_sum(&mut mortar, n);
    mortar.run_secs(40.0);
    assert!(mortar.engine().sim.stats().duplicates_suppressed > 0, "chaos did not exercise dedup");
    let results = mortar.results(&q);
    assert!(!results.is_empty());
    let by_index = metrics::participants_by_index(&results);
    // Conservation: each (source, window) contribution counted at most
    // once globally; per-window counts may smear by ±1 window (tuple
    // dispersion, Section 5.1) but never inflate.
    let total: u64 = by_index.values().map(|&v| v as u64).sum();
    assert!(
        total <= (by_index.len() * n) as u64,
        "global over-count: {total} > {}",
        by_index.len() * n
    );
    for (idx, p) in by_index {
        // Local smear from adjacent windows is bounded; SDIMS-style
        // systematic over-counting (120–180%) must be impossible.
        assert!(f64::from(p) <= n as f64 * 1.25, "window {idx}: {p} participants ≫ {n}");
    }
}

#[test]
fn lossy_network_degrades_gracefully() {
    // 5% loss: a best-effort system keeps producing mostly complete
    // results rather than stalling.
    let n = 32;
    let chaos = ChaosConfig { drop_prob: 0.05, ..ChaosConfig::none() };
    let mut mortar = chaotic_session(n, chaos, 22);
    let q = install_sum(&mut mortar, n);
    mortar.run_secs(60.0);
    let completeness = mortar.completeness(&q, 15);
    assert!(completeness > 70.0, "5% loss should not collapse completeness: {completeness}%");
}

#[test]
fn reordering_jitter_is_tolerated() {
    let n = 24;
    let chaos = ChaosConfig { reorder_jitter_us: 400_000, ..ChaosConfig::none() };
    let mut mortar = chaotic_session(n, chaos, 23);
    let q = install_sum(&mut mortar, n);
    mortar.run_secs(50.0);
    let completeness = mortar.completeness(&q, 15);
    assert!(completeness > 80.0, "jitter hurt too much: {completeness}%");
}

#[test]
fn rolling_disconnections_recover() {
    let n = 40;
    let mut mortar = chaotic_session(n, ChaosConfig::none(), 24);
    let q = install_sum(&mut mortar, n);
    mortar.run_secs(25.0);
    // Take down 25% (not the root), wait, bring back.
    let victims: Vec<NodeId> = (1..=(n as NodeId / 4)).collect();
    for &v in &victims {
        mortar.set_host_up(v, false);
    }
    mortar.run_secs(30.0);
    let during = metrics::participants_by_index(&mortar.results(&q));
    let live = n - victims.len();
    // During the outage, steady windows should count ~live peers.
    let late_during: Vec<u32> = during.values().rev().take(6).copied().collect();
    // At this small scale a few live members can be structurally cut off
    // (all parents dead and no children in any tree — unreachable even in
    // the optimal union graph), so allow a small shortfall.
    assert!(
        late_during.iter().any(|&p| p as usize >= live - 3),
        "live peers unaccounted during failure: {late_during:?} (live={live})"
    );
    for &v in &victims {
        mortar.set_host_up(v, true);
    }
    mortar.run_secs(30.0);
    let after = metrics::participants_by_index(&mortar.results(&q));
    let late_after: Vec<u32> = after.values().rev().take(6).copied().collect();
    assert!(
        late_after.iter().any(|&p| p as usize >= n - 1),
        "peers did not rejoin: {late_after:?}"
    );
}

#[test]
fn query_installs_through_partial_outage_via_reconciliation() {
    let n = 32;
    let mut mortar = chaotic_session(n, ChaosConfig::none(), 31);
    // 40% down at install time.
    let victims: Vec<NodeId> = (1..=12).collect();
    for &v in &victims {
        mortar.set_host_up(v, false);
    }
    let q = install_sum(&mut mortar, n);
    mortar.run_secs(10.0);
    let installed_during = mortar.installed_count(&q);
    assert!(installed_during >= n - victims.len() - 6, "install too sparse: {installed_during}");
    for &v in &victims {
        mortar.set_host_up(v, true);
    }
    // Reconciliation every 3rd heartbeat (6 s) + topology fetch.
    mortar.run_secs(40.0);
    assert_eq!(mortar.active_count(&q), n, "reconciliation must reach everyone");
}

/// Envelope soak under combined drop/duplicate/reorder chaos: the
/// cross-query envelope transport must uphold the same best-effort
/// contract as per-query frames. (The two configurations draw different
/// chaos randomness — fewer wire messages consume fewer fault rolls — so
/// the comparison is invariant-for-invariant, not bit-for-bit; exact
/// parity is proven chaos-free by `crates/core/tests/prop_batching.rs`.
/// That duplicated `Arc` envelopes are deduplicated without cloning their
/// payloads is pinned by the counting-allocator test in
/// `crates/core/tests/alloc_hotpath.rs`.)
#[test]
fn envelopes_under_chaos_uphold_the_per_query_frame_contract() {
    let n = 32;
    let chaos = ChaosConfig { drop_prob: 0.03, dup_prob: 0.25, reorder_jitter_us: 150_000 };
    let mut outcomes = Vec::new();
    for envelope_budget in [0u32, 16_384] {
        let mut cfg = EngineConfig::paper(n, 77);
        cfg.plan_on_true_latency = true;
        cfg.planner.branching_factor = 4;
        cfg.planner.tree_count = 4;
        cfg.chaos = chaos;
        cfg.peer.envelope_budget = envelope_budget;
        let mut mortar = Mortar::new(cfg).expect("valid config");
        let q = install_sum(&mut mortar, n);
        // A second, faster query over the same members: its frames share
        // wire envelopes with the sum's whenever both evict toward the
        // same next hop in one tick — the cross-query case under chaos.
        mortar
            .query("r")
            .members(0..n as NodeId)
            .periodic_secs(0.5, 1.0)
            .max(0)
            .every_secs(0.5)
            .install()
            .expect("valid query");
        mortar.run_secs(45.0);
        let eng = mortar.engine();
        // Chaos exercised the dedup layer (every duplicated envelope is a
        // whole bundle of frames that must be suppressed exactly once).
        assert!(eng.sim.stats().duplicates_suppressed > 0, "dup chaos never fired");
        let totals = eng.peer_totals();
        if envelope_budget > 0 {
            assert!(totals.envelopes_out > 0, "envelopes never engaged");
            assert!(
                totals.envelopes_out < totals.frames_out,
                "cross-query coalescing never shared a wire message"
            );
        } else {
            assert_eq!(totals.envelopes_out, 0);
        }
        // Conservation under duplication: no (source, window) contribution
        // may ever be double-counted, enveloped or not.
        let by_index = metrics::participants_by_index(&mortar.results(&q));
        let total: u64 = by_index.values().map(|&v| v as u64).sum();
        assert!(
            total <= (by_index.len() * n) as u64,
            "global over-count with budget {envelope_budget}: {total}"
        );
        for (idx, p) in &by_index {
            assert!(
                f64::from(*p) <= n as f64 * 1.25,
                "budget {envelope_budget}, window {idx}: {p} participants ≫ {n}"
            );
        }
        let completeness = mortar.completeness(&q, 15);
        assert!(
            completeness > 70.0,
            "budget {envelope_budget} collapsed under chaos: {completeness}%"
        );
        outcomes.push(completeness);
    }
    // Envelopes must not change the *quality* regime: both configurations
    // ride out the same chaos at comparable completeness.
    assert!(
        (outcomes[0] - outcomes[1]).abs() < 20.0,
        "envelope completeness diverged from per-query frames: {outcomes:?}"
    );
}

/// Regression for the id-keyed (de-stringed) removal cache: a peer that
/// sleeps through a remove *and* a same-named reinstall must reconverge
/// via reconciliation — the reinstall's higher sequence beats the
/// tombstone it never saw, and the tombstone it eventually hears about
/// must not kill the reinstalled query.
#[test]
fn reconcile_converges_after_remove_and_reinstall_of_same_name() {
    let n = 16;
    let mut mortar = chaotic_session(n, ChaosConfig::none(), 41);
    let q = install_sum(&mut mortar, n);
    mortar.run_secs(10.0);
    assert_eq!(mortar.active_count(&q), n);
    // Peer 5 sleeps through both commands.
    mortar.set_host_up(5, false);
    mortar.run_secs(8.0);
    mortar.remove(q).expect("installed");
    mortar.run_secs(8.0);
    let q2 = install_sum(&mut mortar, n);
    mortar.run_secs(8.0);
    assert!(
        mortar.engine().sim.app(5).has_query("q"),
        "the sleeper should still run the stale incarnation it never saw removed"
    );
    mortar.set_host_up(5, true);
    // Reconciliation every 3rd heartbeat (6 s) + topology fetch.
    mortar.run_secs(40.0);
    assert_eq!(mortar.active_count(&q2), n, "reinstall must reach the sleeper");
    // And the sleeper contributes data again: late windows count all n.
    let by_index = metrics::participants_by_index(&mortar.results(&q2));
    let late: Vec<u32> = by_index.values().rev().take(6).copied().collect();
    assert!(late.iter().any(|&p| p as usize == n), "sleeper not contributing: {late:?}");
}

/// The inverse direction: a peer that missed only the removal learns it
/// from the id-keyed removal cache carried by reconciliation.
#[test]
fn removal_reconciles_to_a_partitioned_peer() {
    let n = 16;
    let mut mortar = chaotic_session(n, ChaosConfig::none(), 43);
    let q = install_sum(&mut mortar, n);
    mortar.run_secs(10.0);
    mortar.set_host_up(3, false);
    mortar.run_secs(5.0);
    mortar.remove(q).expect("installed");
    mortar.run_secs(10.0);
    assert!(mortar.engine().sim.app(3).has_query("q"), "sleeper should still run the query");
    mortar.set_host_up(3, true);
    mortar.run_secs(30.0);
    assert!(!mortar.engine().sim.app(3).has_query("q"), "removal never reconciled to the sleeper");
}
