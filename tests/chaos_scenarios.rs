//! The classic failure-injection cases of `tests/chaos_and_failures.rs`,
//! re-expressed on the chaos scenario engine: each fault schedule is
//! data (a [`Scenario`]), each assertion a property oracle, and every
//! run replays bit-for-bit from its seed. The legacy file stays as the
//! session-API-level regression suite; this one pins the same
//! behaviours through the engine that the CI soak sweeps.

use mortar_chaos::{run_scenario, Fault, RunConfig, RunReport, Scenario};

fn run(sc: &Scenario, cfg: &RunConfig) -> RunReport {
    let r = run_scenario(sc, cfg).expect("well-formed scenario");
    assert!(
        r.violations.is_empty(),
        "oracles fired on {}:\n{}",
        sc.describe().lines().next().unwrap_or(""),
        r.violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    r
}

/// Port of `duplicated_messages_never_double_count`: 30% duplication for
/// the whole fault window. The conservation oracle is the old per-window
/// `participants ≤ 1.25 × members` assertion; the dedup counter proves
/// the chaos actually exercised the suppression layer.
#[test]
fn duplication_scenario_conserves_contributions() {
    let sc = Scenario::new(21, 24, 20_000)
        .at(0, Fault::Chaos { drop_prob: 0.0, dup_prob: 0.3, reorder_jitter_us: 0 });
    let r = run(&sc, &RunConfig::default());
    assert!(r.duplicates_suppressed > 0, "chaos did not exercise dedup");
}

/// Port of `lossy_network_degrades_gracefully`: 5% loss must degrade,
/// not stall — the completeness floor is the oracle.
#[test]
fn loss_scenario_degrades_gracefully() {
    let sc = Scenario::new(22, 24, 20_000)
        .at(0, Fault::Chaos { drop_prob: 0.05, dup_prob: 0.0, reorder_jitter_us: 0 });
    let mut cfg = RunConfig::default();
    cfg.oracles.completeness_floor = 70.0;
    let r = run(&sc, &cfg);
    assert!(r.dropped > 0, "chaos did not drop anything");
}

/// Port of `reordering_jitter_is_tolerated`: 400 ms reorder jitter.
#[test]
fn jitter_scenario_is_tolerated() {
    let sc = Scenario::new(23, 24, 20_000)
        .at(0, Fault::Chaos { drop_prob: 0.0, dup_prob: 0.0, reorder_jitter_us: 400_000 });
    let mut cfg = RunConfig::default();
    cfg.oracles.completeness_floor = 70.0;
    run(&sc, &cfg);
}

/// Port of `rolling_disconnections_recover`: a quarter of the fleet dies
/// mid-run and revives; after the heal the convergence oracle demands
/// one fleet-wide store fingerprint and the completeness oracle demands
/// the mean recovered over the floor.
#[test]
fn churn_scenario_recovers() {
    let victims: Vec<_> = (1..=6).collect();
    let sc = Scenario::new(24, 24, 20_000)
        .at(2_000, Fault::Kill { nodes: victims.clone() })
        .at(12_000, Fault::Revive { nodes: victims });
    run(&sc, &RunConfig::default());
}

/// Port of `removal_reconciles_to_a_partitioned_peer`, generalized: a
/// peer sleeps through installs *and* removals of queries it has never
/// heard of; after revival the no-stale oracle demands the removed ones
/// are gone everywhere and the convergence oracle demands the sleeper
/// adopted their tombstones (equal store fingerprints: reconciliation's
/// `(id, seq)` tombstones are adopted whether or not the sleeper ever
/// installed the query).
#[test]
fn removal_storm_reconciles_to_a_revived_sleeper() {
    let sc = Scenario::new(43, 16, 20_000)
        .at(0, Fault::InstallStorm { count: 4 })
        .at(4_000, Fault::Kill { nodes: vec![3] })
        .at(8_000, Fault::RemoveStorm { count: 2 })
        .at(14_000, Fault::Revive { nodes: vec![3] });
    let r = run(&sc, &RunConfig::default());
    // 3 base + 4 storm installs - 2 removals survive in the stores.
    assert_eq!(r.installed_total, 5, "storm bookkeeping drifted");
    assert!(r.reconcile_msgs > 0, "anti-entropy never ran");
}

/// The combined-fault soak: loss + duplication + jitter over a symmetric
/// partition with churn, healed late — at least three fault kinds in one
/// schedule, every oracle armed, and the whole run replaying bit-for-bit
/// (the acceptance suite pins the cross-shard half of that property).
#[test]
fn combined_fault_scenario_stays_clean_and_replays() {
    let sc = Scenario::new(77, 24, 25_000)
        .at(0, Fault::Chaos { drop_prob: 0.03, dup_prob: 0.25, reorder_jitter_us: 150_000 })
        .at(4_000, Fault::Partition { boundary: 16, symmetric: true })
        .at(9_000, Fault::Kill { nodes: vec![5, 11] })
        .at(13_000, Fault::Heal)
        .at(16_000, Fault::Revive { nodes: vec![5, 11] })
        .at(18_000, Fault::ClearChaos);
    assert!(sc.kinds().len() >= 3);
    let a = run(&sc, &RunConfig::default());
    let b = run(&sc, &RunConfig::default());
    assert_eq!(a.fingerprint, b.fingerprint, "replay diverged");
    assert!(a.duplicates_suppressed > 0 && a.dropped > 0);
}
