//! Acceptance properties of the scenario engine itself.
//!
//! - A seeded scenario composing >= 3 fault kinds replays bit-for-bit:
//!   identical counter fingerprints across two runs and across simulator
//!   shard counts.
//! - The property oracles demonstrably catch a planted violation (a
//!   removal stranded behind an unhealed partition), and the shrinker
//!   reduces that failing schedule to a minimal one that still fails.
//! - Digest anti-entropy converges every live peer onto exactly the
//!   installed/removed sets the command log implies, at >= 100 queries.

use mortar_chaos::{run_scenario, shrink, sweep, Fault, RunConfig, Scenario};

fn quick(shards: usize) -> RunConfig {
    RunConfig {
        shards,
        base_queries: 3,
        settle_secs: 5.0,
        converge_secs: 25.0,
        ..RunConfig::default()
    }
}

#[test]
fn seeded_scenario_replays_bit_for_bit_across_runs_and_shards() {
    let sc = Scenario::generate(42, 24, 30_000);
    assert!(
        sc.kinds().len() >= 3,
        "generated scenario should compose >= 3 fault kinds, got {:?}",
        sc.kinds()
    );

    let a = run_scenario(&sc, &quick(1)).expect("valid scenario");
    let b = run_scenario(&sc, &quick(1)).expect("valid scenario");
    assert_eq!(a.fingerprint, b.fingerprint, "same scenario, same shards: runs diverged");

    let c = run_scenario(&sc, &quick(2)).expect("valid scenario");
    assert_eq!(
        a.fingerprint, c.fingerprint,
        "shards=2 diverged from single-threaded run of the same scenario"
    );
}

/// A scenario whose removal tombstone is minted while its holders are
/// unreachable, padded with faults irrelevant to that failure.
fn stranded_removal_scenario() -> Scenario {
    Scenario::new(7, 16, 20_000)
        // Noise the shrinker should strip:
        .at(1_000, Fault::Chaos { drop_prob: 0.02, dup_prob: 0.1, reorder_jitter_us: 50_000 })
        .at(2_000, Fault::Skew { node: 3, offset_us: 500_000 })
        .at(4_000, Fault::ClearChaos)
        // The actual failure: install a query everywhere, cut the fleet
        // in half symmetrically, then remove the query — the tombstone
        // cannot cross the cut, and the run ends unhealed.
        .at(5_000, Fault::InstallStorm { count: 1 })
        .at(9_000, Fault::Partition { boundary: 8, symmetric: true })
        .at(12_000, Fault::RemoveStorm { count: 1 })
}

fn unhealed() -> RunConfig {
    RunConfig {
        heal_at_end: false,
        converge_secs: 5.0,
        // The cut also costs completeness; this test is about staleness
        // and convergence, so only those oracles are armed.
        oracles: mortar_chaos::OracleConfig {
            completeness_floor: 0.0,
            ..mortar_chaos::OracleConfig::default()
        },
        ..RunConfig::default()
    }
}

#[test]
fn oracles_catch_a_planted_stale_removal() {
    let report = run_scenario(&stranded_removal_scenario(), &unhealed()).expect("valid scenario");
    assert!(report.failed(), "planted violation went undetected");
    assert!(
        report.violations.iter().any(|v| v.oracle == "no-stale"),
        "expected the no-stale oracle to fire, got {:?}",
        report.violations
    );
    assert!(
        report.violations.iter().any(|v| v.oracle == "convergence"),
        "expected the convergence oracle to fire, got {:?}",
        report.violations
    );

    // Mutation control: the same schedule, force-healed and given time
    // to reconcile, passes every oracle — the detector is specific to
    // the fault, not trigger-happy.
    let healed = RunConfig { heal_at_end: true, converge_secs: 30.0, ..unhealed() };
    let clean = run_scenario(&stranded_removal_scenario(), &healed).expect("valid scenario");
    assert!(!clean.failed(), "healed run should pass every oracle, got {:?}", clean.violations);
}

#[test]
fn shrink_reduces_a_failing_schedule_to_a_minimal_one() {
    let sc = stranded_removal_scenario();
    let cfg = unhealed();
    let min = shrink(&sc, &cfg).expect("valid scenario");
    assert!(min.events.len() < sc.events.len(), "shrink removed nothing");
    assert!(
        run_scenario(&min, &cfg).expect("valid scenario").failed(),
        "shrunken scenario no longer fails"
    );
    // The failure needs the install, the cut, and the removal; the
    // chaos/skew padding is irrelevant and must be gone.
    let kinds = min.kinds();
    assert!(kinds.contains("install-storm") && kinds.contains("remove-storm"));
    assert!(!kinds.contains("chaos") && !kinds.contains("skew"), "padding survived: {kinds:?}");
}

#[test]
fn sweep_reports_per_seed_outcomes() {
    let cfg = RunConfig { converge_secs: 20.0, ..RunConfig::default() };
    let report = sweep(0..3u64, 16, 20_000, &cfg).expect("valid scenarios");
    assert_eq!(report.outcomes.len(), 3);
    for (seed, run) in &report.outcomes {
        assert!(
            !run.failed(),
            "seed {seed}: generated scenario failed oracles: {:?}",
            run.violations
        );
    }
    assert_eq!(report.failures(), 0);
    assert_eq!(report.first_failure(), None);
}

#[test]
fn digest_anti_entropy_converges_stores_to_the_command_log_at_scale() {
    // 100 queries of 3 members over 20 hosts; five hosts are dead while
    // every install propagates, so revival forces reconciliation of the
    // entire query set plus a storm of removals.
    let sc = Scenario::new(11, 20, 15_000)
        .at(0, Fault::Kill { nodes: vec![2, 5, 9, 13, 17] })
        .at(1_000, Fault::InstallStorm { count: 30 })
        .at(3_000, Fault::RemoveStorm { count: 10 })
        .at(10_000, Fault::Revive { nodes: vec![2, 5, 9, 13, 17] });
    let cfg = RunConfig {
        base_queries: 100,
        members_per_query: 3,
        settle_secs: 0.0,
        converge_secs: 30.0,
        // 3-member queries rooted anywhere can lose their root to the
        // kill wave; completeness is not the property under test here.
        oracles: mortar_chaos::OracleConfig {
            completeness_floor: 0.0,
            ..mortar_chaos::OracleConfig::default()
        },
        ..RunConfig::default()
    };

    let report = run_scenario(&sc, &cfg).expect("valid scenario");
    // The convergence oracle is exact: every live peer holds as installed
    // exactly the names whose last delivered command is an install, and
    // as tombstones exactly those whose last one is a removal.
    assert!(!report.failed(), "digest run violated oracles: {:?}", report.violations);
    assert!(report.reconcile_msgs > 0, "scenario never exercised reconciliation");
    assert!(report.installed_total >= 100, "test needs >= 100 live queries");
}
