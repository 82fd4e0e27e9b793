//! Fault-tolerant ingestion feeds at fleet scale.
//!
//! A 100-host fleet runs one plain periodic query ("the unrelated
//! workload") beside one feed-driven query whose synthetic source bursts
//! 10× for five seconds. The acceptance properties:
//!
//! - every [`IntakePolicy`] keeps intake memory under its declared cap
//!   (`overcap == 0`) with exact conservation of offered tuples;
//! - `Backpressure` is late-but-complete: nothing is ever dropped;
//! - the unrelated query's results are bit-identical to a run with no
//!   burst feed installed at all — overload is absorbed at the leaves,
//!   not exported to innocent queries;
//! - outcomes are identical across simulator shard counts {1, 2, 4} and
//!   across repeated runs.

use mortar::prelude::*;

const HOSTS: usize = 100;
const SEED: u64 = 2024;

/// A 10× burst over frame seconds [5, 10). `period_us` sets the steady
/// rate; paired with a small `drain_max`, the burst outruns the drain and
/// genuinely pressures the intake queue.
fn burst_profile(period_us: u64) -> BurstProfile {
    BurstProfile::steady(period_us, 1.0).with_burst(5_000_000, 10_000_000, 10)
}

/// Steady emission period and drain rate tuned per policy so the burst
/// reaches the mechanism under test (watermark, stride, spill ring).
fn tuning(policy: IntakePolicy) -> (u64, usize) {
    match policy {
        // 10/s steady, 100/s burst against an 8-per-tick drain: the
        // queue saturates its 64-tuple bound mid-burst.
        IntakePolicy::Backpressure { .. } | IntakePolicy::Shed { .. } => (100_000, 8),
        IntakePolicy::Sample { .. } => (100_000, 8),
        // 50/s steady, 500/s burst: overflow must climb past the
        // 1024-tuple default queue cap into the spill ring.
        IntakePolicy::Spill { .. } => (20_000, 8),
    }
}

/// Everything one run exposes, summarized for exact comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    base: Vec<(i64, i64, Option<u64>, u32)>,
    feed_results: Vec<(i64, i64, Option<u64>, u32)>,
    feed: FeedStats,
    conserved: bool,
    outbox_peak: u64,
}

fn run(policy: Option<IntakePolicy>, shards: usize) -> Outcome {
    let mut cfg = EngineConfig::paper(HOSTS, SEED);
    cfg.plan_on_true_latency = true;
    cfg.shards = shards;
    let mut mortar = Mortar::new(cfg).expect("valid config");
    let base = mortar
        .query("base")
        .members(0..HOSTS as NodeId)
        .periodic_secs(1.0, 1.0)
        .sum(0)
        .every_secs(1.0)
        .install()
        .expect("valid base query");
    let feed = policy.map(|p| {
        let (period_us, drain) = tuning(p);
        mortar
            .query("burst")
            .members(0..HOSTS as NodeId)
            .feed_bursty(burst_profile(period_us))
            .intake(p)
            .intake_drain_max(drain)
            .sum(0)
            .every_secs(1.0)
            .install()
            .expect("valid feed query")
    });
    mortar.run_secs(20.0);
    let fp = |rs: &[metrics::ResultRecord]| {
        rs.iter().map(|r| (r.tb, r.te, r.scalar.map(f64::to_bits), r.participants)).collect()
    };
    let base_rows = fp(&mortar.results(&base));
    let feed_rows = feed.map(|h| fp(&mortar.results(&h))).unwrap_or_default();
    let (stats, conserved, _held) = mortar.engine().feed_totals();
    Outcome {
        base: base_rows,
        feed_results: feed_rows,
        feed: stats,
        conserved,
        outbox_peak: mortar.engine().peer_totals().outbox_peak_bytes,
    }
}

const POLICIES: [IntakePolicy; 4] = [
    IntakePolicy::Backpressure { credits: 64 },
    IntakePolicy::Shed { watermark: 64 },
    IntakePolicy::Sample { keep_1_in_n: 4 },
    IntakePolicy::Spill { cap_bytes: 4096 },
];

#[test]
fn every_policy_keeps_intake_bounded_and_isolates_unrelated_queries() {
    let baseline = run(None, 1);
    assert!(!baseline.base.is_empty(), "baseline produced no results");
    for policy in POLICIES {
        let out = run(Some(policy), 1);
        assert!(out.feed.offered > 0, "{policy:?}: source never fired");
        assert!(out.feed.delivered > 0, "{policy:?}: intake never drained");
        assert_eq!(out.feed.overcap, 0, "{policy:?}: declared cap exceeded");
        assert!(out.conserved, "{policy:?}: tuples unaccounted for: {:?}", out.feed);
        assert!(!out.feed_results.is_empty(), "{policy:?}: feed query emitted nothing");
        // Overload stays at the leaves: the unrelated query's result log
        // is bit-identical to a fleet that never hosted the burst feed.
        assert_eq!(
            out.base, baseline.base,
            "{policy:?}: burst feed perturbed an unrelated query's results"
        );
        match policy {
            IntakePolicy::Backpressure { .. } => {
                assert_eq!(
                    out.feed.shed_tuples + out.feed.sampled_out + out.feed.spill_drops,
                    0,
                    "backpressure dropped tuples"
                );
            }
            IntakePolicy::Shed { .. } => {
                assert!(out.feed.shed_tuples > 0, "10× burst never hit the shed watermark");
            }
            IntakePolicy::Sample { keep_1_in_n } => {
                assert!(out.feed.sampled_out > 0, "sampling removed nothing");
                // Stride sampling admits exactly ceil(seen / n) per feed;
                // fleet-wide the admitted:offered ratio stays within one
                // tuple per member of 1/n.
                let admitted = out.feed.offered - out.feed.sampled_out - out.feed.shed_tuples;
                let expect = out.feed.offered / u64::from(keep_1_in_n);
                assert!(
                    admitted.abs_diff(expect) <= HOSTS as u64,
                    "stride drift: admitted {admitted}, expected ~{expect}"
                );
            }
            IntakePolicy::Spill { cap_bytes } => {
                assert!(out.feed.spilled > 0, "burst never reached the spill ring");
                assert!(out.feed.peak_spill_bytes <= cap_bytes, "spill ring over its byte cap");
            }
        }
    }
}

#[test]
fn burst_outcomes_agree_across_shard_counts_and_repeats() {
    for policy in [POLICIES[0], POLICIES[3]] {
        let single = run(Some(policy), 1);
        for shards in [2usize, 4] {
            let parallel = run(Some(policy), shards);
            assert_eq!(single, parallel, "{policy:?}: shards={shards} diverged");
        }
        assert_eq!(single, run(Some(policy), 1), "{policy:?}: repeat run diverged");
    }
}
