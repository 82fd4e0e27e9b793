//! Seed-stable parity across simulator shard counts.
//!
//! The parallel runtime's contract: for a fixed seed, a run's observable
//! outputs — results, completeness, tuple/frame/message counters, transport
//! stats — do not depend on how many worker threads drove it, and repeated
//! runs of the same configuration reproduce themselves exactly. A
//! fig13-style aggregate over 100 hosts is driven at shards ∈ {1, 2, 4}
//! (shards = 1 being the same shard core run alone, without
//! synchronisation windows) and every fingerprint must coincide.

use mortar::net::TrafficClass;
use mortar::prelude::*;
use mortar::stream::tuple::RawTuple;

const HOSTS: usize = 100;
const SEED: u64 = 1313;

/// One keyed emission: (tb, te, participants, per-key value bits).
type KeyedRow = (i64, i64, u32, Vec<(u64, u64)>);

/// Everything an experiment reads back, summarized for exact comparison.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    results: Vec<(i64, i64, Option<u64>, u32)>,
    /// Keyed emissions — the group maps merged through the tree set must
    /// coincide bit for bit.
    keyed: Vec<KeyedRow>,
    completeness_bits: u64,
    tuples_sent: u64,
    frames_sent: u64,
    envelopes_sent: u64,
    delivered: u64,
    dropped: u64,
    data_msgs: u64,
    hb_msgs: u64,
    control_msgs: u64,
    data_bytes: u64,
}

fn run(shards: usize) -> Fingerprint {
    let mut cfg = EngineConfig::paper(HOSTS, SEED);
    cfg.plan_on_true_latency = true;
    cfg.shards = shards;
    let mut mortar = Mortar::new(cfg).expect("valid config");
    for i in 0..HOSTS as NodeId {
        let trace: Vec<(u64, RawTuple)> = (0..35u64)
            .map(|s| {
                let t = 500_000 + s * 1_000_000;
                (t, RawTuple { key: i as u64 % 7, vals: vec![i as f64 + 1.0] })
            })
            .collect();
        mortar.set_replay(i, trace);
    }
    let q = mortar
        .query("agg")
        .members(0..HOSTS as NodeId)
        .periodic_secs(1.0, 1.0)
        .sum(0)
        .every_secs(1.0)
        .install()
        .expect("valid query");
    let keyed = mortar
        .query("per_key")
        .members(0..HOSTS as NodeId)
        .replay()
        .sum(0)
        .group_by_key()
        .group_cap(16)
        .every_secs(1.0)
        .install()
        .expect("valid keyed query");
    mortar.run_secs(30.0);
    let eng = mortar.engine();
    let stats = eng.sim.stats();
    let bw = eng.sim.bandwidth();
    let totals = eng.peer_totals();
    Fingerprint {
        results: mortar
            .results(&q)
            .iter()
            .map(|r| (r.tb, r.te, r.scalar.map(f64::to_bits), r.participants))
            .collect(),
        keyed: mortar
            .results(&keyed)
            .iter()
            .map(|r| {
                let groups = r
                    .state
                    .groups()
                    .map(|g| {
                        g.iter()
                            .map(|(k, st)| (*k, st.scalar().unwrap_or(f64::NAN).to_bits()))
                            .collect()
                    })
                    .unwrap_or_default();
                (r.tb, r.te, r.participants, groups)
            })
            .collect(),
        completeness_bits: mortar.completeness(&q, 5).to_bits(),
        tuples_sent: totals.summaries_out,
        frames_sent: totals.frames_out,
        envelopes_sent: totals.envelopes_out,
        delivered: stats.delivered,
        dropped: stats.dropped,
        data_msgs: bw.msgs_total(TrafficClass::Data),
        hb_msgs: bw.msgs_total(TrafficClass::Heartbeat),
        control_msgs: bw.msgs_total(TrafficClass::Control),
        data_bytes: bw.bytes_total(TrafficClass::Data),
    }
}

#[test]
fn results_and_counters_agree_across_shard_counts() {
    let single = run(1);
    assert!(!single.results.is_empty(), "baseline produced no results");
    assert!(
        single.keyed.iter().any(|(_, _, _, g)| g.len() == 7),
        "keyed baseline never surfaced all key classes"
    );
    for shards in [2usize, 4] {
        let parallel = run(shards);
        assert_eq!(single, parallel, "shards={shards} diverged from single-threaded run");
    }
}

#[test]
fn repeated_same_seed_runs_reproduce_exactly() {
    assert_eq!(run(2), run(2), "same seed, same shards: runs diverged");
    assert_eq!(run(4), run(4), "same seed, same shards: runs diverged");
}
