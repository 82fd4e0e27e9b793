//! Ingestion pins: an FNV-1a hash over the result records `(tb, te,
//! value, participants)` of small deterministic runs, one run per kind of
//! local source — a Periodic sensor, a peer-resident Replay trace, a
//! Bursty feed under each intake policy (with its `FeedStats`), a replay
//! feed and a channel feed. Every source's tuples reach the operator
//! through the same pump, so a change to that path that moves any tuple
//! moves a pin.
//!
//! The pinned hashes were taken before Periodic, Replay and the feed
//! connectors shared one source model; a change that means to move
//! ingestion (stamping tuples at their production instant, say) re-takes
//! them and says why. Routing also regroups the Periodic pin's records
//! (which stripe tree a tick's windows ride), so beside its hash it holds
//! the run's totals, which only ingestion moves.

use mortar::prelude::*;
use mortar::stream::tuple::RawTuple;

const HOSTS: usize = 8;

fn session(seed: u64) -> Mortar {
    let mut cfg = EngineConfig::paper(HOSTS, seed);
    cfg.plan_on_true_latency = true;
    Mortar::new(cfg).expect("valid config")
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over each record's interval, value (its `Debug` rendering: the
/// shortest text that round-trips every `f64`, and every key of a keyed
/// state) and participant count, in result order.
fn records_hash(m: &Mortar, q: &QueryHandle) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let records = m.results(q);
    assert!(!records.is_empty(), "{} produced no results", q.name());
    for r in records {
        fnv(&mut h, &r.tb.to_le_bytes());
        fnv(&mut h, &r.te.to_le_bytes());
        fnv(&mut h, format!("{:?}", r.state).as_bytes());
        fnv(&mut h, &r.participants.to_le_bytes());
    }
    h
}

fn members() -> std::ops::Range<NodeId> {
    0..HOSTS as NodeId
}

#[test]
fn ingestion_pin_periodic_25ms_sum() {
    let mut m = session(21);
    let q = m
        .query("p")
        .members(members())
        .periodic_us(25_000, 1.0)
        .sum(0)
        .every_us(25_000)
        .install()
        .expect("valid query");
    m.run_secs(5.0);
    // Striping decides which records carry a host's windows, so the hash
    // moves with routing. Ingestion decides the totals: every host's 1.0
    // in every window, short only by the windows still partial at the
    // run's two edges, one tick (eight windows) of hosts at most.
    let records = m.results(&q);
    let tbs = records.iter().map(|r| r.tb);
    let (first, last) = (tbs.clone().min().expect("results"), tbs.max().expect("results"));
    let expected = HOSTS as u64 * ((last - first) / 25_000 + 1) as u64;
    let edge = HOSTS as u64 * 8;
    let participants: u64 = records.iter().map(|r| u64::from(r.participants)).sum();
    let value: f64 = records.iter().filter_map(|r| r.scalar).sum();
    assert!(
        participants.abs_diff(expected) <= edge && (value - expected as f64).abs() <= edge as f64,
        "Σ participants {participants}, Σ value {value}, hosts × windows {expected}"
    );
    assert_eq!(records_hash(&m, &q), 0x2384_bde5_f63b_31b8);
}

/// `secs` seconds of a keyed trace at host `host`: a tuple every 50 ms,
/// key cycling over four classes, value depending on host and generation.
fn keyed_trace(host: NodeId, generation: u64, secs: u64) -> Vec<(u64, RawTuple)> {
    (0..secs * 20)
        .map(|i| {
            let v = (1 + (i + u64::from(host) + generation) % 5) as f64;
            (10_000 + i * 50_000, RawTuple { key: i % 4, vals: vec![v] })
        })
        .collect()
}

#[test]
fn ingestion_pin_replay_keyed_sum() {
    let mut m = session(22);
    for h in members() {
        m.set_replay(h, keyed_trace(h, 0, 20));
    }
    let keyed = |m: &mut Mortar, name: &str| {
        m.query(name)
            .members(members())
            .replay()
            .group_by_key()
            .sum(0)
            .every_secs(1.0)
            .install()
            .expect("valid replay query")
    };
    let a = keyed(&mut m, "a");
    m.run_secs(3.0);
    // A second replay query, installed later, walks the trace from its own
    // activation.
    let b = keyed(&mut m, "b");
    m.run_secs(3.0);
    // A new trace after install restarts every replay query on that peer.
    m.set_replay(3, keyed_trace(3, 1, 20));
    m.run_secs(6.0);
    assert_eq!(
        (records_hash(&m, &a), records_hash(&m, &b)),
        (0x4063_981f_5936_3917, 0xca03_22a0_458d_6581)
    );
}

/// A 1 s Bursty feed (1 ms period, 10× burst over [300, 700) ms) under
/// `policy`, drained at 64 tuples per tick: the records hash and the
/// fleet's intake ledger.
fn bursty_run(policy: IntakePolicy) -> (u64, FeedStats, bool) {
    let mut m = session(23);
    let mut profile = BurstProfile::steady(1_000, 1.0).with_burst(300_000, 700_000, 10);
    profile.until_us = 1_000_000;
    let q = m
        .query("burst")
        .members(members())
        .feed_bursty(profile)
        .intake(policy)
        .intake_drain_max(64)
        .sum(0)
        .every_secs(1.0)
        .install()
        .expect("valid feed query");
    m.run_secs(8.0);
    let (stats, conserved, _) = m.engine().feed_totals();
    (records_hash(&m, &q), stats, conserved)
}

#[test]
fn ingestion_pin_bursty_feed_under_each_policy() {
    let cases = [
        (
            IntakePolicy::Backpressure { credits: 8 },
            0x6e62_d7d4_2f67_5969,
            [2560, 2560, 0, 0, 0, 0, 256, 0, 0],
        ),
        (
            IntakePolicy::Shed { watermark: 8 },
            0x976d_6cac_a44f_766e,
            [36800, 377, 36423, 0, 0, 0, 256, 0, 0],
        ),
        (
            IntakePolicy::Sample { keep_1_in_n: 3 },
            0xa478_27ab_1981_9cff,
            [36800, 10263, 2009, 24528, 0, 0, 32768, 0, 0],
        ),
        (
            IntakePolicy::Spill { cap_bytes: 10 * 32 },
            0x736d_4dd4_7a4c_4efc,
            [36800, 10521, 0, 0, 260, 26279, 32768, 320, 0],
        ),
    ];
    for (policy, hash, ledger) in cases {
        let (h, s, conserved) = bursty_run(policy);
        let got = [
            s.offered,
            s.delivered,
            s.shed_tuples,
            s.sampled_out,
            s.spilled,
            s.spill_drops,
            s.peak_queue_bytes,
            s.peak_spill_bytes,
            s.overcap,
        ];
        assert!(conserved, "{policy:?}: intake does not balance");
        assert_eq!((h, got), (hash, ledger), "{policy:?}");
    }
}

#[test]
fn ingestion_pin_replay_feed() {
    let mut m = session(24);
    let trace: Vec<(u64, RawTuple)> = (0..120u64)
        .map(|i| (i * 40_000, RawTuple { key: i % 3, vals: vec![(i % 7) as f64] }))
        .collect();
    let q = m
        .query("fr")
        .members(members())
        .feed_replay(trace)
        .sum(0)
        .every_secs(1.0)
        .install()
        .expect("valid feed query");
    m.run_secs(10.0);
    assert_eq!(records_hash(&m, &q), 0x8ba8_fac9_faa7_e531);
}

#[test]
fn ingestion_pin_channel_feed() {
    let mut m = session(25);
    let hub = ChannelHub::new();
    let q = m
        .query("ch")
        .members(members())
        .feed_channel(&hub)
        .sum(0)
        .every_secs(1.0)
        .install()
        .expect("valid feed query");
    for round in 0..5u64 {
        for h in members() {
            let n = 3 + (u64::from(h) + round) % 4;
            hub.push_many(h, (0..n).map(|i| RawTuple::of((i + round) as f64)));
        }
        m.run_secs(2.0);
    }
    assert_eq!(records_hash(&m, &q), 0x4dca_d0eb_e207_9c47);
}
