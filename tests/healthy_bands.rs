//! Healthy bands: on a fault-free fleet, Mortar's steady state must be
//! steady. A 100-host, four-tree, 25 ms tumbling sum runs three 50 s
//! chunks with perfect clocks and no chaos, and each chunk is held to the
//! shape the mechanism promises rather than to a figure of older code:
//!
//! * result lag does not grow with run length, and stays near the plan's
//!   depth in link latencies (netDist timeouts, Section 4.3, must not
//!   ratchet on their own waiting);
//! * each window is reported once, with every host in it;
//! * every window a host closes in one tick rides one stripe tree, so
//!   wire messages per result stay in a band;
//! * the root's netDist is bounded by the plan: per level, one link, the
//!   hop age estimate, a tick of rounding on window close and on eviction,
//!   and the leaf floor.
//!
//! An ignored pin holds a 1 s tumbling sum to one record per window from
//! its first window on, which netDist's warm-up still breaks (ROADMAP
//! item 4(c)): 201 records for 198 windows, the last split at tb = 2 s.

use mortar::net::TrafficClass;
use mortar::prelude::*;
use mortar::stream::peer::{HOP_AGE_EST_US, MIN_TIMEOUT_US};

const HOSTS: usize = 100;
const SLIDE_US: u64 = 25_000;
const CHUNK_S: f64 = 50.0;

/// One chunk's reading at the root.
#[derive(Debug)]
struct Chunk {
    lag_p50_us: i64,
    records: usize,
    participants: u64,
    /// Wire messages of every traffic class sent in the chunk, per window
    /// reported.
    msgs_per_result: f64,
}

/// Wire messages of every traffic class sent so far, fleet-wide.
fn wire_msgs(eng: &Engine) -> u64 {
    let bw = eng.sim.bandwidth();
    [TrafficClass::Data, TrafficClass::Heartbeat, TrafficClass::Control]
        .into_iter()
        .map(|c| bw.msgs_total(c))
        .sum()
}

#[test]
fn fault_free_steady_state_is_flat_complete_and_bounded() {
    let mut cfg = EngineConfig::paper(HOSTS, 13);
    cfg.plan_on_true_latency = true;
    cfg.peer.track_truth = false;
    let peer = cfg.peer;
    let max_link_us = cfg.topology.max_latency_us();
    let mut eng = Engine::new(cfg).expect("valid config");
    let spec = QuerySpec {
        name: "steady".into(),
        root: 0,
        members: (0..HOSTS as NodeId).collect(),
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(SLIDE_US),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: SLIDE_US, value: 1.0 },
        post: None,
    };
    let trees = eng.install(spec).expect("installs");
    assert_eq!(trees.width(), 4, "the default planner builds four trees");
    let windows = (CHUNK_S * 1e6 / SLIDE_US as f64) as usize;
    let mut chunks = Vec::new();
    for _ in 0..3 {
        let (seq, msgs) = (eng.result_seq(0), wire_msgs(&eng));
        eng.run_secs(CHUNK_S);
        let fresh = eng.results_from(0, seq);
        let mut lags: Vec<i64> = fresh.iter().map(|r| r.due_lag_us).collect();
        lags.sort_unstable();
        let reported: std::collections::BTreeSet<i64> = fresh.iter().map(|r| r.tb).collect();
        chunks.push(Chunk {
            lag_p50_us: lags.get(lags.len() / 2).copied().unwrap_or(i64::MAX),
            records: fresh.len(),
            participants: fresh.iter().map(|r| r.participants as u64).sum(),
            msgs_per_result: (wire_msgs(&eng) - msgs) as f64 / reported.len().max(1) as f64,
        });
    }
    let (first, last) = (&chunks[0], &chunks[2]);
    let drift = (last.lag_p50_us - first.lag_p50_us).abs() as f64 / first.lag_p50_us as f64;
    assert!(drift <= 0.05, "lag p50 moved {:.1} % over the run: {chunks:?}", drift * 100.0);
    assert!(last.lag_p50_us <= 1_500_000, "steady lag p50 too high: {chunks:?}");
    assert!(
        last.records as f64 <= 1.05 * windows as f64,
        "windows reported in pieces: {} records for {windows} windows",
        last.records
    );
    // A tick's windows ride one stripe tree, so each host owes one next
    // hop per tick: 19.49 messages per window at the last chunk, held at
    // that + 2 %.
    assert!(
        last.msgs_per_result <= 19.88,
        "{:.2} wire messages per result: {chunks:?}",
        last.msgs_per_result
    );
    let coverage = last.participants as f64 / (windows * HOSTS) as f64;
    assert!(coverage >= 0.995, "participants cover {:.2} % of host-windows", coverage * 100.0);
    let height = trees.trees().iter().map(|t| t.height()).max().expect("trees") as u64;
    let per_level = max_link_us + HOP_AGE_EST_US + 2 * peer.tick_us + MIN_TIMEOUT_US;
    let netdist = eng.sim.app(0).netdist_us("steady").expect("root installed");
    assert!(
        netdist <= height * per_level,
        "root netDist {netdist} µs exceeds {height} levels × {per_level} µs"
    );
}

#[test]
#[ignore = "netDist warm-up splits windows (ROADMAP item 4(c)): 201 records for 198 windows \
            over 200 sim-s, 3 windows split, the last at tb = 2 s"]
fn slow_window_is_one_record_from_the_first_window() {
    // A 1 s tumbling sum of 1.0 per host. While the netDist estimators
    // still decay from their initial 2.5 s, an interior peer can time a
    // window out before a child's part of it arrives, and the root then
    // reports that window as two records.
    let mut cfg = EngineConfig::paper(HOSTS, 13);
    cfg.plan_on_true_latency = true;
    cfg.peer.track_truth = false;
    let mut eng = Engine::new(cfg).expect("valid config");
    let spec = QuerySpec {
        name: "slow".into(),
        root: 0,
        members: (0..HOSTS as NodeId).collect(),
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(1_000_000),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: 1_000_000, value: 1.0 },
        post: None,
    };
    eng.install(spec).expect("installs");
    eng.run_secs(200.0);
    let mut per_window = std::collections::BTreeMap::<i64, usize>::new();
    for r in eng.results(0) {
        *per_window.entry(r.tb).or_default() += 1;
    }
    let records: usize = per_window.values().sum();
    let split: Vec<i64> = per_window.iter().filter(|&(_, &n)| n > 1).map(|(&tb, _)| tb).collect();
    assert!(
        split.is_empty(),
        "{records} records for {} windows; {} windows split, the last at tb = {} µs",
        per_window.len(),
        split.len(),
        split.last().copied().unwrap_or_default()
    );
}
