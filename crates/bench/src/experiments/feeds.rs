//! Feeds: intake-policy burst behavior at fleet scale
//! (`BENCH_feeds.json` at the repo root).
//!
//! Two measurement families on a 100-host fleet:
//!
//! 1. **Policy burst rows** — one plain periodic query (the "unrelated
//!    workload") beside one feed query whose synthetic source bursts 10×
//!    for five seconds, once per [`IntakePolicy`]. Each row records the
//!    full intake ledger (offered / delivered / shed / sampled / spilled
//!    counters, peak queue and spill bytes, `overcap`) plus whether the
//!    unrelated query's results stayed bit-identical to a fleet that
//!    never hosted the feed.
//! 2. **Idle allocation probe** — a warm peer with an *exhausted* feed
//!    installed must tick allocation-free: the feed layer's steady-state
//!    cost outside active intake is zero heap traffic.

use mortar_core::engine::{Engine, EngineConfig};
use mortar_core::feed::{BurstProfile, FeedConnector, FeedSpec, FeedStats, IntakePolicy};
use mortar_core::op::OpKind;
use mortar_core::query::{QuerySpec, SensorSpec};
use mortar_core::window::WindowSpec;
use mortar_net::NodeId;

/// Fleet size for every row.
pub const HOSTS: usize = 100;
/// Engine seed (shared with `tests/feeds.rs` — same fleet, same plan).
pub const SEED: u64 = 2024;
/// Simulated seconds per run: burst over frame seconds [5, 10), then
/// settle.
pub const SIM_SECS: f64 = 20.0;

/// A 10× burst over frame seconds [5, 10) on the given steady period.
fn burst_profile(period_us: u64) -> BurstProfile {
    BurstProfile::steady(period_us, 1.0).with_burst(5_000_000, 10_000_000, 10)
}

/// Steady emission period and drain rate tuned per policy so the burst
/// reaches the mechanism under test (watermark, stride, spill ring) —
/// kept in lockstep with `tests/feeds.rs`.
fn tuning(policy: IntakePolicy) -> (u64, usize) {
    match policy {
        IntakePolicy::Backpressure { .. }
        | IntakePolicy::Shed { .. }
        | IntakePolicy::Sample { .. } => (100_000, 8),
        IntakePolicy::Spill { .. } => (20_000, 8),
    }
}

/// The fleet-wide periodic sum that must not notice the burst.
fn base_spec() -> QuerySpec {
    QuerySpec {
        name: "base".into(),
        root: 0,
        members: (0..HOSTS as NodeId).collect(),
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(1_000_000),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: 1_000_000, value: 1.0 },
        post: None,
    }
}

/// A feed-driven fleet-wide sum.
fn feed_spec(
    name: &str,
    profile: BurstProfile,
    policy: IntakePolicy,
    drain_max: Option<usize>,
    slide_us: u64,
) -> QuerySpec {
    let mut feed = FeedSpec::new(FeedConnector::Bursty(profile), policy);
    if let Some(d) = drain_max {
        feed.drain_max = d;
    }
    QuerySpec {
        name: name.into(),
        root: 0,
        members: (0..HOSTS as NodeId).collect(),
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(slide_us),
        filter: None,
        sensor: SensorSpec::Feed(feed),
        post: None,
    }
}

/// Result-log fingerprint of one query at the root, exact to the bit.
fn results_fp(eng: &Engine, name: &str) -> Vec<(i64, i64, Option<u64>, u32)> {
    eng.results(0)
        .iter()
        .filter(|r| &*r.query == name)
        .map(|r| (r.tb, r.te, r.scalar.map(f64::to_bits), r.participants))
        .collect()
}

/// Bit-level result fingerprint rows: `(tb, te, scalar bits, participants)`.
type ResultFp = Vec<(i64, i64, Option<u64>, u32)>;

/// One policy burst row.
#[derive(Debug)]
pub struct PolicyRow {
    pub policy: &'static str,
    pub stats: FeedStats,
    pub conserved: bool,
    /// The unrelated query's results matched the no-feed baseline exactly.
    pub base_bit_identical: bool,
}

/// Runs the per-policy burst sweep: a no-feed baseline, then one run per
/// policy, comparing the unrelated query's result log against the
/// baseline bit-for-bit.
pub fn policy_rows() -> Vec<PolicyRow> {
    let run = |policy: Option<IntakePolicy>| -> (ResultFp, FeedStats, bool) {
        let mut cfg = EngineConfig::paper(HOSTS, SEED);
        cfg.plan_on_true_latency = true;
        let mut eng = Engine::new(cfg).expect("valid config");
        eng.install(base_spec()).expect("valid base spec");
        if let Some(p) = policy {
            let (period_us, drain) = tuning(p);
            eng.install(feed_spec("burst", burst_profile(period_us), p, Some(drain), 1_000_000))
                .expect("valid feed spec");
        }
        eng.run_secs(SIM_SECS);
        let (stats, conserved, _held) = eng.feed_totals();
        (results_fp(&eng, "base"), stats, conserved)
    };
    let (baseline, _, _) = run(None);
    let policies: [(&'static str, IntakePolicy); 4] = [
        ("backpressure", IntakePolicy::Backpressure { credits: 64 }),
        ("shed", IntakePolicy::Shed { watermark: 64 }),
        ("sample", IntakePolicy::Sample { keep_1_in_n: 4 }),
        ("spill", IntakePolicy::Spill { cap_bytes: 4096 }),
    ];
    policies
        .into_iter()
        .map(|(name, p)| {
            let (base, stats, conserved) = run(Some(p));
            PolicyRow { policy: name, stats, conserved, base_bit_identical: base == baseline }
        })
        .collect()
}

/// Measures heap allocations across steady-state idle ticks on a warm
/// peer that hosts an **exhausted** feed (the source's `until_us` has
/// passed and its backlog is drained): the feed layer must add zero
/// allocations outside active intake. Returns `(allocs, window_sim_secs)`;
/// panics if the counting allocator is not installed.
pub fn feed_idle_alloc_run() -> (u64, f64) {
    use mortar_core::msg::MortarMsg;
    use mortar_core::op::OpRegistry;
    use mortar_core::peer::{MortarPeer, PeerConfig};
    use mortar_core::query::{build_records, QueryId};
    use mortar_net::{SimBuilder, Topology};
    use mortar_overlay::{Tree, TreeSet};
    use std::sync::Arc;

    let cfg = PeerConfig { track_truth: false, ..PeerConfig::default() };
    let reg = OpRegistry::new();
    let mut sim = SimBuilder::new(Topology::star(2, 1_000), 11)
        .build(move |id| MortarPeer::new(id, cfg, reg.clone()));
    // A finite feed: 100 µs cadence, dry after 4 s. By the end of the 7 s
    // warm-up the source is exhausted and the intake queue drained.
    let mut profile = BurstProfile::steady(100_000, 1.0);
    profile.until_us = 4_000_000;
    let mut spec = feed_spec(
        "dry_feed",
        profile,
        IntakePolicy::Backpressure { credits: 64 },
        None,
        10_000_000,
    );
    spec.members = vec![0];
    let trees = TreeSet::new(vec![Tree::from_parents(0, vec![None])]);
    let records = build_records(&spec.members, &trees);
    let msg = MortarMsg::Install {
        spec: Arc::new(spec),
        id: QueryId(1),
        seq: 1,
        records,
        issue_age_us: 0,
    };
    sim.inject(0, 0, msg, 256);
    sim.run_for_secs(7.0);
    assert!(
        crate::alloc_probe::probe_active(),
        "counting allocator not installed; run via the feeds bench binary"
    );
    let window_sim_secs = 2.4;
    let (allocs, _) = crate::alloc_probe::count_allocs(|| sim.run_for_secs(window_sim_secs));
    (allocs, window_sim_secs)
}

fn json_field(out: &mut String, key: &str, value: String) {
    out.push_str(&format!("  \"{key}\": {value},\n"));
}

/// Renders the artifact consumed by CI's `feed-burst` gate.
pub fn to_json(rows: &[PolicyRow], idle: (u64, f64)) -> String {
    let mut s = String::from("{\n");
    json_field(&mut s, "bench", "\"feeds\"".into());
    json_field(
        &mut s,
        "workload",
        "\"100-host fleet, 10x burst over [5 s, 10 s), one policy per run\"".into(),
    );
    json_field(&mut s, "hosts", HOSTS.to_string());
    json_field(&mut s, "sim_secs", format!("{SIM_SECS:.1}"));
    let arr = |f: &dyn Fn(&PolicyRow) -> String| {
        format!("[{}]", rows.iter().map(f).collect::<Vec<_>>().join(", "))
    };
    json_field(&mut s, "policies", arr(&|r| format!("\"{}\"", r.policy)));
    json_field(&mut s, "offered", arr(&|r| r.stats.offered.to_string()));
    json_field(&mut s, "delivered", arr(&|r| r.stats.delivered.to_string()));
    json_field(&mut s, "shed_tuples", arr(&|r| r.stats.shed_tuples.to_string()));
    json_field(&mut s, "sampled_out", arr(&|r| r.stats.sampled_out.to_string()));
    json_field(&mut s, "spilled", arr(&|r| r.stats.spilled.to_string()));
    json_field(&mut s, "spill_drops", arr(&|r| r.stats.spill_drops.to_string()));
    json_field(&mut s, "peak_queue_bytes", arr(&|r| r.stats.peak_queue_bytes.to_string()));
    json_field(&mut s, "peak_spill_bytes", arr(&|r| r.stats.peak_spill_bytes.to_string()));
    json_field(&mut s, "overcap", arr(&|r| r.stats.overcap.to_string()));
    json_field(&mut s, "conserved", arr(&|r| r.conserved.to_string()));
    json_field(&mut s, "base_bit_identical", arr(&|r| r.base_bit_identical.to_string()));
    // Steady-state allocation discipline with a (drained) feed installed.
    let (idle_allocs, idle_window) = idle;
    json_field(
        &mut s,
        "allocs_per_sim_sec",
        format!("{:.2}", idle_allocs as f64 / idle_window.max(1e-9)),
    );
    json_field(&mut s, "idle_alloc_window_sim_secs", format!("{idle_window:.1}"));
    s.push_str("  \"burst_factor\": 10\n}\n");
    s
}

/// Runs the harness and writes `BENCH_feeds.json` at the repo root.
pub fn run() {
    crate::banner("feeds", "intake policies under a 10x burst");
    let rows = policy_rows();
    println!(
        "\n{:>14} {:>9} {:>9} {:>7} {:>8} {:>8} {:>7} {:>9} {:>8} {:>8}",
        "policy",
        "offered",
        "delivered",
        "shed",
        "sampled",
        "spilled",
        "overcap",
        "peak-q(B)",
        "conserv",
        "base=="
    );
    for r in &rows {
        println!(
            "{:>14} {:>9} {:>9} {:>7} {:>8} {:>8} {:>7} {:>9} {:>8} {:>8}",
            r.policy,
            r.stats.offered,
            r.stats.delivered,
            r.stats.shed_tuples,
            r.stats.sampled_out,
            r.stats.spilled,
            r.stats.overcap,
            r.stats.peak_queue_bytes,
            r.conserved,
            r.base_bit_identical,
        );
    }
    let idle = feed_idle_alloc_run();
    println!(
        "\nidle ticks with a drained feed installed: {} allocations over {:.1} simulated \
         seconds ({:.2} allocs/sim-sec)",
        idle.0,
        idle.1,
        idle.0 as f64 / idle.1
    );
    let json = to_json(&rows, idle);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_feeds.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
