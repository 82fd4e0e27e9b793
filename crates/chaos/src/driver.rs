//! Executes scenarios, sweeps seed ranges, and shrinks failures.
//!
//! [`run_scenario`] builds an engine seeded from the scenario, installs a
//! base workload, applies the fault schedule at its simulated instants,
//! optionally force-heals, lets the fleet converge, then evaluates the
//! property oracles — against the log of control commands that reached
//! their roots — and folds every observable counter into one
//! fingerprint. Two runs of the same scenario — at any shard count —
//! must produce the same fingerprint; that determinism is itself one of
//! the properties the test suite asserts.
//!
//! [`sweep`] runs many generated scenarios; [`shrink`] reduces a failing
//! schedule to a minimal one by greedy delta debugging (drop one event
//! at a time, keep the drop whenever the failure survives).

use crate::oracle::{self, BaseQuery, CommandLog, OracleConfig, Violation};
use crate::scenario::{Fault, Scenario};
use mortar_core::engine::{Engine, EngineConfig};
use mortar_core::query::QuerySpec;
use mortar_core::{
    BurstProfile, FeedConnector, FeedSpec, IntakePolicy, MortarError, OpKind, SensorSpec,
    WindowSpec,
};
use mortar_net::{ChaosConfig, LocalClock, NodeId, TrafficClass};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How the driver turns a [`Scenario`] into a run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Simulator shard count (determinism must hold across values).
    pub shards: usize,
    /// Base queries installed before the fault window.
    pub base_queries: usize,
    /// Members per base query; `0` means every host participates.
    pub members_per_query: usize,
    /// Clean run-in before the first fault (seconds).
    pub settle_secs: f64,
    /// Clean run-out after the fault window (seconds) for anti-entropy
    /// to converge the fleet before the oracle pass.
    pub converge_secs: f64,
    /// Force-heal (clear partitions and chaos, revive every host,
    /// restore skewed clocks) before the converge phase. Disable to
    /// observe what an *unhealed* fleet looks like — used by tests that
    /// plant violations for the oracles to catch.
    pub heal_at_end: bool,
    /// Which properties to demand.
    pub oracles: OracleConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            base_queries: 3,
            members_per_query: 0,
            settle_secs: 5.0,
            converge_secs: 30.0,
            heal_at_end: true,
            oracles: OracleConfig::default(),
        }
    }
}

/// Everything a run reports back.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The scenario seed (keyed for sweep artifacts).
    pub seed: u64,
    /// FNV-1a fold of every observable counter: per-peer store
    /// fingerprints and stats, base-query result logs, transport stats,
    /// per-class bandwidth. Equal fingerprints = bit-for-bit replay.
    pub fingerprint: u64,
    /// Oracle violations (empty = clean run).
    pub violations: Vec<Violation>,
    /// Reconciliation wire messages sent, summed over the fleet.
    pub reconcile_msgs: u64,
    /// Reconciliation wire bytes sent, summed over the fleet.
    pub reconcile_bytes: u64,
    /// Reconciliation exchanges triggered (hash mismatches + heartbeat
    /// piggybacks), summed over the fleet.
    pub reconcile_rounds: u64,
    /// Transport messages delivered.
    pub delivered: u64,
    /// Transport messages dropped (chaos, partitions, dead hosts).
    pub dropped: u64,
    /// Duplicate deliveries suppressed by receiver dedup.
    pub duplicates_suppressed: u64,
    /// Mean completeness per base query (percent), in install order.
    pub completeness: Vec<f64>,
    /// Queries live on the directory at the end (base + surviving
    /// storm installs).
    pub installed_total: usize,
}

impl RunReport {
    /// Did any oracle fire?
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Deterministic member roster for the `idx`-th workload query: `m`
/// distinct hosts drawn from a seed-derived shuffle, rooted at the
/// first. A pure function of `(seed, idx)` so replays and shard sweeps
/// install identical workloads.
fn roster(seed: u64, idx: u64, hosts: usize, m: usize) -> Vec<NodeId> {
    let take = if m == 0 || m > hosts { hosts } else { m };
    let mut pool: Vec<NodeId> = (0..hosts as NodeId).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    pool.shuffle(&mut rng);
    pool.truncate(take);
    pool
}

fn sum_spec(name: String, members: Vec<NodeId>) -> QuerySpec {
    QuerySpec {
        name,
        root: members[0],
        members,
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(1_000_000),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: 1_000_000, value: 1.0 },
        post: None,
    }
}

/// A control command injected at its root, not yet delivered:
/// `(name, root, install)`.
type Pending = (String, NodeId, bool);

/// Advances simulated time by `secs`. Commands injected since the last
/// advance are delivered at its first instant, so each one enters `log`
/// exactly when its root is up now; an inject at a down host is dropped.
fn advance(eng: &mut Engine, secs: f64, pending: &mut Vec<Pending>, log: &mut CommandLog) {
    if secs > 0.0 {
        for (name, root, install) in pending.drain(..) {
            if !eng.sim.is_up(root) {
                continue;
            }
            if install {
                log.install(&name);
            } else {
                log.remove(&name);
            }
        }
    }
    eng.run_secs(secs);
}

/// Execute one scenario and evaluate the oracles over the aftermath.
///
/// Errors only on a malformed configuration or workload; fault-induced
/// misbehavior is reported through [`RunReport::violations`], never as
/// an `Err`.
pub fn run_scenario(sc: &Scenario, cfg: &RunConfig) -> Result<RunReport, MortarError> {
    let hosts = sc.hosts;
    let mut ecfg = EngineConfig::paper(hosts, sc.seed);
    ecfg.plan_on_true_latency = true;
    ecfg.shards = cfg.shards;
    let mut eng = Engine::new(ecfg)?;

    let mut log = CommandLog::default();
    let mut pending: Vec<Pending> = Vec::new();
    let mut base = Vec::with_capacity(cfg.base_queries);
    for i in 0..cfg.base_queries {
        let members = roster(sc.seed, i as u64, hosts, cfg.members_per_query);
        let spec = sum_spec(format!("base{i}"), members.clone());
        let root = spec.root;
        eng.install(spec)?;
        pending.push((format!("base{i}"), root, true));
        base.push(BaseQuery { name: format!("base{i}"), root, members: members.len() });
    }
    advance(&mut eng, cfg.settle_secs, &mut pending, &mut log);

    // Apply the schedule. `cursor` tracks simulated ms inside the fault
    // window; events are pre-sorted by the scenario contract.
    let mut cursor = 0u64;
    let mut storms: Vec<(String, NodeId)> = Vec::new();
    let mut skewed: Vec<NodeId> = Vec::new();
    let mut storm_seq = 0u64;
    let mut bursts: Vec<String> = Vec::new();
    let mut burst_seq = 0u64;
    for ev in &sc.events {
        let at = ev.at_ms.min(sc.duration_ms);
        if at > cursor {
            advance(&mut eng, (at - cursor) as f64 / 1000.0, &mut pending, &mut log);
            cursor = at;
        }
        match &ev.fault {
            Fault::Chaos { drop_prob, dup_prob, reorder_jitter_us } => {
                eng.sim.set_chaos(ChaosConfig {
                    drop_prob: *drop_prob,
                    dup_prob: *dup_prob,
                    reorder_jitter_us: *reorder_jitter_us,
                });
            }
            Fault::ClearChaos => eng.sim.set_chaos(ChaosConfig::none()),
            Fault::Partition { boundary, symmetric } => {
                for n in 0..hosts as NodeId {
                    eng.sim.set_net_group(n, u8::from(n >= *boundary));
                }
                eng.sim.set_group_block(0, 1, true);
                if *symmetric {
                    eng.sim.set_group_block(1, 0, true);
                }
            }
            Fault::Heal => eng.sim.clear_partition(),
            Fault::Kill { nodes } => {
                for &n in nodes {
                    eng.sim.set_host_up(n, false);
                }
            }
            Fault::Revive { nodes } => {
                for &n in nodes {
                    eng.sim.set_host_up(n, true);
                }
            }
            Fault::Skew { node, offset_us } => {
                eng.sim.set_clock(*node, LocalClock::with_offset(*offset_us));
                if *offset_us != 0 {
                    skewed.push(*node);
                }
            }
            Fault::InstallStorm { count } => {
                for _ in 0..*count {
                    let members = roster(sc.seed ^ 0x5707_9A11, storm_seq, hosts, 4.min(hosts));
                    let name = format!("storm{storm_seq}");
                    storm_seq += 1;
                    let spec = sum_spec(name.clone(), members);
                    let root = spec.root;
                    eng.install(spec)?;
                    pending.push((name.clone(), root, true));
                    storms.push((name, root));
                }
            }
            Fault::RemoveStorm { count } => {
                // A removal is minted at the query's root; issuing one to
                // a dead root would lose the command (best-effort control
                // plane), so such queries stay on the storm list for a
                // later wave. A root killed before the next advance still
                // loses it — the command log only counts delivered ones.
                let mut kept = Vec::new();
                for _ in 0..*count {
                    match storms.pop() {
                        Some((name, root)) if eng.sim.is_up(root) => {
                            eng.remove(&name, root)?;
                            pending.push((name, root, false));
                        }
                        Some(dead_rooted) => kept.push(dead_rooted),
                        None => break,
                    }
                }
                storms.extend(kept.into_iter().rev());
            }
            Fault::LinkLoss { src, dst, pct } => eng.sim.set_link_loss(*src, *dst, *pct),
            Fault::HealLinks => eng.sim.clear_link_loss(),
            Fault::Burst { factor, len_ms, policy } => {
                // An overload wave: install a feed-driven query whose
                // synthetic source bursts `factor`× from activation for
                // `len_ms`, guarded by the scenario-picked intake policy.
                // Burst queries are never removed (they are workload, not
                // control-plane churn) and count toward installed_total.
                let members = roster(sc.seed ^ 0x0B57_BEEF, burst_seq, hosts, 4.min(hosts));
                let name = format!("burst{burst_seq}");
                burst_seq += 1;
                let mut spec = sum_spec(name.clone(), members);
                let profile =
                    BurstProfile::steady(250_000, 1.0).with_burst(0, len_ms * 1_000, *factor);
                let policy = match policy % 4 {
                    0 => IntakePolicy::Backpressure { credits: 256 },
                    1 => IntakePolicy::Shed { watermark: 256 },
                    2 => IntakePolicy::Sample { keep_1_in_n: 4 },
                    _ => IntakePolicy::Spill { cap_bytes: 16_384 },
                };
                spec.sensor =
                    SensorSpec::Feed(FeedSpec::new(FeedConnector::Bursty(profile), policy));
                let root = spec.root;
                eng.install(spec)?;
                pending.push((name.clone(), root, true));
                bursts.push(name);
            }
        }
    }
    if sc.duration_ms > cursor {
        advance(&mut eng, (sc.duration_ms - cursor) as f64 / 1000.0, &mut pending, &mut log);
    }

    if cfg.heal_at_end {
        eng.sim.clear_partition();
        eng.sim.clear_link_loss();
        eng.sim.set_chaos(ChaosConfig::none());
        for n in 0..hosts as NodeId {
            eng.sim.set_host_up(n, true);
        }
        for n in skewed {
            eng.sim.set_clock(n, LocalClock::perfect());
        }
    }
    advance(&mut eng, cfg.converge_secs, &mut pending, &mut log);

    let mut ocfg = cfg.oracles.clone();
    if sc.events.iter().any(|e| matches!(e.fault, Fault::Skew { offset_us, .. } if offset_us != 0))
    {
        // Conservation sums late partials per window index, which is only
        // sound while time-division holds — a clock jump re-opens already
        // emitted indices and legitimately re-reports their sources. Under
        // skew bursts the property is not observable through this metric.
        ocfg.require_conservation = false;
    }
    let violations = oracle::evaluate(&eng, &base, &log, &ocfg);

    let mut h = FNV_OFFSET;
    let mut reconcile_msgs = 0u64;
    let mut reconcile_bytes = 0u64;
    let mut reconcile_rounds = 0u64;
    for n in 0..hosts as NodeId {
        let p = eng.sim.app(n);
        fnv(&mut h, p.store_fingerprint());
        let s = &p.stats;
        for v in [
            s.route_drops,
            s.evictions,
            s.summaries_in,
            s.frames_in,
            s.summaries_out,
            s.frames_out,
            s.envelopes_out,
            s.envelopes_in,
            s.summary_payload_bytes_out,
            s.reconciles,
            s.reconcile_msgs_out,
            s.reconcile_bytes_out,
        ] {
            fnv(&mut h, v);
        }
        reconcile_msgs += s.reconcile_msgs_out;
        reconcile_bytes += s.reconcile_bytes_out;
        reconcile_rounds += s.reconciles;
    }
    let mut completeness = Vec::with_capacity(base.len());
    for q in &base {
        let ours: Vec<_> =
            eng.results(q.root).iter().filter(|r| r.query.as_ref() == q.name).cloned().collect();
        for r in &ours {
            fnv(&mut h, r.tb as u64);
            fnv(&mut h, r.te as u64);
            fnv(&mut h, r.scalar.map_or(u64::MAX, f64::to_bits));
            fnv(&mut h, r.participants as u64);
        }
        completeness.push(mortar_core::metrics::mean_completeness(
            &ours,
            q.members,
            cfg.oracles.skip_first_windows,
        ));
    }
    let stats = eng.sim.stats();
    for v in [stats.sent, stats.delivered, stats.dropped, stats.duplicates_suppressed] {
        fnv(&mut h, v);
    }
    let bw = eng.sim.bandwidth();
    for class in [TrafficClass::Data, TrafficClass::Heartbeat, TrafficClass::Control] {
        fnv(&mut h, bw.msgs_total(class));
        fnv(&mut h, bw.bytes_total(class));
    }
    // Feed intake counters are part of the replay contract too: a burst
    // wave that sheds or spills differently across shard counts must
    // show up as a fingerprint divergence.
    let (feed, feed_conserved, feed_held) = eng.feed_totals();
    for v in [
        feed.offered,
        feed.delivered,
        feed.shed_tuples,
        feed.sampled_out,
        feed.spilled,
        feed.spill_drops,
        feed.peak_queue_bytes,
        feed.peak_spill_bytes,
        feed.overcap,
        u64::from(feed_conserved),
        feed_held,
    ] {
        fnv(&mut h, v);
    }

    let installed_total = base
        .iter()
        .map(|q| q.name.clone())
        .chain(storms.into_iter().map(|(n, _)| n))
        .chain(bursts)
        .count();
    Ok(RunReport {
        seed: sc.seed,
        fingerprint: h,
        violations,
        reconcile_msgs,
        reconcile_bytes,
        reconcile_rounds,
        delivered: stats.delivered,
        dropped: stats.dropped,
        duplicates_suppressed: stats.duplicates_suppressed,
        completeness,
        installed_total,
    })
}

/// A sweep's aggregate outcome.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// `(seed, report)` per scenario, in sweep order.
    pub outcomes: Vec<(u64, RunReport)>,
}

impl SweepReport {
    /// The first failing seed, if any.
    pub fn first_failure(&self) -> Option<u64> {
        self.outcomes.iter().find(|(_, r)| r.failed()).map(|(s, _)| *s)
    }

    /// How many scenarios failed an oracle.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|(_, r)| r.failed()).count()
    }
}

/// Generate and run one scenario per seed.
pub fn sweep(
    seeds: impl IntoIterator<Item = u64>,
    hosts: usize,
    duration_ms: u64,
    cfg: &RunConfig,
) -> Result<SweepReport, MortarError> {
    let mut outcomes = Vec::new();
    for seed in seeds {
        let sc = Scenario::generate(seed, hosts, duration_ms);
        let report = run_scenario(&sc, cfg)?;
        outcomes.push((seed, report));
    }
    Ok(SweepReport { outcomes })
}

/// Greedy delta debugging: repeatedly drop single events while the
/// scenario still fails any oracle, until no single drop preserves the
/// failure. The result is a locally-minimal fault schedule — the repro
/// a failing sweep uploads.
///
/// If `sc` does not fail under `cfg`, it is returned unchanged.
pub fn shrink(sc: &Scenario, cfg: &RunConfig) -> Result<Scenario, MortarError> {
    let mut cur = sc.clone();
    if !run_scenario(&cur, cfg)?.failed() {
        return Ok(cur);
    }
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < cur.events.len() {
            let mut cand = cur.clone();
            cand.events.remove(i);
            if run_scenario(&cand, cfg)?.failed() {
                cur = cand;
                improved = true;
            } else {
                i += 1;
            }
        }
        if !improved {
            return Ok(cur);
        }
    }
}
