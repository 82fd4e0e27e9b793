//! The four workloads: generator → setup → timed region → collect + check.
//!
//! One process, one load-generating thread. The host clock runs only
//! inside calls into the engine (`run_secs`, and `install`/`remove` in
//! churn100); draining, polling and generation are outside it. Run length
//! is a constant number of simulated seconds per workload (scaled by the
//! `--seconds` argument, never by the clock), because throughput depends
//! on it: steady100's slices slow down as the run grows.

use crate::gen::{self, ChurnEvent, ChurnOp, ChurnShape};
use crate::span::{Recorder, Span};
use crate::stats::{weighted_percentile, Fnv};
use mortar_core::engine::{Engine, EngineConfig};
use mortar_core::metrics::ResultRecord;
use mortar_core::op::{KeyField, OpKind};
use mortar_core::query::{QuerySpec, SensorSpec};
use mortar_core::tuple::RawTuple;
use mortar_core::window::WindowSpec;
use mortar_net::{ChaosConfig, NodeId, TrafficClass};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady100,
    Keyed100,
    Fleet1000,
    Churn100,
}

pub const ALL: [Workload; 4] =
    [Workload::Steady100, Workload::Keyed100, Workload::Fleet1000, Workload::Churn100];

/// The deployment — topology, planner and simulator randomness — is the
/// same on every run. `--seed` feeds only the generators: the instant the
/// queries are installed, the key traces, the churn schedule. Topology and
/// tree shape move every simulated statistic by 5–25 % from seed to seed,
/// which would force bounds too wide to catch anything.
pub const DEPLOYMENT_SEED: u64 = 13;
/// `--seconds` value at which the timed regions below are used unscaled.
pub const REFERENCE_SECONDS: u64 = 10;
/// Simulated warm-up before the timed region (install multicast, first
/// windows, netDist settling from its 2.5 s initial estimate).
pub const WARMUP_SIM_S: u64 = 30;
/// After the timed region the run continues this long so the last windows
/// can report (steady100's 99th-percentile lag is 22 sim-s); a window still
/// missing then has failed. On churn100 the fleet is healed first and the
/// same period lets anti-entropy finish.
pub const GRACE_SIM_S: u64 = 30;
/// An install must converge, and a removal leave no residue, within this.
pub const CONTROL_DEADLINE_SIM_S: u64 = 30;
/// Windows of a freshly installed churn query are not expected (nor
/// counted towards completeness) until it has had this long to connect.
pub const CHURN_QUERY_WARMUP_SIM_S: u64 = 10;
/// A removal discards the windows its root has not reported yet, so
/// windows due this close before a removal are not expected either.
pub const REMOVAL_QUIET_SIM_S: u64 = 20;
/// Install convergence is polled every simulated millisecond while an
/// install is younger than this, then once per 50 ms slice: the multicast
/// lands within ~0.1 sim-s, and a 50 ms grid would quantise that away.
pub const FINE_POLL_SIM_MS: u64 = 1_000;
/// Group cap of the keyed query: headroom over the 64 live classes, so
/// overflow never kicks in and every merge is key-wise.
pub const KEYED_CAP: usize = 128;
/// fleet1000's query mix: (slide ms, how many).
pub const FLEET_MIX: [(u64, usize); 3] = [(25, 1), (1_000, 4), (10_000, 8)];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady100 => "steady100",
            Workload::Keyed100 => "keyed100",
            Workload::Fleet1000 => "fleet1000",
            Workload::Churn100 => "churn100",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::Steady100 => {
                "100 hosts, one 25 ms scalar sum, no faults: the data plane alone (tick, TS-list, \
                 frames, delivery), long enough to expose TS-list growth and slice drift"
            }
            Workload::Keyed100 => {
                "steady100 with a 64-class Zipf keyed sum: only the value type changes, so map \
                 merge, key-range split and larger payloads do the work"
            }
            Workload::Fleet1000 => {
                "1000 hosts, 13 sums at 25 ms/1 s/10 s slides: event-loop and scheduler bound, \
                 biggest heap, most queries idle per tick, planner-heavy setup"
            }
            Workload::Churn100 => {
                "100 hosts under 2% drop/1% dup/jitter with install/remove rounds and host \
                 disconnects: control plane, reconcile and failover beside a light data plane"
            }
        }
    }

    pub fn hosts(self) -> usize {
        match self {
            Workload::Fleet1000 => 1000,
            _ => 100,
        }
    }

    /// Timed simulated seconds at [`REFERENCE_SECONDS`]: constants sized so
    /// each region takes at least 4 s of host time on the reference box.
    pub fn reference_sim_s(self) -> u64 {
        match self {
            Workload::Steady100 => 1200,
            Workload::Keyed100 => 600,
            Workload::Fleet1000 => 120,
            Workload::Churn100 => 1200,
        }
    }

    /// Timed-region slice, ms of simulated time per `run_secs` call.
    pub fn slice_ms(self) -> u64 {
        match self {
            Workload::Steady100 | Workload::Keyed100 => 5_000,
            Workload::Fleet1000 => 1_000,
            // Install convergence is polled once per slice.
            Workload::Churn100 => 50,
        }
    }

    /// Timed simulated seconds for a `--seconds` argument: proportional,
    /// rounded down to whole slices of at least one second.
    pub fn timed_sim_s(self, seconds: u64) -> u64 {
        let step = (self.slice_ms() / 1000).max(1);
        let s = self.reference_sim_s() * seconds / REFERENCE_SECONDS;
        (s / step * step).max(step)
    }

    /// Set-ups per contract run, `setup_s` being their median: more where
    /// a set-up is cheap, so that the median of a 30 ms set-up is as steady
    /// as that of a 5 s one.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::Steady100 => 15,
            Workload::Keyed100 => 9,
            Workload::Fleet1000 => 3,
            Workload::Churn100 => 25,
        }
    }

    fn faulty(self) -> bool {
        self == Workload::Churn100
    }
}

pub fn churn_shape() -> ChurnShape {
    ChurnShape {
        hosts: 100,
        protected: vec![0],
        install_every_s: 10,
        installs_per_round: 5,
        max_live: 25,
        members_min: 20,
        members_max: 60,
        disconnect_every_s: 30,
        disconnect_phase_s: 12,
        disconnect_hosts: 10,
        disconnect_for_s: 15,
    }
}

/// Fleet-wide cumulative counters read from the public stats surfaces.
/// Sums are differenced across the timed region; peaks are as-of-reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub dups_suppressed: u64,
    pub ticks: u64,
    pub idle_ticks: u64,
    pub query_wakeups: u64,
    pub evictions: u64,
    pub summaries_in: u64,
    pub summaries_out: u64,
    pub frames_out: u64,
    pub envelopes_out: u64,
    pub route_drops: u64,
    pub hops_accum: u64,
    pub hops_samples: u64,
    pub reconciles: u64,
    pub reconcile_msgs: u64,
    pub reconcile_bytes: u64,
    pub installs_applied: u64,
    pub removals_applied: u64,
    /// Link-bytes per traffic class: data, heartbeat, control.
    pub bytes: [u64; 3],
    pub msgs: [u64; 3],
    pub ts_peak_entries: u64,
    pub outbox_peak_bytes: u64,
}

const CLASSES: [TrafficClass; 3] =
    [TrafficClass::Data, TrafficClass::Heartbeat, TrafficClass::Control];

impl Counters {
    pub fn read(eng: &Engine) -> Self {
        let s = eng.sim.stats();
        let mut c = Counters {
            sent: s.sent,
            delivered: s.delivered,
            dropped: s.dropped,
            dups_suppressed: s.duplicates_suppressed,
            ..Default::default()
        };
        for p in eng.sim.apps() {
            let st = &p.stats;
            c.ticks += st.ticks;
            c.idle_ticks += st.idle_ticks;
            c.query_wakeups += st.query_wakeups;
            c.evictions += st.evictions;
            c.summaries_in += st.summaries_in;
            c.summaries_out += st.summaries_out;
            c.frames_out += st.frames_out;
            c.envelopes_out += st.envelopes_out;
            c.route_drops += st.route_drops;
            c.hops_accum += st.hops_accum;
            c.hops_samples += st.hops_samples;
            c.reconciles += st.reconciles;
            c.reconcile_msgs += st.reconcile_msgs_out;
            c.reconcile_bytes += st.reconcile_bytes_out;
            c.installs_applied += st.installs;
            c.removals_applied += st.removals;
            c.ts_peak_entries = c.ts_peak_entries.max(st.ts_peak_entries);
            c.outbox_peak_bytes = c.outbox_peak_bytes.max(st.outbox_peak_bytes);
        }
        let bw = eng.sim.bandwidth();
        for (i, class) in CLASSES.into_iter().enumerate() {
            c.bytes[i] = bw.bytes_total(class);
            c.msgs[i] = bw.msgs_total(class);
        }
        c
    }

    /// `self − earlier` for the sums; peaks keep `self`'s reading.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut d = *self;
        macro_rules! sub {
            ($($f:ident),+) => {$( d.$f = self.$f - earlier.$f; )+};
        }
        sub!(
            sent,
            delivered,
            dropped,
            dups_suppressed,
            ticks,
            idle_ticks,
            query_wakeups,
            evictions,
            summaries_in,
            summaries_out,
            frames_out,
            envelopes_out,
            route_drops,
            hops_accum,
            hops_samples,
            reconciles,
            reconcile_msgs,
            reconcile_bytes,
            installs_applied,
            removals_applied
        );
        for i in 0..3 {
            d.bytes[i] = self.bytes[i] - earlier.bytes[i];
            d.msgs[i] = self.msgs[i] - earlier.msgs[i];
        }
        d
    }
}

/// One window's records folded together: multipath routing may deliver a
/// window to the root in several disjoint fragments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fold {
    pub participants: u32,
    pub value: f64,
    pub fragments: u32,
    /// Σ over fragments of the longest overlay path among constituents.
    pub hops_sum: u32,
    /// Per fragment: (result lag ms, clamped at 0; participants).
    pub lags: Vec<(f64, u64)>,
}

impl Fold {
    pub fn absorb(&mut self, r: &ResultRecord) {
        self.participants += r.participants;
        self.value += record_value(r);
        self.fragments += 1;
        self.hops_sum += r.path_len as u32;
        self.lags.push((r.due_lag_us.max(0) as f64 / 1000.0, r.participants as u64));
    }
}

/// A record's value: its scalar, or for a keyed state the sum of its
/// groups' scalars. A boundary-only record carries no value.
pub fn record_value(r: &ResultRecord) -> f64 {
    match r.state.groups() {
        Some(groups) => groups.values().filter_map(|g| g.scalar()).sum(),
        None => r.scalar.unwrap_or(0.0),
    }
}

/// A query the run follows from install to (possible) removal.
struct Tracked {
    name: String,
    members: Vec<NodeId>,
    slide_us: i64,
    /// Simulated µs at which `install` was called: the origin of the
    /// query's syncless index frame.
    installed_at_us: i64,
    /// Members that have been up ever since the install: the ones the
    /// install multicast itself must reach. (Members that were down join
    /// later through reconciliation, which the final store-fingerprint
    /// check covers.)
    reachable: Vec<NodeId>,
    /// Windows due (frame end, as true time) in `(count_from, count_to]`
    /// are expected and count towards completeness.
    count_from_us: i64,
    count_to_us: i64,
    removed_at_us: Option<i64>,
    windows: BTreeMap<i64, Fold>,
    converged: bool,
    residue_checked: bool,
}

impl Tracked {
    fn expected_windows(&self) -> u64 {
        let to = (self.count_to_us - self.installed_at_us).div_euclid(self.slide_us);
        let from = (self.count_from_us - self.installed_at_us).div_euclid(self.slide_us);
        (to - from).max(0) as u64
    }
}

/// Host-time measurements of one pass (noisy; summarised over repeats).
#[derive(Debug, Clone, Default)]
pub struct HostTimes {
    pub generator_s: f64,
    pub topology_s: f64,
    pub engine_new_s: f64,
    pub plan_s: f64,
    pub install_s: f64,
    pub warmup_s: f64,
    pub setup_s: f64,
    /// Host seconds inside engine calls during the timed region.
    pub timed_s: f64,
    pub slices_ns: Vec<u64>,
    pub drain_ns: u64,
    pub plan_calls_ns: Vec<u64>,
    pub install_calls_ns: Vec<u64>,
    pub remove_calls_ns: Vec<u64>,
    /// Run-queue wait of this thread during the timed region
    /// (`/proc/self/schedstat`), ns: how much the box interfered.
    pub runq_wait_ns: u64,
    /// Allocation calls during the timed region (traced pass only).
    pub timed_allocs: u64,
}

/// Simulated statistics of one pass: a pure function of (workload, seed,
/// run length) that must repeat bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResults {
    pub timed_sim_s: u64,
    pub completeness_pct: f64,
    pub windows_counted: u64,
    pub result_lag_ms_p50: f64,
    pub result_lag_ms_p99: f64,
    pub lag_samples: u64,
    pub wire_bytes_per_result: f64,
    pub wire_msgs_per_result: f64,
    pub results_reported: u64,
    pub install_converge_ms_p50: f64,
    pub install_converge_ms_p90: f64,
    pub converge_samples: u64,
    /// Raw tuples the sources lifted for expected windows (one per member
    /// per window): the count `op.lift_ns` is priced against.
    pub tuples_lifted: u64,
    /// Mean over reported fragments of the longest overlay path among a
    /// fragment's constituents.
    pub mean_hops: f64,
    pub attempted: u64,
    pub failed: u64,
    pub windows_missing: u64,
    pub installs_failed: u64,
    /// Installs some reachable member knew of but never connected to.
    pub installs_stranded: u64,
    pub installs_attempted: u64,
    pub removes_attempted: u64,
    pub removes_failed: u64,
    pub fingerprint: u64,
    pub input_digest: u64,
    pub counters: Counters,
}

pub struct Pass {
    pub host: HostTimes,
    pub sim: SimResults,
    /// Output checks that failed; empty means the outputs are correct.
    pub check_failures: Vec<String>,
    pub spans: Vec<Span>,
}

#[derive(Debug, Clone, Copy)]
pub struct PassOpts {
    pub seed: u64,
    pub timed_sim_s: u64,
    pub shards: usize,
    pub trace: bool,
}

fn sum_spec(name: &str, members: Vec<NodeId>, slide_us: u64) -> QuerySpec {
    QuerySpec {
        name: name.to_string(),
        root: members[0],
        members,
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(slide_us),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: slide_us, value: 1.0 },
        post: None,
    }
}

fn base_specs(w: Workload) -> Vec<QuerySpec> {
    let all: Vec<NodeId> = (0..w.hosts() as NodeId).collect();
    match w {
        Workload::Steady100 => vec![sum_spec("steady", all, 25_000)],
        Workload::Keyed100 => {
            let mut spec = sum_spec("keyed", all, 25_000);
            spec.op = OpKind::Keyed {
                key_field: KeyField::TupleKey,
                cap: KEYED_CAP,
                inner: Box::new(OpKind::Sum { field: 0 }),
            };
            spec.sensor = SensorSpec::Replay;
            vec![spec]
        }
        Workload::Fleet1000 => {
            let mut specs = Vec::new();
            for (slide_ms, count) in FLEET_MIX {
                for _ in 0..count {
                    let name = format!("fleet{}", specs.len());
                    specs.push(sum_spec(&name, all.clone(), slide_ms * 1000));
                }
            }
            specs
        }
        Workload::Churn100 => {
            (0..4).map(|i| sum_spec(&format!("base{i}"), all.clone(), 1_000_000)).collect()
        }
    }
}

/// The peer tick of the deployment (the workloads keep the default).
fn cfg_tick_us() -> u64 {
    mortar_core::peer::PeerConfig::default().tick_us
}

fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|w| w.parse().ok()))
        .unwrap_or(0)
}

/// Everything a pass carries between its phases.
struct Run {
    eng: Engine,
    rec: Recorder,
    host: HostTimes,
    tracked: Vec<Tracked>,
    by_name: HashMap<String, usize>,
    /// Drain cursor per peer that has rooted a query.
    cursors: BTreeMap<NodeId, u64>,
    up: Vec<bool>,
    converge_ms: Vec<f64>,
    fingerprint: Fnv,
    failures: Vec<String>,
    installs_failed: u64,
    installs_stranded: u64,
    removes_failed: u64,
    installs_attempted: u64,
    removes_attempted: u64,
}

const US: i64 = 1_000_000;

impl Run {
    fn now_us(&self) -> i64 {
        self.eng.sim.now() as i64
    }

    fn fail(&mut self, what: String) {
        // Keep the report readable when one defect trips thousands of
        // windows: the count still shows in `failed`.
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    fn track(&mut self, spec: &QuerySpec, count_from_us: i64) {
        self.by_name.insert(spec.name.clone(), self.tracked.len());
        let seq = self.eng.result_seq(spec.root);
        self.cursors.entry(spec.root).or_insert(seq);
        self.tracked.push(Tracked {
            name: spec.name.clone(),
            members: spec.members.clone(),
            reachable: spec.members.iter().copied().filter(|&m| self.up[m as usize]).collect(),
            slide_us: spec.window.slide as i64,
            installed_at_us: self.now_us(),
            count_from_us,
            count_to_us: i64::MAX,
            removed_at_us: None,
            windows: BTreeMap::new(),
            converged: false,
            residue_checked: false,
        });
    }

    /// Moves new root results into the per-query folds. Outside the host
    /// clock; its own span and total so a shift into it shows.
    fn drain(&mut self) {
        let open = self.rec.begin("timed.drain");
        let roots: Vec<NodeId> = self.cursors.keys().copied().collect();
        for root in roots {
            let cursor = self.cursors[&root];
            let next = self.eng.result_seq(root);
            if next == cursor {
                continue;
            }
            let records = self.eng.results_from(root, cursor);
            if records.len() as u64 != next - cursor {
                self.failures.push(format!(
                    "result ring at peer {root} overflowed between drains ({} of {} kept)",
                    records.len(),
                    next - cursor
                ));
            }
            for r in records {
                let Some(&qi) = self.by_name.get(&*r.query) else { continue };
                let q = &mut self.tracked[qi];
                let value = record_value(r);
                self.fingerprint.word(qi as u64);
                self.fingerprint.word(r.tb as u64);
                self.fingerprint.word(r.participants as u64);
                self.fingerprint.word(value.to_bits());
                if let Some(removed) = q.removed_at_us {
                    let late = r.emit_true_us as i64 - removed;
                    if late > CONTROL_DEADLINE_SIM_S as i64 * US && self.failures.len() < 20 {
                        self.failures.push(format!(
                            "{} reported a result {:.1} s after its removal",
                            q.name,
                            late as f64 / 1e6
                        ));
                    }
                }
                // The upper end of the expected range is only known once
                // the query is removed or the run ends; `finish` prunes.
                if q.installed_at_us + r.te <= q.count_from_us {
                    continue;
                }
                q.windows.entry(r.tb).or_default().absorb(r);
            }
            self.cursors.insert(root, next);
        }
        self.host.drain_ns += self.rec.end(open);
    }

    /// Follows installs and removals to their deadlines.
    ///
    /// An install has *converged* once every reachable member is connected
    /// to the plan; that instant is the convergence sample. At the
    /// deadline (`force`: now) an unconverged install is *stranded* if
    /// every reachable member at least knows the query — a member that
    /// learnt it through reconciliation asks the root for its plan record
    /// once, and a lost request or reply is never retried — and has
    /// *failed* if some reachable member has never heard of it. A removal
    /// fails if a reachable member still runs the query at its deadline.
    fn poll_control(&mut self, force: bool) {
        let now = self.now_us();
        let deadline = CONTROL_DEADLINE_SIM_S as i64 * US;
        for qi in 0..self.tracked.len() {
            let q = &self.tracked[qi];
            if !q.converged && q.removed_at_us.is_none() {
                let app = |m: NodeId| self.eng.sim.app(m);
                if q.reachable.iter().all(|&m| app(m).is_active(&q.name)) {
                    self.converge_ms.push((now - q.installed_at_us) as f64 / 1000.0);
                    self.tracked[qi].converged = true;
                } else if force || now - q.installed_at_us >= deadline {
                    if q.reachable.iter().all(|&m| app(m).has_query(&q.name)) {
                        self.installs_stranded += 1;
                    } else {
                        self.installs_failed += 1;
                        let what =
                            format!("{} unknown to a reachable member after 30 sim-s", q.name);
                        self.fail(what);
                    }
                    self.tracked[qi].converged = true;
                }
            }
            let q = &self.tracked[qi];
            let Some(removed) = q.removed_at_us else { continue };
            if !q.residue_checked && (force || now - removed >= deadline) {
                let residue = q
                    .members
                    .iter()
                    .filter(|&&m| self.up[m as usize] && self.eng.sim.app(m).has_query(&q.name))
                    .count();
                if residue > 0 {
                    self.removes_failed += 1;
                    let what =
                        format!("{} still at {residue} peers 30 sim-s after removal", q.name);
                    self.fail(what);
                }
                self.tracked[qi].residue_checked = true;
            }
        }
    }

    /// Runs `ms` simulated milliseconds under the host clock — in 1 ms
    /// steps with a convergence poll after each while an install is young.
    fn slice(&mut self, name: &'static str, ms: u64) -> u64 {
        let open = self.rec.begin(name);
        let mut on_clock = 0;
        let mut left = ms;
        while left > 0 {
            let now = self.now_us();
            let young = self
                .tracked
                .iter()
                .any(|q| !q.converged && now - q.installed_at_us < FINE_POLL_SIM_MS as i64 * 1000);
            let step = if young { 1 } else { left };
            let t = std::time::Instant::now();
            self.eng.run_secs(step as f64 / 1000.0);
            on_clock += t.elapsed().as_nanos() as u64;
            if young {
                self.poll_control(false);
            }
            left -= step;
        }
        self.rec.end(open);
        on_clock
    }

    /// Applies one churn event; returns the host ns of the engine calls
    /// that are on the clock (`install`, `remove`).
    fn apply(&mut self, op: &ChurnOp) -> u64 {
        match op {
            ChurnOp::Install { q, members, slide_ms } => {
                let spec = sum_spec(&format!("c{q}"), members.clone(), *slide_ms as u64 * 1000);
                self.track(&spec, self.now_us() + CHURN_QUERY_WARMUP_SIM_S as i64 * US);
                self.installs_attempted += 1;
                let eng = &mut self.eng;
                let (res, ns) = self.rec.span("timed.install", || eng.install(spec));
                if let Err(e) = res {
                    self.installs_failed += 1;
                    self.fail(format!("install c{q} rejected: {e:?}"));
                }
                self.host.install_calls_ns.push(ns);
                ns
            }
            ChurnOp::Remove { q, root } => {
                let name = format!("c{q}");
                let now = self.now_us();
                if let Some(&qi) = self.by_name.get(&name) {
                    let t = &mut self.tracked[qi];
                    t.removed_at_us = Some(now);
                    t.count_to_us = t.count_to_us.min(now - REMOVAL_QUIET_SIM_S as i64 * US);
                }
                self.removes_attempted += 1;
                let eng = &mut self.eng;
                let (res, ns) = self.rec.span("timed.remove", || eng.remove(&name, *root));
                if let Err(e) = res {
                    self.removes_failed += 1;
                    self.fail(format!("remove {name} rejected: {e:?}"));
                }
                self.host.remove_calls_ns.push(ns);
                ns
            }
            ChurnOp::Disconnect { hosts } | ChurnOp::Reconnect { hosts } => {
                let up = matches!(op, ChurnOp::Reconnect { .. });
                let eng = &mut self.eng;
                // Flipping a link is bookkeeping, not engine work: it gets
                // a span but stays off the host clock.
                let _ = self.rec.span("timed.fault", || {
                    for &h in hosts {
                        eng.set_host_up(h, up);
                    }
                });
                for &h in hosts {
                    self.up[h as usize] = up;
                }
                if !up {
                    for q in self.tracked.iter_mut().filter(|q| !q.converged) {
                        q.reachable.retain(|m| !hosts.contains(m));
                    }
                }
                0
            }
        }
    }
}

/// Sets `w` up and measures only that: the extra set-ups a run makes so
/// that `setup_s` is a median, not one sample. The engine is dropped.
pub fn setup_only(w: Workload, opts: &PassOpts) -> f64 {
    set_up(w, opts).0.host.setup_s
}

/// Runs one pass of `w`: a fresh engine, set up, driven and checked.
pub fn run_pass(w: Workload, opts: &PassOpts) -> Pass {
    let (run, schedule, input_digest) = set_up(w, opts);
    drive(w, opts, run, &schedule, input_digest)
}

/// Generator, topology, engine, plan, install and warm-up: everything up
/// to the start of the timed region.
fn set_up(w: Workload, opts: &PassOpts) -> (Run, Vec<ChurnEvent>, u64) {
    let hosts = w.hosts();
    let mut rec = Recorder::new(opts.trace);
    let mut host = HostTimes::default();
    let secs = |ns: u64| ns as f64 / 1e9;
    let setup_start = std::time::Instant::now();
    let setup_span = rec.begin("setup");

    // Generator: the inputs, from the seed alone.
    let total_sim_s = WARMUP_SIM_S + opts.timed_sim_s + GRACE_SIM_S;
    let ((traces, schedule), ns) = rec.span("setup.generator", || {
        let traces: Vec<Vec<u64>> = if w == Workload::Keyed100 {
            let steps = (total_sim_s + 2) as usize * 40;
            (0..hosts as u32).map(|h| gen::key_trace(opts.seed, h, steps)).collect()
        } else {
            Vec::new()
        };
        let schedule: Vec<ChurnEvent> = if w == Workload::Churn100 {
            gen::churn_schedule(opts.seed, &churn_shape(), opts.timed_sim_s)
        } else {
            Vec::new()
        };
        (traces, schedule)
    });
    host.generator_s = secs(ns);
    // The user installs at an arbitrary instant: a seeded offset inside
    // one peer tick, which shifts every window's due instant against the
    // tick grid and with it, slightly, every simulated statistic.
    let phase_us = gen::Prng::new(opts.seed, 0x3000).below(cfg_tick_us());
    let mut input_digest = Fnv::default();
    input_digest.word(opts.seed);
    input_digest.word(phase_us);
    input_digest.word(gen::schedule_digest(&schedule));
    for &k in traces.iter().flatten() {
        input_digest.word(k);
    }

    let (mut cfg, ns) = rec.span("setup.topology", || EngineConfig::paper(hosts, DEPLOYMENT_SEED));
    host.topology_s = secs(ns);
    cfg.plan_on_true_latency = true;
    cfg.peer.track_truth = false;
    cfg.shards = opts.shards;
    if w.faulty() {
        cfg.chaos = ChaosConfig { drop_prob: 0.02, dup_prob: 0.01, reorder_jitter_us: 5_000 };
    }
    let (eng, ns) = rec.span("setup.engine_new", || Engine::new(cfg));
    host.engine_new_s = secs(ns);
    let mut eng = eng.expect("the workload's engine configuration is valid");

    // Handing the traces to the peers is still the generator's work.
    let ((), ns) = rec.span("setup.generator", || {
        for (h, keys) in traces.into_iter().enumerate() {
            let trace = keys
                .into_iter()
                .enumerate()
                .map(|(s, key)| (s as u64 * 25_000 + 12_500, RawTuple { key, vals: vec![1.0] }))
                .collect();
            eng.sim.app_mut(h as NodeId).set_replay(trace);
        }
    });
    host.generator_s += secs(ns);

    let mut run = Run {
        eng,
        rec,
        host,
        tracked: Vec::new(),
        by_name: HashMap::new(),
        cursors: BTreeMap::new(),
        up: vec![true; hosts],
        converge_ms: Vec::new(),
        fingerprint: Fnv::default(),
        failures: Vec::new(),
        installs_failed: 0,
        installs_stranded: 0,
        removes_failed: 0,
        installs_attempted: 0,
        removes_attempted: 0,
    };

    run.eng.run_secs(phase_us as f64 / 1e6);
    // Plan and install the base queries; their windows count from the
    // start of the timed region.
    let timed_from_us = phase_us as i64 + WARMUP_SIM_S as i64 * US;
    let specs = base_specs(w);
    for spec in specs {
        let eng = &mut run.eng;
        let (trees, ns) = run.rec.span("setup.plan", || eng.plan(&spec));
        run.host.plan_calls_ns.push(ns);
        run.host.plan_s += secs(ns);
        let trees = trees.expect("the workload's query specs are valid");
        run.track(&spec, timed_from_us);
        run.installs_attempted += 1;
        let eng = &mut run.eng;
        let ((), ns) = run.rec.span("setup.install", || eng.install_with_trees(spec, trees));
        run.host.install_calls_ns.push(ns);
        run.host.install_s += secs(ns);
    }
    // Warm-up, polling install convergence each 50 ms until it is reached.
    let warm = run.rec.begin("setup.warmup");
    while run.now_us() < timed_from_us {
        let pending = run.tracked.iter().any(|q| !q.converged);
        let left_ms = ((timed_from_us - run.now_us()) / 1000) as u64;
        run.slice("setup.warmup.slice", if pending { 50.min(left_ms) } else { left_ms });
        run.poll_control(false);
    }
    run.host.warmup_s = secs(run.rec.end(warm));
    // Results from the warm-up are not the run's; skip them.
    for (root, cursor) in run.cursors.iter_mut() {
        *cursor = run.eng.sim.app(*root).results.next_seq();
    }
    run.rec.end(setup_span);
    run.host.setup_s = setup_start.elapsed().as_secs_f64();
    (run, schedule, input_digest.0)
}

/// The timed region, the collect phase and the output checks.
fn drive(
    w: Workload,
    opts: &PassOpts,
    mut run: Run,
    schedule: &[ChurnEvent],
    input_digest: u64,
) -> Pass {
    let hosts = w.hosts();
    let secs = |ns: u64| ns as f64 / 1e9;
    let timed = run.rec.begin("timed");
    let c0 = Counters::read(&run.eng);
    let wait0 = runq_wait_ns();
    let allocs0 = crate::alloc::counted().0;
    let slice_ms = w.slice_ms();
    let n_slices = opts.timed_sim_s * 1000 / slice_ms;
    let mut timed_ns = 0u64;
    let mut next_event = 0;
    run.host.slices_ns.reserve(n_slices as usize);
    for i in 0..n_slices {
        while schedule.get(next_event).is_some_and(|e| e.at_ms <= i * slice_ms) {
            timed_ns += run.apply(&schedule[next_event].op);
            next_event += 1;
        }
        let ns = run.slice("timed.slice", slice_ms);
        timed_ns += ns;

        run.host.slices_ns.push(ns);
        run.drain();
        if w.faulty() {
            run.poll_control(false);
        }
    }
    run.host.timed_allocs = crate::alloc::counted().0 - allocs0;
    run.host.runq_wait_ns = runq_wait_ns().saturating_sub(wait0);
    run.host.timed_s = secs(timed_ns);
    let counters = Counters::read(&run.eng).since(&c0);
    let timed_to_us = run.now_us();
    run.rec.end(timed);
    for q in &mut run.tracked {
        q.count_to_us = q.count_to_us.min(timed_to_us);
    }

    // Collect: let the last windows report; on churn100 heal first, and
    // let anti-entropy finish.
    let collect = run.rec.begin("collect");
    if w.faulty() {
        let down: Vec<NodeId> = (0..hosts as NodeId).filter(|&h| !run.up[h as usize]).collect();
        run.apply(&ChurnOp::Reconnect { hosts: down });
        run.eng.sim.set_chaos(ChaosConfig::none());
    }
    for _ in 0..GRACE_SIM_S {
        run.slice("collect.slice", 1000);
        run.drain();
        run.poll_control(false);
    }
    run.poll_control(true);
    if w.faulty() {
        let mut prints: Vec<u64> = run.eng.sim.apps().map(|p| p.store_fingerprint()).collect();
        prints.sort_unstable();
        prints.dedup();
        if prints.len() != 1 {
            let what = format!("{} distinct store fingerprints 30 sim-s after heal", prints.len());
            run.fail(what);
        }
    }

    let mut sim = SimResults {
        timed_sim_s: opts.timed_sim_s,
        input_digest,
        counters,
        installs_failed: run.installs_failed,
        installs_stranded: run.installs_stranded,
        installs_attempted: run.installs_attempted,
        removes_attempted: run.removes_attempted,
        removes_failed: run.removes_failed,
        fingerprint: run.fingerprint.0,
        ..Default::default()
    };
    let tick_us = cfg_tick_us() as i64;
    let failures = summarise(w, &mut run.tracked, &run.converge_ms, tick_us, &mut sim);
    for what in failures {
        run.fail(what);
    }
    sim.attempted = sim.windows_counted + run.installs_attempted + run.removes_attempted;
    sim.failed = sim.windows_missing + sim.installs_failed + sim.removes_failed;
    if !w.faulty() && sim.failed > 0 {
        let what = format!("{} operations failed on a fault-free workload", sim.failed);
        run.fail(what);
    }
    run.rec.end(collect);
    Pass { host: run.host, sim, check_failures: run.failures, spans: run.rec.into_spans() }
}

/// Turns the folded windows into the result-derived simulated statistics
/// and runs the value checks; returns the checks that failed.
///
/// What can be checked exactly depends on the slide. Peers lift, close and
/// emit on a 200 ms tick and syncless receivers re-index by age, so a
/// 25 ms-slide query's tuples land up to a few windows from where a
/// global clock would put them: single windows are not exact, but nothing
/// is lost or counted twice, so the totals over the run are conserved up
/// to the tuples of one tick period at the run's edges. A query whose
/// slide is at least the tick has exact windows: each participant
/// contributes exactly its one tuple of 1.0.
fn summarise(
    w: Workload,
    tracked: &mut [Tracked],
    converge_ms: &[f64],
    tick_us: i64,
    sim: &mut SimResults,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut share_sum = 0.0;
    let mut lags: Vec<(f64, u64)> = Vec::new();
    let (mut hops_sum, mut fragments) = (0u64, 0u64);
    let (mut inexact, mut incomplete) = (0u64, 0u64);
    for q in tracked.iter_mut() {
        let (from, to) = (q.count_from_us - q.installed_at_us, q.count_to_us - q.installed_at_us);
        let slide = q.slide_us;
        q.windows.retain(|tb, _| tb + slide > from && tb + slide <= to);
        let expected = q.expected_windows();
        let members = q.members.len() as u32;
        sim.windows_counted += expected;
        sim.tuples_lifted += expected * members as u64;
        sim.results_reported += q.windows.len() as u64;
        sim.windows_missing += expected.saturating_sub(q.windows.len() as u64);
        let (mut value_sum, mut part_sum) = (0.0, 0u64);
        for f in q.windows.values() {
            share_sum += f.participants.min(members) as f64 / members as f64;
            lags.extend_from_slice(&f.lags);
            hops_sum += f.hops_sum as u64;
            fragments += f.fragments as u64;
            value_sum += f.value;
            part_sum += f.participants as u64;
            if slide >= tick_us {
                inexact += (f.value != f.participants as f64) as u64;
                incomplete += (!w.faulty() && f.participants != members) as u64;
            }
        }
        if slide < tick_us && !w.faulty() {
            let want = members as f64 * expected as f64;
            let edge = (members as i64 * tick_us / slide) as f64;
            if (value_sum - want).abs() > edge || (part_sum as f64 - want).abs() > edge {
                failures.push(format!(
                    "{}: Σ value {value_sum} and Σ participants {part_sum} over {expected} \
                     windows should both be {want} ± {edge}",
                    q.name
                ));
            }
        }
    }
    if inexact > 0 {
        failures.push(format!("{inexact} windows whose value ≠ their participant count"));
    }
    if incomplete > 0 {
        failures.push(format!("{incomplete} fault-free windows short of full participation"));
    }
    sim.completeness_pct = 100.0 * share_sum / sim.windows_counted.max(1) as f64;
    sim.lag_samples = lags.len() as u64;
    sim.result_lag_ms_p50 = weighted_percentile(&lags, 50.0).unwrap_or(0.0);
    sim.result_lag_ms_p99 = weighted_percentile(&lags, 99.0).unwrap_or(0.0);
    sim.mean_hops = hops_sum as f64 / fragments.max(1) as f64;
    let wire_bytes: u64 = sim.counters.bytes.iter().sum();
    let wire_msgs: u64 = sim.counters.msgs.iter().sum();
    sim.wire_bytes_per_result = wire_bytes as f64 / sim.results_reported.max(1) as f64;
    sim.wire_msgs_per_result = wire_msgs as f64 / sim.results_reported.max(1) as f64;
    let unit: Vec<(f64, u64)> = converge_ms.iter().map(|&ms| (ms, 1)).collect();
    sim.converge_samples = unit.len() as u64;
    sim.install_converge_ms_p50 = weighted_percentile(&unit, 50.0).unwrap_or(0.0);
    sim.install_converge_ms_p90 = weighted_percentile(&unit, 90.0).unwrap_or(0.0);
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use mortar_core::value::AggState;

    fn record(tb: i64, participants: u32, state: AggState, lag_us: i64, hops: u8) -> ResultRecord {
        ResultRecord {
            query: "q".into(),
            tb,
            te: tb + 1_000_000,
            scalar: state.scalar(),
            state,
            participants,
            emit_local_us: 0,
            emit_true_us: 0,
            age_us: 0,
            due_lag_us: lag_us,
            path_len: hops,
            truth: None,
        }
    }

    #[test]
    fn fragments_of_a_window_fold_together() {
        // Window 0 arrives in three fragments (one a value-less boundary
        // record, one reported early), window 1 in one.
        let records = [
            record(0, 60, AggState::Sum(60.0), 3_200_000, 3),
            record(1_000_000, 100, AggState::Sum(100.0), 3_000_000, 4),
            record(0, 39, AggState::Sum(39.0), 5_400_000, 2),
            record(0, 1, AggState::None, -7, 1),
        ];
        let mut windows: BTreeMap<i64, Fold> = BTreeMap::new();
        for r in &records {
            windows.entry(r.tb).or_default().absorb(r);
        }
        assert_eq!(windows.len(), 2);
        let w0 = &windows[&0];
        assert_eq!((w0.participants, w0.value, w0.fragments, w0.hops_sum), (100, 99.0, 3, 6));
        // One lag sample per fragment, in ms, weighted by participants and
        // clamped at zero.
        assert_eq!(w0.lags, vec![(3200.0, 60), (5400.0, 39), (0.0, 1)]);
        let w1 = &windows[&1_000_000];
        assert_eq!((w1.participants, w1.value, w1.fragments), (100, 100.0, 1));
    }

    #[test]
    fn a_keyed_record_is_worth_the_sum_of_its_groups() {
        let groups = [(3, AggState::Sum(2.0)), (9, AggState::Sum(5.0))].into_iter().collect();
        let r = record(0, 7, AggState::Keyed { cap: 8, groups }, 0, 0);
        assert_eq!(r.scalar, Some(2.0), "the engine renders a keyed state as its group count");
        assert_eq!(record_value(&r), 7.0);
    }

    fn tracked(installed_at_us: i64, slide_us: i64, from: i64, to: i64) -> Tracked {
        Tracked {
            name: "q".into(),
            members: vec![0],
            reachable: vec![0],
            slide_us,
            installed_at_us,
            count_from_us: from,
            count_to_us: to,
            removed_at_us: None,
            windows: BTreeMap::new(),
            converged: false,
            residue_checked: false,
        }
    }

    #[test]
    fn expected_windows_are_those_due_inside_the_counting_range() {
        // Installed at 0, 1 s slide, counted over (30 s, 150 s]: windows due
        // at 31 s … 150 s.
        assert_eq!(tracked(0, US, 30 * US, 150 * US).expected_windows(), 120);
        // The frame starts at the install instant, not at zero: installed
        // at 0.137 s, windows are due at 0.137 + k s; (30, 40] holds ten.
        assert_eq!(tracked(137_000, US, 30 * US, 40 * US).expected_windows(), 10);
        // A 5 s slide installed at 12 s: due at 17, 22, 27, …; (20, 42]
        // holds 22, 27, 32, 37, 42.
        assert_eq!(tracked(12 * US, 5 * US, 20 * US, 42 * US).expected_windows(), 5);
        // Removed before it ever counted.
        assert_eq!(tracked(0, US, 30 * US, 10 * US).expected_windows(), 0);
    }

    #[test]
    fn run_length_scales_with_seconds_in_whole_slices() {
        for w in ALL {
            assert_eq!(w.timed_sim_s(REFERENCE_SECONDS), w.reference_sim_s());
            assert_eq!(w.timed_sim_s(2 * REFERENCE_SECONDS), 2 * w.reference_sim_s());
            let shortest = w.timed_sim_s(1);
            assert!(shortest >= 1 && shortest * 1000 % w.slice_ms() == 0);
        }
        // 1200 × 3 / 10 = 360, a whole number of 5 s slices; 1200 / 10 too.
        assert_eq!(Workload::Steady100.timed_sim_s(3), 360);
        assert_eq!(Workload::Fleet1000.timed_sim_s(1), 12);
    }

    #[test]
    fn a_short_pass_is_correct_and_repeats_bit_for_bit() {
        let opts = PassOpts { seed: 13, timed_sim_s: 10, shards: 1, trace: true };
        let a = run_pass(Workload::Steady100, &opts);
        let b = run_pass(Workload::Steady100, &PassOpts { trace: false, ..opts });
        assert_eq!(a.check_failures, Vec::<String>::new());
        assert_eq!(a.sim, b.sim, "tracing must not change a simulated statistic");
        assert_eq!((a.sim.windows_counted, a.sim.failed), (400, 0));
        assert!(b.spans.is_empty());
        let names: Vec<&str> = a.spans.iter().map(|s| s.name).collect();
        for expected in ["setup", "setup.plan", "timed", "timed.slice", "timed.drain", "collect"] {
            assert!(names.contains(&expected), "no {expected} span");
        }
        // Another seed installs at another instant: other results.
        let c = run_pass(Workload::Steady100, &PassOpts { seed: 14, ..opts });
        assert_ne!(a.sim.fingerprint, c.sim.fingerprint);
    }
}
