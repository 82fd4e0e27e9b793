//! Micro-drivers: each layer's public functions timed in isolation, with
//! inputs shaped by the workload that was just measured (list lengths,
//! frame sizes, store sizes, send rates). They give the *unit* costs that
//! turn the run's counts into estimated shares of its host time.
//!
//! Every driver runs for a fixed number of operations (constants below),
//! passes inputs and results through `black_box`, and reports nanoseconds
//! per operation.

use crate::workload::{Counters, SimResults, Workload};
use mortar_core::msg::{MortarMsg, SummaryFrame};
use mortar_core::op::{KeyField, OpKind, OpRegistry};
use mortar_core::peer::{MortarPeer, PeerConfig};
use mortar_core::query::{build_records, QueryId, QuerySpec, SensorSpec};
use mortar_core::reconcile::{digest_plan, store_hash};
use mortar_core::tslist::{summary, TimeSpaceList};
use mortar_core::tuple::RawTuple;
use mortar_core::value::AggState;
use mortar_core::window::WindowSpec;
use mortar_net::{App, Ctx, NodeId, SimBuilder, Topology};
use mortar_overlay::{
    plan_tree_set, route_decision_local, HopBins, PlannerConfig, RouteState, Tree, TreeSet,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Unit costs measured for one workload.
#[derive(Debug, Clone, Default)]
pub struct UnitCosts {
    pub null_app_ns_per_event: f64,
    pub idle_tick_ns: f64,
    pub insert_exact_ns: f64,
    pub insert_splice_ns: f64,
    pub pop_due_ns: f64,
    pub merge_scalar_ns: f64,
    pub merge_keyed64_ns: f64,
    pub lift_ns: f64,
    pub route_decision_ns: f64,
    pub hopbins_push_ns: f64,
    pub envelope_wire_bytes_ns: f64,
    pub digest_plan_ns: f64,
    pub store_hash_ns: f64,
    pub install_chunking_us: f64,
    pub compile_us_per_query: f64,
}

/// Nanoseconds per call of `f` over `iters` calls.
fn per_op(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The event loop alone: an `App` that does nothing but re-arm its tick
/// and send the workload's measured number of messages per tick.
struct NullApp {
    hosts: u32,
    /// Messages per tick in 1/1024ths, so fractional rates replay exactly.
    sends_per_tick_q10: u64,
    owed_q10: u64,
    next_to: u32,
    tick_us: u64,
}

impl App for NullApp {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer_local_us(self.tick_us, 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64, _bytes: u32) {
        black_box(msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        self.owed_q10 += self.sends_per_tick_q10;
        while self.owed_q10 >= 1024 {
            self.owed_q10 -= 1024;
            self.next_to = (self.next_to + 1) % self.hosts;
            if self.next_to == ctx.id() {
                self.next_to = (self.next_to + 1) % self.hosts;
            }
            ctx.send(self.next_to, 1, 256);
        }
        ctx.set_timer_local_us(self.tick_us, 0);
    }
}

fn null_app(w: Workload, seed: u64, c: &Counters) -> f64 {
    let hosts = w.hosts();
    let tick_us = PeerConfig::default().tick_us;
    let sends_per_tick_q10 = c.sent * 1024 / c.ticks.max(1);
    let mut sim = SimBuilder::new(Topology::paper_inet(hosts, seed), seed).build(|id| NullApp {
        hosts: hosts as u32,
        sends_per_tick_q10,
        owed_q10: 0,
        next_to: id,
        tick_us,
    });
    sim.run_for_secs(2.0);
    let before = sim.stats().delivered;
    // About two million events whatever the fleet size.
    let events_per_sim_s =
        (hosts as u64 * 1_000_000 / tick_us) * (1024 + sends_per_tick_q10) / 1024;
    let sim_s = (2_000_000 / events_per_sim_s.max(1)).max(1) as f64;
    let start = Instant::now();
    sim.run_for_secs(sim_s);
    let ns = start.elapsed().as_nanos() as f64;
    let timers = hosts as f64 * sim_s * 1e6 / tick_us as f64;
    ns / ((sim.stats().delivered - before) as f64 + timers)
}

/// A warm two-host star with three 10 s-slide queries: the cost of a tick
/// on which nothing is due, through the whole simulator stack. Only the
/// 9.6 s gaps clear of the 10 s due instants are timed.
fn idle_tick() -> f64 {
    let cfg = PeerConfig { track_truth: false, ..PeerConfig::default() };
    let reg = OpRegistry::new();
    let mut sim = SimBuilder::new(Topology::star(2, 1_000), 11)
        .build(move |id| MortarPeer::new(id, cfg, reg.clone()));
    for qi in 1..=3u32 {
        let spec = QuerySpec {
            name: format!("slow{qi}"),
            root: 0,
            members: vec![0],
            op: OpKind::Sum { field: 0 },
            window: WindowSpec::time_tumbling_us(10_000_000),
            filter: None,
            sensor: SensorSpec::Periodic { period_us: 10_000_000, value: 1.0 },
            post: None,
        };
        let trees = TreeSet::new(vec![Tree::from_parents(0, vec![None])]);
        let records = build_records(&spec.members, &trees);
        let msg = MortarMsg::Install {
            spec: Arc::new(spec),
            id: QueryId(qi),
            seq: qi as u64,
            records,
            issue_age_us: 0,
        };
        sim.inject(0, 0, msg, 256);
    }
    // To 0.2 s past a due instant, then time up to 0.2 s before the next.
    sim.run_for_secs(10.2);
    let ticks = |sim: &mortar_net::Simulator<MortarPeer>| -> u64 {
        sim.apps().map(|p| p.stats.ticks).sum()
    };
    let (mut ns, mut n) = (0u128, 0u64);
    for _ in 0..400 {
        let before = ticks(&sim);
        let start = Instant::now();
        sim.run_for_secs(9.6);
        ns += start.elapsed().as_nanos();
        n += ticks(&sim) - before;
        sim.run_for_secs(0.4);
    }
    ns as f64 / n.max(1) as f64
}

const SLIDE: i64 = 25_000;

fn filled_list(len: usize, stride: i64, width: i64) -> TimeSpaceList {
    let mut ts = TimeSpaceList::new();
    for i in 0..len as i64 {
        let t = summary(i * stride, i * stride + width, AggState::Sum(1.0), 1, 0);
        // Deadlines rise with the index, as they do for windows in order.
        ts.insert(&t, i * SLIDE, 1_000_000);
    }
    ts
}

/// `TimeSpaceList` at the workload's peak length: exact-index inserts,
/// partially overlapping (splitting) inserts, and an eviction pass that
/// takes the ten oldest entries (steady100 evicts ~10 per peer tick).
fn tslist(len: usize) -> (f64, f64, f64) {
    let len = len.max(16);
    let mut ts = filled_list(len, SLIDE, SLIDE);
    let tuple = |i: i64| summary(i * SLIDE, (i + 1) * SLIDE, AggState::Sum(1.0), 3, 40_000);
    let exact = per_op(400_000, |i| {
        black_box(ts.insert(black_box(&tuple((i as i64 * 7) % len as i64)), 0, 1_000_000));
    });
    // Splices grow the list, so each batch starts from a fresh one (built
    // off the clock) and touches every fourth entry once.
    let (mut ns, mut n) = (0u128, 0u64);
    for _ in 0..40 {
        let mut ts = filled_list(len, 2 * SLIDE, SLIDE);
        let start = Instant::now();
        for i in (0..len as i64).step_by(4) {
            let t = summary(
                i * 2 * SLIDE + SLIDE / 2,
                i * 2 * SLIDE + SLIDE * 3 / 2,
                AggState::Sum(1.0),
                3,
                40_000,
            );
            black_box(ts.insert(black_box(&t), 0, 1_000_000));
            n += 1;
        }
        ns += start.elapsed().as_nanos();
        black_box(ts.len());
    }
    let splice = ns as f64 / n as f64;
    // Evict the ten oldest, then (off the clock) append ten new windows.
    let mut ts = filled_list(len, SLIDE, SLIDE);
    let (mut ns, mut n) = (0u128, 0u64);
    let mut head = 0i64;
    for _ in 0..4_000 {
        head += 10;
        let start = Instant::now();
        let due = ts.pop_due(black_box((head - 1) * SLIDE + 1_000_000));
        ns += start.elapsed().as_nanos();
        n += 1;
        assert_eq!(due.len(), 10, "the pop evicts exactly the ten oldest entries");
        for i in head + len as i64 - 10..head + len as i64 {
            ts.insert(&tuple(i), i * SLIDE, 1_000_000);
        }
    }
    (exact, splice, ns as f64 / n as f64)
}

fn keyed_state(keys: u64) -> AggState {
    AggState::Keyed { cap: 128, groups: (0..keys).map(|k| (k, AggState::Sum(1.0))).collect() }
}

/// `AggState::merge` for a scalar and for two 64-group maps, and
/// `OpKind::lift` of the workload's own operator.
fn value(w: Workload) -> (f64, f64, f64) {
    let mut acc = AggState::Sum(0.0);
    let one = AggState::Sum(1.0);
    let scalar = per_op(4_000_000, |_| black_box(&mut acc).merge(black_box(&one)));
    let mut acc = keyed_state(64);
    let other = keyed_state(64);
    let keyed = per_op(40_000, |_| black_box(&mut acc).merge(black_box(&other)));
    let reg = OpRegistry::new();
    let op = if w == Workload::Keyed100 {
        OpKind::Keyed {
            key_field: KeyField::TupleKey,
            cap: 128,
            inner: Box::new(OpKind::Sum { field: 0 }),
        }
    } else {
        OpKind::Sum { field: 0 }
    };
    let mut state = op.zero(&reg);
    let tuples: Vec<RawTuple> = (0..64).map(|key| RawTuple { key, vals: vec![1.0] }).collect();
    let lift = per_op(2_000_000, |i| {
        op.lift(&reg, black_box(&mut state), 0, black_box(&tuples[i as usize % 64]));
    });
    (scalar, keyed, lift)
}

/// The routing decision in the common case (parent live on the arrival
/// tree), a per-next-hop bin push, and sizing an envelope shaped like the
/// workload's (frames per envelope, tuples per frame).
fn route(c: &Counters) -> (f64, f64, f64) {
    let levels = [3u32, 2, 4, 3];
    let children: Vec<Vec<usize>> = vec![vec![0, 1, 2]; 4];
    let mut rng = SmallRng::seed_from_u64(7);
    let mut state = RouteState::from_levels(&levels);
    let decision = per_op(4_000_000, |i| {
        black_box(route_decision_local(
            black_box(&levels),
            &children,
            (i % 4) as usize,
            &mut state,
            &[true; 4],
            &mut |_, _| true,
            &mut rng,
        ));
    });
    let mut bins: HopBins<u32, Vec<u64>> = HopBins::new();
    let push = per_op(4_000_000, |i| {
        let bin = bins.bin_mut(black_box((i % 16) as u32));
        if bin.len() >= 32 {
            bin.clear();
        }
        bin.push(i);
    });
    let frames = (c.frames_out as f64 / c.envelopes_out.max(1) as f64).round().max(1.0) as usize;
    let tuples = (c.summaries_out as f64 / c.frames_out.max(1) as f64).round().max(1.0) as usize;
    let payload: Arc<[_]> =
        (0..tuples as i64).map(|i| summary(i, i + 1, AggState::Sum(1.0), 1, 0)).collect();
    let env = MortarMsg::Envelope {
        frames: (0..frames)
            .map(|q| SummaryFrame {
                query: QueryId(q as u32),
                tree: 0,
                hold_age_us: 0,
                tuples: payload.clone(),
                store_hash: None,
            })
            .collect(),
    };
    let wire = per_op(400_000, |_| {
        black_box(black_box(&env).wire_bytes());
    });
    (decision, push, wire)
}

/// Anti-entropy and install chunking at the workload's store sizes:
/// `live` installed queries and `tombstones` cached removals per peer,
/// `members` per install.
fn control(live: usize, tombstones: usize, members: usize, seed: u64) -> (f64, f64, f64) {
    let names = |n: usize, prefix: &str| -> BTreeMap<String, u64> {
        (0..n).map(|i| (format!("{prefix}{i}"), i as u64 + 1)).collect()
    };
    // The other side lags by two installs and two removals: a typical
    // mismatch that makes the digest plan do real work.
    let (mine_i, mine_r) = (names(live, "q"), names(tombstones, "r"));
    let theirs_i = names(live.saturating_sub(2), "q");
    let theirs_r = names(tombstones.saturating_sub(2), "r");
    let plan = per_op(2_000, |_| {
        black_box(digest_plan(black_box(&mine_i), &mine_r, &theirs_i, &theirs_r));
    });
    let hash = per_op(2_000, |_| {
        let entries = mine_i.iter().chain(mine_r.iter()).map(|(n, &s)| (n.as_str(), s));
        black_box(store_hash(entries));
    });
    let topo = Topology::paper_inet(members.max(2), seed);
    let coords = topo.latency_matrix_ms();
    let mut rng = SmallRng::seed_from_u64(seed);
    let trees = plan_tree_set(&coords, 0, &PlannerConfig::default(), &mut rng);
    let peers: Vec<NodeId> = (0..members.max(2) as NodeId).collect();
    let records = build_records(&peers, &trees);
    let chunks = PeerConfig::default().install_chunks;
    let chunking = per_op(200, |_| {
        black_box(mortar_core::install::chunk_components_with_peers(
            black_box(&records),
            Some(&peers),
            chunks,
        ));
    });
    (plan, hash, chunking / 1000.0)
}

/// fleet1000's thirteen queries written as MSL, through the compiler.
fn compile() -> f64 {
    let programs: Vec<String> = crate::workload::FLEET_MIX
        .iter()
        .flat_map(|&(slide_ms, count)| (0..count).map(move |_| slide_ms))
        .enumerate()
        .map(|(i, slide_ms)| {
            format!("stream sensors(value);\nfleet{i} = sum(sensors, value) every {slide_ms}ms;")
        })
        .collect();
    let ns = per_op(200, |_| {
        for p in &programs {
            let def = mortar_lang::compile(black_box(p)).expect("the fleet queries are valid MSL");
            black_box(def);
        }
    });
    ns / programs.len() as f64 / 1000.0
}

/// Runs every micro-driver with inputs shaped by the measured pass.
pub fn run(w: Workload, seed: u64, sim: &SimResults) -> UnitCosts {
    let c = &sim.counters;
    let (insert_exact_ns, insert_splice_ns, pop_due_ns) = tslist(c.ts_peak_entries as usize);
    let (merge_scalar_ns, merge_keyed64_ns, lift_ns) = value(w);
    let (route_decision_ns, hopbins_push_ns, envelope_wire_bytes_ns) = route(c);
    // Store sizes a peer holds late in the run: the live queries, and one
    // tombstone per removal so far.
    let live = (sim.installs_attempted - sim.removes_attempted) as usize;
    let members = if w == Workload::Churn100 { 40 } else { w.hosts() };
    let (digest_plan_ns, store_hash_ns, install_chunking_us) =
        control(live, sim.removes_attempted as usize, members, seed);
    UnitCosts {
        null_app_ns_per_event: null_app(w, seed, c),
        idle_tick_ns: idle_tick(),
        insert_exact_ns,
        insert_splice_ns,
        pop_due_ns,
        merge_scalar_ns,
        merge_keyed64_ns,
        lift_ns,
        route_decision_ns,
        hopbins_push_ns,
        envelope_wire_bytes_ns,
        digest_plan_ns,
        store_hash_ns,
        install_chunking_us,
        compile_us_per_query: compile(),
    }
}
