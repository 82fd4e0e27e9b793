//! Counting-allocator proof of the hot path's memory discipline: with
//! truth tracking off, cloning and merging a summary tuple with a scalar
//! aggregate performs **zero heap allocations** — the whole per-tuple
//! payload (interval, age, scalar state, inline route state, flags) is a
//! flat value.
//!
//! This lives in its own integration-test binary because it installs a
//! global allocator. The counter is thread-local, so the measurement is
//! immune to any allocation the test harness makes on other threads.

// One of the two sanctioned `unsafe` sites in the workspace (see
// `[workspace.lints.rust]`): implementing `GlobalAlloc` requires it.
#![allow(unsafe_code)]

use mortar_core::tslist::{summary, TimeSpaceList};
use mortar_core::value::AggState;
use mortar_overlay::RouteState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, with a thread-local allocation counter.
struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter bump performs no
// allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed on this
/// thread.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    (after - before, out)
}

#[test]
fn cloning_a_scalar_summary_tuple_is_alloc_free() {
    // Production configuration: no truth metadata, scalar aggregate,
    // inline route state over the paper's four trees.
    let mut t = summary(0, 25_000, AggState::Sum(42.0), 7, 1_500);
    t.route = RouteState::from_levels(&[3, 1, 2, 4]);
    assert!(t.truth.is_none(), "production tuples carry no truth metadata");
    let (allocs, clones) = count_allocs(|| {
        let a = t.clone();
        let b = a.clone();
        std::hint::black_box((a, b))
    });
    assert_eq!(allocs, 0, "cloning a scalar summary tuple must not allocate");
    drop(clones);
}

#[test]
fn merging_scalar_summary_tuples_is_alloc_free() {
    let mut a = summary(0, 25_000, AggState::Sum(1.0), 1, 500);
    a.route = RouteState::from_levels(&[2, 1, 3, 0]);
    let mut b = summary(0, 25_000, AggState::Sum(2.0), 3, 900);
    b.route = RouteState::from_levels(&[1, 2, 0, 3]);
    let (allocs, _) = count_allocs(|| {
        // The merge operations the TS list performs on an exact-match
        // absorb: aggregate merge, route absorb, participant/flag math.
        a.state.merge(&b.state);
        a.route.absorb(&b.route);
        a.participants += b.participants;
        a.has_value |= b.has_value;
        std::hint::black_box(&a);
    });
    assert_eq!(allocs, 0, "merging scalar summary tuples must not allocate");
}

#[test]
fn ts_list_exact_match_absorb_is_alloc_free() {
    // The steady-state receive path: a summary for an already-open index
    // absorbs in place — no entry is created, nothing reallocates.
    let mut ts = TimeSpaceList::new();
    ts.insert(&summary(0, 25_000, AggState::Sum(1.0), 1, 0), 0, 1_000_000);
    let arriving = summary(0, 25_000, AggState::Sum(2.0), 2, 100);
    let (allocs, _) = count_allocs(|| {
        for _ in 0..64 {
            ts.insert(&arriving, 1_000, 1_000_000);
        }
    });
    assert_eq!(allocs, 0, "exact-match TS-list absorbs must not allocate");
    assert_eq!(ts.len(), 1);
    assert_eq!(ts.entries().next().unwrap().participants, 1 + 64 * 2);
}

#[test]
fn ts_list_eviction_moves_entries_out_without_cloning_state() {
    // pop_due moves entries out; with scalar state the only allocation in
    // sight is the returned Vec itself (one, for the due list).
    let mut ts = TimeSpaceList::new();
    for k in 0..8i64 {
        ts.insert(&summary(k * 100, k * 100 + 100, AggState::Sum(1.0), 1, 0), 0, 50);
    }
    let (allocs, due) = count_allocs(|| ts.pop_due(10_000));
    assert_eq!(due.len(), 8);
    assert!(
        allocs <= 1,
        "eviction should allocate at most the due vector, performed {allocs} allocations"
    );
    assert!(ts.is_empty());
}

#[test]
fn transmitting_envelopes_never_clones_tuple_vectors() {
    // The transport's fan-out/duplication path is `MortarMsg::clone` —
    // once per extra copy of a wire message. With `Arc<[SummaryTuple]>`
    // payloads that clone allocates the envelope's frame *list* only:
    // the cost is independent of how many tuples ride inside.
    use mortar_core::msg::{MortarMsg, SummaryFrame};
    use mortar_core::query::QueryId;

    let tuple = {
        let mut t = summary(0, 25_000, AggState::Sum(42.0), 7, 1_500);
        t.route = RouteState::from_levels(&[3, 1, 2, 4]);
        t
    };
    let envelope = |tuples_per_frame: usize| MortarMsg::Envelope {
        frames: vec![
            SummaryFrame {
                query: QueryId(1),
                tree: 0,
                hold_age_us: 0,
                tuples: vec![tuple.clone(); tuples_per_frame].into(),
                store_hash: None,
            },
            SummaryFrame {
                query: QueryId(2),
                tree: 2,
                hold_age_us: 0,
                tuples: vec![tuple.clone(); tuples_per_frame].into(),
                store_hash: Some(9),
            },
        ],
    };
    let clone_n = |msg: &MortarMsg, n: usize| {
        let (allocs, copies) = count_allocs(|| {
            let copies: Vec<MortarMsg> = (0..n).map(|_| msg.clone()).collect();
            std::hint::black_box(copies)
        });
        drop(copies);
        allocs
    };
    let small = envelope(1);
    let big = envelope(512);
    let hops = 8;
    let small_allocs = clone_n(&small, hops);
    let big_allocs = clone_n(&big, hops);
    assert_eq!(
        small_allocs, big_allocs,
        "clone cost must not scale with payload: {small_allocs} vs {big_allocs} allocations"
    );
    // Per clone: the collecting vector's share plus the frame list — and
    // zero per tuple (512 tuples per frame would otherwise dwarf this).
    assert!(
        big_allocs <= 2 * hops as u64 + 2,
        "cloning {hops} envelopes of 512-tuple frames performed {big_allocs} allocations"
    );
}

#[test]
fn idle_steady_state_ticks_are_alloc_free() {
    // The PR 5 tentpole pin: once a peer is warm, a tick on which no
    // query is due — no sensor emission, no slide boundary, no TS-list
    // deadline — performs **zero** heap allocations end to end: simulator
    // timer dispatch, due-index peek, envelope flush, heartbeat clock,
    // timer re-arm. This also pins the old per-tick
    // `queries.keys().collect()` regression: with three installed queries
    // a key collect would allocate on every tick, idle or not.
    //
    // This pin is the zero-alloc idle-tick gate. `mortar-bench`'s
    // `experiments::feeds::feed_idle_alloc_run` measures the same kind of
    // window with a drained feed installed, for the feed-burst CI job.
    use mortar_core::msg::MortarMsg;
    use mortar_core::op::{OpKind, OpRegistry};
    use mortar_core::peer::{MortarPeer, PeerConfig};
    use mortar_core::query::{build_records, QueryId, QuerySpec, SensorSpec};
    use mortar_core::window::WindowSpec;
    use mortar_net::{SimBuilder, Topology};
    use mortar_overlay::{Tree, TreeSet};
    use std::sync::Arc;

    let cfg = PeerConfig { track_truth: false, ..PeerConfig::default() };
    let reg = OpRegistry::new();
    let mut sim = SimBuilder::new(Topology::star(2, 1_000), 11)
        .build(move |id| MortarPeer::new(id, cfg, reg.clone()));
    // Three slow queries on peer 0: 10 s slides and 10 s sensor cadences,
    // so the window [7 s, 9.4 s) contains no due instant for any of them.
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
    // Warm up past the first hash-carrying heartbeat (6 s) so the
    // memoized store hash is hot; the first pump/close/evict cadence
    // arrives at 10 s, outside the measured window.
    sim.run_for_secs(7.0);
    for qi in 1..=3u32 {
        assert!(sim.app(0).is_active(&format!("slow{qi}")), "warm-up failed to install");
    }
    let (allocs, _) = count_allocs(|| sim.run_for_secs(2.4));
    let idle = sim.app(0).stats.idle_ticks;
    assert!(idle >= 10, "measured window saw too few idle ticks: {idle}");
    assert_eq!(allocs, 0, "idle steady-state ticks must not allocate, performed {allocs}");
}

#[test]
fn cloning_a_summary_batch_frame_is_alloc_free() {
    // The single-frame wire shape (`envelope_budget = 0`) shares its
    // payload the same way: retransmitting/duplicating a frame is pure
    // pointer arithmetic.
    use mortar_core::msg::{MortarMsg, SummaryFrame};
    use mortar_core::query::QueryId;

    let msg = MortarMsg::SummaryBatch(SummaryFrame {
        query: QueryId(3),
        tree: 1,
        hold_age_us: 0,
        tuples: vec![summary(0, 25_000, AggState::Sum(1.0), 1, 0); 256].into(),
        store_hash: Some(7),
    });
    let (allocs, copies) = count_allocs(|| {
        let a = msg.clone();
        let b = a.clone();
        std::hint::black_box((a, b))
    });
    assert_eq!(allocs, 0, "cloning a summary-batch frame must not allocate");
    drop(copies);
}

/// Heap allocations performed while a one-member sum with a 20 s window
/// pumps `sensor` for six sim-seconds inside its first window, which its
/// first tuple opened long before the measured span.
fn pump_allocs(
    sensor: mortar_core::query::SensorSpec,
    trace: Vec<(u64, mortar_core::tuple::RawTuple)>,
) -> u64 {
    use mortar_core::msg::MortarMsg;
    use mortar_core::op::{OpKind, OpRegistry};
    use mortar_core::peer::{MortarPeer, PeerConfig};
    use mortar_core::query::{build_records, QueryId, QuerySpec};
    use mortar_core::window::WindowSpec;
    use mortar_net::{SimBuilder, Topology};
    use mortar_overlay::{Tree, TreeSet};
    use std::sync::Arc;

    let cfg = PeerConfig { track_truth: false, ..PeerConfig::default() };
    let reg = OpRegistry::new();
    let mut sim = SimBuilder::new(Topology::star(2, 1_000), 11)
        .build(move |id| MortarPeer::new(id, cfg, reg.clone()));
    sim.app_mut(0).set_replay(trace);
    let spec = QuerySpec {
        name: "pump".into(),
        root: 0,
        members: vec![0],
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(20_000_000),
        filter: None,
        sensor,
        post: None,
    };
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
    // Past the first hash-carrying heartbeat (6 s), inside the window.
    sim.run_for_secs(7.0);
    assert!(sim.app(0).is_active("pump"), "warm-up failed to install");
    let (allocs, _) = count_allocs(|| sim.run_for_secs(6.0));
    allocs
}

#[test]
fn pumping_sensor_tuples_into_an_open_window_allocates_nothing_per_tuple() {
    // Every due tuple is written into one reused scratch tuple and lifted
    // from there: a tick that pumps 64 tuples allocates exactly what a
    // tick that pumps one does. The default tick is 200 ms.
    use mortar_core::query::SensorSpec;
    use mortar_core::tuple::RawTuple;

    let periodic = |n: u64| {
        pump_allocs(SensorSpec::Periodic { period_us: 200_000 / n, value: 1.0 }, Vec::new())
    };
    let (one, many) = (periodic(1), periodic(64));
    assert_eq!(one, many, "periodic: 1 tuple/tick allocated {one}, 64 tuples/tick {many}");

    let replay = |n: u64| {
        let trace = (0..100 * n)
            .map(|i| (i * 200_000 / n, RawTuple { key: i % 7, vals: vec![1.0, 2.0, 3.0] }))
            .collect();
        pump_allocs(SensorSpec::Replay, trace)
    };
    let (one, many) = (replay(1), replay(64));
    assert_eq!(one, many, "replay: 1 tuple/tick allocated {one}, 64 tuples/tick {many}");
}

#[test]
fn merging_keyed_states_allocates_only_for_new_keys() {
    // Identical key sets merge in place; new keys cost one growth of the
    // group vector, whatever their number.
    let keyed = |keys: std::ops::Range<u64>, v: f64| AggState::Keyed {
        cap: 128,
        groups: keys.map(|k| (k, AggState::Sum(v))).collect(),
    };
    let mut a = keyed(0..64, 1.0);
    let same = keyed(0..64, 2.0);
    let (allocs, _) = count_allocs(|| a.merge(&same));
    assert_eq!(allocs, 0, "merging identical key sets allocated {allocs} times");
    assert_eq!(a.groups().unwrap()[&5], AggState::Sum(3.0));

    let fresh = keyed(32..96, 1.0);
    let (allocs, _) = count_allocs(|| a.merge(&fresh));
    assert!(allocs <= 1, "admitting 32 new keys allocated {allocs} times");
    assert_eq!(a.groups().unwrap().len(), 96);
}
