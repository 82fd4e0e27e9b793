//! Criterion micro-benchmarks of Mortar's core data structures: TS-list
//! insert/evict, the routing-policy decision, sibling derivation, k-means,
//! tree-set planning on 1000-host latency rows, Vivaldi rounds, and the
//! reconciliation hash.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mortar_cluster::kmeans;
use mortar_coords::VivaldiSystem;
use mortar_core::tslist::{summary, TimeSpaceList};
use mortar_core::value::AggState;
use mortar_net::Topology;
use mortar_overlay::planner::{derive_sibling, plan_primary, plan_tree_set, PlannerConfig};
use mortar_overlay::{route_decision, RouteState, TreeSet};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The regime steady100 and fleet1000 run in: ~1000 open 25 ms windows
/// whose deadlines rise with the index.
const LONG: i64 = 1_000;
const SLIDE: i64 = 25_000;

fn window(k: i64) -> mortar_core::tuple::SummaryTuple {
    summary(k * SLIDE, (k + 1) * SLIDE, AggState::Sum(1.0), 1, 0)
}

fn long_list() -> TimeSpaceList {
    let mut ts = TimeSpaceList::new();
    for k in 0..LONG {
        ts.insert(&window(k), k * SLIDE, 1_000_000);
    }
    ts
}

/// One peer tick at steady state: the ten oldest windows fall due, ten
/// new ones open at the back. `after_pop` runs between the two.
fn tick_of_10(ts: &mut TimeSpaceList, head: &mut i64, after_pop: impl Fn(&TimeSpaceList)) {
    *head += 10;
    let due = ts.pop_due((*head - 1) * SLIDE + 1_000_000);
    assert_eq!(due.len(), 10);
    after_pop(ts);
    for k in *head + LONG - 10..*head + LONG {
        ts.insert(&window(k), k * SLIDE, 1_000_000);
    }
    black_box(due);
}

fn bench_tslist_long(c: &mut Criterion) {
    c.bench_function("tslist/pop_due_10_of_1000", |b| {
        let (mut ts, mut head) = (long_list(), 0);
        b.iter(|| tick_of_10(&mut ts, &mut head, |_| ()));
    });
    c.bench_function("tslist/next_deadline_after_pop_1000", |b| {
        // The same tick plus the reschedule's question right after the
        // eviction; the difference from the row above is what it costs.
        let (mut ts, mut head) = (long_list(), 0);
        b.iter(|| {
            tick_of_10(&mut ts, &mut head, |ts| {
                black_box(ts.next_deadline_us());
            })
        });
    });
    c.bench_function("tslist/insert_exact_of_1000", |b| {
        let mut ts = long_list();
        let arriving: Vec<_> = (0..LONG).map(window).collect();
        let mut i = 0;
        b.iter(|| {
            i = (i + 7) % arriving.len();
            ts.insert(black_box(&arriving[i]), 0, 1_000_000)
        });
    });
}

fn bench_tslist(c: &mut Criterion) {
    c.bench_function("tslist/insert_exact_match", |b| {
        let mut ts = TimeSpaceList::new();
        ts.insert(&summary(0, 1_000, AggState::Sum(0.0), 1, 0), 0, 1_000_000);
        let s = summary(0, 1_000, AggState::Sum(1.0), 1, 0);
        b.iter(|| ts.insert(black_box(&s), 100, 1_000_000));
    });
    c.bench_function("tslist/insert_disjoint_64", |b| {
        b.iter_batched(
            TimeSpaceList::new,
            |mut ts| {
                for k in 0..64i64 {
                    ts.insert(
                        &summary(k * 10, k * 10 + 10, AggState::Sum(1.0), 1, 0),
                        0,
                        1_000_000,
                    );
                }
                ts
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("tslist/split_partial_overlap", |b| {
        b.iter_batched(
            || {
                let mut ts = TimeSpaceList::new();
                ts.insert(&summary(0, 100, AggState::Sum(1.0), 1, 0), 0, 1_000_000);
                ts
            },
            |mut ts| ts.insert(&summary(50, 150, AggState::Sum(2.0), 1, 0), 0, 1_000_000),
            BatchSize::SmallInput,
        );
    });
    c.bench_function("tslist/splice_spanning_8_of_64", |b| {
        // An incoming tuple overlapping 8 of 64 entries: the splice path
        // must touch only the overlapped range, leaving the other 56
        // entries in place (the old drain-rebuild-sort path moved and
        // re-sorted all of them per insert).
        b.iter_batched(
            || {
                let mut ts = TimeSpaceList::new();
                for k in 0..64i64 {
                    ts.insert(
                        &summary(k * 10, k * 10 + 10, AggState::Sum(1.0), 1, 0),
                        0,
                        1_000_000,
                    );
                }
                ts
            },
            |mut ts| {
                // Spans entries 28..36 with half-entry offsets on both
                // ends: head/tail slices plus moved-merge overlaps.
                ts.insert(&summary(285, 355, AggState::Sum(2.0), 1, 0), 0, 1_000_000);
                ts
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("tslist/splice_gap_insert_mid_64", |b| {
        // A non-overlapping insert into the middle of a long list: one
        // ordered `Vec::insert`, no rebuild.
        b.iter_batched(
            || {
                let mut ts = TimeSpaceList::new();
                for k in 0..64i64 {
                    ts.insert(
                        &summary(k * 20, k * 20 + 10, AggState::Sum(1.0), 1, 0),
                        0,
                        1_000_000,
                    );
                }
                ts
            },
            |mut ts| {
                ts.insert(&summary(615, 620, AggState::Sum(2.0), 1, 0), 0, 1_000_000);
                ts
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("tslist/pop_due_64", |b| {
        b.iter_batched(
            || {
                let mut ts = TimeSpaceList::new();
                for k in 0..64i64 {
                    ts.insert(&summary(k * 10, k * 10 + 10, AggState::Sum(1.0), 1, 0), 0, 50);
                }
                ts
            },
            |mut ts| ts.pop_due(1_000_000),
            BatchSize::SmallInput,
        );
    });
}

fn bench_routing(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let coords: Vec<Vec<f64>> = (0..512).map(|i| vec![(i % 23) as f64, (i / 23) as f64]).collect();
    let primary = plan_primary(&coords, 0, 16, 20, &mut rng);
    let trees = TreeSet::new(vec![
        primary.clone(),
        derive_sibling(&primary, &mut rng),
        derive_sibling(&primary, &mut rng),
        derive_sibling(&primary, &mut rng),
    ]);
    c.bench_function("routing/decision_all_live", |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        b.iter(|| {
            let mut st = RouteState::at_origin(&trees, 300);
            route_decision(
                &trees,
                black_box(300),
                0,
                &mut st,
                &[true, true, true, true],
                &mut |_, _| true,
                &mut rng,
            )
        });
    });
    c.bench_function("routing/decision_failover", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| {
            let mut st = RouteState::at_origin(&trees, 300);
            route_decision(
                &trees,
                black_box(300),
                0,
                &mut st,
                &[false, false, true, true],
                &mut |_, _| true,
                &mut rng,
            )
        });
    });
}

fn bench_planning(c: &mut Criterion) {
    let coords: Vec<Vec<f64>> =
        (0..512).map(|i| vec![(i % 23) as f64 * 10.0, (i / 23) as f64 * 10.0]).collect();
    c.bench_function("planner/primary_512_bf16", |b| {
        let mut rng = SmallRng::seed_from_u64(4);
        b.iter(|| plan_primary(black_box(&coords), 0, 16, 20, &mut rng));
    });
    c.bench_function("planner/sibling_512", |b| {
        let mut rng = SmallRng::seed_from_u64(5);
        let primary = plan_primary(&coords, 0, 16, 20, &mut rng);
        b.iter(|| derive_sibling(black_box(&primary), &mut rng));
    });
    c.bench_function("cluster/kmeans_512x2_k16", |b| {
        let mut rng = SmallRng::seed_from_u64(6);
        b.iter(|| kmeans(black_box(&coords), 16, 20, &mut rng));
    });
    // The shape that costs: fleet1000 plans on 1000-dimensional latency rows.
    let lat = Topology::paper_inet(1000, 13).latency_matrix_ms();
    c.bench_function("planner/plan_tree_set_1000", |b| {
        let mut rng = SmallRng::seed_from_u64(7);
        b.iter(|| plan_tree_set(black_box(&lat), 0, &PlannerConfig::default(), &mut rng));
    });
}

fn bench_vivaldi(c: &mut Criterion) {
    let n = 256;
    let lat = |a: usize, b: usize| black_box(a.abs_diff(b) as f64 + 1.0);
    c.bench_function("vivaldi/round_256x8", |b| {
        let mut sys = VivaldiSystem::new(n, 3, 7);
        b.iter(|| sys.round(lat, 8));
    });
}

fn bench_reconcile(c: &mut Criterion) {
    use mortar_core::reconcile::store_hash;
    let entries: Vec<(String, u64)> = (0..100).map(|i| (format!("query-{i}"), i as u64)).collect();
    c.bench_function("reconcile/store_hash_100", |b| {
        b.iter(|| store_hash(black_box(&entries).iter().map(|(n, s)| (n.as_str(), *s))));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tslist, bench_tslist_long, bench_routing, bench_planning, bench_vivaldi, bench_reconcile
);
criterion_main!(benches);
