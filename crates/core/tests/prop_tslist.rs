//! Property-based tests of the time-space list (Section 4.2 invariants).

use mortar_core::tslist::{summary, TimeSpaceList, TsEntry};
use mortar_core::value::AggState;
use proptest::prelude::*;

/// Arbitrary (possibly overlapping) insert sequences keep the list sorted
/// and disjoint.
fn arb_interval() -> impl Strategy<Value = (i64, i64)> {
    (0i64..500, 1i64..60).prop_map(|(tb, len)| (tb, tb + len))
}

/// The list as `(tb, te, participants, count, deadline)` rows.
type Row = (i64, i64, u32, u64, i64);

/// The reference the real list is checked against: a plain vector rebuilt
/// on every insert by interval arithmetic, evicted by filtering on the
/// deadline.
#[derive(Default)]
struct Model {
    rows: Vec<Row>,
}

impl Model {
    fn insert(&mut self, tb: i64, te: i64, parts: u32, deadline: i64) {
        if let Some(r) = self.rows.iter_mut().find(|r| (r.0, r.1) == (tb, te)) {
            // An exact index match merges and keeps its deadline.
            r.2 += parts;
            r.3 += parts as u64;
            return;
        }
        let mut out = Vec::new();
        let mut cur = tb;
        for &(b, e, p, c, d) in &self.rows {
            let (ob, oe) = (b.max(tb), e.min(te));
            if ob >= oe {
                out.push((b, e, p, c, d));
                continue;
            }
            // Uncovered stretches of the arrival are new entries; the
            // parts of `[b, e)` outside it keep their value and deadline;
            // the overlap merges and takes the earlier deadline.
            if cur < ob {
                out.push((cur, ob, parts, parts as u64, deadline));
            }
            if b < ob {
                out.push((b, ob, p, c, d));
            }
            out.push((ob, oe, p + parts, c + parts as u64, d.min(deadline)));
            if oe < e {
                out.push((oe, e, p, c, d));
            }
            cur = oe;
        }
        if cur < te {
            out.push((cur, te, parts, parts as u64, deadline));
        }
        out.sort_by_key(|r| r.0);
        self.rows = out;
    }

    fn pop_due(&mut self, now: i64) -> Vec<Row> {
        let (due, rest) = self.rows.iter().partition(|r| r.4 <= now);
        self.rows = rest;
        due
    }
}

fn count_of(state: &AggState) -> u64 {
    match state {
        AggState::Count(c) => *c,
        other => panic!("the model test only inserts counts, found {other:?}"),
    }
}

fn row_of(e: &TsEntry) -> Row {
    (e.tb, e.te, e.participants, count_of(&e.state), e.deadline_us)
}

fn rows_of(ts: &TimeSpaceList) -> Vec<Row> {
    ts.entries().map(row_of).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interleaved_inserts_and_evictions_match_the_reference_model(
        steps in proptest::collection::vec(
            (0u8..8, 0i64..24, 0i64..100, 1i64..250, 1u64..700, 1u32..4),
            1..120,
        ),
    ) {
        // Tiles of 100 over [0, 2400): exact-tile inserts, narrow inserts
        // that land in gaps or split a tile, wide ones that span several,
        // and evictions at instants that move both ways. Timeouts are
        // drawn independently of the tile, so deadlines are far from
        // monotone in `tb` and most evictions take a non-prefix set.
        const S: i64 = 100;
        let mut ts = TimeSpaceList::new();
        let mut model = Model::default();
        let mut now = 0i64;
        for (kind, k, off, len, timeout, parts) in steps {
            now += off / 10;
            match kind {
                0 | 1 => {
                    let at = now + off * 7;
                    let due: Vec<Row> = ts.pop_due(at).iter().map(row_of).collect();
                    prop_assert_eq!(due, model.pop_due(at), "due entries at {}", at);
                }
                _ => {
                    let (tb, te) = match kind {
                        2..=4 => (k * S, (k + 1) * S),
                        5 | 6 => (k * S + off, k * S + off + len.min(S)),
                        _ => (k * S + off, k * S + off + 2 * len),
                    };
                    let t = summary(tb, te, AggState::Count(parts as u64), parts, 0);
                    ts.insert(&t, now, timeout);
                    model.insert(tb, te, parts, now + timeout as i64);
                }
            }
            ts.check_invariants();
            prop_assert_eq!(rows_of(&ts), model.rows.clone(), "remaining entries");
            prop_assert_eq!(ts.next_deadline_us(), model.rows.iter().map(|r| r.4).min());
        }
    }

    #[test]
    fn entries_stay_sorted_and_disjoint(
        intervals in proptest::collection::vec(arb_interval(), 1..40),
    ) {
        let mut ts = TimeSpaceList::new();
        for (i, (tb, te)) in intervals.into_iter().enumerate() {
            ts.insert(&summary(tb, te, AggState::Count(1), 1, 0), i as i64, 1_000);
            ts.check_invariants();
        }
    }

    #[test]
    fn tile_aligned_inserts_conserve_participants(
        tiles in proptest::collection::vec((0i64..30, 1u32..5), 1..60),
    ) {
        // Exact-tile inserts (the time-window fast path) merge without
        // splitting, so participants are conserved exactly.
        const S: i64 = 100;
        let mut ts = TimeSpaceList::new();
        let mut total = 0u64;
        for (k, parts) in tiles {
            ts.insert(
                &summary(k * S, (k + 1) * S, AggState::Count(parts as u64), parts, 0),
                0,
                1_000,
            );
            total += parts as u64;
        }
        ts.check_invariants();
        let in_list: u64 = ts.entries().map(|e| e.participants as u64).sum();
        prop_assert_eq!(in_list, total);
        // Counts agree with participants for this operator.
        let counted: u64 = ts
            .entries()
            .map(|e| match e.state {
                AggState::Count(c) => c,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(counted, total);
    }

    #[test]
    fn eviction_respects_deadlines(
        tiles in proptest::collection::vec((0i64..20, 1i64..500), 1..40),
        evict_at in 0i64..600,
    ) {
        const S: i64 = 100;
        let mut ts = TimeSpaceList::new();
        for (k, timeout) in tiles {
            ts.insert(&summary(k * S, (k + 1) * S, AggState::Count(1), 1, 0), 0, timeout as u64);
        }
        let due = ts.pop_due(evict_at);
        for e in &due {
            prop_assert!(e.deadline_us <= evict_at, "popped future entry");
        }
        for e in ts.entries() {
            prop_assert!(e.deadline_us > evict_at, "kept overdue entry");
        }
    }

    #[test]
    fn age_average_is_bounded_by_constituents(
        ages in proptest::collection::vec(0i64..1_000_000, 1..20),
    ) {
        let mut ts = TimeSpaceList::new();
        for &a in &ages {
            ts.insert(&summary(0, 100, AggState::Count(1), 1, a), 0, 10);
        }
        let evicted = ts.pop_due(1_000);
        prop_assert_eq!(evicted.len(), 1);
        let s = evicted.into_iter().next().unwrap().into_summary(0);
        let min = *ages.iter().min().unwrap();
        let max = *ages.iter().max().unwrap();
        prop_assert!(s.age_us >= min && s.age_us <= max,
            "avg age {} outside [{min},{max}]", s.age_us);
    }

    #[test]
    fn split_preserves_interval_coverage(
        a in arb_interval(),
        b in arb_interval(),
    ) {
        // After inserting two intervals, the union of entry intervals must
        // equal the union of the inputs (no time lost, none invented).
        let mut ts = TimeSpaceList::new();
        ts.insert(&summary(a.0, a.1, AggState::Count(1), 1, 0), 0, 1_000);
        ts.insert(&summary(b.0, b.1, AggState::Count(1), 1, 0), 0, 1_000);
        ts.check_invariants();
        let covered: i64 = ts.entries().map(|e| e.te - e.tb).sum();
        let lo = a.0.min(b.0);
        let hi = a.1.max(b.1);
        let overlap_gap = if a.1 < b.0 || b.1 < a.0 {
            // Disjoint: subtract the hole between them.
            (b.0.max(a.0) - a.1.min(b.1)).max(0)
        } else {
            0
        };
        prop_assert_eq!(covered, hi - lo - overlap_gap);
    }
}
