//! Property-based tests of the reconciliation algebra (Section 6.1):
//! convergence, idempotence, and removal-cache correctness — plus the
//! peers' digest exchange, whose plan ships only the tombstones the
//! digest lacks, and the removal notice a peer sends when data arrives
//! for a query it removed.

use mortar_core::msg::{MortarMsg, SummaryFrame};
use mortar_core::op::{OpKind, OpRegistry};
use mortar_core::peer::{MortarPeer, PeerConfig};
use mortar_core::query::{build_records, QueryId, QuerySpec, SensorSpec};
use mortar_core::reconcile::{reconcile, store_hash};
use mortar_core::window::WindowSpec;
use mortar_net::{NodeId, SimBuilder, Simulator, Topology};
use mortar_overlay::{Tree, TreeSet};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

type Store = (BTreeMap<String, u64>, BTreeMap<String, u64>);

/// A global command history: the injector's object store issues strictly
/// increasing, unique sequence numbers (single-writer semantics), so a
/// command is (name, seq = position + 1, install/remove).
type History = Vec<(String, u64, bool)>;

fn arb_history() -> impl Strategy<Value = History> {
    proptest::collection::vec((0u8..6, proptest::bool::ANY), 0..14).prop_map(|cmds| {
        cmds.into_iter()
            .enumerate()
            .map(|(i, (name, is_install))| (format!("q{name}"), i as u64 + 1, is_install))
            .collect()
    })
}

/// Builds a store from the subset of history commands a node received
/// (per-name latest command wins; best-effort delivery loses arbitrary
/// commands, which is what reconciliation must repair).
fn replay(history: &History, mask: u64) -> Store {
    let mut installed: BTreeMap<String, u64> = BTreeMap::new();
    let mut removed: BTreeMap<String, u64> = BTreeMap::new();
    for (i, (name, seq, is_install)) in history.iter().enumerate() {
        if (mask >> (i % 63)) & 1 == 0 {
            continue; // This command was lost in transit.
        }
        if *is_install {
            if removed.get(name).is_some_and(|&r| r >= *seq) {
                continue;
            }
            if installed.get(name).is_some_and(|&x| x >= *seq) {
                continue;
            }
            removed.remove(name);
            installed.insert(name.clone(), *seq);
        } else {
            if installed.get(name).is_some_and(|&x| x > *seq) {
                continue;
            }
            installed.remove(name);
            let e = removed.entry(name.clone()).or_insert(0);
            *e = (*e).max(*seq);
        }
    }
    (installed, removed)
}

/// Applies a reconcile outcome to a store.
fn apply(store: &mut Store, other: &Store) {
    let out = reconcile(&store.0, &store.1, &other.0, &other.1);
    for (name, seq) in out.to_install {
        store.1.remove(&name);
        store.0.insert(name, seq);
    }
    for (name, seq) in out.to_remove {
        store.0.remove(&name);
        store.1.insert(name, seq);
    }
}

/// The query id a history name is interned under (`q3` → 4): fixed per
/// name, as the single-writer object store issues it.
fn id_of(name: &str) -> QueryId {
    QueryId(name[1..].parse::<u32>().expect("history names are q<digit>") + 1)
}

/// Two peers whose stores hold the commands of `history` each received:
/// installs are single-member queries rooted at the receiving peer (no
/// tree links, so no heartbeat starts an exchange on its own).
fn peer_pair(history: &History, masks: [u64; 2]) -> Simulator<MortarPeer> {
    let reg = OpRegistry::new();
    let mut sim = SimBuilder::new(Topology::star(2, 1_000), 7)
        .build(move |id| MortarPeer::new(id, PeerConfig::default(), reg.clone()));
    for (node, mask) in [(0 as NodeId, masks[0]), (1, masks[1])] {
        for (i, (name, seq, is_install)) in history.iter().enumerate() {
            if (mask >> (i % 63)) & 1 == 0 {
                continue;
            }
            let id = id_of(name);
            let msg = if *is_install {
                let spec = QuerySpec {
                    name: name.clone(),
                    root: node,
                    members: vec![node],
                    op: OpKind::Sum { field: 0 },
                    window: WindowSpec::time_tumbling_us(1_000_000),
                    filter: None,
                    sensor: SensorSpec::Periodic { period_us: 1_000_000, value: 1.0 },
                    post: None,
                };
                let trees = TreeSet::new(vec![Tree::from_parents(0, vec![None])]);
                let records = build_records(&spec.members, &trees);
                MortarMsg::Install { spec: Arc::new(spec), id, seq: *seq, records, issue_age_us: 0 }
            } else {
                MortarMsg::Remove { id, seq: *seq }
            };
            sim.inject(node, node, msg, 64);
            sim.run_for_secs(0.01);
        }
    }
    sim
}

/// Both peers' sorted store entries and fingerprints.
type StoreView = Vec<(Vec<(String, u64, bool)>, u64)>;

fn stores(sim: &Simulator<MortarPeer>) -> StoreView {
    (0..2)
        .map(|node| {
            let app = sim.app(node);
            let mut entries: Vec<_> =
                app.store_entries().map(|(n, s, removed)| (n.to_string(), s, removed)).collect();
            entries.sort();
            (entries, app.store_fingerprint())
        })
        .collect()
}

/// Runs one digest exchange: peer 1's heartbeat carries its fingerprint,
/// peer 0 answers the mismatch with its digest, peer 1 replies with the
/// plan, and peer 0 completes with a transfer.
fn exchange(sim: &mut Simulator<MortarPeer>) {
    let hash = sim.app(1).store_fingerprint();
    sim.inject(0, 1, MortarMsg::Heartbeat { store_hash: Some(hash) }, 16);
    sim.run_for_secs(1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pairwise_reconciliation_converges(
        history in arb_history(),
        mask_a in 0u64..u64::MAX,
        mask_b in 0u64..u64::MAX,
    ) {
        let mut sa = replay(&history, mask_a);
        let mut sb = replay(&history, mask_b);
        // One full exchange: both sides compute against the other's
        // original sets (as the wire protocol does), then apply.
        let snap_a = sa.clone();
        let snap_b = sb.clone();
        apply(&mut sa, &snap_b);
        apply(&mut sb, &snap_a);
        // A second round must reach a fixpoint with identical installs.
        let snap_a2 = sa.clone();
        let snap_b2 = sb.clone();
        apply(&mut sa, &snap_b2);
        apply(&mut sb, &snap_a2);
        prop_assert_eq!(sa.0, sb.0, "installed sets diverged");
    }

    #[test]
    fn reconcile_with_self_is_empty(history in arb_history(), mask in 0u64..u64::MAX) {
        let a = replay(&history, mask);
        let out = reconcile(&a.0, &a.1, &a.0, &a.1);
        prop_assert!(out.to_install.is_empty());
        prop_assert!(out.to_remove.is_empty());
    }

    #[test]
    fn equal_stores_hash_equal(history in arb_history(), mask in 0u64..u64::MAX) {
        let a = replay(&history, mask);
        let h1 = store_hash(a.0.iter().map(|(n, &s)| (n.as_str(), s)));
        let h2 = store_hash(a.0.iter().map(|(n, &s)| (n.as_str(), s)));
        prop_assert_eq!(h1, h2);
    }

    #[test]
    fn newer_removals_always_win(
        history in arb_history(),
        mask in 0u64..u64::MAX,
        name in 0u8..6,
    ) {
        // A removal with a higher sequence than any install must purge the
        // query from the local store after reconciliation.
        let name = format!("q{name}");
        let mut other: Store = (BTreeMap::new(), BTreeMap::new());
        other.1.insert(name.clone(), 1_000);
        let mut sa = replay(&history, mask);
        apply(&mut sa, &other);
        prop_assert!(!sa.0.contains_key(&name), "stale install survived a newer removal");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn digest_plan_ships_every_tombstone_that_matters(
        history in arb_history(),
        mask_a in 0u64..u64::MAX,
        mask_b in 0u64..u64::MAX,
    ) {
        // The plan peer 1 sends drops each tombstone peer 0's digest
        // already holds at an equal or newer sequence. Handing peer 0 the
        // planner's *whole* removal cache as well (the unfiltered plan)
        // must leave both peers' stores exactly where the filtered
        // exchange leaves them.
        let mut filtered = peer_pair(&history, [mask_a, mask_b]);
        let mut unfiltered = peer_pair(&history, [mask_a, mask_b]);
        prop_assert_eq!(stores(&filtered), stores(&unfiltered));
        let removed: Vec<(Arc<str>, QueryId, u64)> = unfiltered
            .app(1)
            .store_entries()
            .filter(|&(_, _, removed)| removed)
            .map(|(n, s, _)| (Arc::from(n), id_of(n), s))
            .collect();
        let plan =
            MortarMsg::ReconcilePlan { push: vec![], want: vec![], want_removed: vec![], removed };
        unfiltered.inject(0, 1, plan, 64);
        unfiltered.run_for_secs(0.01);
        exchange(&mut filtered);
        exchange(&mut unfiltered);
        let (a, b) = (stores(&filtered), stores(&unfiltered));
        prop_assert_eq!(&a, &b, "a dropped tombstone changed a store");
        prop_assert_eq!(a[0].1, a[1].1, "one digest exchange did not converge");
    }
}

#[test]
fn data_for_a_removed_query_starts_one_counted_digest_exchange() {
    // Both peers installed q0 and q1..q20; only peer 0 saw q0's removal,
    // so peer 1 still runs q0. A data frame for q0 from 1 to 0 is the
    // divergence signal: peer 0 answers with its store digest, which
    // carries the tombstone and so removes q0 at peer 1. (Mask bit 1 is
    // the removal, which only peer 0 received.)
    let mut history: History = vec![("q0".into(), 1, true), ("q0".into(), 2, false)];
    history.extend((1..=20u64).map(|n| (format!("q{n}"), n + 2, true)));
    let mut sim = peer_pair(&history, [u64::MAX, !0b10]);
    assert!(sim.app(1).has_query("q0") && !sim.app(0).has_query("q0"));
    let before = sim.app(0).stats;
    let frame = SummaryFrame {
        query: id_of("q0"),
        tree: 0,
        hold_age_us: 0,
        tuples: Arc::from(Vec::new()),
        store_hash: None,
    };
    sim.inject(0, 1, MortarMsg::SummaryBatch(frame), 64);
    sim.run_for_secs(1.0);

    assert!(!sim.app(1).has_query("q0"), "the removal notice did not remove q0 at peer 1");
    let after = sim.app(0).stats;
    let (msgs, bytes) = (
        after.reconcile_msgs_out - before.reconcile_msgs_out,
        after.reconcile_bytes_out - before.reconcile_bytes_out,
    );
    assert!(msgs >= 1, "the removal notice was not counted as reconciliation traffic");
    // The notice is a digest: 16 B plus 12 B per store entry (20
    // installs and one tombstone), whatever the specs weigh.
    let entries = sim.app(0).store_entries().count() as u64;
    assert_eq!(entries, 21);
    assert!(bytes <= 16 + 12 * entries, "the notice cost {bytes} B, more than a digest");
    let view = stores(&sim);
    assert_eq!(view[0], view[1], "one notice did not converge the pair");
}
