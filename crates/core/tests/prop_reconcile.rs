//! Property-based tests of the reconciliation algebra (Section 6.1):
//! convergence, idempotence, and removal-cache correctness — plus the
//! peers' digest exchange, whose plan ships only the tombstones the
//! digest lacks, and the removal notice a peer sends when data arrives
//! for a query it removed.

use mortar_core::msg::{MortarMsg, SummaryFrame};
use mortar_core::op::{OpKind, OpRegistry};
use mortar_core::peer::{MortarPeer, PeerConfig};
use mortar_core::query::{build_records, QueryId, QuerySpec, SensorSpec};
use mortar_core::reconcile::{digest_plan, reconcile, store_hash};
use mortar_core::window::WindowSpec;
use mortar_net::{NodeId, SimBuilder, Simulator, Topology};
use mortar_overlay::{Tree, TreeSet};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
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

/// The history name interned under `id`: [`id_of`]'s inverse.
fn name_of(id: QueryId) -> String {
    format!("q{}", id.0 - 1)
}

/// A single-member query on `node`, rooted there (no tree links, so no
/// heartbeat starts an exchange on its own).
fn spec_for(name: &str, node: NodeId) -> QuerySpec {
    QuerySpec {
        name: name.to_string(),
        root: node,
        members: vec![node],
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(1_000_000),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: 1_000_000, value: 1.0 },
        post: None,
    }
}

/// The install command for [`spec_for`]`(name, node)`.
fn install_msg(name: &str, node: NodeId, id: QueryId, seq: u64) -> MortarMsg {
    let spec = spec_for(name, node);
    let trees = TreeSet::new(vec![Tree::from_parents(0, vec![None])]);
    let records = build_records(&spec.members, &trees);
    MortarMsg::Install { spec: Arc::new(spec), id, seq, records, issue_age_us: 0 }
}

/// Two peers whose stores hold the commands of `history` each received;
/// installs are [`spec_for`] the receiving peer.
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
                install_msg(name, node, id, *seq)
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
                app.store_entries().map(|(id, s, removed)| (name_of(id), s, removed)).collect();
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

/// A peer's store read back in name space: (installed, tombstones).
fn name_store(entries: &[(String, u64, bool)]) -> Store {
    let mut store: Store = (BTreeMap::new(), BTreeMap::new());
    for (name, seq, removed) in entries {
        let side = if *removed { &mut store.1 } else { &mut store.0 };
        side.insert(name.clone(), *seq);
    }
    store
}

/// Applies installs, then removals, to a name-space store under the
/// peer's sequence rules: an install loses to an equal or newer tombstone
/// or incumbent; a removal cancels only an older install, and a removal
/// of a name the store does not run is cached as its tombstone.
fn apply_decisions(store: &mut Store, installs: &[(String, u64)], removals: &[(String, u64)]) {
    for (name, seq) in installs {
        let beaten = store.1.get(name).is_some_and(|r| r >= seq)
            || store.0.get(name).is_some_and(|s| s >= seq);
        if !beaten {
            store.1.remove(name);
            store.0.insert(name.clone(), *seq);
        }
    }
    for (name, rseq) in removals {
        if store.1.get(name).is_some_and(|r| r >= rseq) {
            continue;
        }
        match store.0.get(name) {
            Some(seq) if seq >= rseq => {}
            Some(_) => {
                store.0.remove(name);
                store.1.insert(name.clone(), *rseq);
            }
            None => {
                store.1.insert(name.clone(), *rseq);
            }
        }
    }
}

/// Where one digest exchange leaves a pair, by the name-space algebra: the
/// digest sender `s` applies the plan's pushes and the planner's
/// tombstones; the planner `p` applies the transfer (its wants, answered
/// from `s`'s pre-plan installs) and the digest's tombstones.
fn reference_exchange(s: &Store, p: &Store) -> [Store; 2] {
    let plan = digest_plan(&p.0, &p.1, &s.0, &s.1);
    let tombstones = |store: &Store| -> Vec<(String, u64)> {
        store.1.iter().map(|(n, &r)| (n.clone(), r)).collect()
    };
    let transfer: Vec<(String, u64)> =
        plan.want.iter().filter_map(|(n, _)| s.0.get(n).map(|&seq| (n.clone(), seq))).collect();
    let (mut s2, mut p2) = (s.clone(), p.clone());
    apply_decisions(&mut s2, &plan.push, &tombstones(p));
    apply_decisions(&mut p2, &transfer, &tombstones(s));
    [s2, p2]
}

/// The wire size of the plan planner `p` (peer 1) owes `s`'s digest, by the
/// name-space algebra: the pushes in full, the wants, and `p`'s tombstones
/// that `s` lacks or holds at an older sequence.
fn reference_plan_bytes(s: &Store, p: &Store) -> u64 {
    let plan = digest_plan(&p.0, &p.1, &s.0, &s.1);
    let tombstones = p.1.iter().filter(|&(n, r)| s.1.get(n).is_none_or(|x| x < r));
    let msg = MortarMsg::ReconcilePlan {
        push: plan
            .push
            .iter()
            .map(|(n, seq)| (Arc::new(spec_for(n, 1)), id_of(n), *seq, 0))
            .collect(),
        want: plan.want.iter().map(|(n, _)| id_of(n)).collect(),
        removed: tombstones.map(|(n, &r)| (id_of(n), r)).collect(),
    };
    u64::from(msg.wire_bytes())
}

/// A store digest: `(id, seq)` per install, then per tombstone.
type Digest = (Vec<(QueryId, u64)>, Vec<(QueryId, u64)>);

/// Peer 0's store digest, both lists in id order.
fn digest_of(sim: &Simulator<MortarPeer>) -> Digest {
    let (mut installed, mut removed) = (Vec::new(), Vec::new());
    for (id, seq, is_removed) in sim.app(0).store_entries() {
        let side = if is_removed { &mut removed } else { &mut installed };
        side.push((id, seq));
    }
    installed.sort();
    removed.sort();
    (installed, removed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn digest_exchange_matches_the_name_space_algebra(
        history in arb_history(),
        mask_a in 0u64..u64::MAX,
        mask_b in 0u64..u64::MAX,
    ) {
        // The peers' merge-join digest handling, end to end, against the
        // reference algebra (`digest_plan` in name space) run from the
        // same two stores.
        let mut sim = peer_pair(&history, [mask_a, mask_b]);
        let before = stores(&sim);
        let (s, p) = (name_store(&before[0].0), name_store(&before[1].0));
        let expected = reference_exchange(&s, &p);
        // Peer 1 sends one message in the exchange, the plan, and only if
        // the fingerprints differ.
        let plan_bytes = if before[0].1 == before[1].1 { 0 } else { reference_plan_bytes(&s, &p) };
        let planner_bytes = sim.app(1).stats.reconcile_bytes_out;
        exchange(&mut sim);
        prop_assert_eq!(
            sim.app(1).stats.reconcile_bytes_out - planner_bytes,
            plan_bytes,
            "the plan differs from the reference algebra's"
        );
        let after = stores(&sim);
        for node in 0..2 {
            prop_assert_eq!(
                &name_store(&after[node].0),
                &expected[node],
                "peer {} left the reference algebra",
                node
            );
        }
    }

    #[test]
    fn an_out_of_order_digest_lands_where_the_sorted_one_does(
        history in arb_history(),
        mask_a in 0u64..u64::MAX,
        mask_b in 0u64..u64::MAX,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        // The digest is peer input: delivering peer 0's digest with both
        // lists shuffled must leave both stores where the sorted one does,
        // at the same reconcile traffic (a mis-joined entry would be
        // pushed or requested for nothing and then skipped, leaving the
        // stores alone).
        let mut sorted = peer_pair(&history, [mask_a, mask_b]);
        let mut shuffled = peer_pair(&history, [mask_a, mask_b]);
        let (installed, removed) = digest_of(&sorted);
        let mut rng = SmallRng::seed_from_u64(shuffle_seed);
        let (mut installed_mixed, mut removed_mixed) = (installed.clone(), removed.clone());
        installed_mixed.shuffle(&mut rng);
        removed_mixed.shuffle(&mut rng);
        for (sim, installed, removed) in [
            (&mut sorted, installed, removed),
            (&mut shuffled, installed_mixed, removed_mixed),
        ] {
            sim.inject(1, 0, MortarMsg::ReconcileDigest { installed, removed }, 64);
            sim.run_for_secs(1.0);
        }
        prop_assert_eq!(stores(&sorted), stores(&shuffled));
        let traffic = |sim: &Simulator<MortarPeer>| {
            (0..2).map(|n| (sim.app(n).stats.reconcile_msgs_out, sim.app(n).stats.reconcile_bytes_out))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(traffic(&sorted), traffic(&shuffled));
    }

    #[test]
    fn fingerprints_are_equal_iff_stores_are(
        history in arb_history(),
        mask_a in 0u64..u64::MAX,
        mask_b in 0u64..u64::MAX,
    ) {
        // Each peer keeps its fingerprint by folding in every store change;
        // across peers and across exchanges it must still say exactly
        // whether the two stores hold the same entries.
        let mut sim = peer_pair(&history, [mask_a, mask_b]);
        for round in 0..3 {
            let view = stores(&sim);
            prop_assert_eq!(
                view[0].1 == view[1].1,
                view[0].0 == view[1].0,
                "round {}: fingerprints {:x} / {:x} for stores {:?} / {:?}",
                round,
                view[0].1,
                view[1].1,
                &view[0].0,
                &view[1].0
            );
            exchange(&mut sim);
        }
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
        let removed: Vec<(QueryId, u64)> = unfiltered
            .app(1)
            .store_entries()
            .filter(|&(_, _, removed)| removed)
            .map(|(id, s, _)| (id, s))
            .collect();
        let plan = MortarMsg::ReconcilePlan { push: vec![], want: vec![], removed };
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

#[test]
fn an_id_names_one_query_and_a_tombstone_touches_only_its_own_id() {
    // Peer input could reuse a name under another id, or an id under
    // another name. The store goes by id: a tombstone for q0's id leaves
    // a query installed as q0 under another id running, and an install of
    // another name under that held id is refused.
    let mut sim = peer_pair(&Vec::new(), [0, 0]);
    let other_id = QueryId(id_of("q0").0 + 100);
    sim.inject(0, 0, install_msg("q0", 0, other_id, 3), 64);
    sim.run_for_secs(0.01);
    let removed = vec![(id_of("q0"), 2)];
    sim.inject(0, 1, MortarMsg::ReconcilePlan { push: vec![], want: vec![], removed }, 64);
    sim.inject(0, 0, install_msg("q1", 0, other_id, 5), 64);
    sim.run_for_secs(0.01);
    let peer = sim.app(0);
    assert_eq!(peer.query_id("q0"), Some(other_id));
    assert!(peer.is_active("q0") && !peer.has_query("q1"));
    let entries: Vec<_> = peer.store_entries().collect();
    assert_eq!(entries, [(other_id, 3, false), (id_of("q0"), 2, true)]);
}
