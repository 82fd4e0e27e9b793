//! Differential property of the peer-side routing decision (Section 3.3).
//!
//! A peer evaluates the staged policy on its own install record: its level
//! on every tree and the record's per-tree child lists, which hold peer
//! ids. It must choose exactly what the tree-set form of the policy
//! chooses for the same member under the same liveness, state and RNG
//! seed, the stage-4 child included.

use mortar_core::query::build_records;
use mortar_net::NodeId;
use mortar_overlay::{
    random_tree, route_decision, route_decision_local, Decision, RouteState, TreeSet,
    TTL_DOWN_LIMIT,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Peer id of member `m`. Ids differ from member indices, so a child's
/// index in its list and the child itself never coincide.
fn peer_of(m: usize) -> NodeId {
    1_000 + 7 * m as NodeId
}

fn member_of(p: NodeId) -> usize {
    ((p - 1_000) / 7) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_peer_decides_on_its_record_as_the_policy_does_on_the_tree_set(
        n in 2usize..24,
        width in 1usize..5,
        bf in 1usize..6,
        seed in 0u64..1_000,
        child_mask in 0u64..u64::MAX,
        tighten_mask in 0u64..u64::MAX,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let set = TreeSet::new((0..width).map(|_| random_tree(n, 0, bf, &mut rng)).collect());
        let members: Vec<NodeId> = (0..n).map(peer_of).collect();
        let records = build_records(&members, &set);
        let child_up = |m: usize| (child_mask >> (m % 64)) & 1 == 1;
        for (m, rec) in records.iter().enumerate() {
            let levels = rec.levels();
            for arrival in 0..width {
                for parent_mask in 0..1u32 << width {
                    let pl: Vec<bool> = (0..width)
                        .map(|x| set.tree(x).parent(m).is_some() && (parent_mask >> x) & 1 == 1)
                        .collect();
                    for ttl in 0..=TTL_DOWN_LIMIT {
                        // Tighten some trees' last levels below the
                        // member's own, so flex-down skips them.
                        let mut state = RouteState::at_origin(&set, m);
                        state.ttl_down = ttl;
                        for x in 0..width {
                            if (tighten_mask >> ((m * width + x) % 64)) & 1 == 1 {
                                state.last_level[x] = state.last_level[x].saturating_sub(1);
                            }
                        }
                        let draw_seed = seed ^ ((m as u64) << 20) ^ (u64::from(parent_mask) << 8);
                        let (mut want_state, mut got_state) = (state, state);
                        let mut want_rng = SmallRng::seed_from_u64(draw_seed);
                        let mut got_rng = SmallRng::seed_from_u64(draw_seed);
                        let want = route_decision(
                            &set,
                            m,
                            arrival,
                            &mut want_state,
                            &pl,
                            &mut |_, c| child_up(c),
                            &mut want_rng,
                        );
                        let got = match route_decision_local(
                            &levels,
                            &rec.links,
                            arrival,
                            &mut got_state,
                            &pl,
                            &mut |_, p| child_up(member_of(p)),
                            &mut got_rng,
                        ) {
                            Decision::Child { tree, child } => Decision::Child {
                                tree,
                                child: member_of(rec.links[tree].children[child]),
                            },
                            d => d,
                        };
                        prop_assert_eq!(got, want, "member {} arrival {}", m, arrival);
                        prop_assert_eq!(got_state, want_state);
                        prop_assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "draws differ");
                        if let Decision::Child { tree, child } = want {
                            prop_assert!(set.tree(tree).children(m).contains(&child));
                            prop_assert!(child_up(child), "descended to a dead child");
                            prop_assert_eq!(want_state.ttl_down, ttl + 1);
                        }
                    }
                }
            }
        }
    }
}
