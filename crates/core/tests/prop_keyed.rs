//! Property tests of keyed GROUP-BY partial aggregation: the per-key map
//! is a proper Mortar partial — merging is associative and commutative,
//! and any merge order over any partitioning of the sources reproduces the
//! centralized reference bit for bit. That is all the sibling trees need:
//! a keyed state, like a scalar one, rides whole on its window's stripe
//! tree.

use mortar_core::op::{KeyField, OpKind, OpRegistry};
use mortar_core::tuple::RawTuple;
use mortar_core::value::AggState;
use proptest::prelude::*;

/// The op under test: per-key sums, keyed by the tuple's routing key.
fn keyed_sum(cap: usize) -> OpKind {
    OpKind::Keyed { key_field: KeyField::TupleKey, cap, inner: Box::new(OpKind::Sum { field: 0 }) }
}

/// Lifts `tuples` into one partial aggregate.
fn lift_all(op: &OpKind, reg: &OpRegistry, tuples: &[(u64, f64)]) -> AggState {
    let mut st = op.zero(reg);
    for (i, (k, v)) in tuples.iter().enumerate() {
        op.lift(reg, &mut st, i as u32, &RawTuple { key: *k, vals: vec![*v] });
    }
    st
}

/// A tuple stream over a bounded key alphabet (≤ 12 distinct keys, so a
/// cap of 64 never overflows). Values are integer-valued f64 — exact
/// under addition — so reordered merges must agree *bit for bit*: any
/// divergence is a keyed-merge bug, not float round-off. (In the engine,
/// real-valued sums stay reproducible because the merge order itself is
/// deterministic.)
fn tuples() -> impl Strategy<Value = Vec<(u64, f64)>> {
    proptest::collection::vec((0u64..12, (-100i32..100).prop_map(f64::from)), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partitioned_merges_match_centralized(ts in tuples(), parts in 2usize..6, rot in 0usize..6) {
        // Deal the stream across `parts` sources, lift each partition
        // separately, then merge the partials in a rotated order — the
        // result must equal lifting everything centrally, bit for bit.
        let op = keyed_sum(64);
        let reg = OpRegistry::new();
        let reference = lift_all(&op, &reg, &ts);
        let mut partials: Vec<Vec<(u64, f64)>> = vec![Vec::new(); parts];
        for (i, t) in ts.iter().enumerate() {
            partials[i % parts].push(*t);
        }
        let states: Vec<AggState> =
            partials.iter().map(|p| lift_all(&op, &reg, p)).collect();
        let mut merged = op.zero(&reg);
        for i in 0..parts {
            merged.merge(&states[(i + rot) % parts]);
        }
        prop_assert_eq!(&merged, &reference, "rotated partition merge diverged");
    }

    #[test]
    fn merge_is_commutative_and_associative(ts in tuples()) {
        let op = keyed_sum(64);
        let reg = OpRegistry::new();
        let third = (ts.len() / 3).max(1);
        let a = lift_all(&op, &reg, &ts[..third.min(ts.len())]);
        let b = lift_all(&op, &reg, &ts[third.min(ts.len())..(2 * third).min(ts.len())]);
        let c = lift_all(&op, &reg, &ts[(2 * third).min(ts.len())..]);
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "associativity violated");
        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "commutativity violated");
    }

    #[test]
    fn overflow_is_bounded_and_deterministic(ts in proptest::collection::vec((0u64..64, -10.0f64..10.0), 1..80)) {
        // Over a wide key alphabet with a small cap, the map never exceeds
        // the cap and the same lift/merge order reproduces itself exactly.
        let op = keyed_sum(4);
        let reg = OpRegistry::new();
        let a = lift_all(&op, &reg, &ts);
        let b = lift_all(&op, &reg, &ts);
        prop_assert_eq!(&a, &b, "same order must reproduce identically");
        let AggState::Keyed { groups, .. } = &a else {
            return Err(TestCaseError::fail("non-keyed state"));
        };
        prop_assert!(groups.len() <= 4, "cap violated: {} groups", groups.len());
        // Merging two capped partials stays within the cap.
        let mut merged = a.clone();
        merged.merge(&b);
        let AggState::Keyed { groups, .. } = &merged else {
            return Err(TestCaseError::fail("non-keyed state"));
        };
        prop_assert!(groups.len() <= 4, "merge overflowed the cap");
    }
}
