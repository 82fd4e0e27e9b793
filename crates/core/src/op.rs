//! The in-network operator API (Section 2.2).
//!
//! "Each in-network operator only needs to provide a merge function, that
//! the runtime calls to inject a new tuple into the window, and a remove
//! function, that the runtime calls as tuples exit the window." In this
//! implementation merging is split into the standard lift/combine pair:
//! `lift` turns a raw tuple into a partial state (merging across time) and
//! [`crate::value::AggState::merge`] combines partials (across time *and*
//! space). User-defined operators implement [`CustomOp`] and are named in
//! an [`OpRegistry`] shared by all peers.

use crate::tuple::RawTuple;
use crate::value::{bloom_insert, topk_order, AggState, KeyedGroups, Row, TopKEntry, BLOOM_WORDS};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What a GROUP-BY key is extracted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyField {
    /// The raw tuple's `key` (e.g. a source address) — the natural choice
    /// for top-k-talkers-style workloads.
    TupleKey,
    /// A value field, truncated to `u64`.
    Field(usize),
}

impl KeyField {
    /// Extracts the group key from a raw tuple.
    pub fn of(&self, t: &RawTuple) -> u64 {
        match self {
            KeyField::TupleKey => t.key,
            KeyField::Field(i) => t.field(*i) as u64,
        }
    }
}

/// Comparison operators for select predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Field equals constant.
    Eq,
    /// Field differs from constant.
    Ne,
    /// Field is less than constant.
    Lt,
    /// Field is at most constant.
    Le,
    /// Field is greater than constant.
    Gt,
    /// Field is at least constant.
    Ge,
}

/// A select (filter) predicate applied to raw tuples at each source.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Tuple key equals the constant (e.g. a target MAC address).
    KeyEq(u64),
    /// Numeric comparison on a field.
    Field {
        /// Field index.
        field: usize,
        /// Comparison.
        cmp: Cmp,
        /// Constant operand.
        value: f64,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate against a raw tuple.
    pub fn eval(&self, t: &RawTuple) -> bool {
        match self {
            Predicate::KeyEq(k) => t.key == *k,
            Predicate::Field { field, cmp, value } => {
                let v = t.field(*field);
                match cmp {
                    Cmp::Eq => (v - value).abs() < 1e-9,
                    Cmp::Ne => (v - value).abs() >= 1e-9,
                    Cmp::Lt => v < *value,
                    Cmp::Le => v <= *value,
                    Cmp::Gt => v > *value,
                    Cmp::Ge => v >= *value,
                }
            }
            Predicate::And(a, b) => a.eval(t) && b.eval(t),
        }
    }
}

/// A user-defined aggregate: the paper's custom-operator API.
///
/// Implementations must be associative and commutative under
/// [`AggState::merge`]-compatible semantics; the runtime guarantees
/// duplicate-free invocation thanks to time-division partitioning, so no
/// order/duplicate-insensitive synopses are needed.
pub trait CustomOp: Send + Sync {
    /// The empty partial state.
    fn zero(&self) -> AggState;
    /// Merges one raw tuple from `source` into a partial state.
    fn lift(&self, state: &mut AggState, source: u32, tuple: &RawTuple);
    /// Optional transform applied to the final state at the query root
    /// (e.g. trilateration over a top-k of signal strengths).
    fn finalize(&self, state: &AggState) -> AggState {
        state.clone()
    }
}

/// Built-in operator types plus user-defined extensions.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Sum of a field.
    Sum {
        /// Field index.
        field: usize,
    },
    /// Count of tuples.
    Count,
    /// Average of a field.
    Avg {
        /// Field index.
        field: usize,
    },
    /// Minimum of a field.
    Min {
        /// Field index.
        field: usize,
    },
    /// Maximum of a field.
    Max {
        /// Field index.
        field: usize,
    },
    /// The k tuples with the largest value of `field`; whole tuples carried
    /// as payload (the Wi-Fi query's "three loudest frames").
    TopK {
        /// How many to keep.
        k: usize,
        /// Scoring field.
        field: usize,
    },
    /// Pass-through union of raw rows, bounded by `cap` rows per window.
    Union {
        /// Row bound.
        cap: usize,
    },
    /// Shannon entropy over a categorical field (anomaly detection).
    Entropy {
        /// Field index holding the category.
        field: usize,
        /// Maximum distinct categories tracked.
        cap: usize,
    },
    /// Bloom-filter index over tuple keys.
    BloomIndex,
    /// Approximate distinct count of tuple keys (HyperLogLog).
    Distinct,
    /// A user-defined operator resolved through the [`OpRegistry`].
    Custom {
        /// Registered name.
        name: String,
    },
    /// GROUP-BY: one inner partial aggregate per key, bounded by `cap`
    /// distinct keys with the deterministic [`AggState::Freq`]-style
    /// overflow policy (tracked keys keep merging, unseen keys beyond the
    /// cap are dropped).
    Keyed {
        /// Where the group key comes from.
        key_field: KeyField,
        /// Maximum distinct keys tracked per window.
        cap: usize,
        /// The per-group aggregate.
        inner: Box<OpKind>,
    },
}

/// Default per-window distinct-key bound for GROUP-BY state.
pub const DEFAULT_KEYED_CAP: usize = 1024;

impl OpKind {
    /// The empty partial state for this operator.
    pub fn zero(&self, registry: &OpRegistry) -> AggState {
        match self {
            OpKind::Sum { .. } => AggState::Sum(0.0),
            OpKind::Count => AggState::Count(0),
            OpKind::Avg { .. } => AggState::Avg { sum: 0.0, n: 0 },
            OpKind::Min { .. } => AggState::Min(f64::INFINITY),
            OpKind::Max { .. } => AggState::Max(f64::NEG_INFINITY),
            OpKind::TopK { k, .. } => AggState::TopK { k: *k, entries: Vec::new() },
            OpKind::Union { cap } => AggState::Rows { cap: *cap, rows: Vec::new() },
            OpKind::Entropy { cap, .. } => AggState::Freq { cap: *cap, counts: BTreeMap::new() },
            OpKind::BloomIndex => AggState::Bloom { bits: Box::new([0u64; BLOOM_WORDS]) },
            OpKind::Distinct => {
                AggState::Hll { registers: Box::new([0u8; crate::value::HLL_REGISTERS]) }
            }
            // Unregistered names degrade to the inert `None` state rather
            // than panicking inside the peer runtime; `Engine::validate`
            // rejects such specs at install time.
            OpKind::Custom { name } => {
                registry.get(name).map(|op| op.zero()).unwrap_or(AggState::None)
            }
            OpKind::Keyed { cap, .. } => AggState::Keyed { cap: *cap, groups: KeyedGroups::new() },
        }
    }

    /// Merges one raw tuple into a partial state (merging across time).
    pub fn lift(&self, registry: &OpRegistry, state: &mut AggState, source: u32, t: &RawTuple) {
        match (self, state) {
            (OpKind::Sum { field }, AggState::Sum(s)) => *s += t.field(*field),
            (OpKind::Count, AggState::Count(c)) => *c += 1,
            (OpKind::Avg { field }, AggState::Avg { sum, n }) => {
                *sum += t.field(*field);
                *n += 1;
            }
            (OpKind::Min { field }, AggState::Min(m)) => *m = m.min(t.field(*field)),
            (OpKind::Max { field }, AggState::Max(m)) => *m = m.max(t.field(*field)),
            (OpKind::TopK { k, field }, AggState::TopK { entries, .. }) => {
                entries.push(TopKEntry { score: t.field(*field), source, payload: t.vals.clone() });
                entries.sort_by(topk_order);
                entries.truncate(*k);
            }
            (OpKind::Union { cap }, AggState::Rows { rows, .. }) => {
                if rows.len() < *cap {
                    rows.push(Row { source, key: t.key, vals: t.vals.clone() });
                }
            }
            (OpKind::Entropy { field, cap }, AggState::Freq { counts, .. }) => {
                let key = t.field(*field) as u64;
                if counts.len() < *cap || counts.contains_key(&key) {
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
            (OpKind::BloomIndex, AggState::Bloom { bits }) => bloom_insert(bits, t.key),
            (OpKind::Distinct, AggState::Hll { registers }) => {
                crate::value::hll_insert(registers, t.key)
            }
            (OpKind::Custom { name }, state) => {
                if let Some(op) = registry.get(name) {
                    op.lift(state, source, t);
                }
            }
            (OpKind::Keyed { key_field, inner, .. }, AggState::Keyed { cap, groups }) => {
                // Bounded state: once `cap` groups exist, new keys drop.
                if let Some(g) = groups.entry_capped(key_field.of(t), *cap, || inner.zero(registry))
                {
                    inner.lift(registry, g, source, t);
                }
            }
            (kind, state) => {
                debug_assert!(false, "lift mismatch: {kind:?} into {state:?}");
            }
        }
    }

    /// Root-side finalization: resolves custom operators, recurses into
    /// keyed groups, and normalizes empty-window sentinels so a window that
    /// saw no data surfaces [`AggState::None`] (never ±inf) to subscribers.
    pub fn finalize(&self, registry: &OpRegistry, state: &AggState) -> AggState {
        match (self, state) {
            (OpKind::Custom { name }, _) => {
                registry.get(name).map(|op| op.finalize(state)).unwrap_or_else(|| state.clone())
            }
            (OpKind::Min { .. }, AggState::Min(v)) if *v == f64::INFINITY => AggState::None,
            (OpKind::Max { .. }, AggState::Max(v)) if *v == f64::NEG_INFINITY => AggState::None,
            (OpKind::Keyed { inner, .. }, AggState::Keyed { cap, groups }) => AggState::Keyed {
                cap: *cap,
                groups: groups
                    .iter()
                    .map(|(k, g)| (*k, inner.finalize(registry, g)))
                    .filter(|(_, g)| !matches!(g, AggState::None))
                    .collect(),
            },
            _ => state.clone(),
        }
    }

    /// The first unregistered custom-operator name referenced by this
    /// operator tree, if any — checked at install/plan time so the peer
    /// runtime never resolves a missing name.
    pub fn missing_custom<'a>(&'a self, registry: &OpRegistry) -> Option<&'a str> {
        match self {
            OpKind::Custom { name } => (!registry.contains(name)).then_some(name.as_str()),
            OpKind::Keyed { inner, .. } => inner.missing_custom(registry),
            _ => None,
        }
    }
}

/// A shared registry of user-defined operators, given to every peer.
#[derive(Clone, Default)]
pub struct OpRegistry {
    ops: HashMap<String, Arc<dyn CustomOp>>,
}

impl std::fmt::Debug for OpRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpRegistry").field("ops", &self.ops.keys().collect::<Vec<_>>()).finish()
    }
}

impl OpRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `op` under `name`, replacing any previous registration.
    pub fn register(&mut self, name: impl Into<String>, op: Arc<dyn CustomOp>) {
        self.ops.insert(name.into(), op);
    }

    /// Looks up an operator. Unknown names return `None`: queries
    /// referencing unregistered operators are configuration errors caught
    /// by `Engine::validate` at install time, and the runtime degrades
    /// gracefully (inert state) rather than panicking mid-tick should a
    /// stale spec slip through anyway.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn CustomOp>> {
        self.ops.get(name)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.ops.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> OpRegistry {
        OpRegistry::new()
    }

    #[test]
    fn sum_lift_and_merge() {
        let op = OpKind::Sum { field: 0 };
        let r = reg();
        let mut a = op.zero(&r);
        op.lift(&r, &mut a, 0, &RawTuple::of(2.0));
        op.lift(&r, &mut a, 0, &RawTuple::of(3.0));
        let mut b = op.zero(&r);
        op.lift(&r, &mut b, 1, &RawTuple::of(4.0));
        a.merge(&b);
        assert_eq!(a.scalar(), Some(9.0));
    }

    #[test]
    fn count_and_avg() {
        let r = reg();
        let mut c = OpKind::Count.zero(&r);
        OpKind::Count.lift(&r, &mut c, 0, &RawTuple::of(1.0));
        OpKind::Count.lift(&r, &mut c, 0, &RawTuple::of(1.0));
        assert_eq!(c.scalar(), Some(2.0));
        let avg = OpKind::Avg { field: 0 };
        let mut a = avg.zero(&r);
        avg.lift(&r, &mut a, 0, &RawTuple::of(2.0));
        avg.lift(&r, &mut a, 0, &RawTuple::of(4.0));
        assert_eq!(a.scalar(), Some(3.0));
    }

    #[test]
    fn topk_carries_payload_and_source() {
        let op = OpKind::TopK { k: 2, field: 1 };
        let r = reg();
        let mut s = op.zero(&r);
        op.lift(&r, &mut s, 7, &RawTuple { key: 1, vals: vec![100.0, -55.0] });
        op.lift(&r, &mut s, 8, &RawTuple { key: 1, vals: vec![200.0, -40.0] });
        op.lift(&r, &mut s, 9, &RawTuple { key: 1, vals: vec![300.0, -90.0] });
        match s {
            AggState::TopK { entries, .. } => {
                assert_eq!(entries.len(), 2);
                assert_eq!(entries[0].source, 8);
                assert_eq!(entries[0].payload, vec![200.0, -40.0]);
                assert_eq!(entries[1].source, 7);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn predicate_eval() {
        let t = RawTuple { key: 42, vals: vec![5.0, -60.0] };
        assert!(Predicate::KeyEq(42).eval(&t));
        assert!(!Predicate::KeyEq(43).eval(&t));
        assert!(Predicate::Field { field: 1, cmp: Cmp::Lt, value: 0.0 }.eval(&t));
        let and = Predicate::And(
            Box::new(Predicate::KeyEq(42)),
            Box::new(Predicate::Field { field: 0, cmp: Cmp::Gt, value: 4.0 }),
        );
        assert!(and.eval(&t));
    }

    #[test]
    fn ordered_and_negated_predicates() {
        let t = RawTuple { key: 1, vals: vec![5.0] };
        let p = |cmp, value| Predicate::Field { field: 0, cmp, value };
        // Le: boundary included, above excluded.
        assert!(p(Cmp::Le, 5.0).eval(&t));
        assert!(p(Cmp::Le, 6.0).eval(&t));
        assert!(!p(Cmp::Le, 4.0).eval(&t));
        // Ge: boundary included, below excluded.
        assert!(p(Cmp::Ge, 5.0).eval(&t));
        assert!(p(Cmp::Ge, 4.0).eval(&t));
        assert!(!p(Cmp::Ge, 6.0).eval(&t));
        // Ne: complement of Eq, with the same float tolerance.
        assert!(p(Cmp::Ne, 4.0).eval(&t));
        assert!(!p(Cmp::Ne, 5.0).eval(&t));
        assert!(!p(Cmp::Ne, 5.0 + 1e-12).eval(&t));
        // Boundary exclusivity of the strict forms, for contrast.
        assert!(!p(Cmp::Lt, 5.0).eval(&t));
        assert!(!p(Cmp::Gt, 5.0).eval(&t));
    }

    #[test]
    fn entropy_operator_counts_categories() {
        let op = OpKind::Entropy { field: 0, cap: 16 };
        let r = reg();
        let mut s = op.zero(&r);
        for v in [1.0, 1.0, 2.0, 2.0] {
            op.lift(&r, &mut s, 0, &RawTuple::of(v));
        }
        assert!((s.scalar().unwrap() - 1.0).abs() < 1e-12);
    }

    struct GeoMean;
    impl CustomOp for GeoMean {
        fn zero(&self) -> AggState {
            AggState::Avg { sum: 0.0, n: 0 }
        }
        fn lift(&self, state: &mut AggState, _source: u32, t: &RawTuple) {
            if let AggState::Avg { sum, n } = state {
                *sum += t.field(0).max(1e-300).ln();
                *n += 1;
            }
        }
        fn finalize(&self, state: &AggState) -> AggState {
            match state {
                AggState::Avg { sum, n } if *n > 0 => {
                    AggState::Vector(vec![(sum / *n as f64).exp()])
                }
                _ => AggState::None,
            }
        }
    }

    #[test]
    fn custom_operator_via_registry() {
        let mut r = OpRegistry::new();
        r.register("geomean", Arc::new(GeoMean));
        let op = OpKind::Custom { name: "geomean".into() };
        let mut a = op.zero(&r);
        op.lift(&r, &mut a, 0, &RawTuple::of(2.0));
        let mut b = op.zero(&r);
        op.lift(&r, &mut b, 1, &RawTuple::of(8.0));
        a.merge(&b);
        let fin = op.finalize(&r, &a);
        assert!((fin.scalar().unwrap() - 4.0).abs() < 1e-9, "geomean(2,8)=4");
    }

    #[test]
    fn unknown_custom_op_degrades_to_inert_none() {
        let r = reg();
        let op = OpKind::Custom { name: "nope".into() };
        assert_eq!(op.zero(&r), AggState::None);
        let mut s = op.zero(&r);
        op.lift(&r, &mut s, 0, &RawTuple::of(1.0));
        assert_eq!(s, AggState::None, "lift through a missing op is a no-op");
        assert_eq!(op.finalize(&r, &s), AggState::None);
        assert_eq!(op.missing_custom(&r), Some("nope"));
        let keyed = OpKind::Keyed { key_field: KeyField::TupleKey, cap: 4, inner: Box::new(op) };
        assert_eq!(keyed.missing_custom(&r), Some("nope"), "keyed wrapper checks its inner op");
    }

    #[test]
    fn empty_window_min_max_finalize_to_none() {
        let r = reg();
        for op in [OpKind::Min { field: 0 }, OpKind::Max { field: 0 }] {
            let zero = op.zero(&r);
            let fin = op.finalize(&r, &zero);
            assert_eq!(fin, AggState::None, "{op:?} empty window must not surface ±inf");
            assert_eq!(fin.scalar(), None);
            // A window that did see data still finalizes to its value.
            let mut s = op.zero(&r);
            op.lift(&r, &mut s, 0, &RawTuple::of(3.0));
            assert_eq!(op.finalize(&r, &s).scalar(), Some(3.0));
        }
    }

    #[test]
    fn keyed_lift_groups_by_tuple_key() {
        let r = reg();
        let op = OpKind::Keyed {
            key_field: KeyField::TupleKey,
            cap: 8,
            inner: Box::new(OpKind::Sum { field: 0 }),
        };
        let mut s = op.zero(&r);
        op.lift(&r, &mut s, 0, &RawTuple { key: 7, vals: vec![2.0] });
        op.lift(&r, &mut s, 1, &RawTuple { key: 7, vals: vec![3.0] });
        op.lift(&r, &mut s, 2, &RawTuple { key: 9, vals: vec![5.0] });
        let groups = s.groups().unwrap();
        assert_eq!(groups[&7], AggState::Sum(5.0));
        assert_eq!(groups[&9], AggState::Sum(5.0));
    }

    #[test]
    fn keyed_lift_respects_cap() {
        let r = reg();
        let op =
            OpKind::Keyed { key_field: KeyField::Field(0), cap: 2, inner: Box::new(OpKind::Count) };
        let mut s = op.zero(&r);
        for v in [1.0, 2.0, 3.0, 1.0] {
            op.lift(&r, &mut s, 0, &RawTuple::of(v));
        }
        let groups = s.groups().unwrap();
        assert_eq!(groups.len(), 2, "cap bounds distinct keys");
        assert_eq!(groups[&1], AggState::Count(2), "tracked keys keep accumulating");
        assert!(!groups.contains_key(&3));
    }

    #[test]
    fn keyed_finalize_recurses_and_drops_empty_groups() {
        let r = reg();
        let op = OpKind::Keyed {
            key_field: KeyField::TupleKey,
            cap: 8,
            inner: Box::new(OpKind::Min { field: 0 }),
        };
        let mut s = op.zero(&r);
        op.lift(&r, &mut s, 0, &RawTuple { key: 1, vals: vec![4.0] });
        // Inject an untouched (empty) group, as a merge of a zero state would.
        if let AggState::Keyed { groups, .. } = &mut s {
            groups.insert(2, AggState::Min(f64::INFINITY));
        }
        let fin = op.finalize(&r, &s);
        let groups = fin.groups().unwrap();
        assert_eq!(groups.len(), 1, "empty-window group dropped, not surfaced as +inf");
        assert_eq!(groups[&1].scalar(), Some(4.0));
    }
}
