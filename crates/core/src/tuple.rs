//! Raw and summary tuples (Section 4).
//!
//! Raw tuples are produced by local sensors and never cross the network.
//! The first `merge` ("merging across time") turns them into *summary
//! tuples* carrying a validity-interval index, an age, a participant count,
//! and the partial aggregate value. All inter-operator traffic is summary
//! tuples.

use crate::value::AggState;
use mortar_overlay::RouteState;
use std::collections::BTreeMap;

/// A raw sensor tuple: an ordered set of data elements plus a routing key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawTuple {
    /// Discrete key (e.g. a MAC address hash) used by select predicates.
    pub key: u64,
    /// Numeric fields.
    pub vals: Vec<f64>,
}

impl RawTuple {
    /// A single-field tuple with key 0.
    pub fn of(v: f64) -> Self {
        Self { key: 0, vals: vec![v] }
    }

    /// Overwrites this tuple in place, reusing its field buffer.
    pub(crate) fn set(&mut self, key: u64, vals: &[f64]) {
        self.key = key;
        self.vals.clear();
        self.vals.extend_from_slice(vals);
    }

    /// Field accessor with a default for missing fields.
    pub fn field(&self, i: usize) -> f64 {
        self.vals.get(i).copied().unwrap_or(0.0)
    }
}

/// Ground-truth bookkeeping for the Figures 9–10 metrics. Carried by the
/// simulator only; excluded from modelled wire size.
///
/// Maps each *true* window index (computed from true simulation time at the
/// source) to the number of constituent raw tuples from that window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TruthMeta {
    /// true-window → raw-tuple count.
    pub counts: BTreeMap<i64, u64>,
}

/// Truth metadata as carried by the data path: absent entirely (`None`)
/// unless [`crate::peer::PeerConfig::track_truth`] recorded something, so
/// production-mode tuples pay nothing — no map, no box, no clone cost.
pub type Truth = Option<Box<TruthMeta>>;

impl TruthMeta {
    /// Records `n` raw tuples belonging to true window `w`.
    pub fn add(&mut self, w: i64, n: u64) {
        *self.counts.entry(w).or_insert(0) += n;
    }

    /// Merges another truth record into this one.
    pub fn merge(&mut self, other: &TruthMeta) {
        for (w, n) in &other.counts {
            *self.counts.entry(*w).or_insert(0) += n;
        }
    }

    /// Total raw tuples represented.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Merges an optional truth record into an optional slot, allocating
    /// only when `src` actually carries data.
    pub fn merge_opt(dst: &mut Truth, src: &Truth) {
        if let Some(s) = src {
            dst.get_or_insert_default().merge(s);
        }
    }

    /// Records `n` raw tuples for true window `w` into an optional slot.
    pub fn add_opt(dst: &mut Truth, w: i64, n: u64) {
        dst.get_or_insert_default().add(w, n);
    }
}

/// A summary tuple: the unit of inter-operator data exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryTuple {
    /// Validity interval `[tb, te)` in the producing mode's frame
    /// (timestamp mode: wall-clock µs; syncless mode: local reference µs —
    /// receivers re-index from age instead).
    pub tb: i64,
    /// Interval end (exclusive).
    pub te: i64,
    /// Age: microseconds since inception, including operator residence and
    /// estimated network time (Section 4.3).
    pub age_us: i64,
    /// Number of source participants whose data the summary includes.
    pub participants: u32,
    /// Whether the summary carries a value (boundary tuples do not).
    pub has_value: bool,
    /// The partial aggregate.
    pub state: AggState,
    /// Multipath routing state (Section 3.3).
    pub route: RouteState,
    /// Overlay hops travelled so far (merged summaries keep the maximum —
    /// the Figure 14 path-length metric).
    pub hops: u8,
    /// The tree this tuple is striped onto: locally created summaries get
    /// the operator's round-robin choice, and the tuple then *stays* on
    /// that tree while it remains live (Figure 5 stage 1).
    pub stripe_tree: u8,
    /// Ground truth for metrics (not part of the modelled wire size);
    /// `None` whenever truth tracking is off, so production-mode clones
    /// never touch the heap for it.
    pub truth: Truth,
}

impl SummaryTuple {
    /// Modelled wire size in bytes: header + index + age + routing state +
    /// the state's payload estimate. Used for bandwidth accounting.
    pub fn wire_bytes(&self) -> u32 {
        // 8 (ids/flags) + 16 (interval) + 8 (age) + 4 (participants).
        let fixed = 36u32;
        let route = 4 * self.route.last_level.len() as u32 + 1;
        fixed + route + self.state.wire_bytes()
    }

    /// A boundary tuple for `[tb, te)`: participant bookkeeping, no value.
    pub fn boundary(tb: i64, te: i64, route: RouteState) -> Self {
        Self {
            tb,
            te,
            age_us: 0,
            participants: 1,
            has_value: false,
            state: AggState::None,
            route,
            hops: 0,
            stripe_tree: 0,
            truth: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route() -> RouteState {
        RouteState::from_levels(&[0, 0])
    }

    #[test]
    fn raw_field_access() {
        let t = RawTuple { key: 7, vals: vec![1.0, 2.0] };
        assert_eq!(t.field(0), 1.0);
        assert_eq!(t.field(5), 0.0);
        assert_eq!(RawTuple::of(3.0).field(0), 3.0);
    }

    #[test]
    fn truth_merge_accumulates() {
        let mut a = TruthMeta::default();
        a.add(1, 2);
        let mut b = TruthMeta::default();
        b.add(1, 3);
        b.add(2, 1);
        a.merge(&b);
        assert_eq!(a.counts[&1], 5);
        assert_eq!(a.counts[&2], 1);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn boundary_has_no_value() {
        let b = SummaryTuple::boundary(0, 10, route());
        assert!(!b.has_value);
        assert_eq!(b.participants, 1);
        assert_eq!(b.state, AggState::None);
    }

    #[test]
    fn wire_bytes_scale_with_route_width() {
        let mut s = SummaryTuple::boundary(0, 10, route());
        let two = s.wire_bytes();
        s.route.last_level = mortar_overlay::LevelVec::from_slice(&[0; 4]);
        let four = s.wire_bytes();
        assert_eq!(four - two, 8);
    }
}
