//! Query specifications and physical plan records.
//!
//! A query is defined by its operator type and produces a single continuous
//! output stream (Section 2.2). Queries are *scoped*: the writer explicitly
//! lists the participating peers ("lists of allocated IP addresses"), which
//! the planner arranges into the tree set. Each member receives an
//! [`InstallRecord`] describing its parents, children and levels on every
//! tree.

use crate::op::{OpKind, Predicate};
use crate::window::WindowSpec;
use mortar_net::NodeId;
use mortar_overlay::TreeSet;

/// An interned query handle.
///
/// Assigned once by the injecting peer's object store (which owns the
/// query's sequence space, so it can own its id space too: a name keeps
/// its id forever) and carried by every message instead of the query's
/// name. It is the only key a peer's store uses — installs, tombstones and
/// the store hash all go by id. `u32` keeps frame headers fixed-size;
/// names appear on the wire only inside the query specs that installs,
/// reconciliation pushes and topology replies ship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q#{}", self.0)
    }
}

/// How a member's local raw stream is produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorSpec {
    /// Emit a constant-value tuple every `period_us` of local time.
    Periodic {
        /// Emission period, local µs.
        period_us: u64,
        /// The emitted value (field 0).
        value: f64,
    },
    /// Replay a peer-resident trace (set via
    /// [`crate::peer::MortarPeer::set_replay`]) from this query's own
    /// activation, under a cursor of its own.
    Replay,
    /// Subscribe to other queries' output streams: each result any named
    /// query's root operator emits on this peer is ingested as a raw tuple
    /// (scalar in field 0, participants in field 1). This is Section 2.2's
    /// composition — queries "subscribe to existing data streams to compose
    /// complex data processing operations". Several names fan in; every
    /// upstream must therefore be rooted at this member, which the typed
    /// pipeline API validates before install.
    Subscribe {
        /// The upstream queries.
        queries: Vec<String>,
    },
    /// A pluggable ingestion feed: a source connector plus a declared
    /// intake (overload) policy, enforced at the leaf before tuples reach
    /// the operator (see [`crate::feed`]).
    Feed(crate::feed::FeedSpec),
    /// The member sources no data (pure aggregation point); it emits
    /// boundary tuples so completeness still counts it.
    None,
}

/// A continuous query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Unique name (the reconciliation key).
    pub name: String,
    /// The injecting peer; hosts the root operator and the topology service.
    pub root: NodeId,
    /// Participating peers; member index = position.
    pub members: Vec<NodeId>,
    /// The in-network aggregate.
    pub op: OpKind,
    /// Window range/slide.
    pub window: WindowSpec,
    /// Optional per-source select predicate.
    pub filter: Option<Predicate>,
    /// Local stream source.
    pub sensor: SensorSpec,
    /// Optional root-side post operator (a registered [`crate::op::CustomOp`]
    /// whose `finalize` transforms the final aggregate — e.g. trilateration
    /// over a top-k of signal strengths, Section 7.4).
    pub post: Option<String>,
}

impl QuerySpec {
    /// Member index of a peer, if it participates.
    pub fn member_of(&self, peer: NodeId) -> Option<u32> {
        self.members.iter().position(|&p| p == peer).map(|i| i as u32)
    }

    /// Approximate wire size of the spec (for install/reconcile messages).
    pub fn wire_bytes(&self) -> u32 {
        64 + self.name.len() as u32 + 4 * self.members.len() as u32
    }
}

/// A contiguous slice of the *mixed* 64-bit key space owned by one tree of
/// the set. Sibling trees partition the space: a keyed aggregate splits
/// into disjoint per-tree maps at each eviction hop, and the root's
/// time-division join re-merges them without double counting. Ranges
/// derive from the tree index and set width alone, so every member stamps
/// identical ranges at install time and they add nothing to the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound (mixed key).
    pub lo: u64,
    /// Inclusive upper bound (mixed key).
    pub hi: u64,
}

impl KeyRange {
    /// The range tree `tree` owns in a `width`-tree set: the `tree`-th of
    /// `width` equal contiguous slices of the mixed key space.
    pub fn of_tree(tree: usize, width: usize) -> Self {
        let w = width.max(1) as u128;
        let t = (tree as u128).min(w - 1);
        let lo = ((t << 64) / w) as u64;
        let hi = ((((t + 1) << 64) / w) - 1) as u64;
        Self { lo, hi }
    }

    /// Whether a mixed key falls in this range.
    pub fn contains(&self, mixed: u64) -> bool {
        self.lo <= mixed && mixed <= self.hi
    }
}

/// Mixes a raw group key into the uniform space that [`KeyRange`]s
/// partition (the splitmix64 finalizer). Without mixing, contiguous raw
/// keys — host ids, ports — would pile into one tree's slice and defeat
/// the load split.
pub fn mix_key(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One member's position on one tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLink {
    /// Parent peer on this tree (`None` at the root).
    pub parent: Option<NodeId>,
    /// Child peers on this tree.
    pub children: Vec<NodeId>,
    /// Level on this tree (root = 0).
    pub level: u32,
    /// The slice of the mixed key space this tree carries for keyed
    /// aggregates. Derivable from (tree index, width), so it contributes
    /// no install-record wire bytes.
    pub key_range: KeyRange,
}

/// A link is its tree's child list to the routing policy
/// ([`mortar_overlay::route_decision_local`]).
impl AsRef<[NodeId]> for TreeLink {
    fn as_ref(&self) -> &[NodeId] {
        &self.children
    }
}

/// A member's complete physical-plan record: its links on every tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallRecord {
    /// Member index within the query.
    pub member: u32,
    /// Total members (completeness denominator).
    pub total_members: u32,
    /// Per-tree links (`links.len()` = tree-set width).
    pub links: Vec<TreeLink>,
}

impl InstallRecord {
    /// Tree-set width.
    pub fn width(&self) -> usize {
        self.links.len()
    }

    /// Primary-tree parent (used for install forwarding).
    pub fn primary_parent(&self) -> Option<NodeId> {
        self.links[0].parent
    }

    /// Levels per tree (`OL` for the routing policy).
    pub fn levels(&self) -> Vec<u32> {
        self.links.iter().map(|l| l.level).collect()
    }

    /// Approximate wire size.
    pub fn wire_bytes(&self) -> u32 {
        8 + self.links.iter().map(|l| 10 + 4 * l.children.len() as u32).sum::<u32>()
    }
}

/// Builds every member's install record from a planned tree set.
///
/// `members[i]` is the peer id of member `i`; `trees` spans the same member
/// indices.
pub fn build_records(members: &[NodeId], trees: &TreeSet) -> Vec<InstallRecord> {
    assert_eq!(members.len(), trees.len(), "member list and tree set disagree");
    let width = trees.trees().len();
    (0..members.len())
        .map(|m| InstallRecord {
            member: m as u32,
            total_members: members.len() as u32,
            links: trees
                .trees()
                .iter()
                .enumerate()
                .map(|(x, t)| TreeLink {
                    parent: t.parent(m).map(|p| members[p]),
                    children: t.children(m).iter().map(|&c| members[c]).collect(),
                    level: t.level(m),
                    key_range: KeyRange::of_tree(x, width),
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mortar_overlay::Tree;

    fn spec() -> QuerySpec {
        QuerySpec {
            name: "q".into(),
            root: 10,
            members: vec![10, 11, 12],
            op: OpKind::Count,
            window: WindowSpec::time_tumbling_us(1_000_000),
            filter: None,
            sensor: SensorSpec::Periodic { period_us: 1_000_000, value: 1.0 },
            post: None,
        }
    }

    #[test]
    fn query_id_formats_and_orders() {
        assert_eq!(QueryId(7).to_string(), "q#7");
        assert!(QueryId(1) < QueryId(2));
    }

    #[test]
    fn member_lookup() {
        let s = spec();
        assert_eq!(s.member_of(11), Some(1));
        assert_eq!(s.member_of(99), None);
    }

    #[test]
    fn records_map_member_indices_to_peer_ids() {
        // tree0: 0 ← 1, 1 ← 2; tree1: 0 ← 2, 2 ← 1. Peers 10, 11, 12.
        let t0 = Tree::from_parents(0, vec![None, Some(0), Some(1)]);
        let t1 = Tree::from_parents(0, vec![None, Some(2), Some(0)]);
        let ts = TreeSet::new(vec![t0, t1]);
        let recs = build_records(&[10, 11, 12], &ts);
        assert_eq!(recs.len(), 3);
        let r1 = &recs[1];
        assert_eq!(r1.links[0].parent, Some(10));
        assert_eq!(r1.links[0].children, vec![12]);
        assert_eq!(r1.links[1].parent, Some(12));
        assert_eq!(r1.links[1].level, 2);
        assert_eq!(recs[0].primary_parent(), None);
        assert_eq!(recs[2].levels(), vec![2, 1]);
        // Every member stamps identical per-tree key ranges.
        for r in &recs {
            assert_eq!(r.links[0].key_range, KeyRange::of_tree(0, 2));
            assert_eq!(r.links[1].key_range, KeyRange::of_tree(1, 2));
        }
    }

    #[test]
    fn key_ranges_partition_the_mixed_space() {
        for width in 1..=4usize {
            let ranges: Vec<KeyRange> = (0..width).map(|t| KeyRange::of_tree(t, width)).collect();
            assert_eq!(ranges[0].lo, 0);
            assert_eq!(ranges[width - 1].hi, u64::MAX);
            for w in ranges.windows(2) {
                assert_eq!(w[0].hi.wrapping_add(1), w[1].lo, "ranges must be contiguous");
            }
            // Any mixed key lands in exactly one tree's slice.
            for k in [0u64, 1, 7, 255, 1_000_003, u64::MAX] {
                let m = mix_key(k);
                assert_eq!(ranges.iter().filter(|r| r.contains(m)).count(), 1);
            }
        }
    }

    #[test]
    fn mix_key_spreads_contiguous_keys() {
        // splitmix64 finalizer: deterministic, and sequential host ids do
        // not all land in one half of the space.
        assert_eq!(mix_key(42), mix_key(42));
        let low_half = (0..64u64).filter(|&k| mix_key(k) < u64::MAX / 2).count();
        assert!((16..=48).contains(&low_half), "mixer left keys clumped: {low_half}");
    }
}
