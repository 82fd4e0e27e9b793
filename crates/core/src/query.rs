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

/// One member's position on one tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLink {
    /// Parent peer on this tree (`None` at the root).
    pub parent: Option<NodeId>,
    /// Child peers on this tree.
    pub children: Vec<NodeId>,
    /// Level on this tree (root = 0).
    pub level: u32,
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
    (0..members.len())
        .map(|m| InstallRecord {
            member: m as u32,
            total_members: members.len() as u32,
            links: trees
                .trees()
                .iter()
                .map(|t| TreeLink {
                    parent: t.parent(m).map(|p| members[p]),
                    children: t.children(m).iter().map(|&c| members[c]).collect(),
                    level: t.level(m),
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
    }
}
