//! The workspace-wide error type for query validation and lifecycle
//! operations.
//!
//! Every fallible step of the typed session API — building a query spec,
//! planning its tree set, composing a pipeline, removing a query — reports
//! a [`MortarError`] instead of panicking or silently doing nothing. The
//! low-level [`crate::engine::Engine`] performs the same validation, so
//! even harness code driving specs by hand cannot crash the process on a
//! malformed query.

use crate::query::QueryId;
use mortar_net::NodeId;

/// Everything that can go wrong while defining, planning, installing,
/// composing, or removing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum MortarError {
    /// The query declared no participating peers.
    NoMembers {
        /// Query name.
        query: String,
    },
    /// The query root is not in the member list (Section 2.2 scopes a
    /// query to its member list; the root hosts the root operator and must
    /// participate).
    RootNotMember {
        /// Query name.
        query: String,
        /// The offending root peer.
        root: NodeId,
    },
    /// A peer appears more than once in the member list, which would give
    /// it two member indices and corrupt completeness accounting.
    DuplicateMember {
        /// Query name.
        query: String,
        /// The repeated peer.
        peer: NodeId,
    },
    /// A member id falls outside the deployed topology.
    MemberOutOfRange {
        /// Query name.
        query: String,
        /// The offending peer.
        peer: NodeId,
        /// Number of hosts in the topology.
        hosts: usize,
    },
    /// The planner is configured for more trees than the inline per-tuple
    /// route state can carry ([`mortar_overlay::MAX_TREES`]).
    TooManyTrees {
        /// The configured tree-set width.
        requested: usize,
        /// The inline route-state capacity.
        max: usize,
    },
    /// The window specification violates an invariant (zero range/slide,
    /// or a range smaller than the slide, which would drop data between
    /// windows).
    InvalidWindow {
        /// Query name.
        query: String,
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// The builder finished without an in-network aggregate.
    NoOperator {
        /// Query name.
        query: String,
    },
    /// Two aggregate operators were set on one query; a Mortar query has
    /// exactly one in-network aggregate (compose queries via a pipeline
    /// instead).
    DuplicateOperator {
        /// Query name.
        query: String,
    },
    /// Two root post-operators were set on one query.
    DuplicatePost {
        /// Query name.
        query: String,
    },
    /// The query references a custom operator name (aggregate or post)
    /// that is not registered with the engine's [`crate::op::OpRegistry`].
    /// Caught at install/plan time so the peer runtime never resolves a
    /// missing name mid-tick.
    UnknownOperator {
        /// Query name.
        query: String,
        /// The unregistered operator name.
        name: String,
    },
    /// A field was referenced by a name the builder does not know (declare
    /// names with `fields(..)`, or use positional `f0`, `f1`, … / indices).
    UnknownField {
        /// Query name.
        query: String,
        /// The unresolved field name.
        field: String,
    },
    /// A lifecycle operation named a query that was never installed.
    UnknownQuery {
        /// The unknown query name.
        name: String,
    },
    /// A handle's interned id no longer matches the session's binding for
    /// its name (the query was removed and re-installed under a new id).
    StaleHandle {
        /// Query name.
        name: String,
        /// The handle's id.
        handle: QueryId,
    },
    /// Two pipeline stages share a name.
    DuplicateStage {
        /// The repeated stage name.
        name: String,
    },
    /// A pipeline stage subscribes to an upstream that is neither another
    /// stage of the pipeline nor an already-installed query.
    UnknownUpstream {
        /// The subscribing stage.
        query: String,
        /// The unresolved upstream name.
        upstream: String,
    },
    /// A pipeline was installed with no stages.
    EmptyPipeline,
    /// The pipeline's subscription edges form a cycle.
    PipelineCycle {
        /// A stage on the cycle.
        name: String,
    },
    /// A subscribing stage is not co-located with its upstream's root: the
    /// upstream root operator emits locally, so the subscriber must list
    /// that peer as a member (for fan-in, every upstream's root must be a
    /// member, so no upstream's output silently vanishes).
    UpstreamRootElsewhere {
        /// The subscribing stage.
        query: String,
        /// The upstream query.
        upstream: String,
        /// Where the upstream's root operator lives.
        upstream_root: NodeId,
    },
    /// A subscribing pipeline stage also set an explicit sensor; the
    /// pipeline wires subscription sensors itself.
    SensorConflict {
        /// The offending stage.
        query: String,
    },
    /// A detached builder (a pipeline stage) was asked to install itself;
    /// only builders obtained from [`crate::api::Mortar::query`] carry a
    /// session.
    DetachedBuilder {
        /// Query name.
        query: String,
    },
    /// A front-end (MSL) program failed to compile.
    Compile {
        /// The compiler's message.
        message: String,
    },
    /// An engine/session configuration violates an invariant (an
    /// out-of-range chaos probability, a zero batch size, a zero shard
    /// count, a zero tick, heartbeat or anti-entropy cadence). Surfaced
    /// by [`crate::engine::EngineConfig::validate`] at construction
    /// instead of panicking inside the runtime.
    InvalidConfig {
        /// Human-readable description of the violated invariant.
        reason: String,
    },
}

impl std::fmt::Display for MortarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MortarError::NoMembers { query } => {
                write!(f, "query {query:?} declares no members")
            }
            MortarError::RootNotMember { query, root } => {
                write!(f, "query {query:?}: root {root} is not a member")
            }
            MortarError::DuplicateMember { query, peer } => {
                write!(f, "query {query:?}: peer {peer} listed more than once")
            }
            MortarError::MemberOutOfRange { query, peer, hosts } => {
                write!(f, "query {query:?}: member {peer} outside the {hosts}-host topology")
            }
            MortarError::TooManyTrees { requested, max } => {
                write!(
                    f,
                    "planner configured for {requested} trees, but route state carries at most \
                     {max}"
                )
            }
            MortarError::InvalidWindow { query, reason } => {
                write!(f, "query {query:?}: invalid window: {reason}")
            }
            MortarError::NoOperator { query } => {
                write!(f, "query {query:?} defines no in-network aggregate")
            }
            MortarError::DuplicateOperator { query } => {
                write!(f, "query {query:?}: a query has exactly one in-network aggregate")
            }
            MortarError::DuplicatePost { query } => {
                write!(f, "query {query:?}: at most one post operator")
            }
            MortarError::UnknownOperator { query, name } => {
                write!(f, "query {query:?}: custom operator {name:?} is not registered")
            }
            MortarError::UnknownField { query, field } => {
                write!(f, "query {query:?}: unknown field {field:?}")
            }
            MortarError::UnknownQuery { name } => {
                write!(f, "query {name:?} is not installed")
            }
            MortarError::StaleHandle { name, handle } => {
                write!(f, "handle for {name:?} ({handle:?}) is stale; re-install issued a new id")
            }
            MortarError::DuplicateStage { name } => {
                write!(f, "pipeline declares stage {name:?} twice")
            }
            MortarError::UnknownUpstream { query, upstream } => {
                write!(f, "stage {query:?} subscribes to unknown upstream {upstream:?}")
            }
            MortarError::EmptyPipeline => write!(f, "pipeline has no stages"),
            MortarError::PipelineCycle { name } => {
                write!(f, "pipeline subscriptions form a cycle through {name:?}")
            }
            MortarError::UpstreamRootElsewhere { query, upstream, upstream_root } => {
                write!(
                    f,
                    "stage {query:?} must include upstream {upstream:?}'s root \
                     (peer {upstream_root}) among its members"
                )
            }
            MortarError::SensorConflict { query } => {
                write!(f, "stage {query:?} subscribes upstream and cannot set its own sensor")
            }
            MortarError::DetachedBuilder { query } => {
                write!(
                    f,
                    "builder for {query:?} has no session; use Mortar::query or install it \
                           via a pipeline"
                )
            }
            MortarError::Compile { message } => write!(f, "compile error: {message}"),
            MortarError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for MortarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = MortarError::RootNotMember { query: "up".into(), root: 9 };
        assert!(e.to_string().contains("up") && e.to_string().contains('9'));
        let e = MortarError::UpstreamRootElsewhere {
            query: "smooth".into(),
            upstream: "up".into(),
            upstream_root: 3,
        };
        assert!(e.to_string().contains("smooth") && e.to_string().contains("peer 3"));
    }
}
