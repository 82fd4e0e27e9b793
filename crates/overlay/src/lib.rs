//! Static overlay tree sets and multipath routing for Mortar.
//!
//! Section 3 of the paper: the physical dataflow planner arranges each
//! query's operators into a *set* of static aggregation trees — one
//! network-aware "primary" built by recursive clustering on network
//! coordinates, plus "sibling" trees derived by post-order random rotations.
//! Tuples are striped round-robin across the trees and, on failure, migrate
//! between trees under a staged routing policy that guarantees forward
//! progress (Figure 5).
//!
//! This crate contains the tree data structures, the planner, the routing
//! policy (a pure decision function, reused by `mortar-core`'s peers), and
//! the graph-level failure simulation behind Figure 1.

pub mod bitset;
pub mod failure_sim;
pub mod hopbins;
pub mod planner;
pub mod routing;
pub mod tree;

pub use bitset::NodeBitmap;
pub use failure_sim::{simulate_completeness, FailureSimConfig, Strategy};
pub use hopbins::HopBins;
pub use planner::{derive_sibling, plan_primary, plan_tree_set, PlannerConfig};
pub use routing::{
    route_decision, route_decision_local, Decision, LevelVec, RouteState, MAX_TREES, TTL_DOWN_LIMIT,
};
pub use tree::{random_tree, Tree, TreeSet};
