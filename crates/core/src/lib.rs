//! The Mortar stream-processing engine.
//!
//! This crate implements the paper's primary contribution (Sections 2, 4, 5
//! and 6): continuous in-network aggregate queries over federated node sets,
//! routed across a static set of overlay trees with dynamic tuple striping,
//! made duplicate-free by time-division data partitioning, made robust to
//! clock offset by syncless (age-based) indexing, and kept installed by
//! pair-wise reconciliation.
//!
//! Layering:
//!
//! * [`mod@tuple`], [`value`], [`window`], [`op`] — the data model: raw tuples,
//!   partial aggregate states, window specifications, and the operator API
//!   (`lift`/`merge`/`finalize`, plus user-defined operators).
//! * [`tslist`], [`netdist`] — the time-space list (Section 4.2) and the
//!   dynamic timeout estimator (Section 4.3).
//! * [`query`], [`msg`], [`store`], [`reconcile`], [`install`] — query
//!   specifications, wire messages, the sequence-numbered object store, and
//!   the persistence protocols (Section 6).
//! * [`peer`], [`rlog`] — the Mortar peer state machine (runs on
//!   `mortar_net`) and the bounded, sequence-addressed root result log.
//! * [`engine`] — an experiment harness wiring topology, planner, clocks,
//!   peers and metrics together.
//! * [`api`], [`error`] — the typed session front door: fluent
//!   [`api::QueryBuilder`], composable [`api::Pipeline`]s, typed
//!   [`api::QueryHandle`]s, and the workspace-wide [`error::MortarError`].
//! * [`centralized`] — the StreamBase-like centralized baseline with a
//!   BSort reorder buffer (Figures 9–10).

pub mod api;
pub mod centralized;
pub mod engine;
pub mod error;
pub mod feed;
pub mod install;
pub mod metrics;
pub mod msg;
pub mod netdist;
pub mod op;
pub mod peer;
pub mod query;
pub mod reconcile;
pub mod rlog;
pub mod store;
pub mod tslist;
pub mod tuple;
pub mod value;
pub mod window;

pub use api::{stage, Mortar, Pipeline, QueryBuilder, QueryHandle};
pub use engine::{Engine, EngineConfig};
pub use error::MortarError;
pub use feed::{BurstProfile, ChannelHub, FeedConnector, FeedSpec, FeedStats, IntakePolicy};
pub use op::{CustomOp, OpKind, OpRegistry};
pub use peer::{IndexingMode, MortarPeer, PeerConfig};
pub use query::{QuerySpec, SensorSpec};
pub use tuple::{RawTuple, SummaryTuple};
pub use value::AggState;
pub use window::WindowSpec;
