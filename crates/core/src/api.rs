//! The typed session API: the front door to a Mortar deployment.
//!
//! A [`Mortar`] session wraps the low-level experiment [`Engine`] with a
//! typed query lifecycle:
//!
//! * a fluent [`QueryBuilder`] ([`Mortar::query`]) that validates eagerly
//!   and returns `Result<_, MortarError>` instead of panicking on bad
//!   specs;
//! * a [`Pipeline`] logical plan — chained stages and fan-in of named
//!   upstreams — that compiles into multiple subscription-wired
//!   [`QuerySpec`]s installed in dependency order (Section 2.2's
//!   composition as a first-class API);
//! * typed [`QueryHandle`]s returned by install, the only way to read
//!   [`Mortar::results`], [`Mortar::subscribe`] (incremental draining),
//!   [`Mortar::remove`] and [`Mortar::active_count`].
//!
//! ```
//! use mortar_core::api::Mortar;
//! use mortar_core::engine::EngineConfig;
//!
//! let mut cfg = EngineConfig::paper(16, 42);
//! cfg.plan_on_true_latency = true;
//! let mut mortar = Mortar::new(cfg)?;
//! let up = mortar
//!     .query("up")
//!     .members(0..16)
//!     .periodic_secs(1.0, 1.0)
//!     .sum(0)
//!     .every_secs(1.0)
//!     .install()?;
//! mortar.run_secs(20.0);
//! assert!(!mortar.subscribe(&up).is_empty());
//! # Ok::<(), mortar_core::MortarError>(())
//! ```

use crate::engine::{Engine, EngineConfig};
use crate::error::MortarError;
use crate::feed::{BurstProfile, ChannelHub, FeedConnector, FeedSpec, IntakePolicy, ReplayTrace};
use crate::metrics::{self, ResultRecord};
use crate::op::{Cmp, OpKind, OpRegistry, Predicate};
use crate::query::{QueryId, QuerySpec, SensorSpec};
use crate::tuple::RawTuple;
use crate::window::WindowSpec;
use mortar_net::NodeId;
use std::collections::{BTreeSet, HashMap};

/// A field reference in a fluent query: positional (`0`, `1`, …) or by
/// name (`"value"`, resolved against [`QueryBuilder::fields`], with the
/// positional fallback `f0`, `f1`, … accepted for undeclared schemas).
#[derive(Debug, Clone)]
pub struct Field(FieldInner);

#[derive(Debug, Clone)]
enum FieldInner {
    Index(usize),
    Named(String),
}

impl From<usize> for Field {
    fn from(i: usize) -> Self {
        Field(FieldInner::Index(i))
    }
}

impl From<i32> for Field {
    fn from(i: i32) -> Self {
        Field(FieldInner::Index(i.max(0) as usize))
    }
}

impl From<&str> for Field {
    fn from(name: &str) -> Self {
        Field(FieldInner::Named(name.to_string()))
    }
}

impl From<String> for Field {
    fn from(name: String) -> Self {
        Field(FieldInner::Named(name))
    }
}

/// The accumulating state of one query under construction. Shared between
/// the session-bound [`QueryBuilder`] and pipeline stages.
#[derive(Debug, Clone, Default)]
struct StageDraft {
    name: String,
    fields: Vec<String>,
    members: Vec<NodeId>,
    root: Option<NodeId>,
    op: Option<OpKind>,
    window: Option<WindowSpec>,
    filter: Option<Predicate>,
    sensor: Option<SensorSpec>,
    post: Option<String>,
    /// GROUP-BY key recorded by [`QueryBuilder::group_by`]; wraps the
    /// aggregate in [`OpKind::Keyed`] at [`StageDraft::finish`] so the
    /// key may be declared before or after the aggregate itself.
    group_key: Option<crate::op::KeyField>,
    /// Distinct-key bound for the keyed state.
    group_cap: Option<usize>,
    /// Upstream (name, root) recorded by [`QueryBuilder::subscribe`]; the
    /// subscriber must keep that root among its members or it can never
    /// receive data.
    subscribed: Option<(String, NodeId)>,
    /// First validation failure, recorded eagerly at the offending call.
    err: Option<MortarError>,
}

impl StageDraft {
    fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    fn fail(&mut self, e: MortarError) {
        if self.err.is_none() {
            self.err = Some(e);
        }
    }

    fn resolve(&mut self, f: Field) -> usize {
        match f.0 {
            FieldInner::Index(i) => i,
            FieldInner::Named(name) => {
                if let Some(i) = self.fields.iter().position(|f| f == &name) {
                    return i;
                }
                if let Some(i) = name.strip_prefix('f').and_then(|r| r.parse::<usize>().ok()) {
                    return i;
                }
                self.fail(MortarError::UnknownField { query: self.name.clone(), field: name });
                0
            }
        }
    }

    fn set_op(&mut self, op: OpKind) {
        if self.op.is_some() {
            self.fail(MortarError::DuplicateOperator { query: self.name.clone() });
        } else {
            self.op = Some(op);
        }
    }

    fn set_window(&mut self, w: WindowSpec) {
        if w.range == 0 || w.slide == 0 {
            self.fail(MortarError::InvalidWindow {
                query: self.name.clone(),
                reason: "range and slide must be positive".into(),
            });
        } else if w.range < w.slide {
            self.fail(MortarError::InvalidWindow {
                query: self.name.clone(),
                reason: format!(
                    "range {} smaller than slide {} would drop data between windows",
                    w.range, w.slide
                ),
            });
        } else {
            self.window = Some(w);
        }
    }

    fn set_sensor(&mut self, s: SensorSpec) {
        if self.sensor.is_some() {
            self.fail(MortarError::SensorConflict { query: self.name.clone() });
        } else {
            self.sensor = Some(s);
        }
    }

    fn set_group_key(&mut self, k: crate::op::KeyField) {
        if self.group_key.is_some() {
            // One GROUP-BY per query: the key is part of the single
            // in-network aggregate.
            self.fail(MortarError::DuplicateOperator { query: self.name.clone() });
        } else {
            self.group_key = Some(k);
        }
    }

    fn add_filter(&mut self, p: Predicate) {
        self.filter = Some(match self.filter.take() {
            Some(prev) => Predicate::And(Box::new(prev), Box::new(p)),
            None => p,
        });
    }

    /// Assembles the spec. Deployment-dependent validation (membership,
    /// topology bounds, window invariants) runs again in
    /// [`Engine::validate`] at install time.
    fn finish(mut self) -> Result<QuerySpec, MortarError> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        let mut op = self.op.ok_or(MortarError::NoOperator { query: self.name.clone() })?;
        if let Some(key_field) = self.group_key {
            op = OpKind::Keyed {
                key_field,
                cap: self.group_cap.unwrap_or(crate::op::DEFAULT_KEYED_CAP),
                inner: Box::new(op),
            };
        }
        if self.members.is_empty() {
            return Err(MortarError::NoMembers { query: self.name });
        }
        // A subscriber must be co-located with its upstream's root — the
        // only peer where the upstream emits — or it would install fine
        // and then silently never receive a tuple.
        if let Some((upstream, uroot)) = &self.subscribed {
            if !self.members.contains(uroot) {
                return Err(MortarError::UpstreamRootElsewhere {
                    query: self.name,
                    upstream: upstream.clone(),
                    upstream_root: *uroot,
                });
            }
        }
        let root = self.root.unwrap_or(self.members[0]);
        Ok(QuerySpec {
            name: self.name,
            root,
            members: self.members,
            op,
            window: self.window.unwrap_or_else(|| WindowSpec::time_tumbling_us(1_000_000)),
            filter: self.filter,
            sensor: self.sensor.unwrap_or(SensorSpec::None),
            post: self.post,
        })
    }
}

/// A fluent, eagerly validating query builder.
///
/// Obtained from [`Mortar::query`] (session-bound; finish with
/// [`QueryBuilder::install`]) or from [`stage`] (detached; hand it to a
/// [`Pipeline`] or to [`Mortar::install`]). The first invalid call is
/// recorded and reported as a typed [`MortarError`] when the query is
/// built — no setter panics and no bad spec ever reaches the peers.
#[must_use = "a query builder does nothing until installed"]
pub struct QueryBuilder<'m> {
    session: Option<&'m mut Mortar>,
    draft: StageDraft,
}

/// Starts a detached builder for a pipeline stage (or for
/// [`Mortar::install`]). Unlike [`Mortar::query`], the builder carries no
/// session, so [`QueryBuilder::install`] on it is a typed error.
pub fn stage(name: impl Into<String>) -> QueryBuilder<'static> {
    QueryBuilder { session: None, draft: StageDraft::new(name) }
}

impl<'m> QueryBuilder<'m> {
    /// Declares the source stream's field names, enabling by-name field
    /// references in later calls (`.sum("value")`).
    pub fn fields<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.draft.fields = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the participating peers. The first member is the default root.
    pub fn members(mut self, peers: impl IntoIterator<Item = NodeId>) -> Self {
        self.draft.members = peers.into_iter().collect();
        self
    }

    /// Sets the query root (must be a member; defaults to the first).
    pub fn root(mut self, peer: NodeId) -> Self {
        self.draft.root = Some(peer);
        self
    }

    /// Sets an explicit window specification.
    pub fn window(mut self, w: WindowSpec) -> Self {
        self.draft.set_window(w);
        self
    }

    /// A tumbling time window of `secs` seconds (range = slide).
    pub fn every_secs(mut self, secs: f64) -> Self {
        self.draft.set_window(WindowSpec::time_tumbling_us((secs * 1e6) as u64));
        self
    }

    /// A tumbling time window of `us` microseconds (range = slide).
    pub fn every_us(mut self, us: u64) -> Self {
        self.draft.set_window(WindowSpec::time_tumbling_us(us));
        self
    }

    /// A sliding time window: report over the last `range_secs` every
    /// `slide_secs`.
    pub fn window_secs(mut self, range_secs: f64, slide_secs: f64) -> Self {
        self.draft.set_window(WindowSpec::time_sliding_us(
            (range_secs * 1e6) as u64,
            (slide_secs * 1e6) as u64,
        ));
        self
    }

    /// A tuple window: report over the last `range` tuples every `slide`.
    pub fn tuple_window(mut self, range: u64, slide: u64) -> Self {
        self.draft.set_window(WindowSpec::tuples(range, slide));
        self
    }

    /// In-network sum of a field.
    pub fn sum(mut self, field: impl Into<Field>) -> Self {
        let f = self.draft.resolve(field.into());
        self.draft.set_op(OpKind::Sum { field: f });
        self
    }

    /// In-network tuple count.
    pub fn count(mut self) -> Self {
        self.draft.set_op(OpKind::Count);
        self
    }

    /// In-network average of a field.
    pub fn avg(mut self, field: impl Into<Field>) -> Self {
        let f = self.draft.resolve(field.into());
        self.draft.set_op(OpKind::Avg { field: f });
        self
    }

    /// In-network minimum of a field.
    pub fn min(mut self, field: impl Into<Field>) -> Self {
        let f = self.draft.resolve(field.into());
        self.draft.set_op(OpKind::Min { field: f });
        self
    }

    /// In-network maximum of a field.
    pub fn max(mut self, field: impl Into<Field>) -> Self {
        let f = self.draft.resolve(field.into());
        self.draft.set_op(OpKind::Max { field: f });
        self
    }

    /// The `k` tuples with the largest value of `field`.
    pub fn top_k(mut self, k: usize, field: impl Into<Field>) -> Self {
        let f = self.draft.resolve(field.into());
        self.draft.set_op(OpKind::TopK { k, field: f });
        self
    }

    /// Approximate distinct-key count (HyperLogLog union).
    pub fn distinct(mut self) -> Self {
        self.draft.set_op(OpKind::Distinct);
        self
    }

    /// Union of whole tuples, capped at `cap`.
    pub fn union(mut self, cap: usize) -> Self {
        self.draft.set_op(OpKind::Union { cap });
        self
    }

    /// Shannon entropy of a field's value distribution, tracking at most
    /// `cap` distinct values.
    pub fn entropy(mut self, field: impl Into<Field>, cap: usize) -> Self {
        let f = self.draft.resolve(field.into());
        self.draft.set_op(OpKind::Entropy { field: f, cap });
        self
    }

    /// Groups the aggregate by a `u64`-valued field: the query computes one
    /// inner aggregate per distinct key, merged key-wise at every hop and
    /// delivered as a per-key map at the root. May be called before or
    /// after the aggregate itself. Per-window distinct keys are bounded by
    /// [`crate::op::DEFAULT_KEYED_CAP`] (override with
    /// [`QueryBuilder::group_cap`]); overflow keys are dropped
    /// deterministically, mirroring the entropy operator's discipline.
    pub fn group_by(mut self, field: impl Into<Field>) -> Self {
        let f = self.draft.resolve(field.into());
        self.draft.set_group_key(crate::op::KeyField::Field(f));
        self
    }

    /// Groups the aggregate by the raw tuple's `key` (e.g. a source
    /// address) — the natural grouping for top-k-talkers workloads.
    pub fn group_by_key(mut self) -> Self {
        self.draft.set_group_key(crate::op::KeyField::TupleKey);
        self
    }

    /// Bounds the number of distinct keys a GROUP-BY window tracks.
    pub fn group_cap(mut self, cap: usize) -> Self {
        self.draft.group_cap = Some(cap.max(1));
        self
    }

    /// A user-defined in-network aggregate registered under `name` in the
    /// session's [`OpRegistry`].
    pub fn custom(mut self, name: impl Into<String>) -> Self {
        self.draft.set_op(OpKind::Custom { name: name.into() });
        self
    }

    /// Sets an explicit operator kind (escape hatch for front ends).
    pub fn op(mut self, op: OpKind) -> Self {
        self.draft.set_op(op);
        self
    }

    /// Adds a per-source select predicate (AND-composed when repeated).
    pub fn filter(mut self, p: Predicate) -> Self {
        self.draft.add_filter(p);
        self
    }

    /// Adds a numeric comparison predicate on a field.
    pub fn where_field(mut self, field: impl Into<Field>, cmp: Cmp, value: f64) -> Self {
        let f = self.draft.resolve(field.into());
        self.draft.add_filter(Predicate::Field { field: f, cmp, value });
        self
    }

    /// Keeps only tuples whose routing key equals `key`.
    pub fn key_eq(mut self, key: u64) -> Self {
        self.draft.add_filter(Predicate::KeyEq(key));
        self
    }

    /// Sets an explicit sensor specification.
    pub fn sensor(mut self, s: SensorSpec) -> Self {
        self.draft.set_sensor(s);
        self
    }

    /// Every member emits `value` every `period_us` of local time.
    pub fn periodic_us(mut self, period_us: u64, value: f64) -> Self {
        self.draft.set_sensor(SensorSpec::Periodic { period_us, value });
        self
    }

    /// Every member emits `value` every `secs` seconds of local time.
    pub fn periodic_secs(mut self, secs: f64, value: f64) -> Self {
        self.draft.set_sensor(SensorSpec::Periodic { period_us: (secs * 1e6) as u64, value });
        self
    }

    /// Members replay peer-resident traces (see [`Mortar::set_replay`]).
    pub fn replay(mut self) -> Self {
        self.draft.set_sensor(SensorSpec::Replay);
        self
    }

    /// Attaches an ingestion feed: every member instantiates the
    /// connector and pumps tuples through its declared [`IntakePolicy`]
    /// (default: lossless [`IntakePolicy::Backpressure`] with
    /// [`crate::feed::DEFAULT_QUEUE_CAP`] credits). Refine with
    /// [`QueryBuilder::intake`].
    pub fn with_feed(mut self, connector: FeedConnector) -> Self {
        let policy = IntakePolicy::Backpressure { credits: crate::feed::DEFAULT_QUEUE_CAP };
        self.draft.set_sensor(SensorSpec::Feed(FeedSpec::new(connector, policy)));
        self
    }

    /// A feed replaying a shared `(frame-µs offset, tuple)` trace at every
    /// member, packed once from the trace it consumes (see
    /// [`crate::feed::ReplayTrace`]).
    pub fn feed_replay(self, trace: Vec<(u64, RawTuple)>) -> Self {
        let trace = std::sync::Arc::new(ReplayTrace::pack(trace));
        self.with_feed(FeedConnector::Replay { trace })
    }

    /// A synthetic feed emitting on a fixed period with an optional burst
    /// window (see [`BurstProfile`]).
    pub fn feed_bursty(self, profile: BurstProfile) -> Self {
        self.with_feed(FeedConnector::Bursty(profile))
    }

    /// A feed draining externally pushed tuples from a shared
    /// [`ChannelHub`] (each member drains only its own per-node queue).
    pub fn feed_channel(self, hub: &std::sync::Arc<ChannelHub>) -> Self {
        self.with_feed(FeedConnector::Channel { hub: std::sync::Arc::clone(hub) })
    }

    /// Declares the feed's intake policy — how the member behaves when
    /// the source outruns the operator. Must follow a feed sensor
    /// ([`QueryBuilder::with_feed`] or a `feed_*` convenience).
    pub fn intake(mut self, policy: IntakePolicy) -> Self {
        match &mut self.draft.sensor {
            Some(SensorSpec::Feed(fs)) => fs.policy = policy,
            _ => self.draft.fail(MortarError::InvalidConfig {
                reason: format!(
                    "query {:?}: intake() requires a feed sensor (call with_feed first)",
                    self.draft.name
                ),
            }),
        }
        self
    }

    /// Bounds how many queued feed tuples one tick hands to the operator
    /// (pacing; default [`crate::feed::DEFAULT_DRAIN_MAX`]).
    pub fn intake_drain_max(mut self, max: usize) -> Self {
        match &mut self.draft.sensor {
            Some(SensorSpec::Feed(fs)) => fs.drain_max = max.max(1),
            _ => self.draft.fail(MortarError::InvalidConfig {
                reason: format!(
                    "query {:?}: intake_drain_max() requires a feed sensor",
                    self.draft.name
                ),
            }),
        }
        self
    }

    /// Subscribes this query to an installed upstream's output stream
    /// (Section 2.2's composition). When no members were set, the query
    /// defaults to living entirely on the upstream's root peer — the only
    /// place the upstream's root operator emits; explicit member lists
    /// must include that peer (checked at install).
    pub fn subscribe(mut self, upstream: &QueryHandle) -> Self {
        if self.draft.members.is_empty() {
            self.draft.members = vec![upstream.root()];
        }
        if self.draft.root.is_none() {
            self.draft.root = Some(upstream.root());
        }
        self.draft.subscribed = Some((upstream.name().to_string(), upstream.root()));
        self.draft.set_sensor(SensorSpec::Subscribe { queries: vec![upstream.name().to_string()] });
        self
    }

    /// Sets a root-side post operator (a registered custom op whose
    /// `finalize` transforms the final aggregate).
    pub fn post(mut self, name: impl Into<String>) -> Self {
        if self.draft.post.is_some() {
            self.draft.fail(MortarError::DuplicatePost { query: self.draft.name.clone() });
        } else {
            self.draft.post = Some(name.into());
        }
        self
    }

    /// Validates, plans, and installs the query through the builder's
    /// session, returning its typed handle. Detached builders (pipeline
    /// stages) report [`MortarError::DetachedBuilder`].
    pub fn install(mut self) -> Result<QueryHandle, MortarError> {
        let Some(session) = self.session.take() else {
            return Err(MortarError::DetachedBuilder { query: self.draft.name });
        };
        session.install_draft(self.draft)
    }

    /// Strips the session borrow (pipeline stages never install
    /// themselves).
    fn detach(self) -> StageDraft {
        self.draft
    }
}

/// A typed handle to an installed query: the only way to read results,
/// drain the result stream, count live members, or remove the query.
/// Cheap to clone; carries the interned [`QueryId`], the root peer, and
/// the query name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHandle {
    id: QueryId,
    name: String,
    root: NodeId,
    members: u32,
    /// The root result log's sequence number at install time: reads
    /// through this handle are scoped to its own incarnation, so a
    /// re-install under the same name never surfaces the previous
    /// incarnation's records. Sequences are stable across the bounded
    /// log's retention eviction.
    base: u64,
}

impl QueryHandle {
    /// The interned id the injector's object store assigned.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The query name (the reconciliation key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The peer hosting the root operator.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of participating peers (the completeness denominator).
    pub fn member_count(&self) -> usize {
        self.members as usize
    }
}

/// One pipeline stage: a detached draft plus the names of the upstream
/// queries it subscribes to (empty for source stages).
struct StagePlan {
    draft: StageDraft,
    upstreams: Vec<String>,
}

/// A logical dataflow plan: named stages wired by subscription edges.
///
/// A pipeline compiles into one [`QuerySpec`] per stage. Downstream
/// stages get a [`SensorSpec::Subscribe`] sensor naming their upstreams,
/// default to living on their upstream's root peer, and are installed in
/// dependency order, so every subscription finds its upstream already
/// flowing. Upstream names may also refer to
/// queries already installed in the session.
#[must_use = "a pipeline does nothing until installed"]
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<StagePlan>,
    err: Option<MortarError>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    fn fail(&mut self, e: MortarError) {
        if self.err.is_none() {
            self.err = Some(e);
        }
    }

    /// Adds an independent (source) stage.
    pub fn stage(mut self, builder: QueryBuilder<'_>) -> Self {
        self.stages.push(StagePlan { draft: builder.detach(), upstreams: Vec::new() });
        self
    }

    /// Adds a stage subscribed to the previously added stage's output.
    pub fn then(mut self, builder: QueryBuilder<'_>) -> Self {
        match self.stages.last() {
            Some(prev) => {
                let upstream = prev.draft.name.clone();
                self.stages.push(StagePlan { draft: builder.detach(), upstreams: vec![upstream] });
            }
            None => {
                self.stages.push(StagePlan { draft: builder.detach(), upstreams: Vec::new() });
                self.fail(MortarError::EmptyPipeline);
            }
        }
        self
    }

    /// Adds a stage subscribed to every named upstream (fan-in). Upstreams
    /// may be other stages of this pipeline — in any order — or queries
    /// already installed in the session.
    pub fn fan_in<I, S>(mut self, upstreams: I, builder: QueryBuilder<'_>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.stages.push(StagePlan {
            draft: builder.detach(),
            upstreams: upstreams.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// A Mortar session: the typed front door to a running federation.
///
/// Wraps the low-level [`Engine`] (still reachable via
/// [`Mortar::engine`] / [`Mortar::engine_mut`] for failure scripting and
/// diagnostics) and owns the query lifecycle: installs hand out
/// [`QueryHandle`]s, and every result read, incremental drain, or removal
/// goes through a handle.
pub struct Mortar {
    engine: Engine,
    /// name → live handle, for upstream resolution and staleness checks.
    handles: HashMap<String, QueryHandle>,
    /// Per-query drain cursor: the result-log sequence number up to which
    /// this query's records have been delivered.
    cursors: HashMap<QueryId, u64>,
    /// Push-style result sinks, pumped after every [`Mortar::run_secs`].
    sinks: Vec<ResultSink>,
}

/// One attached push-style consumer: a callback plus its own drain cursor
/// (independent of [`Mortar::subscribe`]'s), so pull and push consumers of
/// the same query never steal each other's records.
struct ResultSink {
    id: QueryId,
    name: String,
    root: NodeId,
    cursor: u64,
    deliver: Box<dyn FnMut(&ResultRecord)>,
}

impl Mortar {
    /// Builds a session over a fresh deployment. A configuration
    /// violating an invariant (see
    /// [`crate::engine::EngineConfig::validate`]) is a typed error, not
    /// a panic.
    pub fn new(cfg: EngineConfig) -> Result<Self, MortarError> {
        Ok(Self::from_engine(Engine::new(cfg)?))
    }

    /// Builds a session with user-defined operators registered.
    pub fn with_registry(cfg: EngineConfig, registry: OpRegistry) -> Result<Self, MortarError> {
        Ok(Self::from_engine(Engine::with_registry(cfg, registry)?))
    }

    /// Wraps an already-built engine.
    pub fn from_engine(engine: Engine) -> Self {
        Self { engine, handles: HashMap::new(), cursors: HashMap::new(), sinks: Vec::new() }
    }

    /// The underlying engine (simulator access, failure scripting,
    /// bandwidth accounting).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Number of hosts in the deployed topology.
    pub fn hosts(&self) -> usize {
        self.engine.hosts()
    }

    /// Starts a fluent query bound to this session; finish with
    /// [`QueryBuilder::install`].
    pub fn query(&mut self, name: impl Into<String>) -> QueryBuilder<'_> {
        QueryBuilder { session: Some(self), draft: StageDraft::new(name) }
    }

    /// Installs a detached builder (e.g. one produced by a front-end
    /// compiler) and returns its handle.
    pub fn install(&mut self, builder: QueryBuilder<'_>) -> Result<QueryHandle, MortarError> {
        self.install_draft(builder.detach())
    }

    fn install_draft(&mut self, draft: StageDraft) -> Result<QueryHandle, MortarError> {
        let spec = draft.finish()?;
        self.install_spec(spec)
    }

    fn install_spec(&mut self, spec: QuerySpec) -> Result<QueryHandle, MortarError> {
        let (name, root) = (spec.name.clone(), spec.root);
        let members = spec.members.len() as u32;
        self.engine.install(spec)?;
        let id = self.engine.query_id(&name).expect("interned by install");
        // Scope reads and drains to this incarnation: a re-install under
        // the same name must not surface the previous one's records.
        let base = self.engine.result_seq(root);
        let handle = QueryHandle { id, name: name.clone(), root, members, base };
        self.cursors.insert(id, base);
        self.handles.insert(name, handle.clone());
        Ok(handle)
    }

    /// Compiles and installs a pipeline: resolves subscription edges,
    /// validates co-location, topologically orders the stages, and
    /// installs every stage upstream-first. Returns one handle per stage,
    /// in declaration order. Validation is atomic — nothing installs
    /// unless the whole pipeline is sound.
    pub fn install_pipeline(
        &mut self,
        pipeline: Pipeline,
    ) -> Result<Vec<QueryHandle>, MortarError> {
        if let Some(e) = pipeline.err {
            return Err(e);
        }
        if pipeline.stages.is_empty() {
            return Err(MortarError::EmptyPipeline);
        }
        let order = toposort(&pipeline.stages, &self.handles)?;
        // Resolve every stage to a validated spec before installing any.
        let mut specs: Vec<Option<QuerySpec>> = (0..pipeline.stages.len()).map(|_| None).collect();
        let mut stage_roots: HashMap<String, NodeId> = HashMap::new();
        let mut drafts: Vec<Option<StagePlan>> = pipeline.stages.into_iter().map(Some).collect();
        for &i in &order {
            let StagePlan { mut draft, upstreams } = drafts[i].take().expect("visited once");
            if !upstreams.is_empty() {
                if draft.sensor.is_some() {
                    return Err(MortarError::SensorConflict { query: draft.name });
                }
                let mut roots = Vec::new();
                for up in &upstreams {
                    let root = stage_roots
                        .get(up)
                        .copied()
                        .or_else(|| self.handles.get(up).map(|h| h.root()))
                        .ok_or_else(|| MortarError::UnknownUpstream {
                            query: draft.name.clone(),
                            upstream: up.clone(),
                        })?;
                    roots.push(root);
                }
                if draft.members.is_empty() {
                    // Default placement: one operator per distinct
                    // upstream root, rooted at the first upstream's root.
                    let mut seen = BTreeSet::new();
                    draft.members = roots.iter().copied().filter(|&r| seen.insert(r)).collect();
                }
                for (up, &root) in upstreams.iter().zip(&roots) {
                    if !draft.members.contains(&root) {
                        return Err(MortarError::UpstreamRootElsewhere {
                            query: draft.name,
                            upstream: up.clone(),
                            upstream_root: root,
                        });
                    }
                }
                draft.sensor = Some(SensorSpec::Subscribe { queries: upstreams });
            }
            let spec = draft.finish()?;
            self.engine.validate(&spec)?;
            stage_roots.insert(spec.name.clone(), spec.root);
            specs[i] = Some(spec);
        }
        // Install upstream-first; report handles in declaration order.
        let mut handles: Vec<Option<QueryHandle>> = (0..specs.len()).map(|_| None).collect();
        for &i in &order {
            let spec = specs[i].take().expect("resolved above");
            handles[i] = Some(self.install_spec(spec)?);
        }
        Ok(handles.into_iter().map(|h| h.expect("installed above")).collect())
    }

    /// Checks that a handle still names the live incarnation of its query.
    fn check(&self, h: &QueryHandle) -> Result<(), MortarError> {
        match self.engine.query_id(h.name()) {
            Some(id) if id == h.id() => Ok(()),
            Some(_) => Err(MortarError::StaleHandle { name: h.name().to_string(), handle: h.id() }),
            None => Err(MortarError::UnknownQuery { name: h.name().to_string() }),
        }
    }

    /// Every result the query's root operator still retains — scoped to
    /// this handle's incarnation, so records from an earlier same-named
    /// query never leak in. The root log is a bounded ring
    /// ([`crate::rlog::ResultLog`]); records older than its retention cap
    /// are gone.
    pub fn results(&self, h: &QueryHandle) -> Vec<ResultRecord> {
        self.records_from(h.root(), h.base, h.name()).cloned().collect()
    }

    /// The records of query `name` the root still retains, from sequence
    /// `from` on: the one read behind results, subscriptions and sinks.
    fn records_from<'a>(
        &'a self,
        root: NodeId,
        from: u64,
        name: &'a str,
    ) -> impl Iterator<Item = &'a ResultRecord> + 'a {
        self.engine.results_from(root, from).iter().filter(move |r| &*r.query == name)
    }

    /// Drains the results recorded since the last [`Mortar::subscribe`]
    /// call on this handle (or since install). Each record is delivered
    /// exactly once — repeated calls never re-deliver, and cursors are
    /// sequence-based, so the bounded log's wrap-around never skips or
    /// replays records that were drained in time.
    pub fn subscribe(&mut self, h: &QueryHandle) -> Vec<ResultRecord> {
        let start = self.cursors.get(&h.id()).map_or(h.base, |&c| c.max(h.base));
        let fresh: Vec<ResultRecord> =
            self.records_from(h.root(), start, h.name()).cloned().collect();
        self.cursors.insert(h.id(), self.engine.result_seq(h.root()));
        fresh
    }

    /// Attaches a push-style sink to the query: after every
    /// [`Mortar::run_secs`] step, `deliver` is called once per fresh
    /// result record, in emission order. Each record reaches the sink
    /// exactly once (cursors are sequence-based, mirroring
    /// [`Mortar::subscribe`]'s never-redeliver discipline), and sinks
    /// drain independently of `subscribe` cursors. Records older than the
    /// root log's bounded retention at pump time are gone, exactly as for
    /// a slow `subscribe` caller.
    pub fn attach_sink(
        &mut self,
        h: &QueryHandle,
        deliver: impl FnMut(&ResultRecord) + 'static,
    ) -> Result<(), MortarError> {
        self.check(h)?;
        self.sinks.push(ResultSink {
            id: h.id(),
            name: h.name().to_string(),
            root: h.root(),
            cursor: h.base,
            deliver: Box::new(deliver),
        });
        Ok(())
    }

    /// Attaches a channel-backed sink: fresh result records are cloned
    /// into the returned receiver after every [`Mortar::run_secs`] step.
    /// Same exactly-once discipline as [`Mortar::attach_sink`]; a dropped
    /// receiver simply discards subsequent records.
    pub fn attach_channel(
        &mut self,
        h: &QueryHandle,
    ) -> Result<std::sync::mpsc::Receiver<ResultRecord>, MortarError> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.attach_sink(h, move |r| {
            let _ = tx.send(r.clone());
        })?;
        Ok(rx)
    }

    /// Delivers every fresh record to the attached sinks. Runs after each
    /// simulation step; the sinks vector is taken out of `self` for the
    /// sweep so callbacks can't alias the session.
    fn pump_sinks(&mut self) {
        if self.sinks.is_empty() {
            return;
        }
        let mut sinks = std::mem::take(&mut self.sinks);
        for s in &mut sinks {
            for r in self.records_from(s.root, s.cursor, &s.name) {
                (s.deliver)(r);
            }
            s.cursor = self.engine.result_seq(s.root);
        }
        // Callbacks cannot re-enter the session (it is exclusively
        // borrowed here), so no sink can have been attached meanwhile.
        self.sinks = sinks;
    }

    /// Removes the query, consuming its handle. The removal command
    /// carries the interned id and multicasts down the primary tree.
    /// Attached sinks are detached (after a final drain of anything
    /// already recorded).
    pub fn remove(&mut self, h: QueryHandle) -> Result<(), MortarError> {
        self.check(&h)?;
        self.pump_sinks();
        self.engine.remove(h.name(), h.root())?;
        self.handles.remove(h.name());
        self.cursors.remove(&h.id());
        self.sinks.retain(|s| s.id != h.id());
        Ok(())
    }

    /// How many peers have the query installed *and* connected.
    pub fn active_count(&self, h: &QueryHandle) -> usize {
        self.engine.active_count(h.name())
    }

    /// How many peers have the query installed (record or not).
    pub fn installed_count(&self, h: &QueryHandle) -> usize {
        self.engine.installed_count(h.name())
    }

    /// Mean steady-state completeness (%) of the query's results, skipping
    /// the first `skip_first` warm-up windows.
    pub fn completeness(&self, h: &QueryHandle, skip_first: usize) -> f64 {
        metrics::mean_completeness(&self.results(h), h.member_count(), skip_first)
    }

    /// Runs `s` seconds of true time, then pumps attached sinks.
    pub fn run_secs(&mut self, s: f64) {
        self.engine.run_secs(s);
        self.pump_sinks();
    }

    /// Connects/disconnects a host's access link.
    pub fn set_host_up(&mut self, node: NodeId, up: bool) {
        self.engine.set_host_up(node, up);
    }

    /// Disconnects a random `frac` of hosts, never touching `protect`;
    /// returns the disconnected set.
    pub fn disconnect_random(&mut self, frac: f64, protect: NodeId) -> Vec<NodeId> {
        self.engine.disconnect_random(frac, protect)
    }

    /// Reconnects the given hosts.
    pub fn reconnect(&mut self, nodes: &[NodeId]) {
        self.engine.reconnect(nodes);
    }

    /// Hands a peer the trace replayed by [`SensorSpec::Replay`] queries
    /// (offset in query-frame µs, tuple): an offset counts from the
    /// query's issue instant, not from its activation on this peer, so
    /// tuples whose offsets passed before activation arrive at its first
    /// pump. Each replay query keeps its own cursor: every one of them
    /// ingests the whole trace in its own frame, so two replay queries on
    /// one peer both see every tuple and a query installed later starts
    /// at the first tuple. A new trace restarts every installed replay
    /// query at its first tuple.
    pub fn set_replay(&mut self, node: NodeId, trace: Vec<(u64, RawTuple)>) {
        self.engine.sim.app_mut(node).set_replay(trace);
    }
}

/// Kahn's algorithm over in-pipeline subscription edges; names resolved
/// by installed queries contribute no edge. Deterministic: ready stages
/// process in declaration order.
fn toposort(
    stages: &[StagePlan],
    installed: &HashMap<String, QueryHandle>,
) -> Result<Vec<usize>, MortarError> {
    let mut index: HashMap<&str, usize> = HashMap::new();
    for (i, s) in stages.iter().enumerate() {
        if index.insert(s.draft.name.as_str(), i).is_some() {
            return Err(MortarError::DuplicateStage { name: s.draft.name.clone() });
        }
    }
    let mut indegree = vec![0usize; stages.len()];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); stages.len()];
    for (i, s) in stages.iter().enumerate() {
        for up in &s.upstreams {
            match index.get(up.as_str()) {
                Some(&j) => {
                    out[j].push(i);
                    indegree[i] += 1;
                }
                None if installed.contains_key(up) => {}
                None => {
                    return Err(MortarError::UnknownUpstream {
                        query: s.draft.name.clone(),
                        upstream: up.clone(),
                    })
                }
            }
        }
    }
    let mut order = Vec::with_capacity(stages.len());
    let mut ready: Vec<usize> = (0..stages.len()).filter(|&i| indegree[i] == 0).collect();
    while let Some(i) = ready.first().copied() {
        ready.remove(0);
        order.push(i);
        for &j in &out[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                // Keep declaration order among newly ready stages.
                let pos = ready.partition_point(|&k| k < j);
                ready.insert(pos, j);
            }
        }
    }
    if order.len() != stages.len() {
        let stuck = (0..stages.len()).find(|&i| indegree[i] > 0).expect("cycle member");
        return Err(MortarError::PipelineCycle { name: stages[stuck].draft.name.clone() });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(n: usize, seed: u64) -> Mortar {
        let mut cfg = EngineConfig::paper(n, seed);
        cfg.plan_on_true_latency = true;
        Mortar::new(cfg).expect("valid config")
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let mut cfg = EngineConfig::paper(4, 1);
        cfg.chaos.drop_prob = 1.5;
        assert!(matches!(Mortar::new(cfg), Err(MortarError::InvalidConfig { .. })));
        let mut cfg = EngineConfig::paper(4, 1);
        cfg.peer.summary_batch_max = 0;
        assert!(matches!(Mortar::new(cfg), Err(MortarError::InvalidConfig { .. })));
        let mut cfg = EngineConfig::paper(4, 1);
        cfg.shards = 0;
        assert!(matches!(Mortar::new(cfg), Err(MortarError::InvalidConfig { .. })));
        let mut cfg = EngineConfig::paper(4, 1);
        cfg.peer.install_chunks = 0;
        assert!(matches!(Mortar::new(cfg), Err(MortarError::InvalidConfig { .. })));
        let zeroed: [fn(&mut crate::peer::PeerConfig); 2] =
            [|p| p.tick_us = 0, |p| p.reconcile_every = 0];
        for (i, zero) in zeroed.iter().enumerate() {
            let mut cfg = EngineConfig::paper(4, 1);
            zero(&mut cfg.peer);
            assert!(
                matches!(Mortar::new(cfg), Err(MortarError::InvalidConfig { .. })),
                "zeroed cadence #{i} must be rejected"
            );
        }
        let zeroed: [fn(&mut mortar_overlay::PlannerConfig); 3] =
            [|p| p.tree_count = 0, |p| p.branching_factor = 0, |p| p.kmeans_iters = 0];
        for (i, zero) in zeroed.iter().enumerate() {
            let mut cfg = EngineConfig::paper(4, 1);
            zero(&mut cfg.planner);
            assert!(
                matches!(Mortar::new(cfg), Err(MortarError::InvalidConfig { .. })),
                "zeroed planner setting #{i} must be rejected"
            );
        }
    }

    #[test]
    fn builder_validates_eagerly_and_installs() {
        let mut m = session(16, 42);
        let h = m
            .query("up")
            .fields(["value"])
            .members(0..16)
            .periodic_secs(1.0, 1.0)
            .sum("value")
            .every_secs(1.0)
            .install()
            .expect("valid query");
        assert_eq!(h.name(), "up");
        assert_eq!(h.root(), 0);
        assert_eq!(h.member_count(), 16);
        m.run_secs(15.0);
        assert_eq!(m.active_count(&h), 16);
        assert!(!m.results(&h).is_empty());
    }

    #[test]
    fn builder_reports_first_error() {
        let mut m = session(8, 1);
        // Unknown field name.
        let err = m.query("q").members(0..8).sum("nope").install().unwrap_err();
        assert_eq!(err, MortarError::UnknownField { query: "q".into(), field: "nope".into() });
        // Two aggregates.
        let err = m.query("q").members(0..8).sum(0).count().install().unwrap_err();
        assert_eq!(err, MortarError::DuplicateOperator { query: "q".into() });
        // Degenerate window, recorded at the offending call.
        let err = m.query("q").members(0..8).sum(0).window_secs(1.0, 5.0).install().unwrap_err();
        assert!(matches!(err, MortarError::InvalidWindow { .. }));
        // No operator at all.
        let err = m.query("q").members(0..8).install().unwrap_err();
        assert_eq!(err, MortarError::NoOperator { query: "q".into() });
        // Root outside members (engine-level check through the session).
        let err = m.query("q").members(0..8).root(9).sum(0).install().unwrap_err();
        assert_eq!(err, MortarError::RootNotMember { query: "q".into(), root: 9 });
        // Nothing leaked into the session.
        assert_eq!(m.engine().query_id("q"), None);
    }

    #[test]
    fn named_fields_resolve_positionally_without_declaration() {
        let mut m = session(8, 2);
        let h = m
            .query("q")
            .members(0..8)
            .periodic_secs(1.0, 3.0)
            .max("f0")
            .every_secs(1.0)
            .install()
            .expect("f0 resolves positionally");
        m.run_secs(10.0);
        assert!(m.results(&h).iter().filter_map(|r| r.scalar).any(|v| (v - 3.0).abs() < 1e-9));
    }

    #[test]
    fn subscribe_drains_incrementally_without_redelivery() {
        let mut m = session(8, 3);
        let h = m
            .query("up")
            .members(0..8)
            .periodic_secs(1.0, 1.0)
            .sum(0)
            .every_secs(1.0)
            .install()
            .unwrap();
        let mut drained = Vec::new();
        for _ in 0..6 {
            m.run_secs(5.0);
            drained.extend(m.subscribe(&h));
        }
        drained.extend(m.subscribe(&h));
        let all = m.results(&h);
        assert!(!all.is_empty());
        assert_eq!(drained.len(), all.len(), "drains must partition the result log");
        for (a, b) in drained.iter().zip(&all) {
            assert_eq!((a.tb, a.emit_true_us), (b.tb, b.emit_true_us));
        }
    }

    #[test]
    fn sink_delivers_every_record_exactly_once() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut m = session(8, 21);
        let h = m
            .query("up")
            .members(0..8)
            .periodic_secs(1.0, 1.0)
            .sum(0)
            .every_secs(1.0)
            .install()
            .unwrap();
        let pushed: Rc<RefCell<Vec<(i64, u64)>>> = Rc::default();
        let sink_log = Rc::clone(&pushed);
        m.attach_sink(&h, move |r| sink_log.borrow_mut().push((r.tb, r.emit_true_us)))
            .expect("live handle");
        let rx = m.attach_channel(&h).expect("live handle");
        // Ragged steps: the sink must see each record exactly once no
        // matter how the run is chopped up.
        for s in [5.0, 0.5, 7.5, 2.0, 5.0] {
            m.run_secs(s);
        }
        let all = m.results(&h);
        assert!(!all.is_empty());
        let want: Vec<(i64, u64)> = all.iter().map(|r| (r.tb, r.emit_true_us)).collect();
        assert_eq!(*pushed.borrow(), want, "sink must partition the result log");
        let chan: Vec<(i64, u64)> = rx.try_iter().map(|r| (r.tb, r.emit_true_us)).collect();
        assert_eq!(chan, want, "channel sink must agree with callback sink");
        // Pull-side subscribe cursors are independent of sink cursors.
        assert_eq!(m.subscribe(&h).len(), all.len());
        // Removal detaches; a further run pushes nothing new.
        let n = pushed.borrow().len();
        m.remove(h).unwrap();
        m.run_secs(5.0);
        assert_eq!(pushed.borrow().len(), n, "detached sink still received records");
    }

    #[test]
    fn feed_builder_installs_and_intake_requires_feed() {
        let mut m = session(8, 22);
        let h = m
            .query("feed")
            .members(0..8)
            .feed_bursty(BurstProfile::steady(500_000, 1.0))
            .intake(IntakePolicy::Backpressure { credits: 64 })
            .sum(0)
            .every_secs(1.0)
            .install()
            .expect("feed query installs");
        m.run_secs(15.0);
        assert_eq!(m.active_count(&h), 8);
        assert!(!m.results(&h).is_empty(), "feed produced no results");
        let (totals, conserved, _) = m.engine().feed_totals();
        assert!(totals.offered > 0 && totals.delivered > 0);
        assert!(conserved, "feed accounting does not balance");
        // intake() without a feed sensor is a typed error.
        let err = m
            .query("bad")
            .members(0..8)
            .periodic_secs(1.0, 1.0)
            .intake(IntakePolicy::Shed { watermark: 8 })
            .sum(0)
            .install()
            .unwrap_err();
        assert!(matches!(err, MortarError::InvalidConfig { .. }));
    }

    #[test]
    fn a_zero_cadence_is_rejected_at_install() {
        // Each of these truncates to, or is, a zero period (or a zero
        // burst factor), which would leave every member's pump looping at
        // one instant; install must refuse it before the simulator runs.
        type Sensor = fn(QueryBuilder<'_>) -> QueryBuilder<'_>;
        let bursty = BurstProfile::steady(1_000, 1.0).with_burst(0, 1_000_000, 2);
        let zero: [(&str, Sensor); 7] = [
            ("periodic_us(0)", |b| b.periodic_us(0, 1.0)),
            ("periodic_secs(1e-7)", |b| b.periodic_secs(1e-7, 1.0)),
            ("periodic_secs(0)", |b| b.periodic_secs(0.0, 1.0)),
            ("periodic_secs(-1)", |b| b.periodic_secs(-1.0, 1.0)),
            ("periodic_secs(NaN)", |b| b.periodic_secs(f64::NAN, 1.0)),
            ("bursty period 0", |b| {
                b.feed_bursty(BurstProfile { period_us: 0, ..BurstProfile::steady(1, 1.0) })
            }),
            ("bursty factor 0", |b| {
                let p = BurstProfile::steady(1_000, 1.0).with_burst(0, 1_000_000, 2);
                b.feed_bursty(BurstProfile { burst_factor: 0, ..p })
            }),
        ];
        let mut m = session(8, 1);
        for (what, sensor) in zero {
            let b = m.query("z").members(0..8).sum(0).every_secs(1.0);
            let err = sensor(b).install().expect_err(what);
            assert!(matches!(err, MortarError::InvalidConfig { .. }), "{what}: {err:?}");
        }
        // The same shapes with a positive cadence install.
        m.query("p").members(0..8).sum(0).periodic_us(1, 1.0).install().expect("1 µs period");
        m.query("b").members(0..8).sum(0).feed_bursty(bursty).install().expect("2x burst");
    }

    #[test]
    fn builder_methods_build_the_spec_written_by_hand() {
        let base = QuerySpec {
            name: "q".into(),
            root: 0,
            members: (0..4).collect(),
            op: OpKind::Sum { field: 0 },
            window: WindowSpec::time_tumbling_us(1_000_000),
            filter: None,
            sensor: SensorSpec::None,
            post: None,
        };
        type Build = fn(QueryBuilder<'static>) -> QueryBuilder<'static>;
        type ByHand = fn(&mut QuerySpec);
        let cases: [(&str, Build, ByHand); 5] = [
            (
                "every_us",
                |b| b.sum(0).every_us(25_000),
                |s| s.window = WindowSpec::time_tumbling_us(25_000),
            ),
            (
                "periodic_us",
                |b| b.sum(0).periodic_us(25_000, 2.5),
                |s| s.sensor = SensorSpec::Periodic { period_us: 25_000, value: 2.5 },
            ),
            (
                "top_k",
                |b| b.fields(["a", "b"]).top_k(3, "b"),
                |s| s.op = OpKind::TopK { k: 3, field: 1 },
            ),
            (
                "where_field",
                |b| b.sum(0).where_field(1, Cmp::Gt, 0.5),
                |s| s.filter = Some(Predicate::Field { field: 1, cmp: Cmp::Gt, value: 0.5 }),
            ),
            (
                "key_eq",
                |b| b.sum(0).key_eq(7).key_eq(9),
                |s| {
                    let (a, b) = (Predicate::KeyEq(7), Predicate::KeyEq(9));
                    s.filter = Some(Predicate::And(Box::new(a), Box::new(b)))
                },
            ),
        ];
        for (what, build, by_hand) in cases {
            let got = build(stage("q").members(0..4)).detach().finish().expect(what);
            let mut want = base.clone();
            by_hand(&mut want);
            assert_eq!(got, want, "{what}");
        }
    }

    #[test]
    fn remove_consumes_handle_and_rejects_unknown() {
        let mut m = session(8, 4);
        let h = m.query("q").members(0..8).periodic_secs(1.0, 1.0).sum(0).install().unwrap();
        m.run_secs(8.0);
        assert!(m.installed_count(&h) > 0);
        let stale = h.clone();
        m.remove(h).expect("installed");
        m.run_secs(12.0);
        assert_eq!(m.engine().installed_count("q"), 0);
        // The clone is now dead: removal through it is a typed error.
        assert!(m.remove(stale).is_err());
    }

    #[test]
    fn direct_subscribe_requires_upstream_root_membership() {
        let mut m = session(8, 14);
        let up = m.query("up").members(0..8).periodic_secs(1.0, 1.0).sum(0).install().unwrap();
        // Explicit members that miss the upstream root (peer 0): the
        // subscriber would never receive a tuple, so install refuses.
        let err = m.query("down").members([3, 4]).subscribe(&up).avg(0).install().unwrap_err();
        assert_eq!(
            err,
            MortarError::UpstreamRootElsewhere {
                query: "down".into(),
                upstream: "up".into(),
                upstream_root: 0,
            }
        );
        // Including the upstream root makes the same shape legal.
        m.query("down").members([0, 3, 4]).subscribe(&up).avg(0).install().unwrap();
    }

    #[test]
    fn reinstall_scopes_reads_to_the_new_incarnation() {
        let mut m = session(8, 15);
        let build = |m: &mut Mortar| {
            m.query("q").members(0..8).periodic_secs(1.0, 1.0).sum(0).every_secs(1.0).install()
        };
        let h1 = build(&mut m).unwrap();
        m.run_secs(15.0);
        let old = m.results(&h1);
        assert!(!old.is_empty());
        m.remove(h1).unwrap();
        m.run_secs(10.0);
        // Same name, same interned id — but a fresh incarnation: reads
        // through the new handle must not surface the old records.
        let h2 = build(&mut m).unwrap();
        assert!(m.results(&h2).is_empty(), "old incarnation leaked into a fresh handle");
        m.run_secs(15.0);
        let fresh = m.results(&h2);
        assert!(!fresh.is_empty());
        assert_eq!(m.subscribe(&h2).len(), fresh.len(), "drain agrees with scoped reads");
        assert!(m.completeness(&h2, 5) > 90.0);
    }

    #[test]
    fn detached_builders_cannot_install_themselves() {
        let err = stage("s").members(0..4).sum(0).install().unwrap_err();
        assert_eq!(err, MortarError::DetachedBuilder { query: "s".into() });
    }

    #[test]
    fn pipeline_validates_upstreams_and_cycles() {
        let mut m = session(8, 5);
        // Unknown upstream.
        let p = Pipeline::new().fan_in(["ghost"], stage("a").avg(0).every_secs(1.0));
        assert_eq!(
            m.install_pipeline(p).unwrap_err(),
            MortarError::UnknownUpstream { query: "a".into(), upstream: "ghost".into() }
        );
        // Cycle.
        let p = Pipeline::new()
            .fan_in(["b"], stage("a").avg(0).every_secs(1.0))
            .fan_in(["a"], stage("b").avg(0).every_secs(1.0));
        assert!(matches!(m.install_pipeline(p).unwrap_err(), MortarError::PipelineCycle { .. }));
        // Duplicate stage names.
        let p = Pipeline::new()
            .stage(stage("a").members(0..4).periodic_secs(1.0, 1.0).sum(0))
            .stage(stage("a").members(0..4).periodic_secs(1.0, 1.0).sum(0));
        assert_eq!(
            m.install_pipeline(p).unwrap_err(),
            MortarError::DuplicateStage { name: "a".into() }
        );
        // Empty.
        assert_eq!(m.install_pipeline(Pipeline::new()).unwrap_err(), MortarError::EmptyPipeline);
        // Atomicity: none of the rejected pipelines installed anything.
        assert_eq!(m.engine().query_id("a"), None);
    }

    #[test]
    fn pipeline_stage_declared_out_of_order_installs_upstream_first() {
        let mut m = session(8, 6);
        // The subscriber is declared before its upstream; toposort must
        // still install the source first.
        let handles = m
            .install_pipeline(
                Pipeline::new().fan_in(["src"], stage("sink").max(0).every_secs(4.0)).stage(
                    stage("src").members(0..8).periodic_secs(1.0, 1.0).sum(0).every_secs(1.0),
                ),
            )
            .expect("valid out-of-order pipeline");
        assert_eq!(handles.len(), 2);
        assert_eq!(handles[0].name(), "sink");
        assert_eq!(handles[1].name(), "src");
        assert_eq!(handles[0].root(), handles[1].root(), "sink defaults to the upstream root");
        m.run_secs(30.0);
        let peaks: Vec<f64> = m.results(&handles[0]).iter().filter_map(|r| r.scalar).collect();
        assert!(peaks.iter().any(|&v| (v - 8.0).abs() < 1e-9), "peak of sums: {peaks:?}");
    }

    #[test]
    fn fan_in_merges_two_upstreams_rooted_together() {
        let mut m = session(12, 7);
        let handles = m
            .install_pipeline(
                Pipeline::new()
                    .stage(
                        stage("east").members(0..6).periodic_secs(1.0, 1.0).sum(0).every_secs(1.0),
                    )
                    .stage(
                        stage("west")
                            .members([0, 6, 7, 8, 9, 10, 11])
                            .periodic_secs(1.0, 1.0)
                            .sum(0)
                            .every_secs(1.0),
                    )
                    .fan_in(["east", "west"], stage("both").sum(0).every_secs(5.0)),
            )
            .expect("fan-in pipeline");
        m.run_secs(40.0);
        assert!(handles.iter().all(|h| m.installed_count(h) >= h.member_count()));
        let both: Vec<f64> = m.results(&handles[2]).iter().filter_map(|r| r.scalar).collect();
        assert!(!both.is_empty(), "fan-in produced no results");
        // Each 5 s window of the fan-in sums ~5 windows of each upstream
        // (6 and 7 peers): steady-state windows approach 65.
        let best = both.iter().copied().fold(0.0f64, f64::max);
        assert!(best > 40.0, "fan-in undercounts: {best}");
    }

    #[test]
    fn fan_in_rejects_members_excluding_an_upstream_root() {
        let mut m = session(8, 8);
        // Explicit members that miss upstream b's root (peer 4): peer 4's
        // emissions would silently vanish, so the pipeline refuses.
        let p = Pipeline::new()
            .stage(stage("a").members(0..4).periodic_secs(1.0, 1.0).sum(0))
            .stage(stage("b").members(4..8).periodic_secs(1.0, 1.0).sum(0))
            .fan_in(["a", "b"], stage("c").members([0]).sum(0));
        let err = m.install_pipeline(p).unwrap_err();
        assert!(
            matches!(err, MortarError::UpstreamRootElsewhere { ref upstream, .. } if upstream == "b"),
            "{err}"
        );
    }

    #[test]
    fn fan_in_across_roots_defaults_to_one_member_per_root() {
        let mut m = session(8, 9);
        // Upstreams rooted apart: the fan-in stage defaults to a member at
        // each root, and summaries route to the first upstream's root.
        let handles = m
            .install_pipeline(
                Pipeline::new()
                    .stage(stage("a").members(0..4).periodic_secs(1.0, 1.0).sum(0).every_secs(1.0))
                    .stage(stage("b").members(4..8).periodic_secs(1.0, 1.0).sum(0).every_secs(1.0))
                    .fan_in(["a", "b"], stage("c").sum(0).every_secs(5.0)),
            )
            .expect("cross-root fan-in");
        let c = &handles[2];
        assert_eq!(c.member_count(), 2);
        assert_eq!(c.root(), 0);
        m.run_secs(40.0);
        // Late partials for one index emit separately (time-division keeps
        // them disjoint), so sum scalars per window index.
        let mut by_tb: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
        for r in m.results(c) {
            *by_tb.entry(r.tb).or_default() += r.scalar.unwrap_or(0.0);
        }
        let best = by_tb.values().copied().fold(0.0f64, f64::max);
        // ~5 windows of 4 from each side per 5 s window ⇒ approaches 40.
        assert!(best > 25.0, "cross-root fan-in undercounts: {best}");
    }
}
