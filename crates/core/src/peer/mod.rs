//! The Mortar peer: a complete, transport-agnostic protocol state machine,
//! organized as a staged runtime.
//!
//! A peer hosts one operator instance per installed query. Its duties per
//! the paper:
//!
//! * **Data plane** — window local raw tuples into summary tuples (merging
//!   across time), merge arriving summaries into the time-space list
//!   (merging across space), and on expiry route the merged summary toward
//!   the query root with dynamic striping (Sections 3.3–5).
//! * **Liveness** — parent→child heartbeats every 2 s; a silent neighbour
//!   is presumed down after three missed beats (Section 7.2.2).
//! * **Persistence** — chunked-multicast install/remove with pair-wise
//!   reconciliation every third heartbeat and a query-root topology service
//!   (Section 6).
//!
//! The runtime is split by stage:
//!
//! * [`mod@self`] — peer state, configuration, and the
//!   [`App`] event loop;
//! * `control` (private) — install / remove / reconcile / heartbeat /
//!   topology handling;
//! * `ingest` (private) — sensor pumping, raw-tuple lift, and window
//!   close;
//! * `route` (private) — TS-list eviction, staged multipath routing, and
//!   summary-frame handling.
//!
//! Queries are keyed by interned [`QueryId`] handles, the only key the
//! peer's store uses: installs, tombstones and the store hash all go by
//! id, and a name is looked up only where a caller asks by name (the
//! facade, subscriptions). All summary traffic leaves from one
//! end-of-tick flush: every tuple bound for the same (next hop, query,
//! tree) within one timer tick shares a frame, and every frame owed to
//! one next hop — across queries and trees — stacks into one
//! [`MortarMsg::Envelope`] until its payload reaches
//! [`PeerConfig::envelope_budget`].
//!
//! All timing uses the peer's *local* clock; in syncless mode no global
//! time ever enters the data path.

mod control;
mod ingest;
mod route;

use crate::feed::{ReplayTrace, Source};
use crate::msg::MortarMsg;
use crate::netdist::NetDist;
use crate::op::OpRegistry;
use crate::query::{InstallRecord, QueryId, QuerySpec, SensorSpec};
use crate::reconcile::{entry_hash, store_hash};
use crate::rlog::ResultLog;
use crate::tslist::TimeSpaceList;
use crate::tuple::{RawTuple, Truth};
use crate::value::AggState;
use mortar_net::{App, Ctx, NodeId};
use mortar_overlay::{RouteState, MAX_TREES};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// How operators index tuples in time (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexingMode {
    /// Syncless: ages instead of timestamps; immune to clock offset.
    Syncless,
    /// Traditional timestamps from the local wall clock.
    Timestamp,
}

/// Heartbeat period, local µs (Section 7.2.2: 2 s).
const HB_PERIOD_US: i64 = 2_000_000;

/// Beats without contact before a neighbour is presumed down (Section
/// 7.2.2: three).
const HB_TIMEOUT_BEATS: i64 = 3;

/// Modelled per-hop transit, µs: added to a summary's age each time it is
/// sent, and to a query's issue age at each install, reconcile or
/// topology-reply hop.
pub const HOP_AGE_EST_US: u64 = 15_000;

/// Floor of every TS-list timeout, µs, and the whole wait of a summary
/// this peer creates on a tree where it has no children.
pub const MIN_TIMEOUT_US: u64 = 250_000;

/// netDist's estimate, µs, before its tree has delivered any data.
pub(crate) const NETDIST_INIT_US: u64 = 2_500_000;

/// Maximum open raw-data buckets retained per query. Timestamp mode with
/// huge clock offsets can mint far-future buckets; anything past this cap
/// is garbage-collected oldest-first at window close.
pub(crate) const BUCKET_GC_CAP: usize = 1024;

/// Peer configuration (defaults follow the paper's evaluation settings).
/// The protocol's fixed parameters are constants: the heartbeat cadence,
/// the hop-age model, the timeout floor, netDist's initial estimate and
/// EWMA constant, the store-hash cadence, the staleness horizon and the
/// raw-bucket cap.
#[derive(Debug, Clone, Copy)]
pub struct PeerConfig {
    /// Internal scheduling granularity, local µs.
    pub tick_us: u64,
    /// Reconciliation runs every Nth heartbeat (3 ⇒ every 6 s).
    pub reconcile_every: u32,
    /// Indexing mode.
    pub indexing: IndexingMode,
    /// Install multicast chunk count (paper: 16).
    pub install_chunks: usize,
    /// Record ground-truth metadata for metrics.
    pub track_truth: bool,
    /// Maximum tuples per outgoing summary frame. Tuples evicted in the
    /// same tick for the same (next hop, query, tree) share a frame; the
    /// tick's outbox seals a frame when it reaches this size and starts
    /// the next. `1` reproduces the unbatched one-tuple-per-frame protocol
    /// exactly.
    pub summary_batch_max: usize,
    /// Maximum result records the root operator retains (0 = unbounded).
    /// The log is a ring with stable sequence numbers, so subscriber
    /// drain cursors survive eviction (see [`crate::rlog::ResultLog`]).
    pub result_log_cap: usize,
    /// Payload-byte budget per outgoing wire message (cross-query frame
    /// coalescing): the end-of-tick flush stacks the frames a tick owes
    /// one next hop — across queries and trees — into one message, and
    /// closes it as soon as its payload reaches this many bytes. A message
    /// of several frames is a [`MortarMsg::Envelope`], one of a single
    /// frame a plain `SummaryBatch`. At `0` every frame closes its own
    /// message: each (query, tree) frame leaves as its own
    /// `SummaryBatch`, the per-query-frame protocol.
    pub envelope_budget: u32,
}

impl Default for PeerConfig {
    fn default() -> Self {
        Self {
            tick_us: 200_000,
            reconcile_every: 3,
            indexing: IndexingMode::Syncless,
            install_chunks: 16,
            track_truth: true,
            summary_batch_max: 32,
            result_log_cap: 65_536,
            envelope_budget: 16_384,
        }
    }
}

/// Peer-side counters for diagnostics and experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct PeerStats {
    /// Summaries dropped by the routing policy (stage 5).
    pub route_drops: u64,
    /// TS-list evictions performed.
    pub evictions: u64,
    /// Summary tuples received (across all frames).
    pub summaries_in: u64,
    /// Summary frames received.
    pub frames_in: u64,
    /// Summary tuples sent (across all frames).
    pub summaries_out: u64,
    /// Summary frames sent (the per-message cost batching amortizes).
    /// With envelopes enabled these are *logical* frames; several ride
    /// in one wire message (see `envelopes_out`).
    pub frames_out: u64,
    /// Envelope wire messages sent, each carrying several of the frames
    /// a tick owes one next hop, across queries and trees (0 when
    /// `envelope_budget = 0`).
    pub envelopes_out: u64,
    /// Envelope wire messages received.
    pub envelopes_in: u64,
    /// Modelled payload bytes of all summary tuples sent (frame headers
    /// excluded) — conserved across batch sizes.
    pub summary_payload_bytes_out: u64,
    /// Reconciliation exchanges initiated.
    pub reconciles: u64,
    /// Reconciliation wire messages sent (digest, plan and transfer
    /// phases).
    pub reconcile_msgs_out: u64,
    /// Modelled wire bytes of all reconciliation messages sent.
    pub reconcile_bytes_out: u64,
    /// Installs applied (including via reconciliation).
    pub installs: u64,
    /// Removals applied.
    pub removals: u64,
    /// Sum over delivered-to-root tuples of overlay hops travelled.
    pub hops_accum: u64,
    /// Count of root deliveries contributing to `hops_accum`.
    pub hops_samples: u64,
    /// Peak live TS-list entries across this peer's queries (the
    /// allocation-sensitive high-water mark of retained summary state).
    pub ts_peak_entries: u64,
    /// Timer ticks handled.
    pub ticks: u64,
    /// Ticks on which no query was due (the due index reduced them to a
    /// heartbeat check and an empty outbox flush).
    pub idle_ticks: u64,
    /// Per-query tick passes run (pump + close + evict): one per query
    /// the due index woke, so an idle query costs nothing.
    pub query_wakeups: u64,
    /// High-water mark of a tick's pending summary payload bytes at the
    /// end-of-tick flush — the coalescing memory one tick's evictions hold
    /// before they leave.
    pub outbox_peak_bytes: u64,
}

impl PeerStats {
    /// Sums another peer's counters into this one (the high-water marks
    /// `ts_peak_entries` and `outbox_peak_bytes` take the max).
    pub fn absorb(&mut self, o: &PeerStats) {
        self.route_drops += o.route_drops;
        self.evictions += o.evictions;
        self.summaries_in += o.summaries_in;
        self.frames_in += o.frames_in;
        self.summaries_out += o.summaries_out;
        self.frames_out += o.frames_out;
        self.envelopes_out += o.envelopes_out;
        self.envelopes_in += o.envelopes_in;
        self.summary_payload_bytes_out += o.summary_payload_bytes_out;
        self.reconciles += o.reconciles;
        self.reconcile_msgs_out += o.reconcile_msgs_out;
        self.reconcile_bytes_out += o.reconcile_bytes_out;
        self.installs += o.installs;
        self.removals += o.removals;
        self.hops_accum += o.hops_accum;
        self.hops_samples += o.hops_samples;
        self.ts_peak_entries = self.ts_peak_entries.max(o.ts_peak_entries);
        self.ticks += o.ticks;
        self.idle_ticks += o.idle_ticks;
        self.query_wakeups += o.query_wakeups;
        self.outbox_peak_bytes = self.outbox_peak_bytes.max(o.outbox_peak_bytes);
    }
}

/// One open raw-data window (merging across time).
#[derive(Debug, Default)]
pub(crate) struct Bucket {
    pub(crate) state: Option<AggState>,
    pub(crate) truth: Truth,
}

/// A query's open raw-data windows, sorted by window index in a vector
/// that holds only what is open: it grows by exactly the windows that
/// open and gives its buffer back once under a quarter of it is in use.
/// A tumbling query keeps one window open between ticks and two within
/// one.
#[derive(Debug, Default)]
pub(crate) struct Buckets {
    open: Vec<(i64, Bucket)>,
}

impl Buckets {
    /// Number of open windows.
    pub(crate) fn len(&self) -> usize {
        self.open.len()
    }

    /// Window `k`'s bucket, opened empty on first touch.
    pub(crate) fn open_mut(&mut self, k: i64) -> &mut Bucket {
        let i = match self.open.binary_search_by_key(&k, |&(key, _)| key) {
            Ok(i) => i,
            Err(i) => {
                self.open.reserve_exact(1);
                self.open.insert(i, (k, Bucket::default()));
                i
            }
        };
        &mut self.open[i].1
    }

    /// Closes window `k`, returning its bucket if it was open.
    pub(crate) fn close(&mut self, k: i64) -> Option<Bucket> {
        let i = self.open.binary_search_by_key(&k, |&(key, _)| key).ok()?;
        let (_, b) = self.open.remove(i);
        if self.open.len() < self.open.capacity() / 4 {
            self.open.shrink_to_fit();
        }
        Some(b)
    }

    /// Drops the oldest windows until at most `cap` stay open.
    pub(crate) fn truncate_oldest(&mut self, cap: usize) {
        if let Some(excess) = self.open.len().checked_sub(cap) {
            self.open.drain(..excess);
        }
    }
}

/// Per-query runtime state at one peer.
pub(crate) struct QueryState {
    /// The spec, shared with the control plane: reconciliation exchanges
    /// and topology replies ship this same `Arc` instead of cloning the
    /// spec per message.
    pub(crate) spec: Arc<QuerySpec>,
    pub(crate) id: QueryId,
    /// The query name, allocated once at install: result records and
    /// subscriber feeds share it instead of re-cloning the spec's
    /// `String`.
    pub(crate) name: Arc<str>,
    pub(crate) seq: u64,
    pub(crate) record: Option<InstallRecord>,
    /// The whole physical plan, one record per member, held by the query
    /// root only: its topology service answers members' record requests
    /// from it. It lives and dies with the root's query state; empty
    /// everywhere else.
    pub(crate) plan: Box<[InstallRecord]>,
    /// Origin route state for locally created summaries, precomputed from
    /// the install record (`Copy` — window close stamps it for free
    /// instead of cloning the level vector twice per window). Its levels
    /// are this member's `OL` per tree, which routing reads.
    pub(crate) route_template: RouteState,
    /// Local µs corresponding to the query's issue instant.
    pub(crate) t_ref_base_us: i64,
    pub(crate) ts: TimeSpaceList,
    /// One netDist estimator per merge tree (Section 4.3), indexed by
    /// tree: a tuple's age feeds, and its timeout comes from, only the
    /// estimator of the tree it arrived on. A shared estimator would make
    /// every tree wait for the slowest tree's ages — and for the extra
    /// age that waiting itself adds, a ratchet that never settles.
    pub(crate) netdist: [NetDist; MAX_TREES],
    pub(crate) stripe_rr: usize,
    /// The local tick instant `stripe_rr` last advanced at: the first
    /// window a tick emits advances it, the rest of the tick's ride along.
    pub(crate) striped_at_us: i64,
    pub(crate) buckets: Buckets,
    pub(crate) next_close_k: i64,
    /// The query's local source: its cursor (and a feed's intake), built
    /// from the spec as the query goes active, so it is identical across
    /// shard layouts. Every replay query walks the peer's trace under a
    /// cursor of its own, from its own activation.
    pub(crate) source: Source,
    /// Tuple-window buffer: (frame arrival time, tuple).
    pub(crate) tuple_buf: Vec<(i64, RawTuple)>,
    pub(crate) tuples_seen: u64,
    pub(crate) tuples_out: u64,
    /// The due instant this query is currently scheduled under in the
    /// peer's due index (`i64::MAX` = unscheduled). Kept exactly in sync
    /// with the index so a reschedule can remove the stale entry in
    /// O(log n) — the index holds at most one entry per query.
    pub(crate) sched_due_us: i64,
}

impl QueryState {
    pub(crate) fn member(&self) -> Option<u32> {
        self.record.as_ref().map(|r| r.member)
    }

    pub(crate) fn active(&self) -> bool {
        self.record.is_some()
    }

    /// The TS-list timeout for a summary this peer creates locally,
    /// striped onto `tree`: it waits for the data this peer's
    /// descendants on that tree send up, so it comes from that tree's
    /// estimator — and a peer with no children there (a leaf on the
    /// tree) has nothing to wait for beyond [`MIN_TIMEOUT_US`].
    pub(crate) fn local_timeout_us(&self, tree: usize, age_us: i64) -> u64 {
        let has_children = self
            .record
            .as_ref()
            .is_some_and(|r| r.links.get(tree).is_some_and(|l| !l.children.is_empty()));
        if has_children {
            self.netdist[tree].timeout_us(age_us, MIN_TIMEOUT_US)
        } else {
            MIN_TIMEOUT_US
        }
    }

    /// The query's indexing frame at local time `now` (Section 5: syncless
    /// operators index relative to the query's issue instant).
    pub(crate) fn frame_now(&self, indexing: IndexingMode, local_now: i64) -> i64 {
        match indexing {
            IndexingMode::Syncless => local_now - self.t_ref_base_us,
            IndexingMode::Timestamp => local_now,
        }
    }
}

/// Long-lived per-tick scratch buffers, owned by the peer and threaded
/// through the tick stages so the steady-state tick performs no heap
/// allocation:
///
/// * `due_ids` — the tick's reused id worklist: the due-now prefix
///   drained from the due index, sorted by id;
/// * `live` — the tick's liveness snapshot as packed bitset words, built
///   in one pass over `last_heard` (replaces the per-query `Vec<bool>`
///   parent snapshot and `Vec<Vec<bool>>` child vectors, and collapses
///   repeated heartbeat-map probes into single bit tests);
/// * `outbox` — the tick's summary outbox: every eviction pass bins its
///   routed tuples there by (next hop, query, tree), and the end-of-tick
///   flush cuts them into frames and wire messages, so between ticks it
///   is empty and only its buffers are kept;
/// * `raw` — the one raw tuple every sensor emission (periodic value,
///   replay-trace tuple, subscription feed) is written into before it is
///   lifted, replacing a fresh `RawTuple` (and its field vector) per
///   tuple.
///
/// The scratch is moved out of the peer for the duration of a tick (the
/// stages take `&mut TickScratch` alongside `&mut self`), so ownership is
/// explicit and the borrow checker keeps stage code honest about what is
/// tick-scoped.
#[derive(Default)]
pub(crate) struct TickScratch {
    pub(crate) due_ids: Vec<QueryId>,
    pub(crate) live: mortar_overlay::NodeBitmap,
    pub(crate) outbox: route::Outbox,
    pub(crate) raw: RawTuple,
}

/// The Mortar peer application.
pub struct MortarPeer {
    /// This peer's identifier.
    pub id: NodeId,
    pub(crate) cfg: PeerConfig,
    pub(crate) registry: OpRegistry,
    /// Installed queries, keyed by interned id. A `BTreeMap` keeps every
    /// per-tick iteration deterministic (u32 ordering is free, unlike the
    /// string keys this runtime used to sort on). Each state is boxed, so
    /// a map node's eleven slots cost pointers, not eleven inline states,
    /// whatever number of them is installed.
    pub(crate) queries: BTreeMap<QueryId, Box<QueryState>>,
    /// Removal tombstones: interned id → removal sequence.
    pub(crate) removed: BTreeMap<QueryId, u64>,
    pub(crate) last_heard: HashMap<NodeId, i64>,
    pub(crate) hb_children: BTreeSet<NodeId>,
    pub(crate) hb_count: u64,
    pub(crate) next_hb_local_us: i64,
    /// Subscriber index: upstream query name → co-located queries whose
    /// sensor subscribes to it. Maintained at install/remove so each root
    /// emission is an O(1) lookup instead of a scan over every installed
    /// query's sensor spec. A `BTreeMap` so the install/remove maintenance
    /// (which iterates the index) is hash-seed independent.
    pub(crate) subscribers: BTreeMap<String, Vec<QueryId>>,
    /// The store hash (the reconciliation fingerprint piggybacked on
    /// heartbeats and data frames), kept current by
    /// [`MortarPeer::edit_store`]: each store change folds in the hashes
    /// of the entries it touched, so a read costs nothing.
    store_hash: u64,
    /// The due index: `(next_due_local_us, id)` per schedulable query,
    /// min-ordered so a tick pops exactly the queries whose slide
    /// boundary, sensor cadence, or TS-list deadline has arrived.
    /// Maintained at install/remove, after every per-query tick pass, and
    /// whenever an arriving frame or subscription feed could move a
    /// query's due instant earlier. Debug builds check it every tick
    /// against each skipped query's raw state.
    pub(crate) due: BTreeSet<(i64, QueryId)>,
    /// Per-tick scratch (id buffer, liveness bitmap, outbox): the
    /// steady-state tick reuses these buffers instead of allocating per
    /// query or per pass.
    pub(crate) scratch: TickScratch,
    /// Results recorded by the root operator: a bounded ring with stable
    /// sequence numbers (see [`ResultLog`]).
    pub results: ResultLog,
    /// Replay trace for `SensorSpec::Replay` queries, packed; each query
    /// keeps its own cursor into it (`QueryState::source`).
    pub(crate) replay: ReplayTrace,
    /// Counters.
    pub stats: PeerStats,
}

/// Timer tag for the peer's single periodic tick.
const TICK: u64 = 1;

/// The sequence a store entry hashes under: a tombstone's carries the top
/// bit, so an install and a removal at one sequence hash apart.
fn entry_seq(seq: u64, removed: bool) -> u64 {
    if removed {
        seq.wrapping_add(1 << 63)
    } else {
        seq
    }
}

impl MortarPeer {
    /// Creates a peer with the given configuration and operator registry.
    pub fn new(id: NodeId, cfg: PeerConfig, registry: OpRegistry) -> Self {
        assert!(cfg.summary_batch_max >= 1, "summary_batch_max must be at least 1");
        Self {
            id,
            cfg,
            registry,
            queries: BTreeMap::new(),
            removed: BTreeMap::new(),
            last_heard: HashMap::new(),
            hb_children: BTreeSet::new(),
            hb_count: 0,
            next_hb_local_us: i64::MIN,
            subscribers: BTreeMap::new(),
            due: BTreeSet::new(),
            scratch: TickScratch::default(),
            store_hash: 0,
            results: ResultLog::new(cfg.result_log_cap),
            replay: ReplayTrace::default(),
            stats: PeerStats::default(),
        }
    }

    /// Sets the replay trace used by `SensorSpec::Replay` queries.
    /// Offsets are query-frame µs, counted from the query's issue instant
    /// (not its activation here: tuples already past at activation arrive
    /// at its first pump), and the cursor is per query: every replay query
    /// ingests the whole trace in its own frame, so two replay queries on
    /// one peer both see every tuple and a query installed later starts at
    /// the trace's first tuple. A new trace restarts every installed replay
    /// query at its first tuple.
    /// The trace is packed into flat arrays (about 28 B per 1-field tuple).
    pub fn set_replay(&mut self, trace: Vec<(u64, RawTuple)>) {
        self.replay = ReplayTrace::pack(trace);
        for q in self.queries.values_mut() {
            if let SensorSpec::Replay = q.spec.sensor {
                q.source = Source::new(&q.spec.sensor, 0);
            }
        }
        // A new trace moves every replay query's next sensor emission.
        let ids: Vec<QueryId> = self.queries.keys().copied().collect();
        for id in ids {
            self.reschedule(id);
        }
    }

    /// The installed query of that name: a scan, as only callers that
    /// ask by name (the facade, diagnostics) look queries up this way.
    pub(crate) fn query_by_name(&self, name: &str) -> Option<&QueryState> {
        self.queries.values().find(|q| *q.name == *name).map(|q| &**q)
    }

    /// The interned id of the installed query of that name, if any.
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.query_by_name(name).map(|q| q.id)
    }

    /// Whether a query is installed (record may still be pending).
    pub fn has_query(&self, name: &str) -> bool {
        self.query_by_name(name).is_some()
    }

    /// Whether a query is installed *and* connected to the physical plan.
    pub fn is_active(&self, name: &str) -> bool {
        self.query_by_name(name).is_some_and(QueryState::active)
    }

    /// Current netDist estimate for a query (diagnostics): the largest
    /// estimate among the trees this peer has received data on, or the
    /// initial estimate while it has received none.
    pub fn netdist_us(&self, name: &str) -> Option<u64> {
        let q = self.query_by_name(name)?;
        let sampled = q.netdist.iter().filter(|nd| nd.has_samples());
        Some(sampled.map(NetDist::estimate_us).max().unwrap_or(NETDIST_INIT_US))
    }

    /// Intake accounting summed across this peer's feeds, plus whether
    /// every feed's conservation invariant holds and the bytes currently
    /// buffered in intake queues and spill rings.
    pub fn feed_totals(&self) -> (crate::feed::FeedStats, bool, u64) {
        let mut total = crate::feed::FeedStats::default();
        let mut conserved = true;
        let mut held = 0u64;
        for q in self.queries.values() {
            if let Some(f) = q.source.intake() {
                total.absorb(&f.stats);
                conserved &= f.conserved();
                held += f.held_bytes();
            }
        }
        (total, conserved, held)
    }

    /// Number of distinct children this peer heartbeats (Figure 13's
    /// scaling metric: heartbeats are shared across trees and queries).
    pub fn heartbeat_children(&self) -> usize {
        self.hb_children.len()
    }

    /// The peer's current store fingerprint: the hash of its installed
    /// and tombstone sets that reconciliation compares. Equal
    /// fingerprints across peers mean anti-entropy has converged — the
    /// observable the chaos property oracles assert on after a heal.
    pub fn store_fingerprint(&self) -> u64 {
        self.my_store_hash()
    }

    /// The store the fingerprint covers: one `(id, seq, removed)` entry
    /// per installed query (`removed = false`), then one per removal-cache
    /// tombstone (`removed = true`), each in id order.
    pub fn store_entries(&self) -> impl Iterator<Item = (QueryId, u64, bool)> + '_ {
        let installed = self.queries.values().map(|q| (q.id, q.seq, false));
        installed.chain(self.removed.iter().map(|(&id, &s)| (id, s, true)))
    }

    /// The store hash. Debug builds check it on every read against
    /// [`store_hash`] recomputed from [`Self::store_entries`].
    pub(crate) fn my_store_hash(&self) -> u64 {
        debug_assert_eq!(
            self.store_hash,
            store_hash(
                self.store_entries()
                    .map(|(id, s, removed)| (id.0.to_le_bytes(), entry_seq(s, removed)))
            ),
            "peer {}: the incremental store hash drifted from the store",
            self.id
        );
        self.store_hash
    }

    /// The store hash's share of what is held under `id`: its install and
    /// its tombstone.
    // lint:hot-path
    fn store_share(&self, id: QueryId) -> u64 {
        let key = id.0.to_le_bytes();
        let installed = self.queries.get(&id).map_or(0, |q| entry_hash(key, q.seq));
        let tombstone = self.removed.get(&id).map_or(0, |&s| entry_hash(key, entry_seq(s, true)));
        installed.wrapping_add(tombstone)
    }

    /// The one store-mutation seam: every change to the installed set, an
    /// install's sequence or the removal cache runs as an `edit` here.
    /// `edit` may change only what is held under `id`; the store hash
    /// subtracts that id's share before the edit and adds it back after
    /// it, so a change costs O(1) whatever the store holds.
    // lint:hot-path
    pub(crate) fn edit_store<R>(&mut self, id: QueryId, edit: impl FnOnce(&mut Self) -> R) -> R {
        let before = self.store_share(id);
        let out = edit(self);
        self.store_hash = self.store_hash.wrapping_sub(before).wrapping_add(self.store_share(id));
        out
    }

    /// How long a neighbour may stay silent before it is presumed down.
    fn liveness_horizon_us(&self) -> i64 {
        HB_PERIOD_US * HB_TIMEOUT_BEATS + self.cfg.tick_us as i64
    }

    /// Rebuilds the tick's liveness snapshot: one pass over `last_heard`
    /// sets a bit per recently heard neighbour. Liveness is stable within
    /// a tick (nothing the tick stages do mutates `last_heard`), so every
    /// routing decision this tick answers from the bitmap — a word index
    /// and a mask — instead of a map probe per (query × link).
    pub(crate) fn rebuild_liveness(&self, live: &mut mortar_overlay::NodeBitmap, now: i64) {
        live.clear();
        let horizon = self.liveness_horizon_us();
        // lint:order-insensitive(bitmap OR: each pass sets independent bits, so visit order cannot affect the resulting bitmap)
        for (&peer, &t) in &self.last_heard {
            if now - t <= horizon {
                live.set(peer);
            }
        }
    }

    /// The query's next due instant on this peer's local clock: the
    /// earliest of its sensor cadence, its next slide boundary, and its
    /// earliest TS-list eviction deadline (`i64::MAX` = nothing pending,
    /// leave unscheduled). A bucket census past the GC cap forces an
    /// immediate wake so the close-stage garbage collector runs on the
    /// next tick.
    fn next_due_of(&self, q: &QueryState) -> i64 {
        if !q.active() {
            return i64::MAX;
        }
        let mut due = i64::MAX;
        // A source that wants every tick (buffered intake, a channel)
        // stays due; otherwise wake at its next emission, mapped from
        // query frame to local time.
        match q.source.next_due_us(&q.spec.sensor, &self.replay, self.id) {
            i64::MIN => due = i64::MIN,
            i64::MAX => {}
            nd => due = due.min(q.t_ref_base_us.saturating_add(nd)),
        }
        if q.spec.window.kind == crate::window::WindowKind::Time {
            // Close fires once the indexing frame reaches the end of slide
            // `next_close_k`; map that frame instant back to local time.
            let slide = q.spec.window.slide as i64;
            let close_frame = q.next_close_k.saturating_add(1).saturating_mul(slide);
            let close_local = match self.cfg.indexing {
                IndexingMode::Syncless => q.t_ref_base_us.saturating_add(close_frame),
                IndexingMode::Timestamp => close_frame,
            };
            due = due.min(close_local);
            if q.buckets.len() > BUCKET_GC_CAP {
                due = i64::MIN;
            }
        }
        if let Some(d) = q.ts.next_deadline_us() {
            due = due.min(d);
        }
        due
    }

    /// Recomputes `id`'s due instant and moves its due-index entry, if the
    /// instant changed. Cheap to call defensively: an unchanged instant
    /// returns without touching the index, and an unknown id is a no-op.
    /// An entry that lands at or before the current instant mid-tick is
    /// swept on the next tick.
    pub(crate) fn reschedule(&mut self, id: QueryId) {
        let Some(q) = self.queries.get(&id) else { return };
        let new_due = self.next_due_of(q);
        let q = self.queries.get_mut(&id).expect("present above");
        if q.sched_due_us == new_due {
            return;
        }
        if q.sched_due_us != i64::MAX {
            self.due.remove(&(q.sched_due_us, id));
        }
        q.sched_due_us = new_due;
        if new_due != i64::MAX {
            self.due.insert((new_due, id));
        }
    }

    /// Drops `id`'s due-index entry (query removal / state replacement).
    pub(crate) fn unschedule(&mut self, id: QueryId) {
        if let Some(q) = self.queries.get_mut(&id) {
            if q.sched_due_us != i64::MAX {
                self.due.remove(&(q.sched_due_us, id));
                q.sched_due_us = i64::MAX;
            }
        }
    }

    /// The due index's oracle, run in debug builds at the start of each
    /// tick's sweep: every active query the index did not wake (`woken`,
    /// sorted by id) must have nothing due at `now`. It reads each query's
    /// state and never `next_due_of`, so a due instant that function
    /// omits, or a state change that skipped `reschedule`, fails on the
    /// first tick that leaves the work undone.
    #[cfg(debug_assertions)]
    fn check_skipped_queries_idle(&self, woken: &[QueryId], now: i64) {
        for (&id, q) in &self.queries {
            if !q.active() || woken.binary_search(&id).is_ok() {
                continue;
            }
            let sensor_due = q.source.next_due_us(&q.spec.sensor, &self.replay, self.id)
                <= now - q.t_ref_base_us;
            let slide = q.spec.window.slide as i64;
            let close_due = q.spec.window.kind == crate::window::WindowKind::Time
                && q.next_close_k < q.frame_now(self.cfg.indexing, now).div_euclid(slide);
            let due = [
                (q.ts.entries().any(|e| e.deadline_us <= now), "a TS entry"),
                (sensor_due, "its sensor"),
                (close_due, "a window close"),
                (q.buckets.len() > BUCKET_GC_CAP, "a bucket GC"),
            ];
            if let Some((_, what)) = due.iter().find(|&&(d, _)| d) {
                panic!("peer {} skipped query {} at local {now} with {what} due", self.id, q.name);
            }
        }
    }

    pub(crate) fn rebuild_hb_children(&mut self) {
        self.hb_children.clear();
        for q in self.queries.values() {
            if let Some(rec) = &q.record {
                for link in &rec.links {
                    self.hb_children.extend(link.children.iter().copied());
                }
            }
        }
        self.hb_children.remove(&self.id);
    }
}

impl App for MortarPeer {
    type Msg = MortarMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, MortarMsg>) {
        self.next_hb_local_us = ctx.local_now_us() + HB_PERIOD_US;
        ctx.set_timer_local_us(self.cfg.tick_us, TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, MortarMsg>, from: NodeId, msg: MortarMsg, _b: u32) {
        if from != self.id {
            self.last_heard.insert(from, ctx.local_now_us());
        }
        match msg {
            MortarMsg::SummaryBatch(frame) => {
                self.handle_summary_frame(ctx, from, frame);
            }
            MortarMsg::Envelope { frames } => {
                self.handle_envelope(ctx, from, frames);
            }
            MortarMsg::Heartbeat { store_hash } => {
                self.handle_heartbeat(ctx, from, store_hash);
            }
            MortarMsg::ReconcileDigest { installed, removed } => {
                self.handle_reconcile_digest(ctx, from, installed, removed);
            }
            MortarMsg::ReconcilePlan { push, want, removed } => {
                self.handle_reconcile_plan(ctx, from, push, want, removed);
            }
            MortarMsg::ReconcileTransfer { entries } => {
                self.handle_reconcile_transfer(ctx, entries);
            }
            MortarMsg::Install { spec, id, seq, records, issue_age_us } => {
                self.handle_install(ctx, spec, id, seq, records, issue_age_us);
            }
            MortarMsg::Remove { id, seq } => {
                self.handle_remove(ctx, id, seq);
            }
            MortarMsg::TopoRequest { id } => {
                self.handle_topo_request(ctx, from, id);
            }
            MortarMsg::TopoReply { id, seq, spec, record, issue_age_us } => {
                self.handle_topo_reply(ctx, id, seq, spec, record, issue_age_us);
            }
        }
    }

    // lint:hot-path
    fn on_timer(&mut self, ctx: &mut Ctx<'_, MortarMsg>, tag: u64) {
        if tag != TICK {
            return;
        }
        let local_now = ctx.local_now_us();
        self.stats.ticks += 1;
        // The scratch moves out of the peer for the tick so the stages can
        // borrow it alongside `&mut self`; its buffers live across ticks.
        let mut scratch = std::mem::take(&mut self.scratch);
        // Drain the due-now prefix of the (due, id)-ordered index into the
        // reused worklist (an idle tick peeks one entry and stops) and
        // sweep it in ascending id order. A query that becomes due during
        // the sweep — a subscriber fed past the bucket GC cap, or handed a
        // TS entry that is already due — waits in the index for the next
        // tick.
        scratch.due_ids.clear();
        while let Some(&(due, id)) = self.due.first() {
            if due > local_now {
                break;
            }
            self.due.pop_first();
            if let Some(q) = self.queries.get_mut(&id) {
                q.sched_due_us = i64::MAX;
            }
            scratch.due_ids.push(id);
        }
        scratch.due_ids.sort_unstable();
        #[cfg(debug_assertions)]
        self.check_skipped_queries_idle(&scratch.due_ids, local_now);
        if scratch.due_ids.is_empty() {
            self.stats.idle_ticks += 1;
        } else {
            self.stats.query_wakeups += scratch.due_ids.len() as u64;
            self.rebuild_liveness(&mut scratch.live, local_now);
        }
        for i in 0..scratch.due_ids.len() {
            let id = scratch.due_ids[i];
            self.pump(id, ctx, &mut scratch.raw);
            self.close_windows(id, local_now);
            self.evict_and_route(id, ctx, &mut scratch);
            self.reschedule(id);
        }
        // The one send stage: everything the tick's eviction passes owe
        // leaves now, cut into frames and messages per next hop, so the
        // outbox is empty between ticks.
        scratch.outbox.flush(self.cfg.envelope_budget, &mut self.stats, ctx);
        self.scratch = scratch;
        if local_now >= self.next_hb_local_us {
            self.next_hb_local_us += HB_PERIOD_US;
            self.send_heartbeats(ctx);
        }
        ctx.set_timer_local_us(self.cfg.tick_us, TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::SummaryFrame;
    use crate::op::OpKind;
    use crate::query::{build_records, SensorSpec};
    use crate::tuple::SummaryTuple;
    use crate::window::WindowSpec;
    use mortar_net::{SimBuilder, Topology};
    use mortar_overlay::{Tree, TreeSet};

    fn count_spec(n: usize) -> QuerySpec {
        QuerySpec {
            name: "count".into(),
            root: 0,
            members: (0..n as NodeId).collect(),
            op: OpKind::Sum { field: 0 },
            window: WindowSpec::time_tumbling_us(1_000_000),
            filter: None,
            sensor: SensorSpec::Periodic { period_us: 1_000_000, value: 1.0 },
            post: None,
        }
    }

    /// Builds a chain tree set over n members (two chains, reversed).
    fn chain_trees(n: usize) -> TreeSet {
        let t0 = Tree::from_parents(
            0,
            (0..n).map(|m| if m == 0 { None } else { Some(m - 1) }).collect(),
        );
        // Second tree: a star (everyone under the root).
        let t1 =
            Tree::from_parents(0, (0..n).map(|m| if m == 0 { None } else { Some(0) }).collect());
        TreeSet::new(vec![t0, t1])
    }

    fn build_sim(n: usize) -> mortar_net::Simulator<MortarPeer> {
        let topo = Topology::star(n, 1_000);
        let cfg = PeerConfig::default();
        let reg = OpRegistry::new();
        SimBuilder::new(topo, 42).build(move |id| MortarPeer::new(id, cfg, reg.clone()))
    }

    fn inject_install(
        sim: &mut mortar_net::Simulator<MortarPeer>,
        spec: QuerySpec,
        trees: TreeSet,
    ) {
        let records = build_records(&spec.members, &trees);
        let root = spec.root;
        let msg = MortarMsg::Install {
            spec: Arc::new(spec),
            id: QueryId(1),
            seq: 1,
            records,
            issue_age_us: 0,
        };
        sim.inject(root, root, msg, 256);
    }

    #[test]
    fn bucket_gc_keeps_the_newest_windows_in_order() {
        let mut b = Buckets::default();
        for k in [7, 3, 5, 1, 9] {
            b.open_mut(k);
        }
        b.truncate_oldest(3);
        assert_eq!(b.open.iter().map(|&(k, _)| k).collect::<Vec<_>>(), [5, 7, 9]);
        assert!(b.close(3).is_none(), "window 3 was collected");
        assert!(b.close(7).is_some());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn install_reaches_all_members() {
        let n = 8;
        let mut sim = build_sim(n);
        inject_install(&mut sim, count_spec(n), chain_trees(n));
        sim.run_for_secs(3.0);
        for id in 0..n as NodeId {
            assert!(sim.app(id).is_active("count"), "peer {id} not installed");
            assert_eq!(sim.app(id).query_id("count"), Some(QueryId(1)));
        }
    }

    #[test]
    fn sum_query_reaches_full_completeness() {
        let n = 8;
        let mut sim = build_sim(n);
        inject_install(&mut sim, count_spec(n), chain_trees(n));
        sim.run_for_secs(40.0);
        let results = &sim.app(0).results;
        assert!(!results.is_empty(), "root produced no results");
        // Steady-state windows should reflect all 8 peers.
        let tail: Vec<&crate::metrics::ResultRecord> =
            results.iter().filter(|r| r.participants as usize == n).collect();
        assert!(
            tail.len() > 10,
            "expected many complete windows, got {} of {}",
            tail.len(),
            results.len()
        );
        let full: Vec<f64> = tail.iter().filter_map(|r| r.scalar).collect();
        assert!(
            full.iter().any(|&v| (v - n as f64).abs() < 1e-9),
            "no window summed to {n}: {full:?}"
        );
    }

    /// One summary message delivered: its true arrival instant, sender,
    /// next hop and frames.
    type Wire = (u64, NodeId, NodeId, Vec<SummaryFrame>);

    /// A peer that appends every summary message it receives to a log the
    /// whole fleet shares. Events of one instant run in send order, so on
    /// a star (every message takes one latency) the log holds each tick's
    /// messages from one sender in the order it sent them.
    struct WireLog {
        peer: MortarPeer,
        log: Arc<std::sync::Mutex<Vec<Wire>>>,
    }

    impl App for WireLog {
        type Msg = MortarMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, MortarMsg>) {
            self.peer.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, MortarMsg>, from: NodeId, m: MortarMsg, b: u32) {
            let frames = match &m {
                MortarMsg::SummaryBatch(f) => vec![f.clone()],
                MortarMsg::Envelope { frames } => frames.clone(),
                _ => Vec::new(),
            };
            if !frames.is_empty() {
                let mut log = self.log.lock().expect("no logging peer panicked");
                log.push((ctx.true_now_us(), from, ctx.id(), frames));
            }
            self.peer.on_message(ctx, from, m, b);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, MortarMsg>, tag: u64) {
            self.peer.on_timer(ctx, tag);
        }
    }

    /// Installs `specs` as queries 1, 2, … on `trees` over a star of `n`
    /// logging peers, runs it for `secs`, and returns the fleet's log.
    fn logged_run(
        n: usize,
        cfg: PeerConfig,
        specs: Vec<QuerySpec>,
        trees: &TreeSet,
        secs: f64,
    ) -> Vec<Wire> {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let shared = log.clone();
        let mut sim = SimBuilder::new(Topology::star(n, 1_000), 42).build(move |id| WireLog {
            peer: MortarPeer::new(id, cfg, OpRegistry::new()),
            log: shared.clone(),
        });
        for (i, spec) in specs.into_iter().enumerate() {
            let records = build_records(&spec.members, trees);
            let install = MortarMsg::Install {
                spec: Arc::new(spec),
                id: QueryId(i as u32 + 1),
                seq: i as u64 + 1,
                records,
                issue_age_us: 0,
            };
            sim.inject(0, 0, install, 256);
        }
        sim.run_for_secs(secs);
        let log = std::mem::take(&mut *log.lock().expect("the run is over"));
        log
    }

    /// Four trees over six peers: on tree t peer 5 is a leaf under peer
    /// 1 + t, so windows striped onto different trees need a message per
    /// parent. Runs `spec` for 12 s and returns, per tick of the leaf's
    /// data from 4 s on, how many messages it sent and their tuples.
    fn leaf_ticks(spec: QuerySpec) -> Vec<(usize, Vec<(u8, i64)>)> {
        let (n, width, leaf) = (6, 4, 5);
        let trees = TreeSet::new(
            (0..width)
                .map(|t| {
                    let hub = 1 + t;
                    let parents = (0..n)
                        .map(|m| match m {
                            0 => None,
                            m if m == hub => Some(0),
                            _ => Some(hub),
                        })
                        .collect();
                    Tree::from_parents(0, parents)
                })
                .collect(),
        );
        let cfg = PeerConfig::default();
        let log = logged_run(n, cfg, vec![spec], &trees, 12.0);
        // Every link is equally long, so the leaf's messages of one tick
        // land together and ticks land 200 ms apart: cluster by gaps.
        let from_leaf = log.iter().filter(|g| g.1 == leaf as NodeId && g.0 >= 4_000_000);
        let mut ticks: Vec<(usize, Vec<(u8, i64)>)> = Vec::new();
        let mut last = 0;
        for (at, _, _, frames) in from_leaf {
            if ticks.is_empty() || at - last > cfg.tick_us / 2 {
                ticks.push((0, Vec::new()));
            }
            last = *at;
            let tick = ticks.last_mut().expect("pushed");
            tick.0 += 1;
            tick.1.extend(frames.iter().flat_map(|f| f.tuples.iter().map(|t| (f.tree, t.tb))));
        }
        assert!(ticks.len() >= 30, "only {} ticks of data from the leaf", ticks.len());
        ticks
    }

    /// Asserts each tick's data left the leaf in one message on one tree,
    /// and that the leaf visited every one of the four trees in any four
    /// ticks in a row.
    fn assert_one_tree_per_tick(ticks: &[(usize, Vec<(u8, i64)>)]) {
        let mut trees_seen = Vec::new();
        for (i, (msgs, tuples)) in ticks.iter().enumerate() {
            assert_eq!(*msgs, 1, "tick {i}: the leaf sent {msgs} data messages");
            let tree = tuples[0].0;
            assert!(tuples.iter().all(|t| t.0 == tree), "tick {i} split over trees: {tuples:?}");
            trees_seen.push(tree);
        }
        for run in trees_seen.windows(4) {
            let mut run = run.to_vec();
            run.sort_unstable();
            assert_eq!(run, [0, 1, 2, 3], "four ticks in a row missed a tree: {trees_seen:?}");
        }
    }

    #[test]
    fn a_tick_s_windows_ride_one_stripe_tree() {
        // A 25 ms slide on the 200 ms tick closes eight windows a tick:
        // all eight must ride one tree, in one message, and the leaf must
        // visit every tree over four ticks.
        let spec = QuerySpec {
            window: WindowSpec::time_tumbling_us(25_000),
            sensor: SensorSpec::Periodic { period_us: 25_000, value: 1.0 },
            ..count_spec(6)
        };
        let ticks = leaf_ticks(spec);
        for (i, (_, tuples)) in ticks.iter().enumerate() {
            assert_eq!(tuples.len(), 8, "tick {i}: {} windows, expected 8", tuples.len());
        }
        assert_one_tree_per_tick(&ticks);
    }

    #[test]
    fn a_tick_s_tuple_windows_ride_one_stripe_tree() {
        // A one-tuple window fed every 50 ms emits four windows a tick.
        // Like a tick's time windows they ride one tree, and the stripe
        // advances once per tick: advancing it per window would move it
        // four trees a tick, which on four trees parks the leaf on one.
        let spec = QuerySpec {
            window: WindowSpec::tuples(1, 1),
            sensor: SensorSpec::Periodic { period_us: 50_000, value: 1.0 },
            ..count_spec(6)
        };
        assert_one_tree_per_tick(&leaf_ticks(spec));
    }

    #[test]
    fn removal_propagates() {
        let n = 8;
        let mut sim = build_sim(n);
        inject_install(&mut sim, count_spec(n), chain_trees(n));
        sim.run_for_secs(5.0);
        sim.inject(0, 0, MortarMsg::Remove { id: QueryId(1), seq: 2 }, 32);
        sim.run_for_secs(10.0);
        for id in 0..n as NodeId {
            assert!(!sim.app(id).has_query("count"), "peer {id} still has the query");
        }
    }

    #[test]
    fn a_root_holds_each_plan_only_while_its_query_lives() {
        // The root keeps a query's whole plan for its topology service;
        // removing the query must drop it, so 50 install/remove rounds
        // leave no plan records behind.
        let n = 8;
        let mut sim = build_sim(n);
        let plan_records = |p: &MortarPeer| p.queries.values().map(|q| q.plan.len()).sum::<usize>();
        for i in 0..50u32 {
            let spec = QuerySpec { name: format!("q{i}"), ..count_spec(n) };
            let records = build_records(&spec.members, &chain_trees(n));
            let (id, seq) = (QueryId(i + 1), 2 * u64::from(i) + 1);
            let install =
                MortarMsg::Install { spec: Arc::new(spec), id, seq, records, issue_age_us: 0 };
            sim.inject(0, 0, install, 256);
            sim.run_for_secs(0.5);
            assert_eq!(plan_records(sim.app(0)), n, "round {i}: the root lost the live plan");
            sim.inject(0, 0, MortarMsg::Remove { id, seq: seq + 1 }, 32);
            sim.run_for_secs(0.5);
        }
        assert!(sim.app(0).queries.is_empty());
        assert_eq!(plan_records(sim.app(0)), 0);
    }

    #[test]
    fn reconciliation_installs_missed_nodes() {
        let n = 8;
        let mut sim = build_sim(n);
        // Disconnect node 5 before install.
        sim.set_host_up(5, false);
        inject_install(&mut sim, count_spec(n), chain_trees(n));
        sim.run_for_secs(5.0);
        assert!(!sim.app(5).has_query("count"));
        sim.set_host_up(5, true);
        // Reconciliation every 3rd heartbeat (6 s) + topology fetch.
        sim.run_for_secs(20.0);
        assert!(sim.app(5).is_active("count"), "reconciliation failed to install");
        // The interned handle propagated with the reconciled install.
        assert_eq!(sim.app(5).query_id("count"), Some(QueryId(1)));
    }

    /// A peer that records who sent it a topology request, and counts the
    /// installs and removals it receives.
    struct ControlLog {
        peer: MortarPeer,
        requests_from: Vec<NodeId>,
        installs: usize,
        removes: usize,
    }

    impl ControlLog {
        fn new(id: NodeId) -> Self {
            let peer = MortarPeer::new(id, PeerConfig::default(), OpRegistry::new());
            Self { peer, requests_from: Vec::new(), installs: 0, removes: 0 }
        }
    }

    impl App for ControlLog {
        type Msg = MortarMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, MortarMsg>) {
            self.peer.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, MortarMsg>, from: NodeId, m: MortarMsg, b: u32) {
            match m {
                MortarMsg::TopoRequest { .. } => self.requests_from.push(from),
                MortarMsg::Install { .. } => self.installs += 1,
                MortarMsg::Remove { .. } => self.removes += 1,
                _ => {}
            }
            self.peer.on_message(ctx, from, m, b);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, MortarMsg>, tag: u64) {
            self.peer.on_timer(ctx, tag);
        }
    }

    #[test]
    fn only_members_fetch_a_reconciled_install_plan() {
        // "wide" spans all 8 peers, so every peer reconciles with its tree
        // neighbours; "narrow" spans peers 0-3 and reaches peers 4-7 only
        // through reconciliation. The root answers members only, so only
        // members may ask it for their plan record.
        let n = 8;
        let mut sim = SimBuilder::new(Topology::star(n, 1_000), 42).build(ControlLog::new);
        let wide = count_spec(n);
        let narrow =
            QuerySpec { name: "narrow".into(), members: (0..4).collect(), ..count_spec(4) };
        for (i, (spec, trees)) in
            [(wide, chain_trees(n)), (narrow, chain_trees(4))].into_iter().enumerate()
        {
            let records = build_records(&spec.members, &trees);
            let id = QueryId(i as u32 + 1);
            let msg =
                MortarMsg::Install { spec: Arc::new(spec), id, seq: 1, records, issue_age_us: 0 };
            sim.inject(0, 0, msg, 256);
        }
        sim.run_for_secs(30.0);
        for p in 4..n as NodeId {
            assert!(sim.app(p).peer.has_query("narrow"), "peer {p} never reconciled narrow");
        }
        let from = &sim.app(0).requests_from;
        assert!(from.iter().all(|&p| p < 4), "non-members fetched a plan record: {from:?}");
    }

    #[test]
    fn a_stale_removal_tears_nothing_down_and_is_not_forwarded() {
        // Every peer holds `count` at seq 5; a removal at seq 3 loses to
        // it, so the root must not pass it down the tree.
        let n = 8;
        let mut sim = SimBuilder::new(Topology::star(n, 1_000), 42).build(ControlLog::new);
        let spec = count_spec(n);
        let records = build_records(&spec.members, &chain_trees(n));
        let (spec, id) = (Arc::new(spec), QueryId(1));
        sim.inject(0, 0, MortarMsg::Install { spec, id, seq: 5, records, issue_age_us: 0 }, 256);
        sim.run_for_secs(1.0);
        sim.inject(0, 0, MortarMsg::Remove { id, seq: 3 }, 32);
        sim.run_for_secs(1.0);
        for p in 0..n as NodeId {
            assert!(sim.app(p).peer.is_active("count"), "peer {p} lost the query");
        }
        let removes: usize = (0..n as NodeId).map(|p| sim.app(p).removes).sum();
        assert_eq!(removes, 1, "the injected removal was forwarded");
    }

    #[test]
    fn a_stale_install_at_the_root_keeps_its_plan_and_is_not_multicast() {
        // The root holds `count` at seq 5 over the two-tree chain set; an
        // install at seq 3 over a one-tree star loses to it, so the root
        // must neither multicast the stale plan nor keep it for its
        // topology service.
        let n = 4;
        let mut sim = SimBuilder::new(Topology::star(n, 1_000), 42).build(ControlLog::new);
        let (spec, id) = (Arc::new(count_spec(n)), QueryId(1));
        let records = build_records(&spec.members, &chain_trees(n));
        let install =
            MortarMsg::Install { spec: spec.clone(), id, seq: 5, records, issue_age_us: 0 };
        sim.inject(0, 0, install, 256);
        sim.run_for_secs(1.0);
        let plan = sim.app(0).peer.queries[&id].plan.clone();
        let installs = |sim: &mortar_net::Simulator<ControlLog>| {
            (0..n as NodeId).map(|p| sim.app(p).installs).sum::<usize>()
        };
        let before = installs(&sim);
        let star = TreeSet::new(vec![chain_trees(n).tree(1).clone()]);
        let records = build_records(&spec.members, &star);
        sim.inject(0, 0, MortarMsg::Install { spec, id, seq: 3, records, issue_age_us: 0 }, 256);
        sim.run_for_secs(1.0);
        let q = &sim.app(0).peer.queries[&id];
        assert_eq!(q.seq, 5);
        assert!(q.plan == plan, "the seq-3 plan replaced the root's seq-5 plan");
        assert_eq!(installs(&sim) - before, 1, "the stale install was multicast");
    }

    /// A 4-peer sim whose peer 2 holds `count` pending at seq 5: learned
    /// by reconciliation, so without its plan record (the root holds no
    /// plan, so the record fetch goes unanswered).
    fn pending_at_seq_5() -> mortar_net::Simulator<MortarPeer> {
        let mut sim = build_sim(4);
        let entry = (Arc::new(count_spec(4)), QueryId(1), 5, 0);
        let transfer = MortarMsg::ReconcileTransfer { entries: vec![entry] };
        sim.inject(2, 1, transfer, 64);
        sim.run_for_secs(0.1);
        assert!(sim.app(2).has_query("count") && !sim.app(2).is_active("count"));
        sim
    }

    #[test]
    fn a_stale_install_chunk_does_not_rewind_a_pending_install() {
        let mut sim = pending_at_seq_5();
        let records = build_records(&(0..4).collect::<Vec<_>>(), &chain_trees(4));
        let spec = Arc::new(count_spec(4));
        let install = MortarMsg::Install { spec, id: QueryId(1), seq: 3, records, issue_age_us: 0 };
        sim.inject(2, 1, install, 256);
        sim.run_for_secs(0.1);
        let peer = sim.app(2);
        assert_eq!(peer.store_entries().collect::<Vec<_>>(), [(QueryId(1), 5, false)]);
        assert!(!peer.is_active("count"), "the seq-3 plan connected a seq-5 install");
    }

    #[test]
    fn a_topology_reply_for_a_newer_incarnation_replaces_pending_state() {
        let mut sim = pending_at_seq_5();
        let records = build_records(&(0..4).collect::<Vec<_>>(), &chain_trees(4));
        let mut spec = count_spec(4);
        spec.window = WindowSpec::time_tumbling_us(2_000_000);
        let reply = MortarMsg::TopoReply {
            id: QueryId(1),
            seq: 7,
            spec: Arc::new(spec),
            record: records[2].clone(),
            issue_age_us: 0,
        };
        sim.inject(2, 0, reply, 256);
        sim.run_for_secs(0.1);
        let q = &sim.app(2).queries[&QueryId(1)];
        assert!(q.active());
        assert_eq!((q.seq, q.spec.window.slide), (7, 2_000_000));
    }

    #[test]
    fn a_newer_removal_is_cached_whichever_message_carries_it() {
        // A plan's tombstone is cached for a query this peer never saw; a
        // newer multicast removal then replaces it, and a digest's newer
        // tombstone replaces that.
        let mut sim = build_sim(4);
        let tombstones = |sim: &mortar_net::Simulator<MortarPeer>| {
            sim.app(2).store_entries().collect::<Vec<_>>()
        };
        let plan =
            MortarMsg::ReconcilePlan { push: vec![], want: vec![], removed: vec![(QueryId(1), 2)] };
        sim.inject(2, 1, plan, 64);
        sim.run_for_secs(0.1);
        assert_eq!(tombstones(&sim), [(QueryId(1), 2, true)]);
        sim.inject(2, 1, MortarMsg::Remove { id: QueryId(1), seq: 4 }, 32);
        sim.run_for_secs(0.1);
        assert_eq!(tombstones(&sim), [(QueryId(1), 4, true)]);
        let digest =
            MortarMsg::ReconcileDigest { installed: vec![], removed: vec![(QueryId(1), 6)] };
        sim.inject(2, 1, digest, 64);
        sim.run_for_secs(0.1);
        assert_eq!(tombstones(&sim), [(QueryId(1), 6, true)]);
    }

    #[test]
    fn a_digest_tombstone_for_an_unknown_query_is_adopted_at_once() {
        // Peer 2 never saw query 1. A digest from peer 1 carries its
        // tombstone, and peer 1 is down, so nothing it could send back
        // would arrive: peer 2 must take the tombstone from the digest.
        let mut sim = build_sim(4);
        sim.set_host_up(1, false);
        let digest =
            MortarMsg::ReconcileDigest { installed: vec![], removed: vec![(QueryId(1), 2)] };
        sim.inject(2, 1, digest, 64);
        sim.run_for_secs(0.1);
        assert_eq!(sim.app(2).store_entries().collect::<Vec<_>>(), [(QueryId(1), 2, true)]);
    }

    #[test]
    fn a_removal_for_an_unknown_query_is_not_cached() {
        // A multicast removal of a query this peer neither holds nor has a
        // tombstone for (its install never reached the root) tombstones
        // nothing and goes no further.
        let n = 4;
        let mut sim = SimBuilder::new(Topology::star(n, 1_000), 42).build(ControlLog::new);
        sim.inject(0, 0, MortarMsg::Remove { id: QueryId(1), seq: 2 }, 32);
        sim.run_for_secs(1.0);
        for p in 0..n as NodeId {
            assert_eq!(sim.app(p).peer.store_entries().count(), 0, "peer {p} cached a tombstone");
        }
        assert_eq!((0..n as NodeId).map(|p| sim.app(p).removes).sum::<usize>(), 1);
    }

    #[test]
    fn query_composition_via_subscribe() {
        // A sum query over 8 peers feeds a single-member max query at the
        // root: the composed query reports the largest windowed sum.
        let n = 8;
        let mut sim = build_sim(n);
        inject_install(&mut sim, count_spec(n), chain_trees(n));
        // The downstream query lives entirely on peer 0 and subscribes to
        // the upstream's output stream.
        let sub = QuerySpec {
            name: "peak".into(),
            root: 0,
            members: vec![0],
            op: OpKind::Max { field: 0 },
            window: WindowSpec::time_tumbling_us(5_000_000),
            filter: None,
            sensor: SensorSpec::Subscribe { queries: vec!["count".into()] },
            post: None,
        };
        let trees = TreeSet::new(vec![Tree::from_parents(0, vec![None])]);
        let records = build_records(&sub.members, &trees);
        sim.inject(
            0,
            0,
            MortarMsg::Install {
                spec: Arc::new(sub),
                id: QueryId(2),
                seq: 2,
                records,
                issue_age_us: 0,
            },
            128,
        );
        sim.run_for_secs(40.0);
        let peaks: Vec<f64> = sim
            .app(0)
            .results
            .iter()
            .filter(|r| &*r.query == "peak")
            .filter_map(|r| r.scalar)
            .collect();
        assert!(!peaks.is_empty(), "composed query produced no results");
        assert!(
            peaks.iter().any(|&v| (v - n as f64).abs() < 1e-9),
            "peak of windowed sums should reach {n}: {peaks:?}"
        );
    }

    #[test]
    fn packed_replay_ingests_the_original_sequence_in_28_bytes_per_tuple() {
        // Mixed arity (0, 1 and 3 fields) round-trips through the packed
        // store and the replay pump: a one-peer union query collects every
        // ingested row, which must be exactly the trace in order.
        let trace: Vec<(u64, RawTuple)> = (0..30u64)
            .map(|i| {
                let vals = match i % 3 {
                    0 => vec![],
                    1 => vec![i as f64],
                    _ => vec![i as f64, -(i as f64), 0.5],
                };
                (100_000 + i * 100_000, RawTuple { key: 1_000 + i, vals })
            })
            .collect();
        let mut sim = build_sim(1);
        sim.app_mut(0).set_replay(trace.clone());
        let spec = QuerySpec {
            name: "rows".into(),
            root: 0,
            members: vec![0],
            op: OpKind::Union { cap: 1_000 },
            window: WindowSpec::time_tumbling_us(1_000_000),
            filter: None,
            sensor: SensorSpec::Replay,
            post: None,
        };
        inject_install(&mut sim, spec, TreeSet::new(vec![Tree::from_parents(0, vec![None])]));
        sim.run_for_secs(10.0);
        let ingested: Vec<(u64, Vec<f64>)> = sim
            .app(0)
            .results
            .iter()
            .flat_map(|r| match &r.state {
                AggState::Rows { rows, .. } => rows.clone(),
                _ => Vec::new(),
            })
            .map(|row| (row.key, row.vals))
            .collect();
        let want: Vec<(u64, Vec<f64>)> = trace.into_iter().map(|(_, t)| (t.key, t.vals)).collect();
        assert_eq!(ingested, want);

        // A 1-field trace's footprint is the four arrays' capacities:
        // 8 (offset) + 8 (key) + 4 (field start) + 8 (field) bytes a tuple.
        let n = 10_000u64;
        let mut peer = MortarPeer::new(0, PeerConfig::default(), OpRegistry::new());
        peer.set_replay(
            (0..n).map(|i| (i * 25_000, RawTuple { key: i % 64, vals: vec![1.0] })).collect(),
        );
        let bytes = peer.replay.heap_bytes();
        assert!(bytes <= 28 * n as usize + 64, "{bytes} B for {n} tuples");
    }

    #[test]
    fn distinct_count_query_end_to_end() {
        // Each peer replays tuples with overlapping key sets; the HLL union
        // at the root estimates the number of distinct keys fleet-wide.
        let n = 8;
        let mut sim = build_sim(n);
        let spec = QuerySpec {
            name: "uniq".into(),
            root: 0,
            members: (0..n as NodeId).collect(),
            op: OpKind::Distinct,
            window: WindowSpec::time_tumbling_us(2_000_000),
            filter: None,
            sensor: SensorSpec::Replay,
            post: None,
        };
        // Peer i contributes keys [i*50, i*50 + 100): adjacent peers share
        // half their keys, so the fleet-wide distinct count is 450.
        for i in 0..n as NodeId {
            let trace: Vec<(u64, crate::tuple::RawTuple)> = (0..100u64)
                .map(|k| {
                    (k * 150_000, crate::tuple::RawTuple { key: i as u64 * 50 + k, vals: vec![] })
                })
                .collect();
            sim.app_mut(i).set_replay(trace);
        }
        inject_install(&mut sim, spec, chain_trees(n));
        sim.run_for_secs(30.0);
        let ests: Vec<f64> = sim
            .app(0)
            .results
            .iter()
            .filter(|r| r.participants as usize == n)
            .filter_map(|r| r.scalar)
            .collect();
        assert!(!ests.is_empty(), "no complete distinct-count windows");
        // Windows where every peer reported ~13 keys each with 50% overlap.
        let best = ests.iter().copied().fold(0.0f64, f64::max);
        assert!(best > 40.0 && best < 200.0, "distinct estimate off: {best}");
    }

    #[test]
    fn failure_detection_reroutes_data() {
        let n = 8;
        let mut sim = build_sim(n);
        inject_install(&mut sim, count_spec(n), chain_trees(n));
        sim.run_for_secs(20.0);
        // Disconnect member 1 — on the chain tree this severs 2..7, but the
        // star tree gives every member a direct path to the root.
        sim.set_host_up(1, false);
        sim.run_for_secs(30.0);
        let results = &sim.app(0).results;
        // Late windows should still count 7 participants (all but node 1):
        // aggregate per index since late partials arrive as separate
        // emissions (disjoint by time-division).
        let by_index = crate::metrics::participants_by_index(results.records());
        let late: Vec<u32> = by_index.values().rev().take(8).copied().collect();
        assert!(
            late.iter().filter(|&&p| p >= (n - 1) as u32).count() >= 3,
            "rerouting failed; late per-index participants: {late:?}"
        );
    }

    #[test]
    fn malformed_summary_intervals_are_counted_drops() {
        // Timestamp indexing and tuple windows merge a summary under the
        // interval it carried on the wire, so an empty or an inverted one
        // must be dropped and counted, not reach the TS list.
        let n = 4;
        let mut tuple_windows = count_spec(n);
        tuple_windows.window = WindowSpec::tuples(2, 2);
        for (indexing, spec) in
            [(IndexingMode::Timestamp, count_spec(n)), (IndexingMode::Syncless, tuple_windows)]
        {
            let cfg = PeerConfig { indexing, ..PeerConfig::default() };
            let reg = OpRegistry::new();
            let mut sim = SimBuilder::new(Topology::star(n, 1_000), 42)
                .build(move |id| MortarPeer::new(id, cfg, reg.clone()));
            inject_install(&mut sim, spec, chain_trees(n));
            sim.run_for_secs(3.0);
            let route = sim.app(1).queries[&QueryId(1)].route_template;
            let mut good = SummaryTuple::boundary(0, 0, route);
            (good.tb, good.te) = (sim.now() as i64 - 1_000_000, sim.now() as i64);
            let (mut empty, mut inverted) = (good.clone(), good.clone());
            empty.te = empty.tb;
            (inverted.tb, inverted.te) = (good.te, good.tb);
            let before = sim.app(0).stats;
            let frame = SummaryFrame {
                query: QueryId(1),
                tree: 0,
                hold_age_us: 0,
                tuples: vec![empty, good, inverted].into(),
                store_hash: None,
            };
            sim.inject(0, 1, MortarMsg::SummaryBatch(frame), 64);
            sim.run_for_secs(0.01);
            let after = sim.app(0).stats;
            assert!(after.summaries_in - before.summaries_in >= 3, "{indexing:?}");
            assert_eq!(after.route_drops - before.route_drops, 2, "{indexing:?}");
            sim.app(0).queries[&QueryId(1)].ts.check_invariants();
        }
    }

    #[test]
    fn netdist_us_ignores_trees_the_peer_only_leaves_by() {
        // Peer 6 receives member 7's data on the chain tree but is a leaf
        // of the star: it only ever sends on the star, so that tree's
        // estimator stays unsampled and must not mask the chain's.
        let n = 8;
        let mut sim = build_sim(n);
        inject_install(&mut sim, count_spec(n), chain_trees(n));
        sim.run_for_secs(30.0);
        let init = NETDIST_INIT_US;
        let peer = sim.app(6);
        let q = peer.query_by_name("count").expect("installed");
        assert!(q.netdist[0].has_samples() && !q.netdist[1].has_samples());
        let est = peer.netdist_us("count").expect("installed");
        assert_eq!(est, q.netdist[0].estimate_us());
        assert!(est < init, "the chain's estimate should have decayed: {est}");
        // A leaf on every tree has received nothing: the initial estimate.
        assert_eq!(sim.app(7).netdist_us("count"), Some(init));
    }

    #[test]
    fn batched_ticks_send_fewer_frames_than_tuples() {
        // A 50 ms slide against the 200 ms tick closes four windows per
        // tick; striping alternates them across the two trees, leaving two
        // tuples per (tree, next hop) per tick — the coalescing case.
        let n = 8;
        let mut sim = build_sim(n);
        let mut spec = count_spec(n);
        spec.window = WindowSpec::time_tumbling_us(50_000);
        spec.sensor = SensorSpec::Periodic { period_us: 50_000, value: 1.0 };
        inject_install(&mut sim, spec, chain_trees(n));
        sim.run_for_secs(30.0);
        let (frames, tuples): (u64, u64) = (0..n as NodeId)
            .map(|i| (sim.app(i).stats.frames_out, sim.app(i).stats.summaries_out))
            .fold((0, 0), |(f, t), (a, b)| (f + a, t + b));
        assert!(tuples > 0, "no summaries flowed");
        assert!(
            frames * 2 <= tuples,
            "expected ≥2x batching on a fast query: {frames} frames for {tuples} tuples"
        );
    }

    #[test]
    fn outbox_is_empty_after_every_tick() {
        // Two queries on one tree set share next hops, so their frames
        // coalesce into envelopes. Every tuple is binned and flushed
        // inside one tick, so between any two events every peer's outbox
        // is empty — which is why a peer always sends `hold_age_us = 0`.
        let n = 8;
        let mut sim = build_sim(n);
        let mut fast = count_spec(n);
        fast.name = "fast".into();
        fast.window = WindowSpec::time_tumbling_us(100_000);
        fast.sensor = SensorSpec::Periodic { period_us: 100_000, value: 1.0 };
        let trees = chain_trees(n);
        inject_install(&mut sim, count_spec(n), trees.clone());
        let records = build_records(&fast.members, &trees);
        sim.inject(
            0,
            0,
            MortarMsg::Install {
                spec: Arc::new(fast),
                id: QueryId(2),
                seq: 2,
                records,
                issue_age_us: 0,
            },
            256,
        );
        // 10 ms steps: finer than the 200 ms tick, so every tick of every
        // peer is followed by a check before its next tick.
        for _ in 0..2_000 {
            sim.run_for_secs(0.01);
            for id in 0..n as NodeId {
                let peer = sim.app(id);
                assert!(
                    peer.scratch.outbox.is_empty(),
                    "peer {id} kept frames in its outbox past a tick"
                );
            }
        }
        let envelopes: u64 = (0..n as NodeId).map(|i| sim.app(i).stats.envelopes_out).sum();
        assert!(envelopes > 0, "no multi-frame envelope was sent; the outbox went unused");
        for name in ["count", "fast"] {
            assert!(
                sim.app(0).results.iter().any(|r| &*r.query == name),
                "query {name} produced no results"
            );
        }
    }

    #[test]
    fn the_flush_cuts_frames_and_messages_at_the_knobs() {
        // Three fast queries on a chain and a star: peer m ≥ 2 owes next
        // hops m - 1 and 0, and forwards several (query, tree) streams a
        // tick. A batch cap of 2 and a budget of three value tuples make
        // the flush seal frames and split a next hop's traffic.
        let n = 8;
        let mut value = SummaryTuple::boundary(0, 1, RouteState::from_levels(&[0, 0]));
        value.state = AggState::Sum(0.0);
        let (batch, budget) = (2, 3 * value.wire_bytes());
        let cfg = PeerConfig {
            summary_batch_max: batch,
            envelope_budget: budget,
            ..PeerConfig::default()
        };
        let specs = [25_000, 50_000, 100_000]
            .into_iter()
            .enumerate()
            .map(|(i, slide)| QuerySpec {
                name: format!("q{i}"),
                window: WindowSpec::time_tumbling_us(slide),
                sensor: SensorSpec::Periodic { period_us: slide, value: 1.0 },
                ..count_spec(n)
            })
            .collect();
        // One tick of one sender: its messages, in send order.
        let mut ticks: BTreeMap<(NodeId, u64), Vec<Wire>> = BTreeMap::new();
        for wire in logged_run(n, cfg, specs, &chain_trees(n), 10.0) {
            ticks.entry((wire.1, wire.0)).or_default().push(wire);
        }
        let (mut sealed, mut split) = (0, 0);
        for ((from, at), msgs) in &ticks {
            let hops: Vec<NodeId> = msgs.iter().map(|m| m.2).collect();
            assert!(
                hops.is_sorted(),
                "peer {from} at {at} µs sent out of next-hop order: {hops:?}"
            );
            for (i, (_, _, to, frames)) in msgs.iter().enumerate() {
                let sizes: Vec<(usize, u32)> =
                    frames.iter().map(|f| (f.tuples.len(), f.payload_bytes())).collect();
                assert!(
                    sizes.iter().all(|f| f.0 <= batch),
                    "peer {from} overfilled a frame: {sizes:?}"
                );
                sealed += sizes.iter().filter(|f| f.0 == batch).count();
                let payload: u32 = sizes.iter().map(|f| f.1).sum();
                let last = sizes.last().map_or(0, |f| f.1);
                assert!(
                    payload - last < budget,
                    "peer {from} grew a message to {to} past the budget: {sizes:?}"
                );
                if hops.get(i + 1) == Some(to) {
                    assert!(
                        payload >= budget,
                        "peer {from} closed a message to {to} below the budget: {sizes:?}"
                    );
                    split += 1;
                }
            }
        }
        assert!(sealed > 0 && split > 0, "nothing was cut: {sealed} full frames, {split} splits");
    }
}
