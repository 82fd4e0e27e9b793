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
//! Queries are keyed by interned [`QueryId`] handles resolved at install
//! time through a [`QueryDirectory`]; all summary traffic travels in
//! per-query frames that coalesce every tuple bound for the same (query,
//! tree, next hop) within one timer tick, and — with
//! [`PeerConfig::envelope_budget`] > 0 — every frame owed to one next hop
//! stacks into a single [`MortarMsg::Envelope`] wire message per tick,
//! across queries and trees.
//!
//! All timing uses the peer's *local* clock; in syncless mode no global
//! time ever enters the data path.

mod control;
mod ingest;
mod route;

use crate::msg::MortarMsg;
use crate::netdist::NetDist;
use crate::op::OpRegistry;
use crate::query::{InstallRecord, QueryDirectory, QueryId, QuerySpec};
use crate::reconcile::store_hash;
use crate::rlog::ResultLog;
use crate::tslist::TimeSpaceList;
use crate::tuple::{RawTuple, Truth};
use crate::value::AggState;
use mortar_net::{App, Ctx, NodeId};
use mortar_overlay::{RouteState, RouteTable, MAX_TREES};
use std::cell::Cell;
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

/// Peer configuration (defaults follow the paper's evaluation settings).
#[derive(Debug, Clone, Copy)]
pub struct PeerConfig {
    /// Internal scheduling granularity, local µs.
    pub tick_us: u64,
    /// Heartbeat period (paper: 2 s).
    pub hb_period_us: u64,
    /// Beats without contact before a neighbour is presumed down (3).
    pub hb_timeout_beats: u32,
    /// Reconciliation runs every Nth heartbeat (3 ⇒ every 6 s).
    pub reconcile_every: u32,
    /// Modelled per-hop transit added to tuple age on send.
    pub hop_age_est_us: u64,
    /// Indexing mode.
    pub indexing: IndexingMode,
    /// Floor for the dynamic timeout.
    pub min_timeout_us: u64,
    /// Initial netDist estimate.
    pub netdist_init_us: u64,
    /// netDist EWMA constant (paper: 0.10).
    pub netdist_alpha: f64,
    /// Attach a store hash to every Nth outgoing summary tuple (removal
    /// reconciliation rides the data flow).
    pub data_hash_every: u32,
    /// Install multicast chunk count (paper: 16).
    pub install_chunks: usize,
    /// Record ground-truth metadata for metrics.
    pub track_truth: bool,
    /// Staleness horizon: arriving summaries whose apparent age exceeds
    /// this are dropped (the bounded-reorder-buffer analog; prevents
    /// multi-thousand-second offsets from poisoning state forever).
    pub max_age_us: u64,
    /// Maximum tuples per outgoing summary frame. Tuples evicted in the
    /// same tick for the same (query, tree, next hop) coalesce into one
    /// [`MortarMsg::SummaryBatch`] up to this size; `1` reproduces the
    /// unbatched one-tuple-per-message protocol exactly.
    pub summary_batch_max: usize,
    /// Maximum open raw-data buckets retained per query. Timestamp mode
    /// with huge clock offsets can mint far-future buckets; anything past
    /// this cap is garbage-collected oldest-first at window close.
    pub bucket_gc_cap: usize,
    /// Maximum result records the root operator retains (0 = unbounded).
    /// The log is a ring with stable sequence numbers, so subscriber
    /// drain cursors survive eviction (see [`crate::rlog::ResultLog`]).
    pub result_log_cap: usize,
    /// Payload-byte budget per outgoing envelope (cross-query frame
    /// coalescing): every summary frame owed to one next hop within a
    /// tick — across queries and trees — stacks into a single
    /// [`MortarMsg::Envelope`] wire message, flushed early once its
    /// payload reaches this many bytes. `0` disables envelopes: each
    /// (query, tree) frame leaves as its own `SummaryBatch` message,
    /// reproducing the per-query-frame protocol bit-for-bit.
    pub envelope_budget: u32,
    /// Due-driven tick scheduling: when `true` (the default) a timer tick
    /// only touches queries whose due instant — next sensor emission,
    /// slide boundary, or earliest TS-list deadline — has arrived,
    /// consulting the peer's due index instead of iterating every
    /// installed query. Idle ticks reduce to a due-index peek, an
    /// envelope flush and the heartbeat clock. `false` restores the
    /// legacy full scan (every query pumped/closed/evicted every tick),
    /// which the due index must reproduce bit-for-bit — the parity knob
    /// `prop_batching` locks down. Tick *scheduling* never changes tick
    /// *semantics*: a query does observable work only when something is
    /// due, so skipping the no-work passes is invisible.
    pub due_driven_ticks: bool,
}

impl Default for PeerConfig {
    fn default() -> Self {
        Self {
            tick_us: 200_000,
            hb_period_us: 2_000_000,
            hb_timeout_beats: 3,
            reconcile_every: 3,
            hop_age_est_us: 15_000,
            indexing: IndexingMode::Syncless,
            min_timeout_us: 250_000,
            netdist_init_us: 2_500_000,
            netdist_alpha: 0.1,
            data_hash_every: 8,
            install_chunks: 16,
            track_truth: true,
            max_age_us: 90_000_000,
            summary_batch_max: 32,
            bucket_gc_cap: 1024,
            result_log_cap: 65_536,
            envelope_budget: 16_384,
            due_driven_ticks: true,
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
    /// Envelope wire messages sent, each coalescing every frame owed to
    /// one next hop in a tick across queries and trees (0 when
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
    /// heartbeat check and an envelope flush).
    pub idle_ticks: u64,
    /// Per-query tick passes actually run (pump + close + evict). With
    /// due-driven scheduling this counts only due queries; the legacy
    /// full scan counts every installed query every tick.
    pub query_wakeups: u64,
    /// High-water mark of total pending-envelope payload bytes across the
    /// outbox — the coalescing memory one tick's evictions hold before the
    /// end-of-tick flush (bounded per destination by `envelope_budget`).
    pub outbox_peak_bytes: u64,
}

/// One open raw-data window (merging across time).
#[derive(Debug, Default)]
pub(crate) struct Bucket {
    pub(crate) state: Option<AggState>,
    pub(crate) truth: Truth,
    pub(crate) count: u64,
}

/// Per-query runtime state at one peer.
pub(crate) struct QueryState {
    /// The spec, shared with the control plane: reconciliation exchanges
    /// and topology replies ship this same `Arc` instead of cloning the
    /// spec per message.
    pub(crate) spec: Arc<QuerySpec>,
    pub(crate) id: QueryId,
    /// The query name, interned once at install so result records and
    /// subscriber feeds share one allocation instead of re-cloning the
    /// spec's `String` per emission.
    pub(crate) name: Arc<str>,
    pub(crate) seq: u64,
    pub(crate) record: Option<InstallRecord>,
    /// Origin route state for locally created summaries, precomputed from
    /// the install record (`Copy` — window close stamps it for free
    /// instead of cloning the level vector twice per window).
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
    pub(crate) buckets: BTreeMap<i64, Bucket>,
    pub(crate) next_close_k: i64,
    pub(crate) next_emit_local_us: i64,
    /// Live ingestion feed (present iff the sensor is
    /// [`SensorSpec::Feed`](crate::query::SensorSpec::Feed)):
    /// source connector, bounded intake queue, and exact accounting.
    /// Instantiated from the spec at install, so it is identical across
    /// shard layouts.
    pub(crate) feed: Option<crate::feed::FeedState>,
    /// Tuple-window buffer: (frame arrival time, tuple).
    pub(crate) tuple_buf: Vec<(i64, RawTuple)>,
    /// Index of the next peer replay-trace tuple this query ingests
    /// (`SensorSpec::Replay`): a cursor per query, so every replay query
    /// sees the whole trace from its own activation.
    pub(crate) replay_pos: usize,
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
    /// tree) has nothing to wait for beyond `min_timeout_us`.
    pub(crate) fn local_timeout_us(&self, tree: usize, age_us: i64, min_timeout_us: u64) -> u64 {
        let has_children = self
            .record
            .as_ref()
            .is_some_and(|r| r.links.get(tree).is_some_and(|l| !l.children.is_empty()));
        if has_children {
            self.netdist[tree].timeout_us(age_us, min_timeout_us)
        } else {
            min_timeout_us
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
/// * `due_ids` — the tick's reused id worklist: the drained due-now
///   prefix under due-driven scheduling, every installed query under the
///   legacy scan (replacing the per-tick `Vec<QueryId>` key collect);
/// * `live` — the tick's liveness snapshot as packed bitset words, built
///   in one pass over `last_heard` (replaces the per-query `Vec<bool>`
///   parent snapshot and `Vec<Vec<bool>>` child vectors, and collapses
///   repeated heartbeat-map probes into single bit tests);
/// * `frame_bins` — the eviction pass's frame builder bins, emptied in
///   place at emit like the outbox's long-lived envelope bins (replaces
///   the per-query-per-pass `HopBins` allocation);
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
    pub(crate) frame_bins: mortar_overlay::HopBins<(NodeId, u8), route::PendingFrame>,
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
    /// string keys this runtime used to sort on).
    pub(crate) queries: BTreeMap<QueryId, QueryState>,
    /// Name↔id bindings, including retired ones for removed queries.
    pub(crate) directory: QueryDirectory,
    /// Per-query routing cache (levels / child lists per tree).
    pub(crate) route_table: RouteTable,
    /// Removal tombstones, keyed by interned id (the directory retains
    /// the retired id → name binding; names only matter when hashing or
    /// reconciling, never as runtime keys).
    pub(crate) removed: BTreeMap<QueryId, u64>,
    pub(crate) last_heard: HashMap<NodeId, i64>,
    pub(crate) hb_children: BTreeSet<NodeId>,
    pub(crate) hb_count: u64,
    pub(crate) next_hb_local_us: i64,
    /// Topology service state (query roots only).
    pub(crate) topo: HashMap<String, Vec<InstallRecord>>,
    /// Subscriber index: upstream query name → co-located queries whose
    /// sensor subscribes to it. Maintained at install/remove so each root
    /// emission is an O(1) lookup instead of a scan over every installed
    /// query's sensor spec. A `BTreeMap` so the install/remove maintenance
    /// (which iterates the index) is hash-seed independent.
    pub(crate) subscribers: BTreeMap<String, Vec<QueryId>>,
    /// Memoized store hash (the reconciliation fingerprint piggybacked on
    /// data frames); recomputed only when the installed/removed sets
    /// change instead of on every hash-carrying tuple.
    pub(crate) store_hash_cache: Cell<Option<u64>>,
    /// Pending per-next-hop envelopes (cross-query frame coalescing);
    /// flushed at the end of each tick or on budget overflow, so every
    /// bin is empty between ticks. Empty whenever `envelope_budget = 0`.
    pub(crate) outbox: mortar_overlay::HopBins<NodeId, route::PendingEnvelope>,
    /// Total payload bytes currently pending across the outbox —
    /// maintained at enqueue/flush so the high-water mark
    /// (`stats.outbox_peak_bytes`) costs no per-tick scan.
    pub(crate) outbox_bytes: u64,
    /// The due index: `(next_due_local_us, id)` per schedulable query,
    /// min-ordered so a tick pops exactly the queries whose slide
    /// boundary, sensor cadence, or TS-list deadline has arrived.
    /// Maintained at install/remove, after every per-query tick pass, and
    /// whenever an arriving frame or subscription feed could move a
    /// query's due instant earlier. Unused (and unmaintained) in legacy
    /// scan mode.
    pub(crate) due: BTreeSet<(i64, QueryId)>,
    /// The current tick's local instant while `on_timer` is sweeping
    /// (`i64::MIN` outside a tick): lets `reschedule` detect a mid-sweep
    /// insert that is already due and set `due_dirty`.
    tick_now_us: i64,
    /// Set by `reschedule` when a mid-sweep insert landed at ≤ the
    /// tick's instant; tells the sweep to re-consult the index.
    due_dirty: bool,
    /// Long-lived per-tick scratch (id buffer, liveness bitmap, frame
    /// bins): the steady-state tick reuses these buffers instead of
    /// allocating per query or per pass.
    pub(crate) scratch: TickScratch,
    /// Results recorded by the root operator: a bounded ring with stable
    /// sequence numbers (see [`ResultLog`]).
    pub results: ResultLog,
    /// Replay trace for `SensorSpec::Replay` queries, packed; each query
    /// keeps its own cursor into it (`QueryState::replay_pos`).
    pub(crate) replay: ingest::ReplayTrace,
    /// Counters.
    pub stats: PeerStats,
}

/// Timer tag for the peer's single periodic tick.
const TICK: u64 = 1;

impl MortarPeer {
    /// Creates a peer with the given configuration and operator registry.
    pub fn new(id: NodeId, cfg: PeerConfig, registry: OpRegistry) -> Self {
        assert!(cfg.summary_batch_max >= 1, "summary_batch_max must be at least 1");
        Self {
            id,
            cfg,
            registry,
            queries: BTreeMap::new(),
            directory: QueryDirectory::new(),
            route_table: RouteTable::new(),
            removed: BTreeMap::new(),
            last_heard: HashMap::new(),
            hb_children: BTreeSet::new(),
            hb_count: 0,
            next_hb_local_us: i64::MIN,
            topo: HashMap::new(),
            subscribers: BTreeMap::new(),
            outbox: mortar_overlay::HopBins::new(),
            outbox_bytes: 0,
            due: BTreeSet::new(),
            tick_now_us: i64::MIN,
            due_dirty: false,
            scratch: TickScratch::default(),
            store_hash_cache: Cell::new(None),
            results: ResultLog::new(cfg.result_log_cap),
            replay: ingest::ReplayTrace::default(),
            stats: PeerStats::default(),
        }
    }

    /// Sets the replay trace used by `SensorSpec::Replay` queries.
    /// Offsets are local µs from query activation, and the cursor is per
    /// query: every replay query ingests the whole trace, each from its own
    /// activation, so two replay queries on one peer both see every tuple
    /// and a query installed later starts at the trace's first tuple. A
    /// new trace restarts every installed replay query at its first tuple.
    /// The trace is packed into flat arrays (about 28 B per 1-field tuple).
    pub fn set_replay(&mut self, trace: Vec<(u64, RawTuple)>) {
        self.replay = ingest::ReplayTrace::pack(trace);
        for q in self.queries.values_mut() {
            q.replay_pos = 0;
        }
        // A new trace moves every replay query's next sensor emission.
        let ids: Vec<QueryId> = self.queries.keys().copied().collect();
        for id in ids {
            self.reschedule(id);
        }
    }

    /// Resolves a query name to its state.
    pub(crate) fn query_by_name(&self, name: &str) -> Option<&QueryState> {
        self.queries.get(&self.directory.id_of(name)?)
    }

    /// The interned id a query name resolved to at this peer, if any.
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.directory.id_of(name)
    }

    /// Whether a query is installed (record may still be pending).
    pub fn has_query(&self, name: &str) -> bool {
        self.query_by_name(name).is_some()
    }

    /// Whether a query is installed *and* connected to the physical plan.
    pub fn is_active(&self, name: &str) -> bool {
        self.query_by_name(name).is_some_and(QueryState::active)
    }

    /// Names of installed queries.
    pub fn installed_names(&self) -> Vec<&str> {
        self.queries.values().map(|q| q.spec.name.as_str()).collect()
    }

    /// Current netDist estimate for a query (diagnostics): the largest
    /// estimate among the trees this peer has received data on, or the
    /// initial estimate while it has received none.
    pub fn netdist_us(&self, name: &str) -> Option<u64> {
        let q = self.query_by_name(name)?;
        let sampled = q.netdist.iter().filter(|nd| nd.has_samples());
        Some(sampled.map(NetDist::estimate_us).max().unwrap_or(self.cfg.netdist_init_us))
    }

    /// One feed's intake accounting, by query name.
    pub fn feed_stats(&self, name: &str) -> Option<crate::feed::FeedStats> {
        self.query_by_name(name)?.feed.as_ref().map(|f| f.stats)
    }

    /// Intake accounting summed across this peer's feeds, plus whether
    /// every feed's conservation invariant holds and the bytes currently
    /// buffered in intake queues and spill rings.
    pub fn feed_totals(&self) -> (crate::feed::FeedStats, bool, u64) {
        let mut total = crate::feed::FeedStats::default();
        let mut conserved = true;
        let mut held = 0u64;
        for q in self.queries.values() {
            if let Some(f) = &q.feed {
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

    /// The store the fingerprint covers: one `(name, seq, removed)` entry
    /// per installed query (`removed = false`), then one per removal-cache
    /// tombstone (`removed = true`), each in id order.
    pub fn store_entries(&self) -> impl Iterator<Item = (&str, u64, bool)> {
        let installed = self.queries.values().map(|q| (q.spec.name.as_str(), q.seq, false));
        // Tombstones are minted by `remove_query`, which always had (and
        // the directory retains) the id → name binding, so every entry
        // resolves. Naming them keeps the fingerprint comparable across
        // peers whatever ids they learned the removal under.
        let removed = self
            .removed
            .iter()
            .filter_map(|(&id, &s)| self.directory.name_of(id).map(|n| (n, s, true)));
        installed.chain(removed)
    }

    pub(crate) fn my_store_hash(&self) -> u64 {
        if let Some(h) = self.store_hash_cache.get() {
            return h;
        }
        let h = store_hash(
            self.store_entries()
                .map(|(n, s, removed)| (n, if removed { s.wrapping_add(1 << 63) } else { s })),
        );
        self.store_hash_cache.set(Some(h));
        h
    }

    /// Invalidates the memoized store hash; must be called whenever the
    /// installed set, an install sequence, or the removal cache changes.
    pub(crate) fn invalidate_store_hash(&self) {
        self.store_hash_cache.set(None);
    }

    /// How long a neighbour may stay silent before it is presumed down.
    fn liveness_horizon_us(&self) -> i64 {
        (self.cfg.hb_period_us * self.cfg.hb_timeout_beats as u64) as i64 + self.cfg.tick_us as i64
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
    /// next tick, exactly as the full scan would.
    fn next_due_of(&self, q: &QueryState) -> i64 {
        if !q.active() {
            return i64::MAX;
        }
        let mut due = i64::MAX;
        match q.spec.sensor {
            crate::query::SensorSpec::Periodic { .. } => due = due.min(q.next_emit_local_us),
            crate::query::SensorSpec::Replay => {
                if let Some(&off) = self.replay.offs.get(q.replay_pos) {
                    due = due.min(q.t_ref_base_us.saturating_add(off as i64));
                }
            }
            crate::query::SensorSpec::Feed(_) => {
                if let Some(f) = &q.feed {
                    // Buffered intake (or an externally driven source)
                    // wants every tick; otherwise wake at the source's
                    // next emission, mapped from query frame to local time
                    // exactly as replay offsets are.
                    match f.next_due_us() {
                        i64::MIN => due = i64::MIN,
                        i64::MAX => {}
                        nd => due = due.min(q.t_ref_base_us.saturating_add(nd)),
                    }
                }
            }
            _ => {}
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
            if q.buckets.len() > self.cfg.bucket_gc_cap {
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
    /// returns without touching the index, an unknown id is a no-op, and
    /// legacy scan mode (which never consults the index) skips the
    /// maintenance entirely — the parity baseline pays nothing for the
    /// machinery it is being compared against.
    pub(crate) fn reschedule(&mut self, id: QueryId) {
        if !self.cfg.due_driven_ticks {
            return;
        }
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
            // A mid-tick insert that is already due belongs in this
            // tick's sweep (if its position lies ahead); flag it so the
            // sweep re-consults the index only when something moved.
            if new_due <= self.tick_now_us {
                self.due_dirty = true;
            }
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

    /// Pulls every index entry that became due mid-sweep at a position
    /// the sweep has not yet passed (`id > cursor`) into the worklist's
    /// pending tail (`worklist[from..]`, kept sorted). Called only when a
    /// pass actually moved a due instant to ≤ now — the rare
    /// subscription-feed / GC-overflow case — so the common sweep walks
    /// the due-now prefix exactly once.
    fn merge_newly_due(
        &mut self,
        worklist: &mut Vec<QueryId>,
        from: usize,
        cursor: QueryId,
        now: i64,
    ) {
        loop {
            let found = self
                .due
                .iter()
                .take_while(|&&(due, _)| due <= now)
                .find(|&&(_, id)| id > cursor && worklist[from..].binary_search(&id).is_err())
                .copied();
            let Some((due, id)) = found else { break };
            self.due.remove(&(due, id));
            if let Some(q) = self.queries.get_mut(&id) {
                q.sched_due_us = i64::MAX;
            }
            let pos = from + worklist[from..].binary_search(&id).unwrap_err();
            worklist.insert(pos, id);
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
        self.next_hb_local_us = ctx.local_now_us() + self.cfg.hb_period_us as i64;
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
            MortarMsg::ReconcilePlan { push, want, want_removed, removed } => {
                self.handle_reconcile_plan(ctx, from, push, want, want_removed, removed);
            }
            MortarMsg::ReconcileTransfer { entries, removed } => {
                self.handle_reconcile_transfer(ctx, entries, removed);
            }
            MortarMsg::Install { spec, id, seq, records, issue_age_us } => {
                self.handle_install(ctx, spec, id, seq, records, issue_age_us);
            }
            MortarMsg::Remove { id, seq } => {
                self.handle_remove(ctx, id, seq);
            }
            MortarMsg::TopoRequest { name } => {
                self.handle_topo_request(ctx, from, &name);
            }
            MortarMsg::TopoReply { name: _, id, seq, spec, record, issue_age_us } => {
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
        let mut processed = 0u64;
        if self.cfg.due_driven_ticks {
            // Sweep due-now queries in ascending id order — exactly the
            // full scan's single ascending pass, restricted to queries
            // with work (a non-due query's pass does no observable work:
            // no state change, no send, no RNG draw — so skipping it is
            // invisible). The due-now entries form the prefix of the
            // (due, id)-ordered index; drain it once into the reused
            // worklist (idle ticks peek one element and stop). Work that
            // becomes due *mid-sweep* (a subscription feed, a bucket-GC
            // overflow) sets `due_dirty`, and `merge_newly_due` splices
            // it into the pending tail when its position lies ahead of
            // the sweep — while work at an already-passed position waits
            // a tick. Both are precisely what the scan would do, without
            // re-walking the index prefix on every pass.
            self.tick_now_us = local_now;
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
            // The index yields (due, id) order; the sweep runs in the
            // scan's ascending-id order.
            scratch.due_ids.sort_unstable();
            if !scratch.due_ids.is_empty() {
                self.rebuild_liveness(&mut scratch.live, local_now);
            }
            let mut i = 0;
            while i < scratch.due_ids.len() {
                let id = scratch.due_ids[i];
                i += 1;
                processed += 1;
                self.due_dirty = false;
                self.pump_sensor(id, ctx, &mut scratch.raw);
                self.close_windows(id, local_now);
                self.evict_and_route(id, ctx, &mut scratch);
                self.reschedule(id);
                if self.due_dirty {
                    self.due_dirty = false;
                    self.merge_newly_due(&mut scratch.due_ids, i, id, local_now);
                }
            }
            self.tick_now_us = i64::MIN;
        } else {
            // Legacy full scan: every installed query, every tick, in
            // stable BTreeMap key order (the parity baseline).
            scratch.due_ids.clear();
            scratch.due_ids.extend(self.queries.keys().copied());
            if !scratch.due_ids.is_empty() {
                self.rebuild_liveness(&mut scratch.live, local_now);
            }
            for i in 0..scratch.due_ids.len() {
                let id = scratch.due_ids[i];
                processed += 1;
                self.pump_sensor(id, ctx, &mut scratch.raw);
                self.close_windows(id, local_now);
                self.evict_and_route(id, ctx, &mut scratch);
                self.reschedule(id);
            }
        }
        if processed == 0 {
            self.stats.idle_ticks += 1;
        } else {
            self.stats.query_wakeups += processed;
        }
        self.scratch = scratch;
        // The coalescing flush: everything the tick's eviction passes owe
        // each next hop leaves as one envelope per destination, so the
        // outbox is empty between ticks.
        self.flush_envelopes(ctx);
        if local_now >= self.next_hb_local_us {
            self.next_hb_local_us += self.cfg.hb_period_us as i64;
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
            sensor: SensorSpec::Subscribe { query: "count".into() },
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
        let init = PeerConfig::default().netdist_init_us;
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
        // coalesce into envelopes. Every frame is enqueued and flushed
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
                assert_eq!(peer.outbox_bytes, 0, "peer {id} kept outbox bytes past a tick");
                assert!(
                    peer.outbox.iter().all(|(_, env)| env.frames.is_empty()),
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
}
