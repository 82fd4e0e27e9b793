//! Route stage: TS-list eviction, staged multipath routing, and
//! summary-frame transmission/reception (Sections 3.3–5).
//!
//! Transmission is one stage, the tick's [`Outbox`]:
//!
//! * **Push** — every tuple a query's eviction pass routes lands in the
//!   bin of its (next hop, query, tree) stream. A bin that reaches
//!   [`super::PeerConfig::summary_batch_max`] tuples is sealed as a
//!   finished frame, which sorts before the stream's open bin. With a
//!   batch cap of 1 every tuple is a frame of its own: the unbatched
//!   one-tuple-per-message protocol.
//! * **Flush** — once, at the end of the tick, after the last query pass,
//!   the bins drain in key order and each next hop's frames, across
//!   queries and trees, are cut into wire messages. A message closes as
//!   soon as its payload reaches [`super::PeerConfig::envelope_budget`]
//!   (so at budget 0 every frame is a message of its own). A message of
//!   one frame ships as a plain [`MortarMsg::SummaryBatch`], one of
//!   several as a [`MortarMsg::Envelope`].
//!
//! Nothing is sent mid-pass and nothing waits across ticks: a tick's
//! summary messages leave together, in ascending next-hop order.
//!
//! Every window a peer closes in one tick rides the same stripe tree, so
//! a query's own summaries owe one next hop per tick; a tick's frames span
//! trees only where a peer forwards what its children striped onto other
//! trees, or hosts several queries.
//!
//! Frame payloads freeze into `Arc<[SummaryTuple]>` at the flush: the
//! transport's duplication/fan-out clone of a frame is a pointer bump,
//! never a tuple-vector copy.

use super::{MortarPeer, PeerStats, TickScratch, HOP_AGE_EST_US, MIN_TIMEOUT_US};
use crate::metrics::ResultRecord;
use crate::msg::{MortarMsg, SummaryFrame};
use crate::query::QueryId;
use crate::tuple::{RawTuple, SummaryTuple};
use mortar_net::{Ctx, NodeId, TrafficClass};
use mortar_overlay::{route_decision_local, Decision, HopBins, RouteState, MAX_TREES};
use std::sync::Arc;

/// Every Nth summary tuple a query sends carries the sender's store hash,
/// so removal reconciliation rides the data flow (Section 6).
const DATA_HASH_EVERY: u64 = 8;

/// Staleness horizon, µs: an arriving summary whose apparent age exceeds
/// this is dropped (the bounded-reorder-buffer analog; it keeps
/// multi-thousand-second clock offsets from poisoning state forever).
const MAX_AGE_US: i64 = 90_000_000;

/// An outbox bin's key: (next hop, query, tree, seal). A stream's open
/// bin sits under [`OPEN`]; each frame sealed full sorts before it under
/// the tick's seal ordinal.
type FrameKey = (NodeId, QueryId, u8, u32);

/// The seal slot of a stream's open bin.
const OPEN: u32 = u32::MAX;

/// One frame in the outbox: its tuples, in eviction order.
#[derive(Default)]
struct PendingFrame {
    tuples: Vec<SummaryTuple>,
    store_hash: Option<u64>,
    payload_bytes: u32,
}

/// The tick's summary outbox: every frame the tick's eviction passes owe,
/// binned by [`FrameKey`] until the end-of-tick [`Outbox::flush`]. Empty
/// between ticks; its buffers live across them, so a steady-state tick
/// bins and cuts without re-allocating them.
#[derive(Default)]
pub(crate) struct Outbox {
    bins: HopBins<FrameKey, PendingFrame>,
    /// Frames sealed full this tick: the next sealed frame's ordinal.
    seals: u32,
    /// The frames of the message being cut at the flush, all owed to one
    /// next hop, with their (query, tree).
    cut: Vec<(QueryId, u8, PendingFrame)>,
}

impl Outbox {
    /// Adds a routed tuple to its stream's open bin, sealing the bin as a
    /// finished frame once it holds `batch_max` tuples. `store_hash` is
    /// the hash this tuple drew, if any: a frame carries one iff one of
    /// its own tuples drew it.
    // lint:hot-path
    fn push(
        &mut self,
        (dest, id, tree): (NodeId, QueryId, u8),
        tuple: SummaryTuple,
        store_hash: Option<u64>,
        batch_max: usize,
    ) {
        let bin = self.bins.bin_mut((dest, id, tree, OPEN));
        bin.payload_bytes += tuple.wire_bytes();
        bin.tuples.push(tuple);
        bin.store_hash = bin.store_hash.or(store_hash);
        if bin.tuples.len() >= batch_max {
            let full = std::mem::take(bin);
            *self.bins.bin_mut((dest, id, tree, self.seals)) = full;
            self.seals += 1;
        }
    }

    /// Sends everything the tick owes: drains the bins in key order and
    /// cuts each next hop's frames into wire messages, closing a message
    /// as soon as its payload reaches `budget`. Counts each frame as it
    /// finishes, and records the tick's pending payload as the outbox
    /// high-water mark. Leaves the outbox empty.
    // lint:hot-path
    pub(crate) fn flush(
        &mut self,
        budget: u32,
        stats: &mut PeerStats,
        ctx: &mut Ctx<'_, MortarMsg>,
    ) {
        let mut pending = 0u64;
        // The next hop of the message being cut, and its payload so far.
        let mut to = None;
        let mut cut_bytes = 0u64;
        for ((dest, query, tree, _), frame) in self.bins.drain() {
            if frame.tuples.is_empty() {
                // An open bin emptied by its seal.
                continue;
            }
            if to != Some(dest) {
                if let Some(prev) = to {
                    ship(&mut self.cut, prev, stats, ctx);
                }
                (to, cut_bytes) = (Some(dest), 0);
            }
            let bytes = u64::from(frame.payload_bytes);
            stats.frames_out += 1;
            stats.summaries_out += frame.tuples.len() as u64;
            stats.summary_payload_bytes_out += bytes;
            pending += bytes;
            cut_bytes += bytes;
            self.cut.push((query, tree, frame));
            if cut_bytes >= u64::from(budget) {
                ship(&mut self.cut, dest, stats, ctx);
                cut_bytes = 0;
            }
        }
        if let Some(prev) = to {
            ship(&mut self.cut, prev, stats, ctx);
        }
        self.seals = 0;
        stats.outbox_peak_bytes = stats.outbox_peak_bytes.max(pending);
    }
}

/// Sends the frames cut so far, all owed to `dest`, as one wire message.
/// A lone frame skips the envelope wrapper: it ships as a plain
/// `SummaryBatch`, so a single-stream tick (and every frame at
/// `envelope_budget = 0`) never pays the envelope header and allocates
/// nothing here beyond its payload; several allocate exactly their frame
/// list.
// lint:hot-path
fn ship(
    frames: &mut Vec<(QueryId, u8, PendingFrame)>,
    dest: NodeId,
    stats: &mut PeerStats,
    ctx: &mut Ctx<'_, MortarMsg>,
) {
    let msg = if frames.len() > 1 {
        stats.envelopes_out += 1;
        // lint:allow(H1, an envelope owns its frame list: one exactly sized allocation per multi-frame envelope, the wire message itself)
        MortarMsg::Envelope { frames: frames.drain(..).map(wire).collect() }
    } else if let Some(frame) = frames.pop() {
        MortarMsg::SummaryBatch(wire(frame))
    } else {
        return;
    };
    let bytes = msg.wire_bytes();
    ctx.send_classified(dest, msg, bytes, TrafficClass::Data);
}

/// A finished frame as it travels: its tuples freeze into the shared
/// payload.
// lint:hot-path
fn wire((query, tree, frame): (QueryId, u8, PendingFrame)) -> SummaryFrame {
    let PendingFrame { tuples, store_hash, .. } = frame;
    SummaryFrame { query, tree, hold_age_us: 0, tuples: tuples.into(), store_hash }
}

impl MortarPeer {
    /// Pops every TS-list entry due this tick and routes it: root entries
    /// finalize into results, others go into the tick's outbox, bound up
    /// the tree set. The tick scratch supplies the per-tick liveness
    /// bitmap and the outbox; the pass sends nothing and allocates nothing
    /// per query beyond the due vector and the frames' tuple vectors.
    // lint:hot-path
    pub(crate) fn evict_and_route(
        &mut self,
        id: QueryId,
        ctx: &mut Ctx<'_, MortarMsg>,
        scratch: &mut TickScratch,
    ) {
        let local_now = ctx.local_now_us();
        let true_now = ctx.true_now_us();
        let Some(q) = self.queries.get_mut(&id) else { return };
        if !q.active() {
            return;
        }
        let due = q.ts.pop_due(local_now);
        if due.is_empty() {
            return;
        }
        // Borrow juggling, not a deep copy: the install record is moved
        // out for the duration of the pass (nothing below reads it through
        // the query) and restored at the end.
        let rec = q.record.take().expect("active query has a record");
        let template = q.route_template;
        let levels = template.last_level.as_slice();
        let is_root = q.spec.root == self.id;
        let width = rec.width();
        let name = q.name.clone();
        // Liveness answers come from the tick's bitmap snapshot (built
        // once per tick from `last_heard`, which nothing below mutates);
        // the parent view is an inline array, so the pass performs no
        // snapshot allocation at all.
        let live = &scratch.live;
        let mut parent_buf = [false; MAX_TREES];
        for (x, slot) in parent_buf.iter_mut().enumerate().take(width) {
            *slot = rec.links[x].parent.is_some_and(|p| live.get(p));
        }
        let parent_live = &parent_buf[..width];
        let batch_max = self.cfg.summary_batch_max;
        for entry in due {
            self.stats.evictions += 1;
            let mut summary = entry.into_summary(local_now);
            if is_root {
                self.record_result(id, &name, summary, local_now, true_now, &mut scratch.raw);
                continue;
            }
            // The summary continues up the tree it was striped onto
            // (stage 1), whatever its operator; failures migrate it per
            // the staged policy, which reads this member's `levels` and
            // the record's per-tree child lists.
            let arrival_tree = (summary.stripe_tree as usize).min(width.saturating_sub(1));
            let decision = route_decision_local(
                levels,
                &rec.links,
                arrival_tree,
                &mut summary.route,
                parent_live,
                &mut |_, c| live.get(c),
                ctx.rng(),
            );
            let (dest, tree) = match decision {
                Decision::Parent { tree } => {
                    (rec.links[tree].parent.expect("live parent exists"), tree)
                }
                Decision::Child { tree, child } => (rec.links[tree].children[child], tree),
                Decision::Drop => {
                    self.stats.route_drops += 1;
                    continue;
                }
            };
            summary.stripe_tree = tree as u8;
            summary.age_us += HOP_AGE_EST_US as i64;
            summary.hops = summary.hops.saturating_add(1);
            let q = self.queries.get_mut(&id).expect("query exists");
            q.tuples_out += 1;
            let need_hash = q.tuples_out.is_multiple_of(DATA_HASH_EVERY);
            let hash = if need_hash { Some(self.my_store_hash()) } else { None };
            scratch.outbox.push((dest, id, tree as u8), summary, hash, batch_max);
        }
        if let Some(q) = self.queries.get_mut(&id) {
            q.record = Some(rec);
        }
    }

    /// Finalizes a root eviction into a [`ResultRecord`] and feeds any
    /// co-located subscribers through the tick's scratch tuple `raw`. The
    /// record shares the query's interned name and *moves* the summary's
    /// truth metadata — no per-emission string or map clone.
    fn record_result(
        &mut self,
        id: QueryId,
        name: &std::sync::Arc<str>,
        summary: SummaryTuple,
        local_now: i64,
        true_now: u64,
        raw: &mut RawTuple,
    ) {
        let q = self.queries.get_mut(&id).expect("query exists");
        let mut finalized = q.spec.op.finalize(&self.registry, &summary.state);
        if let Some(post) = &q.spec.post {
            // Missing post-ops were rejected at install time; a stale spec
            // degrades to the un-post-processed state instead of panicking.
            if let Some(op) = self.registry.get(post) {
                finalized = op.finalize(&finalized);
            }
        }
        // The window was due at its interval end, measured in the root's
        // indexing frame.
        let frame_now = q.frame_now(self.cfg.indexing, local_now);
        let scalar = finalized.scalar();
        self.results.push(ResultRecord {
            query: name.clone(),
            tb: summary.tb,
            te: summary.te,
            scalar,
            state: finalized,
            participants: summary.participants,
            emit_local_us: local_now,
            emit_true_us: true_now,
            age_us: summary.age_us,
            due_lag_us: frame_now - summary.te,
            path_len: summary.hops,
            truth: summary.truth,
        });
        // Composition: feed the result into co-located queries subscribed
        // to this one (Section 2.2).
        if let Some(v) = scalar {
            self.feed_subscribers(name, v, summary.participants, local_now, true_now, raw);
        }
    }

    /// Handles an arriving envelope: frames unpack in order, each exactly
    /// as if it had arrived as its own [`MortarMsg::SummaryBatch`].
    pub(crate) fn handle_envelope(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        from: NodeId,
        frames: Vec<SummaryFrame>,
    ) {
        self.stats.envelopes_in += 1;
        for frame in frames {
            self.handle_summary_frame(ctx, from, frame);
        }
    }

    /// Handles an arriving summary frame: per tuple, re-index (syncless) or
    /// re-age (timestamp), update netDist, and merge into the TS list.
    pub(crate) fn handle_summary_frame(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        from: NodeId,
        frame: SummaryFrame,
    ) {
        let id = frame.query;
        self.stats.frames_in += 1;
        self.stats.summaries_in += frame.tuples.len() as u64;
        let local_now = ctx.local_now_us();
        let installed = self.queries.contains_key(&id);
        // Two divergence signals ride the data path (Section 6.1's
        // overloading of the child→parent data flow): a mismatching store
        // hash, and data for a query we removed. Either starts one digest
        // exchange; the digest carries the id-keyed tombstone, so the
        // sender removes the query on arrival.
        let hash_mismatch = frame.store_hash.is_some_and(|h| h != self.my_store_hash());
        if hash_mismatch || (!installed && self.removed.contains_key(&id)) {
            self.trigger_reconcile(ctx, from);
        }
        if !installed {
            return;
        }
        let mut tuples = frame.tuples;
        match Arc::get_mut(&mut tuples) {
            Some(slice) => {
                // The common chaos-free case: this delivery uniquely owns
                // the payload, so tuples move into the merge — heap-
                // carrying aggregate states (top-k, HLL) are not
                // re-cloned per hop. The placeholder left behind is a
                // flat boundary value.
                for t in slice.iter_mut() {
                    let tuple = std::mem::replace(
                        t,
                        SummaryTuple::boundary(0, 0, RouteState::from_levels(&[])),
                    );
                    self.merge_summary(id, tuple, frame.tree, local_now);
                }
            }
            None => {
                // Shared payload (a chaos duplicate is still in flight):
                // clone — alloc-free for the scalar states production
                // mode ships (see `alloc_hotpath.rs`).
                for t in tuples.iter() {
                    self.merge_summary(id, t.clone(), frame.tree, local_now);
                }
            }
        }
        // The merges may have opened TS entries with deadlines earlier
        // than the query's scheduled due instant; refresh the due index so
        // the first tick at or past the earliest deadline evicts them.
        self.reschedule(id);
    }

    /// Merges one arriving summary tuple into the query's TS list.
    fn merge_summary(&mut self, id: QueryId, mut tuple: SummaryTuple, tree: u8, local_now: i64) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(rec) = q.record.as_ref() else { return };
        // Record arrival position on the tree the tuple travelled.
        let t = (tree as usize).min(rec.width().saturating_sub(1));
        let lvl = rec.links[t].level;
        if let Some(slot) = tuple.route.last_level.get_mut(t) {
            *slot = (*slot).min(lvl);
        }
        tuple.stripe_tree = t as u8;
        if q.spec.window.kind == crate::window::WindowKind::Time {
            match self.cfg.indexing {
                super::IndexingMode::Syncless => {
                    // Re-index from age: the receiving operator assigns the
                    // tuple to its own local window (Figure 7).
                    let t_ref = local_now - q.t_ref_base_us;
                    let slide = q.spec.window.slide as i64;
                    let inception = t_ref - tuple.age_us;
                    let k = inception.div_euclid(slide);
                    tuple.tb = k * slide;
                    tuple.te = (k + 1) * slide;
                }
                super::IndexingMode::Timestamp => {
                    // Apparent age derives from the (possibly offset)
                    // stamps — the mechanism Section 5 indicts.
                    tuple.age_us = local_now - tuple.te;
                }
            }
        }
        if tuple.tb >= tuple.te {
            // Timestamp indexing and tuple windows take the interval as it
            // came off the wire: an empty or inverted one names no index.
            self.stats.route_drops += 1;
            return;
        }
        // The latency estimator sees the (capped) apparent age *before* any
        // staleness drop: with timestamps, badly offset sources inflate
        // netDist — and with it every entry's timeout — which is exactly
        // the Section 5 pathology syncless operation avoids.
        q.netdist[t].observe(tuple.age_us.min(MAX_AGE_US));
        if tuple.age_us > MAX_AGE_US {
            // Beyond the staleness horizon: drop rather than resurrect
            // long-dead windows (bounded-buffer behaviour).
            self.stats.route_drops += 1;
            return;
        }
        let timeout = q.netdist[t].timeout_us(tuple.age_us, MIN_TIMEOUT_US);
        q.ts.insert(&tuple, local_now, timeout);
        self.stats.ts_peak_entries = self.stats.ts_peak_entries.max(q.ts.len() as u64);
    }
}

#[cfg(test)]
impl Outbox {
    /// Whether no frame is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }
}
