//! Route stage: TS-list eviction, staged multipath routing, and
//! summary-frame transmission/reception (Sections 3.3–5).
//!
//! Transmission is layered:
//!
//! 1. **Per-query framing** — every tuple evicted in one timer tick that
//!    routes to the same (query, tree, next hop) coalesces into a single
//!    [`SummaryFrame`] of at most [`super::PeerConfig::summary_batch_max`]
//!    tuples. With a batch cap of 1 the frame sequence is exactly the
//!    unbatched one-tuple-per-message protocol.
//! 2. **Cross-query envelopes** — finished frames do not leave
//!    individually: they accumulate in a per-destination outbox and every
//!    frame owed to one next hop within the tick — across queries and
//!    trees — departs as a single [`MortarMsg::Envelope`]. An envelope
//!    flushes early when its payload reaches
//!    [`super::PeerConfig::envelope_budget`] (so at budget 0 every frame
//!    flushes alone, as a plain [`MortarMsg::SummaryBatch`]); everything
//!    else flushes at the end of the tick, so nothing waits in the outbox
//!    across ticks and a frame's `hold_age_us` is always 0.
//!
//! Every window a peer closes in one tick rides the same stripe tree
//! (`close_windows` advances the stripe once per tick), so a query's own
//! summaries owe one next hop per tick; a tick's frames span trees only
//! where a peer forwards what its children striped onto other trees, or
//! hosts several queries.
//!
//! Envelope payloads freeze into `Arc<[SummaryTuple]>` at flush: the
//! transport's duplication/fan-out clone of a frame is a pointer bump,
//! never a tuple-vector copy.

use super::{MortarPeer, TickScratch, HOP_AGE_EST_US, MIN_TIMEOUT_US};
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

/// An under-construction outgoing frame for one (destination, tree).
///
/// Lives in the tick scratch's frame bins only while it holds tuples:
/// emitting the frame closes its bin.
#[derive(Default)]
pub(crate) struct PendingFrame {
    tuples: Vec<SummaryTuple>,
    store_hash: Option<u64>,
    payload_bytes: u32,
}

/// A finished wire frame waiting in the outbox for its next hop.
pub(crate) struct ParkedFrame {
    dest: NodeId,
    payload_bytes: u32,
    frame: SummaryFrame,
}

/// Sends the run of parked frames `outbox[at..at + n]`, all owed to
/// `dest`, as one wire message, and returns the payload bytes that left.
/// A lone frame skips the envelope wrapper entirely: it ships as a plain
/// `SummaryBatch`, so single-stream peers (and every frame at
/// `envelope_budget = 0`) never pay the envelope header and allocate
/// nothing here; a run of several allocates exactly its frame list.
// lint:hot-path
fn flush_run(
    outbox: &mut Vec<ParkedFrame>,
    at: usize,
    n: usize,
    stats: &mut super::PeerStats,
    ctx: &mut Ctx<'_, MortarMsg>,
    dest: NodeId,
) -> u64 {
    let payload: u64 = outbox[at..at + n].iter().map(|p| u64::from(p.payload_bytes)).sum();
    let msg = if n == 1 {
        MortarMsg::SummaryBatch(outbox.remove(at).frame)
    } else {
        stats.envelopes_out += 1;
        // lint:allow(H1, an envelope owns its frame list: one exactly sized allocation per multi-frame envelope, the wire message itself)
        MortarMsg::Envelope { frames: outbox.drain(at..at + n).map(|p| p.frame).collect() }
    };
    let bytes = msg.wire_bytes();
    ctx.send_classified(dest, msg, bytes, TrafficClass::Data);
    payload
}

/// Outgoing frames for one query's eviction pass, keyed (deterministically)
/// by destination then tree. Borrows the tick scratch's frame bins: a bin
/// opens at its first tuple and closes when its frame is emitted, so a
/// pass walks only the bins it opened and leaves none behind.
struct FrameBuilder<'a> {
    id: QueryId,
    frames: &'a mut HopBins<(NodeId, u8), PendingFrame>,
    batch_max: usize,
}

impl<'a> FrameBuilder<'a> {
    fn new(
        id: QueryId,
        frames: &'a mut HopBins<(NodeId, u8), PendingFrame>,
        batch_max: usize,
    ) -> Self {
        debug_assert!(frames.is_empty(), "a prior pass left frames in the scratch bins");
        Self { id, frames, batch_max }
    }

    /// Adds a routed tuple; emits the destination's frame when full.
    // lint:hot-path
    fn push(
        &mut self,
        peer: &mut MortarPeer,
        ctx: &mut Ctx<'_, MortarMsg>,
        dest: NodeId,
        tree: u8,
        tuple: SummaryTuple,
        store_hash: Option<u64>,
    ) {
        let entry = self.frames.bin_mut((dest, tree));
        entry.payload_bytes += tuple.wire_bytes();
        entry.tuples.push(tuple);
        entry.store_hash = entry.store_hash.or(store_hash);
        if entry.tuples.len() >= self.batch_max {
            let frame = self.frames.take((dest, tree)).expect("bin opened above");
            Self::emit(peer, ctx, self.id, dest, tree, frame);
        }
    }

    /// Emits all remaining frames in deterministic key order, closing
    /// every bin.
    // lint:hot-path
    fn finish(self, peer: &mut MortarPeer, ctx: &mut Ctx<'_, MortarMsg>) {
        for ((dest, tree), frame) in self.frames.drain() {
            Self::emit(peer, ctx, self.id, dest, tree, frame);
        }
    }

    /// Hands one finished logical frame to the outbox (at
    /// `envelope_budget = 0` every frame overflows the budget and leaves
    /// at once as a plain `SummaryBatch`). The tuple vector moves into the
    /// wire frame's shared payload.
    // lint:hot-path
    fn emit(
        peer: &mut MortarPeer,
        ctx: &mut Ctx<'_, MortarMsg>,
        id: QueryId,
        dest: NodeId,
        tree: u8,
        frame: PendingFrame,
    ) {
        let PendingFrame { tuples, store_hash, payload_bytes } = frame;
        peer.stats.frames_out += 1;
        peer.stats.summaries_out += tuples.len() as u64;
        peer.stats.summary_payload_bytes_out += payload_bytes as u64;
        let wire =
            SummaryFrame { query: id, tree, hold_age_us: 0, tuples: tuples.into(), store_hash };
        peer.enqueue_frame(ctx, dest, wire, payload_bytes);
    }
}

impl MortarPeer {
    /// Parks a finished wire frame behind every frame already owed to
    /// `dest`, flushing that destination's run early once its payload
    /// reaches the budget.
    // lint:hot-path
    fn enqueue_frame(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        dest: NodeId,
        frame: SummaryFrame,
        payload_bytes: u32,
    ) {
        let end = self.outbox.partition_point(|p| p.dest <= dest);
        self.outbox.insert(end, ParkedFrame { dest, payload_bytes, frame });
        self.outbox_bytes += u64::from(payload_bytes);
        self.stats.outbox_peak_bytes = self.stats.outbox_peak_bytes.max(self.outbox_bytes);
        let start = self.outbox[..end].partition_point(|p| p.dest < dest);
        let run = &self.outbox[start..=end];
        let run_bytes: u32 = run.iter().map(|p| p.payload_bytes).sum();
        if run_bytes >= self.cfg.envelope_budget {
            let n = run.len();
            self.outbox_bytes -= flush_run(&mut self.outbox, start, n, &mut self.stats, ctx, dest);
        }
    }

    /// Flushes every pending envelope, one per destination in ascending
    /// order — the end-of-tick half of coalescing, which leaves the outbox
    /// empty. The outbox keeps its buffer, so the steady-state tick parks
    /// frames without re-allocating it.
    // lint:hot-path
    pub(crate) fn flush_envelopes(&mut self, ctx: &mut Ctx<'_, MortarMsg>) {
        while let Some(first) = self.outbox.first() {
            let dest = first.dest;
            let n = self.outbox.partition_point(|p| p.dest <= dest);
            self.outbox_bytes -= flush_run(&mut self.outbox, 0, n, &mut self.stats, ctx, dest);
        }
    }

    /// Pops every TS-list entry due this tick and routes it: root entries
    /// finalize into results, others continue up the tree set. The tick
    /// scratch supplies the per-tick liveness bitmap and the frame bins;
    /// the pass allocates nothing per query beyond the due vector and the
    /// wire frames themselves.
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
        let mut frames = FrameBuilder::new(id, &mut scratch.frame_bins, self.cfg.summary_batch_max);
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
            frames.push(self, ctx, dest, tree as u8, summary, hash);
        }
        frames.finish(self, ctx);
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
        // The frame's outbox hold is charged to every tuple's age below.
        // A peer flushes its outbox every tick, so the hold it sends is 0.
        let mut tuples = frame.tuples;
        match Arc::get_mut(&mut tuples) {
            Some(slice) => {
                // The common chaos-free case: this delivery uniquely owns
                // the payload, so tuples move into the merge — heap-
                // carrying aggregate states (top-k, HLL) are not
                // re-cloned per hop. The placeholder left behind is a
                // flat boundary value.
                for t in slice.iter_mut() {
                    let mut tuple = std::mem::replace(
                        t,
                        SummaryTuple::boundary(0, 0, RouteState::from_levels(&[])),
                    );
                    tuple.age_us += frame.hold_age_us;
                    self.merge_summary(id, tuple, frame.tree, local_now);
                }
            }
            None => {
                // Shared payload (a chaos duplicate is still in flight):
                // clone — alloc-free for the scalar states production
                // mode ships (see `alloc_hotpath.rs`).
                for t in tuples.iter() {
                    let mut tuple = t.clone();
                    tuple.age_us += frame.hold_age_us;
                    self.merge_summary(id, tuple, frame.tree, local_now);
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
