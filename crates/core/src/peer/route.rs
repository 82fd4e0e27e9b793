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
//! 2. **Cross-query envelopes** — with
//!    [`super::PeerConfig::envelope_budget`] > 0, finished frames do not
//!    leave individually: they accumulate in a per-destination outbox and
//!    every frame owed to one next hop within the tick — across queries
//!    and trees — departs as a single [`MortarMsg::Envelope`]. An
//!    envelope flushes early when its payload reaches the byte budget;
//!    everything else flushes at the end of the tick, so nothing waits in
//!    the outbox across ticks and a frame's `hold_age_us` is always 0.
//!
//! Envelope payloads freeze into `Arc<[SummaryTuple]>` at flush: the
//! transport's duplication/fan-out clone of a frame is a pointer bump,
//! never a tuple-vector copy.

use super::{MortarPeer, TickScratch};
use crate::metrics::ResultRecord;
use crate::msg::{MortarMsg, SummaryFrame};
use crate::op::OpKind;
use crate::query::{mix_key, InstallRecord, QueryId};
use crate::tuple::{RawTuple, SummaryTuple};
use crate::value::{AggState, KeyedGroups};
use mortar_net::{Ctx, NodeId, TrafficClass};
use mortar_overlay::{Decision, HopBins, NodeBitmap, RouteState, MAX_TREES};
use std::sync::Arc;

/// An under-construction outgoing frame for one (destination, tree).
///
/// Lives in the tick scratch's long-lived bins: emitting a frame empties
/// the bin in place (tuple vector moved out, byte count and hash reset),
/// so the bin map itself never churns nodes across passes.
#[derive(Default)]
pub(crate) struct PendingFrame {
    tuples: Vec<SummaryTuple>,
    store_hash: Option<u64>,
    payload_bytes: u32,
}

/// A pending envelope for one next hop: every frame the peer owes that
/// destination within the tick, across queries and trees.
///
/// Frames are stored in their wire form (payloads already frozen into
/// shared `Arc` slices), so a flush is a pure move, never a payload walk.
/// Bins are long-lived: a flush empties the frame list in place
/// (single-frame flushes even keep its allocation), so the steady-state
/// outbox never churns the heap.
#[derive(Default)]
pub(crate) struct PendingEnvelope {
    pub(super) frames: Vec<SummaryFrame>,
    payload_bytes: u32,
}

impl PendingEnvelope {
    /// Sends every parked frame to `dest` as one wire message and returns
    /// the payload bytes that left. A lone frame skips the envelope
    /// wrapper entirely: it ships as a plain `SummaryBatch`,
    /// byte-identical to the envelope-free protocol, so single-stream
    /// peers never pay the envelope header (and the bin keeps its
    /// buffer).
    // lint:hot-path
    fn flush(
        &mut self,
        stats: &mut super::PeerStats,
        ctx: &mut Ctx<'_, MortarMsg>,
        dest: NodeId,
    ) -> u64 {
        let msg = if self.frames.len() == 1 {
            MortarMsg::SummaryBatch(self.frames.pop().expect("length checked"))
        } else {
            stats.envelopes_out += 1;
            MortarMsg::Envelope { frames: std::mem::take(&mut self.frames) }
        };
        send_data(ctx, dest, msg);
        u64::from(std::mem::take(&mut self.payload_bytes))
    }
}

/// Puts one data message on the wire at its modelled size.
// lint:hot-path
fn send_data(ctx: &mut Ctx<'_, MortarMsg>, dest: NodeId, msg: MortarMsg) {
    let bytes = msg.wire_bytes();
    ctx.send_classified(dest, msg, bytes, TrafficClass::Data);
}

/// Outgoing frames for one query's eviction pass, keyed (deterministically)
/// by destination then tree. Borrows the tick scratch's long-lived bins:
/// a pass leaves every bin empty but open, so the next pass (same tick or
/// a later one) reuses the map nodes and tuple buffers instead of
/// rebuilding a `HopBins` per query per pass.
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
        debug_assert!(
            frames.iter_mut().all(|(_, f)| f.tuples.is_empty()),
            "a prior pass left frames in the scratch bins"
        );
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
            Self::emit(peer, ctx, self.id, dest, tree, entry);
        }
    }

    /// Emits all remaining frames in deterministic key order, leaving
    /// every bin empty and open for the next pass.
    // lint:hot-path
    fn finish(self, peer: &mut MortarPeer, ctx: &mut Ctx<'_, MortarMsg>) {
        for (&(dest, tree), frame) in self.frames.iter_mut() {
            if !frame.tuples.is_empty() {
                Self::emit(peer, ctx, self.id, dest, tree, frame);
            }
        }
    }

    /// Hands one finished logical frame to the transport layer: straight
    /// to the wire when envelopes are disabled, into the per-destination
    /// outbox otherwise. The bin is drained in place: its tuple vector
    /// moves into the wire frame's shared payload and its byte count and
    /// hash reset for reuse.
    // lint:hot-path
    fn emit(
        peer: &mut MortarPeer,
        ctx: &mut Ctx<'_, MortarMsg>,
        id: QueryId,
        dest: NodeId,
        tree: u8,
        frame: &mut PendingFrame,
    ) {
        let tuples = std::mem::take(&mut frame.tuples);
        let store_hash = frame.store_hash.take();
        let payload_bytes = std::mem::take(&mut frame.payload_bytes);
        peer.stats.frames_out += 1;
        peer.stats.summaries_out += tuples.len() as u64;
        peer.stats.summary_payload_bytes_out += payload_bytes as u64;
        let wire =
            SummaryFrame { query: id, tree, hold_age_us: 0, tuples: tuples.into(), store_hash };
        if peer.cfg.envelope_budget == 0 {
            send_data(ctx, dest, MortarMsg::SummaryBatch(wire));
        } else {
            peer.enqueue_frame(ctx, dest, wire, payload_bytes);
        }
    }
}

impl MortarPeer {
    /// Parks a finished wire frame in the destination's pending envelope,
    /// flushing the envelope early once its payload reaches the budget.
    // lint:hot-path
    fn enqueue_frame(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        dest: NodeId,
        frame: SummaryFrame,
        payload_bytes: u32,
    ) {
        let env = self.outbox.bin_mut(dest);
        env.payload_bytes += payload_bytes;
        self.outbox_bytes += u64::from(payload_bytes);
        self.stats.outbox_peak_bytes = self.stats.outbox_peak_bytes.max(self.outbox_bytes);
        env.frames.push(frame);
        if env.payload_bytes >= self.cfg.envelope_budget {
            self.outbox_bytes -= env.flush(&mut self.stats, ctx, dest);
        }
    }

    /// Flushes every pending envelope — the end-of-tick half of
    /// coalescing, which leaves the outbox empty. Bins persist across
    /// flushes so the steady-state tick reuses their buffers instead of
    /// re-allocating.
    // lint:hot-path
    pub(crate) fn flush_envelopes(&mut self, ctx: &mut Ctx<'_, MortarMsg>) {
        if self.outbox.is_empty() {
            return;
        }
        for (&dest, env) in self.outbox.iter_mut() {
            if !env.frames.is_empty() {
                self.outbox_bytes -= env.flush(&mut self.stats, ctx, dest);
            }
        }
    }

    /// Pops every TS-list entry due this tick and routes it: root entries
    /// finalize into results, others continue up the tree set. The tick
    /// scratch supplies the per-tick liveness bitmap and the long-lived
    /// frame bins; the pass allocates nothing per query beyond the due
    /// vector and the wire frames themselves.
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
        let is_root = q.spec.root == self.id;
        let width = rec.width();
        let name = q.name.clone();
        let split_keyed = width > 1 && matches!(q.spec.op, OpKind::Keyed { .. });
        // Liveness answers come from the tick's bitmap snapshot (built
        // once per tick from `last_heard`, which nothing below mutates);
        // the parent view is an inline array, so the pass performs no
        // snapshot allocation at all.
        let live = &scratch.live;
        let mut parent_live = [false; MAX_TREES];
        for (x, slot) in parent_live.iter_mut().enumerate().take(width) {
            *slot = rec.links[x].parent.is_some_and(|p| live.get(p));
        }
        let mut frames = FrameBuilder::new(id, &mut scratch.frame_bins, self.cfg.summary_batch_max);
        for entry in due {
            self.stats.evictions += 1;
            let summary = entry.into_summary(local_now);
            if is_root {
                self.record_result(id, &name, summary, local_now, true_now, &mut scratch.raw);
                continue;
            }
            // Keyed states split across the sibling trees by key range at
            // every hop: each tree carries only its slice of the per-key
            // map, receivers re-merge the (disjoint) slices key-wise, and
            // exactly one part keeps the participants/truth so the root's
            // completeness accounting sees each constituent once.
            let summary = if split_keyed {
                match split_keyed_summary(summary, &rec) {
                    Ok(parts) => {
                        for part in parts {
                            self.route_summary(
                                id,
                                ctx,
                                &rec,
                                &parent_live[..width],
                                live,
                                &mut frames,
                                part,
                            );
                        }
                        continue;
                    }
                    Err(whole) => whole,
                }
            } else {
                summary
            };
            self.route_summary(id, ctx, &rec, &parent_live[..width], live, &mut frames, summary);
        }
        frames.finish(self, ctx);
        if let Some(q) = self.queries.get_mut(&id) {
            q.record = Some(rec);
        }
    }

    /// Routes one outgoing summary up the tree set: the tuple continues up
    /// the tree it was striped onto (stage 1); failures migrate it per the
    /// staged policy.
    #[allow(clippy::too_many_arguments)]
    // lint:hot-path
    fn route_summary(
        &mut self,
        id: QueryId,
        ctx: &mut Ctx<'_, MortarMsg>,
        rec: &InstallRecord,
        parent_live: &[bool],
        live: &NodeBitmap,
        frames: &mut FrameBuilder<'_>,
        mut summary: SummaryTuple,
    ) {
        let width = rec.width();
        let arrival_tree = (summary.stripe_tree as usize).min(width.saturating_sub(1));
        let mut child_live = |x: usize, c: usize| live.get(rec.links[x].children[c]);
        let decision = self
            .route_table
            .decide(id, arrival_tree, &mut summary.route, parent_live, &mut child_live, ctx.rng())
            .expect("active query is registered in the route table");
        let (dest, tree) = match decision {
            Decision::Parent { tree } => {
                (rec.links[tree].parent.expect("live parent exists"), tree)
            }
            Decision::Child { tree, child } => (rec.links[tree].children[child], tree),
            Decision::Drop => {
                self.stats.route_drops += 1;
                return;
            }
        };
        summary.stripe_tree = tree as u8;
        summary.age_us += self.cfg.hop_age_est_us as i64;
        summary.hops = summary.hops.saturating_add(1);
        let q = self.queries.get_mut(&id).expect("query exists");
        q.tuples_out += 1;
        let need_hash = q.tuples_out.is_multiple_of(self.cfg.data_hash_every as u64);
        let hash = if need_hash { Some(self.my_store_hash()) } else { None };
        frames.push(self, ctx, dest, tree as u8, summary, hash);
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
        // the eviction tick fires exactly when the full scan would notice.
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
        q.netdist[t].observe(tuple.age_us.min(self.cfg.max_age_us as i64));
        if tuple.age_us > self.cfg.max_age_us as i64 {
            // Beyond the staleness horizon: drop rather than resurrect
            // long-dead windows (bounded-buffer behaviour).
            self.stats.route_drops += 1;
            return;
        }
        let timeout = q.netdist[t].timeout_us(tuple.age_us, self.cfg.min_timeout_us);
        q.ts.insert(&tuple, local_now, timeout);
        self.stats.ts_peak_entries = self.stats.ts_peak_entries.max(q.ts.len() as u64);
    }
}

/// Splits one evicted keyed summary into per-tree parts: group `k` rides
/// the tree whose installed [`crate::query::KeyRange`] contains
/// `mix_key(k)`. Exactly one part — the tuple's current stripe tree —
/// keeps the participants count and truth metadata (and is emitted even
/// when its key slice is empty), so the root's completeness and
/// ground-truth accounting see each constituent exactly once; the other
/// parts carry pure keyed payload. The groups move into their parts and
/// none is cloned: a counting pass sizes each other tree's slice exactly,
/// and one partition pass moves their groups out of the summary's vector,
/// which stays behind as the home tree's slice. Hands the summary back
/// (`Err`) when its state holds fewer than two groups — nothing to split,
/// the caller routes the tuple whole.
fn split_keyed_summary(
    mut summary: SummaryTuple,
    rec: &InstallRecord,
) -> Result<Vec<SummaryTuple>, SummaryTuple> {
    let (cap, mut pairs) = match summary.state {
        AggState::Keyed { cap, groups } if groups.len() >= 2 => (cap, groups.into_vec()),
        _ => return Err(summary),
    };
    let width = rec.width();
    let home = (summary.stripe_tree as usize).min(width - 1);
    let tree_of = |k: u64| rec.links.iter().position(|l| l.key_range.contains(mix_key(k)));
    let mut counts = [0usize; MAX_TREES];
    for &(k, _) in &pairs {
        if let Some(t) = tree_of(k) {
            counts[t] += 1;
        }
    }
    let mut slices: [Vec<(u64, AggState)>; MAX_TREES] =
        std::array::from_fn(|t| if t == home { Vec::new() } else { Vec::with_capacity(counts[t]) });
    pairs.retain_mut(|(k, st)| match tree_of(*k) {
        Some(t) if t == home => true,
        Some(t) => {
            slices[t].push((*k, std::mem::replace(st, AggState::None)));
            false
        }
        None => false,
    });
    slices[home] = pairs;
    let mut parts = Vec::with_capacity(width);
    for (t, slice) in slices.into_iter().enumerate().take(width) {
        if slice.is_empty() && t != home {
            continue;
        }
        parts.push(SummaryTuple {
            tb: summary.tb,
            te: summary.te,
            age_us: summary.age_us,
            participants: if t == home { summary.participants } else { 0 },
            has_value: summary.has_value,
            state: AggState::Keyed { cap, groups: KeyedGroups::from_sorted(slice) },
            route: summary.route,
            hops: summary.hops,
            stripe_tree: t as u8,
            truth: if t == home { summary.truth.take() } else { None },
        });
    }
    Ok(parts)
}
