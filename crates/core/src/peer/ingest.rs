//! Ingest stage: source pumping, raw-tuple lift (merging across time), and
//! window close (Sections 4–5).

use super::{MortarPeer, BUCKET_GC_CAP};
use crate::msg::MortarMsg;
use crate::netdist::NetDist;
use crate::query::QueryId;
use crate::tuple::{RawTuple, SummaryTuple, TruthMeta};
use crate::window::WindowKind;
use mortar_net::Ctx;
use std::sync::Arc;

impl MortarPeer {
    /// Lifts one raw tuple into the query's open windows. The tuple is
    /// borrowed: lifting reads it, and only a tuple window's buffer keeps
    /// a copy.
    pub(crate) fn ingest_raw(
        &mut self,
        id: QueryId,
        tuple: &RawTuple,
        local_now: i64,
        true_now_us: u64,
    ) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        if !q.active() {
            return;
        }
        if let Some(pred) = &q.spec.filter {
            if !pred.eval(tuple) {
                return;
            }
        }
        let member = q.member().unwrap_or(0);
        let track = self.cfg.track_truth;
        match q.spec.window.kind {
            WindowKind::Time => {
                let frame = q.frame_now(self.cfg.indexing, local_now);
                let w = q.spec.window;
                let slide = w.slide as i64;
                let range = w.range as i64;
                for k in w.windows_for_instant(frame) {
                    // Precise containment check for non-multiple ranges.
                    let wk_begin = (k + 1) * slide - range;
                    if frame < wk_begin || frame >= (k + 1) * slide {
                        continue;
                    }
                    let b = q.buckets.open_mut(k);
                    let st = b.state.get_or_insert_with(|| q.spec.op.zero(&self.registry));
                    q.spec.op.lift(&self.registry, st, member, tuple);
                    if track {
                        let tw = (true_now_us as i64).div_euclid(slide);
                        TruthMeta::add_opt(&mut b.truth, tw, 1);
                    }
                }
            }
            WindowKind::Tuples => {
                let frame = q.frame_now(self.cfg.indexing, local_now);
                q.tuple_buf.push((frame, tuple.clone()));
                q.tuples_seen += 1;
                let range = q.spec.window.range as usize;
                let slide = q.spec.window.slide;
                if q.tuples_seen % slide == 0 && q.tuple_buf.len() >= range.min(1) {
                    // Summarize the last `range` tuples.
                    let start = q.tuple_buf.len().saturating_sub(range);
                    let win = &q.tuple_buf[start..];
                    let mut st = q.spec.op.zero(&self.registry);
                    for (_, t) in win {
                        q.spec.op.lift(&self.registry, &mut st, member, t);
                    }
                    let tb = win.first().map(|(f, _)| *f).unwrap_or(frame);
                    let te = win.last().map(|(f, _)| *f + 1).unwrap_or(frame + 1);
                    q.stripe_rr = (q.stripe_rr + 1) % q.route_template.last_level.len().max(1);
                    let s = SummaryTuple {
                        tb,
                        te,
                        age_us: 0,
                        participants: 1,
                        has_value: true,
                        state: st,
                        route: q.route_template,
                        hops: 0,
                        stripe_tree: q.stripe_rr as u8,
                        truth: None,
                    };
                    let timeout = q.local_timeout_us(q.stripe_rr, 0);
                    q.ts.insert(&s, local_now, timeout);
                    self.stats.ts_peak_entries = self.stats.ts_peak_entries.max(q.ts.len() as u64);
                    // Trim the buffer.
                    let keep = q.tuple_buf.len().saturating_sub(range);
                    q.tuple_buf.drain(..keep);
                }
            }
        }
    }

    /// Closes every time window due at `local_now`, inserting its summary
    /// (or a boundary tuple) into the TS list.
    pub(crate) fn close_windows(&mut self, id: QueryId, local_now: i64) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        if !q.active() || q.spec.window.kind != WindowKind::Time {
            return;
        }
        let frame = q.frame_now(self.cfg.indexing, local_now);
        let slide = q.spec.window.slide as i64;
        let cur_k = frame.div_euclid(slide);
        if q.next_close_k < cur_k {
            // One roll per tick that closes a window: the estimators fold
            // the tick's maximum age (Section 4.3), and a tree that heard
            // nothing this tick catches up at its next commit
            // ([`NetDist::roll`]). Every window the tick closes rides the
            // same stripe tree, so the tick owes each query one next hop.
            q.netdist.iter_mut().for_each(NetDist::roll);
            q.stripe_rr = (q.stripe_rr + 1) % q.route_template.last_level.len().max(1);
        }
        let stripe = q.stripe_rr as u8;
        while q.next_close_k < cur_k {
            let k = q.next_close_k;
            q.next_close_k += 1;
            let (tb, te) = q.spec.window.interval_of(k);
            let bucket = q.buckets.close(k);
            // Inception is anchored at the *centre* of the identifying
            // interval: re-indexing from age then tolerates up to slide/2
            // of accumulated age error instead of flip-flopping across the
            // boundary (the tight dispersion bound of Section 5.1).
            let age = frame - (tb + te) / 2;
            let s = match bucket {
                Some(b) if b.state.is_some() => SummaryTuple {
                    tb,
                    te,
                    age_us: age,
                    participants: 1,
                    has_value: true,
                    state: b.state.expect("checked"),
                    route: q.route_template,
                    hops: 0,
                    stripe_tree: stripe,
                    truth: b.truth,
                },
                _ => {
                    // Stalled or empty source: boundary tuple keeps the
                    // completeness metric honest.
                    let mut b = SummaryTuple::boundary(tb, te, q.route_template);
                    b.age_us = age;
                    b.stripe_tree = stripe;
                    b
                }
            };
            let timeout = q.local_timeout_us(q.stripe_rr, s.age_us);
            q.ts.insert(&s, local_now, timeout);
            self.stats.ts_peak_entries = self.stats.ts_peak_entries.max(q.ts.len() as u64);
        }
        // Garbage-collect pathological bucket growth (timestamp mode with
        // huge offsets can mint far-future buckets), oldest first; under
        // the cap this is a single cheap comparison.
        q.buckets.truncate_oldest(BUCKET_GC_CAP);
    }

    /// Pumps the query's local source ([`crate::feed::Source::pump`]):
    /// every tuple due by now, from any kind of sensor, is written into the
    /// tick's scratch tuple `raw` and lifted. This is the one place a
    /// locally produced tuple is stamped, and it stamps at the tick's
    /// `local_now`, not at the production instant `at` the source reports
    /// (ROADMAP item 1).
    pub(crate) fn pump(&mut self, id: QueryId, ctx: &mut Ctx<'_, MortarMsg>, raw: &mut RawTuple) {
        let local_now = ctx.local_now_us();
        let true_now = ctx.true_now_us();
        let Some(q) = self.queries.get_mut(&id) else { return };
        if !q.active() {
            return;
        }
        // Sources speak query-frame time (offsets from the issue instant),
        // portable across clock skew.
        let frame_now = local_now - q.t_ref_base_us;
        // The source, the spec it reads and the peer's trace are held
        // apart from the peer for the round, so delivery can lift straight
        // into the operator; none of the three is copied.
        let spec = Arc::clone(&q.spec);
        let mut source = std::mem::take(&mut q.source);
        let trace = std::mem::take(&mut self.replay);
        source.pump(&spec.sensor, &trace, self.id, frame_now, raw, |_at, t| {
            self.ingest_raw(id, t, local_now, true_now);
        });
        self.replay = trace;
        if let Some(q) = self.queries.get_mut(&id) {
            q.source = source;
        }
    }

    /// Feeds a root emission into co-located queries subscribed to `name`
    /// (Section 2.2's composition). An id-keyed index lookup maintained at
    /// install/remove — not a scan over every installed query's sensor.
    /// The fed tuple `(value, participants)` is written into the tick's
    /// scratch tuple `raw`, so a feed allocates nothing per emission.
    pub(crate) fn feed_subscribers(
        &mut self,
        name: &str,
        value: f64,
        participants: u32,
        local_now: i64,
        true_now: u64,
        raw: &mut RawTuple,
    ) {
        raw.set(0, &[value, participants as f64]);
        // Re-resolve per step (a short hash lookup) so the borrow on the
        // index never spans the ingest call; no subscriber list is cloned.
        let mut i = 0;
        while let Some(&sub) = self.subscribers.get(name).and_then(|subs| subs.get(i)) {
            i += 1;
            self.ingest_raw(sub, raw, local_now, true_now);
            // A fed tuple-window subscriber may now hold a TS entry due
            // sooner than its scheduled instant (and a time-window one may
            // have minted buckets past the GC cap); keep the due index
            // honest. A subscriber this makes due now runs on the next
            // tick, never later in the current sweep.
            self.reschedule(sub);
        }
    }
}
