//! Ingest stage: sensor pumping, raw-tuple lift (merging across time), and
//! window close (Sections 4–5).

use super::{MortarPeer, BUCKET_GC_CAP};
use crate::msg::MortarMsg;
use crate::netdist::NetDist;
use crate::query::{QueryId, SensorSpec};
use crate::tuple::{RawTuple, SummaryTuple, TruthMeta};
use crate::window::WindowKind;
use mortar_net::Ctx;

/// A peer-resident replay trace (the trace-driven sensors of Section 7),
/// packed into four flat arrays: tuple `i` is due at local offset
/// `offs[i]` from its query's activation, carries key `keys[i]`, and its
/// fields are `vals[starts[i]..starts[i + 1]]` (the last tuple's run ends
/// at `vals.len()`). A 1-field tuple costs 8 + 8 + 4 + 8 = 28 B and no
/// allocation of its own, where a `(u64, RawTuple)` pair costs ~72 B (a
/// 40 B element plus a 32 B heap chunk for its field vector).
#[derive(Debug, Default)]
pub(crate) struct ReplayTrace {
    pub(crate) offs: Vec<u64>,
    keys: Vec<u64>,
    starts: Vec<u32>,
    vals: Vec<f64>,
}

impl ReplayTrace {
    /// Packs `(offset, tuple)` pairs, preserving their order.
    pub(crate) fn pack(trace: Vec<(u64, RawTuple)>) -> Self {
        let n = trace.len();
        let fields = trace.iter().map(|(_, t)| t.vals.len()).sum();
        let mut packed = Self {
            offs: Vec::with_capacity(n),
            keys: Vec::with_capacity(n),
            starts: Vec::with_capacity(n),
            vals: Vec::with_capacity(fields),
        };
        for (off, t) in trace {
            let start = u32::try_from(packed.vals.len()).expect("replay trace exceeds 2^32 fields");
            packed.offs.push(off);
            packed.keys.push(t.key);
            packed.starts.push(start);
            packed.vals.extend_from_slice(&t.vals);
        }
        packed
    }

    /// Writes tuple `i` into `out`, reusing `out`'s field buffer.
    pub(crate) fn load(&self, i: usize, out: &mut RawTuple) {
        let start = self.starts[i] as usize;
        let end = self.starts.get(i + 1).map_or(self.vals.len(), |&s| s as usize);
        out.set(self.keys[i], &self.vals[start..end]);
    }

    /// Heap bytes held, from the arrays' capacities.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offs.capacity() * size_of::<u64>()
            + self.keys.capacity() * size_of::<u64>()
            + self.starts.capacity() * size_of::<u32>()
            + self.vals.capacity() * size_of::<f64>()
    }
}

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
        let width = q.route_template.last_level.len().max(1);
        while q.next_close_k < cur_k {
            let k = q.next_close_k;
            q.next_close_k += 1;
            // One EWMA step per window slide: netDist is an EWMA of the
            // *per-window* maximum age sample (Section 4.3).
            q.netdist.iter_mut().for_each(NetDist::roll);
            let (tb, te) = q.spec.window.interval_of(k);
            let bucket = q.buckets.close(k);
            // Inception is anchored at the *centre* of the identifying
            // interval: re-indexing from age then tolerates up to slide/2
            // of accumulated age error instead of flip-flopping across the
            // boundary (the tight dispersion bound of Section 5.1).
            let age = frame - (tb + te) / 2;
            q.stripe_rr = (q.stripe_rr + 1) % width;
            let stripe = q.stripe_rr as u8;
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

    /// Pumps the query's local sensor for tuples due by now. The sensor
    /// spec is examined by reference — no per-tick clone of the spec (or
    /// of any upstream-name strings it carries) — and every due tuple is
    /// written into the tick's scratch tuple `raw`, so pumping allocates
    /// nothing per tuple.
    pub(crate) fn pump_sensor(
        &mut self,
        id: QueryId,
        ctx: &mut Ctx<'_, MortarMsg>,
        raw: &mut RawTuple,
    ) {
        let local_now = ctx.local_now_us();
        let true_now = ctx.true_now_us();
        let Some(q) = self.queries.get_mut(&id) else { return };
        if !q.active() {
            return;
        }
        match q.spec.sensor {
            SensorSpec::Periodic { period_us, value } => {
                let mut n_due = 0usize;
                while q.next_emit_local_us <= local_now {
                    q.next_emit_local_us += period_us as i64;
                    n_due += 1;
                }
                raw.set(0, &[value]);
                for _ in 0..n_due {
                    self.ingest_raw(id, raw, local_now, true_now);
                }
            }
            SensorSpec::Replay => {
                // The cursor is the query's own: every replay query walks
                // the whole trace from its own activation.
                let base = q.t_ref_base_us;
                let mut pos = q.replay_pos;
                while self.replay.offs.get(pos).is_some_and(|&off| base + off as i64 <= local_now) {
                    self.replay.load(pos, raw);
                    pos += 1;
                    self.ingest_raw(id, raw, local_now, true_now);
                }
                if let Some(q) = self.queries.get_mut(&id) {
                    q.replay_pos = pos;
                }
            }
            SensorSpec::Feed(_) => self.pump_feed(id, local_now, true_now),
            // Subscription ingest happens where the upstream root emits.
            SensorSpec::Subscribe { .. } | SensorSpec::None => {}
        }
    }

    /// One intake round for a feed-driven query: the feed drains its
    /// spill ring, polls its source under the intake policy's allowance,
    /// admits or drops per policy, and hands at most `drain_max` queued
    /// tuples to the operator. Bounded memory and exact accounting are the
    /// feed's contract ([`crate::feed::FeedState::pump`]); this shim only
    /// moves the delivered tuples into `ingest_raw`.
    fn pump_feed(&mut self, id: QueryId, local_now: i64, true_now: u64) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(mut feed) = q.feed.take() else { return };
        // Feed sources speak query-frame time (offsets from activation),
        // the same base replay traces use — portable across clock skew.
        let frame_now = local_now - q.t_ref_base_us;
        // The feed is moved out of the query for the round so delivery can
        // lift straight into the operator: the capped queue inside `feed`
        // is the only buffer a burst ever occupies.
        feed.pump(frame_now, |t| self.ingest_raw(id, &t, local_now, true_now));
        if let Some(q) = self.queries.get_mut(&id) {
            q.feed = Some(feed);
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
