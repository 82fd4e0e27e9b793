//! Ingestion: every tuple a peer produces locally comes from one source
//! model, whatever declared it — a Periodic sensor, a peer-resident
//! Replay trace, or a feed connector.
//!
//! A (peer, query) holds only a [`Source`]: a cursor (the next emission
//! instant in query-frame µs for a cadence, or the next index into a
//! trace) plus, for a [`SensorSpec::Feed`] only, a boxed [`Intake`]. What
//! a source emits is read at each pump from the shared spec (a
//! [`BurstProfile`], a feed's [`ReplayTrace`] or [`ChannelHub`]) or from
//! the peer's own packed trace; no source keeps a copy. One
//! [`Source::pump`] writes every due tuple into the caller's scratch
//! [`RawTuple`], and one [`Source::next_due_us`] answers when the source
//! next needs service.
//!
//! A feed adds an [`IntakePolicy`] between source and operator: what
//! happens when tuples arrive faster than the operator drains (the
//! AsterixDB fault-tolerant data-feeds model: spill / sample / shed /
//! backpressure, congestion handled inside the system). Sources are
//! cursor-based: a tuple that cannot be admitted right now (e.g. a paused
//! `Backpressure` feed) stays at the source and is offered again later —
//! pausing defers, it never loses. A Periodic or Replay sensor has no
//! intake: it never queues, never counts in `feed_totals`, and allocates
//! nothing per tuple.
//!
//! Intake memory is structurally bounded: the intake queue never holds
//! more than the policy's queue cap, and the `Spill` overflow ring never
//! holds more than its declared byte cap. [`FeedStats::overcap`] counts
//! violations of those bounds and is asserted zero by the chaos oracle and
//! the burst bench — "bounded" is checked, not eyeballed.

pub mod bursty;
pub mod channel;
pub mod replay;

pub use bursty::BurstProfile;
pub use channel::ChannelHub;
pub use replay::ReplayTrace;

use crate::query::SensorSpec;
use crate::tuple::RawTuple;
use mortar_net::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default intake-queue cap (tuples) for policies that do not bound the
/// queue themselves (`Sample`, `Spill`).
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// Default number of queued tuples drained into the operator per tick.
pub const DEFAULT_DRAIN_MAX: usize = 256;

/// Modelled in-memory cost of a raw tuple sitting in an intake queue:
/// fixed header plus its numeric fields. Used for every byte-cap check so
/// bounds are deterministic across platforms.
pub fn raw_cost_bytes(t: &RawTuple) -> u64 {
    24 + 8 * t.vals.len() as u64
}

/// Per-feed overload policy, declared at install time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntakePolicy {
    /// Bounded credit queue: the source is *not polled* while the queue
    /// holds `credits` tuples, so overload pauses the source instead of
    /// growing memory. Nothing is ever dropped; delivery is
    /// late-but-complete.
    Backpressure { credits: usize },
    /// Deterministic load shedding: tuples offered while the queue holds
    /// `watermark` tuples are dropped and counted in
    /// [`FeedStats::shed_tuples`].
    Shed { watermark: usize },
    /// Deterministic stride sampling: of every `keep_1_in_n` consecutive
    /// tuples offered, the first is admitted and the rest are counted in
    /// [`FeedStats::sampled_out`]. The residual stream is still shed past
    /// [`DEFAULT_QUEUE_CAP`] so intake stays bounded.
    Sample { keep_1_in_n: u32 },
    /// Overflow past [`DEFAULT_QUEUE_CAP`] lands in a byte-bounded spill
    /// ring (≤ `cap_bytes`) that drains back into the queue when pressure
    /// clears; tuples that do not fit the ring are counted in
    /// [`FeedStats::spill_drops`].
    Spill { cap_bytes: u64 },
}

impl IntakePolicy {
    /// Structural bound on the intake queue, in tuples.
    pub fn queue_cap(&self) -> usize {
        match *self {
            IntakePolicy::Backpressure { credits } => credits.max(1),
            IntakePolicy::Shed { watermark } => watermark.max(1),
            IntakePolicy::Sample { .. } | IntakePolicy::Spill { .. } => DEFAULT_QUEUE_CAP,
        }
    }

    /// Byte cap of the spill ring (0 for non-spill policies).
    pub fn spill_cap_bytes(&self) -> u64 {
        match *self {
            IntakePolicy::Spill { cap_bytes } => cap_bytes,
            _ => 0,
        }
    }
}

/// What produces a feed's tuples, shared by every member through the
/// query's spec. Times are *query-frame* microseconds: offsets from the
/// query's issue instant, the base a peer-resident replay trace uses, so
/// sources are portable across clock skew. Each member's emissions are a
/// pure function of (spec, node id, cursor), hence identical across shard
/// counts.
#[derive(Debug, Clone)]
pub enum FeedConnector {
    /// Replays a recorded trace of (frame-offset µs, tuple) pairs.
    Replay { trace: Arc<ReplayTrace> },
    /// Deterministic synthetic load with an optional burst window.
    Bursty(BurstProfile),
    /// Drains tuples pushed into a shared per-node hub from outside the
    /// engine (tests, bridges). Pushes made while the engine is idle are
    /// picked up deterministically on the next tick.
    Channel { hub: Arc<ChannelHub> },
}

impl PartialEq for FeedConnector {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FeedConnector::Replay { trace: a }, FeedConnector::Replay { trace: b }) => a == b,
            (FeedConnector::Bursty(a), FeedConnector::Bursty(b)) => a == b,
            (FeedConnector::Channel { hub: a }, FeedConnector::Channel { hub: b }) => {
                Arc::ptr_eq(a, b)
            }
            _ => false,
        }
    }
}

/// A feed declaration: connector + intake policy + drain rate. Lives in
/// [`SensorSpec::Feed`].
#[derive(Debug, Clone, PartialEq)]
pub struct FeedSpec {
    pub connector: FeedConnector,
    pub policy: IntakePolicy,
    /// Max tuples moved from the intake queue into the operator per tick;
    /// the knob that turns a burst into sustained, bounded drain work.
    pub drain_max: usize,
}

impl FeedSpec {
    pub fn new(connector: FeedConnector, policy: IntakePolicy) -> Self {
        Self { connector, policy, drain_max: DEFAULT_DRAIN_MAX }
    }
}

/// Exact intake accounting. Conservation invariant (checked by tests and
/// the chaos oracle): `offered == delivered + shed_tuples + sampled_out +
/// spill_drops + (still queued) + (still spilled)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedStats {
    /// Tuples the source handed to intake.
    pub offered: u64,
    /// Tuples drained into the operator.
    pub delivered: u64,
    /// Tuples dropped at the queue watermark (`Shed`, and `Sample`'s
    /// residual bound).
    pub shed_tuples: u64,
    /// Tuples removed by stride sampling.
    pub sampled_out: u64,
    /// Tuples that entered the spill ring (may since have drained).
    pub spilled: u64,
    /// Tuples dropped because the spill ring's byte cap was full.
    pub spill_drops: u64,
    /// High-water mark of intake-queue bytes.
    pub peak_queue_bytes: u64,
    /// High-water mark of spill-ring bytes.
    pub peak_spill_bytes: u64,
    /// Times a structural bound was exceeded — always 0 by construction;
    /// asserted by the feed-bounds oracle.
    pub overcap: u64,
}

impl FeedStats {
    /// Sums another feed's counters into this one (peaks take the max).
    pub fn absorb(&mut self, o: &FeedStats) {
        self.offered += o.offered;
        self.delivered += o.delivered;
        self.shed_tuples += o.shed_tuples;
        self.sampled_out += o.sampled_out;
        self.spilled += o.spilled;
        self.spill_drops += o.spill_drops;
        self.peak_queue_bytes = self.peak_queue_bytes.max(o.peak_queue_bytes);
        self.peak_spill_bytes = self.peak_spill_bytes.max(o.peak_spill_bytes);
        self.overcap += o.overcap;
    }
}

/// Where one pump reads its tuples from: a cadence (a Periodic sensor or
/// a Bursty feed), a packed trace (the peer's, or a replay feed's), or a
/// channel hub.
enum Emitter<'a> {
    Cadence(BurstProfile),
    Trace(&'a ReplayTrace),
    Channel(&'a ChannelHub, NodeId),
    Silent,
}

impl<'a> Emitter<'a> {
    fn of(sensor: &'a SensorSpec, peer_trace: &'a ReplayTrace, node: NodeId) -> Self {
        match sensor {
            SensorSpec::Periodic { period_us, value } => {
                Emitter::Cadence(BurstProfile::steady(*period_us, *value))
            }
            SensorSpec::Replay => Emitter::Trace(peer_trace),
            SensorSpec::Feed(fs) => match &fs.connector {
                FeedConnector::Bursty(profile) => Emitter::Cadence(*profile),
                FeedConnector::Replay { trace } => Emitter::Trace(trace),
                FeedConnector::Channel { hub } => Emitter::Channel(hub, node),
            },
            // Subscription ingest happens where the upstream root emits.
            SensorSpec::Subscribe { .. } | SensorSpec::None => Emitter::Silent,
        }
    }

    /// Writes the next tuple due by `frame_now_us` into `out`, advances
    /// `cursor` and returns the tuple's production instant (query-frame
    /// µs; a channel's tuple is produced when it is drained); `None` when
    /// nothing more is due.
    fn emit(&self, cursor: &mut i64, frame_now_us: i64, out: &mut RawTuple) -> Option<i64> {
        match self {
            Emitter::Cadence(profile) => profile.emit(cursor, frame_now_us, out),
            Emitter::Trace(trace) => trace.emit(cursor, frame_now_us, out),
            Emitter::Channel(hub, node) => hub.emit(*node, out).then_some(frame_now_us),
            Emitter::Silent => None,
        }
    }

    fn next_due_us(&self, cursor: i64) -> i64 {
        match self {
            Emitter::Cadence(profile) => profile.next_due_us(cursor),
            Emitter::Trace(trace) => trace.next_due_us(cursor),
            // External pushes cannot wake the simulated clock, so a
            // channel asks to be polled every tick.
            Emitter::Channel(..) => i64::MIN,
            Emitter::Silent => i64::MAX,
        }
    }
}

/// One (peer, query)'s ingestion state: a cursor, and an intake iff the
/// sensor is a feed.
#[derive(Debug, Default)]
pub struct Source {
    /// A cadence's next emission instant (query-frame µs), or a trace's
    /// next index; unused by a channel.
    cursor: i64,
    /// Queue, spill ring and ledger between a feed's connector and the
    /// operator. Boxed: a Periodic or Replay sensor pays one pointer.
    intake: Option<Box<Intake>>,
}

impl Source {
    /// The source of a query whose frame reads `frame_now_us` as it goes
    /// active: a Periodic sensor emits at once and every period after; a
    /// Bursty feed one period into the frame; a trace from its first
    /// tuple.
    pub fn new(sensor: &SensorSpec, frame_now_us: i64) -> Self {
        match sensor {
            SensorSpec::Periodic { .. } => Self { cursor: frame_now_us, intake: None },
            SensorSpec::Feed(fs) => Self {
                cursor: match &fs.connector {
                    FeedConnector::Bursty(profile) => profile.first_emit_us(),
                    FeedConnector::Replay { .. } | FeedConnector::Channel { .. } => 0,
                },
                intake: Some(Box::new(Intake::new(fs))),
            },
            _ => Self::default(),
        }
    }

    /// Hands every tuple due by `frame_now_us` to `deliver`, with its
    /// production instant in query-frame µs, each written into the
    /// scratch tuple `raw` first. A Periodic or Replay sensor delivers
    /// straight from its cursor, allocating nothing per tuple; a feed runs
    /// one intake round ([`Intake`]) and delivers what it drains at
    /// `frame_now_us`. `peer_trace` and `node` are the pumping peer's
    /// replay trace and id. Returns the number of tuples delivered.
    pub fn pump(
        &mut self,
        sensor: &SensorSpec,
        peer_trace: &ReplayTrace,
        node: NodeId,
        frame_now_us: i64,
        raw: &mut RawTuple,
        mut deliver: impl FnMut(i64, &RawTuple),
    ) -> u64 {
        let from = Emitter::of(sensor, peer_trace, node);
        let Some(intake) = self.intake.as_deref_mut() else {
            let mut delivered = 0;
            while let Some(at) = from.emit(&mut self.cursor, frame_now_us, raw) {
                deliver(at, raw);
                delivered += 1;
            }
            return delivered;
        };
        intake.pump(
            |raw| from.emit(&mut self.cursor, frame_now_us, raw).is_some(),
            raw,
            |t| deliver(frame_now_us, t),
        )
    }

    /// Query-frame instant this source next needs a pump: `i64::MIN` while
    /// intake holds tuples or for a channel (every tick), `i64::MAX` when
    /// nothing more will come.
    pub fn next_due_us(&self, sensor: &SensorSpec, peer_trace: &ReplayTrace, node: NodeId) -> i64 {
        if self.intake.as_ref().is_some_and(|i| i.has_pending()) {
            return i64::MIN;
        }
        Emitter::of(sensor, peer_trace, node).next_due_us(self.cursor)
    }

    /// The feed intake, if the sensor is a feed.
    pub fn intake(&self) -> Option<&Intake> {
        self.intake.as_deref()
    }
}

/// A feed's intake: the bounded queue, the spill ring, and exact
/// accounting.
#[derive(Debug)]
pub struct Intake {
    policy: IntakePolicy,
    drain_max: usize,
    queue: VecDeque<RawTuple>,
    queue_bytes: u64,
    spill: VecDeque<RawTuple>,
    spill_bytes: u64,
    sample_seen: u64,
    pub stats: FeedStats,
}

impl Intake {
    fn new(fs: &FeedSpec) -> Self {
        Self {
            policy: fs.policy,
            drain_max: fs.drain_max.max(1),
            queue: VecDeque::new(),
            queue_bytes: 0,
            spill: VecDeque::new(),
            spill_bytes: 0,
            sample_seen: 0,
            stats: FeedStats::default(),
        }
    }

    /// Bytes currently held across queue and spill ring.
    pub fn held_bytes(&self) -> u64 {
        self.queue_bytes + self.spill_bytes
    }

    /// True when either buffer still holds tuples awaiting drain.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty() || !self.spill.is_empty()
    }

    /// How many tuples the source may be offered right now. `Backpressure`
    /// pauses the source (polls nothing) when credits are exhausted; every
    /// other policy polls freely and resolves pressure at admission.
    fn poll_allowance(&self) -> usize {
        match self.policy {
            IntakePolicy::Backpressure { credits } => {
                credits.max(1).saturating_sub(self.queue.len())
            }
            _ => usize::MAX,
        }
    }

    /// One intake round: drain the spill ring back into the queue while
    /// pressure is clear, offer the source's due tuples (each written into
    /// `raw` by `emit`) under the policy's allowance, admit per policy,
    /// then hand up to `drain_max` queued tuples to `deliver`. Returns the
    /// number delivered.
    fn pump(
        &mut self,
        mut emit: impl FnMut(&mut RawTuple) -> bool,
        raw: &mut RawTuple,
        mut deliver: impl FnMut(&RawTuple),
    ) -> u64 {
        let cap = self.policy.queue_cap();
        // Spill ring drains first: oldest overflow re-enters the queue as
        // soon as pressure clears, preserving arrival order.
        while self.queue.len() < cap {
            let Some(t) = self.spill.pop_front() else { break };
            self.spill_bytes -= raw_cost_bytes(&t);
            self.enqueue(t);
        }
        for _ in 0..self.poll_allowance() {
            if !emit(raw) {
                break;
            }
            self.stats.offered += 1;
            self.admit(raw, cap);
        }
        let mut delivered = 0u64;
        while delivered < self.drain_max as u64 {
            let Some(t) = self.queue.pop_front() else { break };
            self.queue_bytes -= raw_cost_bytes(&t);
            deliver(&t);
            delivered += 1;
        }
        self.stats.delivered += delivered;
        if self.queue.len() > cap || self.spill_bytes > self.policy.spill_cap_bytes() {
            self.stats.overcap += 1;
        }
        delivered
    }

    /// Admits one offered tuple under the declared policy, copying it only
    /// if it is kept.
    fn admit(&mut self, t: &RawTuple, cap: usize) {
        if let IntakePolicy::Sample { keep_1_in_n } = self.policy {
            let n = u64::from(keep_1_in_n.max(1));
            let keep = self.sample_seen.is_multiple_of(n);
            self.sample_seen += 1;
            if !keep {
                self.stats.sampled_out += 1;
                return;
            }
        }
        if self.queue.len() < cap {
            self.enqueue(t.clone());
            return;
        }
        match self.policy {
            // Backpressure never polls past its credits, so arriving here
            // would mean the allowance accounting broke.
            IntakePolicy::Backpressure { .. } => {
                self.stats.overcap += 1;
            }
            IntakePolicy::Shed { .. } | IntakePolicy::Sample { .. } => {
                self.stats.shed_tuples += 1;
            }
            IntakePolicy::Spill { cap_bytes } => {
                let c = raw_cost_bytes(t);
                if self.spill_bytes + c <= cap_bytes {
                    self.spill_bytes += c;
                    self.spill.push_back(t.clone());
                    self.stats.spilled += 1;
                    self.stats.peak_spill_bytes = self.stats.peak_spill_bytes.max(self.spill_bytes);
                } else {
                    self.stats.spill_drops += 1;
                }
            }
        }
    }

    fn enqueue(&mut self, t: RawTuple) {
        self.queue_bytes += raw_cost_bytes(&t);
        self.queue.push_back(t);
        self.stats.peak_queue_bytes = self.stats.peak_queue_bytes.max(self.queue_bytes);
    }

    /// Conservation check: every offered tuple is delivered, counted as
    /// dropped, or still buffered.
    pub fn conserved(&self) -> bool {
        self.stats.offered
            == self.stats.delivered
                + self.stats.shed_tuples
                + self.stats.sampled_out
                + self.stats.spill_drops
                + self.queue.len() as u64
                + self.spill.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A member of a replay feed over a `trace_len`-tuple trace (tuple `i`
    /// due at frame µs `i`), drained `drain_max` tuples per pump.
    fn member(policy: IntakePolicy, trace_len: u64, drain_max: usize) -> (SensorSpec, Source) {
        let trace: Vec<(u64, RawTuple)> =
            (0..trace_len).map(|i| (i, RawTuple::of(i as f64))).collect();
        let trace = Arc::new(ReplayTrace::pack(trace));
        let mut spec = FeedSpec::new(FeedConnector::Replay { trace }, policy);
        spec.drain_max = drain_max;
        let sensor = SensorSpec::Feed(spec);
        let source = Source::new(&sensor, 0);
        (sensor, source)
    }

    fn pump(
        sensor: &SensorSpec,
        f: &mut Source,
        now: i64,
        mut deliver: impl FnMut(&RawTuple),
    ) -> u64 {
        f.pump(sensor, &ReplayTrace::default(), 0, now, &mut RawTuple::default(), |_, t| deliver(t))
    }

    fn intake(f: &Source) -> &Intake {
        f.intake().expect("a feed has an intake")
    }

    #[test]
    fn backpressure_defers_and_loses_nothing() {
        let (sensor, mut f) = member(IntakePolicy::Backpressure { credits: 4 }, 100, 2);
        let mut got = 0u64;
        for _ in 0..200 {
            got += pump(&sensor, &mut f, 1_000_000, |_| {});
            assert!(intake(&f).queue.len() <= 4, "credits exceeded");
            assert!(intake(&f).conserved());
        }
        assert_eq!(got, 100);
        let s = intake(&f).stats;
        assert_eq!(s.shed_tuples + s.sampled_out + s.spill_drops, 0);
    }

    #[test]
    fn shed_counts_every_drop_exactly() {
        let (sensor, mut f) = member(IntakePolicy::Shed { watermark: 8 }, 100, 1);
        for _ in 0..300 {
            pump(&sensor, &mut f, 1_000_000, |_| {});
            assert!(intake(&f).conserved());
        }
        let s = intake(&f).stats;
        assert_eq!(s.offered, 100);
        assert!(s.shed_tuples > 0);
        assert_eq!(s.delivered + s.shed_tuples, 100);
    }

    #[test]
    fn sample_keeps_exact_stride() {
        let (sensor, mut f) =
            member(IntakePolicy::Sample { keep_1_in_n: 4 }, 100, DEFAULT_DRAIN_MAX);
        let mut vals = Vec::new();
        for _ in 0..100 {
            pump(&sensor, &mut f, 1_000_000, |t| vals.push(t.field(0)));
            assert!(intake(&f).conserved());
        }
        assert_eq!(intake(&f).stats.sampled_out, 75);
        assert_eq!(vals, (0..100).step_by(4).map(|v| v as f64).collect::<Vec<_>>());
    }

    #[test]
    fn spill_ring_is_byte_bounded_and_drains() {
        let cap = 40 * raw_cost_bytes(&RawTuple::of(0.0));
        let (sensor, mut f) = member(IntakePolicy::Spill { cap_bytes: cap }, 3000, 16);
        let mut got = 0u64;
        for _ in 0..400 {
            got += pump(&sensor, &mut f, 10_000_000, |_| {});
            assert!(intake(&f).spill_bytes <= cap, "spill ring over cap");
            assert!(intake(&f).conserved());
        }
        let s = intake(&f).stats;
        assert_eq!(s.overcap, 0);
        assert!(s.spilled >= 40);
        assert_eq!(got + s.spill_drops, 3000);
    }
}
