//! The application-facing surface of the runtime: the [`App`] state-machine
//! trait, the [`Ctx`] callback window, and the transport counters.
//!
//! An `App` cannot observe how many shards the
//! [`Simulator`](crate::runtime::Simulator) runs it on: every shard count
//! runs the same execution.

use crate::bandwidth::TrafficClass;
use crate::clock::LocalClock;
use crate::time::TimeUs;
use crate::NodeId;
use rand::rngs::SmallRng;

/// Per-packet transport overhead charged to bandwidth accounting
/// (20 B IPv4 + 8 B UDP + congestion-control/framing headers).
pub const TRANSPORT_OVERHEAD_BYTES: u32 = 56;

/// A simulated peer: a state machine driven by start/message/timer events.
pub trait App {
    /// Message payload type exchanged between peers.
    type Msg: Clone;

    /// Called once when the simulation starts (or the peer is injected).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a message from `from` is delivered.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: NodeId,
        msg: Self::Msg,
        bytes: u32,
    );

    /// Called when a timer armed via [`Ctx::set_timer_local_us`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: u64);
}

/// Deferred side effects produced by an application callback.
pub(crate) enum Command<M> {
    Send { to: NodeId, msg: M, bytes: u32, class: TrafficClass },
    Timer { local_delay_us: u64, tag: u64 },
    Stop,
}

/// The application's window into the simulated world during a callback.
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) true_now: TimeUs,
    pub(crate) clock: LocalClock,
    pub(crate) cmds: &'a mut Vec<Command<M>>,
    pub(crate) rng: &'a mut SmallRng,
}

impl<'a, M> Ctx<'a, M> {
    /// This peer's identifier.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The peer's local clock reading, microseconds (offset and skew apply).
    pub fn local_now_us(&self) -> i64 {
        self.clock.local_us(self.true_now)
    }

    /// True simulation time. **For metrics only** — protocol logic must use
    /// [`Ctx::local_now_us`] so the syncless experiments stay honest.
    pub fn true_now_us(&self) -> TimeUs {
        self.true_now
    }

    /// Sends `msg` to `to` as [`TrafficClass::Data`].
    pub fn send(&mut self, to: NodeId, msg: M, bytes: u32) {
        self.send_classified(to, msg, bytes, TrafficClass::Data);
    }

    /// Sends `msg` to `to` with an explicit traffic class.
    pub fn send_classified(&mut self, to: NodeId, msg: M, bytes: u32, class: TrafficClass) {
        self.cmds.push(Command::Send { to, msg, bytes, class });
    }

    /// Arms a one-shot timer `local_delay_us` of *local* clock time from now.
    pub fn set_timer_local_us(&mut self, local_delay_us: u64, tag: u64) {
        self.cmds.push(Command::Timer { local_delay_us, tag });
    }

    /// Requests the whole simulation to stop after this callback.
    pub fn stop(&mut self) {
        self.cmds.push(Command::Stop);
    }

    /// Deterministic randomness: each peer owns an independent stream,
    /// seeded per node at build (which is what keeps executions identical
    /// across shard counts).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

/// Counters describing transport behaviour over a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages delivered to an application.
    pub delivered: u64,
    /// Messages dropped: receiver/sender down or chaos loss.
    pub dropped: u64,
    /// Duplicate deliveries filtered by the dedup layer.
    pub duplicates_suppressed: u64,
}

impl SimStats {
    /// Adds another shard's counters (all fields are additive, so shard
    /// merges are order-independent).
    pub(crate) fn merge(&mut self, other: &SimStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicates_suppressed += other.duplicates_suppressed;
    }
}
