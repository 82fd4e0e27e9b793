//! The event core: [`Simulator`] and the shards it runs.
//!
//! A [`Simulator`] partitions the fleet into contiguous shards. Each shard
//! owns everything its peers touch — their application state, clocks,
//! liveness flags, RNG streams, in-flight duplicate pairs, a private event
//! heap, and a private bandwidth/stats tracker — and runs the only event
//! loop in the crate: pop an event, dispatch it to its peer, apply the
//! callback's commands. Shards share nothing while they run and merge accounting
//! additively afterward.
//!
//! With one shard (what [`SimBuilder::build`](crate::SimBuilder::build)
//! gives), `run_until` drives that shard straight to the deadline on the
//! caller's thread: no thread scope, no barrier, no mailboxes. With more,
//! shard 0 runs on the caller's thread and the rest on scoped worker
//! threads, under the window protocol below.
//!
//! # Conservative-window protocol (`shards > 1`)
//!
//! Workers advance in lockstep through half-open windows `(start, end]`
//! with `end − start ≤ L`, where the lookahead `L` is
//! [`Topology::min_latency_us`] — the smallest latency between two distinct
//! hosts. Any send processed at `t > start` arrives at `t + latency ≥
//! t + L > end`, so no event generated inside a window can land inside the
//! same window on another shard; timers and same-shard sends go straight
//! into the local heap and need no lookahead. After processing a window,
//! each worker:
//!
//! 1. appends cross-shard sends to per-`(src, dst)` mailboxes, then waits
//!    on a barrier (all sends of the window are now visible),
//! 2. drains its incoming mailboxes into its heap, publishes its earliest
//!    pending event time, then waits on a second barrier,
//! 3. computes the global minimum `m` of the published times — every
//!    worker sees the same array, so all agree without further traffic —
//!    and either terminates (deadline/stop) or opens the next window
//!    `(m − 1, min(m − 1 + L, deadline)]`, skipping dead air in one hop.
//!
//! # Determinism contract
//!
//! The execution is a pure function of the seed, *independent of the shard
//! count*, because nothing observable depends on where a peer lives:
//!
//! - each peer draws from its own RNG stream, seeded per node at build;
//! - chaos (drop/dup/jitter) draws come from the *sender's* stream at
//!   transmit time, and the sender processes its events in a deterministic
//!   order;
//! - every event carries a globally unique key `(time, origin, origin_seq)`
//!   (packed into the `seq` tie-breaker), so each shard's heap pops in an
//!   order that does not depend on insertion (= arrival) order;
//! - message ids are minted per sender, both copies of a duplicated
//!   message go to one receiver (so its pair lives in that receiver's
//!   shard), and clock assignment happens at build, before partitioning;
//! - bandwidth buckets, message counts, and transport stats are sums, so
//!   the per-shard → merged reduction is order-independent.
//!
//! So one shard and N shards run the same execution; the one-shard path is
//! simply that execution without the window machinery.
//!
//! Two caveats hold only when `shards > 1`. [`Ctx::stop`] halts at window
//! granularity: peers on other shards finish the current window first, so
//! *which* trailing events run is shard-layout dependent (everything before
//! the stop request is not). And an `App` panic on a worker leaves the
//! other workers waiting at the barrier, so the run hangs instead of
//! unwinding. With one shard, `stop` halts after the requesting callback
//! and a panic unwinds to the caller like any other.

use crate::bandwidth::{BandwidthTracker, TrafficClass};
use crate::chaos::{ChaosConfig, LinkLossMap, PartitionMap};
use crate::clock::LocalClock;
use crate::event::{Event, EventKind};
use crate::runtime::ctx::{App, Command, Ctx, SimStats, TRANSPORT_OVERHEAD_BYTES};
use crate::time::{secs, TimeUs};
use crate::topology::Topology;
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Synthetic origin id for driver-side [`Simulator::inject`] calls,
/// keeping injected events and message ids outside every peer's namespace.
const INJECT_ORIGIN: NodeId = NodeId::MAX;

/// Packs `(origin, per-origin counter)` into the event `seq` tie-breaker /
/// message id. Heap order becomes `(time, origin, origin_seq)`: globally
/// unique and independent of which shard inserted the event when.
fn key(origin: NodeId, counter: u64) -> u64 {
    debug_assert!(counter < 1 << 32, "per-origin event counter overflow");
    ((origin as u64) << 32) | counter
}

/// One mailbox: the events shard `src` owes shard `dst` after a window.
type Mailbox<M> = Mutex<Vec<Event<M>>>;

/// Shared per-run coordination state for the window protocol.
struct WindowSync {
    barrier: Barrier,
    /// Earliest pending event per shard, published between the barriers.
    mins: Vec<AtomicU64>,
    /// Set when any peer requested [`Ctx::stop`]; sticky for the run.
    app_stop: AtomicBool,
}

/// A shard: a contiguous range of peers plus everything they own, and the
/// event loop that drives them.
struct Shard<A: App> {
    index: usize,
    /// First global node id in this shard (`nodes = lo..lo + apps.len()`).
    lo: NodeId,
    topo: Arc<Topology>,
    node_shard: Arc<Vec<u32>>,
    chaos: ChaosConfig,
    /// Full-fleet partition state; every shard holds a copy because a
    /// sender needs both endpoints' group labels. Mutations are rare
    /// (driver-side, between run steps) so the copies are pushed eagerly.
    partition: PartitionMap,
    /// Full-fleet lossy-link state; same per-shard-copy discipline as
    /// `partition` (the sender's shard decides the drop).
    link_loss: LinkLossMap,
    apps: Vec<A>,
    clocks: Vec<LocalClock>,
    up: Vec<bool>,
    /// Independent per-peer RNG streams (indexed like `apps`).
    rngs: Vec<SmallRng>,
    /// Per-peer event-key counters (heap tie-breaking).
    ev_seq: Vec<u64>,
    /// Per-peer message-id counters (duplicate identity).
    msg_seq: Vec<u64>,
    heap: BinaryHeap<Event<A::Msg>>,
    now: TimeUs,
    bw: BandwidthTracker,
    /// Duplicated messages addressed to this shard's peers with one copy
    /// still in flight: id → whether the copy that arrived first was
    /// delivered. The first copy inserts, the second removes, so the map
    /// holds only pairs straddling the present instant.
    dup_pairs: HashMap<u64, bool>,
    stats: SimStats,
    cmd_buf: Vec<Command<A::Msg>>,
    /// Cross-shard sends staged during a window, per destination shard.
    outgoing: Vec<Vec<Event<A::Msg>>>,
    stop: bool,
}

impl<A: App> Shard<A> {
    fn li(&self, node: NodeId) -> usize {
        (node - self.lo) as usize
    }

    /// The window loop for one multi-shard `run_until` call. Every shard
    /// executes this same function (shard 0 on the caller's thread); all
    /// shards make identical continue/terminate decisions because they
    /// compute them from the same published state after the same barrier.
    fn worker(
        &mut self,
        sync: &WindowSync,
        mailboxes: &[Mailbox<A::Msg>],
        deadline: TimeUs,
        lookahead: u64,
        do_start: bool,
    ) {
        let nshards = self.outgoing.len();
        if do_start {
            self.start();
        }
        let mut win_end = self.now;
        loop {
            self.process_window(win_end);
            for dst in 0..nshards {
                if dst != self.index && !self.outgoing[dst].is_empty() {
                    // A poisoned mailbox means another worker panicked; the
                    // event vector itself is still intact (appends are
                    // all-or-nothing), so take the guard rather than
                    // panicking here too and deadlocking the barrier.
                    let mut mb = mailboxes[self.index * nshards + dst]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    mb.append(&mut self.outgoing[dst]);
                }
            }
            sync.barrier.wait();
            for src in 0..nshards {
                if src != self.index {
                    let mut mb = mailboxes[src * nshards + self.index]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    self.heap.extend(mb.drain(..));
                }
            }
            let next = self.heap.peek().map_or(u64::MAX, |ev| ev.time);
            sync.mins[self.index].store(next, Ordering::SeqCst);
            if self.stop {
                sync.app_stop.store(true, Ordering::SeqCst);
            }
            sync.barrier.wait();
            if sync.app_stop.load(Ordering::SeqCst) {
                break;
            }
            let gmin = sync.mins.iter().map(|m| m.load(Ordering::SeqCst)).min().unwrap_or(u64::MAX);
            if gmin > deadline {
                self.now = deadline;
                break;
            }
            // Open the next window right at the earliest pending event;
            // `end − start = lookahead` keeps cross-shard arrivals out.
            win_end = gmin.saturating_sub(1).saturating_add(lookahead).min(deadline);
        }
    }

    /// Runs every peer's `on_start` in node order, halting right after a
    /// callback that requested [`Ctx::stop`].
    fn start(&mut self) {
        for i in 0..self.apps.len() {
            if self.stop {
                break;
            }
            let node = self.lo + i as NodeId;
            self.with_ctx(node, |app, ctx| app.on_start(ctx));
        }
    }

    /// Dispatches every event due by `win_end`, then advances the shard's
    /// clock to `win_end` (unless a peer stopped the run).
    fn process_window(&mut self, win_end: TimeUs) {
        while self.heap.peek().is_some_and(|ev| ev.time <= win_end) && !self.stop {
            let Some(ev) = self.heap.pop() else { break };
            self.now = ev.time;
            self.dispatch(ev.kind);
        }
        if !self.stop && self.now < win_end {
            self.now = win_end;
        }
    }

    fn dispatch(&mut self, kind: EventKind<A::Msg>) {
        match kind {
            EventKind::Deliver { to, from, msg, bytes, id, dup } => {
                let up = self.up[self.li(to)];
                // Exactly-once delivery: the second copy of a pair is
                // suppressed only if it reaches a live host after the first
                // was delivered; a copy reaching a down host is dropped.
                if dup {
                    match self.dup_pairs.remove(&id) {
                        None => {
                            self.dup_pairs.insert(id, up);
                        }
                        Some(true) if up => {
                            self.stats.duplicates_suppressed += 1;
                            return;
                        }
                        Some(_) => {}
                    }
                }
                if !up {
                    self.stats.dropped += 1;
                    return;
                }
                self.stats.delivered += 1;
                self.with_ctx(to, |app, ctx| app.on_message(ctx, from, msg, bytes));
            }
            EventKind::Timer { node, tag } => {
                self.with_ctx(node, |app, ctx| app.on_timer(ctx, tag));
            }
        }
    }

    fn with_ctx(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>)) {
        let li = self.li(node);
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        {
            let mut ctx = Ctx {
                node,
                true_now: self.now,
                clock: self.clocks[li],
                cmds: &mut cmds,
                rng: &mut self.rngs[li],
            };
            f(&mut self.apps[li], &mut ctx);
        }
        for cmd in cmds.drain(..) {
            self.apply(node, cmd);
        }
        self.cmd_buf = cmds;
    }

    fn apply(&mut self, node: NodeId, cmd: Command<A::Msg>) {
        match cmd {
            Command::Send { to, msg, bytes, class } => self.transmit(node, to, msg, bytes, class),
            Command::Timer { local_delay_us, tag } => {
                let delay = self.clocks[self.li(node)].true_delay(local_delay_us).max(1);
                let time = self.now + delay;
                self.push_from(node, time, EventKind::Timer { node, tag });
            }
            Command::Stop => self.stop = true,
        }
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, msg: A::Msg, bytes: u32, class: TrafficClass) {
        self.stats.sent += 1;
        let fli = self.li(from);
        if !self.up[fli] {
            self.stats.dropped += 1;
            return;
        }
        if to as usize >= self.node_shard.len() {
            self.stats.dropped += 1;
            return;
        }
        self.bw.record(self.now, class, bytes + TRANSPORT_OVERHEAD_BYTES, self.topo.hops(from, to));
        // Partition cut: charged like loss, before any chaos RNG draw so
        // partition toggles never perturb the sender's chaos stream.
        if self.partition.blocks(from, to) {
            self.stats.dropped += 1;
            return;
        }
        // Targeted link loss: rolled only for configured pairs (after the
        // partition check) and on the *sender's* stream, so it is both
        // shard-count-invariant and invisible to every other link's RNG.
        if self.link_loss.is_active() {
            let pct = self.link_loss.pct_for(from, to);
            if pct > 0.0 && self.rngs[fli].gen::<f64>() < pct {
                self.stats.dropped += 1;
                return;
            }
        }
        if self.chaos.drop_prob > 0.0 && self.rngs[fli].gen::<f64>() < self.chaos.drop_prob {
            self.stats.dropped += 1;
            return;
        }
        let base = self.topo.latency_us(from, to);
        let id = key(from, self.msg_seq[fli]);
        self.msg_seq[fli] += 1;
        let dup = self.chaos.dup_prob > 0.0 && self.rngs[fli].gen::<f64>() < self.chaos.dup_prob;
        // The clone goes first and the original moves last, each drawing
        // its jitter in turn, with no `Option` dance a panic path could
        // hide in.
        if dup {
            let time = self.now + base + self.jitter(fli);
            let payload = msg.clone();
            let kind = EventKind::Deliver { to, from, msg: payload, bytes, id, dup };
            self.push_from(from, time, kind);
        }
        let time = self.now + base + self.jitter(fli);
        self.push_from(from, time, EventKind::Deliver { to, from, msg, bytes, id, dup });
    }

    /// One chaos reorder delay, drawn from the sender's stream.
    fn jitter(&mut self, fli: usize) -> u64 {
        if self.chaos.reorder_jitter_us > 0 {
            self.rngs[fli].gen_range(0..=self.chaos.reorder_jitter_us)
        } else {
            0
        }
    }

    /// Mints the event key from `origin`'s counter and routes the event to
    /// the owning shard's heap (local) or staging queue (cross-shard).
    fn push_from(&mut self, origin: NodeId, time: TimeUs, kind: EventKind<A::Msg>) {
        let li = self.li(origin);
        let seq = key(origin, self.ev_seq[li]);
        self.ev_seq[li] += 1;
        let owner = match &kind {
            EventKind::Deliver { to, .. } => self.node_shard[*to as usize] as usize,
            EventKind::Timer { .. } => self.index,
        };
        let ev = Event { time, seq, kind };
        if owner == self.index {
            self.heap.push(ev);
        } else {
            self.outgoing[owner].push(ev);
        }
    }
}

/// The simulator: owns all peers (in one or more shards), the event heaps,
/// and global time. See the module docs for the shard layout, the window
/// protocol and the determinism contract.
///
/// # Re-entrancy
///
/// [`Simulator::run_until`] is fully re-entrant: all state that accumulates
/// across a run — the event heaps, the current instant, bandwidth buckets
/// (keyed by absolute simulation second), in-flight duplicate pairs, and transport
/// counters — lives on `self` and is *never* rebuilt per call. Running to a
/// deadline in many small steps is bit-for-bit identical to one large step,
/// which is what the bench harness's warm-up/measure splits and best-of-N
/// loops rely on. `on_start` runs exactly once (first call), and a
/// [`Ctx::stop`] request is permanent: subsequent calls return without
/// dispatching.
pub struct Simulator<A: App> {
    shards: Vec<Shard<A>>,
    node_shard: Arc<Vec<u32>>,
    topo: Arc<Topology>,
    lookahead_us: u64,
    now: TimeUs,
    started: bool,
    stop: bool,
    inject_seq: u64,
    /// Merged bandwidth of a multi-shard run (refreshed after every run
    /// step); a single shard's own tracker is read directly.
    merged_bw: BandwidthTracker,
}

impl<A: App> Simulator<A> {
    pub(crate) fn new(
        topo: Topology,
        seed: u64,
        chaos: ChaosConfig,
        clocks: Vec<LocalClock>,
        shards: usize,
        mut make: impl FnMut(NodeId) -> A,
    ) -> Self {
        let n = topo.hosts();
        let nshards = shards.clamp(1, n.max(1));
        // Shard-count-independent per-node streams: seeds are drawn in node
        // order from one seeding stream, before any partitioning happens.
        let mut seeder = SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A_C3C3_3C3C);
        let mut rngs: Vec<SmallRng> =
            (0..n).map(|_| SmallRng::seed_from_u64(seeder.next_u64())).collect();
        let mut apps: Vec<A> = (0..n as NodeId).map(&mut make).collect();
        let mut clocks = clocks;
        // Contiguous near-even partition: shard s owns [s·n/N, (s+1)·n/N).
        let bound = |s: usize| s * n / nshards;
        let mut node_shard = vec![0u32; n];
        for s in 0..nshards {
            for slot in node_shard.iter_mut().take(bound(s + 1)).skip(bound(s)) {
                *slot = s as u32;
            }
        }
        let node_shard = Arc::new(node_shard);
        // Lookahead must be positive; min_latency_us is ≥ 1 for any
        // topology with two hosts (access links are ≥ 1 µs), and a
        // single-host fleet never sends cross-shard.
        let lookahead_us = topo.min_latency_us().max(1);
        let topo = Arc::new(topo);
        let mut shard_vec = Vec::with_capacity(nshards);
        for s in (0..nshards).rev() {
            let lo = bound(s);
            let count = bound(s + 1) - lo;
            let apps_s = apps.split_off(lo);
            let clocks_s = clocks.split_off(lo);
            let rngs_s = rngs.split_off(lo);
            shard_vec.push(Shard {
                index: s,
                lo: lo as NodeId,
                topo: Arc::clone(&topo),
                node_shard: Arc::clone(&node_shard),
                chaos,
                partition: PartitionMap::default(),
                link_loss: LinkLossMap::default(),
                apps: apps_s,
                clocks: clocks_s,
                up: vec![true; count],
                rngs: rngs_s,
                ev_seq: vec![0; count],
                msg_seq: vec![0; count],
                heap: BinaryHeap::new(),
                now: 0,
                bw: BandwidthTracker::new(),
                dup_pairs: HashMap::new(),
                stats: SimStats::default(),
                cmd_buf: Vec::new(),
                outgoing: (0..nshards).map(|_| Vec::new()).collect(),
                stop: false,
            });
        }
        shard_vec.reverse();
        Self {
            shards: shard_vec,
            node_shard,
            topo,
            lookahead_us,
            now: 0,
            started: false,
            stop: false,
            inject_seq: 0,
            merged_bw: BandwidthTracker::new(),
        }
    }

    fn shard_of(&self, node: NodeId) -> usize {
        self.node_shard[node as usize] as usize
    }

    /// Number of shards the fleet is partitioned into (1 runs on the
    /// caller's thread; N runs N worker threads).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Current true simulation time, microseconds.
    pub fn now(&self) -> TimeUs {
        self.now
    }

    /// The topology the simulation runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Immutable access to a peer's application state.
    pub fn app(&self, node: NodeId) -> &A {
        let s = self.shard_of(node);
        &self.shards[s].apps[self.shards[s].li(node)]
    }

    /// Mutable access to a peer's application state (between run steps).
    pub fn app_mut(&mut self, node: NodeId) -> &mut A {
        let s = self.shard_of(node);
        let li = self.shards[s].li(node);
        &mut self.shards[s].apps[li]
    }

    /// Iterates over all applications in global node order.
    pub fn apps(&self) -> impl Iterator<Item = &A> {
        self.shards.iter().flat_map(|s| s.apps.iter())
    }

    /// The node's local clock parameters (ground truth for metrics).
    pub fn clock(&self, node: NodeId) -> LocalClock {
        let s = self.shard_of(node);
        self.shards[s].clocks[self.shards[s].li(node)]
    }

    /// Overrides a node's clock (must be done before the node acts on time).
    pub fn set_clock(&mut self, node: NodeId, clock: LocalClock) {
        let s = self.shard_of(node);
        let li = self.shards[s].li(node);
        self.shards[s].clocks[li] = clock;
    }

    /// Whether the host's access link is up.
    pub fn is_up(&self, node: NodeId) -> bool {
        let s = self.shard_of(node);
        self.shards[s].up[self.shards[s].li(node)]
    }

    /// Connects or disconnects a host's access link ("last-mile" failure).
    /// State is preserved; in-flight messages to/from the host are dropped.
    pub fn set_host_up(&mut self, node: NodeId, up: bool) {
        let s = self.shard_of(node);
        let li = self.shards[s].li(node);
        self.shards[s].up[li] = up;
    }

    /// Number of hosts currently up.
    pub fn live_count(&self) -> usize {
        self.shards.iter().map(|s| s.up.iter().filter(|&&u| u).count()).sum()
    }

    /// Labels `node` as a member of partition `group` (see
    /// [`PartitionMap`]). Propagated to every shard (senders need both
    /// endpoints' labels).
    pub fn set_net_group(&mut self, node: NodeId, group: u8) {
        for s in &mut self.shards {
            s.partition.set_group(node, group);
        }
    }

    /// Cuts (or restores) traffic flowing `from_group → to_group`. A
    /// symmetric split is two directed cuts. Checked at transmit time, so
    /// messages already in flight still arrive.
    pub fn set_group_block(&mut self, from_group: u8, to_group: u8, blocked: bool) {
        for s in &mut self.shards {
            s.partition.set_block(from_group, to_group, blocked);
        }
    }

    /// Heals every partition cut and clears all group labels.
    pub fn clear_partition(&mut self) {
        for s in &mut self.shards {
            s.partition.clear();
        }
    }

    /// Degrades the directed link `src → dst` to drop each message with
    /// probability `pct` (clamped to `[0, 1]`; `0` heals the link).
    /// Checked at transmit time after partitions; loss randomness is drawn
    /// only for configured pairs, so other links' RNG streams are
    /// untouched.
    pub fn set_link_loss(&mut self, src: NodeId, dst: NodeId, pct: f64) {
        for s in &mut self.shards {
            s.link_loss.set(src, dst, pct);
        }
    }

    /// Heals every lossy link.
    pub fn clear_link_loss(&mut self) {
        for s in &mut self.shards {
            s.link_loss.clear();
        }
    }

    /// Replaces the chaos configuration between run steps (phased fault
    /// schedules).
    pub fn set_chaos(&mut self, chaos: ChaosConfig) {
        for s in &mut self.shards {
            s.chaos = chaos;
        }
    }

    /// Bandwidth accounting for the run so far (merged across shards).
    pub fn bandwidth(&self) -> &BandwidthTracker {
        match self.shards.as_slice() {
            [one] => &one.bw,
            _ => &self.merged_bw,
        }
    }

    /// Transport counters (summed across shards).
    pub fn stats(&self) -> SimStats {
        let mut stats = SimStats::default();
        for s in &self.shards {
            stats.merge(&s.stats);
        }
        stats
    }

    /// Duplicated messages with one copy still in flight: the only
    /// message ids the duplicate-suppression layer holds. Never more than
    /// the duplicated messages in flight, and zero once the network is
    /// quiet, however long chaos has been duplicating.
    pub fn dedup_entries(&self) -> usize {
        self.shards.iter().map(|s| s.dup_pairs.len()).sum()
    }

    /// Schedules an out-of-band message (e.g. a user's install request)
    /// for immediate delivery to `to`, attributed to `from`. Driver-side
    /// injections are sequenced under a reserved origin, so they are
    /// deterministic across shard counts too.
    pub fn inject(&mut self, to: NodeId, from: NodeId, msg: A::Msg, bytes: u32) {
        let seq = key(INJECT_ORIGIN, self.inject_seq);
        self.inject_seq += 1;
        let time = self.now + 1;
        let s = self.shard_of(to);
        self.shards[s].heap.push(Event {
            time,
            seq,
            kind: EventKind::Deliver { to, from, msg, bytes, id: seq, dup: false },
        });
    }

    /// Runs until the queues are exhausted or `deadline` (true time)
    /// passes. One shard runs straight to the deadline on the caller's
    /// thread; more advance in conservative windows. Re-entrant: see the
    /// type-level docs.
    pub fn run_until(&mut self, deadline: TimeUs)
    where
        A: Send,
        A::Msg: Send,
    {
        if self.stop {
            return;
        }
        let do_start = !self.started;
        self.started = true;
        if let [shard] = self.shards.as_mut_slice() {
            if do_start {
                shard.start();
            }
            shard.process_window(deadline);
            self.stop = shard.stop;
            self.now = shard.now;
            return;
        }
        let nshards = self.shards.len();
        let sync = WindowSync {
            barrier: Barrier::new(nshards),
            mins: (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            app_stop: AtomicBool::new(false),
        };
        let mailboxes: Vec<Mailbox<A::Msg>> =
            (0..nshards * nshards).map(|_| Mutex::new(Vec::new())).collect();
        let lookahead = self.lookahead_us;
        std::thread::scope(|scope| {
            let sync = &sync;
            let mailboxes = mailboxes.as_slice();
            if let Some((first, rest)) = self.shards.split_first_mut() {
                for shard in rest {
                    scope.spawn(move || {
                        shard.worker(sync, mailboxes, deadline, lookahead, do_start)
                    });
                }
                first.worker(sync, mailboxes, deadline, lookahead, do_start);
            }
        });
        self.stop = sync.app_stop.load(Ordering::SeqCst);
        self.now = if self.stop {
            self.shards.iter().map(|s| s.now).max().unwrap_or(deadline)
        } else {
            deadline
        };
        let mut bw = BandwidthTracker::new();
        for s in &self.shards {
            bw.merge_from(&s.bw);
        }
        self.merged_bw = bw;
    }

    /// Runs for `s` seconds of true time from the current instant.
    pub fn run_for_secs(&mut self, s: f64)
    where
        A: Send,
        A::Msg: Send,
    {
        let deadline = self.now + secs(s);
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::single::SimBuilder;
    use crate::time::SEC;

    /// A deterministic gossip app exercising timers, fan-out sends,
    /// arrival-time observation, and per-peer RNG draws — everything the
    /// cross-shard determinism contract must hold for.
    #[derive(Clone)]
    struct Gossip {
        n: u32,
        log: Vec<(NodeId, u32, TimeUs)>,
        draws: Vec<u32>,
        rounds: u32,
    }

    impl Gossip {
        fn new(n: u32) -> Self {
            Self { n, log: Vec::new(), draws: Vec::new(), rounds: 0 }
        }
    }

    impl App for Gossip {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.set_timer_local_us(10_000 + 1_000 * ctx.id() as u64, 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32, _b: u32) {
            self.log.push((from, msg, ctx.true_now_us()));
            if msg.is_multiple_of(3) && msg > 0 {
                let to = (ctx.id() + msg) % self.n;
                ctx.send(to, msg - 1, 64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _tag: u64) {
            let draw: u32 = ctx.rng().gen_range(0..1_000);
            self.draws.push(draw);
            let to = (ctx.id() + 1 + draw % (self.n - 1)) % self.n;
            ctx.send(to, 9 + (self.rounds % 4), 128);
            self.rounds += 1;
            if self.rounds < 40 {
                ctx.set_timer_local_us(50_000 + (draw as u64) * 100, 1);
            }
        }
    }

    /// Per-peer message logs `(from, msg, true_now)` from one gossip run.
    type GossipLogs = Vec<Vec<(NodeId, u32, TimeUs)>>;

    fn run_gossip(shards: usize, chaos: ChaosConfig) -> (GossipLogs, Vec<Vec<u32>>, SimStats, u64) {
        let n = 12u32;
        let topo = Topology::paper_inet(n as usize, 5);
        let mut sim =
            SimBuilder::new(topo, 77).chaos(chaos).build_sharded(shards, |_| Gossip::new(n));
        sim.run_for_secs(8.0);
        let logs = sim.apps().map(|a| a.log.clone()).collect();
        let draws = sim.apps().map(|a| a.draws.clone()).collect();
        let bytes = sim.bandwidth().bytes_total(TrafficClass::Data);
        (logs, draws, sim.stats(), bytes)
    }

    // The 1-shard baseline of the two tests below runs the window-free
    // path (the caller's thread, no barrier or mailboxes), so they pin that
    // path against 2–12-shard windowed runs.
    #[test]
    fn execution_is_identical_across_shard_counts() {
        let base = run_gossip(1, ChaosConfig::none());
        for shards in [2, 3, 5, 12] {
            let other = run_gossip(shards, ChaosConfig::none());
            assert_eq!(base, other, "{shards} shards diverged from 1 shard");
        }
    }

    #[test]
    fn execution_is_identical_across_shard_counts_under_chaos() {
        // Chaos draws come from the sender's per-peer stream, so loss,
        // duplication, and reordering must also be shard-count-invariant.
        let chaos = ChaosConfig { drop_prob: 0.1, dup_prob: 0.2, reorder_jitter_us: 700 };
        let base = run_gossip(1, chaos);
        assert!(base.2.duplicates_suppressed > 0, "chaos never duplicated");
        assert!(base.2.dropped > 0, "chaos never dropped");
        for shards in [2, 4, 7] {
            let other = run_gossip(shards, chaos);
            assert_eq!(base, other, "{shards} shards diverged under chaos");
        }
    }

    #[test]
    fn repeated_runs_are_identical() {
        let chaos = ChaosConfig { drop_prob: 0.05, dup_prob: 0.1, reorder_jitter_us: 300 };
        assert_eq!(run_gossip(4, chaos), run_gossip(4, chaos));
    }

    #[test]
    fn windowed_run_until_is_reentrant() {
        let whole = run_gossip(3, ChaosConfig::none());
        let n = 12u32;
        let topo = Topology::paper_inet(n as usize, 5);
        let mut sim = SimBuilder::new(topo, 77).build_sharded(3, |_| Gossip::new(n));
        // Ragged steps, including zero-length ones.
        for t in [1u64, 100_000, 100_000, 2_000_000, 2_000_000, 6_500_000, 8_000_000] {
            sim.run_until(t);
        }
        let logs: Vec<_> = sim.apps().map(|a| a.log.clone()).collect();
        let draws: Vec<_> = sim.apps().map(|a| a.draws.clone()).collect();
        assert_eq!(
            (logs, draws, sim.stats(), sim.bandwidth().bytes_total(TrafficClass::Data)),
            whole
        );
        assert_eq!(sim.now(), 8 * SEC);
    }

    #[test]
    fn partitions_and_dynamic_chaos_are_shard_count_invariant() {
        // A phased fault schedule — partition on, chaos storm, heal — must
        // produce bit-identical executions regardless of shard layout,
        // because partition checks consume no RNG draws and chaos draws
        // stay on the sender's stream.
        let run = |shards: usize| {
            let n = 12u32;
            let topo = Topology::paper_inet(n as usize, 5);
            let mut sim = SimBuilder::new(topo, 99).build_sharded(shards, |_| Gossip::new(n));
            sim.run_for_secs(2.0);
            for node in 0..n {
                sim.set_net_group(node, if node < 6 { 0 } else { 1 });
            }
            sim.set_group_block(0, 1, true);
            sim.set_group_block(1, 0, true);
            sim.set_chaos(ChaosConfig { drop_prob: 0.1, dup_prob: 0.2, reorder_jitter_us: 500 });
            sim.run_for_secs(3.0);
            sim.clear_partition();
            sim.set_chaos(ChaosConfig::none());
            sim.run_for_secs(3.0);
            let logs: GossipLogs = sim.apps().map(|a| a.log.clone()).collect();
            let draws: Vec<Vec<u32>> = sim.apps().map(|a| a.draws.clone()).collect();
            (logs, draws, sim.stats(), sim.bandwidth().bytes_total(TrafficClass::Data))
        };
        let base = run(1);
        assert!(base.2.dropped > 0, "partition/chaos never dropped");
        assert!(base.2.duplicates_suppressed > 0, "chaos storm never duplicated");
        for shards in [2, 4, 12] {
            assert_eq!(base, run(shards), "{shards} shards diverged under faults");
        }
    }

    /// Duplicated messages with one of their two copies still in flight
    /// after a run step, counted from the heaps (mailboxes are empty
    /// between steps).
    fn split_pairs_in_flight(sim: &Simulator<Gossip>) -> usize {
        let mut copies: HashMap<u64, usize> = HashMap::new();
        for ev in sim.shards.iter().flat_map(|s| s.heap.iter()) {
            if let EventKind::Deliver { id, dup: true, .. } = ev.kind {
                *copies.entry(id).or_default() += 1;
            }
        }
        copies.values().filter(|&&c| c == 1).count()
    }

    /// A gossip run under heavy duplication, stepped raggedly until the
    /// network is quiet: `(stats, dedup_entries)` after every step.
    fn dup_trajectory(shards: usize) -> Vec<(SimStats, usize)> {
        let n = 12u32;
        let topo = Topology::paper_inet(n as usize, 5);
        let chaos = ChaosConfig { drop_prob: 0.05, dup_prob: 0.5, reorder_jitter_us: 40_000 };
        let mut sim =
            SimBuilder::new(topo, 31).chaos(chaos).build_sharded(shards, |_| Gossip::new(n));
        let mut trajectory = Vec::new();
        let mut t = 0;
        for step in [7_000u64, 1, 13_000, 250_000].iter().cycle().take(120) {
            t += step;
            sim.run_until(t);
            if shards == 1 {
                assert_eq!(sim.dedup_entries(), split_pairs_in_flight(&sim), "at {t} µs");
            }
            trajectory.push((sim.stats(), sim.dedup_entries()));
        }
        // The gossip's 40 rounds are long over: nothing is in flight.
        assert!(sim.shards.iter().all(|s| s.heap.is_empty()), "the run never went quiet");
        trajectory
    }

    #[test]
    fn dedup_entries_track_duplicates_in_flight_and_drain_to_zero() {
        let trajectory = dup_trajectory(1);
        assert!(trajectory.iter().any(|&(_, e)| e > 0), "no pair was ever split in flight");
        let (stats, entries) = *trajectory.last().expect("stepped");
        assert!(stats.duplicates_suppressed > 0, "chaos never duplicated");
        assert_eq!(entries, 0, "a quiet network still holds duplicate pairs");
    }

    #[test]
    fn duplicate_suppression_is_shard_count_invariant() {
        let base = dup_trajectory(1);
        for shards in [2, 4, 7] {
            assert_eq!(base, dup_trajectory(shards), "{shards} shards diverged");
        }
    }

    #[test]
    fn stop_halts_every_shard() {
        struct Stopper;
        impl App for Stopper {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 3 {
                    ctx.set_timer_local_us(SEC, 0);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: (), _: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
                ctx.stop();
            }
        }
        let mut sim = SimBuilder::new(Topology::star(8, 1_000), 1).build_sharded(4, |_| Stopper);
        sim.run_for_secs(10.0);
        assert!(sim.now() < 2 * SEC, "stop did not halt the run: now={}", sim.now());
        // Sticky: further runs are no-ops.
        let t = sim.now();
        sim.run_for_secs(5.0);
        assert_eq!(sim.now(), t);
    }

    #[test]
    fn host_liveness_and_injection_work_per_shard() {
        struct Count {
            got: u32,
        }
        impl App for Count {
            type Msg = u32;
            fn on_start(&mut self, _: &mut Ctx<'_, u32>) {}
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32, _: u32) {
                self.got += 1;
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
        }
        let mut sim =
            SimBuilder::new(Topology::star(6, 1_000), 2).build_sharded(3, |_| Count { got: 0 });
        sim.set_host_up(5, false);
        assert!(!sim.is_up(5));
        assert_eq!(sim.live_count(), 5);
        sim.inject(5, 0, 1, 8);
        sim.inject(2, 0, 1, 8);
        sim.run_for_secs(1.0);
        assert_eq!(sim.app(5).got, 0, "down host received");
        assert_eq!(sim.app(2).got, 1);
        assert_eq!(sim.stats().dropped, 1);
        assert_eq!(sim.stats().delivered, 1);
    }
}
