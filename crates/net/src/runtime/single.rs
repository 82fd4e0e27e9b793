//! Building a [`Simulator`]: topology, seed, clock model and chaos in, one
//! application per host out.
//!
//! Applications implement [`App`] and interact with the world exclusively
//! through [`Ctx`](crate::Ctx): they read their *local* clock, arm timers
//! in local time, and send classified, size-annotated messages. The
//! simulator owns the global clock, delivers messages after topology
//! latency, injects transport faults per [`ChaosConfig`] (with
//! receiver-side duplicate suppression), and accounts bandwidth as
//! `bytes × physical hops` per second.
//!
//! [`SimBuilder::build`] gives the one-shard simulator, which runs on the
//! caller's thread; [`SimBuilder::build_sharded`] partitions the same fleet
//! across worker threads and runs the same execution (see
//! [`parallel`](crate::runtime::parallel)). Experiment harnesses drive
//! either with [`Simulator::run_until`] and mutate host liveness between
//! steps, which is how the paper's disconnect/reconnect scenarios are
//! scripted. The tests below pin the simulator's behaviour on one shard.

use crate::chaos::ChaosConfig;
use crate::clock::{ClockModel, LocalClock};
use crate::runtime::ctx::App;
use crate::runtime::parallel::Simulator;
use crate::topology::Topology;
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builder for [`Simulator`].
pub struct SimBuilder {
    topo: Topology,
    seed: u64,
    clock_model: ClockModel,
    chaos: ChaosConfig,
}

impl SimBuilder {
    /// Starts a builder over `topo` with a deterministic `seed`.
    pub fn new(topo: Topology, seed: u64) -> Self {
        Self { topo, seed, clock_model: ClockModel::perfect(), chaos: ChaosConfig::none() }
    }

    /// Samples per-node clocks from `model` (Figures 9–10).
    pub fn clock_model(mut self, model: ClockModel) -> Self {
        self.clock_model = model;
        self
    }

    /// Enables transport fault injection. The config is stored as-is;
    /// callers that accept untrusted configuration should run
    /// [`ChaosConfig::validate`] first (the engine does). Out-of-range
    /// probabilities behave as if clamped to `[0, 1]`.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Instantiates one application per host via `make`, all in one shard.
    pub fn build<A: App>(self, make: impl FnMut(NodeId) -> A) -> Simulator<A> {
        self.build_sharded(1, make)
    }

    /// Instantiates one application per host via `make` and partitions the
    /// fleet into `shards` contiguous shards (clamped to `1..=hosts`), one
    /// thread each while running, shard 0 on the caller's. Clocks and
    /// per-peer RNG streams are assigned in node order before partitioning,
    /// so every shard count sees the same ones for a given seed.
    pub fn build_sharded<A: App>(
        self,
        shards: usize,
        make: impl FnMut(NodeId) -> A,
    ) -> Simulator<A> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let clocks: Vec<LocalClock> =
            (0..self.topo.hosts()).map(|_| self.clock_model.sample(&mut rng)).collect();
        Simulator::new(self.topo, self.seed, self.chaos, clocks, shards, make)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::TrafficClass;
    use crate::runtime::ctx::{Ctx, TRANSPORT_OVERHEAD_BYTES};
    use crate::runtime::dedup::DEDUP_GENERATION_CAP;
    use crate::time::{TimeUs, SEC};

    /// Echoes every message back and counts everything it sees.
    struct Echo {
        got: Vec<(NodeId, u32)>,
        timers: Vec<u64>,
    }

    impl Echo {
        fn new() -> Self {
            Self { got: Vec::new(), timers: Vec::new() }
        }
    }

    impl App for Echo {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.id() == 0 {
                ctx.send(1, 7, 100);
                ctx.set_timer_local_us(2 * SEC, 99);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32, _b: u32) {
            self.got.push((from, msg));
            if msg < 10 {
                ctx.send(from, msg + 1, 100);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, tag: u64) {
            self.timers.push(tag);
        }
    }

    fn star2() -> Topology {
        Topology::star(2, 1_000)
    }

    #[test]
    fn ping_pong_until_limit() {
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Echo::new());
        sim.run_for_secs(10.0);
        // 7→8→9→10: node1 sees 7 and 9, node0 sees 8 and 10.
        assert_eq!(sim.app(1).got, vec![(0, 7), (0, 9)]);
        assert_eq!(sim.app(0).got, vec![(1, 8), (1, 10)]);
    }

    #[test]
    fn timer_fires_once() {
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Echo::new());
        sim.run_for_secs(1.0);
        assert!(sim.app(0).timers.is_empty());
        sim.run_for_secs(1.5);
        assert_eq!(sim.app(0).timers, vec![99]);
    }

    #[test]
    fn down_receiver_drops() {
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Echo::new());
        sim.set_host_up(1, false);
        sim.run_for_secs(5.0);
        assert!(sim.app(1).got.is_empty());
        assert!(sim.stats().dropped >= 1);
    }

    #[test]
    fn reconnect_resumes_delivery() {
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Echo::new());
        sim.set_host_up(1, false);
        sim.run_for_secs(1.0);
        sim.set_host_up(1, true);
        sim.inject(1, 0, 7, 100);
        sim.run_for_secs(1.0);
        // The echo chain continues once node 1 is reachable: 7→8→9→10.
        assert_eq!(sim.app(1).got, vec![(0, 7), (0, 9)]);
    }

    #[test]
    fn latency_orders_delivery() {
        // Message takes 2 ms on this star; it must not arrive instantly.
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Echo::new());
        sim.run_until(1_999);
        assert!(sim.app(1).got.is_empty());
        sim.run_until(2_100);
        assert_eq!(sim.app(1).got.len(), 1);
    }

    #[test]
    fn dedup_memory_stays_bounded_under_long_chaos() {
        // A flood app: node 0 sends 1000 messages per millisecond at node
        // 1, with 100% duplication. The run pushes several times the
        // generation cap through the dedup layer; its memory must stay
        // bounded by two generations while still delivering exactly once.
        struct Flood {
            got: u64,
            ticks: u32,
        }
        impl App for Flood {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if ctx.id() == 0 {
                    ctx.set_timer_local_us(1_000, 0);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32, _: u32) {
                self.got += 1;
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _: u64) {
                for _ in 0..1_000 {
                    ctx.send(1, 7, 8);
                }
                self.ticks += 1;
                if self.ticks < 250 {
                    ctx.set_timer_local_us(1_000, 0);
                }
            }
        }
        let chaos = ChaosConfig { dup_prob: 1.0, ..ChaosConfig::none() };
        let mut sim =
            SimBuilder::new(star2(), 3).chaos(chaos).build(|_| Flood { got: 0, ticks: 0 });
        // 250 flood ticks plus slack to drain the in-flight tail.
        sim.run_for_secs(1.0);
        let sent_unique = sim.stats().sent;
        assert!(
            sent_unique as usize > 2 * DEDUP_GENERATION_CAP,
            "flood too small to exercise generation turnover: {sent_unique}"
        );
        // Exactly-once: every unique send delivered, every duplicate eaten.
        assert_eq!(sim.app(1).got, sent_unique);
        assert_eq!(sim.stats().duplicates_suppressed, sent_unique);
        assert!(
            sim.dedup_entries() <= 2 * DEDUP_GENERATION_CAP,
            "dedup memory unbounded: {} ids retained",
            sim.dedup_entries()
        );
    }

    #[test]
    fn asymmetric_partition_cuts_one_direction_only() {
        // Node 0 pings node 1 and node 1 echoes back. Cutting group 0 → 1
        // silences the forward path while the reverse stays open.
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Echo::new());
        sim.set_net_group(1, 1);
        sim.set_group_block(0, 1, true);
        sim.run_for_secs(5.0);
        assert!(sim.app(1).got.is_empty(), "forward traffic crossed the cut");
        assert!(sim.stats().dropped >= 1);
        // Reverse direction open: node 1 can still reach node 0.
        sim.inject(0, 1, 8, 100);
        sim.run_for_secs(1.0);
        assert_eq!(sim.app(0).got, vec![(1, 8)]);
        // The echo reply (9) dies at the cut again.
        assert!(sim.app(1).got.is_empty());
    }

    #[test]
    fn symmetric_partition_heals_cleanly() {
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Echo::new());
        sim.set_net_group(1, 1);
        sim.set_group_block(0, 1, true);
        sim.set_group_block(1, 0, true);
        sim.run_for_secs(5.0);
        assert!(sim.app(1).got.is_empty());
        sim.clear_partition();
        sim.inject(1, 0, 7, 100);
        sim.run_for_secs(5.0);
        // Whole again: the full echo chain completes.
        assert_eq!(sim.app(1).got, vec![(0, 7), (0, 9)]);
        assert_eq!(sim.app(0).got, vec![(1, 8), (1, 10)]);
    }

    #[test]
    fn set_chaos_mid_run_materializes_dedup() {
        // Duplication enabled only after the run starts: the dedup layer
        // must appear on the spot and still suppress every duplicate.
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Echo::new());
        assert_eq!(sim.dedup_entries(), 0);
        sim.run_for_secs(1.0);
        sim.set_chaos(ChaosConfig { dup_prob: 1.0, ..ChaosConfig::none() });
        sim.inject(1, 0, 7, 100);
        sim.run_for_secs(5.0);
        // Exactly-once delivery despite 100% duplication mid-run: the echo
        // chain ran twice (once clean, once injected), so node 0 saw `8`
        // exactly twice — every chaos duplicate was eaten.
        let eights = sim.app(0).got.iter().filter(|&&(_, m)| m == 8).count();
        assert_eq!(eights, 2, "duplicate observed: {:?}", sim.app(0).got);
        assert!(sim.stats().duplicates_suppressed >= 1);
        assert!(sim.dedup_entries() > 0);
    }

    #[test]
    fn chaos_duplicates_are_suppressed() {
        let chaos = ChaosConfig { dup_prob: 1.0, ..ChaosConfig::none() };
        let mut sim = SimBuilder::new(star2(), 1).chaos(chaos).build(|_| Echo::new());
        sim.run_for_secs(10.0);
        // Despite 100% duplication, each message is observed exactly once.
        assert_eq!(sim.app(1).got, vec![(0, 7), (0, 9)]);
        assert!(sim.stats().duplicates_suppressed >= 2);
    }

    #[test]
    fn chaos_full_loss_drops_everything() {
        let chaos = ChaosConfig { drop_prob: 1.0, ..ChaosConfig::none() };
        let mut sim = SimBuilder::new(star2(), 1).chaos(chaos).build(|_| Echo::new());
        sim.run_for_secs(10.0);
        assert!(sim.app(1).got.is_empty());
    }

    #[test]
    fn bandwidth_recorded_on_send() {
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Echo::new());
        sim.run_for_secs(1.0);
        // 4 messages × (100 + overhead) bytes × 2 hops in the first second.
        let expected = 4 * (100 + TRANSPORT_OVERHEAD_BYTES as u64) * 2;
        assert_eq!(sim.bandwidth().bytes_at(TrafficClass::Data, 0), expected);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = SimBuilder::new(star2(), 42).build(|_| Echo::new());
            sim.run_for_secs(10.0);
            (sim.app(0).got.clone(), sim.stats().delivered)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn skewed_timer_fires_early_in_true_time() {
        struct T {
            fired_at: Option<TimeUs>,
        }
        impl App for T {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer_local_us(SEC, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: (), _: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
                self.fired_at = Some(ctx.true_now_us());
            }
        }
        let mut sim = SimBuilder::new(Topology::star(1, 1_000), 1).build(|_| T { fired_at: None });
        sim.set_clock(0, LocalClock { offset_us: 0, rate: 2.0 });
        sim.run_for_secs(2.0);
        // A clock running 2x fast reaches "1 local second" in 0.5 true seconds.
        assert_eq!(sim.app(0).fired_at, Some(500_000));
    }

    #[test]
    fn run_until_is_reentrant_bit_for_bit() {
        // The re-entrancy contract (see the `Simulator` docs): running to a
        // deadline in many ragged steps must be indistinguishable from one
        // large call — same deliveries, same stats, same bandwidth buckets,
        // same dedup state, same final clock. The bench harness's
        // warm-up/measure split leans on this.
        let chaos = ChaosConfig { dup_prob: 0.3, reorder_jitter_us: 400, ..ChaosConfig::none() };
        let mut whole = SimBuilder::new(star2(), 9).chaos(chaos).build(|_| Echo::new());
        whole.run_until(10 * SEC);

        let mut stepped = SimBuilder::new(star2(), 9).chaos(chaos).build(|_| Echo::new());
        let mut t = 0;
        for step in [1, 999, 1, 2_000, 500_000, 1, 3_000_000].iter().cycle() {
            t += step;
            if t >= 10 * SEC {
                break;
            }
            stepped.run_until(t);
        }
        stepped.run_until(10 * SEC);

        assert_eq!(stepped.now(), whole.now());
        assert_eq!(stepped.app(0).got, whole.app(0).got);
        assert_eq!(stepped.app(1).got, whole.app(1).got);
        assert_eq!(stepped.stats(), whole.stats());
        assert_eq!(stepped.dedup_entries(), whole.dedup_entries());
        for sec in 0..10 {
            assert_eq!(
                stepped.bandwidth().bytes_at(TrafficClass::Data, sec),
                whole.bandwidth().bytes_at(TrafficClass::Data, sec),
            );
        }
    }

    #[test]
    fn stop_halts_after_the_requesting_callback() {
        // Both peers arm a timer for the same instant; the event key orders
        // node 0's first. Its `stop` must keep node 1's from running.
        struct Stopper {
            fired: bool,
        }
        impl App for Stopper {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer_local_us(SEC, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: (), _: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
                self.fired = true;
                ctx.stop();
            }
        }
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Stopper { fired: false });
        sim.run_for_secs(5.0);
        assert!(sim.app(0).fired);
        assert!(!sim.app(1).fired, "a callback ran after stop");
        assert_eq!(sim.now(), SEC);
    }

    #[test]
    #[should_panic(expected = "app panic on the caller's thread")]
    fn app_panic_unwinds_on_the_callers_thread() {
        // One shard runs no worker threads: the panic reaches the caller
        // as itself, not as a scoped-thread join failure.
        struct Bomb {
            caller: std::thread::ThreadId,
        }
        impl App for Bomb {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer_local_us(SEC, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: (), _: u32) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: u64) {
                assert_eq!(std::thread::current().id(), self.caller, "ran on a worker thread");
                panic!("app panic on the caller's thread");
            }
        }
        let caller = std::thread::current().id();
        let mut sim = SimBuilder::new(star2(), 1).build(|_| Bomb { caller });
        sim.run_for_secs(2.0);
    }
}
