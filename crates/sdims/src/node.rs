//! The SDIMS aggregation node.
//!
//! Mechanisms (matching the paper's experiment configuration):
//!
//! * Every node publishes its subtree aggregate every 5 s ("SDIMS nodes
//!   publish a value every five seconds") and immediately on arrival of a
//!   child update — no windowed batching, which is the paper's hypothesis
//!   for SDIMS's bandwidth disadvantage.
//! * Child aggregates are cached with a 30 s lease.
//! * Parents are pinged every 20 s ("ping neighbor period"); leaf-set
//!   members every 10 s; route rows refresh every 60 s. Two missed pongs
//!   mark a neighbour dead in this node's *private* belief set; any message
//!   resurrects it. Beliefs are never globally consistent — which is what
//!   lets one child's value live in two ancestors' caches at once.
//! * On parent change the node re-publishes immediately (reactive
//!   recovery), producing the bandwidth spikes of Figure 16.

use crate::pastry::PastryView;
use mortar_net::{App, Ctx, NodeId, TrafficClass};
use std::collections::HashMap;

/// SDIMS protocol parameters (paper's experiment values).
#[derive(Debug, Clone, Copy)]
pub struct SdimsConfig {
    /// Aggregation key (attribute id).
    pub key: u64,
    /// Publish period, µs (5 s).
    pub publish_us: u64,
    /// Cached child-aggregate lease, µs (30 s).
    pub lease_us: u64,
    /// Parent ping period, µs (20 s).
    pub ping_us: u64,
    /// Leaf-set maintenance period, µs (10 s).
    pub leaf_maint_us: u64,
    /// Route-table maintenance period, µs (60 s).
    pub route_maint_us: u64,
    /// Missed pongs before a neighbour is believed dead.
    pub dead_after_pings: u32,
    /// Modelled wire size of an update (FreePastry-era serialization).
    pub update_bytes: u32,
    /// Modelled wire size of maintenance messages.
    pub maint_bytes: u32,
    /// Size of the modelled leaf set.
    pub leaf_set: usize,
}

impl Default for SdimsConfig {
    fn default() -> Self {
        Self {
            key: 0x5D1A_57A7_E000_0001,
            publish_us: 5_000_000,
            lease_us: 30_000_000,
            ping_us: 20_000_000,
            leaf_maint_us: 10_000_000,
            route_maint_us: 60_000_000,
            dead_after_pings: 2,
            update_bytes: 640,
            maint_bytes: 96,
            leaf_set: 8,
        }
    }
}

/// One root-recorded aggregate sample.
#[derive(Debug, Clone, Copy)]
pub struct SdimsResult {
    /// True simulation time of the sample, µs.
    pub true_us: u64,
    /// Aggregate value (the experiment's count of peers).
    pub value: f64,
    /// Participant count claimed by the aggregate.
    pub count: u32,
}

/// SDIMS wire messages.
#[derive(Debug, Clone)]
pub enum SdimsMsg {
    /// A child's subtree aggregate.
    Update {
        /// Subtree sum.
        value: f64,
        /// Subtree participant count.
        count: u32,
    },
    /// Liveness probe.
    Ping,
    /// Liveness response.
    Pong,
}

/// Timer tags.
const PUBLISH: u64 = 1;
const PING: u64 = 2;
const LEAF: u64 = 3;
const ROUTE: u64 = 4;

/// The SDIMS node application.
pub struct SdimsNode {
    /// This peer.
    pub id: NodeId,
    cfg: SdimsConfig,
    view: PastryView,
    leafs: Vec<NodeId>,
    /// Private liveness belief: node → local µs when presumed dead.
    dead: HashMap<NodeId, i64>,
    /// Outstanding pings: node → consecutive unanswered count.
    unanswered: HashMap<NodeId, u32>,
    /// Child subtree aggregates: child → (value, count, lease expiry).
    cache: HashMap<NodeId, (f64, u32, i64)>,
    local_value: f64,
    current_parent: Option<NodeId>,
    /// Root-recorded aggregate samples.
    pub results: Vec<SdimsResult>,
    /// Updates sent (diagnostics).
    pub updates_sent: u64,
}

impl SdimsNode {
    /// Creates a node over the static membership.
    pub fn new(id: NodeId, members: &[NodeId], cfg: SdimsConfig) -> Self {
        let view = PastryView::build(id, members, cfg.key);
        // Leaf set: numerically nearest ids on the ring.
        let my = crate::pastry::pastry_id(id);
        let mut byring: Vec<NodeId> = members.iter().copied().filter(|&m| m != id).collect();
        byring.sort_by_key(|&m| crate::pastry::pastry_id(m).wrapping_sub(my));
        let half = cfg.leaf_set / 2;
        let mut leafs: Vec<NodeId> = byring.iter().take(half).copied().collect();
        leafs.extend(byring.iter().rev().take(half).copied());
        Self {
            id,
            cfg,
            view,
            leafs,
            dead: HashMap::new(),
            unanswered: HashMap::new(),
            cache: HashMap::new(),
            local_value: 1.0,
            current_parent: None,
            results: Vec::new(),
            updates_sent: 0,
        }
    }

    /// Whether this node owns the aggregation key.
    pub fn is_root(&self) -> bool {
        self.view.is_root
    }

    fn aggregate(&self, now: i64) -> (f64, u32) {
        let mut v = self.local_value;
        let mut c = 1u32;
        for (&child, &(cv, cc, expiry)) in &self.cache {
            let _ = child;
            if expiry > now {
                v += cv;
                c += cc;
            }
        }
        (v, c)
    }

    fn publish(&mut self, ctx: &mut Ctx<'_, SdimsMsg>) {
        let now = ctx.local_now_us();
        let (v, c) = self.aggregate(now);
        if self.view.is_root {
            self.results.push(SdimsResult { true_us: ctx.true_now_us(), value: v, count: c });
            return;
        }
        let dead = {
            let d: Vec<NodeId> = self.dead.keys().copied().collect();
            move |n: NodeId| d.contains(&n)
        };
        let parent = self.view.next_hop(&dead);
        if parent != self.current_parent {
            // Reactive recovery: new parent, immediate re-publication. The
            // old parent's cached copy of our subtree survives until its
            // lease expires — the over-counting mechanism.
            self.current_parent = parent;
        }
        if let Some(p) = parent {
            self.updates_sent += 1;
            ctx.send_classified(
                p,
                SdimsMsg::Update { value: v, count: c },
                self.cfg.update_bytes,
                TrafficClass::Data,
            );
        }
    }
}

impl App for SdimsNode {
    type Msg = SdimsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SdimsMsg>) {
        // Stagger periodic work by id to avoid phase-locked bursts.
        let stagger = (self.id as u64 * 131) % 1_000_000;
        ctx.set_timer_local_us(self.cfg.publish_us + stagger, PUBLISH);
        ctx.set_timer_local_us(self.cfg.ping_us + stagger, PING);
        ctx.set_timer_local_us(self.cfg.leaf_maint_us + stagger, LEAF);
        ctx.set_timer_local_us(self.cfg.route_maint_us + stagger, ROUTE);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SdimsMsg>, from: NodeId, msg: SdimsMsg, _b: u32) {
        // Any contact resurrects the sender in our private belief.
        self.dead.remove(&from);
        self.unanswered.remove(&from);
        match msg {
            SdimsMsg::Update { value, count } => {
                let now = ctx.local_now_us();
                let expiry = now + self.cfg.lease_us as i64;
                self.cache.insert(from, (value, count, expiry));
                // Update-up on arrival: immediately propagate the new
                // partial (no batching window).
                self.publish(ctx);
            }
            SdimsMsg::Ping => {
                ctx.send_classified(
                    from,
                    SdimsMsg::Pong,
                    self.cfg.maint_bytes,
                    TrafficClass::Heartbeat,
                );
            }
            SdimsMsg::Pong => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SdimsMsg>, tag: u64) {
        let now = ctx.local_now_us();
        match tag {
            PUBLISH => {
                self.publish(ctx);
                ctx.set_timer_local_us(self.cfg.publish_us, PUBLISH);
            }
            PING => {
                // Ping the current parent; count silence.
                if let Some(p) = self.current_parent {
                    let miss = self.unanswered.entry(p).or_insert(0);
                    *miss += 1;
                    if *miss > self.cfg.dead_after_pings {
                        self.dead.insert(p, now);
                        // Force re-selection + reactive publish.
                        self.publish(ctx);
                    } else {
                        ctx.send_classified(
                            p,
                            SdimsMsg::Ping,
                            self.cfg.maint_bytes,
                            TrafficClass::Heartbeat,
                        );
                    }
                } else {
                    self.publish(ctx);
                }
                ctx.set_timer_local_us(self.cfg.ping_us, PING);
            }
            LEAF => {
                let leafs = self.leafs.clone();
                for l in leafs {
                    ctx.send_classified(
                        l,
                        SdimsMsg::Ping,
                        self.cfg.maint_bytes,
                        TrafficClass::Heartbeat,
                    );
                }
                ctx.set_timer_local_us(self.cfg.leaf_maint_us, LEAF);
            }
            ROUTE => {
                // Route maintenance: probe failover candidates and forget
                // sufficiently old death beliefs (FreePastry re-probes).
                let probe: Vec<NodeId> = self.view.candidates.iter().take(4).copied().collect();
                for c in probe {
                    ctx.send_classified(
                        c,
                        SdimsMsg::Ping,
                        self.cfg.maint_bytes,
                        TrafficClass::Control,
                    );
                }
                let horizon = self.cfg.route_maint_us as i64 * 2;
                self.dead.retain(|_, &mut since| now - since < horizon);
                ctx.set_timer_local_us(self.cfg.route_maint_us, ROUTE);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mortar_net::{SimBuilder, Simulator, Topology};

    fn build(n: usize, seed: u64) -> Simulator<SdimsNode> {
        let members: Vec<NodeId> = (0..n as NodeId).collect();
        let cfg = SdimsConfig::default();
        let topo = Topology::paper_inet(n, seed);
        SimBuilder::new(topo, seed).build(move |id| SdimsNode::new(id, &members, cfg))
    }

    fn root_of(sim: &Simulator<SdimsNode>, n: usize) -> NodeId {
        (0..n as NodeId).find(|&i| sim.app(i).is_root()).expect("one root exists")
    }

    #[test]
    fn steady_state_counts_everyone() {
        let n = 60;
        let mut sim = build(n, 3);
        sim.run_for_secs(120.0);
        let root = root_of(&sim, n);
        let results = &sim.app(root).results;
        assert!(!results.is_empty());
        let last = results.last().unwrap();
        assert!(
            (last.value - n as f64).abs() <= 2.0,
            "steady-state aggregate {} for {n} nodes",
            last.value
        );
    }

    #[test]
    fn failure_causes_overcounting_or_undershoot() {
        let n = 60;
        let mut sim = build(n, 4);
        sim.run_for_secs(90.0);
        let root = root_of(&sim, n);
        // Disconnect 20% (not the root) for a while, then reconnect.
        let victims: Vec<NodeId> = (0..n as NodeId).filter(|&i| i != root).take(12).collect();
        for &v in &victims {
            sim.set_host_up(v, false);
        }
        sim.run_for_secs(120.0);
        for &v in &victims {
            sim.set_host_up(v, true);
        }
        sim.run_for_secs(120.0);
        let results = &sim.app(root).results;
        let values: Vec<f64> = results.iter().map(|r| r.value).collect();
        // The run must show inaccuracy: some sample far from the live count.
        let worst = values.iter().map(|v| (v - n as f64).abs()).fold(0.0f64, f64::max);
        assert!(worst > 5.0, "SDIMS suspiciously accurate under failures: {values:?}");
    }

    #[test]
    fn parent_flap_double_counts() {
        // Structural unit check of the over-counting mechanism: a child's
        // value cached at two parents simultaneously.
        let members: Vec<NodeId> = (0..30).collect();
        let cfg = SdimsConfig::default();
        let child = members
            .iter()
            .copied()
            .find(|&m| {
                let v = PastryView::build(m, &members, cfg.key);
                v.candidates.len() >= 2
            })
            .expect("some node has a failover candidate");
        let view = PastryView::build(child, &members, cfg.key);
        let (p1, p2) = (view.candidates[0], view.candidates[1]);
        assert_ne!(p1, p2);
        // Both parents would cache the child's aggregate under a lease; the
        // protocol has no invalidation path from child to old parent.
        let mut a = SdimsNode::new(p1, &members, cfg);
        let mut b = SdimsNode::new(p2, &members, cfg);
        a.cache.insert(child, (1.0, 1, i64::MAX));
        b.cache.insert(child, (1.0, 1, i64::MAX));
        assert_eq!(a.aggregate(0).1 + b.aggregate(0).1, 4, "2 locals + child twice");
    }
}
