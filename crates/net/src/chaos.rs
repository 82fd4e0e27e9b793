//! Transport-level fault injection.
//!
//! Mortar "requires that the underlying transport protocol suppress
//! duplicate messages, but otherwise makes few demands of it" (Section 4.3).
//! The simulator can therefore inject loss, duplication, and extra reorder
//! jitter to exercise that contract; the delivery layer performs receiver-side
//! duplicate suppression so applications never observe duplicates.
//!
//! Beyond the probabilistic [`ChaosConfig`], the runtime supports *targeted*
//! partitions via [`PartitionMap`]: nodes carry a small group label and a
//! directed group×group block matrix cuts traffic between groups. Asymmetric
//! cuts (A can reach B but not vice versa) and symmetric splits are both
//! expressible; the scenario engine drives both.

use crate::NodeId;

/// Maximum number of partition groups a fleet can be labelled into.
pub const MAX_NET_GROUPS: usize = 16;

/// Probabilistic transport misbehaviour applied to every unicast send.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability a message is silently dropped in flight.
    pub drop_prob: f64,
    /// Probability a message is delivered twice (the duplicate is filtered by
    /// the dedup layer; duplication exercises that filter).
    pub dup_prob: f64,
    /// Maximum extra random delivery delay, microseconds (causes reordering).
    pub reorder_jitter_us: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self { drop_prob: 0.0, dup_prob: 0.0, reorder_jitter_us: 0 }
    }
}

impl ChaosConfig {
    /// No misbehaviour (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Validates probabilities. Out-of-range values are a configuration
    /// error the caller must surface; nothing on this path panics.
    pub fn validate(&self) -> Result<(), ChaosError> {
        if !(0.0..=1.0).contains(&self.drop_prob) {
            return Err(ChaosError {
                reason: format!("drop_prob out of range: {}", self.drop_prob),
            });
        }
        if !(0.0..=1.0).contains(&self.dup_prob) {
            return Err(ChaosError { reason: format!("dup_prob out of range: {}", self.dup_prob) });
        }
        Ok(())
    }
}

/// An invalid [`ChaosConfig`] (probability outside `[0, 1]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosError {
    /// Human-readable description of the offending field.
    pub reason: String,
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid chaos config: {}", self.reason)
    }
}

impl std::error::Error for ChaosError {}

/// Targeted network partitions: each node carries a group label (default 0)
/// and a directed group×group matrix marks blocked pairs. A blocked
/// `(from, to)` pair silently drops traffic at transmit time, exactly like
/// loss — in-flight messages at partition onset still arrive, matching a
/// real cut where queued packets drain.
///
/// All state is plain arrays, so lookups are branch-plus-mask and the map is
/// cheap to copy to every shard of the simulator.
#[derive(Debug, Clone, Default)]
pub struct PartitionMap {
    /// Per-node group label; an empty vector means "everyone in group 0".
    group: Vec<u8>,
    /// `blocked[g]` holds a bit per destination group cut off from `g`.
    blocked: [u16; MAX_NET_GROUPS],
    /// Whether any bit is set (fast path for the common un-partitioned case).
    active: bool,
}

impl PartitionMap {
    /// Labels `node` as a member of `group` (0-based, `< MAX_NET_GROUPS`).
    /// Out-of-range groups are clamped to the last group.
    pub fn set_group(&mut self, node: NodeId, group: u8) {
        let group = group.min(MAX_NET_GROUPS as u8 - 1);
        let idx = node as usize;
        if idx >= self.group.len() {
            self.group.resize(idx + 1, 0);
        }
        self.group[idx] = group;
    }

    /// Blocks (or unblocks) traffic flowing `from_group → to_group`. A
    /// symmetric split is two directed blocks.
    pub fn set_block(&mut self, from_group: u8, to_group: u8, blocked: bool) {
        let fg = (from_group as usize).min(MAX_NET_GROUPS - 1);
        let tg = (to_group as usize).min(MAX_NET_GROUPS - 1);
        if blocked {
            self.blocked[fg] |= 1 << tg;
        } else {
            self.blocked[fg] &= !(1 << tg);
        }
        self.active = self.blocked.iter().any(|&b| b != 0);
    }

    /// Removes every cut and group label: the network is whole again.
    pub fn clear(&mut self) {
        self.group.clear();
        self.blocked = [0; MAX_NET_GROUPS];
        self.active = false;
    }

    /// Whether any directed cut is currently in force.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether a message `from → to` is cut by the current partition.
    pub fn blocks(&self, from: NodeId, to: NodeId) -> bool {
        if !self.active {
            return false;
        }
        let gf = self.group.get(from as usize).copied().unwrap_or(0);
        let gt = self.group.get(to as usize).copied().unwrap_or(0);
        self.blocked[gf as usize] & (1 << gt) != 0
    }
}

/// Targeted link-level asymmetric loss: a small list of directed
/// `(src, dst)` pairs, each with an independent drop probability. Unlike
/// [`PartitionMap`] (which cuts whole group pairs absolutely), link loss
/// degrades one specific direction of one specific link — the flaky
/// last-mile uplink, the asymmetric-routing blackhole.
///
/// Plain data (a short vector scanned per configured pair), so the map is
/// cheap to copy to every shard of the simulator. The transmit path
/// consults it *after* partitions and draws loss randomness only for
/// configured pairs, so adding a lossy link perturbs no other link's RNG
/// stream — the same stream-hygiene rule the probabilistic chaos layer
/// follows.
#[derive(Debug, Clone, Default)]
pub struct LinkLossMap {
    /// Directed lossy links: `(src, dst, drop probability)`.
    links: Vec<(NodeId, NodeId, f64)>,
}

impl LinkLossMap {
    /// Sets the drop probability for the directed link `src → dst`
    /// (clamped to `[0, 1]`); `0` removes the entry.
    pub fn set(&mut self, src: NodeId, dst: NodeId, pct: f64) {
        let pct = pct.clamp(0.0, 1.0);
        self.links.retain(|&(s, d, _)| (s, d) != (src, dst));
        if pct > 0.0 {
            self.links.push((src, dst, pct));
        }
    }

    /// Removes every lossy link.
    pub fn clear(&mut self) {
        self.links.clear();
    }

    /// Whether any link is currently lossy (fast path for the common
    /// loss-free case).
    pub fn is_active(&self) -> bool {
        !self.links.is_empty()
    }

    /// Drop probability configured for `src → dst` (`0.0` when absent).
    pub fn pct_for(&self, src: NodeId, dst: NodeId) -> f64 {
        self.links.iter().find(|&&(s, d, _)| (s, d) == (src, dst)).map_or(0.0, |&(_, _, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_loss_is_directed_and_clamped() {
        let mut m = LinkLossMap::default();
        assert!(!m.is_active());
        m.set(3, 7, 0.25);
        assert_eq!(m.pct_for(3, 7), 0.25);
        assert_eq!(m.pct_for(7, 3), 0.0, "loss is per direction");
        m.set(3, 7, 1.5);
        assert_eq!(m.pct_for(3, 7), 1.0, "probability clamped");
        m.set(3, 7, 0.0);
        assert!(!m.is_active(), "zero removes the entry");
        m.set(1, 2, 0.5);
        m.clear();
        assert!(!m.is_active());
    }

    #[test]
    fn default_is_benign() {
        let c = ChaosConfig::none();
        assert_eq!(c.drop_prob, 0.0);
        assert_eq!(c.dup_prob, 0.0);
        assert_eq!(c.reorder_jitter_us, 0);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let err = ChaosConfig { drop_prob: 1.5, ..ChaosConfig::none() }
            .validate()
            .expect_err("1.5 is not a probability");
        assert!(err.reason.contains("drop_prob"), "unexpected reason: {}", err.reason);
        let err = ChaosConfig { dup_prob: -0.1, ..ChaosConfig::none() }
            .validate()
            .expect_err("-0.1 is not a probability");
        assert!(err.reason.contains("dup_prob"), "unexpected reason: {}", err.reason);
    }

    #[test]
    fn partition_blocks_are_directed() {
        let mut p = PartitionMap::default();
        assert!(!p.blocks(0, 1));
        p.set_group(0, 0);
        p.set_group(1, 1);
        p.set_block(0, 1, true);
        assert!(p.blocks(0, 1), "forward direction cut");
        assert!(!p.blocks(1, 0), "reverse direction open (asymmetric)");
        p.set_block(1, 0, true);
        assert!(p.blocks(1, 0), "now symmetric");
        p.set_block(0, 1, false);
        assert!(!p.blocks(0, 1));
        assert!(p.is_active());
        p.clear();
        assert!(!p.is_active());
        assert!(!p.blocks(1, 0));
    }

    #[test]
    fn unlabelled_nodes_default_to_group_zero() {
        let mut p = PartitionMap::default();
        p.set_group(3, 1);
        p.set_block(0, 1, true);
        // Node 7 was never labelled: it sits in group 0 and is cut from 3.
        assert!(p.blocks(7, 3));
        assert!(!p.blocks(3, 7));
    }
}
