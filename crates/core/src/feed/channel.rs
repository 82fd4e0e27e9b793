//! Channel-backed connector: drains tuples pushed into a shared hub from
//! outside the engine (tests, bridges, adapters).
//!
//! The hub keys pending tuples by destination node so one hub can be
//! shared by every member of a feed without cross-member interference —
//! each peer drains only its own queue, which keeps shard layouts
//! byte-identical. Pushes made while the engine is idle (between `run_*`
//! calls) are observed deterministically on the next tick.

use crate::tuple::RawTuple;
use mortar_net::NodeId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Shared mailbox: per-node queues of externally pushed tuples.
#[derive(Debug, Default)]
pub struct ChannelHub {
    queues: Mutex<BTreeMap<NodeId, VecDeque<RawTuple>>>,
}

impl ChannelHub {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Queues one tuple for `node`'s member of the feed.
    pub fn push(&self, node: NodeId, t: RawTuple) {
        let mut q = self.queues.lock().unwrap_or_else(|e| e.into_inner());
        q.entry(node).or_default().push_back(t);
    }

    /// Queues a batch for `node`, preserving order.
    pub fn push_many<I: IntoIterator<Item = RawTuple>>(&self, node: NodeId, tuples: I) {
        let mut q = self.queues.lock().unwrap_or_else(|e| e.into_inner());
        q.entry(node).or_default().extend(tuples);
    }

    /// Tuples currently pending for `node`.
    pub fn pending(&self, node: NodeId) -> usize {
        let q = self.queues.lock().unwrap_or_else(|e| e.into_inner());
        q.get(&node).map_or(0, VecDeque::len)
    }

    /// Moves the oldest tuple pending for `node` into `out`, if any.
    pub(crate) fn emit(&self, node: NodeId, out: &mut RawTuple) -> bool {
        let mut q = self.queues.lock().unwrap_or_else(|e| e.into_inner());
        let Some(t) = q.get_mut(&node).and_then(VecDeque::pop_front) else { return false };
        *out = t;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits up to `max` of `node`'s pending tuples, as a connector poll
    /// does.
    fn poll(hub: &ChannelHub, node: NodeId, max: usize, out: &mut Vec<f64>) {
        let mut raw = RawTuple::default();
        for _ in 0..max {
            if !hub.emit(node, &mut raw) {
                break;
            }
            out.push(raw.field(0));
        }
    }

    #[test]
    fn per_node_queues_do_not_interfere() {
        let hub = ChannelHub::new();
        hub.push(1, RawTuple::of(1.0));
        hub.push_many(2, [RawTuple::of(2.0), RawTuple::of(3.0)]);
        assert_eq!(hub.pending(1), 1);
        assert_eq!(hub.pending(2), 2);
        let mut out = Vec::new();
        poll(&hub, 1, usize::MAX, &mut out);
        assert_eq!(out, vec![1.0]);
        assert_eq!(hub.pending(2), 2, "node 2's queue untouched");
    }

    #[test]
    fn max_caps_a_drain_without_losing_the_rest() {
        let hub = ChannelHub::new();
        hub.push_many(7, (0..5).map(|i| RawTuple::of(i as f64)));
        let mut out = Vec::new();
        poll(&hub, 7, 2, &mut out);
        assert_eq!(out.len(), 2);
        poll(&hub, 7, usize::MAX, &mut out);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }
}
