//! Internal event-queue types.

use crate::time::TimeUs;
use crate::NodeId;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind<M> {
    /// A message reaches its destination host.
    Deliver {
        /// Destination host.
        to: NodeId,
        /// Originating host.
        from: NodeId,
        /// Payload.
        msg: M,
        /// Modelled wire size in bytes.
        bytes: u32,
        /// Logical message id (duplicates share one id).
        id: u64,
        /// Whether chaos sent this message as two copies; only such
        /// copies touch the receiver's duplicate-suppression state.
        dup: bool,
    },
    /// A timer armed by `node` fires.
    Timer {
        /// Owning host.
        node: NodeId,
        /// Application-defined tag.
        tag: u64,
    },
}

/// A scheduled event. Ordering compares `(time, seq)` only, so the heap is
/// a stable min-heap regardless of payload type.
#[derive(Debug)]
pub struct Event<M> {
    /// Fire time (true simulation time).
    pub time: TimeUs,
    /// Tie-breaking key, unique per event: `(origin, per-origin counter)`
    /// packed into one integer, so equal-time events pop in an order that
    /// does not depend on insertion order.
    pub seq: u64,
    /// The action.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn timer(time: TimeUs, seq: u64) -> Event<()> {
        Event { time, seq, kind: EventKind::Timer { node: 0, tag: 0 } }
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut h = BinaryHeap::new();
        h.push(timer(30, 0));
        h.push(timer(10, 1));
        h.push(timer(20, 2));
        assert_eq!(h.pop().unwrap().time, 10);
        assert_eq!(h.pop().unwrap().time, 20);
        assert_eq!(h.pop().unwrap().time, 30);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut h = BinaryHeap::new();
        h.push(timer(5, 2));
        h.push(timer(5, 0));
        h.push(timer(5, 1));
        assert_eq!(h.pop().unwrap().seq, 0);
        assert_eq!(h.pop().unwrap().seq, 1);
        assert_eq!(h.pop().unwrap().seq, 2);
    }
}
