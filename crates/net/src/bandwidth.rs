//! Total-network-load accounting.
//!
//! The paper reports "total network load, the sum of traffic across all
//! links" (Section 7.2.2). Every simulated message contributes
//! `size_bytes × physical_hops` to the bucket of the second in which it was
//! sent, separately per [`TrafficClass`] so the heartbeat share can be
//! reported (e.g. "12.5 Mbps, 3.4 Mbps of which is heartbeat overhead").

use crate::time::{TimeUs, SEC};

/// Classification of simulated traffic for load breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Summary tuples and raw data flowing toward query roots.
    Data,
    /// Liveness heartbeats.
    Heartbeat,
    /// Query management: install, remove, reconciliation, topology lookups.
    Control,
}

impl TrafficClass {
    const COUNT: usize = 3;

    fn idx(self) -> usize {
        match self {
            TrafficClass::Data => 0,
            TrafficClass::Heartbeat => 1,
            TrafficClass::Control => 2,
        }
    }
}

/// Per-second link-byte and message-event counters.
///
/// Bytes capture the *per-byte* cost of traffic (`size × hops`); message
/// counts capture the *per-message* cost (send events, each of which also
/// pays fixed transport overhead and a receiver dispatch). Frame batching
/// trades the latter against slightly larger frames, so both are tracked
/// separately per class.
#[derive(Debug, Default, Clone)]
pub struct BandwidthTracker {
    /// `buckets[class][second] = link-bytes`.
    buckets: [Vec<u64>; TrafficClass::COUNT],
    /// `msgs[class] = total message send events`.
    msgs: [u64; TrafficClass::COUNT],
}

impl BandwidthTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a message of `bytes` crossing `hops` physical links at `t`.
    pub fn record(&mut self, t: TimeUs, class: TrafficClass, bytes: u32, hops: u32) {
        let sec = (t / SEC) as usize;
        let b = &mut self.buckets[class.idx()];
        if b.len() <= sec {
            b.resize(sec + 1, 0);
        }
        b[sec] += bytes as u64 * hops as u64;
        self.msgs[class.idx()] += 1;
    }

    /// Adds every bucket and message count from `other` — the merge rule
    /// for shard-local trackers. All fields are sums, so merging is
    /// order-independent and merging per-shard trackers recorded under any
    /// partition yields the same totals as one global tracker.
    pub fn merge_from(&mut self, other: &BandwidthTracker) {
        for c in 0..TrafficClass::COUNT {
            let theirs = &other.buckets[c];
            let ours = &mut self.buckets[c];
            if ours.len() < theirs.len() {
                ours.resize(theirs.len(), 0);
            }
            for (sec, b) in theirs.iter().enumerate() {
                ours[sec] += b;
            }
            self.msgs[c] += other.msgs[c];
        }
    }

    /// Link-bytes recorded for `class` during second `sec`.
    pub fn bytes_at(&self, class: TrafficClass, sec: usize) -> u64 {
        self.buckets[class.idx()].get(sec).copied().unwrap_or(0)
    }

    /// Total message send events recorded for `class`.
    pub fn msgs_total(&self, class: TrafficClass) -> u64 {
        self.msgs[class.idx()]
    }

    /// Mean link-bytes per message event for `class` — the per-envelope
    /// accounting view: cross-query envelope coalescing raises this (the
    /// same payload rides fewer, larger wire messages) while the total
    /// byte cost falls with every amortized header.
    pub fn mean_msg_bytes(&self, class: TrafficClass) -> f64 {
        let msgs = self.msgs[class.idx()];
        if msgs == 0 {
            return 0.0;
        }
        self.bytes_total(class) as f64 / msgs as f64
    }

    /// Total link-bytes recorded for `class` over the whole run.
    pub fn bytes_total(&self, class: TrafficClass) -> u64 {
        self.buckets[class.idx()].iter().sum()
    }

    /// Aggregate Mbps (all classes) during second `sec`.
    pub fn mbps_at(&self, sec: usize) -> f64 {
        let total: u64 =
            (0..TrafficClass::COUNT).map(|c| self.buckets[c].get(sec).copied().unwrap_or(0)).sum();
        total as f64 * 8.0 / 1e6
    }

    /// Mbps for one class during second `sec`.
    pub fn class_mbps_at(&self, class: TrafficClass, sec: usize) -> f64 {
        self.bytes_at(class, sec) as f64 * 8.0 / 1e6
    }

    /// Number of seconds with any recorded traffic.
    pub fn seconds(&self) -> usize {
        self.buckets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean Mbps (all classes) over `[from_sec, to_sec)`.
    pub fn mean_mbps(&self, from_sec: usize, to_sec: usize) -> f64 {
        if to_sec <= from_sec {
            return 0.0;
        }
        let sum: f64 = (from_sec..to_sec).map(|s| self.mbps_at(s)).sum();
        sum / (to_sec - from_sec) as f64
    }

    /// Mean Mbps for one class over `[from_sec, to_sec)`.
    pub fn mean_class_mbps(&self, class: TrafficClass, from_sec: usize, to_sec: usize) -> f64 {
        if to_sec <= from_sec {
            return 0.0;
        }
        let sum: f64 = (from_sec..to_sec).map(|s| self.class_mbps_at(class, s)).sum();
        sum / (to_sec - from_sec) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_bytes_times_hops() {
        let mut bw = BandwidthTracker::new();
        bw.record(500_000, TrafficClass::Data, 100, 4);
        assert_eq!(bw.bytes_at(TrafficClass::Data, 0), 400);
        assert_eq!(bw.bytes_at(TrafficClass::Heartbeat, 0), 0);
    }

    #[test]
    fn message_events_counted_per_class() {
        let mut bw = BandwidthTracker::new();
        bw.record(0, TrafficClass::Data, 100, 2);
        bw.record(1_500_000, TrafficClass::Data, 50, 1);
        bw.record(0, TrafficClass::Control, 10, 1);
        assert_eq!(bw.msgs_total(TrafficClass::Data), 2);
        assert_eq!(bw.msgs_total(TrafficClass::Control), 1);
        assert_eq!(bw.msgs_total(TrafficClass::Heartbeat), 0);
        assert_eq!(bw.bytes_total(TrafficClass::Data), 250);
    }

    #[test]
    fn buckets_by_second() {
        let mut bw = BandwidthTracker::new();
        bw.record(0, TrafficClass::Heartbeat, 10, 1);
        bw.record(1_999_999, TrafficClass::Heartbeat, 10, 1);
        bw.record(2_000_000, TrafficClass::Heartbeat, 10, 1);
        assert_eq!(bw.bytes_at(TrafficClass::Heartbeat, 0), 10);
        assert_eq!(bw.bytes_at(TrafficClass::Heartbeat, 1), 10);
        assert_eq!(bw.bytes_at(TrafficClass::Heartbeat, 2), 10);
        assert_eq!(bw.seconds(), 3);
    }

    #[test]
    fn mbps_math() {
        let mut bw = BandwidthTracker::new();
        // 1_000_000 link-bytes in one second = 8 Mbps.
        bw.record(0, TrafficClass::Data, 500_000, 2);
        assert!((bw.mbps_at(0) - 8.0).abs() < 1e-9);
        assert!((bw.mean_mbps(0, 1) - 8.0).abs() < 1e-9);
        assert_eq!(bw.mean_mbps(5, 5), 0.0);
    }

    #[test]
    fn merge_matches_global_recording() {
        // Recording under any partition and merging must equal one global
        // tracker: the sharded simulator's accounting contract.
        let records = [
            (0u64, TrafficClass::Data, 100u32, 2u32),
            (500_000, TrafficClass::Heartbeat, 40, 3),
            (2_100_000, TrafficClass::Data, 64, 1),
            (2_900_000, TrafficClass::Control, 8, 4),
        ];
        let mut global = BandwidthTracker::new();
        let mut a = BandwidthTracker::new();
        let mut b = BandwidthTracker::new();
        for (i, &(t, c, bytes, hops)) in records.iter().enumerate() {
            global.record(t, c, bytes, hops);
            if i % 2 == 0 { &mut a } else { &mut b }.record(t, c, bytes, hops);
        }
        let mut merged = BandwidthTracker::new();
        merged.merge_from(&b);
        merged.merge_from(&a);
        for c in [TrafficClass::Data, TrafficClass::Heartbeat, TrafficClass::Control] {
            assert_eq!(merged.msgs_total(c), global.msgs_total(c));
            assert_eq!(merged.bytes_total(c), global.bytes_total(c));
            for sec in 0..3 {
                assert_eq!(merged.bytes_at(c, sec), global.bytes_at(c, sec));
            }
        }
        assert_eq!(merged.seconds(), global.seconds());
    }

    #[test]
    fn class_breakdown() {
        let mut bw = BandwidthTracker::new();
        bw.record(0, TrafficClass::Data, 1000, 1);
        bw.record(0, TrafficClass::Heartbeat, 250, 1);
        assert!((bw.class_mbps_at(TrafficClass::Data, 0) - 0.008).abs() < 1e-12);
        assert!((bw.class_mbps_at(TrafficClass::Heartbeat, 0) - 0.002).abs() < 1e-12);
        assert!((bw.mbps_at(0) - 0.01).abs() < 1e-12);
    }
}
