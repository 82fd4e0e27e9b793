//! Replay traces: recorded `(offset, tuple)` sequences re-emitted against
//! the query's frame. One packed layout serves both a peer-resident trace
//! ([`SensorSpec::Replay`](crate::query::SensorSpec::Replay), set by
//! `MortarPeer::set_replay`) and a replay feed
//! ([`FeedConnector::Replay`](super::FeedConnector::Replay)); a source's
//! cursor is the index of the next tuple, and it only advances when a
//! tuple is actually emitted, so a paused `Backpressure` feed replays
//! late-but-complete.

use crate::tuple::RawTuple;

/// A replay trace packed into four flat arrays: tuple `i` is due at
/// query-frame offset `offs[i]`, carries key `keys[i]`, and its fields are
/// `vals[starts[i]..starts[i + 1]]` (the last tuple's run ends at
/// `vals.len()`). A 1-field tuple costs 8 + 8 + 4 + 8 = 28 B and no
/// allocation of its own, where a `(u64, RawTuple)` pair costs ~72 B (a
/// 40 B element plus a 32 B heap chunk for its field vector).
#[derive(Debug, Default, PartialEq)]
pub struct ReplayTrace {
    offs: Vec<u64>,
    keys: Vec<u64>,
    starts: Vec<u32>,
    vals: Vec<f64>,
}

impl ReplayTrace {
    /// Packs `(offset, tuple)` pairs, preserving their order. Each
    /// tuple's field vector is freed as soon as it is copied.
    pub fn pack(trace: Vec<(u64, RawTuple)>) -> Self {
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

    /// If tuple `*next` is due by `frame_now_us`, writes it into `out`
    /// (reusing `out`'s field buffer), advances the cursor and returns the
    /// tuple's offset.
    pub(crate) fn emit(
        &self,
        next: &mut i64,
        frame_now_us: i64,
        out: &mut RawTuple,
    ) -> Option<i64> {
        let i = *next as usize;
        let at = *self.offs.get(i)? as i64;
        if at > frame_now_us {
            return None;
        }
        let end = self.starts.get(i + 1).map_or(self.vals.len(), |&s| s as usize);
        out.set(self.keys[i], &self.vals[self.starts[i] as usize..end]);
        *next += 1;
        Some(at)
    }

    /// Frame offset of tuple `next`, or `i64::MAX` past the trace's end.
    pub(crate) fn next_due_us(&self, next: i64) -> i64 {
        self.offs.get(next as usize).map_or(i64::MAX, |&off| off as i64)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ReplayTrace {
        let t: Vec<_> = (0..10u64).map(|i| (i * 100, RawTuple::of(i as f64))).collect();
        ReplayTrace::pack(t)
    }

    /// Emits up to `max` tuples due by `now`, as a connector poll does.
    fn poll(t: &ReplayTrace, next: &mut i64, now: i64, max: usize, out: &mut Vec<f64>) {
        let mut raw = RawTuple::default();
        while out.len() < max && t.emit(next, now, &mut raw).is_some() {
            out.push(raw.field(0));
        }
    }

    #[test]
    fn emits_only_due_tuples_and_respects_max() {
        let t = trace();
        let (mut next, mut out) = (0, Vec::new());
        poll(&t, &mut next, 450, 3, &mut out);
        assert_eq!(out.len(), 3, "max caps the batch");
        poll(&t, &mut next, 450, 100, &mut out);
        assert_eq!(out.len(), 5, "tuples at 0..=400 are due by 450");
        assert_eq!(t.next_due_us(next), 500);
        poll(&t, &mut next, 10_000, 100, &mut out);
        assert_eq!(out, (0..10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.next_due_us(next), i64::MAX);
    }
}
