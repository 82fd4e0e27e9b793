//! Spans around every call the benchmark makes into the engine.
//!
//! Recorded from the benchmark's own files (in-program spans are a later
//! change), held in memory, written out when the pass ends. A disabled
//! recorder still runs the closure and still reads the clock — the host
//! clock is the same code in traced and untraced passes — but keeps
//! nothing, so the only tracing overhead is the `Vec` push.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
}

/// An open span: where it sits in the recorder and when it began.
#[must_use = "an opened span must be passed to Recorder::end"]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span; pair with [`Recorder::end`]. Spans nest as a stack.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { slot, start }
    }

    /// Closes the innermost open span and returns the host nanoseconds
    /// since its `begin`.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if let Some(i) = open.slot {
            debug_assert_eq!(self.open.last(), Some(&i), "spans close innermost-first");
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
            self.open.pop();
        }
        (end - open.start).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the host nanoseconds it took.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus the part of it its direct
/// children cover. Children of one parent never overlap (one thread, a
/// stack discipline), so their durations add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// `(name, count, total ns, self ns)` per span name, in first-seen order.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let own = self_times_ns(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let total = s.end_ns - s.start_ns;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += total;
                r.3 += own_ns;
            }
            None => rows.push((s.name, 1, total, own_ns)),
        }
    }
    rows
}

/// The span file: every span with its workload id, plus the per-name
/// summary a reader wants first.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let summary = by_name(spans)
        .into_iter()
        .map(|(name, count, total, own)| {
            Json::obj([
                ("name", Json::str(name)),
                ("count", Json::Int(count as i64)),
                ("total_ns", Json::Int(total as i64)),
                ("self_ns", Json::Int(own as i64)),
            ])
        })
        .collect();
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::str(s.name),
                Json::Int(s.start_ns as i64),
                Json::Int(s.end_ns as i64),
                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("columns", Json::Arr(["name", "start_ns", "end_ns", "parent"].map(Json::str).to_vec())),
        ("by_name", Json::Arr(summary)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // run [0,100) ⊃ slice [10,40) ⊃ inner [15,25); run ⊃ drain [50,70).
        let spans = vec![
            s("run", 0, 100, None),
            s("slice", 10, 40, Some(0)),
            s("inner", 15, 25, Some(1)),
            s("drain", 50, 70, Some(0)),
        ];
        // run: 100 − 30 − 20 = 50 (the grandchild is not subtracted twice);
        // slice: 30 − 10 = 20.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        let own: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(own, 100, "self times of a tree add up to the root's duration");
    }

    #[test]
    fn summary_groups_by_name_in_first_seen_order() {
        let spans = vec![
            s("timed.slice", 0, 10, None),
            s("timed.drain", 10, 12, None),
            s("timed.slice", 12, 30, None),
        ];
        assert_eq!(by_name(&spans), vec![("timed.slice", 2, 28, 28), ("timed.drain", 1, 2, 2)]);
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer");
        let (v, _) = rec.span("inner", || std::hint::black_box(7));
        let outer_ns = rec.end(outer);
        assert_eq!(v, 7);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(outer_ns >= spans[1].end_ns - spans[1].start_ns);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut rec = Recorder::new(false);
        let ((), ns) = rec.span("x", || std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(ns >= 2_000_000);
        assert!(rec.into_spans().is_empty());
    }
}
