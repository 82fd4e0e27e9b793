//! The benchmark's metric tables — the one place a metric's name, unit,
//! kind, direction and bound are written down. `BENCHMARK.json`, the
//! result files, `compare` and the README tables all derive from here.

use crate::json::Json;
use crate::workload;

/// Host metrics are wall time and memory: noisy, summarised by the median
/// of repeats with the spread recorded. Sim metrics are simulated
/// statistics: for a seed they repeat bit-for-bit, and a change that only
/// makes the simulator faster must leave every one of them identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Sim,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// before `compare` (and the driver) calls a regression.
    pub bound: f64,
    /// A worsening smaller than this many units is never a regression
    /// (0 = none): keeps a 10 % bound meaningful on a 0.1 s setup.
    pub abs_floor: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        kind: Kind::Host,
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.05,
        what: "workload start to timed-region start: generator, topology, Engine::new, plan, \
               install, 30 sim-s warm-up; median of the run's set-ups",
    },
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "sim-s/s",
        kind: Kind::Host,
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
        what: "timed simulated seconds per host second spent inside engine calls",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        kind: Kind::Host,
        better: Better::Lower,
        bound: 0.10,
        abs_floor: 0.0,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "completeness_pct",
        unit: "%",
        kind: Kind::Sim,
        better: Better::Higher,
        bound: 0.05,
        abs_floor: 0.0,
        what: "mean participants / members per expected window, fragments folded, capped at \
               100 % per window, unreported windows counting 0",
    },
    EndToEnd {
        name: "result_lag_ms_p50",
        unit: "ms",
        kind: Kind::Sim,
        better: Better::Lower,
        bound: 0.10,
        abs_floor: 0.0,
        what: "participant-weighted median of ResultRecord::due_lag_us (clamped at 0): the \
               paper's result latency",
    },
    EndToEnd {
        name: "result_lag_ms_p99",
        unit: "ms",
        kind: Kind::Sim,
        better: Better::Lower,
        bound: 0.10,
        abs_floor: 0.0,
        what: "the same, 99th percentile",
    },
    EndToEnd {
        name: "wire_bytes_per_result",
        unit: "B",
        kind: Kind::Sim,
        better: Better::Lower,
        bound: 0.15,
        abs_floor: 0.0,
        what: "link-bytes of all three traffic classes in the timed region / distinct \
               (query, window) reported",
    },
    EndToEnd {
        name: "wire_msgs_per_result",
        unit: "msgs",
        kind: Kind::Sim,
        better: Better::Lower,
        bound: 0.10,
        abs_floor: 0.0,
        what: "message send events of all classes / the same denominator",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// count (public stats deltas), unit (micro-driver), span (traced
    /// run) or derived.
    pub source: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, source }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 66] = [
    layer("runtime.events_per_sim_s", "1/s", Lower, "count"),
    layer("runtime.msgs_sent_per_sim_s", "1/s", Lower, "count"),
    layer("runtime.msgs_dropped_pct", "%", Lower, "count"),
    layer("runtime.dups_suppressed_per_sim_s", "1/s", Lower, "count"),
    layer("runtime.null_app_ns_per_event", "ns", Lower, "unit"),
    layer("runtime.est_share_pct", "%", Lower, "derived"),
    layer("runtime.slice_wall_ms_p50", "ms", Lower, "span"),
    layer("runtime.slice_wall_ms_p90", "ms", Lower, "span"),
    layer("runtime.slice_drift_pct", "%", Lower, "span"),
    layer("runtime.shards2_ratio", "x", Higher, "span"),
    layer("peer.ticks_per_sim_s", "1/s", Lower, "count"),
    layer("peer.idle_tick_pct", "%", Higher, "count"),
    layer("peer.wakeups_per_tick", "count", Lower, "count"),
    layer("peer.idle_tick_ns", "ns", Lower, "unit"),
    layer("peer.evictions_per_sim_s", "1/s", Lower, "count"),
    layer("peer.summaries_in_per_sim_s", "1/s", Lower, "count"),
    layer("peer.summaries_out_per_sim_s", "1/s", Lower, "count"),
    layer("peer.ts_peak_entries", "count", Lower, "count"),
    layer("peer.tuples_per_frame", "count", Higher, "count"),
    layer("peer.frames_per_envelope", "count", Higher, "count"),
    layer("peer.envelopes_per_sim_s", "1/s", Lower, "count"),
    layer("peer.outbox_peak_bytes", "B", Lower, "count"),
    layer("net.mean_data_msg_bytes", "B", Higher, "count"),
    layer("net.data_bytes_per_sim_s", "B/s", Lower, "count"),
    layer("peer.route_drops_pct", "%", Lower, "count"),
    layer("peer.mean_hops", "count", Lower, "count"),
    layer("tslist.insert_exact_ns", "ns", Lower, "unit"),
    layer("tslist.insert_splice_ns", "ns", Lower, "unit"),
    layer("tslist.pop_due_ns", "ns", Lower, "unit"),
    layer("tslist.est_share_pct", "%", Lower, "derived"),
    layer("value.merge_scalar_ns", "ns", Lower, "unit"),
    layer("value.merge_keyed64_ns", "ns", Lower, "unit"),
    layer("op.lift_ns", "ns", Lower, "unit"),
    layer("value.est_share_pct", "%", Lower, "derived"),
    layer("overlay.route_decision_ns", "ns", Lower, "unit"),
    layer("overlay.hopbins_push_ns", "ns", Lower, "unit"),
    layer("msg.envelope_wire_bytes_ns", "ns", Lower, "unit"),
    layer("overlay.plan_ms_per_query", "ms", Lower, "span"),
    layer("api.install_call_us_p50", "us", Lower, "span"),
    layer("api.remove_call_us_p50", "us", Lower, "span"),
    layer("control.installs_applied_per_sim_s", "1/s", Lower, "count"),
    layer("control.removals_applied_per_sim_s", "1/s", Lower, "count"),
    layer("control.reconciles_per_sim_s", "1/s", Lower, "count"),
    layer("control.reconcile_msgs_per_sim_s", "1/s", Lower, "count"),
    layer("control.reconcile_bytes_per_sim_s", "B/s", Lower, "count"),
    layer("net.control_bytes_per_sim_s", "B/s", Lower, "count"),
    layer("net.heartbeat_bytes_per_sim_s", "B/s", Lower, "count"),
    layer("control.install_converge_ms_p50", "ms", Lower, "count"),
    layer("control.install_converge_ms_p90", "ms", Lower, "count"),
    layer("control.install_stranded_pct", "%", Lower, "count"),
    layer("control.digest_plan_ns", "ns", Lower, "unit"),
    layer("control.store_hash_ns", "ns", Lower, "unit"),
    layer("control.install_chunking_us", "us", Lower, "unit"),
    layer("setup.generator_s", "s", Lower, "span"),
    layer("setup.topology_s", "s", Lower, "span"),
    layer("setup.engine_new_s", "s", Lower, "span"),
    layer("setup.plan_s", "s", Lower, "span"),
    layer("setup.install_s", "s", Lower, "span"),
    layer("setup.warmup_s", "s", Lower, "span"),
    layer("api.drain_us_per_slice", "us", Lower, "span"),
    layer("lang.compile_us_per_query", "us", Lower, "unit"),
    layer("alloc.allocs_per_sim_s", "1/s", Lower, "count"),
    layer("alloc.peak_live_mb", "MB", Lower, "count"),
    layer("host.runq_wait_pct", "%", Lower, "count"),
    layer("trace.overhead_pct", "%", Lower, "derived"),
    layer("unattributed_pct", "%", Lower, "derived"),
];

/// How long one contract run measures, at the reference run lengths.
pub const RUN_SECONDS: u64 = workload::REFERENCE_SECONDS;

/// `BENCHMARK.json`: exactly the contract's keys, rendered from the
/// tables above so the file and the program cannot drift apart.
pub fn benchmark_json() -> Json {
    let workloads = workload::ALL
        .into_iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
        }
        for w in workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{} why", w.name());
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_what_the_tables_render() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
        assert_eq!(
            crate::json::parse(&committed).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `benchmark/run.sh spec`"
        );
    }
}
