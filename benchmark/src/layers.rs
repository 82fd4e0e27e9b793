//! Per-layer metrics of a traced run: counts from the public stats deltas,
//! unit costs from the micro-drivers, spans from the recorder — and the
//! estimated shares that tie them together.
//!
//! `*.est_share_pct` = count × unit cost ÷ the timed region's host time.
//! It is an estimate and is labelled so: unit costs are measured outside
//! the run, on inputs shaped like the run's, so shares need not sum to
//! 100 and the remainder is printed as `unattributed_pct`, not hidden.

use crate::micro::UnitCosts;
use crate::spec::PER_LAYER;
use crate::stats::{median, percentile};
use crate::workload::{Pass, Workload};

/// Every per-layer metric, in `spec::PER_LAYER` order (the array's length
/// is checked against the table's when this compiles).
///
/// `plain` is the untraced pass, `traced` the pass with spans and
/// allocation counting on, `sharded` the extra `shards = 2` pass.
pub fn per_layer(
    w: Workload,
    plain: &Pass,
    traced: &Pass,
    sharded: &Pass,
    unit: &UnitCosts,
    peak_live_bytes: u64,
) -> [f64; PER_LAYER.len()] {
    let c = &traced.sim.counters;
    let h = &traced.host;
    let sim_s = traced.sim.timed_sim_s as f64;
    let timed_ns = h.timed_s * 1e9;
    let per_s = |n: u64| n as f64 / sim_s;
    let pct = |part: f64, whole: f64| if whole > 0.0 { 100.0 * part / whole } else { 0.0 };
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let ms: Vec<f64> = h.slices_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let quarter = (ms.len() / 4).max(1);
    let first = median(&ms[..quarter]).unwrap_or(0.0);
    let last = median(&ms[ms.len() - quarter..]).unwrap_or(0.0);
    let p50_us = |calls: &[u64]| {
        let us: Vec<f64> = calls.iter().map(|&n| n as f64 / 1e3).collect();
        percentile(&us, 50.0).unwrap_or(0.0)
    };
    let rate = |p: &Pass| p.sim.timed_sim_s as f64 / p.host.timed_s;

    let events = c.delivered + c.ticks;
    let runtime_share = pct(events as f64 * unit.null_app_ns_per_event, timed_ns);
    // Every arriving tuple is priced as an exact-index insert (no public
    // counter separates the splitting inserts) and every query pass as one
    // eviction scan.
    let tslist_share = pct(
        c.summaries_in as f64 * unit.insert_exact_ns + c.query_wakeups as f64 * unit.pop_due_ns,
        timed_ns,
    );
    let merge_ns =
        if w == Workload::Keyed100 { unit.merge_keyed64_ns } else { unit.merge_scalar_ns };
    let value_share = pct(
        c.summaries_in as f64 * merge_ns + traced.sim.tuples_lifted as f64 * unit.lift_ns,
        timed_ns,
    );

    [
        per_s(events),
        per_s(c.sent),
        pct(c.dropped as f64, c.sent as f64),
        per_s(c.dups_suppressed),
        unit.null_app_ns_per_event,
        runtime_share,
        percentile(&ms, 50.0).unwrap_or(0.0),
        percentile(&ms, 90.0).unwrap_or(0.0),
        if first > 0.0 { 100.0 * (last / first - 1.0) } else { 0.0 },
        rate(sharded) / rate(plain),
        per_s(c.ticks),
        pct(c.idle_ticks as f64, c.ticks as f64),
        ratio(c.query_wakeups, c.ticks),
        unit.idle_tick_ns,
        per_s(c.evictions),
        per_s(c.summaries_in),
        per_s(c.summaries_out),
        c.ts_peak_entries as f64,
        ratio(c.summaries_out, c.frames_out),
        ratio(c.frames_out, c.envelopes_out),
        per_s(c.envelopes_out),
        c.outbox_peak_bytes as f64,
        ratio(c.bytes[0], c.msgs[0]),
        per_s(c.bytes[0]),
        pct(c.route_drops as f64, (c.summaries_out + c.route_drops) as f64),
        traced.sim.mean_hops,
        unit.insert_exact_ns,
        unit.insert_splice_ns,
        unit.pop_due_ns,
        tslist_share,
        unit.merge_scalar_ns,
        unit.merge_keyed64_ns,
        unit.lift_ns,
        value_share,
        unit.route_decision_ns,
        unit.hopbins_push_ns,
        unit.envelope_wire_bytes_ns,
        h.plan_s * 1e3 / h.plan_calls_ns.len().max(1) as f64,
        p50_us(&h.install_calls_ns),
        p50_us(&h.remove_calls_ns),
        per_s(c.installs_applied),
        per_s(c.removals_applied),
        per_s(c.reconciles),
        per_s(c.reconcile_msgs),
        per_s(c.reconcile_bytes),
        per_s(c.bytes[2]),
        per_s(c.bytes[1]),
        traced.sim.install_converge_ms_p50,
        traced.sim.install_converge_ms_p90,
        pct(traced.sim.installs_stranded as f64, traced.sim.installs_attempted as f64),
        unit.digest_plan_ns,
        unit.store_hash_ns,
        unit.install_chunking_us,
        h.generator_s,
        h.topology_s,
        h.engine_new_s,
        h.plan_s,
        h.install_s,
        h.warmup_s,
        h.drain_ns as f64 / 1e3 / h.slices_ns.len().max(1) as f64,
        unit.compile_us_per_query,
        h.timed_allocs as f64 / sim_s,
        peak_live_bytes as f64 / (1024.0 * 1024.0),
        pct(h.runq_wait_ns as f64, h.timed_s * 1e9),
        100.0 * (1.0 - rate(traced) / rate(plain)),
        100.0 - runtime_share - tslist_share - value_share,
    ]
}
