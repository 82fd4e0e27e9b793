//! Figures 14 & 15: responsiveness — completeness, tuple path length, and
//! total network load during rolling failures (Fig. 14) and churn
//! (Fig. 15), Section 7.2.2.
//!
//! Paper setup (Fig. 14): 680 peers, 4 trees, bf 16, 1-second window sum;
//! disconnect 10/20/30/40% for 60 s each, reconnecting in between. Mortar
//! returns stable results ~7 s after each failure (heartbeat period 2 s),
//! average result latency 4.5 s, path length 4 (tree height) with up to 3
//! extra hops during failures. Steady-state load 12.5 Mbps of which
//! 3.4 Mbps heartbeats; the same experiment without aggregation costs 2x.
//!
//! Fig. 15: disconnect 10%, then every 10 s reconnect half and fail a fresh
//! 5% — Mortar reconnects all live nodes within each 10 s epoch.

use super::common::{count_peers_spec, mean, standard_engine};
use crate::{banner, scaled};
use mortar_core::engine::Engine;
use mortar_core::metrics::{self, mean_report_latency_secs};
use mortar_net::{NodeId, TrafficClass};

fn path_len_timeline(eng: &Engine, horizon: usize) -> Vec<f64> {
    let mut sums = vec![0.0; horizon];
    let mut counts = vec![0u64; horizon];
    for r in eng.results(0) {
        let sec = (r.emit_true_us / 1_000_000) as usize;
        if sec < horizon {
            // Weight by participants so big merges dominate like the paper.
            sums[sec] += r.path_len as f64 * r.participants as f64;
            counts[sec] += r.participants as u64;
        }
    }
    (0..horizon)
        .map(|s| if counts[s] == 0 { f64::NAN } else { sums[s] / counts[s] as f64 })
        .collect()
}

fn print_timeline(label: &str, series: &[f64], step: usize) {
    print!("{label:>14}:");
    for (i, v) in series.iter().enumerate() {
        if i % step == 0 {
            if v.is_nan() {
                print!("{:>7}", "-");
            } else {
                print!("{v:>7.1}");
            }
        }
    }
    println!();
}

/// Runs the rolling-failures experiment (Figure 14).
pub fn run_fig14() {
    banner("Figure 14", "completeness / path length / network load under rolling failures");
    let n = scaled(240, 680);
    let mut eng = standard_engine(n, 4, 16, 300);
    eng.install(count_peers_spec("q", n, 1_000_000)).expect("valid spec");
    // Timeline: 40 s warm-up, then 60 s outages of 10/20/30/40% separated
    // by 40 s of recovery.
    eng.run_secs(40.0);
    let mut marks = vec![(0.0, "install")];
    for (i, frac) in [0.1, 0.2, 0.3, 0.4].iter().enumerate() {
        let t0 = 40.0 + i as f64 * 100.0;
        marks.push((t0, "fail"));
        let down = eng.disconnect_random(*frac, 0);
        eng.run_secs(60.0);
        marks.push((t0 + 60.0, "recover"));
        eng.reconnect(&down);
        eng.run_secs(40.0);
    }
    let horizon = 440usize;
    let live = 100.0; // Completeness is vs. live nodes in the text.
    let _ = live;
    let comp = metrics::completeness_timeline(eng.results(0), n, horizon);
    let path = path_len_timeline(&eng, horizon);
    let bw: Vec<f64> = (0..horizon).map(|s| eng.sim.bandwidth().mbps_at(s)).collect();
    println!("timeline (one sample per 20 s; failures at 40/140/240/340 s):");
    print_timeline("t (s)", &(0..horizon).map(|s| s as f64).collect::<Vec<_>>(), 20);
    print_timeline("complete (%)", &comp, 20);
    print_timeline("path length", &path, 20);
    print_timeline("load (Mbps)", &bw, 20);
    let steady_bw = eng.sim.bandwidth().mean_mbps(20, 40);
    let steady_hb = eng.sim.bandwidth().mean_class_mbps(TrafficClass::Heartbeat, 20, 40);
    let lat = mean_report_latency_secs(eng.results(0));
    println!(
        "\nsteady-state load {steady_bw:.2} Mbps ({steady_hb:.2} Mbps heartbeats); \
         mean result latency {lat:.1}s"
    );

    // The no-aggregation reference: operators forward every summary up the
    // same trees without merging, so each tuple crosses its whole overlay
    // path individually ("nodes fail to wait before sending tuples to
    // their parents"). Computed analytically from the planned primary tree.
    let raw_bw = no_aggregation_mbps(&eng, n);
    println!(
        "same workload without aggregation: {raw_bw:.2} Mbps ({:.1}x Mortar) — \
         the paper reports 2x.",
        raw_bw / steady_bw.max(1e-9)
    );
}

/// Steady-state load of forwarding every per-source summary unmerged up the
/// primary tree: each member's tuple is retransmitted at every overlay hop.
fn no_aggregation_mbps(eng: &Engine, n: usize) -> f64 {
    use mortar_net::TRANSPORT_OVERHEAD_BYTES;
    let mut eng2 = standard_engine(n, 4, 16, 300);
    let spec = count_peers_spec("plan-only", n, 1_000_000);
    let trees = eng2.plan(&spec).expect("valid spec");
    let _ = eng;
    let topo = eng2.sim.topology();
    let per_tuple = 100u32 + TRANSPORT_OVERHEAD_BYTES; // summary + transport.
    let mut bytes_per_sec = 0u64;
    let tree = trees.tree(0);
    for m in 0..n {
        let path = tree.path_to_root(m);
        for w in path.windows(2) {
            let (a, b) = (spec.members[w[0]], spec.members[w[1]]);
            bytes_per_sec += per_tuple as u64 * topo.hops(a, b) as u64;
        }
    }
    bytes_per_sec as f64 * 8.0 / 1e6
}

/// Runs the churn experiment (Figure 15).
pub fn run_fig15() {
    banner("Figure 15", "accuracy during 10% churn (5% swapped every 10 s)");
    let n = scaled(240, 680);
    let mut eng = standard_engine(n, 4, 16, 301);
    eng.install(count_peers_spec("q", n, 1_000_000)).expect("valid spec");
    eng.run_secs(30.0);
    // Initial 10% down.
    let mut down: Vec<NodeId> = eng.disconnect_random(0.10, 0);
    let mut live_series: Vec<f64> = Vec::new();
    for _ in 0..6 {
        eng.run_secs(10.0);
        live_series.push(100.0 * (n - down.len()) as f64 / n as f64);
        // Reconnect 5% (half the down set), fail a fresh random 5%.
        let back: Vec<NodeId> = down.drain(..down.len() / 2).collect();
        eng.reconnect(&back);
        let mut fresh = eng.disconnect_random(0.05, 0);
        down.append(&mut fresh);
    }
    eng.run_secs(10.0);
    let horizon = 100usize;
    let comp = metrics::completeness_timeline(eng.results(0), n, horizon);
    let path = path_len_timeline(&eng, horizon);
    println!("timeline (one sample per 5 s; churn epochs every 10 s from t=30):");
    print_timeline("t (s)", &(0..horizon).map(|s| s as f64).collect::<Vec<_>>(), 5);
    print_timeline("complete (%)", &comp, 5);
    print_timeline("path length", &path, 5);
    let steady: Vec<f64> = comp[40..90].iter().copied().filter(|c| !c.is_nan()).collect();
    println!(
        "\nmean completeness during churn {:.1}% (live nodes ~90%); the paper \
         reconnects all live nodes within each 10 s epoch.",
        mean(&steady)
    );
}
